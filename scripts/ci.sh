#!/usr/bin/env bash
# CI gate: build, test, lint, document, and check formatting for the whole
# workspace.
# Run from anywhere; operates on the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
# The benchmark is a workspace of its own (perfbench/Cargo.toml), so the
# workspace build, tests and clippy never compile it; build it here so a
# public-API change that breaks it fails CI.
cargo build --offline --release --manifest-path perfbench/Cargo.toml
# The benchmark's own output checks, on a small budget. The traced run
# checks every unit's output, capture-on against capture-off outcomes, the
# kv replay and the warm fleet repeat. perfbench exits 0 even when a unit
# fails its check, so read the verdict from its last line.
for workload in node_mix kv_read kv_write fleet_waves; do
    verdict=$(cargo run --offline --release --quiet \
        --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 2 --trace 1 | tail -n 1)
    case "$verdict" in
        *'"correct": true'*) ;;
        *) echo "perfbench $workload failed its checks: $verdict" >&2; exit 1 ;;
    esac
done
# Every test of every workspace member: the root package's suites (chaos,
# conformance, fleet, fleet_properties and the rest), the member crates'
# unit tests and their doctests. On a conformance failure the offending
# trace JSON lands in target/conformance-artifacts/.
cargo test -q --workspace
# Fixed-seed chaos drills (node- and fleet-level); each asserts its own
# replay is byte-identical and, at fleet level, zero oracle violations.
cargo run --release --example chaos_drill
cargo run --release --example fleet_chaos_drill
# Fleet-scale smoke: the scaling curve up to 512 nodes with a generous
# per-point wall-clock budget (full 10k-node curve runs out of band).
# Asserts zero oracle violations and a memoized repeat at every point.
# Writes under target/ so the committed full-curve report stays intact.
M3_FLEET_SCALE_MAX_NODES=512 M3_FLEET_SCALE_BUDGET_S=60 \
    M3_RESULTS_DIR=target/ci-results \
    cargo bench -p m3-bench --bench fleet_scale
# Fleet-chaos smoke: the MTBF sweep on a smaller fleet. Asserts zero
# oracle violations and full lost-job accounting at every point.
M3_FLEET_CHAOS_NODES=128 M3_FLEET_CHAOS_BUDGET_S=120 \
    M3_RESULTS_DIR=target/ci-results \
    cargo bench -p m3-bench --bench fleet_chaos
# Cache-trace smoke: the key-granular M3 vs Default vs static-limit sweep
# at reduced scale (the committed full-scale sweep runs 1.2M keys / 10M
# ops per point). Every point must replay oracle-clean within budget; the
# drill additionally proves byte-identical replay.
M3_CACHE_TRACE_KEYS=150000 M3_CACHE_TRACE_OPS=1200000 \
    M3_CACHE_TRACE_BUDGET_S=60 \
    M3_RESULTS_DIR=target/ci-results \
    cargo bench -p m3-bench --bench cache_trace
cargo run --release --example cache_trace_drill
# Mixed-criticality smoke: the co-location sweep at reduced batch load.
# The bench itself is the conformance step — it asserts zero oracle
# violations at every point (classified and criticality-unaware), that the
# classified scheduler holds the cache tier's SLO, and that the fleet's
# own SLO accounting agrees with external scoring.
M3_MIXED_CRIT_MAX_BATCH=4 M3_MIXED_CRIT_BUDGET_S=60 \
    M3_RESULTS_DIR=target/ci-results \
    cargo bench -p m3-bench --bench mixed_criticality
# Work-packet reclamation smoke: the fig6/fig7 packetized sweep at a
# reduced salt spread. The bench is the conformance step — it asserts
# byte-identical results at 1 vs 8 workers, zero oracle violations
# (including the reclaim.packet.* ordering and byte-conservation
# invariants) at every point, and every enqueued packet finished.
M3_RECLAIM_PACKETS_SALTS=4 M3_RECLAIM_PACKETS_BUDGET_S=60 \
    M3_RESULTS_DIR=target/ci-results \
    cargo bench -p m3-bench --bench reclaim_packets
cargo clippy --workspace --all-targets -- -D warnings
# The API docs with rustdoc warnings denied, so a doc link to a deleted or
# private item fails the gate.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
cargo fmt --check
