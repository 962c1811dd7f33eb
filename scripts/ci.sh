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
# The fleet payloads must reproduce: regenerate the full 10k-node
# fleet-scale curve and the 512-node fleet-chaos sweep, serially, under
# target/ so the committed files stay intact, and fail if any key without
# "wall" in its name differs from the committed file. Each bench asserts
# zero oracle violations at every point; fleet_scale also asserts a
# memoized repeat, fleet_chaos full lost-job accounting.
M3_JOBS=1 M3_FLEET_SCALE_BUDGET_S=60 M3_RESULTS_DIR=target/ci-results \
    cargo bench -p m3-bench --bench fleet_scale
M3_JOBS=1 M3_FLEET_CHAOS_BUDGET_S=120 M3_RESULTS_DIR=target/ci-results \
    cargo bench -p m3-bench --bench fleet_chaos
for fig in fleet_scale fleet_chaos; do
    python3 - "results/BENCH_$fig.json" "target/ci-results/BENCH_$fig.json" <<'PY'
import json, sys

def strip(v):
    if isinstance(v, dict):
        return {k: strip(x) for k, x in v.items() if "wall" not in k}
    if isinstance(v, list):
        return [strip(x) for x in v]
    return v

committed, fresh = (strip(json.load(open(p))) for p in sys.argv[1:])
if committed != fresh:
    sys.exit(f"{sys.argv[2]} differs from {sys.argv[1]} outside its wall clocks")
PY
done
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
