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
# The cache crate's tests again in release, as its code ships: without
# debug assertions and overflow checks, with the index's `unsafe` prefetch
# and the branch-free value sizing optimized. Its all-keys equality tests
# take seconds there.
cargo test --release -q -p m3-cache
# The trace codec's tests again in release, as it ships: varint shifts and
# the word-at-a-time paths behave differently without overflow checks.
cargo test --release -q -p m3-sim
# The sampling profiler and RSS meter (scripts/profile.py) must at least
# compile.
python3 -m py_compile scripts/profile.py
# The vendored stand-ins under vendor/ are outside the workspace, so the
# line above never runs their tests. serde_json is the only one with
# tests: the JSON writer and reader every trace and payload goes through.
cargo test -q -p serde_json
# Every example, as a user runs it. The chaos drills (node- and fleet-level)
# and the cache-trace drill assert their own byte-identical replay, and the
# fleet drill zero oracle violations.
for example in quickstart spark_cluster cache_pressure threshold_tuning \
    mixed_tenancy fleet_quickstart chaos_drill fleet_chaos_drill \
    cache_trace_drill; do
    cargo run --release --example "$example"
done
# Every committed payload that reproduces must: regenerate each one
# serially, at full size, under target/ so the committed files stay intact,
# and fail if any key without "wall" in its name differs from the committed
# file. Most of these benches also assert their own invariants: zero oracle
# violations at every point, a memoized fleet-scale repeat, full lost-job
# accounting under fleet chaos, and the cache tier's SLO under
# mixed-criticality co-location. (Not checked here: fig5_sweep, whose timing
# keys lack "wall"; fig5_speedup, for its run time; micro; and
# reclaim_packets, whose smoke follows.)
payloads="fleet_scale fleet_chaos cache_trace mixed_criticality ablations
    containers fig1_elasticity fig2_alternating fig6_profile_mmw
    fig7_profile_cmw fig8_worst_case fig9_memcached fig10_thresholds
    optimality_gap"
for fig in $payloads; do
    M3_JOBS=1 M3_RESULTS_DIR=target/ci-results \
        M3_FLEET_SCALE_BUDGET_S=60 M3_FLEET_CHAOS_BUDGET_S=120 \
        M3_CACHE_TRACE_BUDGET_S=60 M3_MIXED_CRIT_BUDGET_S=60 \
        cargo bench -p m3-bench --bench "$fig"
done
# `compare_payloads DIR SKIP FIG...` fails unless every key of each
# DIR/BENCH_FIG.json, except those with "wall" in their name and those
# named SKIP, equals the committed results/BENCH_FIG.json. A differing
# payload prints its differing key paths (at most 20), with the committed
# and the fresh value of each.
compare_payloads() {
    python3 - "$@" <<'PY'
import json, sys

fresh_dir, skip, figs = sys.argv[1], sys.argv[2], sys.argv[3:]

def strip(v):
    if isinstance(v, dict):
        return {k: strip(x) for k, x in v.items() if "wall" not in k and k != skip}
    if isinstance(v, list):
        return [strip(x) for x in v]
    return v

def paths(a, b, at="$"):
    """Yields (path, committed, fresh) for every leaf where a and b differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(a.keys() | b.keys()):
            yield from paths(a.get(k, "<absent>"), b.get(k, "<absent>"), f"{at}.{k}")
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from paths(x, y, f"{at}[{i}]")
    elif a != b:
        yield at, a, b

differ = []
for fig in figs:
    committed, fresh = (
        strip(json.load(open(f"{d}/BENCH_{fig}.json")))
        for d in ("results", fresh_dir)
    )
    if committed != fresh:
        differ.append(fig)
        print(f"BENCH_{fig}.json differs:", file=sys.stderr)
        for i, (at, a, b) in enumerate(paths(committed, fresh)):
            if i == 20:
                print("  ...", file=sys.stderr)
                break
            print(f"  {at}: committed {json.dumps(a)}, fresh {json.dumps(b)}", file=sys.stderr)
if differ:
    sys.exit(f"payloads in {fresh_dir} differ from results/ outside their wall clocks: {differ}")
PY
}
# shellcheck disable=SC2086 # one argument per payload name
compare_payloads target/ci-results "" $payloads
# The fleet payloads again at two workers. A fleet run is serial and
# reads no worker count, so they must equal the committed one-worker
# files in every key but the wall clocks and the recorded worker count,
# which guards against fleet code that comes to read the count again.
# fleet_scale's replicated baseline (`run_cluster`) still fans out over
# the two workers.
fleet_payloads="fleet_scale fleet_chaos mixed_criticality"
for fig in $fleet_payloads; do
    M3_JOBS=2 M3_RESULTS_DIR=target/ci-results-2-workers \
        M3_FLEET_SCALE_BUDGET_S=60 M3_FLEET_CHAOS_BUDGET_S=120 \
        M3_MIXED_CRIT_BUDGET_S=60 \
        cargo bench -p m3-bench --bench "$fig"
done
# shellcheck disable=SC2086 # one argument per payload name
compare_payloads target/ci-results-2-workers workers $fleet_payloads
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
