#!/usr/bin/env bash
# Full verification gate: build, tier-1 tests, and lint-clean.
#
# This is what CI (and any pre-merge check) runs. It must pass from a clean
# checkout with no network access — all dependencies are vendored.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release --workspace

echo "== benchmark build (perfbench, a separate package on the public crate APIs) =="
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "== benchmark smoke (each perfbench workload once: acked-mutation audit and invariant checks) =="
for w in spotify mutations openloop; do
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$w" --seed 1 --seconds 1 --trace 0 >/dev/null
done

echo "== tier-1 tests =="
cargo test -q --workspace

echo "== subtree-op chaos gate (NN crash mid-op: no orphaned locks, deterministic replay) =="
cargo test -q --test chaos namenode_crash_mid_subtree_op_heals_and_replays_identically

echo "== AZ-outage chaos gate (whole-AZ loss: resync, no stale reads, deterministic replay) =="
cargo test -q --test chaos az_outage_recovers_clean_and_replays_identically

echo "== overload gate (hockey stick: admission ON plateaus, OFF collapses) =="
BENCH_SMOKE=1 BENCH_REUSE=0 cargo bench -q -p bench --bench fig_overload >/dev/null

echo "== lease-coherence chaos gate (cached reads never outlive acked conflicts, deterministic replay) =="
cargo test -q --test chaos lease_coherence_holds_under_crash_and_partition_and_replays_identically

echo "== client-cache gate (>=70% cache-served, >=3x read p50, coherent, replayable) =="
BENCH_SMOKE=1 BENCH_REUSE=0 cargo bench -q -p bench --bench fig_client_cache >/dev/null

echo "== sharded-kernel gate (chaos schedules + golden digests invariant at shards 1/2/4/8) =="
cargo test -q --test chaos -- shard_count_invariant
cargo test -q --test stack golden_digests_are_shard_count_invariant

echo "== elastic-serving chaos gate (diurnal pool, mid-drain crash, node-group add, deterministic replay) =="
cargo test -q --test chaos elastic_pool_rides_diurnal_load_with_mid_drain_crash_and_replays_identically

echo "== elastic gate (>=99% goodput at <=60% of static peak provisioning, 2 node-group events, replayable) =="
BENCH_SMOKE=1 BENCH_REUSE=0 cargo bench -q -p bench --bench fig_elastic >/dev/null

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc (deny warnings: no broken or private intra-doc links) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# Tier 2 (opt-in: VERIFY_TIER2=1 or --tier2): run every figure bench as a
# smoke cell three times — serial (--threads 1), fanned out (--threads 4),
# and fanned out on the sharded kernel (--threads 4, BENCH_SHARDS=4) — into
# separate result dirs, then require the artifacts to match byte-for-byte.
# This is the end-to-end check that neither the parallel multi-seed runner
# nor the conservative-parallel kernel can change what a bench reports, only
# how fast it reports it.
if [ "${VERIFY_TIER2:-0}" = "1" ] || [ "${1:-}" = "--tier2" ]; then
    echo "== tier-2: figure-bench thread- and shard-count determinism =="
    benches="fig5_throughput fig6_per_mds fig7_micro_ops fig7_subtree_ops \
             fig8_latency fig9_latency_pct fig10_cpu_util \
             fig11_ndb_threads_util fig12_storage_util fig13_nn_util \
             fig14_az_local_reads ablation_az_awareness fig_overload fig_az_outage \
             fig_client_cache fig_elastic"
    dir1=$(mktemp -d) && dirN=$(mktemp -d) && dirS=$(mktemp -d)
    trap 'rm -rf "$dir1" "$dirN" "$dirS"' EXIT
    printf '  %-24s %12s %12s %15s\n' "bench (smoke cell)" "threads=1" "threads=4" "t4 + shards=4"
    for b in $benches; do
        s=$(date +%s)
        BENCH_SMOKE=1 BENCH_REUSE=0 BENCH_SEEDS=41,42 BENCH_RESULTS_DIR="$dir1" \
            cargo bench -q -p bench --bench "$b" -- --threads 1 >/dev/null
        e1=$(( $(date +%s) - s ))
        s=$(date +%s)
        BENCH_SMOKE=1 BENCH_REUSE=0 BENCH_SEEDS=41,42 BENCH_RESULTS_DIR="$dirN" \
            cargo bench -q -p bench --bench "$b" -- --threads 4 >/dev/null
        eN=$(( $(date +%s) - s ))
        s=$(date +%s)
        BENCH_SMOKE=1 BENCH_REUSE=0 BENCH_SEEDS=41,42 BENCH_SHARDS=4 BENCH_RESULTS_DIR="$dirS" \
            cargo bench -q -p bench --bench "$b" -- --threads 4 >/dev/null
        eS=$(( $(date +%s) - s ))
        printf '  %-24s %11ss %11ss %14ss\n' "$b" "$e1" "$eN" "$eS"
    done
    if ! diff -rq "$dir1" "$dirN"; then
        echo "verify: FAILED — bench artifacts differ between --threads 1 and --threads 4" >&2
        exit 1
    fi
    if ! diff -rq "$dir1" "$dirS"; then
        echo "verify: FAILED — bench artifacts differ between the sequential and sharded kernels" >&2
        exit 1
    fi
    echo "tier-2: all artifacts byte-identical across thread and shard counts"
fi

echo "== repo hygiene (no tracked build artifacts) =="
if git ls-files --error-unmatch target/ >/dev/null 2>&1 || [ -n "$(git ls-files 'target/*')" ]; then
    echo "verify: FAILED — build artifacts under target/ are tracked by git:" >&2
    git ls-files 'target/*' | head >&2
    exit 1
fi
# Untracked files (??) are expected; staged deletions (D) are target/ being
# removed from tracking, also fine. Anything else means build artifacts are
# still tracked.
dirty=$(git status --porcelain -- target/ | grep -vE '^(\?\?|D )' || true)
if [ -n "$dirty" ]; then
    echo "verify: FAILED — the build modified git-tracked files under target/:" >&2
    echo "$dirty" | head >&2
    exit 1
fi

echo "verify: OK"
