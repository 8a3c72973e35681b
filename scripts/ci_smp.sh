#!/usr/bin/env bash
# CI job: the SMP scheduler (DESIGN.md §3.4) across core counts.
#
#   leg 1: the full tier-1 suite with OCCLUM_CORES=1 — one core is
#          the degenerate case of the per-core walk (one queue,
#          nothing to steal, a no-op barrier) and must reproduce the
#          pre-SMP kernel exactly (the env var only reaches
#          OcclumSystem-based tests; the targeted Smp.* /
#          EpollWorkload.* batteries sweep core counts internally on
#          LinuxSystem regardless, and
#          Smp.OneCoreStormMatchesTheUnicoreGolden pins the cores=1
#          schedule to the one the old single-queue walk produced),
#   leg 2: the full tier-1 suite with OCCLUM_CORES=2 and 4 — every
#          OcclumSystem scenario reruns over per-core run queues,
#          work stealing, and cross-core wakeups. Tests that assert
#          an exact unicore interleaving pin Config::cores = 1, so
#          these legs must be as green as leg 1,
#   leg 3: a per-core AEX storm over the multi-core epoll
#          reverse-proxy scenario — each core's countdown slices its
#          own quanta, so every SSA save/scrub/restore happens on
#          the core (and TCS) that was actually interrupted, while
#          determinism is re-asserted run-to-run at cores {1,2,4}.
#   leg 4: the same storms with the transition-orderliness monitor
#          (DESIGN.md §9) in strict mode — an illegal EENTER / EEXIT /
#          AEX / ERESUME / rebind sequence on any TCS panics with
#          full context instead of being counted, so a scheduler
#          regression that services a SmashEx-shaped transition
#          cannot hide behind a green run.
#   leg 5: bench_smp — the bench asserts its own monotone 1->2->4
#          core scaling, and every cores=1 row (c1-* and proxy-c1)
#          must equal the recorded SMP snapshot
#          (bench/results/2026-08-07-pr9-smp) exactly.
#
# Usage: scripts/ci_smp.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$(nproc)"

for cores in 1 2 4; do
    echo "=== tier-1 under OCCLUM_CORES=$cores ==="
    OCCLUM_CORES="$cores" \
        ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"
done

echo "=== AEX storm over the multi-core proxy (per-core SSA) ==="
OCCLUM_FAULT_PLAN="seed=707;aex_every=2048" OCCLUM_CORES=4 \
    "$BUILD_DIR/tests/epoll_test" \
    --gtest_filter='EpollWorkload.*'

echo "=== AEX storm over the SMP batteries ==="
OCCLUM_FAULT_PLAN="seed=707;aex_every=2048" \
    "$BUILD_DIR/tests/oskit_test" --gtest_filter='Smp.*'

echo "=== monitor-strict: storms + orderliness battery ==="
OCCLUM_ORDERLINESS=strict OCCLUM_FAULT_PLAN="seed=707;aex_every=2048" \
    OCCLUM_CORES=4 "$BUILD_DIR/tests/epoll_test" \
    --gtest_filter='EpollWorkload.*'
OCCLUM_ORDERLINESS=strict "$BUILD_DIR/tests/orderliness_test"

echo "=== bench_smp: cores=1 rows against the recorded snapshot ==="
SNAPSHOT="$PWD/bench/results/2026-08-07-pr9-smp/BENCH_smp.json"
BENCH="$(cd "$BUILD_DIR" && pwd)/bench/bench_smp"
OUT_DIR="$(mktemp -d)"
trap 'rm -rf "$OUT_DIR"' EXIT
(cd "$OUT_DIR" && "$BENCH" > bench_smp.log)
python3 - "$OUT_DIR/BENCH_smp.json" "$SNAPSHOT" <<'PY'
import json
import sys


def cores1_rows(path):
    with open(path) as f:
        rows = json.load(f)["rows"]
    return {(r["label"], r["metric"]): r["value"] for r in rows
            if r["label"].startswith("c1-") or r["label"] == "proxy-c1"}


got, want = cores1_rows(sys.argv[1]), cores1_rows(sys.argv[2])
if not want or got != want:
    for key in sorted(set(got) | set(want)):
        if got.get(key) != want.get(key):
            print(f"{key}: run {got.get(key)}, snapshot {want.get(key)}")
    sys.exit("bench_smp: cores=1 rows differ from the snapshot")
print(f"bench_smp: {len(got)} cores=1 rows match the snapshot")
PY
