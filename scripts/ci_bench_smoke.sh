#!/usr/bin/env bash
# CI job: smoke-test the benchmark recording pipeline. Runs the
# three cheap figure benches through scripts/bench_record.sh, checks
# that a snapshot with machine-readable JSON came out and that the
# spawn and SPEC-kernel rows match their committed snapshot, so bench
# or script rot is caught on every push rather than at paper-figure
# time, runs the build-path, spawn, byte-plane, syscall round-trip and
# EncFs substrate rows once, then runs perfbench's self-check and one
# run of every perfbench workload at two seeds, runs the pair runner
# once, bounds http-proxy's peak RSS, and diffs those runs' sim rows
# against the newest perfbench snapshot. The full (slow) suites are
# recorded manually via scripts/bench_record.sh and
# scripts/bench_snapshot.sh.
#
# Usage: scripts/ci_bench_smoke.sh [build-dir]   (default: build-bench)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-bench}"
LABEL="ci-smoke"

BENCH_FILTER='bench_fig6cd_file_io|bench_fig6a_spawn|bench_fig7a_specint' \
    scripts/bench_record.sh "$BUILD_DIR" "$LABEL"

OUT_DIR="bench/results/$LABEL"
JSON="$OUT_DIR/BENCH_fig6cd_file_io.json"
if [ ! -s "$JSON" ]; then
    echo "smoke failed: $JSON missing or empty" >&2
    exit 1
fi
grep -q '"rows"\|"name"' "$JSON" ||
    { echo "smoke failed: $JSON has no report payload" >&2; exit 1; }

# Spawn pin: fig6a reports simulated spawn latency only (Linux, EIP
# and Occlum rows by binary size), so its JSON must match the
# committed snapshot byte for byte. A loader, signature-check or
# enclave-measurement change that moves a spawn's simulated cost
# fails here.
SPAWN_PIN="bench/results/2026-08-07-pr8-superblock/BENCH_fig6a_spawn.json"
cmp "$OUT_DIR/BENCH_fig6a_spawn.json" "$SPAWN_PIN" ||
    { echo "smoke failed: spawn rows differ from $SPAWN_PIN" >&2;
      exit 1; }

# SPEC-kernel pin: fig7a's own OCC_CHECK asserts that trace-tier
# cycles equal tier-1 cycles on all twelve kernels; its simulated
# rows (plain and MMDSFI Mcycles, overhead, block-cache hit rate) must
# also equal the committed snapshot. Wall-clock rows and superblock
# counts are host-dependent and not compared.
SPEC_PIN="bench/results/2026-08-07-pr8-superblock/BENCH_fig7a_specint.json"
python3 - "$OUT_DIR/BENCH_fig7a_specint.json" "$SPEC_PIN" <<'EOF' ||
import json
import sys

PINNED = {"plain_mcycles", "mmdsfi_mcycles", "overhead_pct",
          "block_cache_hit_rate_pct"}


def rows(path):
    with open(path) as f:
        return {(r["label"], r["metric"]): r["value"]
                for r in json.load(f)["rows"] if r["metric"] in PINNED}


got, want = rows(sys.argv[1]), rows(sys.argv[2])
for key in sorted(set(got) | set(want)):
    if got.get(key) != want.get(key):
        print("fig7a %s %s: got %s, pinned %s"
              % (key[0], key[1], got.get(key), want.get(key)))
sys.exit(0 if want and got == want else 1)
EOF
    { echo "smoke failed: SPEC-kernel rows differ from $SPEC_PIN" >&2;
      exit 1; }

# Superblock-off leg: the same bench with the trace tier pinned off
# (OCCLUM_VM_SUPERBLOCK=0). The fig6cd report is simulated-time only
# and the tier is a wall-clock device, so the two JSONs must be
# byte-identical — any divergence means the tier perturbed simulated
# results and fails CI here.
OCCLUM_VM_SUPERBLOCK=0 BENCH_FILTER='bench_fig6cd_file_io' \
    scripts/bench_record.sh "$BUILD_DIR" "$LABEL-sb0"
JSON_SB0="bench/results/$LABEL-sb0/BENCH_fig6cd_file_io.json"
cmp "$JSON" "$JSON_SB0" ||
    { echo "smoke failed: superblock tier changed simulated results" >&2;
      exit 1; }

# Reference-crypto leg: the same bench with the scalar reference
# crypto selected (OCCLUM_CRYPTO_REFERENCE=1): byte-wise AES and the
# scalar SHA-256 compression instead of AES-NI and SHA-NI. EncFs
# encrypts and HMACs every block through them, and the fast paths must
# be bit-identical, so the JSON must match the default run byte for
# byte — this byte-compares both AES and SHA-256.
OCCLUM_CRYPTO_REFERENCE=1 BENCH_FILTER='bench_fig6cd_file_io' \
    scripts/bench_record.sh "$BUILD_DIR" "$LABEL-cref"
JSON_CREF="bench/results/$LABEL-cref/BENCH_fig6cd_file_io.json"
cmp "$JSON" "$JSON_CREF" ||
    { echo "smoke failed: reference crypto changed simulated results" >&2;
      exit 1; }

# Substrate build-path, spawn, byte-plane, syscall and EncFs rows: one
# brief run of the verifier (unpadded and 14 MiB-padded),
# build_program-style build, Occlum spawn, EIP reserve measurement
# (cold, and a platform's memo hit), pipe round-trip, NetSim request,
# whole syscall round trip and EncFs churn benchmarks, so rot in them
# fails here. Timings are not compared.
# Run from the smoke directory, which is removed below, so
# BENCH_substrate.json does not land in the tree.
cmake --build "$BUILD_DIR" -j "$(nproc)" --target bench_substrate
SUBSTRATE="$PWD/$BUILD_DIR/bench/bench_substrate"
(cd "$OUT_DIR" &&
    "$SUBSTRATE" \
        --benchmark_filter='VerifyBinary|BuildProgram|OcclumSpawn|MeasureReserved|PipeRoundTrip|NetSimRequest|SyscallRoundTrip|EncFsChurn' \
        --benchmark_min_time=0.01)

# The smoke snapshots are CI artifacts, not recorded results.
rm -rf "$OUT_DIR" "bench/results/$LABEL-sb0" "bench/results/$LABEL-cref"

# perfbench: one short snapshot through scripts/bench_snapshot.sh,
# which first runs perfbench's self-check (fig5b gzip.c and bench_smp
# proxy-c1 reproduced exactly, and the oracle checks of all four
# workloads), then one run of every workload at seeds 1 and 20261016.
# perfbench exits 3, and the snapshot stops, when a later pass does not
# reproduce pass 0 bit for bit: sip-storm and gcc-pipeline pre-run
# quanta on host threads, and http-proxy recycles connection slots and
# network buffers, so a pass that leaves state behind shows here.
# Builds into $CARGO_TARGET_DIR (default .bench_build/).
PERF_OUT="$(mktemp -d)"
trap 'rm -rf "$PERF_OUT"' EXIT
RUNS=1 TRACED_RUNS=0 SECONDS_PER_RUN=3 \
    scripts/bench_snapshot.sh "$PERF_OUT/snapshot" > /dev/null

# The pair runner, on one pair of 1 s runs of the same binary.
PERFBENCH="${CARGO_TARGET_DIR:-.bench_build}/perfbench/perfbench"
python3 scripts/bench_pairs.py --pairs 1 --seconds 1 --workload sip-storm \
    --seed 1 "$PERFBENCH" "$PERFBENCH"

# Host memory follows live connections: NetSim frees each connection
# once both sides close, so http-proxy's peak RSS stays near 20 MB
# (it was 28.5 MB while every accepted connection stayed resident).
python3 - "$PERF_OUT/snapshot/runs.jsonl" <<'EOF' ||
import json
import sys

LIMIT_MB = 24.0
with open(sys.argv[1]) as f:
    runs = [json.loads(line) for line in f]
rss = [run["result"]["metrics"]["host_rss_mb"]["value"] for run in runs
       if run["workload"] == "http-proxy" and run["seed"] == 1]
print("http-proxy seed 1 host_rss_mb %s (limit %.0f)" % (rss, LIMIT_MB))
sys.exit(0 if rss and max(rss) <= LIMIT_MB else 1)
EOF
    { echo "smoke failed: http-proxy host_rss_mb over the limit" >&2;
      exit 1; }

# Sim rows against the newest committed perfbench snapshot (by the
# date its MANIFEST.txt records): every workload at both seeds must
# reproduce its simulated metrics exactly.
NEWEST="$(for json in bench/results/*/perfbench.json; do
    dir="$(dirname "$json")"
    echo "$(sed -n 's/^date: *//p' "$dir/MANIFEST.txt") $dir"
done | sort | tail -n 1 | cut -d ' ' -f 2)"
python3 scripts/bench_diff.py --sim-only "$NEWEST" "$PERF_OUT/snapshot"
echo "bench smoke OK"
