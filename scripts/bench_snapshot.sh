#!/usr/bin/env bash
# Record a perfbench snapshot that scripts/bench_diff.py can compare:
# every perfbench workload runs RUNS times at seed 1 and at the
# held-out seed 20261016, in a
# workload order that rotates from run to run (code layout alone
# moves some workloads' host time by several percent, so no workload
# always runs first or after the same neighbour), plus TRACED_RUNS
# traced runs per workload and seed for the per-layer counts.
#
# The snapshot directory gets runs.jsonl (one line per run: workload,
# seed, trace flag and perfbench's JSON result), perfbench.json (the
# rows below) and MANIFEST.txt. Rows, per workload and seed:
#   sim   sim_latency_ms, sim_ops_per_s, attempted, failed: must be
#         the same in every run (the script fails otherwise);
#   wall  host_s, setup_s, host_rss_mb and the traced *_host_s-style
#         rows: n, min, median, max;
#   count the traced per-layer counts, cycles and ratios: n, min,
#         median, max (min == max when the count is deterministic).
#
# Usage: scripts/bench_snapshot.sh [out-dir]
#   out-dir          default bench/results/<today>-perfbench
#   RUNS             untraced runs per workload and seed (default 10)
#   TRACED_RUNS      traced runs per workload and seed (default 2)
#   SECONDS_PER_RUN  perfbench --seconds (default 3)
# perfbench/run.py builds into $CARGO_TARGET_DIR (default .bench_build/);
# its self-check runs first (oracles of all four workloads) and a
# perfbench failure, a later pass that does not reproduce pass 0
# included (exit 3), stops the script.
set -euo pipefail

cd "$(dirname "$0")/.."
OUT_DIR="${1:-bench/results/$(date +%Y-%m-%d)-perfbench}"
RUNS="${RUNS:-10}"
TRACED_RUNS="${TRACED_RUNS:-2}"
SECONDS_PER_RUN="${SECONDS_PER_RUN:-3}"
SEEDS="1 20261016"
WORKLOADS=(gcc-pipeline sip-storm http-proxy encfs-io)

mkdir -p "$OUT_DIR"
RAW="$OUT_DIR/runs.jsonl"
: > "$RAW"

# Build (and check) once, outside every timed run.
python3 perfbench/run.py --self-check >&2

ERR="$(mktemp)"
trap 'rm -f "$ERR"' EXIT
one_run() { # workload seed trace
    local line
    line="$(python3 perfbench/run.py --workload "$1" --seed "$2" \
        --seconds "$SECONDS_PER_RUN" --trace "$3" 2>"$ERR" | tail -n 1)" ||
        { tail -n 5 "$ERR" >&2;
          echo "perfbench failed: $1 seed $2 trace $3" >&2; exit 1; }
    printf '{"workload": "%s", "seed": %s, "trace": %s, "result": %s}\n' \
        "$1" "$2" "$3" "$line" >> "$RAW"
}

START=$(date +%s)
count=${#WORKLOADS[@]}
for ((run = 0; run < RUNS + TRACED_RUNS; ++run)); do
    trace=$((run < RUNS ? 0 : 1))
    for seed in $SEEDS; do
        for ((k = 0; k < count; ++k)); do
            one_run "${WORKLOADS[$(((run + k) % count))]}" "$seed" "$trace"
        done
    done
done
ELAPSED=$(($(date +%s) - START))

{
    echo "commit:  $(git describe --always --dirty --abbrev=40 2>/dev/null || echo unknown)"
    echo "date:    $(date -u +%Y-%m-%dT%H:%M:%SZ)"
    echo "host:    $(uname -srm), $(nproc) CPUs"
    echo "runs:    $RUNS untraced + $TRACED_RUNS traced per workload and seed"
    echo "seconds: $SECONDS_PER_RUN per run; seeds: $SEEDS"
    echo "suite:   ${ELAPSED} s serial wall time"
} > "$OUT_DIR/MANIFEST.txt"

python3 - "$RAW" "$OUT_DIR/perfbench.json" <<'EOF'
import json
import statistics
import sys

SIM = ("sim_latency_ms", "sim_ops_per_s")
WALL_UNITS = ("s", "ns", "%", "MB")

runs = [json.loads(line) for line in open(sys.argv[1])]
groups = {}
for run in runs:
    result = run["result"]
    if not result.get("correct"):
        sys.exit("incorrect run: %s seed %s" % (run["workload"], run["seed"]))
    key = (run["workload"], run["seed"])
    sim = {"attempted": (result["attempted"], "ops"),
           "failed": (result["failed"], "ops")}
    for name, metric in result["metrics"].items():
        if name in SIM:
            sim[name] = (metric["value"], metric["unit"])
        else:
            kind = "wall" if metric["unit"] in WALL_UNITS else "count"
            slot = groups.setdefault(key + (name,), {
                "unit": metric["unit"], "kind": kind, "values": []})
            slot["values"].append(metric["value"])
    for name, (value, unit) in sim.items():
        slot = groups.setdefault(key + (name,), {
            "unit": unit, "kind": "sim", "values": []})
        slot["values"].append(value)

rows = []
for (workload, seed, metric), slot in sorted(groups.items()):
    values = slot["values"]
    row = {"workload": workload, "seed": seed, "metric": metric,
           "kind": slot["kind"], "unit": slot["unit"], "n": len(values)}
    if slot["kind"] == "sim":
        if len(set(values)) != 1:
            sys.exit("nondeterministic sim row %s %s %s: %s"
                     % (workload, seed, metric, sorted(set(values))))
        row["value"] = values[0]
    else:
        row.update(min=min(values), median=statistics.median(values),
                   max=max(values))
    rows.append(row)
with open(sys.argv[2], "w") as f:  # one row a line, for readable diffs
    f.write('{"format": 1, "rows": [\n')
    f.write(",\n".join(json.dumps(row) for row in rows))
    f.write("\n]}\n")
print("%d rows from %d runs in %s" % (len(rows), len(runs), sys.argv[2]))
EOF
