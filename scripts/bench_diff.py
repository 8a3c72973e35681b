#!/usr/bin/env python3
"""Compare two perfbench snapshots made by scripts/bench_snapshot.sh.

    scripts/bench_diff.py [--sim-only] OLD_DIR NEW_DIR

Rows are matched by (workload, seed, metric). A row of OLD that NEW
lacks is a failure (a counter renamed or dropped would otherwise pass
unseen); a row only NEW has is listed. Then:
  sim    rows must be equal. Any difference is a failure.
  count  rows (traced per-layer counts) must be equal when both
         snapshots saw one value; a count that varied between runs is
         flagged only when the two [min, max] ranges do not overlap.
  wall   rows are flagged only when NEW's median falls outside OLD's
         recorded [min, max]: host time is noisy, and a move inside
         the spread is not evidence. Flags are reported, not failed.
--sim-only compares sim rows alone (a one-run snapshot has no spread
and no traced rows).
Exits 1 on a sim or count failure, else 0.
"""

import argparse
import json
import os
import sys


def load(directory):
    with open(os.path.join(directory, "perfbench.json")) as f:
        rows = json.load(f)["rows"]
    return {(r["workload"], r["seed"], r["metric"]): r for r in rows}


def label(key):
    return "%s seed %s %s" % key


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--sim-only", action="store_true")
    parser.add_argument("old")
    parser.add_argument("new")
    args = parser.parse_args()
    old, new = load(args.old), load(args.new)

    failures, flags, compared = [], [], 0
    for key in sorted(set(old) | set(new)):
        if key not in new:
            if not args.sim_only or old[key]["kind"] == "sim":
                failures.append("%s: missing from %s" % (label(key),
                                                         args.new))
            continue
        if key not in old:
            flags.append("%s: new row" % label(key))
            continue
        a, b = old[key], new[key]
        if a["kind"] != b["kind"]:
            failures.append("%s: kind %s vs %s" % (label(key), a["kind"],
                                                   b["kind"]))
            continue
        if args.sim_only and a["kind"] != "sim":
            continue
        compared += 1
        if a["kind"] == "sim":
            if a["value"] != b["value"]:
                failures.append("%s: %r -> %r" % (label(key), a["value"],
                                                  b["value"]))
        elif a["kind"] == "count":
            exact = a["min"] == a["max"] and b["min"] == b["max"]
            if exact and a["min"] != b["min"]:
                failures.append("%s: %r -> %r" % (label(key), a["min"],
                                                  b["min"]))
            elif b["min"] > a["max"] or b["max"] < a["min"]:
                flags.append("%s: [%g, %g] -> [%g, %g]" % (
                    label(key), a["min"], a["max"], b["min"], b["max"]))
        elif not a["min"] <= b["median"] <= a["max"]:
            change = (b["median"] / a["median"] - 1) * 100 if a["median"] \
                else float("inf")
            flags.append("%s: median %.4g -> %.4g %s (%+.1f%%; old "
                         "spread %.4g..%.4g, n=%d/%d)" % (
                             label(key), a["median"], b["median"], a["unit"],
                             change, a["min"], a["max"], a["n"], b["n"]))

    for line in failures:
        print("FAIL " + line)
    for line in flags:
        print("flag " + line)
    print("%d rows compared, %d failed, %d flagged" % (
        compared, len(failures), len(flags)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
