#!/usr/bin/env python3
"""Run perfbench on two builds in alternating pairs and compare them.

    scripts/bench_pairs.py [--pairs N] [--seconds S]
                           --workload W --seed N PARENT CHANGE

PARENT and CHANGE are each a perfbench binary or a checkout (a
directory with perfbench/run.py, which builds into the checkout's own
.bench_build/). Pair i runs the parent first when i is even and the
change first when i is odd, so neither side always runs on a warmer
or quieter host. For host_s, setup_s and host_rss_mb the script prints
each side's median and quartiles, the change's win count (pairs where
its value is lower) and whether the gap between the medians exceeds
the parent's interquartile range. Runs are untraced (--trace 0). It
also checks that both sides report the same sim metrics in every pair.
Exits 1 when a run fails or the sim metrics differ, else 0.
"""

import argparse
import json
import os
import subprocess
import sys

HOST_METRICS = ("host_s", "setup_s", "host_rss_mb")
SIM_METRICS = ("sim_latency_ms", "sim_ops_per_s")


def command(side, args):
    """The argv and environment that run one perfbench pass of `side`."""
    flags = ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"]
    env = dict(os.environ)
    if os.path.isdir(side):
        env["CARGO_TARGET_DIR"] = os.path.join(side, ".bench_build")
        return [sys.executable, os.path.join(side, "perfbench", "run.py")] \
            + flags, env
    return [side] + flags, env


def run(side, args):
    """One run's metrics ({name: value}), or None if it failed."""
    argv, env = command(side, args)
    done = subprocess.run(argv, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print("run failed (exit %d): %s" % (done.returncode, side))
        return None
    result = json.loads(lines[-1])
    if not result.get("correct") or result.get("failed"):
        print("run incorrect: %s" % side)
        return None
    return {name: metric["value"]
            for name, metric in result["metrics"].items()}


def quartiles(values):
    """(q1, median, q3) by linear interpolation between order stats."""
    ordered = sorted(values)

    def at(q):
        pos = q * (len(ordered) - 1)
        low = int(pos)
        high = min(low + 1, len(ordered) - 1)
        return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)

    return at(0.25), at(0.5), at(0.75)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args()

    sides = {"parent": [], "change": []}
    ok = True
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {}
        for name in order:
            pair[name] = run(getattr(args, name), args)
        if pair["parent"] is None or pair["change"] is None:
            ok = False
            continue
        for metric in SIM_METRICS:
            if pair["parent"].get(metric) != pair["change"].get(metric):
                print("pair %d: %s differs: parent %s, change %s"
                      % (i, metric, pair["parent"].get(metric),
                         pair["change"].get(metric)))
                ok = False
        print("pair %d (%s first): " % (i, order[0]) + ", ".join(
            "%s %.4g -> %.4g" % (m, pair["parent"][m], pair["change"][m])
            for m in HOST_METRICS))
        for name in sides:
            sides[name].append(pair[name])

    pairs = len(sides["parent"])
    print("%s seed %d, %d pairs of %g s:" % (args.workload, args.seed,
                                             pairs, args.seconds))
    for metric in HOST_METRICS if pairs else ():
        parent = [run_[metric] for run_ in sides["parent"]]
        change = [run_[metric] for run_ in sides["change"]]
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        wins = sum(c < p for p, c in zip(parent, change))
        gap = pm - cm
        print("  %-12s parent %.4g [%.4g, %.4g]  change %.4g [%.4g, %.4g]"
              "  %+.1f%%  change lower in %d/%d  |gap| %s parent IQR"
              % (metric, pm, p1, p3, cm, c1, c3,
                 100.0 * (cm - pm) / pm if pm else 0.0, wins, pairs,
                 ">" if abs(gap) > p3 - p1 else "<="))
    sys.exit(0 if ok and pairs else 1)


if __name__ == "__main__":
    main()
