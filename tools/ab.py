"""Compare the benchmark of two checkouts over alternating pairs of runs.

    python3 tools/ab.py PARENT CHANGE [--workload W ...] [--pairs 10]
                        [--seconds 10] [--seed 97]

PARENT and CHANGE are checkout directories, each run from its own
perfbench/run.py.  A pair is one run in each checkout of

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

with the parent first in even pairs and the change first in odd ones;
each run's result is the JSON on the last line of its output.  A run that
exits nonzero, reads "correct": false or has "failed" above 0 is reported
and left out of the summary, with the other run of its pair.

For each workload (default: every one in BENCHMARK.json) and each
end-to-end metric of BENCHMARK.json, the summary gives the parent's median
and interquartile range, the change's median, interquartile range and
change relative to the parent's median, and the pairs the change won:
lower wins, and a tie counts for neither side.  The verdict reads "worse"
when the change's median is worse than the parent's by more than the
metric's bound, "unresolved" when the parent's interquartile range is
wider than the bound (relative to its median) unless every run of the
change is better than every run of the parent, and "within" otherwise.
"gain" reads "yes" when the change won at least nine tenths of the pairs
and its median is better than the parent's by more than the parent's
interquartile range, the rule a claimed gain must meet.

The runs write only what run.py writes, under perfbench/out/ of each
checkout.
"""

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def summarise(parent, change, bound):
    """The figures of one metric over paired runs, parent[i] and change[i]
    being pair i's values and lower better: a dict of the parent's median
    and interquartile range, the change's median and interquartile range,
    the relative change of the medians, the pairs the change won, the
    verdict against bound, a relative bound, and whether the figures meet
    the rule for claiming a gain."""
    pm, cm = median(parent), median(change)
    iqr = _iqr(parent)
    rel = (cm - pm) / pm if pm else math.nan
    won = sum(c < p for p, c in zip(parent, change))
    if rel > bound:
        verdict = "worse"
    elif (not pm or iqr / pm > bound) and max(change) >= min(parent):
        verdict = "unresolved"
    else:
        verdict = "within"
    return {"parent": pm, "iqr": iqr, "change": cm,
            "change_iqr": _iqr(change), "rel": rel, "won": won,
            "verdict": verdict,
            "gain": 10 * won >= 9 * len(parent) and pm - cm > iqr}


def _iqr(values):
    """The interquartile range of values, 0 for a single value."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = quantiles(values, n=4, method="inclusive")
    return q3 - q1


def run(checkout, workload, seed, seconds):
    """The result JSON of one untraced run in checkout, or None after
    reporting a run that failed or was not correct."""
    try:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=checkout, capture_output=True, text=True, timeout=900)
    except subprocess.TimeoutExpired:
        print(f"  {checkout}: {workload} timed out", file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        print(f"  {checkout}: {workload} exited {done.returncode}: "
              f"{done.stderr.strip()[-300:]}", file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] > 0:
        print(f"  {checkout}: {workload} correct {result['correct']}, "
              f"failed {result['failed']} of {result['attempted']}",
              file=sys.stderr)
        return None
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--seed", type=int, default=97)
    args = parser.parse_args(argv)
    bench = json.loads(BENCHMARK.read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = [(m["name"], m["unit"], m["bound"]) for m in bench["end_to_end"]]
    for workload in workloads:
        pairs = []
        for k in range(args.pairs):
            sides = [args.parent, args.change]
            first = sides if k % 2 == 0 else sides[::-1]
            got = {side: run(side, workload, args.seed, args.seconds)
                   for side in first}
            if None in got.values():
                print(f"  pair {k + 1} of {workload} left out",
                      file=sys.stderr)
                continue
            pairs.append((got[args.parent], got[args.change]))
            print(f"  {workload}: pair {k + 1} of {args.pairs} done",
                  file=sys.stderr)
        print(f"{workload}: {len(pairs)} pairs, seed {args.seed}, "
              f"{args.seconds:g} s runs")
        if not pairs:
            continue
        print(f"  {'metric':13} {'parent':>10} {'IQR':>10} {'change':>10} "
              f"{'IQR':>10} {'rel':>7} {'won':>5} {'gain':>4} {'bound':>6}  "
              f"verdict")
        for name, unit, bound in metrics:
            value = [[r["metrics"][name]["value"] for r in pair]
                     for pair in pairs]
            s = summarise(*zip(*value), bound)
            print(f"  {name:13} {s['parent']:10.4g} {s['iqr']:10.4g} "
                  f"{s['change']:10.4g} {s['change_iqr']:10.4g} "
                  f"{s['rel']:+7.1%} "
                  f"{s['won']:>2}/{len(pairs):<2} "
                  f"{'yes' if s['gain'] else 'no':>4} {bound:6.0%}  "
                  f"{s['verdict']} ({unit})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
