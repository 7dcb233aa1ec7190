"""Run the valmon benchmark.

One workload, as the benchmark contract asks:

    python3 perfbench/run.py --workload gb-ladder --seed 97 --seconds 10 --trace 0

Every workload, untraced and traced, each in its own fresh process:

    python3 perfbench/run.py --all

An untraced run repeats passes over the workload's operations until
--seconds have gone by (at least one pass) and reports end-to-end metrics,
with times rescaled to a fixed reference speed (see speed.py).  A traced run makes exactly one pass with spans around every valmon module's
public functions, so its counts repeat exactly, and reports per-layer
metrics.  Every operation's output is checked outside the timed region.
The last line of standard output is the JSON result; a copy, with the
Python version, CPU count and commit, goes to perfbench/out/.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from math import ceil
from pathlib import Path
from time import perf_counter

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 11
TUNING_SEED = 97  # seed 1009 is held out to confirm later gain claims

END_TO_END = (
    ("run_s", "s"), ("op_s.p50", "s"), ("op_s.p99", "s"), ("setup_s", "s"),
    ("peak_rss_mib", "MiB"))


def commit():
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit()}


def measure_setup():
    """Median over fresh interpreters of import valmon + first context,
    each rescaled by the speed measured just before it; (scaled, wall)."""
    scaled, wall = [], []
    for _ in range(SETUP_PROBES):
        scale = speed.scale([speed.timed_loop() for _ in range(3)])
        done = subprocess.run([sys.executable, str(HERE / "probe_setup.py")],
                              capture_output=True, text=True, check=True,
                              timeout=60)
        wall.append(float(done.stdout))
        scaled.append(wall[-1] * scale)
    return statistics.median(scaled), statistics.median(wall)


def percentile(values, q):
    """Nearest-rank percentile; with fewer than 100/(100-q) values it is
    the largest."""
    ordered = sorted(values)
    return ordered[max(0, ceil(q / 100 * len(ordered)) - 1)]


def run_pass(workload, items, probe=None, tracer=None):
    """Time every operation of one pass; returns (state, records, pass_s)
    with a record (op_s, out, error, start, end) per operation.

    Times leave out what the speed probe's own loop took; start and end
    are the clock readings around the operation.
    """
    def spent():
        return probe.spent if probe is not None else 0.0

    t_pass, s_pass = perf_counter(), spent()
    state = workload.begin()
    records = []
    for index, item in enumerate(items):
        if tracer is not None:
            tracer.op = index
        t0, s0 = perf_counter(), spent()
        try:
            out, error = workload.op(state, item), None
        except Exception as exc:  # an operation that raises counts as failed
            out, error = None, exc
        t1 = perf_counter()
        records.append((t1 - t0 - (spent() - s0), out, error, t0, t1))
    return state, records, perf_counter() - t_pass - (spent() - s_pass)


def count_failures(workload, state, items, records):
    failed = 0
    for item, (_, out, error, _, _) in zip(items, records):
        ok = False
        if error is None:
            try:
                ok = workload.check(state, item, out)
            except Exception as exc:  # a check that raises is a failed check
                error = exc
        if error is not None and failed == 0:
            traceback.print_exception(error, file=sys.stderr)
        failed += not ok
    return failed


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_workload(name, seed, seconds, trace):
    """Run one workload; returns (metrics {name: (value, unit)}, wall
    times {name: seconds}, attempted, failed, passes, absent functions)."""
    from workloads import WORKLOADS
    workload = WORKLOADS[name]()
    items = workload.inputs(seed)
    attempted = failed = 0
    if trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            state, records, pass_s = run_pass(workload, items, tracer=tracer)
        finally:
            tracer.uninstall()
        attempted += len(records)
        failed += count_failures(workload, state, items, records)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{name}-spans-seed{seed}.jsonl")
        return tracer.metrics(pass_s), {}, attempted, failed, 1, tracer.absent

    setup_s, setup_wall = measure_setup()
    pass_times, op_times, pass_wall, op_wall = [], [], [], []
    rss = None
    start = perf_counter()
    while not pass_times or perf_counter() - start < seconds:
        with speed.SpeedProbe() as probe:
            state, records, pass_s = run_pass(workload, items, probe)
        if rss is None:
            rss = peak_rss_mib()  # before any check adds to the caches
        pass_wall.append(pass_s)
        pass_times.append(pass_s * probe.scale())
        op_wall.extend(r[0] for r in records)
        op_times.extend(r[0] * probe.scale(r[3], r[4]) for r in records)
        attempted += len(records)
        failed += count_failures(workload, state, items, records)
        del state, records
    metrics = {
        "run_s": (statistics.median(pass_times), "s"),
        "op_s.p50": (statistics.median(op_times), "s"),
        "op_s.p99": (percentile(op_times, 99), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (rss, "MiB"),
    }
    wall = {"run_s": statistics.median(pass_wall),
            "op_s.p50": statistics.median(op_wall),
            "op_s.p99": percentile(op_wall, 99), "setup_s": setup_wall}
    return metrics, wall, attempted, failed, len(pass_times), []


def run_one(args):
    env = environment()
    metrics, wall, attempted, failed, passes, absent = run_workload(
        args.workload, args.seed, args.seconds, args.trace)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
          f"  passes {passes}  operations {attempted}")
    print("env " + json.dumps(env))
    for k, (v, u) in metrics.items():
        note = f"  (wall {wall[k]:.6g} s)" if k in wall else ""
        print(f"  {k} = {v:.6g} {u}{note}")
    if absent:
        print("  absent (metrics read 0): " + ", ".join(absent))
    print(f"  fail_ratio = {failed / attempted:.6g} ({failed} of {attempted})")
    print("verdict: " + ("correct" if failed == 0 else "INCORRECT"))
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "passes": passes, "absent": absent, "env": env, "wall": wall,
              **result}
    path = OUT / f"{args.workload}-trace{args.trace}-seed{args.seed}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))


def run_all(args):
    """Each workload untraced, then traced, each in a fresh process."""
    from workloads import WORKLOADS
    summary = {"env": environment(), "seed": args.seed,
               "seconds": args.seconds, "workloads": {}}
    all_correct = True
    for name in WORKLOADS:
        runs = {}
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, timeout=900)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                sys.exit(f"{name} trace {trace} exited {done.returncode}")
            runs[trace] = json.loads(done.stdout.strip().splitlines()[-1])
        plain, traced = runs[0], runs[1]
        correct = plain["correct"] and traced["correct"]
        all_correct &= correct
        record = OUT / f"{name}-trace0-seed{args.seed}.json"
        overhead = (traced["metrics"]["traced.run_s"]["value"]
                    - json.loads(record.read_text())["wall"]["run_s"])
        print(f"{name}: {'correct' if correct else 'INCORRECT'}")
        for k, m in plain["metrics"].items():
            print(f"  {k} = {m['value']:.6g} {m['unit']}")
        print(f"  fail_ratio = {plain['failed'] / plain['attempted']:.6g} "
              f"({plain['failed']} of {plain['attempted']})")
        print(f"  tracing overhead = {overhead:.6g} s")
        summary["workloads"][name] = {"untraced": plain, "traced": traced,
                                      "tracing_overhead_s": overhead}
    OUT.mkdir(exist_ok=True)
    (OUT / "all.json").write_text(json.dumps(summary, indent=1) + "\n")
    print("verdict: " + ("correct" if all_correct else "INCORRECT"))
    return 0 if all_correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=TUNING_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "valmon").is_dir():
        sys.exit(f"valmon sources not found under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS
    if args.all:
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    run_one(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
