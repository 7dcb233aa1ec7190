"""Self-tests of the benchmark harness.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
The traced-run tests start the harness in fresh processes and take about
three minutes, most of it two traced gb-ladder runs.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from valmon import bipoly, gbengine, series, valmonoid  # noqa: E402


def test_manifest_matches_harness():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in manifest["workloads"]] == list(
        workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in manifest["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in manifest["per_layer"]] == spans.metric_table()


def test_tracer_patches_names_imported_by_value_and_restores_them():
    original = gbengine.eval_leading
    ctx = valmonoid.MonoidContext(series.dyadic_spec(), 8)
    f, g = bipoly.parse("x*y"), bipoly.parse("y")
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert gbengine.eval_leading is bipoly.eval_leading
        assert gbengine.eval_leading.__wrapped__ is original
        gbengine.approx_quotient(f, g, ctx)
    finally:
        tracer.uninstall()
    assert gbengine.eval_leading is original
    metrics = tracer.metrics(0.0)
    assert metrics["bipoly.eval_leading.calls"] == (2, "count")
    assert metrics["gbengine.approx_quotient.found_share"] == (1.0, "ratio")
    assert metrics["valmonoid.MonoidContext.cache_entries"] == (0, "count")
    top = [s for s in tracer.spans if s[3] < 0]
    assert [spans.TARGETS[s[0]][1] for s in top] == ["approx_quotient"]


def test_missing_function_reads_as_absent(monkeypatch):
    monkeypatch.delattr(bipoly, "image_matches_leading")
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["bipoly.image_matches_leading"]
    metrics = tracer.metrics(0.0)
    assert metrics["bipoly.image_matches_leading.calls"] == (0, "count")


def traced_run(name):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name,
         "--seed", str(run.TUNING_SEED), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=600)
    return json.loads(done.stdout.splitlines()[-1])


def counts(result):
    return {k: m["value"] for k, m in result["metrics"].items()
            if m["unit"] != "s"}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(name):
    first, second = traced_run(name), traced_run(name)
    assert first["correct"] and second["correct"]
    assert counts(first) == counts(second)
    if name == "gb-ladder":
        got = counts(first)
        assert got["gbengine.reduce.calls"] == 38
        assert got["gbengine.reduce.steps"] == 1954
        zero = 38 * (1 - got["gbengine.reduce.nonzero_share"])
        assert round(zero) == 32
