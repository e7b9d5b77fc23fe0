"""Smoke test of the benchmark harness (not part of the tier-1 suite).

Run from the repository root:

    python3 -m pytest -q sepbench/test_smoke.py
"""

import json
import shutil
import statistics
import subprocess
import sys
import types
from pathlib import Path

import pytest

import calibrate
from tracer import Span, Tracer, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs the package sources on the path)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 3.0, parent=0),
        Span("b", 2.0, 5.0, parent=0),      # overlaps a: union is [1, 5]
        Span("c", 8.0, 12.0, parent=0),     # clipped to the parent's end
        Span("a.leaf", 1.5, 2.5, parent=1),
        Span("other", 20.0, 21.0),
    ]
    assert self_times(spans) == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0, 1.0])


def test_tracer_nests_spans_and_restores_originals():
    clock = iter(range(100)).__next__
    mod = types.SimpleNamespace()
    alias = types.SimpleNamespace()

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    def failing():
        raise KeyError("boom")

    mod.inner, mod.outer, mod.failing = inner, outer, failing
    alias.inner = inner
    tracer = Tracer(clock=clock)
    tracer.patch([mod, alias], "inner", "inner",
                 before=lambda a, k: {"arg": a[0]})
    tracer.patch([mod], "outer", "outer",
                 after=lambda span, result: span.attrs.update(out=result))
    tracer.patch([mod], "failing", "failing")
    assert mod.outer(3) == 8
    assert alias.inner(1) == 2
    with pytest.raises(KeyError):
        mod.failing()
    tracer.uninstall()
    assert (mod.inner, mod.outer, alias.inner) == (inner, outer, inner)

    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("outer", -1), ("inner", 0), ("inner", -1),
                     ("failing", -1)]
    outer_span, inner_span = tracer.spans[:2]
    assert outer_span.attrs == {"out": 8}
    assert inner_span.attrs == {"arg": 3}
    assert tracer.spans[3].attrs["raised"] == "KeyError"
    assert self_times(tracer.spans)[0] == \
        outer_span.duration - inner_span.duration


def test_a_raising_case_is_a_failure_not_a_crash():
    def body():
        raise IndexError("boom")

    outcome = workloads._guarded("case", body).run()
    assert outcome.bounds == []
    assert outcome.error == "case: IndexError: boom"


def test_a_moved_bound_fails_its_reference():
    key, recorded = next(
        (k, v) for k, v in workloads._RECORDED.items()
        if k.startswith("brute_force_bound "))
    assert workloads.against_reference(key, recorded) is None
    name, value = workloads._split(recorded[0])
    moved = [f"{name}={workloads._g(value - 1e-6)}"] + recorded[1:]
    assert "differ from the recorded" in workloads.against_reference(key, moved)
    assert "no recorded bounds" in \
        workloads.against_reference("unknown key", recorded)


def _run(cwd: Path, workload: str, trace: int, *extra: str):
    return subprocess.run(
        [sys.executable, "sepbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny",
         *extra], cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace, tmp_path):
    spans = tmp_path / "spans.jsonl"
    proc = _run(ROOT, workload, trace, "--spans", str(spans))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, detail["failures"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())
    assert detail["bounds"] and detail["env"]["SEVALUE_THREADS"] == "1"
    if not trace:
        # the times are scaled by the kernel times of the same run
        scale = calibrate.NOMINAL_S / statistics.fmean(detail["cal_s"])
        assert result["metrics"]["wall_s"]["value"] == \
            pytest.approx(detail["raw_wall_s"] * scale)
        scale = calibrate.NOMINAL_S / statistics.fmean(detail["setup_cal_s"])
        assert result["metrics"]["setup_s"]["value"] == \
            pytest.approx(detail["raw_setup_s"] * scale)
    if trace:
        assert result["metrics"]["trace.top_level_coverage"]["value"] >= 0.9
        written = [json.loads(line) for line in spans.read_text().splitlines()]
        assert written and {"name", "start", "end", "parent"} <= set(written[0])
    else:
        assert not spans.exists()


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "sepbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
