"""Tests of the benchmark itself: tiny runs of every workload, the span
arithmetic, per-seed repeatability and the refusal to run without sources."""

import shutil
import subprocess
import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import harness  # noqa: E402
from tracing import Hook, Span, Tracer, self_times  # noqa: E402


def tiny(name):
    w = harness.WORKLOADS[name]
    return replace(w, n=12, m=18, rank=min(w.rank, 3), tol=1e-3)


def value(result, name):
    return result["metrics"][name]["value"]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_tiny_run_of_each_workload(name, trace, tmp_path):
    result = harness.run(tiny(name), 3, 0.0, trace, tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == harness.MIN_PASSES * 6 * (2 if trace else 1)
    table = harness.PER_LAYER if trace else harness.END_TO_END
    assert list(result["metrics"]) == [metric for metric, _, _ in table]
    assert all(isinstance(m["value"], float | int) for m in result["metrics"].values())
    assert (tmp_path / f"spans-{name}-seed3.jsonl").is_file() == trace
    assert not list(tmp_path.glob("work-*"))
    if trace and name == "factorize-csv":
        assert value(result, "linalg.csv_read.mb_per_s") > 0
        assert value(result, "diagnostics.kkt.self_s") > 0


def test_a_job_that_breaks_the_gate_counts_as_failed(tmp_path, monkeypatch):
    solve = harness.solvers.solve

    def rising(V, config):
        pair, trace = solve(V, config)
        last = trace.records[-1]
        trace.records[-1] = replace(last, objective=2 * trace.records[-2].objective)
        return pair, trace

    monkeypatch.setattr(harness.solvers, "solve", rising)
    result = harness.run(tiny("solve-r20"), 3, 0.0, False, tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert all(m["value"] is None for m in result["metrics"].values())


def test_self_time_subtracts_the_time_children_cover_once():
    spans = [
        Span("root", "a", 0.0, 10.0, None, "j"),
        Span("c1", "b", 1.0, 3.0, 0, "j"),
        Span("c2", "b", 2.0, 4.0, 0, "j"),  # overlaps c1
        Span("g", "c", 1.5, 2.5, 1, "j"),  # grandchild: counts against c1 only
        Span("c3", "b", 9.0, 12.0, 0, "j"),  # runs past the root's end
    ]
    assert self_times(spans) == pytest.approx([6.0, 1.0, 2.0, 1.0, 3.0])


def test_tracer_nests_spans_and_restores_the_functions():
    mod = types.ModuleType("fake")
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    original = mod.inner
    tracer = Tracer()
    with tracer.job_span("j1", [Hook(mod, "inner", "L1"), Hook(mod, "outer", "L2")]):
        assert mod.outer(1) == 4
    assert mod.inner is original
    assert [(s.name, s.parent, s.job) for s in tracer.spans] == [
        ("bench.job", None, "j1"),
        ("fake.outer", 0, "j1"),
        ("fake.inner", 1, "j1"),
    ]


def test_same_seed_repeats_iterations_and_final_objective(tmp_path):
    # The second run of each pair gets more passes; the counts must not move.
    w = tiny("solve-r20")
    traced = [harness.run(w, 5, s, True, tmp_path) for s in (0.0, 0.3)]
    plain = [harness.run(w, 5, s, False, tmp_path) for s in (0.0, 0.3)]
    assert traced[1]["passes"] > traced[0]["passes"]
    for alg in harness.ALGORITHMS:
        name = f"solvers.iters.{alg}"
        assert value(traced[0], name) == value(traced[1], name) > 0
    name = "final_objective.geomean"
    assert value(plain[0], name) == value(plain[1], name) > 0


def test_launcher_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-r20",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
