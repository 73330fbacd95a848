import math

import numpy as np
import pytest

from nmfkit import bench, datagen, linalg, solvers
from nmfkit.bench import (
    BenchScenario,
    MatrixKind,
    run_scenario,
    sim1_run,
    sim1_write_outputs,
    sim2_scenario,
    sim3_scenarios,
    write_objective_svg,
)
from nmfkit.errors import ContractViolationError, NumericalFailureError
from nmfkit.solvers import Algorithm, SolverConfig, solve

from _util import planted_instance, with_target_at


class TestRunToTarget:
    """``solve`` with ``target``, set here to a fraction of iterate 0's
    objective as the table presets set it."""

    def test_target_one_achieved_after_first_iteration(self):
        rng = np.random.default_rng(0)
        V = linalg.normalize_columns(rng.uniform(0.5, 1.5, (10, 12)))
        config = with_target_at(
            V, SolverConfig(algorithm=Algorithm.INOM, rank=2, seed=1), 1.0
        )
        _, trace = solve(V, config)
        assert config.target == trace.objectives[0]
        assert trace.converged
        assert trace.iterations == 1

    def test_planted_instance_reaches_tiny_target(self):
        V, _ = planted_instance(2, n=6, m=8, r=2)
        config = with_target_at(
            V, SolverConfig(algorithm=Algorithm.INOM, rank=2, seed=3), 0.01
        )
        _, trace = solve(V, config)
        assert trace.converged
        assert trace.stop_reason == "target"
        assert trace.final_objective <= 0.01 * trace.objectives[0]

    def test_unreachable_target_reports_not_achieved(self):
        rng = np.random.default_rng(4)
        V = linalg.normalize_columns(rng.uniform(0.9, 1.1, (8, 9)))
        config = with_target_at(
            V, SolverConfig(algorithm=Algorithm.MU, rank=1, max_iters=3, seed=5), 1e-12
        )
        _, trace = solve(V, config)
        assert not trace.converged
        assert trace.iterations == 3

    def test_bad_target_rejected(self):
        for bad in (-0.5, -math.inf, math.nan):
            with pytest.raises(ContractViolationError):
                SolverConfig(algorithm=Algorithm.INOM, rank=1, target=bad)

    def test_zero_and_infinite_targets_accepted(self):
        for level in (0.0, math.inf):
            SolverConfig(algorithm=Algorithm.INOM, rank=1, target=level)


class TestScenario:
    def test_invariants(self):
        with pytest.raises(ContractViolationError):
            BenchScenario(name="x", n=10, m=10, rank_values=(2,), trials=0)
        with pytest.raises(ContractViolationError):
            BenchScenario(name="x", n=10, m=10, rank_values=(10,))

    @pytest.mark.parametrize("ranks", [(0,), (2, 0), (-1, 3)])
    def test_rank_below_one_rejected_at_construction(self, ranks):
        # Such a cell would otherwise abort run_scenario part way through.
        with pytest.raises(ContractViolationError, match="rank must be >= 1"):
            BenchScenario(name="x", n=10, m=10, rank_values=ranks)

    def test_single_cell_table(self):
        scenario = BenchScenario(
            name="tiny",
            n=12,
            m=15,
            rank_values=(2,),
            algorithms=(Algorithm.INOM,),
            trials=1,
            seed=6,
        )
        results = run_scenario(scenario)
        assert len(results.rows) == 1
        row = results.rows[0]
        assert row.achieved
        assert row.error is None
        summary = results.summary_rows()
        assert len(summary) == 1
        assert summary[0]["achieved_count"] == 1

    def test_iteration_counts_reproducible(self):
        scenario = BenchScenario(
            name="repro",
            n=15,
            m=18,
            rank_values=(2, 3),
            algorithms=(Algorithm.INOM, Algorithm.MU),
            trials=2,
            seed=7,
        )
        a = run_scenario(scenario)
        b = run_scenario(scenario)
        assert [r.iters for r in a.rows] == [r.iters for r in b.rows]
        assert [r.final_objective for r in a.rows] == [
            r.final_objective for r in b.rows
        ]

    @staticmethod
    def _recorded_solves(monkeypatch, scenario):
        """Run ``scenario``; return its results and ``(config, init, trace)``
        of every solve it made."""
        calls = []
        real = solvers.solve

        def recording(V, config, init=None, **kwargs):
            pair, trace = real(V, config, init, **kwargs)
            calls.append((config, init, trace))
            return pair, trace

        monkeypatch.setattr(solvers, "solve", recording)
        return run_scenario(scenario), calls

    def test_shared_data_and_init_across_algorithms(self, monkeypatch):
        # Within one (trial, r) cell every algorithm is handed the same start:
        # the seeded draw of that cell.
        scenario = BenchScenario(
            name="shared",
            n=10,
            m=12,
            rank_values=(2, 3),
            algorithms=(Algorithm.INOM, Algorithm.MU, Algorithm.ACC_PARINOM),
            trials=1,
            seed=8,
        )
        _, calls = self._recorded_solves(monkeypatch, scenario)
        V = bench._trial_matrix(scenario, 0)
        assert len(calls) == 6
        for k, r in enumerate(scenario.rank_values):
            cell = calls[3 * k : 3 * k + 3]
            assert [c.algorithm for c, _, _ in cell] == list(scenario.algorithms)
            seed = datagen.derive_seed(scenario.seed, 0, 1, r)
            seeded = solvers.initial_factors(V, r, seed)
            for config, init, trace in cell:
                assert np.array_equal(init.W, seeded.W)
                assert np.array_equal(init.H, seeded.H)
                assert trace.objectives[0] == cell[0][2].objectives[0]

    def test_rows_stop_at_first_iterate_at_or_below_the_cell_level(self, monkeypatch):
        scenario = BenchScenario(
            name="level",
            n=20,
            m=30,
            rank_values=(2, 4),
            trials=2,
            seed=9,
        )
        results, calls = self._recorded_solves(monkeypatch, scenario)
        assert len(calls) == len(results.rows) == 2 * 2 * len(bench.ALL_ALGORITHMS)
        for (config, init, trace), row in zip(calls, results.rows):
            V = bench._trial_matrix(scenario, row.trial)
            f0 = linalg.frobenius_residual(V, init.W, init.H)
            level = bench.TARGET_FRACTION * f0
            assert trace.objectives[0] == f0
            assert config.target == level
            assert trace.stop_reason == "target"
            assert trace.records[-2].objective > level
            assert trace.records[-1].objective <= level
            assert (row.iters, row.final_objective) == (
                trace.iterations,
                trace.final_objective,
            )

    def test_cell_failure_recorded_and_run_continues(self, monkeypatch):
        def broken(V, state, *, v_sq=None, products=None):
            raise NumericalFailureError("injected fault")

        monkeypatch.setattr(solvers, "mu_iterate", broken)
        scenario = BenchScenario(
            name="faulty",
            n=10,
            m=12,
            rank_values=(2,),
            algorithms=(Algorithm.MU, Algorithm.INOM),
            trials=1,
            seed=9,
        )
        results = run_scenario(scenario)
        by_alg = {r.algorithm: r for r in results.rows}
        assert by_alg[Algorithm.MU].error == "injected fault"
        assert not by_alg[Algorithm.MU].achieved
        assert by_alg[Algorithm.INOM].error is None
        assert by_alg[Algorithm.INOM].achieved

    def test_failing_cell_start_recorded_for_every_algorithm(self, monkeypatch):
        real = solvers.initial_factors

        def broken_at_rank_2(V, rank, seed):
            if rank == 2:
                raise NumericalFailureError("injected start fault")
            return real(V, rank, seed)

        monkeypatch.setattr(solvers, "initial_factors", broken_at_rank_2)
        scenario = BenchScenario(
            name="start",
            n=10,
            m=12,
            rank_values=(2, 3),
            algorithms=(Algorithm.MU, Algorithm.INOM),
            trials=1,
            seed=9,
        )
        rows = run_scenario(scenario).rows
        assert [(x.r, x.algorithm.value) for x in rows] == [
            (2, "mu"), (2, "inom"), (3, "mu"), (3, "inom")
        ]
        assert all(x.error == "injected start fault" for x in rows[:2])
        assert all(x.error is None and x.achieved for x in rows[2:])

    def test_sparse_kind_runs(self):
        scenario = BenchScenario(
            name="sparse-tiny",
            n=40,
            m=50,
            rank_values=(3,),
            kind=MatrixKind.SPARSE70,
            algorithms=(Algorithm.FAST_HALS,),
            trials=1,
            seed=10,
        )
        results = run_scenario(scenario)
        assert results.rows[0].achieved


class TestCsvOutputs:
    def test_results_csv_header_and_determinism(self, tmp_path):
        scenario = BenchScenario(
            name="csv",
            n=10,
            m=12,
            rank_values=(2,),
            algorithms=(Algorithm.INOM,),
            trials=2,
            seed=11,
        )
        p1 = tmp_path / "r1.csv"
        p2 = tmp_path / "r2.csv"
        run_scenario(scenario).write_results_csv(p1)
        run_scenario(scenario).write_results_csv(p2)
        lines1 = p1.read_text().splitlines()
        lines2 = p2.read_text().splitlines()
        assert (
            lines1[0]
            == "scenario,algorithm,r,trial,elapsed_s,iters,achieved,final_objective"
        )

        def strip_elapsed(lines):
            out = []
            for ln in lines[1:]:
                parts = ln.split(",")
                parts[4] = ""
                out.append(",".join(parts))
            return out

        assert strip_elapsed(lines1) == strip_elapsed(lines2)

    def test_summary_csv(self, tmp_path):
        scenario = BenchScenario(
            name="summary",
            n=10,
            m=12,
            rank_values=(2,),
            algorithms=(Algorithm.INOM,),
            trials=2,
            seed=12,
        )
        path = tmp_path / "s.csv"
        run_scenario(scenario).write_summary_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("scenario,algorithm,r,trials,")
        assert len(lines) == 2


class TestPresets:
    def test_sim2_scaling(self):
        scenario = sim2_scenario(MatrixKind.DENSE_UNIFORM, scale=0.05)
        assert scenario.n == 500
        assert scenario.m == 2500
        assert scenario.rank_values == tuple(range(25, 251, 25))

    def test_sim3_scaling(self):
        scenarios = sim3_scenarios(scale=0.05)
        assert len(scenarios) == 10
        assert scenarios[0].n == 50
        assert scenarios[0].rank_values == (5,)
        assert scenarios[0].m == 5000
        assert scenarios[-1].m == 50000

    def test_sim1_runs_all_algorithms(self):
        result = sim1_run(scale=0.2, seed=13)
        assert set(result.traces) == set(bench.ALL_ALGORITHMS)
        for trace in result.traces.values():
            assert trace.is_monotone()
        starts = {t.objectives[0] for t in result.traces.values()}
        assert len(starts) == 1

    def test_sim1_outputs(self, tmp_path):
        result = sim1_run(scale=0.2, seed=14)
        sim1_write_outputs(tmp_path, result)
        traces = (tmp_path / "sim1_traces.csv").read_text().splitlines()
        assert traces[0] == "algorithm,iter,objective,elapsed_s"
        svg = (tmp_path / "sim1_objective_vs_time.svg").read_text()
        assert svg.startswith("<svg")
        assert "polyline" in svg
        assert (tmp_path / "sim1_results.csv").exists()
        assert (tmp_path / "sim1_summary.csv").exists()


class TestSvg:
    def test_write_objective_svg(self, tmp_path):
        path = tmp_path / "plot.svg"
        curves = {
            "a": (np.array([0.0, 1.0, 2.0]), np.array([100.0, 10.0, 1.0])),
            "b": (np.array([0.0, 1.0]), np.array([50.0, 5.0])),
        }
        write_objective_svg(path, curves)
        text = path.read_text()
        assert text.startswith("<svg")
        assert text.count("polyline") == 2
