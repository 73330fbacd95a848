import os
import subprocess
import sys

import numpy as np
import pytest

from nmfkit import cli, diagnostics, linalg, solvers
from nmfkit.solvers import FactorPair
from nmfkit.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main

from _util import planted_instance


def write_csv(path, M):
    linalg.write_matrix_csv(path, M)
    return str(path)


class TestFactorize:
    def test_scalar_problem_exact(self, tmp_path, capsys):
        inp = write_csv(tmp_path / "v.csv", np.array([[2.0]]))
        out_w = tmp_path / "W.csv"
        out_h = tmp_path / "H.csv"
        code = main(
            [
                "factorize",
                inp,
                "--rank",
                "1",
                "--algo",
                "inom",
                "--out-w",
                str(out_w),
                "--out-h",
                str(out_h),
            ]
        )
        assert code == EXIT_OK
        W = linalg.read_matrix_csv(out_w)
        H = linalg.read_matrix_csv(out_h)
        assert abs(W[0, 0] - 1.0) <= 1e-12
        assert abs(H[0, 0] - 2.0) <= 1e-12
        final = linalg.frobenius_residual(np.array([[2.0]]), W, H)
        assert final <= 1e-12
        out = capsys.readouterr().out
        assert "final_objective: " in out
        assert "stop_reason: tol\n" in out
        assert "combined: " in out

    @pytest.mark.parametrize("algo", ["inom", "fast-hals"])
    def test_planted_input_collapses_residual(self, tmp_path, algo):
        V, _ = planted_instance(21)
        inp = write_csv(tmp_path / "v.csv", V)
        trace_path = tmp_path / "trace.csv"
        code = main(
            [
                "factorize",
                inp,
                "--rank",
                "2",
                "--algo",
                algo,
                "--tol",
                "1e-14",
                "--seed",
                "4",
                "--out-w",
                str(tmp_path / "W.csv"),
                "--out-h",
                str(tmp_path / "H.csv"),
                "--trace",
                str(trace_path),
            ]
        )
        assert code == EXIT_OK
        rows = trace_path.read_text().splitlines()[1:]
        objectives = [float(r.split(",")[1]) for r in rows]
        assert objectives[-1] <= 1e-6 * objectives[0]

    def test_missing_rank_exits_one_with_usage(self, tmp_path, capsys):
        inp = write_csv(tmp_path / "v.csv", np.ones((2, 2)))
        code = main(["factorize", inp])
        assert code == EXIT_USAGE
        assert "usage" in capsys.readouterr().err

    def test_invalid_csv_exits_one_with_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("2,2\n1.0,2.0\n1.0,oops\n")
        code = main(["factorize", str(bad), "--rank", "1"])
        assert code == EXIT_USAGE
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_csv_exits_one_with_line(self, tmp_path, capsys, value):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"2,2\n1.0,2.0\n1.0,{value}\n")
        outs = ["--out-w", str(tmp_path / "W.csv"), "--out-h", str(tmp_path / "H.csv")]
        code = main(["factorize", str(bad), "--rank", "1", *outs])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "input error" in err
        assert "line 3" in err

    def test_normalize_zero_column_exits_one(self, tmp_path, capsys):
        inp = write_csv(tmp_path / "v.csv", np.array([[3.0, 0.0], [4.0, 0.0]]))
        outs = ["--out-w", str(tmp_path / "W.csv"), "--out-h", str(tmp_path / "H.csv")]
        code = main(["factorize", inp, "--rank", "1", "--normalize", *outs])
        assert code == EXIT_USAGE
        assert "column 1" in capsys.readouterr().err

    def test_rank_too_large_is_usage_error(self, tmp_path, capsys):
        inp = write_csv(tmp_path / "v.csv", np.ones((2, 3)))
        code = main(["factorize", inp, "--rank", "5"])
        assert code == EXIT_USAGE

    def test_unknown_algorithm_rejected(self, tmp_path, capsys):
        inp = write_csv(tmp_path / "v.csv", np.ones((2, 2)))
        code = main(["factorize", inp, "--rank", "1", "--algo", "nope"])
        assert code == EXIT_USAGE

    def test_outputs_byte_identical_across_runs(self, tmp_path):
        rng = np.random.default_rng(22)
        inp = write_csv(tmp_path / "v.csv", rng.uniform(0.5, 1.5, (6, 7)))
        outs = []
        for tag in ("a", "b"):
            w = tmp_path / f"W{tag}.csv"
            h = tmp_path / f"H{tag}.csv"
            code = main(
                [
                    "factorize",
                    inp,
                    "--rank",
                    "2",
                    "--seed",
                    "7",
                    "--algo",
                    "parinom",
                    "--out-w",
                    str(w),
                    "--out-h",
                    str(h),
                ]
            )
            assert code == EXIT_OK
            outs.append((w.read_bytes(), h.read_bytes()))
        assert outs[0] == outs[1]

    def test_normalize_flag(self, tmp_path):
        V = np.array([[3.0, 0.0], [4.0, 2.0]])
        inp = write_csv(tmp_path / "v.csv", V)
        code = main(
            [
                "factorize",
                inp,
                "--rank",
                "1",
                "--normalize",
                "--out-w",
                str(tmp_path / "W.csv"),
                "--out-h",
                str(tmp_path / "H.csv"),
            ]
        )
        assert code == EXIT_OK

    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch):
        from nmfkit.errors import NumericalFailureError

        def boom(V, config, init=None, callback=None):
            raise NumericalFailureError("synthetic blow-up", iteration=3)

        monkeypatch.setattr(cli.solvers, "solve", boom)
        inp = write_csv(tmp_path / "v.csv", np.ones((2, 2)))
        code = main(["factorize", inp, "--rank", "1"])
        assert code == EXIT_NUMERICAL


class TestReproducibility:
    @pytest.mark.parametrize("algo", ["inom", "acc-mu"])
    def test_factorize_outputs_repeat_in_fresh_processes(self, tmp_path, algo):
        # Outputs are bitwise repeatable per BLAS thread count, so pin it.
        rng = np.random.default_rng(24)
        inp = write_csv(tmp_path / "v.csv", rng.uniform(100.0, 200.0, (40, 60)))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        runs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            out.mkdir()
            subprocess.run(
                [
                    sys.executable, "-m", "nmfkit.cli", "factorize", inp,
                    "--rank", "3", "--algo", algo, "--normalize", "--seed", "5",
                    "--out-w", str(out / "W.csv"), "--out-h", str(out / "H.csv"),
                    "--trace", str(out / "trace.csv"),
                ],
                env=env, check=True, capture_output=True, timeout=120,
            )
            trace = [
                line.rsplit(",", 1)[0]
                for line in (out / "trace.csv").read_text().splitlines()
            ]
            runs.append(
                ((out / "W.csv").read_bytes(), (out / "H.csv").read_bytes(), trace)
            )
        assert runs[0] == runs[1]
        assert runs[0][2][0] == "iter,objective"
        assert len(runs[0][2]) > 2


class TestBench:
    def test_scale_zero_exits_one(self, capsys):
        code = main(["bench", "--preset", "sim1", "--scale", "0"])
        assert code == EXIT_USAGE

    def test_bad_trials_exits_one(self):
        code = main(["bench", "--preset", "sim3", "--trials", "0"])
        assert code == EXIT_USAGE

    def test_sim1_small_scale_outputs(self, tmp_path, capsys):
        code = main(
            ["bench", "--preset", "sim1", "--scale", "0.2", "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        assert (tmp_path / "sim1_traces.csv").exists()
        assert (tmp_path / "sim1_objective_vs_time.svg").exists()
        assert (tmp_path / "sim1_results.csv").exists()
        out = capsys.readouterr().out
        assert "sim1 inom" in out

    def test_sim2_dense_tiny_scale(self, tmp_path, capsys):
        code = main(
            [
                "bench",
                "--preset",
                "sim2-dense",
                "--scale",
                "0.002",
                "--trials",
                "1",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        results = (tmp_path / "results.csv").read_text().splitlines()
        assert (
            results[0]
            == "scenario,algorithm,r,trial,elapsed_s,iters,achieved,final_objective"
        )
        assert len(results) > 1
        assert (tmp_path / "summary.csv").exists()


class TestBss:
    def test_reports_and_outputs(self, tmp_path, capsys):
        code = main(
            [
                "bss",
                "--noise-var",
                "0",
                "--algo",
                "fast-hals",
                "--seed",
                "1",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        report = (tmp_path / "match_report.txt").read_text()
        assert "mean_correlation: " in report
        assert "aliasing_warning: true" in report
        mean = float(report.split("mean_correlation: ")[1].split()[0])
        assert mean >= 0.95
        for name in (
            "sources.csv",
            "mixing.csv",
            "observed.csv",
            "recovered_w.csv",
            "recovered_h.csv",
        ):
            assert (tmp_path / name).exists()

    def test_negative_noise_rejected(self):
        code = main(["bss", "--noise-var", "-1"])
        assert code == EXIT_USAGE


SUITE_NAMES = ("monotonicity", "majorization", "fixed-point", "psd-bound", "kkt-decrease")


def _perturbed_map(original):
    def step(V, pair, **kwargs):
        out, info = original(V, pair, **kwargs)
        return FactorPair(out.W, out.H * (1.0 + 1e-9)), info

    return step


def _returns_start(original):
    def solve(V, config, init=None, **kwargs):
        _, trace = original(V, config, init, **kwargs)
        return solvers.initial_factors(V, config), trace

    return solve


# One injected fault per suite besides monotonicity: (suite, module, attribute, fault).
SUITE_FAULTS = [
    ("fixed-point", solvers, "mu_iterate", _perturbed_map),
    ("psd-bound", linalg, "max_row_sum", lambda f: lambda A: 0.5 * f(A)),
    ("majorization", diagnostics, "parinom_surrogate", lambda f: lambda *a: f(*a) - 1.0),
    ("kkt-decrease", solvers, "solve", _returns_start),
]


class TestVerify:
    @pytest.mark.parametrize("flags", [[], ["--quick"]], ids=["full", "quick"])
    def test_suites_pass(self, capsys, flags):
        code = main(["verify", *flags])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        names = [line.split(":")[0] for line in out.splitlines() if "checks" in line]
        assert names == list(SUITE_NAMES)
        assert "all suites passed" in out

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # faults may blow up floats
    @pytest.mark.parametrize(
        "suite, module, name, fault", SUITE_FAULTS, ids=[f[0] for f in SUITE_FAULTS]
    )
    def test_fault_in_suite_detected(self, capsys, monkeypatch, suite, module, name, fault):
        monkeypatch.setattr(module, name, fault(getattr(module, name)))
        code = main(["verify", "--quick"])
        assert code == EXIT_VERIFY
        lines = capsys.readouterr().out.splitlines()
        line = next(x for x in lines if x.startswith(suite + ":"))
        assert int(line.split(", ")[1].split()[0]) > 0, line

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # fault blows up floats
    def test_corrupted_solver_detected(self, capsys, monkeypatch):
        original = solvers.inom_update_h

        def flipped(V, W, H):
            Hn, mu = original(V, W, H)
            # reflect the step around the current iterate: turns descent into
            # ascent without changing shapes or signs of mu
            return np.maximum(0.0, 2.0 * H - Hn), mu

        monkeypatch.setattr(solvers, "inom_update_h", flipped)
        code = main(["verify", "--quick"])
        assert code == EXIT_VERIFY
        err = capsys.readouterr().err
        assert "counterexample" in err


class TestMatching:
    def test_pearson_degenerate_is_zero(self):
        assert cli.pearson_correlation(np.ones(5), np.arange(5.0)) == 0.0

    def test_pearson_perfect(self):
        x = np.arange(10.0)
        assert abs(cli.pearson_correlation(x, 2.0 * x + 1.0) - 1.0) <= 1e-12

    def test_greedy_match_recovers_permutation(self):
        rng = np.random.default_rng(23)
        sources = rng.uniform(0, 1, (4, 50))
        perm = [2, 0, 3, 1]
        recovered = sources[perm] * rng.uniform(0.5, 2.0, (4, 1))
        matches = cli.match_sources(recovered, sources)
        assert len(matches) == 4
        for src, rec, corr in matches:
            assert perm[rec] == src
            assert corr >= 0.999999


class TestGenerate:
    def test_dense_round_trip(self, tmp_path):
        out = tmp_path / "V.csv"
        code = main(
            ["generate", "dense", "--n", "4", "--m", "5", "--seed", "3", "--out", str(out)]
        )
        assert code == EXIT_OK
        M = linalg.read_matrix_csv(out)
        assert M.shape == (4, 5)
        assert M.min() >= 100.0

    def test_sparse_fraction(self, tmp_path):
        out = tmp_path / "V.csv"
        code = main(
            [
                "generate",
                "sparse",
                "--n",
                "100",
                "--m",
                "100",
                "--sparsity",
                "0.7",
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        M = linalg.read_matrix_csv(out)
        assert 0.65 <= float(np.mean(M == 0.0)) <= 0.75

    def test_invalid_bounds_usage_error(self, tmp_path):
        code = main(["generate", "dense", "--n", "2", "--m", "2", "--lo", "5", "--hi", "5"])
        assert code == EXIT_USAGE


class TestParser:
    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_no_command_is_usage_error(self):
        assert main([]) == EXIT_USAGE
