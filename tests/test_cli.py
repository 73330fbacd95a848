import os
import subprocess
import sys

import numpy as np
import pytest

from nmfkit import cli, datagen, diagnostics, linalg, solvers, squarem
from nmfkit.solvers import FactorPair
from nmfkit.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main
from nmfkit.errors import (
    ContractViolationError,
    CsvFormatError,
    DegenerateColumnError,
    NmfError,
    NumericalFailureError,
)

from _util import planted_instance, traced_peak


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

    def test_negative_entry_named_as_a_float(self, tmp_path, capsys):
        bad = tmp_path / "neg.csv"
        bad.write_text("2,2\n1,-2\n3,4\n")
        outs = ["--out-w", str(tmp_path / "W.csv"), "--out-h", str(tmp_path / "H.csv")]
        code = main(["factorize", str(bad), "--rank", "1", *outs])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "entry (0, 1) is -2.0" in err
        assert "np.float64" not in err

    @pytest.mark.parametrize("kind", ["missing", "directory", "non-ascii"])
    def test_unreadable_input_exits_one_without_traceback(self, tmp_path, kind):
        if kind == "missing":
            inp = tmp_path / "nope.csv"
        elif kind == "directory":
            inp = tmp_path
        else:
            inp = tmp_path / "v.csv"
            inp.write_bytes(b"2,2\n1.0,2.0\n1.0,2\xe9\n")
        proc = subprocess.run(
            [sys.executable, "-m", "nmfkit.cli", "factorize", str(inp), "--rank", "1",
             "--out-w", str(tmp_path / "W.csv"), "--out-h", str(tmp_path / "H.csv")],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr.startswith("nmfkit: input error: ")
        assert "Traceback" not in proc.stderr
        if kind == "non-ascii":
            assert "line 3" in proc.stderr

    def test_normalize_zero_column_exits_one(self, tmp_path, capsys):
        inp = write_csv(tmp_path / "v.csv", np.array([[3.0, 0.0], [4.0, 0.0]]))
        outs = ["--out-w", str(tmp_path / "W.csv"), "--out-h", str(tmp_path / "H.csv")]
        code = main(["factorize", inp, "--rank", "1", "--normalize", *outs])
        assert code == EXIT_USAGE
        assert "column 1" in capsys.readouterr().err

    @pytest.mark.parametrize("normalize", [False, True])
    def test_overflowing_scale_exits_one_without_traceback(self, tmp_path, normalize):
        # ||V||_F**2 and every column norm of these entries overflow float64.
        V = datagen.generate_dense_uniform(10, 20, 1e160, 2e160, seed=3)
        inp = write_csv(tmp_path / "v.csv", V)
        proc = subprocess.run(
            [sys.executable, "-m", "nmfkit.cli", "factorize", inp, "--rank", "4",
             "--out-w", str(tmp_path / "W.csv"), "--out-h", str(tmp_path / "H.csv"),
             *(["--normalize"] if normalize else [])],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr.startswith("nmfkit: invalid request: ")
        assert "Traceback" not in proc.stderr
        if normalize:
            assert "column 0 has no finite norm" in proc.stderr
        else:
            assert f"largest entry {float(V.max())!r}" in proc.stderr
        assert not (tmp_path / "W.csv").exists()

    def test_underflowing_scale_exits_one(self, tmp_path, capsys):
        # ||V||_F**2 of entries near 1e-300 underflows to a subnormal; the
        # solve must refuse V at the boundary, not report a collapsed column.
        inp = str(tmp_path / "v.csv")
        gen = ["generate", "dense", "--n", "100", "--m", "200", "--lo", "1e-300",
               "--hi", "2e-300", "--seed", "3", "--out", inp]
        assert main(gen) == EXIT_OK
        outs = ["--out-w", str(tmp_path / "W.csv"), "--out-h", str(tmp_path / "H.csv")]
        capsys.readouterr()
        code = main(["factorize", inp, "--rank", "4", "--algo", "inom", *outs])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        V = linalg.read_matrix_csv(inp)
        assert err.startswith("nmfkit: invalid request: ")
        assert f"largest entry {float(V.max())!r}" in err
        assert "collapsed" not in err
        assert not (tmp_path / "W.csv").exists()

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

    @pytest.mark.parametrize(
        "error, code, prefix",
        [
            (ContractViolationError("bad"), EXIT_USAGE, "invalid request"),
            (DegenerateColumnError(3), EXIT_USAGE, "invalid request"),
            (CsvFormatError("bad", line=2), EXIT_USAGE, "input error"),
            (OSError("bad"), EXIT_USAGE, "input error"),
            (MemoryError("bad"), EXIT_USAGE, "invalid request"),
            (NumericalFailureError("blow-up", 3), EXIT_NUMERICAL, "numerical failure"),
            (NmfError("bad"), EXIT_NUMERICAL, "numerical failure"),
        ],
        ids=[
            "ContractViolationError",
            "DegenerateColumnError",
            "CsvFormatError",
            "OSError",
            "MemoryError",
            "NumericalFailureError",
            "NmfError",
        ],
    )
    def test_error_family_sets_exit_code(
        self, tmp_path, monkeypatch, capsys, error, code, prefix
    ):
        def boom(V, config, init=None, callback=None):
            raise error

        monkeypatch.setattr(cli.solvers, "solve", boom)
        inp = write_csv(tmp_path / "v.csv", np.ones((2, 2)))
        assert main(["factorize", inp, "--rank", "1"]) == code
        assert capsys.readouterr().err.startswith(f"nmfkit: {prefix}: ")


class TestFactorizeMemory:
    """``factorize --normalize`` holds one copy of V: the reader allocates it
    once, ``--normalize`` divides it in place, the column norms are summed in
    one pass with no work array, and the exact residual works in row blocks
    of at most ``linalg.BLOCK_ENTRIES`` entries. The peak is V plus about
    1 MiB, so its ratio to V falls toward 1 as V grows."""

    @staticmethod
    def _argv(d, algo):
        return [
            "factorize", str(d / "v.csv"), "--rank", "10", "--algo", algo,
            "--normalize", "--tol", "1e-3", "--seed", "1",
            "--out-w", str(d / "W.csv"), "--out-h", str(d / "H.csv"),
            "--trace", str(d / "trace.csv"),
        ]

    @pytest.fixture(scope="class")
    def factorize_argv(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("factorize-memory")
        V = datagen.generate_dense_uniform(600, 600, 100.0, 200.0, seed=1001)
        write_csv(d / "v.csv", V)
        # The first factorize in a process also allocates one-time state.
        assert main(self._argv(d, "inom")) == EXIT_OK
        return V.nbytes, lambda algo: self._argv(d, algo)

    @pytest.mark.parametrize("algo", [a.value for a in solvers.Algorithm])
    def test_peak_about_two_inputs(self, factorize_argv, algo):
        nbytes, argv = factorize_argv
        code, peak = traced_peak(main, argv(algo))
        assert code == EXIT_OK
        assert peak < 2.25 * nbytes

    @pytest.mark.parametrize("algo", [a.value for a in solvers.Algorithm])
    def test_peak_one_input_plus_a_block(self, factorize_argv, algo):
        # 600 x 600 is 2.75 MiB, so the 1 MiB block shows: about 1.41x.
        nbytes, argv = factorize_argv
        code, peak = traced_peak(main, argv(algo))
        assert code == EXIT_OK
        assert peak < 1.5 * nbytes

    def test_peak_near_one_input_when_large(self, tmp_path):
        V = datagen.generate_dense_uniform(1000, 1000, 100.0, 200.0, seed=1002)
        write_csv(tmp_path / "v.csv", V)
        assert main(self._argv(tmp_path, "inom")) == EXIT_OK
        code, peak = traced_peak(main, self._argv(tmp_path, "inom"))
        assert code == EXIT_OK
        assert peak < 1.25 * V.nbytes


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

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the split CSV read forks")
    def test_factorize_outputs_do_not_depend_on_the_split_read(
        self, tmp_path, monkeypatch, capsys
    ):
        V = datagen.generate_dense_uniform(250, 250, 100.0, 200.0, seed=1003)
        inp = write_csv(tmp_path / "v.csv", V)
        # Two usable CPUs split a body of this size in two.
        assert os.path.getsize(inp) > 2 * linalg._PARALLEL_MIN_BYTES
        forks = []
        fork = linalg._fork
        monkeypatch.setattr(linalg, "_fork", lambda: forks.append(True) or fork())
        runs = []
        for cpus in ({0, 1}, {0}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
            out = tmp_path / str(len(cpus))
            out.mkdir()
            code = main(
                [
                    "factorize", inp, "--rank", "5", "--algo", "acc-mu",
                    "--normalize", "--tol", "1e-3", "--seed", "2",
                    "--out-w", str(out / "W.csv"), "--out-h", str(out / "H.csv"),
                    "--trace", str(out / "trace.csv"),
                ]
            )
            assert code == EXIT_OK
            trace = [
                line.rsplit(",", 1)[0]
                for line in (out / "trace.csv").read_text().splitlines()
            ]
            runs.append(
                (
                    (out / "W.csv").read_bytes(), (out / "H.csv").read_bytes(),
                    trace, capsys.readouterr().out,
                )
            )
        # One child parses the second range; one CPU parses in process.
        assert len(forks) == 1
        assert runs[0] == runs[1]
        assert len(runs[0][2]) > 2


def assert_invalid_request(code, capsys, fragment):
    """Exit 1 with one ``nmfkit: invalid request`` line naming the fault."""
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("nmfkit: invalid request: ")
    assert fragment in err
    assert "Traceback" not in err


class TestBench:
    def test_scale_zero_exits_one(self, capsys):
        code = main(["bench", "--preset", "sim1", "--scale", "0"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("preset", ["sim1", "sim2-dense", "sim3"])
    @pytest.mark.parametrize("scale", ["0", "nan", "1.5"])
    def test_bad_scale_is_invalid_request_and_writes_nothing(
        self, tmp_path, capsys, preset, scale
    ):
        out = tmp_path / "out"
        code = main(["bench", "--preset", preset, "--scale", scale, "--out", str(out)])
        assert_invalid_request(code, capsys, "scale must be in (0, 1]")
        assert not out.exists()

    def test_bad_trials_is_invalid_request_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["bench", "--preset", "sim3", "--trials", "0", "--out", str(out)])
        assert_invalid_request(code, capsys, "trials must be >= 1, got 0")
        assert not out.exists()

    @pytest.mark.parametrize("preset", ["sim2-dense", "sim2-sparse"])
    def test_empty_rank_grid_is_invalid_request_and_writes_nothing(
        self, tmp_path, capsys, preset
    ):
        # At this scale the matrix is 1 x 5, so no rank stays below min(n, m).
        out = tmp_path / "out"
        code = main(["bench", "--preset", preset, "--scale", "0.0001", "--out", str(out)])
        assert_invalid_request(code, capsys, "no rank below min(n, m) = 1")
        assert not out.exists()

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
            == "scenario,algorithm,r,trial,elapsed_s,iters,achieved,final_objective,error"
        )
        assert len(results) > 1
        assert (tmp_path / "summary.csv").exists()

    def test_trial_whose_matrix_cannot_be_normalized_becomes_failed_rows(
        self, tmp_path, capsys
    ):
        # Trial 0's 10 x 50 sparse matrix has an all-zero column 13; trial 1's
        # has none. Nine ranks times six algorithms make 54 cells a trial.
        argv = ["bench", "--preset", "sim2-sparse", "--scale", "0.001", "--trials", "2"]
        assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
        err = capsys.readouterr().err
        assert "note: 54 cell(s) failed" in err
        assert "column 13 is identically zero" in err
        lines = (tmp_path / "results.csv").read_text().splitlines()[1:]
        rows = [ln.split(",") for ln in lines]
        by_trial = {t: [x for x in rows if x[3] == t] for t in ("0", "1")}
        assert len(by_trial["0"]) == len(by_trial["1"]) == 54
        assert all(x[4] == "nan" and x[5] == "0" for x in by_trial["0"])
        assert all(x[4] != "nan" and int(x[5]) >= 1 for x in by_trial["1"])
        assert all(x[8] == '"column 13 is identically zero"' for x in by_trial["0"])
        assert all(x[8] == "" for x in by_trial["1"])
        summary = (tmp_path / "summary.csv").read_text().splitlines()[1:]
        assert all(ln.split(",")[3:5] == ["2", "1"] for ln in summary)


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

    @pytest.mark.parametrize(
        "flag, value, fragment",
        [
            ("--sample-rate", "nan", "finite and positive"),
            ("--sample-rate", "inf", "finite and positive"),
            ("--sample-rate", "1e-300", "positive integer sample count"),
            ("--sample-rate", "0.4", "0.4 Hz over 10 s gives a sample count of 4"),
            ("--sample-rate", "1e9", "exceed the 100000000 entries allowed"),
            ("--sample-rate", "1e300", "exceed the 100000000 entries allowed"),
            ("--noise-var", "nan", "finite and nonnegative"),
            ("--noise-var", "inf", "finite and nonnegative"),
        ],
    )
    def test_bad_scenario_is_invalid_request(self, tmp_path, capsys, flag, value, fragment):
        out = tmp_path / "out"
        code = main(["bss", flag, value, "--out-dir", str(out)])
        assert_invalid_request(code, capsys, fragment)
        assert not out.exists()


SUITE_NAMES = (
    "monotonicity",
    "majorization",
    "fixed-point",
    "psd-bound",
    "kkt-decrease",
    "acceleration",
)


def _perturbed_map(original):
    def step(V, pair, **kwargs):
        out, info = original(V, pair, **kwargs)
        return FactorPair(out.W, out.H * (1.0 + 1e-9)), info

    return step


def _returns_start(original):
    def solve(V, config, init=None, **kwargs):
        _, trace = original(V, config, init, **kwargs)
        return solvers.initial_factors(V, config.rank, config.seed), trace

    return solve


def _nan_away_from_anchor(original):
    # Exact at the anchor, NaN at every other point: domination is unknown,
    # so the measure must keep the NaN gaps rather than drop them.
    def surrogate(V, W, H_ref, H):
        return original(V, W, H_ref, H) if H is H_ref else float("nan")

    return surrogate


# One injected fault per suite besides monotonicity: (suite, module, attribute, fault).
SUITE_FAULTS = [
    pytest.param("fixed-point", solvers, "mu_iterate", _perturbed_map, id="fixed-point"),
    pytest.param(
        "psd-bound", linalg, "max_row_sum", lambda f: lambda A: 0.5 * f(A), id="psd-bound"
    ),
    pytest.param(
        "majorization",
        diagnostics,
        "parinom_surrogate",
        lambda f: lambda *a: f(*a) - 1.0,
        id="majorization",
    ),
    pytest.param(
        "majorization",
        diagnostics,
        "inom_h_surrogate",
        _nan_away_from_anchor,
        id="majorization-nan",
    ),
    pytest.param(
        "majorization",
        diagnostics,
        "inom_w_surrogate",
        lambda f: lambda *a: f(*a) + 1e-6,
        id="majorization-w",
    ),
    pytest.param("kkt-decrease", solvers, "solve", _returns_start, id="kkt-decrease"),
    # Backtracking that never moves alpha toward -1 cannot restore descent.
    pytest.param(
        "acceleration", squarem, "_backtrack", lambda f: lambda alpha: alpha,
        id="acceleration",
    ),
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
    @pytest.mark.parametrize("suite, module, name, fault", SUITE_FAULTS)
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

    def test_unnormalized_w_detected(self, capsys, monkeypatch):
        # A normalize_pair that leaves W's columns unscaled, in both modules
        # that call it, switches off W's normalization in every map but
        # Fast-HALS's; the objective still descends.
        for module in (solvers, squarem):
            monkeypatch.setattr(module, "normalize_pair", lambda W, H: np.ones(W.shape[1]))
        code = main(["verify", "--quick"])
        assert code == EXIT_VERIFY
        captured = capsys.readouterr()
        assert captured.out.startswith("monotonicity: 1 checks, 1 failures")
        assert "unit norm" in captured.err


class TestMatching:
    def test_constant_row_correlates_zero(self):
        # 16 samples: the unit-norm scaling of a row of ones is exact, so
        # the scaled row is still constant.
        sources = np.arange(16.0)[None, :]
        assert cli.match_sources(np.ones((1, 16)), sources) == [(0, 0, 0.0)]
        assert cli.match_sources(np.zeros((1, 16)), sources) == [(0, 0, 0.0)]

    def test_affine_copy_correlates_one(self):
        x = np.arange(10.0)[None, :]
        [(_, _, corr)] = cli.match_sources(2.0 * x + 1.0, x)
        assert corr >= 1.0 - 1e-12

    def test_match_pinned(self):
        # The floats of the per-pair Pearson sums this matrix form replaced.
        rng = np.random.default_rng(31)
        sources = rng.uniform(0.0, 1.0, (4, 1000))
        recovered = 3.0 * sources[[2, 0, 3, 1]] + rng.uniform(0.0, 0.5, (4, 1000))
        recovered = np.vstack([recovered, rng.uniform(0.0, 1.0, (1, 1000))])
        assert cli.match_sources(recovered, sources) == [
            (0, 1, float.fromhex("0x1.f94773ca0ec26p-1")),
            (3, 2, float.fromhex("0x1.f92959d985e57p-1")),
            (1, 3, float.fromhex("0x1.f8eee4bbcde22p-1")),
            (2, 0, float.fromhex("0x1.f8d08276d8ca9p-1")),
        ]

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

    def test_infinite_upper_bound_is_invalid_request(self, tmp_path, capsys):
        out = tmp_path / "V.csv"
        code = main(
            ["generate", "dense", "--n", "2", "--m", "2", "--hi", "inf", "--out", str(out)]
        )
        assert_invalid_request(code, capsys, "need lo < hi < inf")
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    def test_size_no_array_can_hold_exits_one(self, tmp_path, kind):
        # A child process, so that a missed refusal cannot take this one down.
        out = tmp_path / "V.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "nmfkit.cli", "generate", kind, "--n", "100000000000",
             "--m", "100000000000", "--out", str(out)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr.startswith("nmfkit: invalid request: ")
        assert "a float64 array can hold" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_memory_error_is_invalid_request(self, tmp_path, capsys, monkeypatch):
        def refuse(n, m, lo, hi, seed):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(datagen, "generate_dense_uniform", refuse)
        out = tmp_path / "V.csv"
        code = main(["generate", "dense", "--n", "1000000", "--m", "1000000", "--out", str(out)])
        assert_invalid_request(code, capsys, "Unable to allocate 7.28 TiB")
        assert not out.exists()


class TestParser:
    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_no_command_is_usage_error(self):
        assert main([]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "command",
        [
            ["factorize", "v.csv", "--rank", "1"],
            ["bench", "--preset", "sim1"],
            ["verify"],
            ["generate", "dense", "--n", "2", "--m", "2"],
            ["bss"],
        ],
        ids=lambda c: c[0],
    )
    @pytest.mark.parametrize("seed", ["-1", "x"])
    def test_bad_seed_is_usage_error(self, capsys, command, seed):
        assert main([*command, "--seed", seed]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage: nmfkit ")
        assert f"argument --seed: seed must be a nonnegative integer, got '{seed}'" in err
        assert "Traceback" not in err

    def test_import_leaves_command_only_modules_unloaded(self):
        # bench, datagen and verify load with the commands that use them, so
        # a factorize run does not import them.
        code = (
            "import sys, nmfkit.cli; "
            "print(sorted(m for m in ('nmfkit.bench', 'nmfkit.datagen', "
            "'nmfkit.verify') if m in sys.modules))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"
