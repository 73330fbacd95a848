import math
import os
import pickle
import platform
import signal
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from nmfkit import bench, datagen, linalg, solvers, verify
from nmfkit.errors import (
    ContractViolationError,
    CsvFormatError,
    DegenerateColumnError,
)

from _util import frobenius_oracle, traced_peak

needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="the split CSV read forks its parsers"
)


class TestAsMatrix:
    @pytest.mark.parametrize(
        "bad, detail",
        [
            ([[1.0, 2.0], [3.0]], "rectangular array of real numbers"),
            ([["a", "b"]], "real numbers, got dtype <U1"),
            ([[1 + 1j, 2.0]], "real numbers, got dtype complex128"),
            (np.array([[1 + 1j, 2.0], [3.0, 4j]]), "real numbers, got dtype complex128"),
            (np.array([[1 + 1j, 2.0]], dtype=object), "real numbers"),
            ([[10**400, 1]], "real numbers: int too large"),
        ],
        ids=[
            "ragged", "strings", "complex-list", "complex-array", "complex-object",
            "huge-int",
        ],
    )
    def test_input_that_is_not_real_is_refused_by_name(self, bad, detail):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no ComplexWarning either
            with pytest.raises(ContractViolationError, match=f"^X must .*{detail}"):
                linalg.as_matrix(bad, "X")

    def test_float64_array_is_returned_as_it_is(self):
        M = np.ones((2, 3))
        assert linalg.as_matrix(M) is M

    @pytest.mark.parametrize(
        "given",
        [
            [[1, 0], [2, 3]],
            [[True, False], [True, True]],
            np.array([[1, 0], [2, 3]], dtype=np.float32),
            np.array([[1, 0.0], [2, 3]], dtype=object),
        ],
        ids=["int-list", "bool-list", "float32", "object"],
    )
    def test_real_input_is_converted(self, given):
        out = linalg.as_matrix(given)
        assert out.dtype == np.float64
        assert np.array_equal(out, np.array(given, dtype=np.float64))


class TestFrobeniusResidual:
    def test_exact_factorization_is_zero(self):
        rng = np.random.default_rng(0)
        W = rng.uniform(0.1, 1.0, (5, 2))
        H = rng.uniform(0.1, 1.0, (2, 7))
        assert linalg.frobenius_residual(W @ H, W, H) == 0.0

    def test_identity_example(self):
        V = np.array([[1.0, 0.0], [0.0, 1.0]])
        W = np.array([[1.0], [0.0]])
        H = np.array([[1.0, 0.0]])
        assert linalg.frobenius_residual(V, W, H) == 1.0

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(1)
        V = rng.uniform(0, 1, (3, 4))
        W = rng.uniform(0, 1, (3, 2))
        H = rng.uniform(0, 1, (2, 4))
        fast = linalg.frobenius_residual(V, W, H)
        slow = frobenius_oracle(V, W, H)
        assert abs(fast - slow) <= 1e-12 * max(1.0, abs(slow))

    def test_transposition_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            V = rng.uniform(0, 1, (6, 5))
            W = rng.uniform(0, 1, (6, 3))
            H = rng.uniform(0, 1, (3, 5))
            a = linalg.frobenius_residual(V, W, H)
            b = linalg.frobenius_residual(V.T, H.T, W.T)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_shape_mismatch_names_operands(self):
        V = np.ones((3, 4))
        W = np.ones((3, 2))
        H = np.ones((3, 4))
        with pytest.raises(
            ContractViolationError, match=r"V \(3, 4\), W \(3, 2\), H \(3, 4\)"
        ):
            linalg.frobenius_residual(V, W, H)

    def test_one_buffer_and_bitwise_value(self):
        rng = np.random.default_rng(11)
        V = rng.uniform(0, 1, (200, 300))
        W = rng.uniform(0, 1, (200, 10))
        H = rng.uniform(0, 1, (10, 300))
        value, peak = traced_peak(linalg.frobenius_residual, V, W, H)
        assert peak < 1.2 * V.nbytes
        assert value == float(np.sum((V - W @ H) * (V - W @ H)))


    def test_row_blocks_bound_memory_and_keep_value(self):
        # 1000 x 600 is several blocks of linalg.BLOCK_ENTRIES entries.
        rng = np.random.default_rng(12)
        V = rng.uniform(0, 1, (1000, 600))
        W = rng.uniform(0, 1, (1000, 10))
        H = rng.uniform(0, 1, (10, 600))
        value, peak = traced_peak(linalg.frobenius_residual, V, W, H)
        assert peak < 0.5 * V.nbytes
        R = V - W @ H
        exact = math.fsum((R * R).ravel())
        assert abs(value - exact) <= 1e-14 * exact


class TestColumnNorms:
    M_COLS = 600
    BLOCK_ROWS = linalg.BLOCK_ENTRIES // M_COLS

    @staticmethod
    def _one_shot(M):
        return np.sqrt(np.sum(M * M, axis=0))

    @pytest.mark.parametrize(
        "rows",
        [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 7 * BLOCK_ROWS + 3],
        ids=["below-block", "one-block", "one-row-over", "many-blocks"],
    )
    def test_c_ordered_bitwise_equal_to_one_shot(self, rows):
        M = np.random.default_rng(rows).uniform(0, 1e3, (rows, self.M_COLS))
        assert linalg.column_norms(M).tobytes() == self._one_shot(M).tobytes()

    def test_other_layouts_bitwise_equal_to_one_shot(self):
        M = np.random.default_rng(13).uniform(0, 1e3, (5 * self.BLOCK_ROWS, self.M_COLS))
        # numpy sums a single column pairwise, since it is also F-ordered; a
        # sum by row blocks differs from that in the last bits of about half
        # such columns at this size.
        columns = [
            np.random.default_rng(seed).uniform(0, 1e3, (200_000, 1))
            for seed in range(3)
        ]
        for X in (*columns, np.asfortranarray(M), M[::2], M[:, 1::2]):
            assert linalg.column_norms(X).tobytes() == self._one_shot(X).tobytes()

    def test_row_blocks_bound_memory(self):
        M = np.random.default_rng(14).uniform(0, 1, (8 * self.BLOCK_ROWS, self.M_COLS))
        _, peak = traced_peak(linalg.column_norms, M)
        assert peak < 0.5 * M.nbytes

    def test_one_pass_allocates_no_work_array(self):
        # Several of the 1 MiB row blocks the norms were once summed in; the
        # one-pass sum allocates little more than its m-long result.
        M = np.random.default_rng(15).uniform(0, 1, (8 * self.BLOCK_ROWS, self.M_COLS))
        _, peak = traced_peak(linalg.column_norms, M)
        assert peak < 64 * 1024


class TestNormalizeColumns:
    def test_three_four_five(self):
        out = linalg.normalize_columns(np.array([[3.0], [4.0]]))
        assert np.allclose(out, [[0.6], [0.8]], atol=0, rtol=1e-15)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        M = linalg.normalize_columns(rng.uniform(0.1, 1.0, (7, 4)))
        again = linalg.normalize_columns(M)
        assert np.abs(again - M).max() <= 1e-15

    def test_unit_norms(self):
        rng = np.random.default_rng(4)
        out = linalg.normalize_columns(rng.uniform(0.1, 2.0, (5, 3)))
        norms = np.sqrt((out * out).sum(axis=0))
        assert np.all(np.abs(norms - 1.0) <= 1e-12)

    def test_preserves_direction(self):
        M = np.array([[1.0, 0.0], [1.0, 2.0]])
        out = linalg.normalize_columns(M)
        for j in range(2):
            cosine = out[:, j] @ M[:, j] / np.sqrt(M[:, j] @ M[:, j])
            assert abs(cosine - 1.0) < 1e-12

    def test_zero_column_reports_index(self):
        M = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(DegenerateColumnError) as err:
            linalg.normalize_columns(M)
        assert err.value.column == 1
        assert issubclass(DegenerateColumnError, ContractViolationError)


_V = np.ones((6, 8))
_PAIR = solvers.initial_factors(_V, 2, 0)
_INOM = solvers.Algorithm.INOM


class TestRequireCount:
    @pytest.mark.parametrize(
        "field, build",
        [
            ("rank", lambda: solvers.SolverConfig(_INOM, rank=2.5)),
            ("max_iters", lambda: solvers.SolverConfig(_INOM, rank=2, max_iters=3.5)),
            ("rank", lambda: solvers.SolverConfig(_INOM, rank=True)),
            ("seed", lambda: solvers.SolverConfig(_INOM, rank=2, seed=-1)),
            ("seed", lambda: solvers.SolverConfig(_INOM, rank=2, seed=1.5)),
            ("n", lambda: datagen.generate_dense_uniform(2.5, 3, 0, 1, 0)),
            ("m", lambda: datagen.generate_sparse(2, 3.0, 0.5, 0)),
            ("seed", lambda: datagen.generate_sparse(2, 3, 0.5, -1)),
            ("seed", lambda: datagen.BssScenario(seed=-1)),
            ("trials", lambda: bench.BenchScenario("x", 6, 8, (2,), trials=1.5)),
            ("seed", lambda: bench.BenchScenario("x", 6, 8, (2,), seed=-1)),
            ("rank", lambda: bench.BenchScenario("x", 6, 8, (2.0,))),
            ("seed", lambda: solvers.initial_factors(_V, 2, -3)),
            ("rank", lambda: solvers.initial_factors(_V, np.float64(2), 0)),
            ("samples", lambda: verify.majorization_gaps(_V, _PAIR, _INOM, -2)),
            ("steps", lambda: verify.acceleration_gaps(_V, _PAIR, _INOM, 0)),
            ("steps", lambda: verify.acceleration_gaps(_V, _PAIR, _INOM, -1)),
            ("steps", lambda: verify.acceleration_gaps(_V, _PAIR, _INOM, 2.5)),
            ("steps", lambda: verify.acceleration_gaps(_V, _PAIR, _INOM, True)),
        ],
    )
    def test_bad_count_refused_where_it_enters(self, field, build):
        with pytest.raises(ContractViolationError, match=f"^{field} must be"):
            build()

    def test_numpy_integers_and_zero_samples_accepted(self):
        two, zero = np.int64(2), np.int64(0)
        config = solvers.SolverConfig(_INOM, rank=two, max_iters=np.int32(3), seed=zero)
        _, trace = solvers.solve(_V, config)
        assert trace.iterations == 3
        assert datagen.generate_dense_uniform(two, two, 0, 1, zero).shape == (2, 2)
        bench.BenchScenario("x", two, np.int64(8), (np.int64(1),), trials=two)
        gaps = verify.majorization_gaps(_V, _PAIR, _INOM, samples=0)
        assert all(gap <= verify.MAJORIZATION_TOL for gap in gaps)


class TestRequireReal:
    @pytest.mark.parametrize(
        "field, build",
        [
            ("tol", lambda: solvers.SolverConfig(_INOM, 2, tol="1e-3")),
            ("tol", lambda: solvers.SolverConfig(_INOM, 2, tol=None)),
            ("tol", lambda: solvers.SolverConfig(_INOM, 2, tol=True)),
            ("target", lambda: solvers.SolverConfig(_INOM, 2, target="1")),
            ("sample_rate_hz", lambda: datagen.BssScenario(sample_rate_hz="100")),
            ("noise_variance", lambda: datagen.BssScenario(noise_variance=None)),
            ("lo", lambda: datagen.generate_dense_uniform(2, 3, "0", 1, 0)),
            ("hi", lambda: datagen.generate_dense_uniform(2, 3, 0, [1], 0)),
            ("sparsity", lambda: datagen.generate_sparse(2, 3, "0.5", 0)),
            ("scale", lambda: bench.sim2_scenario(bench.MatrixKind.SPARSE70, scale="1")),
        ],
    )
    def test_non_number_refused_where_it_enters(self, field, build):
        with pytest.raises(ContractViolationError, match=f"^{field} must be a real number"):
            build()

    def test_numpy_reals_accepted_and_nan_fails_the_interval(self):
        config = solvers.SolverConfig(
            _INOM, 2, tol=np.float64(1e-3), target=np.float32(0.5)
        )
        assert config.tol == 1e-3
        assert datagen.BssScenario(sample_rate_hz=np.int64(200)).num_samples == 2000
        assert datagen.generate_sparse(2, 3, np.float64(0.5), 0).shape == (2, 3)
        with pytest.raises(ContractViolationError, match="^tol must be > 0"):
            solvers.SolverConfig(_INOM, 2, tol=math.nan)


class TestMaxRowSum:
    def test_scaled_identity(self):
        assert linalg.max_row_sum(2.0 * np.eye(2)) == 2.0

    def test_gram_example(self):
        W = np.array([[1.0, 2.0], [3.0, 4.0]])
        A = 2.0 * W.T @ W
        assert np.allclose(A, [[20.0, 28.0], [28.0, 40.0]])
        assert linalg.max_row_sum(A) == 68.0

    def test_all_ones(self):
        for n in (1, 3, 6):
            assert linalg.max_row_sum(np.ones((n, n))) == float(n)

    def test_rejects_non_square(self):
        with pytest.raises(ContractViolationError):
            linalg.max_row_sum(np.ones((2, 3)))

    def test_rejects_negative(self):
        with pytest.raises(ContractViolationError):
            linalg.max_row_sum(np.array([[1.0, -0.1], [0.0, 1.0]]))


class TestCsv:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        M = rng.uniform(0, 1, (4, 3))
        M[0, 0] = 1e-13
        M[1, 2] = 12345.6789
        path = tmp_path / "m.csv"
        linalg.write_matrix_csv(path, M)
        back = linalg.read_matrix_csv(path)
        assert np.array_equal(back, M)

    def test_header_format(self, tmp_path):
        path = tmp_path / "m.csv"
        linalg.write_matrix_csv(path, np.ones((2, 3)))
        assert path.read_text().splitlines()[0] == "2,3"

    def test_write_is_deterministic(self, tmp_path):
        M = np.random.default_rng(7).uniform(0, 1, (5, 5))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        linalg.write_matrix_csv(p1, M)
        linalg.write_matrix_csv(p2, M)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_header_line_number(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("nonsense\n1.0\n")
        with pytest.raises(CsvFormatError) as err:
            linalg.read_matrix_csv(path)
        assert err.value.line == 1

    def test_bad_value_line_number(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("2,2\n1.0,2.0\n1.0,oops\n")
        with pytest.raises(CsvFormatError) as err:
            linalg.read_matrix_csv(path)
        assert err.value.line == 3

    @pytest.mark.parametrize(
        "bad, message", [("x", "could not convert"), ("nan", "value 2 is nan;")]
    )
    def test_line_number_counts_blank_lines(self, tmp_path, bad, message):
        path = tmp_path / "m.csv"
        path.write_text(f"2,2\n1,2\n\n3,{bad}\n")
        with pytest.raises(CsvFormatError, match=message) as err:
            linalg.read_matrix_csv(path)
        assert err.value.line == 4

    def test_wrong_column_count_line_number(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("2,2\n1.0,2.0\n1.0\n")
        with pytest.raises(CsvFormatError) as err:
            linalg.read_matrix_csv(path)
        assert err.value.line == 3

    def test_missing_rows_detected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("3,2\n1.0,2.0\n")
        with pytest.raises(CsvFormatError):
            linalg.read_matrix_csv(path)

    def test_written_bytes_are_pinned(self, tmp_path):
        M = np.array([[1e-13, 0.1, 12345.6789], [1e16, 0.0, -2.5]])
        path = tmp_path / "m.csv"
        linalg.write_matrix_csv(path, M)
        assert path.read_bytes() == b"2,3\n1e-13,0.1,12345.6789\n1e+16,0.0,-2.5\n"

    # Inputs the fast path must either parse exactly as the strict parser does
    # or hand to it, so that both give the same array or the same error.
    DIFFERENTIAL = {
        "blank-lines": "2,2\n\n1,2\n\n\n3,4\n\n",
        "whitespace-only-line": "2,2\n1,2\n \t \n3,4\n",
        "crlf": "2,2\r\n1,2\r\n3,4\r\n",
        "no-final-newline": "2,2\n1,2\n3,4",
        "spaced-fields": "2,2\n 1 , 2\t\n3 ,  4\n",
        "plus-sign": "2,2\n+1,2\n3,4\n",
        "exponent": "2,2\n4e5,2\n3,4E-3\n",
        "leading-dot": "2,2\n.5,2\n3,4\n",
        "trailing-dot": "2,2\n5.,2\n3,4\n",
        "underscore": "2,2\n1_0,2\n3,4\n",
        "trailing-comma": "2,2\n1,2,\n3,4\n",
        "empty-field": "2,2\n1,,2\n3,4\n",
        "quotes": '2,2\n"1",2\n3,4\n',
        "comment-line": "2,2\n# c\n1,2\n3,4\n",
        "comment-after-value": "2,2\n1,2 #c\n3,4\n",
        "semicolon": "2,2\n1;2\n3,4\n",
        "hex": "2,2\n0x10,2\n3,4\n",
        "nan": "2,2\n1,2\nnan,4\n",
        "inf": "2,2\n1,-inf\n3,4\n",
        "overflow": "2,2\n1,2\n3,1e999\n",
        "extra-row": "2,2\n1,2\n3,4\n5,6\n",
        "missing-row": "3,2\n1,2\n3,4\n",
        "three-field-header": "2,2,2\n1,2\n3,4\n",
        "zero-header": "0,2\n",
        "empty-body": "2,2\n",
        "empty-file": "",
        "ragged-row": "2,2\n1,2\n3\n",
        "form-feed-before-comma": "1,2\n1\x0c,2\n",
        "form-feed-in-header": "2\x0c,2\n1,2\n3,4\n",
        # A lone "\r" ends the header line, though int() would strip it.
        "cr-inside-header": "2\r,2\n1,2\n3,4\n",
        "unit-separator": "1,2\n1\x1f,2\n",
        # The fast path reads only the header's row count; whatever follows
        # must be blank or the file goes to the strict parser.
        "extra-row-after-600": "600,2\n" + "1,2\n" * 601,
        "blanks-then-extra-row": "2,2\n1,2\n3,4\n\n \n5,6\n",
        "trailing-blank-lines-only": "2,2\n1,2\n3,4\n\n\t\n\n",
        "header-promises-more-rows": "5,2\n1,2\n\n3,4\n\n",
        # More values than the body has bytes for: refused, never allocated.
        "header-promises-terabytes": "100000000000,2\n1,2\n3,4\n",
        "header-promises-terabytes-cr": "100000000000,2\r1,2\r3,4\r",
        "blank-lines-between-rows": "3,2\n1,2\n\n\n3,4\n \n5,6\n",
        # Bytes, not text: the strict parser names a non-ASCII byte's line.
        "non-ascii-in-body": b"2,2\n1,2\n3,\xff4\n",
        "non-ascii-in-header": b"2\xe9,2\n1,2\n3,4\n",
        "non-ascii-after-cr": b"2,2\r1,2\r\x803,4\r",
        "non-ascii-after-form-feed": b"2,2\n1,2\x0c\x803,4\n",
        # Body bytes 56 of 90: in the second range whether the body is cut in
        # two (at 46) or in three (at 31 and 61).
        "non-ascii-in-second-range": (
            b"2,2\n1,2\n" + b"\n" * 50 + b"3,\xff4\n" + b"\n" * 30
        ),
    }

    @staticmethod
    def _outcome(read, path):
        try:
            M = read(path)
        except CsvFormatError as exc:
            return ("error", str(exc), exc.line)
        return ("ok", M.shape, M.tobytes())

    @staticmethod
    def _read_strict(path):
        with open(path, "r", encoding="ascii") as fh:
            return linalg._read_strict(fh)

    @classmethod
    def _write_case(cls, path, name):
        data = cls.DIFFERENTIAL[name]
        path.write_bytes(data if isinstance(data, bytes) else data.encode("ascii"))

    @pytest.mark.parametrize("name", sorted(DIFFERENTIAL))
    def test_reader_matches_strict_parser(self, tmp_path, name):
        path = tmp_path / "m.csv"
        self._write_case(path, name)
        assert self._outcome(linalg.read_matrix_csv, path) == self._outcome(
            self._read_strict, path
        )

    # A fresh interpreter reads the FIFO argv[1] while a thread of its own
    # writes stdin's bytes into it, and pickles the outcome to stdout.
    FIFO_READ = """
import pickle, sys, threading
from nmfkit import linalg
from nmfkit.errors import CsvFormatError

def feed(data=sys.stdin.buffer.read()):
    with open(sys.argv[1], "wb") as fh:
        fh.write(data)

threading.Thread(target=feed).start()
try:
    M = linalg.read_matrix_csv(sys.argv[1])
    outcome = ("ok", M.shape, M.tobytes())
except CsvFormatError as exc:
    outcome = ("error", str(exc), exc.line)
sys.stdout.buffer.write(pickle.dumps(outcome))
"""

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    @pytest.mark.parametrize(
        "name", ["well-formed", "non-ascii", "ragged-row", "header-promises-terabytes"]
    )
    def test_fifo_gives_regular_file_outcome(self, tmp_path, name):
        # An input that cannot seek is copied to a temporary file first; the
        # read runs in a child with a timeout, so a hang fails the test.
        data = {
            "well-formed": None,
            "non-ascii": b"2,2\n1,2\n3,\xff4\n",
            "ragged-row": b"2,2\n1,2\n3\n",
            "header-promises-terabytes": b"100000000000,2\n1,2\n3,4\n",
        }[name]
        path, fifo = tmp_path / "m.csv", tmp_path / "fifo"
        if data is None:
            M = np.random.default_rng(22).uniform(100, 200, (300, 300))
            linalg.write_matrix_csv(path, M)
            data = path.read_bytes()
        path.write_bytes(data)
        os.mkfifo(fifo)
        # pytest's warning filters do not reach the child, so it is told to
        # raise an unclosed file's warning; one raised in a finalizer is
        # only printed.
        child = [sys.executable, "-W", "error::ResourceWarning", "-c", self.FIFO_READ]
        proc = subprocess.run(
            [*child, str(fifo)], input=data, capture_output=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        assert b"ResourceWarning" not in proc.stderr, proc.stderr.decode()
        got = pickle.loads(proc.stdout)
        assert got == self._outcome(linalg.read_matrix_csv, path)
        assert got[0] == ("ok" if name == "well-formed" else "error")

    @pytest.fixture
    def split(self, monkeypatch):
        """``split(k)`` makes :func:`linalg.read_matrix_csv` cut any body
        into ``k`` ranges, as if ``k`` CPUs were usable and the threshold
        were one byte, and parse each range one row at a time, so block ends
        meet every awkward line too. It returns two lists that the reads
        fill in this process: one entry per fork, and ``(offset, line end)``
        per cut."""
        forks, cuts = [], []
        fork, line_end = linalg._fork, linalg._line_end

        def counted_fork():
            forks.append(True)
            return fork()

        def recorded_line_end(fd, pos):
            cuts.append((pos, line_end(fd, pos)))
            return cuts[-1][1]

        monkeypatch.setattr(linalg, "_fork", counted_fork)
        monkeypatch.setattr(linalg, "_line_end", recorded_line_end)
        monkeypatch.setattr(linalg, "_PARALLEL_MIN_BYTES", 1)
        monkeypatch.setattr(linalg, "_BLOCK_BYTES", 8)

        def force(k):
            monkeypatch.setattr(
                os, "sched_getaffinity", lambda pid: set(range(k)), raising=False
            )
            return forks, cuts

        return force

    @staticmethod
    def _assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @needs_fork
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(DIFFERENTIAL))
    def test_split_reader_matches_strict_parser(self, tmp_path, split, name, k):
        path = tmp_path / "m.csv"
        self._write_case(path, name)
        forks, cuts = split(k)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = self._outcome(linalg.read_matrix_csv, path)
        self._assert_no_child_left()
        # A child per range after the first, which this process parses.
        assert len(forks) == len(cuts) < k
        assert got == self._outcome(self._read_strict, path)

    # What drawn files are made of: every byte class the two parsers treat
    # differently, and one byte that is not ASCII.
    TOKENS = [*(bytes([c]) for c in b"0123456789,.-e \n\r\x0c\x1f"), b"nan", b"\xff"]

    @needs_fork
    def test_reader_matches_strict_parser_on_drawn_files(self, tmp_path, split):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        path = tmp_path / "m.csv"
        # About a header's count of lines of its count of cells, each cell a
        # number or a few tokens, so that some drawn files are well formed.
        cell = st.one_of(
            st.integers(0, 99).map(b"%d".__mod__),
            st.lists(st.sampled_from(self.TOKENS), max_size=3).map(b"".join),
        )

        @st.composite
        def files(draw):
            rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
            line = st.lists(cell, min_size=cols, max_size=cols).map(b",".join)
            body = draw(st.lists(line, min_size=rows - 1, max_size=rows + 1))
            return b"\n".join([b"%d,%d" % (rows, cols), *body])

        @hypothesis.settings(
            max_examples=150, deadline=None, database=None, derandomize=True
        )
        @hypothesis.given(files())
        def check(data):
            path.write_bytes(data)
            want = self._outcome(self._read_strict, path)
            for k in (1, 2):  # one usable CPU parses in process
                split(k)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    assert self._outcome(linalg.read_matrix_csv, path) == want
                self._assert_no_child_left()

        check()

    # A ragged row in the first range, which this process parses, before
    # well-formed ranges that each hold more rows than a pipe takes, so a
    # child still writing when the read gives up must exit too.
    RAGGED_FIRST = b"15002,2\n1,2\n3\n" + b"5.5,6.5\n" * 15000

    # Files whose body, cut into k ranges, splits where ``where(data, cuts)``
    # says, given each cut's (offset, line end).
    SPLIT = {
        "cut-on-blank-line": (
            2, b"2,2\n1,2\n" + b"\n" * 40 + b"3,4\n",
            lambda d, cuts: d[cuts[0][0] - 1 : cuts[0][0] + 1] == b"\n\n",
        ),
        "cut-between-crlf": (
            2, b"2,2\r\n1,2\r\n3,4",
            lambda d, cuts: d[cuts[0][0] - 1 : cuts[0][0] + 1] == b"\r\n",
        ),
        # A header ended by a lone "\r" goes to the strict parser uncut.
        "cr-only-file": (2, b"2,2\r1,2\r\r3,4\r", lambda d, cuts: not cuts),
        "cr-only-body": (
            2, b"2,2\r\n1,2\r3,4\r", lambda d, cuts: cuts[0][1] == len(d),
        ),
        # Past the text decoder's first 8 KiB chunk, so a child meets it.
        "non-ascii-in-second-range": (
            2, b"2,2\n1,2\n" + b"\n" * 20000 + b"3,\xff4\n",
            lambda d, cuts: b"\xff" in d[cuts[0][1] :],
        ),
        "extra-row-in-last-range": (
            3, b"2,2\n1,2\n" + b"\n" * 30 + b"3,4\n" + b"\n" * 30 + b"5,6\n",
            lambda d, cuts: b"5,6" in d[cuts[1][1] :],
        ),
        "ragged-row-in-first-of-2-ranges": (
            2, RAGGED_FIRST, lambda d, cuts: b"\n3\n" in d[: cuts[0][1]],
        ),
        "ragged-row-in-first-of-3-ranges": (
            3, RAGGED_FIRST, lambda d, cuts: b"\n3\n" in d[: cuts[0][1]],
        ),
        "ragged-row-in-middle-range": (
            3, b"3,2\n1,2\n" + b"\n" * 30 + b"3\n" + b"\n" * 30 + b"5,6\n",
            lambda d, cuts: b"\n3\n" in d[cuts[0][1] : cuts[1][1]],
        ),
        # Two rows of three values and one of two send the header's 4 x 2
        # values, so only the per-range width check refuses the file.
        "widths-fill-byte-count": (
            2, b"4,2\n1,2,3\n4,5,6\n" + b"\n" * 20 + b"7,8\n",
            lambda d, cuts: b"4,5,6" in d[: cuts[0][1]] and b"7,8" in d[cuts[0][1] :],
        ),
    }

    @needs_fork
    @pytest.mark.parametrize("name", sorted(SPLIT))
    def test_split_at_awkward_cuts_matches_strict_parser(
        self, tmp_path, monkeypatch, split, name
    ):
        k, data, where = self.SPLIT[name]
        path = tmp_path / "m.csv"
        path.write_bytes(data)
        forks, cuts = split(k)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = self._outcome(linalg.read_matrix_csv, path)
        self._assert_no_child_left()
        assert where(data, cuts)
        # This process parses the first range and a child each further one.
        assert len(forks) == len(cuts)
        # The strict parser alone decides, as when the fast path gives up.
        monkeypatch.setattr(linalg, "_read_loadtxt", lambda fh: None)
        assert got == self._outcome(linalg.read_matrix_csv, path)

    @staticmethod
    def _count_calls(monkeypatch, name):
        """Replace ``linalg.<name>`` by a wrapper and return the list it
        appends each call's arguments to in this process."""
        calls, inner = [], getattr(linalg, name)

        def counted(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(linalg, name, counted)
        return calls

    @needs_fork
    @pytest.mark.parametrize("failing", ["pipe", "first-fork", "second-fork"])
    def test_setup_failure_parses_in_process(
        self, tmp_path, monkeypatch, split, failing
    ):
        M = np.random.default_rng(16).uniform(0, 1, (30, 20))
        path = tmp_path / "m.csv"
        linalg.write_matrix_csv(path, M)
        forks, _ = split(3)
        fork = linalg._fork

        def failing_fork():
            if failing == "first-fork" or forks:
                raise OSError(11, "Resource temporarily unavailable")
            return fork()

        def no_pipe():
            raise OSError(24, "Too many open files")

        if failing == "pipe":
            monkeypatch.setattr(os, "pipe", no_pipe)
        else:
            monkeypatch.setattr(linalg, "_fork", failing_fork)
        bodies = self._count_calls(monkeypatch, "_read_body")
        strict = self._count_calls(monkeypatch, "_read_strict")
        out = linalg.read_matrix_csv(path)
        assert np.array_equal(out, M)
        # Three ranges fail to set up, so the body is parsed as one.
        assert [ranges for _, _, _, ranges, _, _ in bodies] == [3, 1] and not strict
        assert len(forks) == {"pipe": 0, "first-fork": 0, "second-fork": 1}[failing]
        self._assert_no_child_left()

    @needs_fork
    @pytest.mark.parametrize("k", [2, 3])
    def test_split_read_survives_short_reads(self, tmp_path, monkeypatch, split, k):
        # os.pread may return fewer bytes than asked, and Linux returns at
        # most about 2 GiB per call. The children ask for at most a buffer's
        # worth and read on until their range ends; here every call returns
        # at most 7 bytes and a longer request fails the child.
        M = np.random.default_rng(20).uniform(100, 200, (40, 30))
        path = tmp_path / "m.csv"
        linalg.write_matrix_csv(path, M)
        forks, _ = split(k)
        pread = os.pread

        def short_pread(fd, n, offset):
            assert n <= 1 << 16
            return pread(fd, min(n, 7), offset)

        monkeypatch.setattr(os, "pread", short_pread)
        strict = self._count_calls(monkeypatch, "_read_strict")
        out = linalg.read_matrix_csv(path)
        assert len(forks) == k - 1 and not strict
        assert out.tobytes() == M.tobytes()
        self._assert_no_child_left()

    @needs_fork
    def test_children_parse_in_bounded_blocks(self, tmp_path, monkeypatch, split):
        # The children ask loadtxt for about _BLOCK_BYTES of rows at once, not
        # their whole range; this process parses the first range in one block
        # of the header's count of rows. Each reports its block sizes through
        # a file.
        M = np.random.default_rng(21).uniform(100, 200, (300, 300))
        path, log = tmp_path / "m.csv", tmp_path / "blocks"
        linalg.write_matrix_csv(path, M)
        split(2)
        monkeypatch.setattr(linalg, "_BLOCK_BYTES", 1 << 15)
        row_blocks = linalg._row_blocks

        def logged_row_blocks(text, cols, count):
            for block in row_blocks(text, cols, count):
                with open(log, "a") as fh:
                    fh.write(f"{os.getpid()} {len(block)}\n")
                yield block

        monkeypatch.setattr(linalg, "_row_blocks", logged_row_blocks)
        assert np.array_equal(linalg.read_matrix_csv(path), M)
        blocks = [line.split() for line in log.read_text().splitlines()]
        mine = [int(rows) for pid, rows in blocks if pid == str(os.getpid())]
        theirs = [int(rows) for pid, rows in blocks if pid != str(os.getpid())]
        assert len({pid for pid, _ in blocks}) == 2 and len(mine) == 1
        assert mine[0] + sum(theirs) == len(M)
        assert max(theirs) * M[0].nbytes <= 1 << 15
        self._assert_no_child_left()

    @needs_fork
    def test_failing_child_gives_strict_outcome(self, tmp_path, monkeypatch, split):
        M = np.random.default_rng(17).uniform(0, 1, (30, 20))
        path = tmp_path / "m.csv"
        linalg.write_matrix_csv(path, M)
        forks, _ = split(2)
        strict_reads = []
        read_strict = linalg._read_strict

        def counted_read_strict(fh):
            strict_reads.append(True)
            return read_strict(fh)

        monkeypatch.setattr(linalg, "_read_strict", counted_read_strict)
        monkeypatch.setattr(linalg, "_parse_range_and_exit", lambda *args: os._exit(3))
        assert np.array_equal(linalg.read_matrix_csv(path), M)
        assert len(forks) == 1 and len(strict_reads) == 1
        self._assert_no_child_left()

    @needs_fork
    @pytest.mark.parametrize("k", [2, 3])
    def test_failed_read_kills_children_still_parsing(
        self, tmp_path, monkeypatch, split, k
    ):
        # The range this process parses holds a ragged row, so the outcome is
        # known while the children, here 60 s each, still parse theirs.
        path = tmp_path / "m.csv"
        path.write_bytes(self.RAGGED_FIRST)
        forks, cuts = split(k)

        def slow_child(*args):
            try:
                time.sleep(60)
            finally:
                os._exit(0)

        monkeypatch.setattr(linalg, "_parse_range_and_exit", slow_child)
        start = time.monotonic()
        got = self._outcome(linalg.read_matrix_csv, path)
        assert time.monotonic() - start < 10
        self._assert_no_child_left()
        assert len(forks) == k - 1 and b"\n3\n" in self.RAGGED_FIRST[: cuts[0][1]]
        assert got == self._outcome(self._read_strict, path)
        assert got[0] == "error"

    @needs_fork
    def test_read_with_sigchld_ignored(self, tmp_path, split):
        # The children are reaped by the kernel, so their exits are unknown
        # and the strict parser reads the file.
        M = np.random.default_rng(18).uniform(0, 1, (30, 20))
        path = tmp_path / "m.csv"
        linalg.write_matrix_csv(path, M)
        forks, _ = split(2)
        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            out = linalg.read_matrix_csv(path)
        finally:
            signal.signal(signal.SIGCHLD, previous)
        assert len(forks) == 1
        assert np.array_equal(out, M)
        self._assert_no_child_left()

    @needs_fork
    def test_no_fork_while_another_thread_runs(self, tmp_path, split):
        M = np.random.default_rng(19).uniform(0, 1, (30, 20))
        path = tmp_path / "m.csv"
        linalg.write_matrix_csv(path, M)
        forks, _ = split(2)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            out = linalg.read_matrix_csv(path)
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert not forks
        assert np.array_equal(out, M)

    @needs_fork
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_split_read_allocates_output_once(self, tmp_path, split, k):
        M = np.random.default_rng(15).uniform(100, 200, (600, 600))
        path = tmp_path / "m.csv"
        linalg.write_matrix_csv(path, M)
        forks, _ = split(k)
        out, peak = traced_peak(linalg.read_matrix_csv, path)
        assert len(forks) == k - 1
        assert np.array_equal(out, M)
        assert peak < 1.1 * M.nbytes
        self._assert_no_child_left()

    @pytest.mark.parametrize("crlf_and_blanks", [False, True])
    def test_well_formed_file_skips_strict_parser(
        self, tmp_path, monkeypatch, crlf_and_blanks
    ):
        M = np.random.default_rng(8).uniform(0, 1, (5, 4))
        M[2, 1] = 1e-300
        path = tmp_path / "m.csv"
        linalg.write_matrix_csv(path, M)
        if crlf_and_blanks:
            text = path.read_text().replace("\n", "\r\n\r\n")
            path.write_bytes(text.encode("ascii"))

        def refuse(fh):
            raise AssertionError("strict parser called on a well-formed file")

        monkeypatch.setattr(linalg, "_read_strict", refuse)
        # Blank lines raise a loadtxt warning the reader must silence.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(linalg.read_matrix_csv(path), M)

    @pytest.mark.parametrize("cpus", ["one", "host"])
    def test_read_allocates_output_once(self, tmp_path, monkeypatch, cpus):
        # With one usable CPU the body is parsed in this process; with the
        # host's, it is split when the host has two or more.
        M = np.random.default_rng(15).uniform(100, 200, (600, 600))
        path = tmp_path / "m.csv"
        linalg.write_matrix_csv(path, M)
        if cpus == "one":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        out, peak = traced_peak(linalg.read_matrix_csv, path)
        assert np.array_equal(out, M)
        assert peak < 1.1 * M.nbytes

    # A fresh interpreter reads argv[1] in process, as with one usable CPU,
    # three times, then prints the minor page faults of a fourth read.
    REPEAT_READ = """
import os, resource, sys
from nmfkit import linalg

os.sched_getaffinity = lambda pid: {0}
for _ in range(3):
    linalg.read_matrix_csv(sys.argv[1])
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
linalg.read_matrix_csv(sys.argv[1])
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""

    @pytest.mark.skipif(
        not sys.platform.startswith("linux")
        or platform.libc_ver()[0] != "glibc"
        or "MALLOC_MMAP_THRESHOLD_" in os.environ,
        reason="needs glibc's dynamic mmap threshold",
    )
    def test_repeated_in_process_read_maps_no_fresh_pages(self, tmp_path):
        # glibc serves the 2.75 MiB output from mmap and, once it is freed,
        # raises its mmap threshold to that block's size. A read that asks
        # loadtxt for exactly that size again is then served from the heap
        # it already touched; a larger request would be mapped afresh.
        M = np.random.default_rng(15).uniform(100, 200, (600, 600))
        path = tmp_path / "m.csv"
        linalg.write_matrix_csv(path, M)
        proc = subprocess.run(
            [sys.executable, "-c", self.REPEAT_READ, str(path)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 100

    def test_read_peak_memory_near_output_size(self, tmp_path):
        M = np.random.default_rng(9).uniform(100, 200, (200, 200))
        path = tmp_path / "m.csv"
        linalg.write_matrix_csv(path, M)
        out, peak = traced_peak(linalg.read_matrix_csv, path)
        assert np.array_equal(out, M)
        assert peak < 2 * M.nbytes

    def test_write_streams_rows(self, tmp_path):
        # One row at a time costs one row's strings plus the file buffers, tens
        # of kB whatever the row count, so the matrix is tall to keep that
        # fixed cost small against its size.
        M = np.random.default_rng(10).uniform(100, 200, (2000, 200))
        path = tmp_path / "m.csv"
        _, peak = traced_peak(linalg.write_matrix_csv, path, M)
        assert peak < 0.05 * M.nbytes
        assert np.array_equal(linalg.read_matrix_csv(path), M)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_write_refuses_non_finite_and_keeps_existing_file(self, tmp_path, value):
        M = np.ones((3, 4))
        M[2, 1] = value
        M[2, 3] = value
        path = tmp_path / "m.csv"
        path.write_bytes(b"1,1\n7.0\n")
        with pytest.raises(ContractViolationError, match=rf"\(2, 1\) is {value!r}"):
            linalg.write_matrix_csv(path, M)
        assert path.read_bytes() == b"1,1\n7.0\n"

    def test_empty_body_raises_without_warning(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("3,2\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CsvFormatError, match="expected 3 data rows") as err:
                linalg.read_matrix_csv(path)
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "data, line",
        [
            (b"2,2\n1,2\n3,\xff4\n", 3),
            (b"2\xe9,2\n1,2\n3,4\n", 1),
            (b"2,2\r\n1,2\r\n\r\n3,4\xc3\xa9\r\n", 4),
            # Past the text decoder's first 8 KiB chunk, so loadtxt meets it.
            (b"1000,1\n" + b"1.2345678901234567\n" * 999 + b"\x80\n", 1001),
            # Past 21844 "\r\n" line ends, one of them at bytes 65535-65536.
            (b"21843,1\r\n\r\n" + b"1\r\n" * 21842 + b"\x80\r\n", 21845),
        ],
        ids=["body", "header", "crlf-and-blank", "past-first-chunk", "crlf-across-chunks"],
    )
    def test_non_ascii_byte_names_its_line(self, tmp_path, data, line):
        path = tmp_path / "m.csv"
        path.write_bytes(data)
        with pytest.raises(CsvFormatError, match="is not ASCII") as err:
            linalg.read_matrix_csv(path)
        assert err.value.line == line

    def test_non_ascii_error_peak_memory(self, tmp_path):
        # Reading the whole file takes about three times its size; naming the
        # byte's line takes no more than that.
        M = np.random.default_rng(23).uniform(100, 200, (600, 600))
        path = tmp_path / "m.csv"
        linalg.write_matrix_csv(path, M)
        data = path.read_bytes()
        path.write_bytes(data[:-2] + b"\x80\n")
        got, peak = traced_peak(self._outcome, linalg.read_matrix_csv, path)
        assert got == ("error", "line 601: byte 0x80 is not ASCII", 601)
        assert peak < 3.5 * len(data)
