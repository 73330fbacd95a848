import math
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
        "unit-separator": "1,2\n1\x1f,2\n",
        # The fast path reads only the header's row count; whatever follows
        # must be blank or the file goes to the strict parser.
        "extra-row-after-600": "600,2\n" + "1,2\n" * 601,
        "blanks-then-extra-row": "2,2\n1,2\n3,4\n\n \n5,6\n",
        "trailing-blank-lines-only": "2,2\n1,2\n3,4\n\n\t\n\n",
        "header-promises-more-rows": "5,2\n1,2\n\n3,4\n\n",
        "blank-lines-between-rows": "3,2\n1,2\n\n\n3,4\n \n5,6\n",
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

    @pytest.mark.parametrize("name", sorted(DIFFERENTIAL))
    def test_reader_matches_strict_parser(self, tmp_path, name):
        path = tmp_path / "m.csv"
        # newline="" keeps "\r\n" as written.
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(self.DIFFERENTIAL[name])
        assert self._outcome(linalg.read_matrix_csv, path) == self._outcome(
            self._read_strict, path
        )

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

    def test_read_allocates_output_once(self, tmp_path):
        M = np.random.default_rng(15).uniform(100, 200, (600, 600))
        path = tmp_path / "m.csv"
        linalg.write_matrix_csv(path, M)
        out, peak = traced_peak(linalg.read_matrix_csv, path)
        assert np.array_equal(out, M)
        assert peak < 1.1 * M.nbytes

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
        ],
        ids=["body", "header", "crlf-and-blank", "past-first-chunk"],
    )
    def test_non_ascii_byte_names_its_line(self, tmp_path, data, line):
        path = tmp_path / "m.csv"
        path.write_bytes(data)
        with pytest.raises(CsvFormatError, match="is not ASCII") as err:
            linalg.read_matrix_csv(path)
        assert err.value.line == line
