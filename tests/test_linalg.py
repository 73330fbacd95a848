import numpy as np
import pytest

from nmfkit import linalg
from nmfkit.errors import (
    ContractViolationError,
    CsvFormatError,
    DegenerateColumnError,
    ShapeError,
)

from _util import frobenius_oracle


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
        with pytest.raises(ShapeError, match=r"V \(3, 4\), W \(3, 2\), H \(3, 4\)"):
            linalg.frobenius_residual(V, W, H)


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
