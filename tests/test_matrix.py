"""Tests for the design-matrix wrapper, orthogonalization state, and scans."""

import numpy as np
import pytest

from gausscov import (
    AllColumnsConstant,
    CollinearColumn,
    DataMatrix,
    DomainError,
    NoCandidates,
    ResidualState,
    extend,
    extend_intercept,
    scan_best,
    standardize,
)


def brute_rss(cols, y):
    """Reference rss via dense least squares."""
    A = np.column_stack(cols)
    beta, *_ = np.linalg.lstsq(A, y, rcond=None)
    r = y - A @ beta
    return float(r @ r)


class TestDataMatrix:
    def test_basic_shape_and_names(self):
        m = DataMatrix(np.arange(12.0).reshape(4, 3))
        assert (m.n, m.q) == (4, 3)
        assert m.names == ["x1", "x2", "x3"]
        assert m.values.flags.f_contiguous

    def test_explicit_names(self):
        m = DataMatrix(np.ones((3, 2)), names=["a", "b"])
        assert m.names == ["a", "b"]
        with pytest.raises(DomainError):
            DataMatrix(np.ones((3, 2)), names=["onlyone"])

    def test_values_are_read_only(self):
        m = DataMatrix(np.ones((3, 2)))
        with pytest.raises(ValueError):
            m.values[0, 0] = 5.0

    def test_rejects_non_finite(self):
        bad = np.ones((4, 2))
        bad[2, 1] = np.nan
        with pytest.raises(DomainError):
            DataMatrix(bad)
        bad[2, 1] = np.inf
        with pytest.raises(DomainError):
            DataMatrix(bad)

    def test_rejects_wrong_ndim(self):
        with pytest.raises(DomainError):
            DataMatrix(np.ones(5))

    def test_column_accessor_returns_raw_scale(self):
        m = DataMatrix(np.array([[1.0, 10.0], [2.0, 20.0]]))
        s, _ = standardize(m)
        raw = s.raw_column(1)
        assert raw == pytest.approx([10.0, 20.0])


class TestStandardize:
    def test_three_point_example(self):
        m = DataMatrix(np.array([[1.0], [2.0], [3.0]]))
        s, const = standardize(m)
        assert s.values.ravel() == pytest.approx([-1.0, 0.0, 1.0])
        assert const == []

    def test_round_trip_bookkeeping(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((30, 4)) * 7.5 + 3.0
        s, _ = standardize(DataMatrix(X))
        back = s.offsets + s.scales * s.values
        assert back == pytest.approx(X, rel=1e-12)

    def test_constant_columns_reported(self):
        X = np.column_stack([np.ones(10) * 4.2, np.arange(10.0)])
        s, const = standardize(DataMatrix(X))
        assert const == [0]
        # constant columns pass through untouched (no offset, unit scale)
        assert np.allclose(s.values[:, 0], 4.2)
        assert s.offsets[0] == 0.0 and s.scales[0] == 1.0
        assert not s.standardized[0] and s.standardized[1]

    def test_all_constant_raises(self):
        with pytest.raises(AllColumnsConstant):
            standardize(DataMatrix(np.ones((6, 3))))

    def test_unit_sample_sd(self):
        rng = np.random.default_rng(12)
        s, _ = standardize(DataMatrix(rng.standard_normal((50, 3)) * 100))
        assert np.std(s.values, axis=0, ddof=1) == pytest.approx(np.ones(3))


class TestResidualState:
    def test_rss_matches_lstsq_step_by_step(self):
        rng = np.random.default_rng(501)
        for trial in range(20):
            n, q = 40, 8
            X = rng.standard_normal((n, q))
            y = rng.standard_normal(n)
            m = DataMatrix(X)
            st = ResidualState(y)
            extend_intercept(st)
            cols = [np.ones(n)]
            assert st.rss == pytest.approx(brute_rss(cols, y), rel=1e-10)
            order = rng.permutation(q)[:4]
            for j in order:
                extend(st, m, int(j))
                cols.append(X[:, j])
                assert st.rss == pytest.approx(brute_rss(cols, y), rel=1e-9)

    def test_without_intercept(self):
        rng = np.random.default_rng(502)
        X = rng.standard_normal((25, 5))
        y = rng.standard_normal(25)
        m = DataMatrix(X)
        st = ResidualState(y)
        extend(st, m, 2)
        extend(st, m, 0)
        assert st.rss == pytest.approx(brute_rss([X[:, 2], X[:, 0]], y), rel=1e-10)
        assert st.selected == [2, 0]

    def test_duplicate_extend_rejected(self):
        m = DataMatrix(np.random.default_rng(0).standard_normal((10, 3)))
        st = ResidualState(np.arange(10.0))
        extend(st, m, 1)
        with pytest.raises(DomainError):
            extend(st, m, 1)

    def test_intercept_must_come_first(self):
        m = DataMatrix(np.random.default_rng(0).standard_normal((10, 3)))
        st = ResidualState(np.arange(10.0))
        extend(st, m, 0)
        with pytest.raises(DomainError):
            extend_intercept(st)

    def test_collinear_column_rejected(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal(20)
        X = np.column_stack([a, 2.0 * a, rng.standard_normal(20)])
        m = DataMatrix(X)
        st = ResidualState(rng.standard_normal(20))
        extend(st, m, 0)
        with pytest.raises(CollinearColumn):
            extend(st, m, 1)

    def test_fork_leaves_the_original_unchanged(self):
        # f3st resumes branches from forks of states another run keeps
        rng = np.random.default_rng(503)
        X = rng.standard_normal((30, 12))
        m = DataMatrix(X)
        st = ResidualState(rng.standard_normal(30))
        extend_intercept(st)
        scan_best(st, m)
        extend(st, m, 4)

        def snapshot(s):
            return (list(s.selected), len(s.basis), s.residual.tobytes(), s.rss,
                    s._xtr.tobytes(), s._resid_norm2.tobytes())

        before = snapshot(st)
        other = st.fork()
        for _ in range(3):
            j, _ = scan_best(other, m)
            extend(other, m, j)
        assert len(other.selected) == 4
        assert snapshot(st) == before
        assert snapshot(other) != before

    def test_constant_column_collinear_with_intercept(self):
        X = np.column_stack([np.full(15, 3.0), np.arange(15.0)])
        m = DataMatrix(X)
        st = ResidualState(np.arange(15.0) ** 2)
        extend_intercept(st)
        with pytest.raises(CollinearColumn):
            extend(st, m, 0)


class TestScanBest:
    def brute_best(self, X, y, fitted_cols, excluded):
        """Reference: refit every candidate with lstsq, smallest rss wins."""
        best = (np.inf, None)
        for j in range(X.shape[1]):
            if j in excluded:
                continue
            rss = brute_rss(fitted_cols + [X[:, j]], y)
            if rss < best[0]:
                best = (rss, j)
        return best

    def test_matches_dense_search_over_random_problems(self):
        # the scan scores from X^T r kept by recurrence across extensions, so
        # run long paths, near-exact fits and strongly correlated columns too
        rng = np.random.default_rng(1999)
        n, q = 35, 12

        def noise(X):
            return rng.standard_normal(n)

        def near_exact(X):
            return X[:, :3] @ [2.0, -1.5, 1.0] + 1e-10 * rng.standard_normal(n)

        def common_column(X):
            z = rng.standard_normal(n)
            X[:] = 0.9 * z[:, None] + np.sqrt(1 - 0.81) * X
            return X[:, :2] @ [1.0, 1.0] + 0.1 * rng.standard_normal(n)

        cases = [(noise, 3)] * 25 + [(noise, 8), (near_exact, 8), (common_column, 8)] * 8
        for trial, (response, steps) in enumerate(cases):
            X = rng.standard_normal((n, q))
            y = response(X)
            m = DataMatrix(X)
            st = ResidualState(y)
            extend_intercept(st)
            fitted = [np.ones(n)]
            taken = set()
            for _ in range(steps):
                j, rss_after = scan_best(st, m, excluded=taken)
                want_rss, want_j = self.brute_best(X, y, fitted, taken)
                assert j == want_j, (trial, response.__name__)
                assert rss_after == pytest.approx(want_rss, rel=1e-8, abs=1e-12)
                extend(st, m, j)
                fitted.append(X[:, j])
                taken.add(j)

    def test_exact_tie_breaks_to_smallest_index(self):
        # every candidate scores exactly 0.0 here (each product in the dot
        # is a signed zero), a bona fide float tie: smallest index must win
        rng = np.random.default_rng(44)
        X = np.zeros((8, 4))
        X[1:, :] = rng.standard_normal((7, 4))
        y = np.zeros(8)
        y[0] = 1.0
        st = ResidualState(y)
        j, _ = scan_best(st, DataMatrix(X))
        assert j == 0

    def test_duplicate_columns_pick_deterministically(self):
        # bitwise-equal columns need not give bitwise-equal BLAS dot
        # products (alignment changes the reduction), so which duplicate
        # wins is unspecified -- but it must be the same one every call
        rng = np.random.default_rng(45)
        a = rng.standard_normal(30)
        y = rng.standard_normal(30)
        X = np.column_stack([rng.standard_normal(30), a, a.copy()])
        m = DataMatrix(X)
        picks = set()
        for _ in range(5):
            st = ResidualState(y)
            extend_intercept(st)
            picks.add(scan_best(st, m, excluded={0})[0])
        assert len(picks) == 1 and picks <= {1, 2}

    def test_excluded_mask_variant(self):
        rng = np.random.default_rng(45)
        X = rng.standard_normal((20, 6))
        y = X[:, 4] + 0.01 * rng.standard_normal(20)
        m = DataMatrix(X)
        st = ResidualState(y)
        mask = np.zeros(6, dtype=bool)
        mask[4] = True
        j, _ = scan_best(st, m, excluded=mask)
        assert j != 4

    def test_all_excluded_raises(self):
        m = DataMatrix(np.random.default_rng(4).standard_normal((10, 2)))
        st = ResidualState(np.arange(10.0))
        with pytest.raises(NoCandidates):
            scan_best(st, m, excluded={0, 1})

    def test_selection_score_invariant_to_column_scaling(self):
        rng = np.random.default_rng(321)
        X = rng.standard_normal((40, 9))
        y = rng.standard_normal(40)
        scales = 10.0 ** rng.uniform(-3, 3, size=9)
        m1, m2 = DataMatrix(X), DataMatrix(X * scales)
        for m in (m1, m2):
            st = ResidualState(y)
            extend_intercept(st)
            j, _ = scan_best(st, m)
            assert j == scan_best_first(m1, y)

    def test_scan_after_extends_uses_fresh_residuals(self):
        # the cached column norms are downdated at each extension; make sure the
        # second and third picks agree with a from-scratch computation
        rng = np.random.default_rng(871)
        X = rng.standard_normal((50, 15))
        y = rng.standard_normal(50)
        m = DataMatrix(X)
        st = ResidualState(y)
        extend_intercept(st)
        picks = []
        for _ in range(3):
            j, _ = scan_best(st, m, excluded=set(picks))
            picks.append(j)
            extend(st, m, j)
        st2 = ResidualState(y)
        extend_intercept(st2)
        for idx, j in enumerate(picks):
            j2, _ = scan_best(st2, m, excluded=set(picks[:idx]))
            assert j2 == j
            extend(st2, m, j)


def scan_best_first(m, y):
    st = ResidualState(y)
    extend_intercept(st)
    j, _ = scan_best(st, m)
    return j
