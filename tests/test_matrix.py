"""Tests for the design-matrix wrapper, orthogonalization state, and scans."""

import warnings

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
from gausscov import matrix
from gausscov.matrix import (_record_in_span, extend_together, fitted_gram, gram, seed_from_gram,
                             use_gram)


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
        with pytest.raises(DomainError):
            DataMatrix(np.ones((3, 2)), offsets=np.zeros(3))

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

    def test_collinear_norm2_is_cached(self):
        m = DataMatrix(np.arange(12.0).reshape(4, 3))
        floor = m.collinear_norm2()
        assert floor.tobytes() == (matrix.COLLINEARITY_TOL * m.col_norm2()).tobytes()
        assert m.collinear_norm2() is floor
        with pytest.raises(ValueError):
            floor[0] = 0.0

    def test_rejects_wrong_ndim(self):
        with pytest.raises(DomainError):
            DataMatrix(np.ones(5))
        with pytest.raises(DomainError):
            DataMatrix(np.ones((0, 3)))

    def test_column_accessor_returns_raw_scale(self):
        m = DataMatrix(np.array([[1.0, 10.0], [2.0, 20.0]]))
        s, _ = standardize(m)
        raw = s.raw_column(1)
        assert raw == pytest.approx([10.0, 20.0])

    def test_centred_norm2_over_column_blocks(self):
        # two columns per block, the last block one column
        rng = np.random.default_rng(11)
        X = 1e3 + rng.standard_normal((matrix._BLOCK_CELLS // 2, 3))
        want = ((X - X.mean(axis=0)) ** 2).sum(axis=0)
        assert DataMatrix(X).centred_norm2() == pytest.approx(want, rel=1e-12)

    def test_col_means_come_from_the_centred_norm2_pass(self, monkeypatch):
        # means far from zero, so that a relative error is one; the blocks
        # split the columns as in the test above
        rng = np.random.default_rng(12)
        X = rng.uniform(-1e3, 1e3, 3) + rng.standard_normal((matrix._BLOCK_CELLS // 2, 3))
        m = DataMatrix(X)
        css = m.centred_norm2()
        monkeypatch.setattr(DataMatrix, "_centre", lambda self: pytest.fail("second pass"))
        means = m.col_means()
        assert means == pytest.approx(X.mean(axis=0), rel=1e-13, abs=0.0)
        assert m.col_means() is means and m.centred_norm2() is css
        with pytest.raises(ValueError):
            means[0] = 0.0


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

    def test_power_of_two_scaling_changes_no_bit(self):
        # a column is constant when its sd is negligible next to its own mean,
        # so the test holds at every scale, far below unit scale included;
        # 1/3 sums with rounding, so its computed sd is not exactly 0
        rng = np.random.default_rng(31)
        X = rng.standard_normal((40, 12)) * np.logspace(-3, 3, 12) + rng.uniform(-10, 10, 12)
        X[:, [2, 5, 8, 11]] = [0.0, 5.0, 3e5, 1 / 3]
        s, const = standardize(DataMatrix(X))
        assert const == [2, 5, 8, 11]
        keep = [j for j in range(12) if j not in const]
        for k in range(-400, 401):
            sk, ck = standardize(DataMatrix(np.ldexp(X, k)))
            assert ck == const, k
            assert np.array_equal(sk.values[:, keep], s.values[:, keep]), k
            assert np.array_equal(sk.values[:, const], np.ldexp(X[:, const], k)), k
            assert np.array_equal(sk.scales[keep], np.ldexp(s.scales[keep], k)), k
            assert np.array_equal(sk.offsets[keep], np.ldexp(s.offsets[keep], k)), k
            assert np.array_equal(sk.scales[const], np.ones(4)), k

    def test_all_constant_raises(self):
        with pytest.raises(AllColumnsConstant):
            standardize(DataMatrix(np.ones((6, 3))))
        # one row has no sample sd, constant or not
        with pytest.raises(DomainError):
            standardize(DataMatrix(np.arange(3.0).reshape(1, 3)))

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

    def test_factor_reproduces_the_fitted_columns(self):
        # A = B R and c = B^T y, B the basis; a column in the span of the ones
        # before it adds a column of R but no row
        rng = np.random.default_rng(506)
        X = rng.standard_normal((20, 3))
        y = rng.standard_normal(20)
        m = DataMatrix(np.column_stack([X, X[:, 0] - 2.0 * X[:, 2]]))
        st = ResidualState(y)
        extend_intercept(st)
        for j in range(3):
            extend(st, m, j)
        with pytest.raises(CollinearColumn):
            extend(st, m, 3)
        _record_in_span(st, m.col(3))
        r, c = st.factor()
        B = np.column_stack(st.basis)
        assert r.shape == (4, 5) and np.allclose(np.tril(r[:, :4], -1), 0.0)
        assert B @ r == pytest.approx(np.column_stack([np.ones(20), m.values]), abs=1e-12)
        assert c == pytest.approx(B.T @ y, abs=1e-12)
        assert st.rss == pytest.approx(float(y @ y - c @ c), rel=1e-12)

    @pytest.mark.parametrize("other", ["column", "intercept"])
    def test_scanned_extension_is_dropped_once_the_fit_grows_otherwise(self, other):
        # the extension a scan keeps for its column is stale after any other
        # extension, and extending by the scanned column must recompute it
        rng = np.random.default_rng(507)
        X = rng.standard_normal((30, 5))
        y = X[:, 1] + 0.5 * X[:, 3] + rng.standard_normal(30)
        m = DataMatrix(X)
        st = ResidualState(y)
        if other == "column":
            extend_intercept(st)
        j, _ = scan_best(st, m)
        if other == "column":
            k = (j + 1) % m.q
            extend(st, m, k)
            fitted = [np.ones(30), X[:, k]]
        else:
            extend_intercept(st)
            fitted = [np.ones(30)]
        extend(st, m, j)
        fitted.append(X[:, j])
        assert st.rss == pytest.approx(brute_rss(fitted, y), rel=1e-12)
        r, c = st.factor()
        B = np.column_stack(st.basis)
        assert B.T @ B == pytest.approx(np.eye(len(fitted)), abs=1e-12)
        assert B @ r == pytest.approx(np.column_stack(fitted), abs=1e-12)
        assert c == pytest.approx(B.T @ y, abs=1e-12)
        # later scans read the kept X^T r and norms, which must match a fresh scan
        fresh = ResidualState(y)
        extend_intercept(fresh)
        for col in st.selected:
            extend(fresh, m, col)
        assert scan_best(st, m) == pytest.approx(scan_best(fresh, m), rel=1e-10)

    def test_duplicate_extend_rejected(self):
        m = DataMatrix(np.random.default_rng(0).standard_normal((10, 3)))
        st = ResidualState(np.arange(10.0))
        extend(st, m, 1)
        with pytest.raises(DomainError):
            extend(st, m, 1)
        with pytest.raises(DomainError):
            extend(st, m, 3)
        with pytest.raises(DomainError):
            extend(ResidualState(np.arange(9.0)), m, 0)
        with pytest.raises(DomainError):
            ResidualState([])

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

    def test_fork_in_gram_mode_leaves_the_original_unchanged(self):
        rng = np.random.default_rng(504)
        m = DataMatrix(rng.standard_normal((30, 12)))
        g = gram(m, centred=True)

        def seeded():
            s = ResidualState(m.col(0))
            extend_intercept(s)
            seed_from_gram(s, m, g, 0)
            extend(s, m, 4)
            return s

        st, ref = seeded(), seeded()
        other = st.fork()
        extend(other, m, 5)
        extend(other, m, 6)
        extend(st, m, 7)
        extend(ref, m, 7)
        assert st._xtr.tobytes() == ref._xtr.tobytes()
        assert st._resid_norm2.tobytes() == ref._resid_norm2.tobytes()

    def test_gram_seed_needs_a_fresh_state_and_a_matching_gram(self):
        rng = np.random.default_rng(505)
        m = DataMatrix(rng.standard_normal((20, 5)))
        st = ResidualState(m.col(0))
        extend(st, m, 1)
        with pytest.raises(DomainError):
            seed_from_gram(st, m, gram(m, centred=False), 0)
        with pytest.raises(DomainError):
            seed_from_gram(ResidualState(m.col(0)), m, np.eye(4), 0)

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

    def test_zero_collinear_and_excluded_columns_are_never_scored(self):
        # column 2 is all zeros, column 5 is constant and so collinear with
        # the intercept, both with a norm of exactly 0 orthogonal to the
        # basis, and column 6, which y follows most closely, is excluded: no
        # warning escapes, those entries score -inf, and every other score
        # is (X^T r / norm) * X^T r bit for bit
        rng = np.random.default_rng(46)
        X = rng.standard_normal((30, 8))
        X[:, 2] = 0.0
        X[:, 5] = 3.0
        y = 3.0 * X[:, 6] + 2.0 * X[:, 1] + X[:, 4] + 0.1 * rng.standard_normal(30)
        m = DataMatrix(X)
        st = extend_intercept(ResidualState(y))
        fitted, taken = [np.ones(30)], []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for step in range(4):
                score = matrix._scores(st, m, {6})
                cor, denom = st._xtr, st._resid_norm2
                out = [2, 5, 6] + taken
                assert np.isneginf(score[out]).all()
                ok = np.setdiff1d(np.arange(8), out)
                assert score[ok].tobytes() == ((cor[ok] / denom[ok]) * cor[ok]).tobytes()
                j, rss_after = scan_best(st, m, excluded={6})
                want_rss, want_j = self.brute_best(X, y, fitted, set(out))
                assert j == want_j and j not in out
                assert rss_after == pytest.approx(want_rss, rel=1e-8)
                extend(st, m, j)
                fitted.append(X[:, j])
                taken.append(j)
        assert taken[:2] == [1, 4]

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
        with pytest.raises(DomainError):
            scan_best(ResidualState(np.arange(9.0)), m)

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


class TestExtendTogether:
    """Extending many states at once gives each the extension it gets alone."""

    def states(self):
        # states of every kind on one matrix m: with and without the
        # intercept, unscanned, at several fit sizes, in Gram mode, and one
        # that keeps X^T r for another matrix
        rng = np.random.default_rng(61)
        n, q = 30, 40
        X = rng.standard_normal((n, q))
        X[:, 7] = X[:, 2] + 1e-3 * rng.standard_normal(n)
        X[:, 12] = -3.0 * X[:, 5]
        m = DataMatrix(X)
        other = DataMatrix(rng.standard_normal((n, 9)))
        ys = [X[:, :3] @ [1.0, -2.0, 0.5] + rng.standard_normal(n)] + list(
            rng.standard_normal((5, n)))
        states, cols = [], []
        for y, intercept, steps in zip(ys, [True, True, False, True, False], [0, 3, 2, 5, 1]):
            st = extend_intercept(ResidualState(y)) if intercept else ResidualState(y)
            for _ in range(steps):
                extend(st, m, scan_best(st, m)[0])
            if steps % 2:
                # the extension by the scanned column, kept by the scan
                cols.append(scan_best(st, m)[0])
            else:
                scan_best(st, m)
                cols.append(next(j for j in (7, 11, 10) if j not in st.selected))
            states.append(st)
        unscanned = extend_intercept(ResidualState(ys[5]))
        extend(unscanned, m, 4)
        elsewhere = extend_intercept(ResidualState(ys[5]))
        scan_best(elsewhere, other)
        g = gram(m, centred=True)
        seeded = extend_intercept(ResidualState(m.col(0)))
        seed_from_gram(seeded, m, g, 0)
        extend(seeded, m, 5)
        states += [unscanned, elsewhere, seeded]
        cols += [9, 3, 6]
        return m, states, cols

    def test_each_state_gets_its_lone_extension(self):
        m, states, cols = self.states()
        alone = [extend(st.fork(), m, j) for st, j in zip(states, cols)]
        extend_together(states, m, cols)
        for st, want in zip(states, alone):
            assert st.selected == want.selected
            assert st.rss == want.rss
            assert st.residual.tobytes() == want.residual.tobytes()
            assert all(a.tobytes() == b.tobytes() for a, b in zip(st.basis, want.basis))
            for a, b in zip(st.factor(), want.factor()):
                assert a.tobytes() == b.tobytes()
            if want._xtr is None:
                assert st._xtr is None
                continue
            for a, b in ((st._xtr, want._xtr), (st._resid_norm2, want._resid_norm2)):
                assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()
            if want._gram is not None:
                assert st._xtr.tobytes() == want._xtr.tobytes()

    def test_one_product_per_matrix(self, monkeypatch):
        m, states, cols = self.states()
        rows = []
        product = matrix._products

        def counting(mat, vectors):
            rows.append((mat, len(vectors)))
            return product(mat, vectors)

        monkeypatch.setattr(matrix, "_products", counting)
        extend_together(states, m, cols)
        # the five scanned states on m share a product; the state scanned on
        # the other matrix makes its own, the Gram and unscanned ones none
        assert sorted(k for _, k in rows) == [1, 5]
        assert [mat for mat, k in rows if k == 5] == [m]

    def test_error_leaves_every_state_unchanged(self):
        m, states, cols = self.states()

        def snapshot(s):
            return (list(s.selected), len(s.basis), s.residual.tobytes(), s.rss,
                    None if s._xtr is None else s._xtr.tobytes())

        before = [snapshot(s) for s in states]
        # the last state has fitted column 5, and column 12 is -3 times it
        with pytest.raises(DomainError):
            extend_together(states, m, cols[:-1] + [5])
        with pytest.raises(CollinearColumn):
            extend_together(states, m, cols[:-1] + [12])
        assert [snapshot(s) for s in states] == before


class TestFittedGram:
    """Extending by a column from its fitted Gram column equals extending with a product."""

    def root(self, intercept):
        # columns with large means, so the intercept's share of each matters
        rng = np.random.default_rng(62)
        n, q = 40, 60
        X = rng.standard_normal((n, q)) + 3.0 * rng.standard_normal(q)
        m = DataMatrix(X)
        y = X[:, [3, 17, 29, 44]] @ [1.0, -2.0, 1.5, 0.7] + rng.standard_normal(n)
        st = extend_intercept(ResidualState(y)) if intercept else ResidualState(y)
        steps = []
        for _ in range(5):
            j, _ = scan_best(st, m)
            steps.append(st.fork())
            extend(st, m, j)
        return m, st, steps

    @pytest.mark.parametrize("intercept", [True, False])
    def test_columns_are_those_of_the_gram_matrix(self, intercept):
        m, st, _ = self.root(intercept)
        g = gram(m, centred=intercept)
        cols = fitted_gram(st)
        assert list(cols) == st.selected
        for j, col in cols.items():
            assert np.abs(col - g[j]).max() <= 1e-12 * np.abs(g[j]).max()

    @pytest.mark.parametrize("intercept", [True, False])
    def test_extension_equals_one_with_a_product(self, intercept, monkeypatch):
        m, root, steps = self.root(intercept)
        cols = fitted_gram(root)
        later = root.selected[2:]
        # a fork of the state before the root's second step, extended by the
        # root's later columns; and one extended first by a column the root
        # did not take, so its kept products mix both sources
        other = next(j for j in range(m.q) if j not in root.selected)
        paths = [later, [other] + later]
        got, want = [], []
        rows = []
        product = matrix._products

        def counting(mat, vectors):
            rows.append(len(vectors))
            return product(mat, vectors)

        monkeypatch.setattr(matrix, "_products", counting)
        for path in paths:
            a, b = steps[1].fork(), steps[1].fork()
            use_gram(a, m, cols)
            for j in path:
                extend(a, m, j)
                extend(b, m, j)
            got.append(a)
            want.append(b)
        # only the product-extended reference states and the column the root
        # did not take make products
        assert len(rows) == sum(map(len, paths)) + 1
        for a, b in zip(got, want):
            assert a.selected == b.selected
            assert a.rss == b.rss
            assert a.residual.tobytes() == b.residual.tobytes()
            assert all(u.tobytes() == v.tobytes() for u, v in zip(a.basis, b.basis))
            for u, v in zip(a.factor(), b.factor()):
                assert u.tobytes() == v.tobytes()
            for u, v in ((a._xtr, b._xtr), (a._resid_norm2, b._resid_norm2)):
                assert np.abs(u - v).max() <= 1e-12 * np.abs(v).max()
            assert scan_best(a.fork(), m)[0] == scan_best(b.fork(), m)[0]
        # the fork it resumed from is unchanged, and has no Gram columns
        assert steps[1]._gram is None and len(steps[1].selected) == 1

    def test_needs_a_scanned_state_in_data_mode(self):
        m, root, steps = self.root(True)
        cols = fitted_gram(root)
        with pytest.raises(DomainError):
            use_gram(extend_intercept(ResidualState(m.col(0))), m, cols)
        with pytest.raises(DomainError):
            use_gram(steps[1], DataMatrix(np.array(m.values)), cols)
        with pytest.raises(DomainError):
            fitted_gram(extend(extend_intercept(ResidualState(m.col(0))), m, 4))
