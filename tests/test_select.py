"""Tests for the selection procedures against a brute-force reference.

The reference implementation below recomputes everything from first
principles with dense least squares (`np.linalg.lstsq`) on the n rows —
deliberately not the package's own incremental orthogonalization or its
QR-based refits — so agreement is evidence rather than tautology.  Both use
scipy's regularized incomplete beta, which `test_pvalues.py` checks against
mpmath.
"""

import itertools
import json

import numpy as np
import pytest
from scipy.special import betainc as sp_betainc

from gausscov import (
    DataMatrix,
    DomainError,
    SelectionConfig,
    TooManyColumns,
    all_subset_select,
    f1st,
    f2st,
    f3st,
    standardize,
)
from gausscov.matrix import gram


# ---------------------------------------------------------------------------
# reference implementation
# ---------------------------------------------------------------------------

def ref_rss(X, y, cols, intercept):
    parts = [np.ones((len(y), 1))] if intercept else []
    if cols:
        parts.append(X[:, list(cols)])
    if not parts:
        return float(y @ y)
    A = np.concatenate(parts, axis=1)
    beta, *_ = np.linalg.lstsq(A, y, rcond=None)
    r = y - A @ beta
    return float(r @ r)


def ref_pg(pf, n_gauss):
    return float(-np.expm1(n_gauss * np.log1p(-pf)))


def ref_stepwise(X, y, p0=0.01, kmn=0, intercept=True, exclude=()):
    n, q = X.shape
    excl = set(exclude)
    q_pool = q - len(excl)
    sel, trace = [], []
    rss_old = ref_rss(X, y, [], intercept)
    floor = rss_old * 1e-12
    while True:
        k = len(sel)
        if k >= q_pool:
            break
        fit_new = k + 1 + int(intercept)
        if n - fit_new < 2:
            break
        if rss_old <= floor:
            break
        cands = [j for j in range(q) if j not in excl and j not in sel]
        rss_new, j = min((ref_rss(X, y, sel + [j], intercept), j) for j in cands)
        ratio = min(max(rss_new / rss_old, 0.0), 1.0)
        pf = float(sp_betainc((n - fit_new) / 2.0, 0.5, ratio))
        pg = ref_pg(pf, q_pool - k)
        if k < kmn or pg < p0:
            sel.append(j)
            trace.append((j, pf, pg, rss_new, pg >= p0))
            rss_old = rss_new
        else:
            break
    return sel, trace


def centred_qr_trace_pf(X, y, sel, q_pool):
    """Stepwise P_F along ``sel`` (intercept fitted) from QR fits of the centred data."""
    n = len(y)
    yc = y - y.mean()
    Xc = X - X.mean(axis=0)
    rss = [float(yc @ yc)]
    for k in range(1, len(sel) + 1):
        Q, _ = np.linalg.qr(Xc[:, sel[:k]])
        r = yc - Q @ (Q.T @ yc)
        rss.append(float(r @ r))
    return [float(sp_betainc((n - k - 2) / 2.0, 0.5, rss[k + 1] / rss[k]))
            for k in range(len(sel))]


def node_design(seed, n=100, q=25):
    """Correlated columns, so that regressing each on the rest takes a few steps."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, q))
    for j in range(1, q):
        X[:, j] += 0.7 * X[:, j - 1]
    return X


def node_traces(X, cfg=None, seeded=False):
    """The trace of f1st regressing each column of X on the others."""
    cfg = cfg or SelectionConfig()
    m = DataMatrix(X)
    g = gram(m, centred=cfg.intercept) if seeded else None
    out = []
    for j in range(m.q):
        kw = {"_gram": (g, j)} if seeded else {}
        out.append(f1st(m, X[:, j], cfg, exclude=(j,), **kw).trace)
    return out


def ref_membership(X, y, members, p0, q_pool, intercept):
    """(retained?, rss, per-member pg) for one subset under the membership test."""
    n = X.shape[0]
    s = len(members)
    int_flag = int(intercept)
    if n - (s + int_flag) < 2:
        return False, None, None
    rss = ref_rss(X, y, members, intercept)
    pgs = []
    for i in range(s):
        rest = members[:i] + members[i + 1:]
        rss_wo = ref_rss(X, y, rest, intercept)
        if rss_wo <= 0.0:
            return False, None, None
        pf = float(sp_betainc((n - s - int_flag) / 2.0, 0.5, min(rss / rss_wo, 1.0)))
        pgs.append(ref_pg(pf, q_pool - s + 1))
    return all(p < p0 for p in pgs), rss, pgs


def ref_refine(X, y, sel, p0, q_pool, intercept):
    best = None
    for s in range(1, len(sel) + 1):
        for combo in itertools.combinations(range(len(sel)), s):
            members = [sel[i] for i in combo]
            ok, rss, _ = ref_membership(X, y, members, p0, q_pool, intercept)
            if ok:
                cand = (rss, s, combo)
                if best is None or cand < best:
                    best = cand
    if best is None:
        return []
    return [sel[i] for i in best[2]]


def ref_all_subsets(X, y, p0, intercept, exclude=()):
    n, q = X.shape
    cand = [j for j in range(q) if j not in set(exclude)]
    q_pool = len(cand)
    s_max = min(q_pool, n - int(intercept) - 2)
    retained = []
    for s in range(1, s_max + 1):
        for combo in itertools.combinations(cand, s):
            members = list(combo)
            ok, rss, pgs = ref_membership(X, y, members, p0, q_pool, intercept)
            if ok:
                retained.append((rss, s, frozenset(members), members, pgs))
    maximal = [
        r for r in retained
        if not any(r[2] < other[2] for other in retained)
    ]
    maximal.sort(key=lambda r: (r[0], r[1], r[3]))
    return maximal


def check_coefficients_and_intercept(r, X, y, intercept):
    """A result's coefficients against n-row lstsq, and its intercept P-value
    against the F-test of the fit with and without the intercept."""
    n = len(y)
    parts = ([np.ones((n, 1))] if intercept else []) + [X[:, r.selected]]
    beta = np.linalg.lstsq(np.concatenate(parts, axis=1), y, rcond=None)[0]
    assert r.coefficients == pytest.approx(list(beta[int(intercept):]), rel=1e-9)
    if not intercept:
        assert r.intercept_coefficient is None and r.intercept_pg is None
        return
    assert r.intercept_coefficient == pytest.approx(beta[0], rel=1e-9)
    ratio = ref_rss(X, y, r.selected, True) / ref_rss(X, y, r.selected, False)
    pf = float(sp_betainc((n - len(r.selected) - 1) / 2.0, 0.5, min(ratio, 1.0)))
    assert r.intercept_pg == pytest.approx(pf, rel=1e-8, abs=1e-300)


def make_instance(rng, n, q, signal):
    """Random design with `signal` = list of (column, coefficient)."""
    X = rng.standard_normal((n, q))
    y = rng.standard_normal(n)
    for j, b in signal:
        y = y + b * X[:, j]
    return X, y


# ---------------------------------------------------------------------------
# f1st
# ---------------------------------------------------------------------------

class TestF1st:
    def test_recovers_planted_strong_signals(self):
        rng = np.random.default_rng(210)
        X, y = make_instance(rng, 80, 30, [(4, 9.0), (11, -7.0), (22, 8.0)])
        r = f1st(DataMatrix(X), y)
        assert sorted(r.selected) == [4, 11, 22]
        assert all(p < 1e-8 for p in r.pg)
        # coefficients close to the planted values
        by_col = dict(zip(r.selected, r.coefficients))
        assert by_col[4] == pytest.approx(9.0, abs=0.5)
        assert by_col[11] == pytest.approx(-7.0, abs=0.5)
        assert by_col[22] == pytest.approx(8.0, abs=0.5)

    @pytest.mark.parametrize("case", [
        dict(seed=1, n=30, q=10, signal=[(2, 4.0)], kmn=0, intercept=True, exclude=()),
        dict(seed=2, n=60, q=25, signal=[(0, 6.0), (7, 5.0)], kmn=0, intercept=True,
             exclude=()),
        dict(seed=3, n=40, q=15, signal=[], kmn=3, intercept=True, exclude=()),
        dict(seed=4, n=50, q=12, signal=[(3, 2.0)], kmn=0, intercept=False, exclude=()),
        dict(seed=5, n=45, q=14, signal=[(1, 5.0), (2, 0.8)], kmn=2, intercept=True,
             exclude=(0, 13)),
        dict(seed=6, n=35, q=20, signal=[(9, 1.2)], kmn=0, intercept=True, exclude=()),
        dict(seed=7, n=30, q=8, signal=[(0, 3.0), (1, 3.0), (2, 3.0)], kmn=0,
             intercept=True, exclude=()),
        # pure noise without an intercept selects nothing: a fit with no term
        dict(seed=8, n=40, q=10, signal=[], kmn=0, intercept=False, exclude=()),
    ])
    def test_matches_reference(self, case):
        rng = np.random.default_rng(case["seed"])
        X, y = make_instance(rng, case["n"], case["q"], case["signal"])
        cfg = SelectionConfig(kmn=case["kmn"], intercept=case["intercept"])
        r = f1st(DataMatrix(X), y, cfg, exclude=case["exclude"])

        sel, trace = ref_stepwise(X, y, p0=cfg.p0, kmn=cfg.kmn,
                                  intercept=cfg.intercept, exclude=case["exclude"])
        q_pool = case["q"] - len(case["exclude"])
        # the stepwise path must agree step for step
        assert [t.index for t in r.trace] == [t[0] for t in trace]
        for got, want in zip(r.trace, trace):
            assert got.p_f == pytest.approx(want[1], rel=1e-9, abs=1e-300)
            assert got.p_g == pytest.approx(want[2], rel=1e-9, abs=1e-300)
            assert got.rss == pytest.approx(want[3], rel=1e-9)
            assert got.forced == want[4]
        # and the refined selection too
        want_sel = ref_refine(X, y, sel, cfg.p0, q_pool, cfg.intercept)
        assert r.selected == want_sel
        _, want_rss, want_pgs = ref_membership(X, y, want_sel, cfg.p0, q_pool, cfg.intercept)
        assert r.rss == pytest.approx(want_rss, rel=1e-9)
        for got_p, want_p in zip(r.pg, want_pgs):
            assert got_p == pytest.approx(want_p, rel=1e-8, abs=1e-300)
        check_coefficients_and_intercept(r, X, y, cfg.intercept)

    def test_pure_noise_selects_nothing(self):
        rng = np.random.default_rng(88)
        X = rng.standard_normal((60, 40))
        y = rng.standard_normal(60)
        r = f1st(DataMatrix(X), y)
        assert r.selected == []
        assert r.pg == [] and r.coefficients == []
        # intercept-only fit is still reported
        assert r.intercept_coefficient == pytest.approx(float(y.mean()), rel=1e-9)
        assert r.rss == pytest.approx(float(((y - y.mean()) ** 2).sum()), rel=1e-12)

    def test_kmn_forces_steps_and_flags_them(self):
        rng = np.random.default_rng(17)
        X = rng.standard_normal((50, 20))
        y = rng.standard_normal(50)
        r = f1st(DataMatrix(X), y, SelectionConfig(kmn=4, max_subset_refine=0))
        assert len(r.trace) >= 4
        assert any(t.forced for t in r.trace[:4])
        forced_pgs = [t.p_g for t in r.trace if t.forced]
        assert all(p >= 0.01 for p in forced_pgs)

    def test_exclusions_respected_and_pool_shrinks(self):
        rng = np.random.default_rng(55)
        X, y = make_instance(rng, 60, 10, [(3, 6.0)])
        r_all = f1st(DataMatrix(X), y)
        r_excl = f1st(DataMatrix(X), y, exclude=(0, 1, 2))
        assert 3 in r_excl.selected
        assert not {0, 1, 2} & set(r_excl.selected)
        assert r_excl.q_pool == 7 and r_all.q_pool == 10
        # smaller competitor pool gives a smaller Gaussian P-value
        p_all = dict(zip(r_all.selected, r_all.pg))[3]
        p_ex = dict(zip(r_excl.selected, r_excl.pg))[3]
        assert p_ex < p_all

    def test_excluding_the_signal_finds_nothing(self):
        rng = np.random.default_rng(56)
        X, y = make_instance(rng, 50, 6, [(2, 8.0)])
        r = f1st(DataMatrix(X), y, exclude=(2,))
        assert 2 not in r.selected

    def test_refinement_prunes_redundant_stepwise_pick(self):
        # x2 is almost exactly (x0 + x1)/sqrt(2): the stepwise pass grabs it
        # first, the subset search must settle on a subset where every
        # member still matters
        rng = np.random.default_rng(41)
        n = 120
        x0 = rng.standard_normal(n)
        x1 = rng.standard_normal(n)
        x2 = (x0 + x1) / np.sqrt(2) + 1e-3 * rng.standard_normal(n)
        X = np.column_stack([x0, x1, x2, rng.standard_normal((n, 5))])
        y = x0 + x1 + 0.05 * rng.standard_normal(n)
        r = f1st(DataMatrix(X), y)
        assert r.trace[0].index == 2
        want = ref_refine(X, y, [t.index for t in r.trace], 0.01, 8, True)
        assert r.selected == want
        ok, _, _ = ref_membership(X, y, r.selected, 0.01, 8, True)
        assert ok

    def test_perfect_fit_stops_cleanly(self):
        rng = np.random.default_rng(30)
        X = rng.standard_normal((40, 10))
        y = 2.0 * X[:, 1] - 3.0 * X[:, 6]
        r = f1st(DataMatrix(X), y)
        assert sorted(r.selected) == [1, 6]
        assert r.rss <= 1e-12 * float(y @ y)
        # the refits that test the intercept and the members leave rss at the
        # rounding level of y; a ratio of two such rss values is noise
        for seed in range(12):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((30, 3))
            m = DataMatrix(X)
            for shift in (0.0, 1e6):
                y = shift + 3.0 * X[:, 1]
                results = [f1st(m, y), *all_subset_select(m, y)]
                assert [r.selected for r in results] == [[1], [1]], (seed, shift)
                for r in results:
                    assert r.pg[0] < 1e-100, (seed, shift)
                    if shift == 0.0:
                        assert r.intercept_pg == 1.0, seed

    def test_shifting_y_changes_nothing(self):
        # with an intercept, adding a constant to y leaves every fit's rss and
        # P-values as they were; a mean of 1e6 sd must not read as an exact fit
        for seed in range(5):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((50, 4))
            m = DataMatrix(X)
            y = 0.5 * X[:, 0] + 0.1 * rng.standard_normal(50)
            for f in (f1st, all_subset_select, f2st, f3st):
                base, shifted = f(m, y), f(m, 1e6 + y)
                if f is f1st:
                    base, shifted = [base], [shifted]
                assert [r.selected for r in shifted] == [r.selected for r in base] == [[0]]
                for a, b in zip(base, shifted):
                    assert b.rss == pytest.approx(a.rss, rel=1e-8)
                    assert b.pg == pytest.approx(a.pg, rel=1e-6)

    def test_trace_pvalues_unchanged_by_large_column_means(self):
        # with the intercept fitted, shifting every column by 1e4 of its sd
        # changes no fit; the first scan must not cancel digits against the means
        for seed in range(3):
            X = node_design(seed)
            shifted = X + 1e4 * X.std(axis=0, ddof=1)
            for base, moved in zip(node_traces(X), node_traces(shifted)):
                assert [t.index for t in moved] == [t.index for t in base]
                assert [t.p_f for t in moved] == pytest.approx([t.p_f for t in base],
                                                               rel=1e-9, abs=0.0)

    def test_coefficients_as_accurate_as_lstsq_at_condition_1e10(self):
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(0)
        n = 50
        z, w, v, u = rng.standard_normal((4, n))
        # an offset column nearly parallel to the intercept, a second column
        # 1e-5 of its norm away from it, and a column on a 1e-6 scale
        x1 = 1e4 + z
        X = np.column_stack([x1, x1 + 0.1 * w, 1e-6 * v])
        y = 1.0 + z + w + v + 0.01 * u
        r = f1st(DataMatrix(X), y)
        assert sorted(r.selected) == [0, 1, 2]
        A = np.column_stack([np.ones(n), X[:, r.selected]])
        assert 1e9 < np.linalg.cond(A) < 1e11
        with mp.workdps(50):
            truth = mp.qr_solve(mp.matrix(A.tolist()), mp.matrix(y.tolist()))[0]

            def err(beta):
                diff = mp.matrix([float(b) for b in beta]) - truth
                return float(mp.norm(diff) / mp.norm(truth))

            got = err([r.intercept_coefficient, *r.coefficients])
            ref = err(np.linalg.lstsq(A, y, rcond=None)[0])
        assert got <= 2.0 * ref, (got, ref)

    def test_rss_and_pvalues_independent_of_column_order_at_condition_1e10(self):
        # f1st fits the columns in selection order, all_subset_select in index
        # order; at condition 1.5e10 both must still give the 50-digit rss
        mp = pytest.importorskip("mpmath")
        n = 50
        for seed in range(3):
            rng = np.random.default_rng(seed)
            z, w, v, u = rng.standard_normal((4, n))
            x1 = 1e4 + z
            X = np.column_stack([x1, x1 + 0.1 * w, 1e-6 * v])
            y = 1.0 + z + w + v + 0.01 * u
            stepwise = f1st(DataMatrix(X), y)
            subsets = [r for r in all_subset_select(DataMatrix(X), y)
                       if sorted(r.selected) == [0, 1, 2]]
            assert stepwise.selected == [2, 1, 0], seed
            assert len(subsets) == 1 and subsets[0].selected == [0, 1, 2], seed
            with mp.workdps(50):
                A = mp.matrix(np.column_stack([np.ones(n), X]).tolist())
                _, res = mp.qr_solve(A, mp.matrix(y.tolist()))
                truth = float(res ** 2)
            for r in (stepwise, subsets[0]):
                assert r.rss == pytest.approx(truth, rel=1e-9, abs=0.0), seed
            pg = dict(zip(subsets[0].selected, subsets[0].pg))
            assert stepwise.pg == pytest.approx([pg[j] for j in stepwise.selected],
                                                rel=1e-9, abs=0.0), seed

    def test_skip_refinement_when_disabled(self):
        rng = np.random.default_rng(61)
        X, y = make_instance(rng, 60, 10, [(0, 5.0), (4, 4.0)])
        r = f1st(DataMatrix(X), y, SelectionConfig(max_subset_refine=0))
        assert r.selected == [t.index for t in r.trace]
        assert r.pg == [t.p_g for t in r.trace]

    @pytest.mark.parametrize("intercept", [True, False])
    def test_unrefined_result_computes_only_the_intercept_drop_one_fit(self, intercept,
                                                                       monkeypatch):
        # the member P-values come from the trace, so of the drop-one fits only
        # the intercept's is read; computing every one must change nothing
        import gausscov.select as select_mod

        rng = np.random.default_rng(62)
        X, y = make_instance(rng, 60, 10, [(0, 5.0), (4, 4.0), (7, 3.0)])
        cfg = SelectionConfig(max_subset_refine=0, intercept=intercept)
        qr, calls = np.linalg.qr, []

        def counting(*args, **kwargs):
            calls.append(1)
            return qr(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counting)
        lean = f1st(DataMatrix(X), y, cfg)
        lean_calls = len(calls)
        terms = select_mod._Fit.terms
        monkeypatch.setattr(select_mod._Fit, "terms",
                            lambda fit, pos, drop=None: terms(fit, pos))
        calls.clear()
        full = f1st(DataMatrix(X), y, cfg)
        assert sorted(lean.selected) == [0, 4, 7]
        # the n-row QR, the fit's small QR, and the intercept's drop-one QR
        assert lean_calls == 2 + intercept
        assert len(calls) == lean_calls + len(lean.selected)
        assert lean == full
        assert (lean.intercept_pg is None) == (not intercept)

    def test_trace_rss_strictly_decreasing(self):
        rng = np.random.default_rng(73)
        X, y = make_instance(rng, 70, 30, [(5, 3.0), (6, 2.0), (7, 1.5)])
        r = f1st(DataMatrix(X), y, SelectionConfig(kmn=5))
        rs = [t.rss for t in r.trace]
        assert all(b < a for a, b in zip(rs, rs[1:]))
        assert len({t.index for t in r.trace}) == len(r.trace)

    def test_coefficients_undo_standardization(self):
        rng = np.random.default_rng(99)
        X = rng.standard_normal((80, 12)) * np.array([1e3, 1e-3] * 6) + 50.0
        # column 3 lives on a 1e-3 scale, column 8 on 1e3: the raw-scale
        # coefficients differ by six orders of magnitude
        y = 4.0 + 300.0 * X[:, 3] - 5.0 * X[:, 8] + 0.1 * rng.standard_normal(80)
        s, _ = standardize(DataMatrix(X))
        r = f1st(s, y)
        assert sorted(r.selected) == [3, 8]
        # reference fit on the raw scale
        A = np.column_stack([np.ones(80), X[:, sorted(r.selected)]])
        beta, *_ = np.linalg.lstsq(A, y, rcond=None)
        by_col = dict(zip(r.selected, r.coefficients))
        assert by_col[3] == pytest.approx(beta[1], rel=1e-8)
        assert by_col[8] == pytest.approx(beta[2], rel=1e-8)
        assert r.intercept_coefficient == pytest.approx(beta[0], rel=1e-6)

    def test_selection_identical_on_raw_and_standardized(self):
        rng = np.random.default_rng(101)
        X = rng.standard_normal((60, 15)) * 40.0 + 7.0
        y = 3.0 * X[:, 2] + rng.standard_normal(60)
        m_raw = DataMatrix(X)
        m_std, _ = standardize(m_raw)
        r1, r2 = f1st(m_raw, y), f1st(m_std, y)
        assert r1.selected == r2.selected
        for a, b in zip(r1.coefficients, r2.coefficients):
            assert a == pytest.approx(b, rel=1e-7)

    def test_small_pool_exhausts_without_error(self):
        rng = np.random.default_rng(110)
        X = rng.standard_normal((30, 2))
        y = 5.0 * X[:, 0] + 5.0 * X[:, 1] + 0.1 * rng.standard_normal(30)
        r = f1st(DataMatrix(X), y)
        assert sorted(r.selected) == [0, 1]

    def test_response_validation(self):
        m = DataMatrix(np.random.default_rng(0).standard_normal((20, 3)))
        with pytest.raises(DomainError):
            f1st(m, np.ones(7))
        with pytest.raises(DomainError):
            f1st(m, np.full(20, np.nan))
        with pytest.raises(DomainError):
            f1st(m, np.ones(20), exclude=(5,))

    def test_serialization_uses_one_based_indices(self):
        rng = np.random.default_rng(130)
        X, y = make_instance(rng, 50, 8, [(0, 6.0)])
        r = f1st(DataMatrix(X), y)
        d = r.to_dict()
        assert d["selected"] == [1]
        assert d["trace"][0]["index"] == 1
        assert d["names"] == ["x1"]
        d2 = r.to_dict(include_trace=False)
        assert "trace" not in d2


class TestGramSeed:
    """f1st of one column of X on the others, scanning from the Gram matrix of X."""

    @pytest.mark.parametrize("intercept", [True, False])
    def test_same_trace_as_scanning_the_data(self, intercept):
        cfg = SelectionConfig(intercept=intercept)
        for seed in range(3):
            m, _ = standardize(DataMatrix(node_design(seed)))
            X = np.array(m.values)
            for plain, seeded in zip(node_traces(X, cfg), node_traces(X, cfg, seeded=True)):
                assert [t.index for t in seeded] == [t.index for t in plain]
                assert [t.p_f for t in seeded] == pytest.approx([t.p_f for t in plain],
                                                                rel=1e-12, abs=0.0)

    def test_trace_pvalues_match_centred_qr_with_large_column_means(self):
        for seed in range(3):
            X = node_design(seed)
            shifted = X + 1e4 * X.std(axis=0, ddof=1)
            traces = node_traces(shifted, seeded=True)
            assert sum(map(len, traces)) > X.shape[1]
            for j, trace in enumerate(traces):
                sel = [t.index for t in trace]
                want = centred_qr_trace_pf(X, X[:, j], sel, X.shape[1] - 1)
                assert [t.p_f for t in trace] == pytest.approx(want, rel=1e-8, abs=0.0)

    @pytest.mark.parametrize("gap", [1e-2, 1e-3, 1e-4, 1e-5])
    def test_trace_pvalues_match_centred_qr_with_near_duplicate_columns(self, gap):
        # every candidate has a twin at relative distance ``gap``; y, the last
        # column, is regressed on the others
        for seed in range(3):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((100, 24))
            X[:, 1::2] = X[:, ::2] + gap * rng.standard_normal((100, 12))
            y = X[:, [0, 6, 11, 17]] @ [1.0, -0.8, 0.6, 0.5] + rng.standard_normal(100)
            m = DataMatrix(np.column_stack([X, y]))
            q = X.shape[1]
            plain = f1st(m, y, exclude=(q,))
            seeded = f1st(m, y, exclude=(q,), _gram=(gram(m, centred=True), q))
            sel = [t.index for t in seeded.trace]
            assert sel == [t.index for t in plain.trace] and len(sel) >= 3
            want = centred_qr_trace_pf(X, y, sel, q)
            assert [t.p_f for t in seeded.trace] == pytest.approx(want, rel=1e-8, abs=0.0)


# ---------------------------------------------------------------------------
# all-subset search
# ---------------------------------------------------------------------------

class TestAllSubset:
    @pytest.mark.parametrize("seed,n,q,signal,intercept", [
        (11, 25, 5, [(1, 3.0)], True),
        (12, 30, 7, [(0, 4.0), (3, 3.0)], True),
        (13, 20, 6, [], True),
        (14, 40, 8, [(2, 1.5), (5, 1.2)], True),
        (15, 25, 6, [(0, 5.0)], False),
        (16, 35, 9, [(1, 2.0), (4, 2.0), (7, 2.0)], True),
    ])
    def test_matches_brute_force(self, seed, n, q, signal, intercept):
        rng = np.random.default_rng(seed)
        X, y = make_instance(rng, n, q, signal)
        cfg = SelectionConfig(intercept=intercept)
        got = all_subset_select(DataMatrix(X), y, cfg)
        want = ref_all_subsets(X, y, cfg.p0, intercept)
        assert len(got.results) == len(want)
        for res, (rss, s, _, members, pgs) in zip(got.results, want):
            assert res.selected == members
            assert res.rss == pytest.approx(rss, rel=1e-9)
            for a, b in zip(res.pg, pgs):
                assert a == pytest.approx(b, rel=1e-8, abs=1e-300)
            check_coefficients_and_intercept(res, X, y, intercept)

    def test_results_ordered_by_rss(self):
        rng = np.random.default_rng(77)
        X, y = make_instance(rng, 40, 8, [(0, 3.0), (1, 0.9)])
        got = all_subset_select(DataMatrix(X), y)
        rs = [r.rss for r in got.results]
        assert rs == sorted(rs)

    def test_no_retained_subset_contains_another(self):
        rng = np.random.default_rng(78)
        X, y = make_instance(rng, 40, 7, [(0, 4.0), (2, 3.0)])
        got = all_subset_select(DataMatrix(X), y)
        sets = [frozenset(r.selected) for r in got.results]
        for a in sets:
            for b in sets:
                assert a == b or not a < b

    def test_best_not_worse_than_refined_stepwise(self):
        rng = np.random.default_rng(79)
        X, y = make_instance(rng, 45, 9, [(1, 3.0), (6, 2.0)])
        m = DataMatrix(X)
        r1 = f1st(m, y)
        aset = all_subset_select(m, y)
        assert r1.selected and aset.results
        assert aset.best.rss <= r1.rss * (1 + 1e-12)

    def test_cap_enforced(self):
        m = DataMatrix(np.random.default_rng(0).standard_normal((40, 30)))
        with pytest.raises(TooManyColumns):
            all_subset_select(m, np.arange(40.0))
        # explicit cap override allows it
        got = all_subset_select(m, np.random.default_rng(1).standard_normal(40),
                                exclude=range(25), cap=25)
        assert isinstance(got.results, list)

    def test_everything_excluded_gives_empty_set(self):
        m = DataMatrix(np.random.default_rng(0).standard_normal((20, 4)))
        got = all_subset_select(m, np.arange(20.0), exclude=(0, 1, 2, 3))
        assert len(got) == 0 and got.best is None

    def test_subset_size_limited_by_sample_size(self):
        # n = 8 with intercept: subsets can have at most 8 - 1 - 2 = 5 members
        rng = np.random.default_rng(83)
        X = rng.standard_normal((8, 10))
        y = rng.standard_normal(8)
        got = all_subset_select(DataMatrix(X), y)
        assert all(len(r.selected) <= 5 for r in got.results)


# ---------------------------------------------------------------------------
# f2st / f3st
# ---------------------------------------------------------------------------

class TestF2st:
    def test_equals_manual_exclusion_loop(self):
        rng = np.random.default_rng(303)
        X, y = make_instance(rng, 80, 20, [(0, 6.0), (1, 5.0)])
        # make column 5 a close stand-in for column 0 so later rounds find it
        X[:, 5] = X[:, 0] + 0.1 * rng.standard_normal(80)
        m = DataMatrix(X)
        got = f2st(m, y)
        manual = []
        excl = set()
        while True:
            r = f1st(m, y, exclude=excl)
            if not r.selected:
                break
            manual.append(r.selected)
            excl |= set(r.selected)
        assert sorted(tuple(s) for s in manual) == sorted(
            tuple(r.selected) for r in got.results)
        assert len(got) == len(manual) >= 2

    def test_rounds_are_disjoint(self):
        rng = np.random.default_rng(304)
        X, y = make_instance(rng, 60, 15, [(2, 7.0)])
        X[:, 9] = X[:, 2] + 0.2 * rng.standard_normal(60)
        got = f2st(DataMatrix(X), y)
        seen = set()
        for r in got.results:
            assert not seen & set(r.selected)
            seen |= set(r.selected)

    def test_ordered_by_rss(self):
        rng = np.random.default_rng(305)
        X, y = make_instance(rng, 70, 12, [(0, 8.0)])
        X[:, 4] = X[:, 0] + 0.3 * rng.standard_normal(70)
        got = f2st(DataMatrix(X), y)
        rs = [r.rss for r in got.results]
        assert rs == sorted(rs)

    def test_noise_gives_empty_set(self):
        rng = np.random.default_rng(306)
        got = f2st(DataMatrix(rng.standard_normal((50, 20))),
                   rng.standard_normal(50))
        assert len(got) == 0


class TestF3st:
    def make_correlated(self, seed=400):
        rng = np.random.default_rng(seed)
        n = 100
        base = rng.standard_normal(n)
        X = rng.standard_normal((n, 12))
        X[:, 0] = base + 0.05 * rng.standard_normal(n)
        X[:, 1] = base + 0.05 * rng.standard_normal(n)
        X[:, 2] = base + 0.05 * rng.standard_normal(n)
        y = base + 0.1 * rng.standard_normal(n)
        return DataMatrix(X), y

    def test_depth_one_explores_each_selected_exclusion(self):
        m, y = self.make_correlated()
        root = f1st(m, y)
        assert root.selected
        got = f3st(m, y, SelectionConfig(m=1))
        want_sets = {frozenset(root.selected)}
        for i in root.selected:
            r = f1st(m, y, exclude=(i,))
            if r.selected:
                want_sets.add(frozenset(r.selected))
        assert {frozenset(r.selected) for r in got.results} == want_sets

    def test_alternatives_found_for_interchangeable_covariates(self):
        m, y = self.make_correlated()
        got = f3st(m, y, SelectionConfig(m=2))
        assert len(got) >= 3
        heads = {r.selected[0] for r in got.results if r.selected}
        assert len(heads) >= 2  # genuinely different approximations

    def test_no_duplicate_selected_sets(self):
        m, y = self.make_correlated(401)
        got = f3st(m, y, SelectionConfig(m=3))
        sets = [frozenset(r.selected) for r in got.results]
        assert len(sets) == len(set(sets))

    def test_sorted_by_rss_and_best_first(self):
        m, y = self.make_correlated(402)
        got = f3st(m, y, SelectionConfig(m=2))
        rs = [r.rss for r in got.results]
        assert rs == sorted(rs)
        assert got.best.rss == rs[0]

    def test_empty_root_gives_empty_set(self):
        rng = np.random.default_rng(403)
        got = f3st(DataMatrix(rng.standard_normal((40, 15))),
                   rng.standard_normal(40))
        assert len(got) == 0

    def test_provenance_strings(self):
        m, y = self.make_correlated(404)
        got = f3st(m, y, SelectionConfig(m=1))
        assert "root" in got.provenance
        assert all(p == "root" or p.startswith("depth 1, excluding ")
                   for p in got.provenance)

    def test_accumulate_flag_changes_branch_pools(self):
        m, y = self.make_correlated(405)
        acc = f3st(m, y, SelectionConfig(m=3), accumulate_exclusions=True)
        flat = f3st(m, y, SelectionConfig(m=3), accumulate_exclusions=False)
        # both contain the root solution
        root = frozenset(f1st(m, y).selected)
        assert root in {frozenset(r.selected) for r in acc.results}
        assert root in {frozenset(r.selected) for r in flat.results}


def f3st_from_scratch(m, y, cfg, accumulate):
    """f3st's branch tree rebuilt with plain f1st calls, each from scratch."""
    root = f1st(m, y, cfg)
    if not root.selected:
        return [], []
    seen, found = {frozenset()}, {frozenset(root.selected): (root, "root")}
    frontier = [(root, frozenset())]
    for depth in range(1, cfg.m + 1):
        nxt = []
        for res, excl in frontier:
            for i in res.selected:
                bex = (excl | {i}) if accumulate else frozenset({i})
                if bex in seen or len(bex) >= m.q:
                    continue
                seen.add(bex)
                r = f1st(m, y, cfg, exclude=bex)
                if not r.selected:
                    continue
                dropped = ", ".join(m.names[j] for j in sorted(bex))
                found.setdefault(frozenset(r.selected), (r, f"depth {depth}, excluding {dropped}"))
                nxt.append((r, bex))
        frontier = nxt
    order = sorted(found.values(), key=lambda v: (v[0].rss, len(v[0].selected), v[0].selected))
    return [r for r, _ in order], [p for _, p in order]


class TestF3stPrefixReuse:
    """Branches resumed from their parent's steps equal branches run from scratch."""

    def four_signals(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((90, 30))
        y = X[:, :4] @ [3.0, 2.5, 2.0, 1.5] + rng.standard_normal(90)
        for a in range(4):
            X[:, 10 + a] = X[:, a] + 0.3 * rng.standard_normal(90)
        return DataMatrix(X), y

    def forced_flips(self):
        # kmn=3 forces steps whose p_g sits just above p0; with one competitor
        # fewer, a replayed step's p_g drops below p0 and it is no longer forced
        rng = np.random.default_rng(201)
        X = rng.standard_normal((40, 8))
        y = X[:, :3] @ [0.5, 0.45, 0.4] + rng.standard_normal(40)
        return DataMatrix(X), y

    def assert_same_as_from_scratch(self, m, y, cfg, accumulate, monkeypatch):
        import gausscov.select as select_mod

        scans = []
        counted = select_mod.scan_best

        def counting(*args, **kwargs):
            scans.append(1)
            return counted(*args, **kwargs)

        monkeypatch.setattr(select_mod, "scan_best", counting)
        got = f3st(m, y, cfg, accumulate_exclusions=accumulate)
        reused = len(scans)
        scans.clear()
        want, provenance = f3st_from_scratch(m, y, cfg, accumulate)
        assert len(got) == len(want) >= 2
        assert got.provenance == provenance
        for a, b in zip(got.results, want):
            assert (json.dumps(a.to_dict(include_trace=True))
                    == json.dumps(b.to_dict(include_trace=True)))
        assert reused < len(scans)
        return got

    @pytest.mark.parametrize("accumulate", [True, False])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_byte_identical_to_from_scratch_branches(self, seed, accumulate, monkeypatch):
        m, y = self.four_signals(seed)
        self.assert_same_as_from_scratch(m, y, SelectionConfig(m=2), accumulate, monkeypatch)

    @pytest.mark.parametrize("accumulate", [True, False])
    def test_forced_steps_in_replayed_prefixes(self, accumulate, monkeypatch):
        # kmn=6 forces steps past the four signals; branches that exclude a
        # late step replay forced ones
        m, y = self.four_signals(2)
        self.assert_same_as_from_scratch(m, y, SelectionConfig(m=3, kmn=6), accumulate,
                                         monkeypatch)

    @pytest.mark.parametrize("accumulate", [True, False])
    def test_forced_flags_rederived_on_replayed_steps(self, accumulate, monkeypatch):
        m, y = self.forced_flips()
        cfg = SelectionConfig(m=2, kmn=3)
        got = self.assert_same_as_from_scratch(m, y, cfg, accumulate, monkeypatch)
        root = f1st(m, y, cfg)
        flipped = [
            (a.index, a.forced)
            for r in got.results
            for a, b in itertools.takewhile(lambda ab: ab[0].index == ab[1].index,
                                            zip(root.trace, r.trace))
            if a.forced != b.forced
        ]
        assert flipped


class TestDeterminism:
    def test_f1st_byte_identical_across_runs(self):
        rng = np.random.default_rng(515)
        X, y = make_instance(rng, 90, 40, [(3, 4.0), (17, 3.0)])
        m = DataMatrix(X)
        a = json.dumps(f1st(m, y).to_dict(), sort_keys=True)
        b = json.dumps(f1st(m, y).to_dict(), sort_keys=True)
        assert a == b

    def test_f3st_byte_identical_across_runs(self):
        rng = np.random.default_rng(516)
        X, y = make_instance(rng, 80, 25, [(0, 5.0)])
        X[:, 10] = X[:, 0] + 0.1 * rng.standard_normal(80)
        m = DataMatrix(X)
        cfg = SelectionConfig(m=2)
        a = json.dumps(f3st(m, y, cfg).to_dict(), sort_keys=True)
        b = json.dumps(f3st(m, y, cfg).to_dict(), sort_keys=True)
        assert a == b


class TestConfigValidation:
    def test_bounds(self):
        with pytest.raises(DomainError):
            SelectionConfig(p0=0.0)
        with pytest.raises(DomainError):
            SelectionConfig(p0=1.0)
        with pytest.raises(DomainError):
            SelectionConfig(kmn=-1)
        with pytest.raises(DomainError):
            SelectionConfig(max_subset_refine=-1)
        with pytest.raises(DomainError):
            SelectionConfig(m=0)
