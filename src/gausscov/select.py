"""Covariate selection driven by exact Gaussian-covariate P-values.

Four procedures share one engine:

* ``f1st``       -- greedy stepwise inclusion with the Gaussian stopping rule,
                    followed by an all-subset refinement of the chosen set;
* ``all_subset_select`` -- exhaustive search over every subset of a small pool;
* ``f2st``       -- repeated ``f1st`` with cumulative exclusion of everything
                    found so far, producing alternative approximations;
* ``f3st``       -- branched exclusion of each selected covariate in turn,
                    recursively to a chosen depth.

A covariate is accepted only while it beats the best of N independent standard
Gaussian covariates at level ``p0``, where N counts the candidates it actually
competed against; no noise level, sparsity bound or regularization weight is
ever estimated.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from . import pvalues
from .errors import DomainError, NoCandidates, TooManyColumns
from .matrix import ResidualState, extend, extend_intercept, scan_best, seed_from_gram

__all__ = [
    "ApproximationSet",
    "SelectionConfig",
    "SelectionResult",
    "TraceStep",
    "all_subset_select",
    "f1st",
    "f2st",
    "f3st",
]

# Fits whose rss has collapsed below this fraction of the post-intercept rss
# (of y @ y without an intercept) are treated as exact: further ratios would
# be 0/0.
_PERFECT_FIT_REL = 1e-12

_BATCH = 65536


@dataclass(frozen=True)
class SelectionConfig:
    """Tuning knobs shared by every selection procedure.

    p0
        Significance level each covariate's Gaussian P-value must beat.
    kmn
        Minimum number of covariates the stepwise pass must take before the
        stopping rule applies; steps admitted only because of this floor are
        flagged as forced.
    max_subset_refine
        Largest stepwise selection that still gets the exhaustive all-subset
        refinement (2^k - 1 subsets); beyond it the stepwise set is returned
        as-is.
    intercept
        Fit a constant term first; it is never a candidate and is reported
        separately with a plain F-test P-value.
    m
        Branch depth for ``f3st``.
    """

    p0: float = 0.01
    kmn: int = 0
    max_subset_refine: int = 20
    intercept: bool = True
    m: int = 1

    def __post_init__(self):
        if not 0.0 < self.p0 < 1.0:
            raise DomainError(f"p0 must lie in (0, 1), got {self.p0}")
        if self.kmn < 0:
            raise DomainError(f"kmn must be >= 0, got {self.kmn}")
        if self.max_subset_refine < 0:
            raise DomainError(f"max_subset_refine must be >= 0, got {self.max_subset_refine}")
        if self.m < 1:
            raise DomainError(f"m must be >= 1, got {self.m}")


@dataclass(frozen=True)
class TraceStep:
    """One stepwise inclusion: column index, its P-values, rss afterwards."""

    index: int
    p_f: float
    p_g: float
    rss: float
    forced: bool


@dataclass
class SelectionResult:
    """One selected approximation to the regression.

    ``selected`` lists 0-based column indices in stepwise selection order;
    ``pg`` and ``coefficients`` align with it.  Coefficients (and the intercept)
    are reported on the original scale of the data, undoing any recorded
    standardization.  ``trace`` records the stepwise path that produced the
    candidate set, including covariates the refinement later dropped.
    """

    selected: list
    pg: list
    coefficients: list
    rss: float
    intercept_coefficient: float | None
    intercept_pg: float | None
    trace: list
    n: int
    q_pool: int
    names: list

    def to_dict(self, include_trace=True):
        d = {
            "selected": [j + 1 for j in self.selected],
            "names": list(self.names),
            "pg": list(self.pg),
            "coefficients": list(self.coefficients),
            "rss": self.rss,
            "n": self.n,
            "q_pool": self.q_pool,
        }
        if self.intercept_pg is not None or self.intercept_coefficient is not None:
            d["intercept"] = {
                "coefficient": self.intercept_coefficient,
                "pg": self.intercept_pg,
            }
        if include_trace:
            d["trace"] = [
                {
                    "index": t.index + 1,
                    "pf": t.p_f,
                    "pg": t.p_g,
                    "rss": t.rss,
                    "forced": t.forced,
                }
                for t in self.trace
            ]
        return d


@dataclass
class ApproximationSet:
    """Alternative approximations ordered by rss, with their provenance."""

    results: list = field(default_factory=list)
    provenance: list = field(default_factory=list)

    def __len__(self):
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    @property
    def best(self):
        return self.results[0] if self.results else None

    def to_dict(self, include_trace=False):
        return {
            "approximations": [
                dict(r.to_dict(include_trace=include_trace), provenance=p)
                for r, p in zip(self.results, self.provenance)
            ]
        }


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _check_inputs(m, y):
    y = np.asarray(y, dtype=np.float64).ravel()
    if y.size != m.n:
        raise DomainError(f"response length {y.size} does not match n={m.n}")
    if not np.isfinite(y).all():
        raise DomainError("response contains non-finite entries")
    if m.n < 3:
        raise DomainError(f"need at least 3 observations, got {m.n}")
    return y


def _valid_exclusions(m, exclude):
    excl = set()
    for j in exclude:
        j = int(j)
        if not 0 <= j < m.q:
            raise DomainError(f"excluded index {j} out of range for q={m.q}")
        excl.add(j)
    return excl


class _Fit:
    """Thin QR of the design A = [1 | X[:, cols]], from which every reported fit is read.

    With A = QR, c = Q^T y and rss0 = |y - Qc|^2, the least-squares fit on any
    set S of A's columns has the coefficients of min_b |c - R[:, S] b| and rss
    rss0 plus that minimum, so subset fits are (k+1)-row problems that never
    touch the n rows again.  A reported result is read by ``terms`` from one
    small QR per term: the QR of [R[:, S] | c] gives the rss and, by
    back-substitution, the coefficients, and the same QR with one term left
    out gives that term's drop-one rss.  The subset search scores many
    subsets at once from the covariate Gram system instead (``_combo_stats``).
    Covariates are addressed by their positions in ``cols``; the intercept,
    when fitted, is A's first column and term 0.
    """

    def __init__(self, m, y, cols, intercept):
        self.n = m.n
        self.cols = list(cols)
        self.off = int(intercept)
        a = m.values[:, self.cols]
        if intercept:
            a = np.column_stack([np.ones(m.n), a])
        q, self.r = np.linalg.qr(a)
        self.c = q.T @ y
        resid = y - q @ self.c
        self.rss0 = float(resid @ resid)
        # the covariate block of R and c, with the intercept projected out:
        # subsets that keep the intercept are fitted from it without the
        # cancellation of n * mean(y)^2
        r, c = self.r[self.off:, self.off:], self.c[self.off:]
        self.gram = r.T @ r
        self.rc = r.T @ c
        # rss after the intercept alone (y.y without it), and the level at or
        # below which an rss is rounding noise, as in stepwise: the fit is exact
        self.tss = self.rss0 + float(c @ c)
        self.floor = _PERFECT_FIT_REL * self.tss

    def terms(self, pos, drop=None):
        """(rss, coefficients, drop-one rss) of the fit on covariate positions ``pos``.

        The terms are the intercept, when fitted, followed by ``pos``; entry t
        of the coefficients belongs to term t.  The drop-one rss list has one
        entry per term in ``drop`` (default: every term), in that order.
        """
        idx = list(range(self.off)) + [i + self.off for i in pos]
        rss, f = self._rss(idx)
        s = len(idx)
        beta = solve_triangular(f[:s, :s], f[:s, -1])
        if drop is None:
            drop = range(s)
        return rss, beta, [self._rss(idx[:t] + idx[t + 1:])[0] for t in drop]

    def _rss(self, idx):
        """(rss, R factor of [R[:, idx] | c]) of the fit on A's columns ``idx``."""
        # the rss comes from c's component outside span(R[:, idx]), the last
        # diagonal entry of the R factor of [R[:, idx] | c] (none when R[:, idx]
        # is square), not from |c - R beta|, whose error grows with the
        # condition number; the leading block of the same factor gives beta by
        # back-substitution.  Every subset fitted here has full column rank:
        # stepwise rejects collinear columns and _combo_stats marks singular
        # subsets invalid.
        f = np.linalg.qr(np.column_stack([self.r[:, idx], self.c]), mode="r")
        d = f[len(idx):, -1]
        return self.rss0 + float(d @ d), f

    def pf(self, ctx, rss, rss_wo):
        """P_F of a term whose removal leaves ``rss_wo``; 1.0 when that fit is already exact."""
        if rss_wo <= self.floor:
            return 1.0
        return pvalues.pf_from_rss_ratio(ctx, rss, rss_wo)


def _build_result(m, fit, pos, q_pool, trace=(), pg=None):
    """Assemble a SelectionResult for covariate positions ``pos`` of ``fit``.

    The member P-values are the all-subset ones unless ``pg`` gives them.
    Coefficients are reported on the original scale of the data.
    """
    sel = [fit.cols[i] for i in pos]
    # given member P-values leave only the intercept's drop-one rss to compute
    rss, beta, rss_drop = fit.terms(pos, None if pg is None else range(fit.off))
    # a fit with no term at all tests nothing
    ctx = pvalues.PvalueContext(fit.n, len(beta), q_pool - len(sel)) if len(beta) else None
    if pg is None:
        pg = [pvalues.pg_all_subset(ctx, fit.pf(ctx, rss, r)) for r in rss_drop[fit.off:]]
    # undo recorded rescaling: stored = (raw - offset)/scale
    coefs = []
    shift_total = 0.0
    for b, j in zip(beta[fit.off:], sel):
        c = float(b) / float(m.scales[j])
        coefs.append(c)
        shift_total += c * float(m.offsets[j])
    intercept_coef = None
    intercept_pg = None
    if fit.off:
        intercept_coef = float(beta[0]) - shift_total
        intercept_pg = fit.pf(ctx, rss, rss_drop[0])
    return SelectionResult(
        selected=sel,
        pg=list(pg),
        coefficients=coefs,
        rss=rss,
        intercept_coefficient=intercept_coef,
        intercept_pg=intercept_pg,
        trace=list(trace),
        n=fit.n,
        q_pool=q_pool,
        names=[m.names[j] for j in sel],
    )


def _combo_stats(fit, combos):
    """Batched subset fits, each with the intercept when fitted, from the fit's
    covariate Gram system.

    ``combos`` is a (B, s) int array of covariate positions.  Returns (rss,
    rss_minus, ok): the subset rss, the per-member rss after dropping that
    member alone, and a validity mask (well-conditioned, and no member whose
    removal leaves an exact fit).  Uses the identity that dropping regressor i
    raises rss by beta_i^2 / [G^{-1}]_{ii}.
    """
    B, s = combos.shape
    Gs = fit.gram[combos[:, :, None], combos[:, None, :]]
    gs = fit.rc[combos]
    with np.errstate(all="ignore"):
        try:
            beta = np.linalg.solve(Gs, gs[..., None])[..., 0]
            inv = np.linalg.inv(Gs)
        except np.linalg.LinAlgError:
            # fall back to per-subset solves, flagging singular ones
            beta = np.full((B, s), np.nan)
            inv = np.full((B, s, s), np.nan)
            for b in range(B):
                try:
                    beta[b] = np.linalg.solve(Gs[b], gs[b])
                    inv[b] = np.linalg.inv(Gs[b])
                except np.linalg.LinAlgError:
                    pass
        rss = fit.tss - np.einsum("bs,bs->b", gs, beta)
        diag = np.einsum("bss->bs", inv)
        rss_minus = rss[:, None] + beta * beta / diag
    np.maximum(rss, 0.0, out=rss)
    ok = (
        np.isfinite(rss)
        & np.isfinite(rss_minus).all(axis=1)
        & (rss_minus > fit.floor).all(axis=1)
    )
    return rss, rss_minus, ok


def _passing_subsets(fit, p0, q_pool):
    """Subsets of the fit's covariates whose every member passes the membership test.

    Yields (rss, size, positions) for each subset small enough to leave two
    residual degrees of freedom.
    """
    k = len(fit.cols)
    for s in range(1, min(k, fit.n - fit.off - 2) + 1):
        pf_thr = pvalues.pf_threshold(p0, q_pool - s + 1)
        x_thr = pvalues.beta_cdf_inv((fit.n - s - fit.off) / 2.0, 0.5, pf_thr)
        combos = np.array(list(itertools.combinations(range(k), s)), dtype=np.intp)
        for lo in range(0, len(combos), _BATCH):
            chunk = combos[lo:lo + _BATCH]
            rss, rss_minus, ok = _combo_stats(fit, chunk)
            keep = ok & (rss < x_thr * rss_minus.min(axis=1))
            for b in np.flatnonzero(keep):
                yield float(rss[b]), s, tuple(chunk[b])


# ---------------------------------------------------------------------------
# f1st: stepwise selection + all-subset refinement
# ---------------------------------------------------------------------------

class _RunLog:
    """The states of one ``f1st`` run, kept so that another run can resume from them.

    ``states[0]`` is the state after the intercept with the scan cache built;
    each later entry pairs an accepted step's scanned rss with a fork of the
    state after that step.  A run given ``parent`` starts from the parent's
    ``states[0]`` and takes the parent's states up to the first step onto a
    column it excludes.  That is exact when the parent excluded a subset of
    what this run excludes: the parent's choices up to there never fell on a
    column this run excludes, so its scans would have returned the same
    choices from the same states, and ``extend`` would have built the very
    states the parent kept.
    """

    __slots__ = ("parent", "excluded", "states")

    def __init__(self, parent=None):
        self.parent = parent
        self.excluded = None
        self.states = []


def f1st(m, y, cfg=None, exclude=(), *, _log=None, _gram=None):
    """Stepwise Gaussian-covariate selection.

    Fits the intercept (when configured), then repeatedly adds the candidate
    column giving the largest rss reduction while the best candidate's
    Gaussian P-value stays below ``cfg.p0`` -- unconditionally while fewer than
    ``cfg.kmn`` covariates are in, with such steps flagged as forced.  If the
    stepwise set has at most ``cfg.max_subset_refine`` members, an exhaustive
    search over its subsets then returns the least-rss subset whose every
    member passes the all-subset membership test at ``p0``.

    Parameters
    ----------
    m : DataMatrix
        Candidate columns.
    y : array_like
        Response, length ``m.n``.
    cfg : SelectionConfig, optional
    exclude : iterable of int, optional
        Column indices withheld from candidacy; they also shrink the
        Gaussian competitor pool.

    Returns
    -------
    SelectionResult
        Empty ``selected`` means nothing beat the Gaussian competitors -- a
        normal outcome, not an error.
    """
    if cfg is None:
        cfg = SelectionConfig()
    y = _check_inputs(m, y)
    excl = _valid_exclusions(m, exclude)
    q_pool = m.q - len(excl)
    excl_mask = np.zeros(m.q, dtype=bool)
    if excl:
        excl_mask[list(excl)] = True
    parent = None if _log is None else _log.parent
    if parent is not None and parent.excluded <= excl:
        state = parent.states[0].fork()
        resumed = itertools.takewhile(lambda rec: not excl_mask[rec[1].selected[-1]],
                                      parent.states[1:])
        _log.states = [parent.states[0]]
    else:
        state = ResidualState(y)
        if cfg.intercept:
            extend_intercept(state)
        if _gram is not None:
            # (G, j): y is column j of m, G = gram(m, centred=cfg.intercept)
            seed_from_gram(state, m, *_gram)
        resumed = iter(())
    rss_floor = state.rss * _PERFECT_FIT_REL
    trace = []
    while True:
        k_sel = len(state.selected)
        if k_sel >= q_pool:
            break
        fit_new = state.fit_size + 1
        if m.n - fit_new < 2:
            break
        if state.rss <= rss_floor:
            break
        # a state the parent kept stands in for the scan and the extension
        rec = next(resumed, None)
        if rec is not None:
            rss_cand, after = rec
            j = after.selected[-1]
        else:
            try:
                j, rss_cand = scan_best(state, m, excl_mask)
            except NoCandidates:
                break
        ctx = pvalues.PvalueContext(m.n, fit_new, q_pool - k_sel)
        p_f = pvalues.pf_from_rss_ratio(ctx, rss_cand, state.rss)
        p_g = pvalues.pg_stepwise(ctx, p_f)
        if k_sel < cfg.kmn or p_g < cfg.p0:
            if _log is not None and not _log.states:
                _log.states.append(state.fork())
            if rec is not None:
                state = after.fork()
            else:
                extend(state, m, j)
            if _log is not None:
                _log.states.append((rss_cand, state.fork()))
            trace.append(TraceStep(j, p_f, p_g, state.rss, forced=p_g >= cfg.p0))
        else:
            break
    if _log is not None:
        _log.parent = None
        _log.excluded = frozenset(excl)
    sel = list(state.selected)
    fit = _Fit(m, y, sel, cfg.intercept)
    if sel and len(sel) <= cfg.max_subset_refine:
        # the least-rss passing subset, or none
        best = min(_passing_subsets(fit, cfg.p0, q_pool), default=(0.0, 0, ()))
        return _build_result(m, fit, list(best[2]), q_pool, trace)
    return _build_result(m, fit, list(range(len(sel))), q_pool, trace,
                         pg=[t.p_g for t in trace])


# ---------------------------------------------------------------------------
# all-subset selection
# ---------------------------------------------------------------------------

def all_subset_select(m, y, cfg=None, exclude=(), cap=25):
    """Exhaustive subset search over a small candidate pool.

    Every nonempty subset (of size compatible with the sample size) is fitted;
    a subset is retained when each member's all-subset Gaussian P-value is
    below ``cfg.p0``; retained subsets contained in another retained subset are
    discarded; survivors are ordered by rss.

    The pool is hard-capped at ``cap`` columns (default 25).
    """
    if cfg is None:
        cfg = SelectionConfig()
    y = _check_inputs(m, y)
    excl = _valid_exclusions(m, exclude)
    cand = [j for j in range(m.q) if j not in excl]
    q_pool = len(cand)
    if q_pool > cap:
        raise TooManyColumns(
            f"all-subset search over {q_pool} columns exceeds the cap of {cap}"
        )
    fit = _Fit(m, y, cand, cfg.intercept)
    retained = sorted(_passing_subsets(fit, cfg.p0, q_pool), key=lambda r: (-r[1], r[0], r[2]))
    # drop retained subsets contained in a larger retained subset
    maximal = []
    masks = []
    for rss, s, combo in retained:
        mask = 0
        for i in combo:
            mask |= 1 << i
        if any(mask & kept == mask for kept in masks):
            continue
        masks.append(mask)
        maximal.append((rss, s, combo))
    maximal.sort(key=lambda r: (r[0], r[1], r[2]))
    results = [_build_result(m, fit, list(combo), q_pool) for _, _, combo in maximal]
    return ApproximationSet(results, ["all-subset"] * len(results))


# ---------------------------------------------------------------------------
# multi-approximation procedures
# ---------------------------------------------------------------------------

def _order_set(results, provenance):
    order = sorted(
        range(len(results)),
        key=lambda i: (results[i].rss, len(results[i].selected), results[i].selected),
    )
    return ApproximationSet([results[i] for i in order], [provenance[i] for i in order])


def f2st(m, y, cfg=None, exclude=()):
    """Repeated stepwise selection with cumulative exclusion.

    Runs ``f1st``, excludes everything it selected, and repeats on the
    remaining pool until a round selects nothing.  Each nonempty round's result
    is returned, ordered by rss.
    """
    if cfg is None:
        cfg = SelectionConfig()
    excl = _valid_exclusions(m, exclude)
    results = []
    provenance = []
    round_no = 0
    while len(excl) < m.q:
        round_no += 1
        r = f1st(m, y, cfg, exclude=excl)
        if not r.selected:
            break
        results.append(r)
        provenance.append(f"round {round_no}")
        excl |= set(r.selected)
    return _order_set(results, provenance)


def f3st(m, y, cfg=None, exclude=(), accumulate_exclusions=True):
    """Branched stepwise selection to depth ``cfg.m``.

    After the root ``f1st``, each selected covariate is excluded in turn (the
    others stay available) and ``f1st`` reruns; each new result branches again,
    down to depth ``cfg.m``.  By default exclusions accumulate along a branch;
    with ``accumulate_exclusions=False`` each branch excludes only its own
    covariate on top of the base exclusions.  Branches are deduplicated by
    exclusion set, results by selected set; the set is ordered by rss.

    A branch does not start from scratch: it resumes from the run it branched
    from (the root, when exclusions do not accumulate), taking forks of that
    run's kept states up to the step that chose a column the branch excludes,
    and only recomputes their P-values for its smaller competitor pool.  The
    output is the same as that of running every branch from scratch.
    """
    if cfg is None:
        cfg = SelectionConfig()
    base = frozenset(_valid_exclusions(m, exclude))
    root_log = _RunLog()
    root = f1st(m, y, cfg, exclude=base, _log=root_log)
    if not root.selected:
        return ApproximationSet([], [])
    seen_excl = {base}
    found = {frozenset(root.selected): (root, "root")}
    frontier = [(root, base, root_log)]
    for depth in range(1, cfg.m + 1):
        nxt = []
        for res, excl, log in frontier:
            for i in res.selected:
                bex = (excl | {i}) if accumulate_exclusions else frozenset(base | {i})
                if bex in seen_excl or len(bex) >= m.q:
                    continue
                seen_excl.add(bex)
                blog = _RunLog(log if accumulate_exclusions else root_log)
                r2 = f1st(m, y, cfg, exclude=bex, _log=blog)
                if not r2.selected:
                    continue
                key = frozenset(r2.selected)
                if key not in found:
                    dropped = ", ".join(m.names[j] for j in sorted(bex - base))
                    found[key] = (r2, f"depth {depth}, excluding {dropped}")
                # only runs that later branches resume from keep their states
                keep = accumulate_exclusions and depth < cfg.m
                nxt.append((r2, bex, blog if keep else None))
        frontier = nxt
    results = [r for r, _ in found.values()]
    provenance = [p for _, p in found.values()]
    return _order_set(results, provenance)
