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

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from . import pvalues
from .errors import CollinearColumn, DomainError, NoCandidates, TooManyColumns
from .matrix import (COLLINEARITY_TOL, ResidualState, _record_in_span, extend,
                     extend_intercept, extend_together, fitted_gram, gram_columns, leading,
                     scan_best, seed_from_gram, use_gram)

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

# Problems per batched QR call in _Fit.rss.  Each call gathers its problems
# and qr copies them, so this bounds both transients (about 1 MB each for
# 12 x 12 problems); larger batches factor no faster.
_BATCH = 1024

# The bounded subset search keeps a subset while its rss is within this many
# exact-fit floors (1e-9 of the rss after the intercept) of the best passing
# rss: rounding moves a computed rss by far less, so nothing that could pass
# with a lower rss is pruned.
_PRUNE_SLACK = 1e3

# Subset tables of at most this many subsets are built once per process.
_CACHED_ROWS = 4096

# The subset search holds two tables of 2^k cells per fit of k covariates; it
# searches fits together only while their tables hold at most this many cells.
_SEARCH_CELLS = 1 << 22

# Each stepwise run advanced in lockstep keeps X^T r and the residual column
# norms, the X^T u of every column it takes (from the round's product with X
# or a Gram column), and a vector of transients: (3 + k) q cells for a run
# that keeps k products of its own.  Runs advance together only while their
# vectors hold at most this many cells.
_LOCKSTEP_CELLS = 1 << 22


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
        Largest stepwise selection that still gets the all-subset refinement
        (a bounded search of its 2^k - 1 subsets); beyond it the stepwise set
        is returned as-is.
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
    ``pg`` and ``coefficients`` align with it.  ``pg`` is each member's
    Gaussian P-value as part of the final subset, except when the stepwise set
    was not refined (more members than ``max_subset_refine``, or
    ``max_subset_refine=0``): then it is the stepwise ``p_g`` each member had
    when it entered, as in ``trace``.  Coefficients (and the intercept)
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


def _cat(arrays):
    """The arrays joined along their first axis; a single one as it is, uncopied."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


class _Fit:
    """The R factor of a design A = [1 | X[:, cols]], from which every subset fit is read.

    The state that fitted A's columns in order holds A = BR and c = B^T y, B
    its orthonormal basis, and rss0 = |y - Bc|^2 as its rss; R has a column
    per column of A, and fewer rows when some lie in the span of the columns
    before them.  The least-squares fit on any set S of A's columns has the
    coefficients of min_b |c - R[:, S] b| and rss rss0 plus that minimum, so
    subset fits are small problems that never touch the n rows.  A fit keeps
    only R (as R^T), c, rss0 and the squared column norms of R, as the state
    gave them, not the state or its n-row basis.  ``rss`` is the one routine
    that solves the subset problems: the subset search scores its subsets
    with it and a reported result reads its rss, coefficients and drop-one
    rss from it, so both see the same numbers.  Covariates are addressed by
    their positions in ``cols``; the intercept, when fitted, is A's first
    column and term 0.

    A fit is also all a result needs besides the data: ``q_pool``, the
    number of candidates its covariates competed against, and ``trace``,
    the stepwise steps that chose ``cols`` (empty for an all-subset pool).
    Since it holds no n-row array, the fits of many stepwise passes can wait
    to be refined together.
    """

    __slots__ = ("n", "cols", "q_pool", "trace", "p", "rt", "c", "off", "rss0", "norm2", "floor")

    def __init__(self, state, cols, q_pool, trace=()):
        self.n = state.n
        self.cols = list(cols)
        self.q_pool = q_pool
        self.trace = trace
        r, self.c = state.factor()
        self.p, w = r.shape
        self.off = w - len(self.cols)
        self.rt = r.T
        self.rss0 = state.rss
        self.norm2 = np.einsum("ij,ij->j", r, r)
        # an rss at or below this fraction of the rss after the intercept
        # alone (y.y without it) is rounding noise, as in stepwise: the fit
        # is exact
        c = self.c[self.off:]
        self.floor = _PERFECT_FIT_REL * (state.rss + float(c @ c))

    @staticmethod
    def rss(jobs, factors=False):
        """(rss, valid, F) of each job (fit, idx), for the fits on A's columns ``idx``.

        ``idx`` is a (B, s) int array of columns of the job's fit.  F stacks
        the R factors of [R[:, S] | c], each padded with zero rows to s + 1 so
        that it is square.  The rss is rss0 + F[s, s]^2, from c's
        component outside span(R[:, S]), not from |c - R beta|, whose error
        grows with the condition number; F[:s, :s] beta = F[:s, s] gives the
        coefficients.  A fit is valid when every term keeps more than
        ``COLLINEARITY_TOL`` of its squared norm orthogonal to the terms before
        it, as in stepwise.  F is returned only with ``factors``, else None.
        Only F's upper triangle is R: it is read from ``qr(mode="raw")``,
        which skips ``mode="r"``'s copy through ``triu``, so below the
        diagonal F holds Householder vectors.  The search reads only the
        diagonal and ``solve_triangular`` only the upper triangle.

        The problems of all jobs are grouped by their shape, R's rows (at least
        s + 1) by s + 1.  A group stacks its jobs' R^T (with c as one more
        row), rss0 and column norms, zero-padded to the group's rows and to
        its widest job, and numbers its problems flat, one job's idx after
        another.  They are factored by one batched QR per ``_BATCH``
        problems, each problem gathered from the stack at its owner, the job
        whose rows it falls in.  A batch slices its problems' columns from
        its owners' own idx, so no list of all the group's problems is made.
        The zero rows square the problems of an R with fewer rows, and a
        narrower job's padded columns are never read; the batched QR factors
        each matrix on its own, so every number is the same bits whatever
        shares its batch.
        """
        groups = {}
        for j, (fit, idx) in enumerate(jobs):
            s = idx.shape[1]
            groups.setdefault((max(fit.p, s + 1), s + 1), []).append(j)
        out = [None] * len(jobs)
        for (rows, cols), members in groups.items():
            s = cols - 1
            fits = [jobs[j][0] for j in members]
            w = max(len(fit.rt) for fit in fits)
            # each job's R^T and then its c as row w
            rc = np.zeros((len(fits), w + 1, rows))
            norm2 = np.zeros((len(fits), w))
            for t, fit in enumerate(fits):
                rc[t, :len(fit.rt), :fit.p] = fit.rt
                rc[t, w, :fit.p] = fit.c
                norm2[t, :len(fit.rt)] = fit.norm2
            rss0 = np.array([fit.rss0 for fit in fits])
            idxs = [jobs[j][1] for j in members]
            ends = list(itertools.accumulate(map(len, idxs)))
            starts, total = [0, *ends[:-1]], ends[-1]
            owners = np.array(ends)
            rss, valid = np.empty(total), np.empty(total, dtype=bool)
            fs = np.empty((total, cols, cols)) if factors else None
            for lo in range(0, total, _BATCH):
                hi = min(lo + _BATCH, total)
                b = slice(lo, hi)
                o = owners.searchsorted(np.arange(lo, hi), side="right")[:, None]
                g = _cat([idxs[t][max(lo - starts[t], 0):hi - starts[t]]
                          for t in range(o[0, 0], o[-1, 0] + 1)])
                # [R[:, S] | c] of each problem, gathered transposed
                at = rc[o, np.concatenate((g, np.full((len(g), 1), w)), axis=1)]
                h, _ = np.linalg.qr(at.swapaxes(1, 2), mode="raw")
                f = h.swapaxes(1, 2)[:, :cols]
                d = np.diagonal(f, axis1=1, axis2=2) ** 2
                rss[b] = rss0[o[:, 0]] + d[:, s]
                valid[b] = (d[:, :s] > COLLINEARITY_TOL * norm2[o, g]).all(axis=1)
                if factors:
                    fs[b] = f
            for j, lo, hi in zip(members, starts, ends):
                out[j] = rss[lo:hi], valid[lo:hi], None if fs is None else fs[lo:hi]
        return out

    def pf(self, ctx, rss, rss_wo):
        """P_F of a term whose removal leaves ``rss_wo``; 1.0 when that fit is already exact."""
        if rss_wo <= self.floor:
            return 1.0
        return pvalues.pf_from_rss_ratio(ctx, rss, rss_wo)


@functools.lru_cache(maxsize=None)
def _loo(s):
    """The positions left when each of s terms is dropped in turn, an (s, s - 1) array."""
    out = np.broadcast_to(np.arange(s), (s, s))[~np.eye(s, dtype=bool)].reshape(s, max(s - 1, 0))
    out.setflags(write=False)
    return out


def _build_results(m, items):
    """Yield a SelectionResult for each item (fit, pos, pg).

    Each reports the fit on covariate positions ``pos`` of ``fit``, with the
    fit's competitor pool and trace.  The member P-values are the all-subset
    ones unless ``pg`` gives them.  Coefficients are reported on the
    original scale of the data.  The fits of all items are solved in one
    call of ``_Fit.rss``, and their leave-one-out fits in another; results
    are assembled one at a time, so a caller that keeps only part of each
    holds no list of them.
    """
    fits, drops = [], []
    for fit, pos, pg in items:
        idx = np.array([list(range(fit.off)) + [i + fit.off for i in pos]], dtype=np.intp)
        fits.append((fit, idx))
        # each term's drop-one rss, from one batch of leave-one-out fits; with
        # ``pg`` given, only the intercept's
        drop = idx[0, _loo(idx.shape[1])]
        drops.append((fit, drop if pg is None else drop[:fit.off]))
    for (fit, pos, pg), (rss, _, f), (rss_drop, _, _) in zip(
            items, _Fit.rss(fits, factors=True), _Fit.rss(drops)):
        sel = [fit.cols[i] for i in pos]
        s = fit.off + len(pos)
        rss, f = float(rss[0]), f[0]
        beta = solve_triangular(f[:s, :s], f[:s, s])
        rss_drop = rss_drop.tolist()
        # a fit with no term at all tests nothing
        ctx = pvalues.PvalueContext(fit.n, s, fit.q_pool - len(sel)) if s else None
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
        yield SelectionResult(
            selected=sel,
            pg=list(pg),
            coefficients=coefs,
            rss=rss,
            intercept_coefficient=intercept_coef,
            intercept_pg=intercept_pg,
            trace=list(fit.trace),
            n=fit.n,
            q_pool=fit.q_pool,
            names=[m.names[j] for j in sel],
        )


def _make_tables(k, s, off):
    count = math.comb(k, s)
    flat = itertools.chain.from_iterable(itertools.combinations(range(k), s))
    combos = np.fromiter(flat, np.intp, count * s).reshape(count, s)
    idx = np.empty((count, off + s), dtype=np.intp)
    idx[:, :off] = np.arange(off)
    idx[:, off:] = combos + off
    masks = (1 << combos).sum(axis=1)
    outside = np.ones((count, k), dtype=bool)
    outside[np.arange(count)[:, None], combos] = False
    parents = masks[:, None] | (1 << np.nonzero(outside)[1].reshape(count, k - s))
    tables = idx, masks, parents
    for t in tables:
        t.setflags(write=False)
    return tables


_cached_tables = functools.lru_cache(maxsize=None)(_make_tables)


def _size_tables(k, s, off):
    """(idx, masks, parents) of the size-s subsets of k covariates.

    ``idx`` lists each subset's columns of A, its positions in lexicographic
    order plus ``off`` after the intercept's column when ``off``; ``masks``
    holds its bit mask and ``parents`` the masks of the sets one position
    larger that contain it.  Tables
    of at most ``_CACHED_ROWS`` subsets are kept for the life of the process,
    so a search of a few covariates builds none; larger ones, whose scoring
    costs far more than building them, are built each time.
    """
    return (_cached_tables if math.comb(k, s) <= _CACHED_ROWS else _make_tables)(k, s, off)


def _passing_subsets(fits, p0, bounded=True):
    """Subsets of each fit whose every member passes the membership test at ``p0``.

    Yields (i, rss, size, positions), ``fits[i]`` the fit searched, for
    subsets small enough to leave two residual degrees of freedom; every
    subset keeps the intercept when it is fitted.  Unless ``bounded`` is
    false, which yields every passing subset, it yields only those that
    could be a fit's least-rss passing subset, and always that one.

    The search runs from the largest size down.  Fits with the same number of
    covariates k, intercept and n are searched together: one size's subsets
    of every such fit are scored in one call of ``_Fit.rss``.  So that memory
    does not grow with the number of fits, they are searched in chunks of
    ``_SEARCH_CELLS >> k`` fits (at least one), one chunk after another; each
    fit's search is its own, so the chunks give the same bits.  Each fit keeps
    b, the least rss of a subset known to pass (infinite when unbounded).
    Dropping a column cannot lower the rss, so no subset of a set whose rss
    is above b can do better than b: a subset is scored only if every set one
    position larger that contains it was scored with rss at most b (plus
    ``_PRUNE_SLACK`` exact-fit floors, so that rounding of the computed rss
    prunes nothing that could win).  Once a size is scored, the size above
    it is tested, each subset with rss at most b: a member's drop-one rss is
    the entry, at the mask without that member's bit, of a table that keeps
    each scored subset's rss at its bit mask, and the test needs only the
    least of them.  Every unscored subset lies above b, so that least one is
    exact if some scored drop-one subset is at most b; otherwise the subset's
    drop-one sets are scored in one leave-one-out batch.  Before the search,
    a fit's stepwise prefix up to its first forced step, when that is not the
    whole set, is tested with its drop-one sets to seed b.
    """
    groups = {}
    for i, fit in enumerate(fits):
        groups.setdefault((len(fit.cols), fit.off, fit.n), []).append(i)
    chunks = []
    for (k, off, n), members in groups.items():
        step = max(1, _SEARCH_CELLS >> k)
        chunks += [(k, off, n, members[lo:lo + step]) for lo in range(0, len(members), step)]
    for k, off, n, members in chunks:
        top = min(k, n - off - 2)
        if top < 1:
            continue
        group = [fits[i] for i in members]
        q_pools = [fit.q_pool for fit in group]
        floor = np.array([fit.floor for fit in group])
        b = np.full(len(group), math.inf)
        rss_at = np.full((len(group), 1 << k), math.inf)
        live = np.zeros((len(group), 1 << k), dtype=bool)

        def passes(rows, s, rss, valid, drop_min):
            """The membership test of size-s subsets of the fits ``rows``."""
            thr = {q: pvalues.beta_cdf_inv((n - s - off) / 2.0, 0.5,
                                           pvalues.pf_threshold(p0, q - s + 1))
                   for q in set(q_pools)}
            x_thr = np.array([thr[q] for q in q_pools])
            return valid & (drop_min > floor[rows]) & (rss < x_thr[rows] * drop_min)

        # the stepwise prefix before each fit's first forced step
        seeds = {}
        for t, fit in enumerate(group if bounded else ()):
            f = next((j for j, step in enumerate(fit.trace) if step.forced), k)
            if 0 < f < k and f <= top:
                seeds[t] = f
        seed_mask = np.full(len(group), -1)
        prev = None
        for s in range(top, -1, -1):
            idx, masks, parents = _size_tables(k, s, off)
            cand = (np.ones((len(group), len(masks)), dtype=bool) if prev is None
                    else live[:, parents].all(axis=2))
            full = cand.all(axis=1)
            rows = np.flatnonzero(cand.any(axis=1))
            jobs = [(group[t], idx if full[t] else idx[cand[t]]) for t in rows]
            if prev is None:
                for t, f in seeds.items():
                    whole = np.arange(off + f)
                    jobs += [(group[t], whole[None]), (group[t], whole[_loo(off + f)[off:]])]
            scored = _Fit.rss(jobs)
            rss, valid = np.full(cand.shape, math.inf), np.zeros(cand.shape, dtype=bool)
            if len(rows):
                rss[cand] = _cat([r for r, _, _ in scored[:len(rows)]])
                valid[cand] = _cat([v for _, v, _ in scored[:len(rows)]])
            rss_at[:, masks] = rss
            if prev is None:
                # each seed's jobs follow: the prefix, then its drop-one sets
                seeded = zip(seeds.items(), scored[len(rows)::2], scored[len(rows) + 1::2])
                for (t, f), (r, v, _), (drop, _, _) in seeded:
                    seed_mask[t] = (1 << f) - 1
                    if passes(t, f, r[0], v[0], drop.min()):
                        yield members[t], float(r[0]), f, tuple(range(f))
                        b[t] = r[0]
            else:
                # test the size above, each subset with rss at most b
                p_rss, p_valid, p_masks, p_idx = prev
                t_rows, t_cols = np.nonzero((p_rss <= b[:, None])
                                            & (p_masks != seed_mask[:, None]))
                loo = _loo(off + s + 1)[off:]
                for lo in range(0, len(t_rows), _BATCH):
                    tr, tc = t_rows[lo:lo + _BATCH], t_cols[lo:lo + _BATCH]
                    pos = p_idx[tc, off:] - off
                    drop_min = rss_at[tr[:, None], p_masks[tc, None] ^ (1 << pos)].min(axis=1)
                    need = np.flatnonzero(drop_min > b[tr])
                    got = _Fit.rss([(group[tr[h]], p_idx[tc[h]][loo]) for h in need])
                    drop_min[need] = [r.min() for r, _, _ in got]
                    hit_rss = p_rss[tr, tc]
                    keep = np.flatnonzero(passes(tr, s + 1, hit_rss, p_valid[tr, tc], drop_min))
                    for h in keep:
                        yield members[tr[h]], float(hit_rss[h]), s + 1, tuple(pos[h])
                    if bounded:
                        np.minimum.at(b, tr[keep], hit_rss[keep])
            if not len(rows):
                break
            live[:, masks] = ~(rss > (b + _PRUNE_SLACK * floor)[:, None])
            prev = rss, valid, masks, idx


def _refine(m, fits, cfg):
    """Yield the SelectionResult of each stepwise pass's fit, all refined together.

    A fit of at most ``cfg.max_subset_refine`` covariates reports the
    least-rss subset of them whose every member passes the all-subset
    membership test at ``cfg.p0`` (or none); any other fit reports all its
    covariates with their stepwise P-values.  Fits with as many covariates
    are searched together and all reported fits are solved together, so
    ``_Fit.rss`` runs one batched QR per problem shape, not several per fit.
    The search is bounded (``_passing_subsets``): it scores only subsets
    that can still beat the best passing one found, and gives the same
    subset, bit for bit, as scoring them all.
    """
    search = [i for i, fit in enumerate(fits) if 0 < len(fit.cols) <= cfg.max_subset_refine]
    # (rss, size, positions) of each searched fit's best passing subset
    best = dict.fromkeys(search, (math.inf, 0, ()))
    for b, *hit in _passing_subsets([fits[i] for i in search], cfg.p0):
        best[search[b]] = min(best[search[b]], tuple(hit))
    return _build_results(m, [
        (fit, best[i][2], None) if i in best
        else (fit, range(len(fit.cols)), [t.p_g for t in fit.trace])
        for i, fit in enumerate(fits)])


# ---------------------------------------------------------------------------
# f1st: stepwise selection + all-subset refinement
# ---------------------------------------------------------------------------

class _Run:
    """One stepwise pass on a matrix, as ``_advance`` moves it a step a round.

    It starts from ``state``, with ``trace`` the steps that led there, and
    stops once its rss is at most ``floor``.  Given a list ``steps``, it
    appends every state it extends to, for the runs that will start from
    them, so that ``steps[t]`` is the state after its step t: a list given
    empty first gets the run's start state, once its first scan finds a
    step to take, and any other must end with the state it starts from.
    """

    __slots__ = ("state", "excl", "q_pool", "steps", "floor", "trace")

    def __init__(self, m, state, excl, floor, trace=(), steps=None):
        self.state = state
        self.excl = np.zeros(m.q, dtype=bool)
        self.excl[list(excl)] = True
        self.q_pool = m.q - len(excl)
        self.steps = steps
        self.floor = floor
        self.trace = list(trace)


def _advance(m, cfg, runs, kept=0):
    """The ``_Fit`` of each stepwise run in the iterable ``runs``, all advanced on ``m``.

    Runs are taken in groups, as many as keep their vectors within
    ``_LOCKSTEP_CELLS`` when each keeps ``kept`` products of its own, and
    each group is advanced in lockstep until every run in it stops.  In
    each round, every live run takes its next step as ``f1st`` describes:
    it stops at a break, or it scans for the best candidate
    (``scan_best``) and stops unless that candidate passes or is forced.
    The runs that go on are then extended together (``extend_together``):
    each gets its own extension on the n rows, and takes its X^T u from the
    column's Gram column when it has one, while the others in data mode
    share one product with X for theirs.  A run given an empty list to
    record its states into gets, after its first scan and before it keeps
    its start state, the Gram columns of that scan's leaders from one
    product with X (``_prefetch_leaders``); it and every run started from
    its states step onto a leader with no pass.  These X^T u only rank the
    candidates of later scans; every rss a run reports, and the R and c its
    fit keeps, come from the n rows.
    """
    runs = iter(runs)
    size = max(1, _LOCKSTEP_CELLS // ((3 + kept) * m.q))
    fits = []
    while group := list(itertools.islice(runs, size)):
        live = group
        while live:
            going, cols = [], []
            for run in live:
                state = run.state
                k_sel = len(state.selected)
                fit_new = state.fit_size + 1
                if k_sel >= run.q_pool or m.n - fit_new < 2 or state.rss <= run.floor:
                    continue
                try:
                    j, rss_cand = scan_best(state, m, run.excl)
                except NoCandidates:
                    continue
                ctx = pvalues.PvalueContext(m.n, fit_new, run.q_pool - k_sel)
                p_f = pvalues.pf_from_rss_ratio(ctx, rss_cand, state.rss)
                p_g = pvalues.pg_stepwise(ctx, p_f)
                if k_sel >= cfg.kmn and p_g >= cfg.p0:
                    continue
                if run.steps == []:
                    # its start state, kept for the runs that start from its states
                    _prefetch_leaders(m, cfg, run, ctx)
                    run.steps.append(state.fork())
                # the rss after the column is the one its scan took, which the
                # extension keeps
                run.trace.append(TraceStep(j, p_f, p_g, rss_cand, forced=p_g >= cfg.p0))
                going.append(run)
                cols.append(j)
            if going:
                extend_together([run.state for run in going], m, cols)
                for run in going:
                    if run.steps is not None:
                        run.steps.append(run.state.fork())
            live = going
        fits += [_Fit(run.state, run.state.selected, run.q_pool, run.trace) for run in group]
    return fits


def _prefetch_leaders(m, cfg, run, ctx):
    """Give the scanned start state of a recording run the Gram columns of its leaders.

    The leaders are the candidates that would pass the first step's test
    alone, score > rss (1 - x), x the largest passing rss ratio (as
    ``_passing_subsets`` tests it), best first.  Those the run could step
    onto in turn, were each to keep its score, are the steps the list can
    save it: they stop at the first leader whose score is not below the rss
    left or fails the test on it.  Correlated leaders lose their scores to
    the first one taken, and then the list is long but those steps few.
    The run keeps twice as many leaders as such steps, one more for each
    branch that excludes one of them, and at most as many as
    ``_LOCKSTEP_CELLS`` holds columns of.  Their Gram columns come from one
    product with X (``gram_columns``), and the run and the runs started
    from its states then extend by a leader with no pass over X.
    """
    state = run.state
    x_thr = pvalues.beta_cdf_inv((ctx.n - ctx.k) / 2.0, 0.5,
                                 pvalues.pf_threshold(cfg.p0, ctx.q_remaining))
    lead, score = leading(state, m, run.excl, state.rss * (1.0 - x_thr))
    left = state.rss - (np.cumsum(score) - score)
    steps = int(np.cumprod((score < left) & (score > left * (1.0 - x_thr))).sum())
    lead = lead[:min(2 * steps, _LOCKSTEP_CELLS // m.q)]
    if len(lead):
        use_gram(state, m, gram_columns(m, lead, centred=cfg.intercept))


def f1st(m, y, cfg=None, exclude=(), *, _steps=None, _gram=None, _stepwise=False):
    """Stepwise Gaussian-covariate selection.

    Fits the intercept (when configured), then repeatedly adds the candidate
    column giving the largest rss reduction while the best candidate's
    Gaussian P-value stays below ``cfg.p0`` -- unconditionally while fewer than
    ``cfg.kmn`` covariates are in, with such steps flagged as forced.  If the
    stepwise set has at most ``cfg.max_subset_refine`` members, a search of
    its subsets then returns the least-rss subset whose every member passes
    the all-subset membership test at ``p0``.  The search runs from the
    whole set down and skips every subset of a set whose rss is already
    above that of a passing subset; the steps before the first forced one
    give its first bound.  It returns what scoring every subset would.

    The stepwise pass and the refinement are separate stages: the pass ends
    with the ``_Fit`` of its selected set, which keeps its trace and
    competitor pool but not its n-row state; the refinement takes a list of
    such fits and solves all their subset fits together (``_refine``).
    ``f1st`` runs the stepwise kernel ``_advance`` on one run and refines a
    list of one.  Callers with many responses, such as ``fgr1st``, pass
    ``_stepwise=True`` to get the fit instead and refine every fit in one
    call.

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
    _steps : list, optional
        An empty list the run records its states into, the start state
        first and then one per step (``_Run``), for ``f3st``'s branches to
        start from.  Its start state holds the Gram columns of the first
        scan's leaders, from one product with X (``_advance``).

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
    state = extend_intercept(ResidualState(y)) if cfg.intercept else ResidualState(y)
    if _gram is not None:
        # (G, j): y is column j of m, G = gram(m, centred=cfg.intercept)
        seed_from_gram(state, m, *_gram)
    fit, = _advance(m, cfg, [_Run(m, state, excl, state.rss * _PERFECT_FIT_REL, steps=_steps)])
    return fit if _stepwise else next(_refine(m, [fit], cfg))


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
    state = extend_intercept(ResidualState(y)) if cfg.intercept else ResidualState(y)
    for j in cand:
        try:
            extend(state, m, j)
        except CollinearColumn:
            _record_in_span(state, m.col(j))
    fit = _Fit(state, cand, q_pool)
    retained = sorted((hit for _, *hit in _passing_subsets([fit], cfg.p0, bounded=False)),
                      key=lambda r: (-r[1], r[0], r[2]))
    # drop retained subsets contained in a larger retained subset
    maximal = []
    masks = []
    for rss, s, combo in retained:
        mask = sum(1 << i for i in combo)
        if any(mask & kept == mask for kept in masks):
            continue
        masks.append(mask)
        maximal.append((rss, s, combo))
    maximal.sort(key=lambda r: (r[0], r[1], r[2]))
    results = list(_build_results(m, [(fit, combo, None) for _, _, combo in maximal]))
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

    A branch does not start from scratch: it starts from a fork of the state
    the run it branched from (the root, when exclusions do not accumulate)
    held before its step onto the covariate the branch excludes (its last
    state, if it never took it), and takes that run's steps to there as its
    own, their Gaussian P-values recomputed for its smaller competitor pool.

    The root records its states, so after its first scan it forms, with one
    product with X, the Gram columns of the leaders of that scan, the
    candidates that would pass its first step alone, as many as it could
    use (``_prefetch_leaders``), and steps onto a leader with no further
    pass.  The root's states keep the product X^T b of each of their basis
    vectors, so after the root the Gram column of each column it took is
    X^T x_j = sum_i R_ij X^T b_i (``fitted_gram``), formed with no pass over
    X; a leader keeps the column it has.  Both are held only for this call,
    and every branch starts from the root's states with them
    (``use_gram``).  The branches of one depth run in lockstep
    (``_advance``), in groups bounded by a cell budget that counts, for
    each branch, as many products of its own as the root took steps: in
    each round, every branch that takes a new column is extended
    at once.  A branch that takes a leader or one of the root's columns
    takes its X^T u from that column's Gram column in O(qk), as a Gram-mode
    fit of ``fgr1st`` does; the others share one product with X for theirs.
    The fits are then refined in one call, and merged in the order a
    branch-by-branch run would give.  These X^T u only rank candidates, and
    every reported rss, P-value and coefficient comes from the n rows, so
    the output is that of running every branch from scratch with ``f1st``,
    except where two candidates' scores tie to within rounding.
    """
    if cfg is None:
        cfg = SelectionConfig()
    base = frozenset(_valid_exclusions(m, exclude))
    root_steps = []
    root = f1st(m, y, cfg, exclude=base, _steps=root_steps)
    if not root.selected:
        return ApproximationSet([], [])
    # every branch starts from one of the root's states
    gram = fitted_gram(root_steps[-1])
    for state in root_steps:
        use_gram(state, m, gram)
    floor = root_steps[0].rss * _PERFECT_FIT_REL
    seen_excl = {base}
    found = {frozenset(root.selected): (root, "root")}
    frontier = [(root, base, root_steps)]
    for depth in range(1, cfg.m + 1):
        # only runs that later branches start from keep their states
        keep = accumulate_exclusions and depth < cfg.m
        branches = []
        for res, excl, steps in frontier:
            src, steps = (res, steps) if accumulate_exclusions else (root, root_steps)
            cols = [t.index for t in src.trace]
            for i in res.selected:
                bex = (excl | {i}) if accumulate_exclusions else frozenset(base | {i})
                if bex in seen_excl or len(bex) >= m.q:
                    continue
                seen_excl.add(bex)
                # src excluded a subset of bex and its steps before any onto i
                # chose no column of bex, so from the same states this branch
                # would take the same steps: it starts from src's state before
                # i (its last, if src never took i) with src's steps to there,
                # whose p_g its smaller pool can only lower.
                t = cols.index(i) if i in cols else len(cols)
                trace = []
                for k, step in enumerate(src.trace[:t]):
                    p_g = pvalues.gaussian_pvalue(step.p_f, m.q - len(bex) - k)
                    trace.append(TraceStep(step.index, step.p_f, p_g, step.rss, p_g >= cfg.p0))
                branches.append((bex, steps[:t + 1], trace))
        runs = (_Run(m, bsteps[-1].fork(), bex, floor, trace, bsteps if keep else None)
                for bex, bsteps, trace in branches)
        nxt = []
        fits = _advance(m, cfg, runs, len(gram))
        for (bex, bsteps, _), r2 in zip(branches, _refine(m, fits, cfg)):
            if not r2.selected:
                continue
            key = frozenset(r2.selected)
            if key not in found:
                dropped = ", ".join(m.names[j] for j in sorted(bex - base))
                found[key] = (r2, f"depth {depth}, excluding {dropped}")
            nxt.append((r2, bex, bsteps if keep else None))
        frontier = nxt
    results = [r for r, _ in found.values()]
    provenance = [p for _, p in found.values()]
    return _order_set(results, provenance)
