"""Column store and the incremental least-squares engine under all selection code.

Memory stays at O(nq) for the data plus O(nk) for the fitted basis; no n x n
matrix is ever formed.  A fit is grown by modified Gram-Schmidt with one
reorthogonalization pass, with the response carried along as one more
column (Bjorck, 1967): each vector v added to the fit gives a unit vector u
of the basis B, a column of R with v's coefficients on B and the norm of
its component orthogonal to the earlier basis, and a residual coefficient
c = u . r.  The vectors fitted so far are B R, and c = B^T y, so every
reported fit is read from R and c without revisiting the n rows.

A fit that scans for candidates keeps two vectors of length q: X^T r, the
products of every column with the current residual, and each column's
squared norm orthogonal to the basis.  The first scan fills both with one
matrix product of X with the residual and the basis vectors; after the
intercept, the norms are the columns' sums of squares about their means, and
the intercept's products are the column means times sqrt(n), both kept by
the matrix, so a fit that has only the intercept reads X once for X^T r.
After that each selection step reads the matrix at most once: a column
entering the basis as unit vector u, with residual coefficient c, costs one
product X^T u, which updates X^T r to X^T r - c X^T u and the norms to
norms - (X^T u)^2.  ``extend_together`` extends many fits of one matrix at
once, and takes the X^T u of all of them from one product U X, U stacking
their new unit vectors.  Scans choose from the kept vectors in O(q), and
take the rss after the chosen column from its component orthogonal to the
basis on the n rows, which the extension that follows reuses.  The fit also
keeps X^T b of each basis vector b after the intercept (of every one,
without it): the other rows of its first scan's product and each X^T u.

One rule takes X^T u with no pass over X from a Gram column, the products
G[j] of column j with every column: u is column j's component orthogonal
to the basis, whose coefficient on each kept b is (X^T b)[j], so
X^T (|u| u) = G[j] - sum_b (X^T b)[j] X^T b, in O(qk).  Three sources
give G[j].  A fit seeded by ``seed_from_gram`` (the regression of one
column of X on the others, given the q x q Gram matrix G of X) reads every
column from G and the matrix never: X^T r and the norms start as a column
and the diagonal of G.  ``gram_columns`` forms the Gram columns of a few
chosen columns with one product, X_L^T X, and ``leading`` chooses them
from a scan's scores: a stepwise run whose states later runs resume from
takes its first scan's leaders this way, so that it and those runs step
onto a leader with no pass over X.  ``fitted_gram`` forms, from a fit's R
and kept products, the Gram column of every column it took,
X^T x_j = sum_i R_ij X^T b_i, with no pass at all.  A state given Gram
columns by ``use_gram``, and its forks, extend by those columns from them
and by any other column with a product as before.  The n-row basis and
residual are built the same way in every case.

The products only rank candidates.  A batched product may round X^T u in
the last bits differently from a single one, and the Gram rule differently
again, which can change a scan's choice only between scores tied to within
that rounding; every rss, R column and c comes from the n rows.

``extend_together``, ``extend`` (which extends one fit) and
``extend_intercept`` are the only ways a fit grows.  A fit's arrays are
replaced, never written in place, so ``fork`` copies a state in O(k) by
sharing them, and a saved fork stays exactly the fit it was.
"""

import copy
import math

import numpy as np

from .errors import (
    AllColumnsConstant,
    CollinearColumn,
    DomainError,
    NoCandidates,
)

__all__ = [
    "COLLINEARITY_TOL",
    "DataMatrix",
    "ResidualState",
    "extend",
    "extend_intercept",
    "extend_together",
    "fitted_gram",
    "gram",
    "gram_columns",
    "leading",
    "scan_best",
    "seed_from_gram",
    "standardize",
    "use_gram",
]

# A candidate is usable only while its component orthogonal to the basis keeps
# more than this fraction of the column's squared norm.
COLLINEARITY_TOL = 1e-12

_CONST_SD_TOL = 1e-13

# cells per block when a column statistic needs a temporary copy of the columns
_BLOCK_CELLS = 1 << 16


class DataMatrix:
    """Immutable n x q column store with names and rescaling bookkeeping.

    Columns are held Fortran-ordered so single-column access is contiguous.
    ``offsets``/``scales`` record any affine rescaling already applied to the
    stored columns (raw = offset + scale * stored), letting fitted coefficients
    be reported on the original scale.
    """

    __slots__ = ("values", "n", "q", "names", "offsets", "scales", "_norm2", "_collinear",
                 "_means", "_centred_norm2")

    def __init__(self, values, names=None, offsets=None, scales=None, copy=True):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 2:
            raise DomainError(f"matrix must be 2-D, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise DomainError(f"matrix must be non-empty, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise DomainError("matrix contains non-finite entries")
        if copy or not arr.flags.f_contiguous:
            arr = np.asfortranarray(arr) if not arr.flags.f_contiguous else arr.copy(order="F")
        arr.flags.writeable = False
        self.values = arr
        self.n, self.q = arr.shape
        if names is None:
            names = [f"x{j + 1}" for j in range(self.q)]
        else:
            names = [str(s) for s in names]
            if len(names) != self.q:
                raise DomainError(f"got {len(names)} names for {self.q} columns")
        self.names = names
        self.offsets = np.zeros(self.q) if offsets is None else np.asarray(offsets, float)
        self.scales = np.ones(self.q) if scales is None else np.asarray(scales, float)
        if self.offsets.shape != (self.q,) or self.scales.shape != (self.q,):
            raise DomainError("offsets/scales must have one entry per column")
        self._norm2 = self._collinear = None
        self._means = self._centred_norm2 = None

    def col_norm2(self):
        """Squared norm of every column, computed on first use (read-only)."""
        if self._norm2 is None:
            norm2 = np.einsum("ij,ij->j", self.values, self.values)
            norm2.flags.writeable = False
            self._norm2 = norm2
        return self._norm2

    def collinear_norm2(self):
        """``COLLINEARITY_TOL`` times every column's squared norm, computed on first use.

        A candidate whose squared norm orthogonal to a basis is at most this
        is collinear with the basis (read-only).
        """
        if self._collinear is None:
            floor = COLLINEARITY_TOL * self.col_norm2()
            floor.flags.writeable = False
            self._collinear = floor
        return self._collinear

    def col_means(self):
        """Mean of every column, computed with ``centred_norm2`` on first use (read-only)."""
        if self._means is None:
            self._centre()
        return self._means

    def centred_norm2(self):
        """Sum of squares of every column about its mean, computed on first use (read-only)."""
        if self._centred_norm2 is None:
            self._centre()
        return self._centred_norm2

    def _centre(self):
        # one pass over the columns, a block at a time, for both statistics
        means, css = np.empty(self.q), np.empty(self.q)
        step = max(1, _BLOCK_CELLS // self.n)
        for lo in range(0, self.q, step):
            block = self.values[:, lo:lo + step]
            means[lo:lo + step] = mean = block.mean(axis=0)
            block = block - mean
            css[lo:lo + step] = np.einsum("ij,ij->j", block, block)
        means.flags.writeable = css.flags.writeable = False
        self._means, self._centred_norm2 = means, css

    def col(self, j):
        """Read-only view of column j."""
        return self.values[:, j]

    def raw_column(self, j):
        """Column j mapped back to the original (pre-rescaling) scale."""
        return self.offsets[j] + self.scales[j] * self.values[:, j]

    def __repr__(self):
        return f"DataMatrix(n={self.n}, q={self.q})"


def standardize(m):
    """Center and scale columns to mean 0 and unit sample variance (ddof=1).

    Constant columns pass through unchanged and are reported.  A column is
    constant when its sample sd is at most 1e-13 of the magnitude of its mean
    (a column of zeros is too): the test is relative, so it gives the same
    answer at every scale.  Returns ``(standardized DataMatrix, list of
    constant column indices)``.
    """
    if m.n < 2:
        raise DomainError("standardization needs at least 2 rows")
    means = m.values.mean(axis=0)
    sds = m.values.std(axis=0, ddof=1)
    const = sds <= _CONST_SD_TOL * np.abs(means)
    if const.all():
        raise AllColumnsConstant("every column is constant")
    shift = np.where(const, 0.0, means)
    scale = np.where(const, 1.0, sds)
    out = np.empty(m.values.shape, dtype=np.float64, order="F")
    np.subtract(m.values, shift, out=out)
    np.divide(out, scale, out=out)
    return (
        DataMatrix(
            out,
            names=m.names,
            offsets=m.offsets + m.scales * shift,
            scales=m.scales * scale,
            copy=False,
        ),
        [int(j) for j in np.flatnonzero(const)],
    )


class ResidualState:
    """Mutable state of one growing least-squares fit.

    Holds the selected column indices, the current residual and its squared
    norm, an orthonormal basis of the fitted span, and the factor R and
    coefficients c that ``factor`` returns.  The intercept, when fitted,
    occupies a basis vector but is not listed in ``selected``.

    Once ``scan_best`` has run, or ``seed_from_gram`` has, the state also keeps
    X^T r, the columns' squared norms orthogonal to the basis, and X^T b of
    every basis vector b after the intercept, for the matrix it scanned;
    each later extension updates them from X^T u.  It takes X^T u from a
    product with X (shared by the states ``extend_together`` extends), or by
    the Gram rule from the column's Gram column when the state has one: from
    the Gram matrix in Gram mode (``seed_from_gram``), or from the Gram
    columns ``use_gram`` gave it.  A scan also keeps the extension by the
    column it chose, which ``extend`` then reuses.

    Arrays are replaced, never written in place, so a ``fork`` shares them with
    the state it came from, and extending either leaves the other unchanged.
    A state belongs to one thread; it is not safe to share while being
    extended.
    """

    __slots__ = ("n", "selected", "residual", "rss", "basis", "_r", "_c", "_next",
                 "_cache_for", "_xtr", "_resid_norm2", "_gram", "_xtb")

    def __init__(self, y):
        y = np.asarray(y, dtype=np.float64).ravel()
        if y.size < 1:
            raise DomainError("response is empty")
        if not np.isfinite(y).all():
            raise DomainError("response contains non-finite entries")
        self.n = y.size
        self.selected = []
        self.residual = y.copy()
        with np.errstate(over="ignore"):
            self.rss = float(y @ y)
        if not math.isfinite(self.rss):
            raise DomainError("response's sum of squares overflows")
        self.basis = []
        self._r = self._c = ()
        # (m, j, step): the extension by column j of m that the last scan
        # chose, until the fit is next extended
        self._next = None
        self._cache_for = None
        self._xtr = None
        self._resid_norm2 = None
        self._gram = None
        self._xtb = []

    @property
    def fit_size(self):
        """Number of fitted regressors, intercept included."""
        return len(self.basis)

    def fork(self):
        """An independent copy that extends without affecting this state."""
        other = copy.copy(self)
        other.selected = list(self.selected)
        other.basis = list(self.basis)
        other._xtb = list(self._xtb)
        return other

    def factor(self):
        """(R, c): the fitted vectors, in the order added, are B R, and c = B^T y.

        B is the basis, one row of R per basis vector.  R is upper triangular,
        or trapezoidal when a vector in the span was recorded without a basis
        vector of its own (``_record_in_span``).
        """
        r = np.zeros((len(self.basis), len(self._r)))
        for i, col in enumerate(self._r):
            r[:col.size, i] = col
        return r, np.array(self._c)


def _orthogonal_component(basis, v):
    # modified Gram-Schmidt with one reorthogonalization pass; v's coefficients
    # on the basis are summed over both passes
    u = np.array(v, dtype=np.float64)
    coef = np.zeros(len(basis))
    for _ in range(2):
        for i, b in enumerate(basis):
            d = b @ u
            u -= d * b
            coef[i] += d
    return u, coef


def _step(state, v, name="vector"):
    """The extension of the fit by v: (u, R column, c, residual, rss)."""
    u, coef = _orthogonal_component(state.basis, v)
    u2 = float(u @ u)
    if u2 <= COLLINEARITY_TOL * float(v @ v) or u2 == 0.0:
        raise CollinearColumn(f"{name} is numerically collinear with the current basis")
    norm = math.sqrt(u2)
    u /= norm
    c = float(u @ state.residual)
    residual = state.residual - c * u
    return u, np.concatenate((coef, [norm])), c, residual, float(residual @ residual)


def _record_in_span(state, v):
    # v lies in the span of the basis: a column of R, but no basis vector
    state._r += (_orthogonal_component(state.basis, v)[1],)


def _products(m, vectors):
    """X^T v of every row v of ``vectors``, as the rows of one product with X: one pass over X."""
    return vectors @ m.values


def _downdate(state, xtu):
    # the kept X^T r and norms after the last basis vector u entered, given X^T u
    state._xtr = state._xtr - state._c[-1] * xtu
    state._resid_norm2 = np.maximum(state._resid_norm2 - xtu * xtu, 0.0)


def _gram_column(state, m, j):
    """Column j of the state's Gram source for ``m``, or None when it has none."""
    g = state._gram
    if g is None or state._cache_for is not m:
        return None
    # a Gram matrix holds every column; ``fitted_gram`` only the fitted ones
    return g.get(j) if isinstance(g, dict) else g[j]


def _extend_vectors(states, steps, m, cols):
    """Grow each state by its step (an extension by column ``cols[b]`` of ``m``, or None for 1)."""
    data = {}
    for state, step, j in zip(states, steps, cols):
        u, rcol, c, state.residual, state.rss = step
        state._next = None
        state.basis.append(u)
        state._r += (rcol,)
        state._c += (c,)
        if state._cache_for is None:
            continue
        gj = _gram_column(state, m, j)
        if gj is None:
            data.setdefault(state._cache_for, []).append(state)
            continue
        # the new vector is column j, whose coefficient on each kept basis
        # vector b is (X^T b)[j], so X^T (|u| u) = G[j] - sum_b (X^T b)[j] X^T b,
        # |u| being the last entry of its column of R
        xtu = np.array(gj)
        for xtb in state._xtb:
            xtu -= xtb[j] * xtb
        xtu /= rcol[-1]
        state._xtb.append(xtu)
        _downdate(state, xtu)
    # one product with each scanned matrix for all the states that keep it;
    # for a single state it is the same bits as X^T u
    for mat, group in data.items():
        for state, xtu in zip(group, _products(mat, np.array([s.basis[-1] for s in group]))):
            state._xtb.append(xtu)
            _downdate(state, xtu)


def extend_intercept(state):
    """Add the constant column to the fit (done first, before any covariate)."""
    if state.fit_size:
        raise DomainError("intercept must be the first fitted vector")
    _extend_vectors([state], [_step(state, np.ones(state.n))], None, [None])
    return state


def extend(state, m, j):
    """Add column j of ``m`` to the fit, updating residual, rss and basis.

    The state's arrays are replaced, not written in place (see ``fork``).
    Raises CollinearColumn when the column's component orthogonal to the
    current basis falls at or below ``COLLINEARITY_TOL`` times its squared norm.
    """
    extend_together([state], m, [j])
    return state


def extend_together(states, m, cols):
    """Add column ``cols[b]`` of ``m`` to each of the distinct ``states[b]``.

    Each state gets the extension ``extend`` would give it alone: the same
    residual, rss, basis vector, R column and c, all computed on the n rows.
    The states that keep X^T r for a matrix in data mode then update it from
    one product U X for all of them, U stacking their new unit vectors, where
    ``extend`` alone makes one X^T u each.  The batched product can round in
    the last bits differently, so the kept X^T r and norms agree with a
    single extension's to rounding; they only rank the candidates of later
    scans.  Every extension is checked, and every state's step computed,
    before any state changes, so an error leaves all of them as they were.
    """
    cols = [int(j) for j in cols]
    steps = []
    for state, j in zip(states, cols):
        if not 0 <= j < m.q:
            raise DomainError(f"column index {j} out of range for q={m.q}")
        if m.n != state.n:
            raise DomainError("matrix row count does not match the state")
        if j in state.selected:
            raise DomainError(f"column {j} is already selected")
        nxt = state._next
        if nxt is None or nxt[0] is not m or nxt[1] != j:
            nxt = (m, j, _step(state, m.col(j), f"column {j}"))
        steps.append(nxt[2])
    _extend_vectors(states, steps, m, cols)
    for state, j in zip(states, cols):
        state.selected.append(j)


def gram(m, centred):
    """The q x q Gram matrix X^T X of ``m``, of its columns about their means when ``centred``."""
    x = m.values - m.values.mean(axis=0) if centred else m.values
    return x.T @ x


def seed_from_gram(state, m, g, j):
    """Build the scan cache of a fit of column j of ``m`` from ``g = gram(m, centred)``.

    The state's response must be column j.  It must have fitted the intercept
    alone, with ``g`` centred, or nothing, with ``g`` not centred; an intercept
    cannot be added after the seed.  X^T r and the residual column norms are
    then row j and the diagonal of the symmetric ``g``, and the state extends
    in Gram mode: no later scan or extension reads ``m``.  ``g`` is shared,
    not copied.
    """
    if state.selected or state.fit_size > 1:
        raise DomainError("a Gram seed needs a state that has fitted at most the intercept")
    if g.shape != (m.q, m.q) or m.n != state.n:
        raise DomainError("Gram matrix does not match the matrix and the state")
    # every basis vector after the intercept is orthogonal to 1, so its
    # products with the raw columns are those with the centred ones g holds
    state._cache_for = m
    state._gram = g
    state._xtr = g[j]
    state._resid_norm2 = np.diagonal(g).copy()


def gram_columns(m, cols, centred):
    """Columns ``cols`` of ``gram(m, centred)`` as ``{j: column}``, from one product with X.

    The product is X_c^T X, X_c the columns ``cols`` about their means when
    ``centred``: column j of the centred Gram matrix is
    X^T (x_j - mean_j) - (1^T (x_j - mean_j)) means.  The second term is 0
    but for the rounding of mean_j, which large means would amplify.
    """
    cols = [int(j) for j in cols]
    x = m.values[:, cols]
    if not centred:
        return dict(zip(cols, _products(m, x.T)))
    x = x - m.col_means()[cols]
    prod = _products(m, x.T)
    prod -= np.outer(x.sum(axis=0), m.col_means())
    return dict(zip(cols, prod))


def fitted_gram(state):
    """The Gram column of every column ``state`` has fitted, from its kept products.

    Returns ``{j: column}`` for the columns in ``state.selected``, on the
    matrix the state scanned.  The fitted columns are B R, so
    X^T x_j = sum_i R_ij X^T b_i; summed over the basis vectors whose X^T b
    the state keeps, those after the intercept when it fitted it first, this
    is column j of ``gram(m, centred=True)``, else of ``gram(m,
    centred=False)``, to rounding.  It reads no row of X: one product of
    the k x k block of R with the k kept X^T b.
    """
    if state._cache_for is None or len(state._r) != state.fit_size:
        raise DomainError("fitted Gram columns need a scanned state with a basis vector "
                          "per column")
    r, _ = state.factor()
    off = state.fit_size - len(state._xtb)
    cols = r[off:, state.fit_size - len(state.selected):].T @ np.array(state._xtb)
    return dict(zip(state.selected, cols))


def use_gram(state, m, columns):
    """Extend the scanned ``state`` by any column in ``columns`` with no product with X.

    ``columns`` is ``{j: column}`` of Gram columns of ``m``, centred when the
    state fitted the intercept first: ``fitted_gram`` of a state that
    scanned ``m``, as ``state`` has, or ``gram_columns``.  They are added
    to any the state has, which keep their own for the same column, and
    shared, not copied.  Each later extension by one of those columns takes
    X^T u from it and the kept X^T b as in Gram mode; an extension by any
    other column takes it from a product with X.  Forks of ``state`` keep
    the columns.
    """
    if state._cache_for is not m or isinstance(state._gram, np.ndarray):
        raise DomainError("fitted Gram columns need a state scanned on their matrix in data mode")
    state._gram = {**columns, **state._gram} if state._gram else columns


def _ensure_scan_cache(state, m):
    if state._cache_for is m:
        return
    centred = state.fit_size > len(state.selected)
    # one pass over X for X^T r and the products with every basis vector
    # after the intercept
    prod = _products(m, np.array([state.residual] + state.basis[int(centred):]))
    if centred:
        # after the intercept: the norms about the column means, not
        # col_norm2 - (X^T 1)^2 / n, which cancels when the means are large;
        # and X^T r without r's rounding component along the intercept's unit
        # vector 1/sqrt(n), whose products with X are sqrt(n) times the
        # means, as large means would amplify it
        coef = float(state.basis[0] @ state.residual) * math.sqrt(m.n)
        xtr = prod[0] - coef * m.col_means()
        resid = np.array(m.centred_norm2())
    else:
        xtr = prod[0]
        resid = np.array(m.col_norm2())
    for row in prod[1:]:
        resid -= row * row
    np.maximum(resid, 0.0, out=resid)
    state._cache_for = m
    state._gram = None
    state._xtr = xtr
    state._resid_norm2 = resid
    state._xtb = list(prod[1:])


def _scores(state, m, excluded):
    """Each column's rss reduction as the next regressor, -inf where it is not a candidate."""
    if m.n != state.n:
        raise DomainError("matrix row count does not match the state")
    _ensure_scan_cache(state, m)
    cor = state._xtr
    denom = state._resid_norm2
    # (cor / denom) * cor, not cor^2 / denom: a score is at most the rss, so
    # it stays finite wherever the rss is, while cor^2 can overflow; the
    # entries of collinear columns, which may divide by 0, are then dropped
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        score = cor / denom
        score *= cor
    score[~(denom > m.collinear_norm2())] = -np.inf
    if isinstance(excluded, np.ndarray) and excluded.dtype == bool:
        score[excluded] = -np.inf
    else:
        excl = list(excluded)
        if excl:
            score[excl] = -np.inf
    if state.selected:
        score[state.selected] = -np.inf
    return score


def leading(state, m, excluded, above):
    """The candidates of ``scan_best(state, m, excluded)`` scoring above ``above``.

    Returns their column indices and their scores, best score first, and of
    scores equal bit for bit the smaller index first.
    """
    score = _scores(state, m, excluded)
    lead = np.flatnonzero(score > above)
    lead = lead[np.argsort(-score[lead], kind="stable")]
    return lead, score[lead]


def scan_best(state, m, excluded=()):
    """Best next column: the admissible candidate giving the largest rss reduction.

    Returns ``(j, rss_after_adding_j)``.  Of candidates whose scores are
    equal bit for bit, the smallest index wins.  Bitwise-equal columns need
    not score bitwise-equal, though: their kept products may round
    differently (a BLAS kernel may treat some columns of a product apart
    from the rest, and a batched product or the Gram rule rounds otherwise),
    so which of two duplicate columns is chosen is not specified, only that
    the same call on the same state always chooses the same one.
    Selected, excluded and numerically collinear columns are skipped; if
    nothing admissible remains, NoCandidates is raised.  Scores come from the
    state's kept X^T r and residual column norms; only the first scan of a
    state (or of a new matrix) reads ``m``.  The rss comes from column j's
    component orthogonal to the basis on the n rows, not from its score,
    whose downdated norm loses digits when j nearly duplicates a fitted
    column; ``extend(state, m, j)`` reuses that component.

    ``excluded`` may be an iterable of column indices or a boolean mask of
    length q.
    """
    score = _scores(state, m, excluded)
    while True:
        j = int(np.argmax(score))
        if not math.isfinite(score[j]):
            raise NoCandidates("no admissible candidate column remains")
        try:
            state._next = (m, j, _step(state, m.col(j)))
            return j, state._next[2][4]
        except CollinearColumn:
            # admissible by its downdated norm only
            score[j] = -np.inf
