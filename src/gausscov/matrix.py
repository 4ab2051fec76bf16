"""Column store and the incremental least-squares engine under all selection code.

Memory stays at O(nq) for the data plus O(nk) for the fitted basis; no n x n
matrix is ever formed.  A fit that scans for candidates keeps two vectors of
length q: X^T r, the products of every column with the current residual, and
each column's squared norm orthogonal to the basis.  The first scan fills both
with one matrix product X^T [r | basis]; after the intercept, the norms are the
columns' sums of squares about their means.  After that each selection step
reads the matrix once: a column entering the basis as unit vector u, with
residual coefficient c, costs one product X^T u, which updates X^T r to
X^T r - c X^T u and the norms to norms - (X^T u)^2.  Scans score from the kept
vectors in O(q).

A fit seeded by ``seed_from_gram`` (the regression of one column of X on the
others, given the q x q Gram matrix G of X) reads the matrix never: X^T r and
the norms start as a column and the diagonal of G, and each extension takes
X^T u from G and the kept products X^T b of the earlier basis vectors in
O(qk).  The n-row basis and residual are built the same way in both modes.

``extend`` and ``extend_intercept`` are the only ways a fit grows.  A fit's
arrays are replaced, never written in place, so ``fork`` copies a state in
O(k) by sharing them, and a saved fork stays exactly the fit it was.
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
    "gram",
    "scan_best",
    "seed_from_gram",
    "standardize",
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

    __slots__ = ("values", "n", "q", "names", "offsets", "scales", "standardized",
                 "_norm2", "_centred_norm2")

    def __init__(self, values, names=None, offsets=None, scales=None,
                 standardized=None, copy=True):
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
        if standardized is None:
            standardized = np.zeros(self.q, dtype=bool)
        self.standardized = np.asarray(standardized, bool)
        self._norm2 = None
        self._centred_norm2 = None

    def col_norm2(self):
        """Squared norm of every column, computed on first use (read-only)."""
        if self._norm2 is None:
            norm2 = np.einsum("ij,ij->j", self.values, self.values)
            norm2.flags.writeable = False
            self._norm2 = norm2
        return self._norm2

    def centred_norm2(self):
        """Sum of squares of every column about its mean, computed on first use (read-only)."""
        if self._centred_norm2 is None:
            css = np.empty(self.q)
            step = max(1, _BLOCK_CELLS // self.n)
            for lo in range(0, self.q, step):
                block = self.values[:, lo:lo + step]
                block = block - block.mean(axis=0)
                css[lo:lo + step] = np.einsum("ij,ij->j", block, block)
            css.flags.writeable = False
            self._centred_norm2 = css
        return self._centred_norm2

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

    Constant columns pass through unchanged and are reported.  Returns
    ``(standardized DataMatrix, list of constant column indices)``.
    """
    if m.n < 2:
        raise DomainError("standardization needs at least 2 rows")
    means = m.values.mean(axis=0)
    sds = m.values.std(axis=0, ddof=1)
    const = sds <= _CONST_SD_TOL * np.maximum(1.0, np.abs(means))
    if const.all():
        raise AllColumnsConstant("every column is constant")
    shift = np.where(const, 0.0, means)
    scale = np.where(const, 1.0, sds)
    out = np.empty(m.values.shape, dtype=np.float64, order="F")
    np.subtract(m.values, shift, out=out)
    np.divide(out, scale, out=out)
    flags = m.standardized | ~const
    return (
        DataMatrix(
            out,
            names=m.names,
            offsets=m.offsets + m.scales * shift,
            scales=m.scales * scale,
            standardized=flags,
            copy=False,
        ),
        [int(j) for j in np.flatnonzero(const)],
    )


class ResidualState:
    """Mutable state of one growing least-squares fit.

    Holds the selected column indices, the current residual and its squared
    norm, and an orthonormal basis of the fitted span.  The intercept, when
    fitted, occupies a basis vector but is not listed in ``selected``.

    Once ``scan_best`` has run, or ``seed_from_gram`` has, the state also keeps
    X^T r and the columns' squared norms orthogonal to the basis, for the
    matrix it scanned; each later extension updates both from X^T u, which it
    takes from one product with X, or in Gram mode from the Gram matrix and the
    kept X^T b of every basis vector b after the intercept.

    Arrays are replaced, never written in place, so a ``fork`` shares them with
    the state it came from, and extending either leaves the other unchanged.
    A state belongs to one thread; it is not safe to share while being
    extended.
    """

    __slots__ = ("n", "selected", "residual", "rss", "basis",
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
        self.rss = float(y @ y)
        self.basis = []
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


def _orthogonal_component(basis, v):
    # modified Gram-Schmidt with one reorthogonalization pass
    u = np.array(v, dtype=np.float64)
    for _ in range(2):
        for b in basis:
            u -= (b @ u) * b
    return u


def _extend_vector(state, v, orig_norm2, j=None):
    u = _orthogonal_component(state.basis, v)
    u2 = float(u @ u)
    if u2 <= COLLINEARITY_TOL * orig_norm2 or u2 == 0.0:
        raise CollinearColumn("vector is numerically collinear with the current basis")
    norm = math.sqrt(u2)
    u /= norm
    c = float(u @ state.residual)
    state.residual = state.residual - c * u
    state.rss = float(state.residual @ state.residual)
    state.basis.append(u)
    if state._cache_for is None:
        return
    if state._gram is None:
        xtu = state._cache_for.values.T @ u
    else:
        # v is column j, whose coefficient on each kept basis vector b is
        # (X^T b)[j], so X^T (norm u) = G[j] - sum_b (X^T b)[j] X^T b
        xtu = np.array(state._gram[j])
        for xtb in state._xtb:
            xtu -= xtb[j] * xtb
        xtu /= norm
        state._xtb.append(xtu)
    state._xtr = state._xtr - c * xtu
    state._resid_norm2 = np.maximum(state._resid_norm2 - xtu * xtu, 0.0)


def extend_intercept(state):
    """Add the constant column to the fit (done first, before any covariate)."""
    if state.fit_size:
        raise DomainError("intercept must be the first fitted vector")
    _extend_vector(state, np.ones(state.n), float(state.n))
    return state


def extend(state, m, j):
    """Add column j of ``m`` to the fit, updating residual, rss and basis.

    The state's arrays are replaced, not written in place (see ``fork``).
    Raises CollinearColumn when the column's component orthogonal to the
    current basis falls at or below ``COLLINEARITY_TOL`` times its squared norm.
    """
    j = int(j)
    if not 0 <= j < m.q:
        raise DomainError(f"column index {j} out of range for q={m.q}")
    if m.n != state.n:
        raise DomainError("matrix row count does not match the state")
    if j in state.selected:
        raise DomainError(f"column {j} is already selected")
    x = m.col(j)
    try:
        _extend_vector(state, x, float(x @ x), j)
    except CollinearColumn:
        raise CollinearColumn(
            f"column {j} is numerically collinear with the current basis"
        ) from None
    state.selected.append(j)
    return state


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


def _ensure_scan_cache(state, m):
    if state._cache_for is m:
        return
    # one pass over X for X^T r and the products with every basis vector
    prod = m.values.T @ np.column_stack([state.residual] + state.basis)
    xtr = prod[:, 0]
    if state.fit_size > len(state.selected):
        # after the intercept: the norms about the column means, not
        # col_norm2 - (X^T 1)^2 / n, which cancels when the means are large;
        # and X^T r without r's rounding component along 1, which large means
        # would amplify
        xtr = xtr - float(state.basis[0] @ state.residual) * prod[:, 1]
        resid = np.array(m.centred_norm2())
        first = 2
    else:
        resid = np.array(m.col_norm2())
        first = 1
    for i in range(first, prod.shape[1]):
        resid -= prod[:, i] * prod[:, i]
    np.maximum(resid, 0.0, out=resid)
    state._cache_for = m
    state._gram = None
    state._xtr = np.ascontiguousarray(xtr)
    state._resid_norm2 = resid


def scan_best(state, m, excluded=()):
    """Best next column: the admissible candidate giving the largest rss reduction.

    Returns ``(j, rss_after_adding_j)``.  Ties break to the smallest index.
    Selected, excluded and numerically collinear columns are skipped; if
    nothing admissible remains, NoCandidates is raised.  Scores come from the
    state's kept X^T r and residual column norms; only the first scan of a
    state (or of a new matrix) reads ``m``.

    ``excluded`` may be an iterable of column indices or a boolean mask of
    length q.
    """
    if m.n != state.n:
        raise DomainError("matrix row count does not match the state")
    _ensure_scan_cache(state, m)
    cor = state._xtr
    red = cor * cor
    denom = state._resid_norm2
    admissible = denom > COLLINEARITY_TOL * m.col_norm2()
    score = np.full(m.q, -np.inf)
    np.divide(red, denom, out=score, where=admissible)
    if isinstance(excluded, np.ndarray) and excluded.dtype == bool:
        score[excluded] = -np.inf
    else:
        excl = list(excluded)
        if excl:
            score[excl] = -np.inf
    if state.selected:
        score[state.selected] = -np.inf
    j = int(np.argmax(score))
    if not math.isfinite(score[j]):
        raise NoCandidates("no admissible candidate column remains")
    return j, max(state.rss - float(score[j]), 0.0)
