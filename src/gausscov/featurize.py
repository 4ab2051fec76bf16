"""Delimited I/O and feature dictionaries: lags, trigonometric basis, interactions.

The loaders accept a plain rectangular CSV (RFC-4180 quoting, numeric body).
``load_csv`` converts each row as the CSV reader yields it, so it holds the
text of one row and the growing matrix, never the file's cells as strings.
It reports a row of the wrong width first, wherever it lies, and otherwise
the first offending cell in row-major order, with file coordinates.

Feature constructors return DataMatrix objects whose column names record how
each feature was built.  The interaction expansion forms its monomials in
place in one array sized for the whole expansion, so it peaks at little more
than the design it returns.
"""

import csv
import hashlib
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ColumnBudgetExceeded,
    DomainError,
    InsufficientLength,
    MissingValue,
    ParseError,
)
from .matrix import DataMatrix

__all__ = [
    "InteractionSpec",
    "load_csv",
    "make_interactions",
    "make_lags",
    "make_trig",
    "monomial_count",
    "sample_correlations",
    "split_response",
]

_NA_TOKENS = {"", "na", "n/a", "null"}

# Cells per block of parsed rows while a CSV is read (512 KB of floats); the
# blocks are joined once into the matrix at the end of the file.
_BLOCK_CELLS = 1 << 16


def _parse_cell(text):
    """Return the cell's value, nan for a missing value, None for a non-number."""
    s = text.strip()
    if s.lower() in _NA_TOKENS:
        return math.nan
    try:
        return float(s)
    except ValueError:
        return None


def _rows(fh, delimiter):
    """(file line, cells) of each row; a row's line is the one it starts on."""
    reader = csv.reader(fh, delimiter=delimiter)
    line = 1
    for row in reader:
        if row:  # blank lines are skipped but still counted
            yield line, row
        line = reader.line_num + 1


def _offender(path, line, row, v, j, drop):
    """The error for a row's first offending cell, or None.

    ``v`` holds the row's values before column j, the first non-number (the
    row's width when there is none).  An infinite value offends under both
    policies, a missing value only under 'reject'.
    """
    bad = np.isinf(v[:j]) if drop else ~np.isfinite(v[:j])
    if bad.any():
        c = int(bad.argmax())
        if np.isnan(v[c]):
            return MissingValue(f"{path}: missing value", row=line, col=c + 1)
        return ParseError(f"{path}: not a finite number: {row[c].strip()!r}",
                          row=line, col=c + 1)
    if j < len(row):
        return ParseError(f"{path}: not a number: {row[j].strip()!r}", row=line, col=j + 1)
    return None


def load_csv(path, header=None, delimiter=",", na_policy="reject"):
    """Load a rectangular numeric CSV into a DataMatrix.

    Parameters
    ----------
    path : str
    header : bool or None
        None (default) auto-detects: the first row becomes column names when
        any of its cells fails to parse as a number.
    delimiter : str
        A single character.
    na_policy : str
        'reject' (default) errors on the first missing value with its 1-based
        file coordinates; 'drop' removes rows containing missing values.

    Cells are read as ``float()`` reads them.  A missing value is an empty or
    whitespace-only cell, NA, N/A or NULL in any case, or any cell whose text
    parses to NaN (nan, +nan, -nan).  A cell that reads as infinite (inf,
    -Infinity, 1e400) is an error under both policies, as a non-number is.
    Column names default to x1..xq when there is no header.

    Each row is converted as it is read, into blocks of floats that are
    joined once into the Fortran-ordered matrix the DataMatrix keeps, so
    loading holds the text of one row plus about twice the matrix, not the
    file's cells as strings.

    Errors report file coordinates: a row's is the file line it starts on,
    blank lines included.  A row whose width differs from the first row's is
    reported first, wherever it lies.  Otherwise the first offender in
    row-major order is reported: a non-number, an infinite value, or under
    'reject' a missing value.  Rows after it are read only to check their
    widths.
    """
    if na_policy not in ("reject", "drop"):
        raise DomainError(f"na_policy must be 'reject' or 'drop', got {na_policy!r}")
    if not isinstance(delimiter, str) or len(delimiter) != 1:
        raise DomainError(f"delimiter must be one character, got {delimiter!r}")
    drop = na_policy == "drop"
    names, blocks, offender = None, [], None
    seen = n = 0  # data rows read, and kept
    # utf-8-sig drops a leading byte-order mark, which would otherwise stick to
    # the first cell
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        rows = _rows(fh, delimiter)
        first = next(rows, None)
        if first is None:
            raise ParseError(f"{path}: file is empty")
        width = len(first[1])
        step = max(1, _BLOCK_CELLS // width)
        if header is True or header is None and any(_parse_cell(c) is None for c in first[1]):
            names = [c.strip() for c in first[1]]
        else:
            rows = itertools.chain([first], rows)
        for line, row in rows:
            if len(row) != width:
                raise ParseError(f"{path}: expected {width} fields, found {len(row)}", row=line)
            seen += 1
            if offender is not None:
                continue
            if n == len(blocks) * step:
                blocks.append(np.empty((step, width)))
            v = blocks[-1][n % step]
            try:
                v[:] = row  # numpy reads each cell as float() does
                j = width
            except ValueError:
                values = [_parse_cell(c) for c in row]
                j = values.index(None) if None in values else width
                v[:j] = values[:j]
            if j == width and np.isfinite(v).all():
                n += 1
            else:
                # a row with a missing value but no offender is dropped
                offender = _offender(path, line, row, v, j, drop)
    if not seen:
        raise ParseError(f"{path}: no data rows")
    if offender is not None:
        raise offender
    if not n:
        raise ParseError(f"{path}: every row has missing values")
    data = np.empty((n, width), order="F")
    for b in range(len(blocks)):
        # free each block once it is copied
        block, blocks[b] = blocks[b], None
        data[b * step:(b + 1) * step] = block[:n - b * step]
    return DataMatrix(data, names=names, copy=False)


def resolve_column(m, which):
    """Return the 0-based index of column ``which`` (name or 1-based index)."""
    if isinstance(which, str) and not which.isdigit():
        if which not in m.names:
            raise DomainError(f"no column named {which!r}")
        return m.names.index(which)
    j = int(which) - 1
    if not 0 <= j < m.q:
        raise DomainError(f"response index {int(which)} out of range 1..{m.q}")
    return j


def split_response(m, which):
    """Split one column out of ``m`` as the response.

    ``which`` is a column name or a 1-based index.  Returns
    ``(y, rest, response_name)``.
    """
    j = resolve_column(m, which)
    y = np.array(m.col(j))
    rest_cols = [c for c in range(m.q) if c != j]
    rest = DataMatrix(
        m.values[:, rest_cols],
        names=[m.names[c] for c in rest_cols],
        offsets=m.offsets[rest_cols],
        scales=m.scales[rest_cols],
        copy=False,
    )
    return y, rest, m.names[j]


# ---------------------------------------------------------------------------
# lag matrices
# ---------------------------------------------------------------------------

def make_lags(data, lags, response=0, names=None):
    """Lagged design from one or more series, aligned with the response.

    Parameters
    ----------
    data : array_like
        Length-N series, or (N, v) array of v series.
    lags : iterable of int
        Positive lags; each variable contributes one column per lag, in
        variable-major order (all lags of variable 1, then variable 2, ...).
    response : int
        0-based index of the variable whose current value is the response.
    names : list of str, optional
        Variable names; defaults to x1..xv.

    Returns
    -------
    (DataMatrix, y)
        ``N - max(lag)`` rows; row r corresponds to time max(lag)+r, with the
        lag-l column of variable v holding that variable's value l steps back.
    """
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise DomainError(f"series array must be 1-D or 2-D, got shape {arr.shape}")
    big_n, v = arr.shape
    lags = [int(l) for l in lags]
    if not lags:
        raise DomainError("need at least one lag")
    if any(l < 1 for l in lags):
        raise DomainError(f"lags must be positive, got {lags}")
    if len(set(lags)) != len(lags):
        raise DomainError(f"lags must be distinct, got {lags}")
    if not 0 <= response < v:
        raise DomainError(f"response variable {response} out of range for {v} variables")
    lmax = max(lags)
    if big_n <= lmax:
        raise InsufficientLength(
            f"series of length {big_n} cannot support lag {lmax}"
        )
    if names is None:
        names = [f"x{i + 1}" for i in range(v)] if v > 1 else ["x"]
    elif len(names) != v:
        raise DomainError(f"got {len(names)} names for {v} variables")
    rows = big_n - lmax
    cols = np.empty((rows, v * len(lags)), order="F")
    out_names = []
    c = 0
    for var in range(v):
        for l in lags:
            cols[:, c] = arr[lmax - l: big_n - l, var]
            out_names.append(f"{names[var]}_lag{l}")
            c += 1
    y = np.array(arr[lmax:, response])
    return DataMatrix(cols, names=out_names, copy=False), y


# ---------------------------------------------------------------------------
# trigonometric dictionary
# ---------------------------------------------------------------------------

def make_trig(n_rows, j_max):
    """Trigonometric dictionary on the grid t = (1..N)/N.

    Column 2j-1 (1-based) is cos(pi*j*t) and column 2j is sin(pi*j*t), for
    j = 1..j_max.  Cosines are near-orthogonal among themselves, as are
    sines; cos/sin pairs whose frequencies sum to an odd number correlate
    substantially on this half-period grid, which is fine for selection --
    the dictionary stays full rank.
    """
    if n_rows < 2:
        raise DomainError(f"need at least 2 rows, got {n_rows}")
    if j_max < 1:
        raise DomainError(f"j_max must be >= 1, got {j_max}")
    t = np.arange(1, n_rows + 1) / n_rows
    cols = np.empty((n_rows, 2 * j_max), order="F")
    names = []
    for j in range(1, j_max + 1):
        ang = math.pi * j * t
        cols[:, 2 * j - 2] = np.cos(ang)
        cols[:, 2 * j - 1] = np.sin(ang)
        names.append(f"cos{j}")
        names.append(f"sin{j}")
    # sin(pi * j_max * t) vanishes identically when j_max == n_rows/2; keep the
    # column anyway -- selection skips it through the collinearity gate.
    return DataMatrix(cols, names=names, copy=False)


# ---------------------------------------------------------------------------
# interaction expansion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InteractionSpec:
    """Settings for the monomial expansion.

    max_degree
        Monomials of total degree 1..max_degree are generated in graded
        lexicographic order.
    dedup
        Drop columns bitwise-identical to an earlier one (powers of a binary
        column, say).
    max_columns
        Budget on generated (pre-dedup) columns; exceeding it raises.
    """

    max_degree: int = 2
    dedup: bool = True
    max_columns: int = 500_000

    def __post_init__(self):
        if self.max_degree < 1:
            raise DomainError(f"max_degree must be >= 1, got {self.max_degree}")
        if self.max_columns < 1:
            raise DomainError(f"max_columns must be >= 1, got {self.max_columns}")


def monomial_count(q, max_degree):
    """Number of distinct monomials of degree 1..max_degree in q variables."""
    return math.comb(q + max_degree, max_degree) - 1


def _monomial_name(names, combo):
    parts = []
    for j, grp in itertools.groupby(combo):
        e = len(list(grp))
        parts.append(names[j] if e == 1 else f"{names[j]}^{e}")
    return "*".join(parts)


def make_interactions(m, spec=None):
    """The monomial expansion of ``m`` as a DataMatrix.

    Columns come in graded lexicographic order (degree 1 columns first, each
    degree in lexicographic order of the index multiset), which makes column
    indices reproducible.  With ``spec.dedup`` every column bitwise-identical
    to an earlier one is dropped.  An expansion over ``spec.max_columns``
    raises ColumnBudgetExceeded before any column is allocated.

    Every monomial is formed in place in one Fortran-ordered array with a
    slot for each monomial, a dropped column's slot taken by the next one,
    and the result is a view of the filled leading columns, so the expansion
    peaks at little more than that array.
    """
    if spec is None:
        spec = InteractionSpec()
    total = monomial_count(m.q, spec.max_degree)
    if total > spec.max_columns:
        raise ColumnBudgetExceeded(
            f"expansion of {m.q} columns to degree {spec.max_degree} has {total} "
            f"monomials, over the budget of {spec.max_columns}"
        )
    out = np.empty((m.n, total), order="F")
    names, seen = [], set()
    for deg in range(1, spec.max_degree + 1):
        for combo in itertools.combinations_with_replacement(range(m.q), deg):
            col = out[:, len(names)]
            col[:] = m.col(combo[0])
            for j in combo[1:]:
                col *= m.col(j)
            if spec.dedup:
                key = hashlib.blake2b(col, digest_size=16).digest()
                if key in seen:
                    continue
                seen.add(key)
            names.append(_monomial_name(m.names, combo))
    return DataMatrix(out[:, :len(names)], names=names, copy=False)


# ---------------------------------------------------------------------------
# correlation sampling (for external plotting)
# ---------------------------------------------------------------------------

def sample_correlations(m, pairs, seed):
    """Pearson correlations of randomly sampled column pairs.

    Returns a list of (i, j, correlation) with 0-based i < j; pairs are drawn
    uniformly and may repeat.  Intended for CSV export and external plotting.
    """
    if pairs < 1:
        raise DomainError(f"pairs must be >= 1, got {pairs}")
    if m.q < 2:
        raise DomainError("need at least 2 columns")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    x = m.values - m.values.mean(axis=0)
    norms = np.sqrt(np.einsum("ij,ij->j", x, x))
    out = []
    while len(out) < pairs:
        draw = rng.integers(0, m.q, size=2 * (pairs - len(out)) + 8).reshape(-1, 2)
        for a, b in draw:
            if a == b:
                continue
            i, j = (int(a), int(b)) if a < b else (int(b), int(a))
            denom = norms[i] * norms[j]
            corr = float(x[:, i] @ x[:, j] / denom) if denom > 0 else 0.0
            out.append((i, j, corr))
            if len(out) == pairs:
                break
    return out
