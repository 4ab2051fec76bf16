"""Properties of the selection procedures over random small designs.

Each example draws a design's shape, a seed and the selection settings; the
design and response come from numpy's generator on that seed, with a few
planted signal columns of random strength.  Examples are derandomized, so
every run checks the same designs.
"""

import dataclasses
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import gausscov.select as select  # noqa: E402
from gausscov import DataMatrix, SelectionConfig, all_subset_select, f1st, f3st  # noqa: E402

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@st.composite
def problems(draw, max_q=30):
    """(X, y, cfg): an n x q design, a response on up to three of its columns."""
    n = draw(st.integers(6, 40))
    q = draw(st.integers(2, max_q))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((n, q))
    active = rng.choice(q, size=draw(st.integers(0, min(3, q))), replace=False)
    y = X[:, active] @ rng.uniform(-3.0, 3.0, len(active)) + rng.standard_normal(n)
    cfg = SelectionConfig(intercept=draw(st.booleans()), kmn=draw(st.integers(0, 4)),
                          max_subset_refine=draw(st.sampled_from([0, 2, 20])))
    return X, y, cfg


def in_unit_interval(values):
    return all(0.0 <= v <= 1.0 for v in values)


@SETTINGS
@given(problems())
def test_p_values_are_probabilities_and_rss_falls_along_the_trace(problem):
    X, y, cfg = problem
    r = f1st(DataMatrix(X), y, cfg)
    assert in_unit_interval(r.pg)
    assert in_unit_interval([t.p_f for t in r.trace] + [t.p_g for t in r.trace])
    if r.intercept_pg is not None:
        assert in_unit_interval([r.intercept_pg])
    rss = [t.rss for t in r.trace]
    assert all(b <= a for a, b in zip(rss, rss[1:]))


@SETTINGS
@given(problems())
def test_f3st_root_is_f1st(problem):
    X, y, cfg = problem
    cfg = dataclasses.replace(cfg, m=2)
    r = f1st(DataMatrix(X), y, cfg)
    aset = f3st(DataMatrix(X), y, cfg)
    if r.selected:
        assert aset.results[aset.provenance.index("root")] == r
    else:
        assert len(aset) == 0


@SETTINGS
@given(problems(max_q=11), st.data())
def test_a_column_appended_twice_is_never_kept_twice(problem, data):
    X, y, cfg = problem
    q = X.shape[1]
    # half the time the column the first step would take
    strongest = int(np.argmax(np.abs(X.T @ y) / np.linalg.norm(X, axis=0)))
    j = data.draw(st.one_of(st.just(strongest), st.integers(0, q - 1)))
    m = DataMatrix(np.column_stack([X, X[:, j]]))
    for r in [f1st(m, y, cfg), *all_subset_select(m, y, cfg)]:
        assert in_unit_interval(r.pg)
        assert not {j, q} <= set(r.selected)


@SETTINGS
@given(problems(max_q=16), st.sampled_from([0, 2, 4]))
def test_refined_set_is_the_exhaustive_searchs_best(problem, kmn):
    # the bounded search that f1st refines with gives the same (rss, size,
    # positions) as scoring every subset of its stepwise set
    X, y, cfg = problem
    cfg = dataclasses.replace(cfg, kmn=kmn, max_subset_refine=20)
    m = DataMatrix(X)
    fit = f1st(m, y, cfg, _stepwise=True)
    rss, size, pos = min((tuple(hit) for _, *hit in
                          select._passing_subsets([fit], cfg.p0, bounded=False)),
                         default=(math.inf, 0, ()))
    r = f1st(m, y, cfg)
    assert r.selected == [fit.cols[i] for i in pos]
    assert len(r.selected) == size
    if size:
        assert r.rss == rss
