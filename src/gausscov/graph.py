"""Dependency-graph estimation: one Gaussian-covariate regression per node.

Each column of the data is regressed on all the others with ``f1st``; the
selected covariates become the node's outgoing directed edges, each carrying
its Gaussian P-value.  An undirected graph follows by the "or" rule (an edge
when either direction was selected) or the stricter "and" rule.  Nodes run one
after another and their edges merge in node order.

Also provides a seeded random-graph generator (geometric Gaussian graphical
model with bounded degree) and fp/fn scoring against its ground truth.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from .errors import DomainError, GenerationFailure
from .matrix import DataMatrix, gram, standardize
from .parallel import ordered_map
from .select import SelectionConfig, f1st

__all__ = [
    "GraphResult",
    "GraphSimReport",
    "fgr1st",
    "graph_to_csv",
    "graph_to_dot",
    "random_graph_model",
    "random_graph_sim",
    "undirected_to_csv",
]

# Edge probability between nodes at distance d on the unit square is
# min(1, _KERNEL_SCALE * phi(d * sqrt(p))) with phi the standard normal
# density; with the degree cap of 4 this yields about 1.8 edges per node.
_KERNEL_SCALE = 2.0
_DEGREE_CAP = 4
_PRECISION_OFFDIAG = 0.245


@dataclass
class GraphResult:
    """Directed and undirected dependency graphs over the columns."""

    p: int
    names: list
    directed: list  # (source, target, pg), sorted by (source, target)
    rule: str
    undirected: list = field(default_factory=list)  # (i, j) with i < j, sorted

    def to_dict(self):
        return {
            "p": self.p,
            "rule": self.rule,
            "directed": [
                {"from": a + 1, "to": b + 1, "pg": pg} for a, b, pg in self.directed
            ],
            "undirected": [{"a": a + 1, "b": b + 1} for a, b in self.undirected],
        }


def _combine(directed, rule):
    seen = {}
    for a, b, _ in directed:
        key = (min(a, b), max(a, b))
        seen[key] = seen.get(key, 0) + 1
    if rule == "or":
        return sorted(seen)
    return sorted(k for k, c in seen.items() if c >= 2)


def fgr1st(m, cfg=None, rule="or"):
    """Estimate the dependency graph of the columns of ``m``.

    Runs ``f1st`` for every node j with node j itself excluded from candidacy.
    ``rule`` combines directions into undirected edges: "or" keeps an edge when
    either regression selected it, "and" requires both.

    When there are no more columns than rows, the q x q Gram matrix of the
    columns (centred when the intercept is fitted) is formed once, and every
    node regression scans and extends from it without a pass over the data;
    the reported fits are still read from the n rows.
    """
    if cfg is None:
        cfg = SelectionConfig()
    if rule not in ("or", "and"):
        raise DomainError(f"rule must be 'or' or 'and', got {rule!r}")
    if m.q < 2:
        raise DomainError("graph estimation needs at least 2 columns")

    # G is no larger than the data, and costs about one pass over it per node
    g = gram(m, centred=cfg.intercept) if m.q <= m.n else None

    def run_node(j):
        y = np.array(m.col(j))
        r = f1st(m, y, cfg, exclude=(j,), _gram=None if g is None else (g, j))
        return [(j, i, pg) for i, pg in zip(r.selected, r.pg)]

    per_node = ordered_map(run_node, range(m.q))
    directed = [e for sub in per_node for e in sub]
    return GraphResult(
        p=m.q,
        names=list(m.names),
        directed=directed,
        rule=rule,
        undirected=_combine(directed, rule),
    )


def graph_to_csv(g, path):
    """Write the directed edge list as ``from,to,pg`` with 1-based indices."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("from,to,pg\n")
        for a, b, pg in g.directed:
            fh.write(f"{a + 1},{b + 1},{pg:.6g}\n")


def undirected_to_csv(g, path):
    """Write the undirected edge list as ``from,to`` with 1-based indices."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("from,to\n")
        for a, b in g.undirected:
            fh.write(f"{a + 1},{b + 1}\n")


def graph_to_dot(g, path, directed=False):
    """Write the graph in DOT format, naming nodes by their column names."""
    def q(s):
        return '"' + s.replace('"', r'\"') + '"'

    lines = []
    if directed:
        lines.append("digraph gausscov {")
        for a, b, pg in g.directed:
            lines.append(f"  {q(g.names[a])} -> {q(g.names[b])} [label={q(f'{pg:.3g}')}];")
    else:
        lines.append("graph gausscov {")
        for a, b in g.undirected:
            lines.append(f"  {q(g.names[a])} -- {q(g.names[b])};")
    lines.append("}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# random graphical models
# ---------------------------------------------------------------------------

def random_graph_model(p, seed):
    """Random sparse Gaussian graphical model on ``p`` nodes.

    Nodes are placed uniformly on the unit square; a pair is a candidate edge
    with probability given by a Gaussian kernel of the distance scaled by
    sqrt(p); candidates are accepted in random order while both endpoints keep
    degree < 4.  The precision matrix has unit diagonal and 0.245 on edges,
    which is strictly diagonally dominant, hence positive definite.

    Returns ``(edges, precision)`` with ``edges`` a sorted list of (i, j),
    i < j.
    """
    if p < 2:
        raise DomainError(f"need at least 2 nodes, got {p}")
    ss = np.random.SeedSequence(seed)
    ss_pts, ss_draw, ss_order = ss.spawn(3)
    rng_pts = np.random.Generator(np.random.Philox(ss_pts))
    pts = rng_pts.uniform(size=(p, 2))
    iu, ju = np.triu_indices(p, k=1)
    d = np.hypot(pts[iu, 0] - pts[ju, 0], pts[iu, 1] - pts[ju, 1])
    prob = np.minimum(
        1.0, _KERNEL_SCALE * np.exp(-0.5 * (d * math.sqrt(p)) ** 2) / math.sqrt(2.0 * math.pi)
    )
    rng_draw = np.random.Generator(np.random.Philox(ss_draw))
    hit = rng_draw.random(prob.size) < prob
    cand = np.flatnonzero(hit)
    rng_order = np.random.Generator(np.random.Philox(ss_order))
    cand = cand[rng_order.permutation(cand.size)]
    degree = np.zeros(p, dtype=np.intp)
    edges = []
    for idx in cand:
        a, b = int(iu[idx]), int(ju[idx])
        if degree[a] < _DEGREE_CAP and degree[b] < _DEGREE_CAP:
            degree[a] += 1
            degree[b] += 1
            edges.append((a, b))
    edges.sort()
    prec = np.eye(p)
    for a, b in edges:
        prec[a, b] = prec[b, a] = _PRECISION_OFFDIAG
    return edges, prec


def _sample_from_precision(prec, n, rng):
    p = prec.shape[0]
    try:
        L = np.linalg.cholesky(prec)
    except np.linalg.LinAlgError:
        # defensive diagonal loading; the construction above should never need it
        w = np.linalg.eigvalsh(prec)
        prec = prec + (abs(float(w[0])) + 1e-6) * np.eye(p)
        try:
            L = np.linalg.cholesky(prec)
        except np.linalg.LinAlgError as exc:
            raise GenerationFailure("precision matrix is not positive definite") from exc
    z = rng.standard_normal((p, n))
    return solve_triangular(L.T, z, lower=False).T


@dataclass
class GraphSimReport:
    """Recovery metrics of one random-graph run."""

    p: int
    n: int
    seed: int
    rule: str
    true_edges: int
    estimated_edges: int
    fp: int
    fn: int
    seconds: float

    def to_dict(self, include_timing=True):
        d = {
            "p": self.p,
            "n": self.n,
            "seed": self.seed,
            "rule": self.rule,
            "true_edges": self.true_edges,
            "estimated_edges": self.estimated_edges,
            "fp": self.fp,
            "fn": self.fn,
        }
        if include_timing:
            d["seconds"] = self.seconds
        return d


def random_graph_sim(p, n, seed, cfg=None, rule="or"):
    """Generate a random graphical model, sample n rows, estimate, and score."""
    if cfg is None:
        cfg = SelectionConfig()
    edges, prec = random_graph_model(p, seed)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, 1])))
    x = _sample_from_precision(prec, n, rng)
    m, _ = standardize(DataMatrix(x, copy=False))
    t0 = time.perf_counter()
    g = fgr1st(m, cfg, rule=rule)
    dt = time.perf_counter() - t0
    truth = set(edges)
    est = set(g.undirected)
    return GraphSimReport(
        p=p,
        n=n,
        seed=seed,
        rule=rule,
        true_edges=len(truth),
        estimated_edges=len(est),
        fp=len(est - truth),
        fn=len(truth - est),
        seconds=dt,
    )
