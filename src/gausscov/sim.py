"""Seeded recovery simulations: plant a sparse signal, select, score.

Every replicate derives its own generator from the master seed through
SeedSequence spawning of counter-based Philox streams, so runs are
bit-reproducible on any platform and independent of the order replicates
run in.
"""

import json
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError
from .matrix import DataMatrix, standardize
from .parallel import ordered_map
from .select import SelectionConfig, f1st, f3st

__all__ = ["RepRecord", "SimReport", "SimSpec", "run_sim", "score_selection"]


@dataclass(frozen=True)
class SimSpec:
    """One simulation experiment.

    A design is generated (standard normal, n x q) or loaded, and standardized.
    Each replicate plants ``active_size`` covariates with coefficient ``beta``,
    adds N(0, sigma^2) noise, runs the selection method, and scores the
    selected set against the planted one.  ``beta = 0`` turns the experiment
    into a null calibration: the truth is the empty set.
    """

    n: int = 100
    q: int = 1000
    active_size: int = 4
    beta: float = 20.0
    sigma: float = 1.0
    reps: int = 100
    seed: int = 1729
    method: str = "f1st"
    selection: SelectionConfig = field(default_factory=SelectionConfig)

    def __post_init__(self):
        if self.method not in ("f1st", "f3st"):
            raise DomainError(f"method must be 'f1st' or 'f3st', got {self.method!r}")
        if self.reps < 1:
            raise DomainError(f"reps must be >= 1, got {self.reps}")
        if self.active_size < 0:
            raise DomainError(f"active_size must be >= 0, got {self.active_size}")
        if self.sigma < 0:
            raise DomainError(f"sigma must be >= 0, got {self.sigma}")


def score_selection(truth, selected):
    """Return (false positives, false negatives, exact match)."""
    t = set(truth)
    s = set(selected)
    fp = len(s - t)
    fn = len(t - s)
    return fp, fn, fp == 0 and fn == 0


@dataclass
class RepRecord:
    rep: int
    active: list
    selected: list
    fp: int
    fn: int
    exact: bool
    seconds: float


@dataclass
class SimReport:
    """Aggregated recovery metrics plus the per-replicate records."""

    spec: SimSpec
    fp_mean: float
    fn_mean: float
    pct_correct: float
    mean_seconds: float
    records: list

    def to_dict(self, include_timing=True, include_records=True):
        d = {
            "n": self.spec.n,
            "q": self.spec.q,
            "active_size": self.spec.active_size,
            "beta": self.spec.beta,
            "sigma": self.spec.sigma,
            "reps": self.spec.reps,
            "seed": self.spec.seed,
            "method": self.spec.method,
            "p0": self.spec.selection.p0,
            "kmn": self.spec.selection.kmn,
            "m": self.spec.selection.m,
            "fp_mean": self.fp_mean,
            "fn_mean": self.fn_mean,
            "pct_correct": self.pct_correct,
        }
        if include_timing:
            d["mean_seconds"] = self.mean_seconds
        if include_records:
            d["records"] = [
                {
                    "rep": r.rep,
                    "active": [a + 1 for a in r.active],
                    "selected": [s + 1 for s in r.selected],
                    "fp": r.fp,
                    "fn": r.fn,
                    "exact": r.exact,
                    **({"seconds": r.seconds} if include_timing else {}),
                }
                for r in self.records
            ]
        return d

    def to_json(self, include_timing=True, include_records=True):
        return json.dumps(
            self.to_dict(include_timing=include_timing, include_records=include_records),
            indent=2,
            sort_keys=True,
        )

    def to_table(self, include_timing=True):
        """Aligned text row: method, mean fp, mean fn, percent exactly correct."""
        label = self.spec.method
        if self.spec.method == "f3st":
            label = f"f3st(m={self.spec.selection.m})"
        head = f"{'method':<12}{'fp':>8}{'fn':>8}{'%correct':>10}"
        row = f"{label:<12}{self.fp_mean:>8.2f}{self.fn_mean:>8.2f}{self.pct_correct:>10.1f}"
        if include_timing:
            head += f"{'time':>10}"
            row += f"{self.mean_seconds:>10.3f}"
        return head + "\n" + row


def _make_design(spec):
    ss_design = np.random.SeedSequence([spec.seed, 0])
    rng = np.random.Generator(np.random.Philox(ss_design))
    # draw transposed so the n x q view is Fortran-ordered without a copy
    x = rng.standard_normal((spec.q, spec.n)).T
    m, _ = standardize(DataMatrix(x, copy=False))
    return m


def run_sim(spec, design=None):
    """Run the experiment described by ``spec``.

    ``design`` may supply a pre-built DataMatrix (it is standardized here);
    otherwise an i.i.d. standard normal design is generated from the seed.
    Replicates run in index order on the calling thread.
    """
    if design is None:
        m = _make_design(spec)
    else:
        m, _ = standardize(design)
        if (m.n, m.q) != (spec.n, spec.q):
            spec = replace(spec, n=m.n, q=m.q)
    if spec.active_size > m.q:
        raise DomainError(f"active_size {spec.active_size} exceeds q={m.q}")
    rep_seeds = np.random.SeedSequence([spec.seed, 1]).spawn(spec.reps)

    def one_rep(r):
        rng = np.random.Generator(np.random.Philox(rep_seeds[r]))
        active = sorted(int(a) for a in rng.choice(m.q, size=spec.active_size, replace=False))
        y = rng.standard_normal(m.n) * spec.sigma
        if spec.beta != 0.0 and active:
            y += spec.beta * m.values[:, active].sum(axis=1)
        truth = active if spec.beta != 0.0 else []
        t0 = time.perf_counter()
        if spec.method == "f1st":
            sel = f1st(m, y, spec.selection).selected
        else:
            approx = f3st(m, y, spec.selection)
            sel = approx.best.selected if approx.best is not None else []
        dt = time.perf_counter() - t0
        fp, fn, exact = score_selection(truth, sel)
        return RepRecord(r, list(truth), list(sel), fp, fn, exact, dt)

    records = ordered_map(one_rep, range(spec.reps))
    fp_mean = sum(r.fp for r in records) / spec.reps
    fn_mean = sum(r.fn for r in records) / spec.reps
    pct = 100.0 * sum(r.exact for r in records) / spec.reps
    secs = sum(r.seconds for r in records) / spec.reps
    return SimReport(spec, fp_mean, fn_mean, pct, secs, records)
