"""The four benchmark workloads: inputs from a seed, one op, its output summary.

Each workload draws its inputs from a bank of ``cases`` numbered cases, and a
run's ``--seed`` picks the case (``seed % cases``).  The bank is finite so
that every op's output can be checked against a reference recorded from the
code that defined the benchmark (``reference/<workload>.json``).

An op returns a summary that holds every checked output: selected sets in
order, their P-values, and whatever the recovery counts need.  Summaries are
plain JSON values so that references compare by ``compare``.
"""

import json
import os
import subprocess
import sys

import numpy as np

# relative tolerance on every P-value against its reference
PVALUE_RTOL = 1e-10


def _rng(*key):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(key))))


def _f(v):
    return None if v is None else float(v)


def _approximation(res):
    """[selected (0-based, in order), pg, intercept pg] of one SelectionResult."""
    return [[int(j) for j in res.selected], [float(p) for p in res.pg], _f(res.intercept_pg)]


def _fp_fn(truth, selected):
    t, s = set(truth), set(selected)
    return len(s - t), len(t - s)


class WideF3st:
    """f3st(m=2) on one wide standardized design, a fresh 5-sparse response per op."""

    root_key = "bench"
    name = "wide_f3st"
    item = "f3st requests"
    cases = 8

    # At q=40000 (160 MB) op times on a shared 2-CPU host varied by a factor of
    # two between runs; at 80 MB scans still dominate and the middle half of ten
    # runs spreads about 10% of their median.
    def __init__(self, n=500, q=20_000, responses=4, active=5):
        self.n, self.q, self.cycle, self.active = n, q, responses, active

    def setup(self, case):
        from gausscov import matrix

        # drawn q x n and transposed, so the n x q view is Fortran-ordered
        x = _rng(case, 0).standard_normal((self.q, self.n)).T
        m, _ = matrix.standardize(matrix.DataMatrix(x, copy=False))
        del x
        ys, truths = [], []
        for r in range(self.cycle):
            rng = _rng(case, 1, r)
            act = sorted(int(j) for j in rng.choice(self.q, self.active, replace=False))
            ys.append(m.values[:, act].sum(axis=1) + rng.standard_normal(self.n))
            truths.append(act)
        return {"m": m, "ys": ys, "truths": truths, "bytes": 8 * self.n * self.q}

    def op(self, inputs, i, tracer=None):
        from gausscov import select

        aset = select.f3st(inputs["m"], inputs["ys"][i % self.cycle],
                           select.SelectionConfig(m=2))
        return aset, 1

    def summary(self, inputs, raw):
        return [_approximation(r) for r in raw.results]

    def recovery(self, inputs, summaries):
        """fp, fn of each cycle position's best approximation, summed."""
        fp = fn = 0
        for i, s in summaries.items():
            a, b = _fp_fn(inputs["truths"][i], s[0][0] if s else [])
            fp, fn = fp + a, fn + b
        return fp, fn, {}


class Graph1000:
    """fgr1st on a random Gaussian graphical model with p = n = 1000."""

    root_key = "bench"
    name = "graph_1000"
    item = "node regressions"
    cases = 7  # 7 divides 1729, so --seed 1729 runs the README graph

    def __init__(self, p=1000, n=1000):
        self.p, self.n, self.cycle = p, n, 1

    def graph_seed(self, case):
        return 1729 + case

    def setup(self, case):
        from scipy.linalg import solve_triangular

        from gausscov import graph, matrix

        seed = self.graph_seed(case)
        edges, prec = graph.random_graph_model(self.p, seed)
        # the sampling of graph.random_graph_sim, so seed 1729 matches the README
        chol = np.linalg.cholesky(prec)
        z = _rng(seed, 1).standard_normal((self.p, self.n))
        x = solve_triangular(chol.T, z, lower=False).T
        m, _ = matrix.standardize(matrix.DataMatrix(x, copy=False))
        return {"m": m, "truth": [list(e) for e in edges], "seed": seed,
                "bytes": 8 * self.n * self.p}

    def op(self, inputs, i, tracer=None):
        from gausscov import graph

        return graph.fgr1st(inputs["m"]), self.p

    def summary(self, inputs, raw):
        fp, fn = _fp_fn({tuple(e) for e in inputs["truth"]}, set(raw.undirected))
        return {"directed": [[int(a), int(b), float(pg)] for a, b, pg in raw.directed],
                "edges": len(raw.undirected), "fp": fp, "fn": fn}

    def recovery(self, inputs, summaries):
        s = summaries[0]
        return s["fp"], s["fn"], {"edges": s["edges"]}


class SimKmn10:
    """run_sim at n=71, q=4088: ten forced steps and a 2^10 subset refinement per replicate."""

    root_key = "bench"
    name = "sim_kmn10"
    item = "replicates"
    cases = 8

    def __init__(self, n=71, q=4088, reps=100):
        self.n, self.q, self.reps, self.cycle = n, q, reps, 1

    def spec(self, case):
        from gausscov import select, sim

        return sim.SimSpec(n=self.n, q=self.q, active_size=4, beta=20.0, reps=self.reps,
                           seed=case, selection=select.SelectionConfig(kmn=10))

    def setup(self, case):
        from gausscov import matrix

        # the raw design run_sim would draw for this seed; run_sim standardizes it
        x = _rng(case, 0).standard_normal((self.q, self.n)).T
        return {"design": matrix.DataMatrix(x, copy=False), "spec": self.spec(case),
                "bytes": 8 * self.n * self.q}

    def op(self, inputs, i, tracer=None):
        from gausscov import sim

        return sim.run_sim(inputs["spec"], design=inputs["design"]), self.reps

    def summary(self, inputs, raw):
        return {"selected": [[int(j) for j in r.selected] for r in raw.records],
                "active": [[int(j) for j in r.active] for r in raw.records]}

    def recovery(self, inputs, summaries):
        s = summaries[0]
        fp = fn = 0
        for act, sel in zip(s["active"], s["selected"]):
            a, b = _fp_fn(act, sel)
            fp, fn = fp + a, fn + b
        return fp, fn, {}


class CliCsv:
    """``python -m gausscov.cli select`` on a 500 x 1000 CSV with a planted y."""

    name = "cli_csv"
    item = "invocations"
    cases = 8
    # the op's time outside the child's main() is interpreter start-up and imports
    root_key = "cli.startup"

    # At q=4000 (40 MB) an op took 2.5 s, so a run held under ten ops and its
    # median op time moved by a quarter between runs on a shared 2-CPU host;
    # 10 MB gives about 1 s ops, half of it in load_csv, half in start-up.
    def __init__(self, root, workdir, n=500, q=1000, active=5):
        self.root, self.workdir = root, workdir
        self.n, self.q, self.active, self.cycle = n, q, active, 1

    def setup(self, case):
        rng = _rng(case, 2)
        x = rng.standard_normal((self.n, self.q))
        act = sorted(int(j) for j in rng.choice(self.q, self.active, replace=False))
        y = x[:, act].sum(axis=1) + rng.standard_normal(self.n)
        os.makedirs(self.workdir, exist_ok=True)
        path = os.path.join(self.workdir, f"cli_csv-{case}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(["y"] + [f"x{j + 1}" for j in range(self.q)]) + "\n")
            for row in np.column_stack([y, x]).tolist():
                fh.write(",".join(map(repr, row)) + "\n")
        return {"path": path, "truth": act, "bytes": os.path.getsize(path)}

    def _env(self):
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return env

    def op(self, inputs, i, tracer=None):
        args = ["select", inputs["path"], "--output", "json", "--no-timing"]
        if tracer is None:
            cmd = [sys.executable, "-m", "gausscov.cli", *args]
            spans_path = None
        else:
            spans_path = os.path.join(self.workdir, "cli_spans.json")
            child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")
            cmd = [sys.executable, child, spans_path, *args]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=self._env(),
                              cwd=self.workdir, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"CLI exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        if spans_path is not None:
            with open(spans_path, encoding="utf-8") as fh:
                tracer.absorb(json.load(fh))
            os.remove(spans_path)
        return proc.stdout, 1

    def summary(self, inputs, raw):
        best = json.loads(raw)["approximations"][0]
        intercept = best.get("intercept", {}).get("pg")
        return [[j - 1 for j in best["selected"]], best["pg"], _f(intercept)]

    def recovery(self, inputs, summaries):
        fp, fn = _fp_fn(inputs["truth"], summaries[0][0])
        return fp, fn, {}


def make(name, root, workdir):
    if name == "wide_f3st":
        return WideF3st()
    if name == "graph_1000":
        return Graph1000()
    if name == "sim_kmn10":
        return SimKmn10()
    if name == "cli_csv":
        return CliCsv(root, workdir)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ["wide_f3st", "graph_1000", "sim_kmn10", "cli_csv"]


def compare(out, ref, path="$"):
    """Mismatches between an op summary and its reference.

    Integers, strings, list lengths and None must match exactly; floats must
    agree within ``PVALUE_RTOL`` relative to the reference.
    """
    if isinstance(ref, float) and isinstance(out, (int, float)) and not isinstance(out, bool):
        if abs(out - ref) <= PVALUE_RTOL * abs(ref):
            return []
        return [f"{path}: {out!r} != {ref!r}"]
    if isinstance(ref, list):
        if not isinstance(out, list) or len(out) != len(ref):
            return [f"{path}: {_short(out)} != {_short(ref)}"]
        bad = []
        for k, (a, b) in enumerate(zip(out, ref)):
            bad.extend(compare(a, b, f"{path}[{k}]"))
            if len(bad) > 5:
                break
        return bad
    if isinstance(ref, dict):
        if not isinstance(out, dict) or set(out) != set(ref):
            return [f"{path}: keys differ"]
        bad = []
        for k in ref:
            bad.extend(compare(out[k], ref[k], f"{path}.{k}"))
        return bad
    return [] if out == ref and type(out) is type(ref) else [f"{path}: {out!r} != {ref!r}"]


def _short(v):
    text = repr(v)
    return text if len(text) < 80 else text[:77] + "..."
