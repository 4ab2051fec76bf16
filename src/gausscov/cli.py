"""Command-line interface: select, graph, featurize, simulate.

Every user-facing index is 1-based.  Exit codes: 0 on success (an empty
selection is a success), 2 on I/O or parse failures, 3 on configuration
errors; a package error's class fixes its code (``exit_code``).  Selection
draws no random numbers; the commands that do (graph --random, featurize
--corr-pairs, simulate) take --seed, which defaults to 1729 so unseeded runs
are still reproducible.
"""

import argparse
import csv
import dataclasses
import json
import os
import sys
import time

from .errors import DomainError, GausscovError
from .featurize import (
    InteractionSpec,
    load_csv,
    make_interactions,
    make_lags,
    make_trig,
    resolve_column,
    sample_correlations,
    split_response,
)
from .graph import (
    fgr1st,
    graph_to_csv,
    graph_to_dot,
    random_graph_sim,
    undirected_to_csv,
)
from .matrix import standardize
from .select import (
    ApproximationSet,
    SelectionConfig,
    all_subset_select,
    f1st,
    f2st,
    f3st,
)
from .sim import SimSpec, run_sim

DEFAULT_SEED = 1729


class _Parser(argparse.ArgumentParser):
    # argparse usage problems (unknown flags, bad values) are config errors
    def error(self, message):
        raise DomainError(message)


def _fmt_float(v):
    return repr(float(v))


def _add_selection_flags(p, methods=()):
    p.add_argument("--p0", type=float, default=0.01,
                   help="significance level for the Gaussian P-values (default 0.01)")
    p.add_argument("--kmn", type=int, default=0,
                   help="minimum number of covariates taken before the stop rule applies")
    p.add_argument("--max-subset", type=int, default=20, dest="max_subset",
                   help="largest selection refined by exhaustive subset search")
    p.add_argument("--intercept", action=argparse.BooleanOptionalAction, default=True,
                   help="fit an intercept (default on)")
    if methods:
        p.add_argument("--method", choices=methods, default="f1st")
        p.add_argument("--m", type=int, default=1, help="branch depth for f3st")


def _selection_config(args):
    return SelectionConfig(
        p0=args.p0,
        kmn=args.kmn,
        max_subset_refine=args.max_subset,
        intercept=args.intercept,
        m=getattr(args, "m", 1),
    )


def _default_response(m):
    return "y" if "y" in m.names else 1


# ---------------------------------------------------------------------------
# select
# ---------------------------------------------------------------------------

def _print_select_text(out, aset, meta, seconds, include_timing):
    w = out.write
    w(f"method: {meta['method']}\n")
    w(f"n: {meta['n']}\n")
    w(f"q: {meta['q']}\n")
    w(f"response: {meta['response']}\n")
    w(f"approximations: {len(aset)}\n")
    for rank, (r, prov) in enumerate(zip(aset.results, aset.provenance), start=1):
        w(f"\napproximation {rank}: rss {r.rss:.10g}, k {len(r.selected)} [{prov}]\n")
        if r.selected:
            w(f"  {'index':<7}{'name':<18}{'pg':<14}coefficient\n")
            for j, name, pg, c in zip(r.selected, r.names, r.pg, r.coefficients):
                w(f"  {j + 1:<7}{name:<18}{pg:<14.6e}{c:.8g}\n")
        else:
            w("  selected: (none)\n")
        if r.intercept_coefficient is not None:
            pf = "n/a" if r.intercept_pg is None else f"{r.intercept_pg:.6e}"
            w(f"  intercept: coefficient {r.intercept_coefficient:.8g}, pf {pf}\n")
    if include_timing:
        w(f"time: {seconds:.3f}\n")


def _print_select_csv(out, aset):
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["approximation", "rss", "index", "name", "pg", "coefficient"])
    for rank, r in enumerate(aset.results, start=1):
        rss = _fmt_float(r.rss)
        for j, name, pg, c in zip(r.selected, r.names, r.pg, r.coefficients):
            w.writerow([rank, rss, j + 1, name, _fmt_float(pg), _fmt_float(c)])
        if r.intercept_coefficient is not None:
            pf = "" if r.intercept_pg is None else _fmt_float(r.intercept_pg)
            w.writerow([rank, rss, 0, "(intercept)", pf, _fmt_float(r.intercept_coefficient)])


def cmd_select(args):
    m0 = load_csv(args.data, delimiter=args.delimiter, na_policy=args.na_policy)
    response = args.response if args.response is not None else _default_response(m0)
    y, m, resp_name = split_response(m0, response)
    if args.standardize:
        m, _ = standardize(m)
    cfg = _selection_config(args)
    # looked up per call, so a wrapper set on this module's f1st is the one called
    method = {"f1st": f1st, "f2st": f2st, "f3st": f3st,
              "allsubset": all_subset_select}[args.method]
    t0 = time.perf_counter()
    aset = method(m, y, cfg)
    seconds = time.perf_counter() - t0
    if not isinstance(aset, ApproximationSet):
        aset = ApproximationSet([aset], [args.method])
    meta = {
        "method": args.method,
        "n": m.n,
        "q": m.q,
        "response": resp_name,
    }
    if args.output == "text":
        _print_select_text(sys.stdout, aset, meta, seconds, not args.no_timing)
    elif args.output == "csv":
        _print_select_csv(sys.stdout, aset)
    else:
        payload = dict(meta)
        payload["command"] = "select"
        payload["config"] = dataclasses.asdict(cfg)
        payload.update(aset.to_dict(include_trace=args.trace))
        if not args.no_timing:
            payload["seconds"] = seconds
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    return 0


# ---------------------------------------------------------------------------
# graph
# ---------------------------------------------------------------------------

def cmd_graph(args):
    cfg = _selection_config(args)
    if args.random is not None:
        p, n = args.random
        rows = []
        for i in range(args.reps):
            rep = random_graph_sim(p, n, args.seed + i, cfg, rule=args.rule)
            rows.append(rep)
        if args.output == "json":
            payload = {
                "command": "graph-random",
                "config": dataclasses.asdict(cfg),
                "rule": args.rule,
                "runs": [r.to_dict(include_timing=not args.no_timing) for r in rows],
            }
            json.dump(payload, sys.stdout, indent=2, sort_keys=True)
            sys.stdout.write("\n")
        else:
            head = f"{'p':>6}{'n':>6}{'seed':>8}{'edges':>8}{'fp':>6}{'fn':>6}"
            if not args.no_timing:
                head += f"{'time':>10}"
            print(head)
            for r in rows:
                line = (f"{r.p:>6}{r.n:>6}{r.seed:>8}"
                        f"{r.estimated_edges:>8}{r.fp:>6}{r.fn:>6}")
                if not args.no_timing:
                    line += f"{r.seconds:>10.2f}"
                print(line)
        return 0
    if args.data is None:
        raise DomainError("graph needs a data file or --random P N")
    m = load_csv(args.data, delimiter=args.delimiter, na_policy=args.na_policy)
    if args.standardize:
        m, _ = standardize(m)
    t0 = time.perf_counter()
    g = fgr1st(m, cfg, rule=args.rule)
    seconds = time.perf_counter() - t0
    outdir = args.outdir or "."
    os.makedirs(outdir, exist_ok=True)
    graph_to_csv(g, os.path.join(outdir, "edges_directed.csv"))
    undirected_to_csv(g, os.path.join(outdir, "edges_undirected.csv"))
    graph_to_dot(g, os.path.join(outdir, "graph.dot"))
    if args.output == "json":
        payload = {"command": "graph", "config": dataclasses.asdict(cfg),
                   "names": list(m.names)}
        payload.update(g.to_dict())
        if not args.no_timing:
            payload["seconds"] = seconds
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        print(f"nodes: {g.p}")
        print(f"directed edges: {len(g.directed)}")
        print(f"undirected edges ({g.rule} rule): {len(g.undirected)}")
        if not args.no_timing:
            print(f"time: {seconds:.3f}")
    return 0


# ---------------------------------------------------------------------------
# featurize
# ---------------------------------------------------------------------------

def _parse_lags(text):
    lags = []
    for part in text.split(","):
        part = part.strip()
        if ":" in part:
            a, b = part.split(":", 1)
            try:
                a, b = int(a), int(b)
            except ValueError:
                raise DomainError(f"bad lag range {part!r}") from None
            if a > b:
                raise DomainError(f"bad lag range {part!r}")
            lags.extend(range(a, b + 1))
        elif part:
            try:
                lags.append(int(part))
            except ValueError:
                raise DomainError(f"bad lag {part!r}") from None
    if not lags:
        raise DomainError("no lags given")
    return lags


def _write_design_csv(path, y_name, y, design):
    """Write the response and then the columns of the DataMatrix ``design`` to CSV.

    The design is built before the file is opened, so an error while it is
    made leaves an existing file as it was.  Returns the feature names
    written, in column order.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow([y_name] + design.names)
        for yi, row in zip(y, design.values):
            w.writerow([_fmt_float(yi)] + [_fmt_float(v) for v in row])
    return design.names


def cmd_featurize(args):
    modes = [
        args.lags is not None,
        args.trig is not None,
        args.interactions is not None,
        args.corr_pairs is not None,
    ]
    if sum(modes) != 1:
        raise DomainError(
            "featurize needs exactly one of --lags, --trig, --interactions, --corr-pairs"
        )
    m0 = load_csv(args.data, delimiter=args.delimiter, na_policy=args.na_policy)
    if args.corr_pairs is not None:
        rows = sample_correlations(m0, args.corr_pairs, args.seed)
        out = sys.stdout if args.out is None else open(args.out, "w", encoding="utf-8")
        try:
            out.write("i,j,correlation\n")
            for i, j, corr in rows:
                out.write(f"{i + 1},{j + 1},{_fmt_float(corr)}\n")
        finally:
            if out is not sys.stdout:
                out.close()
        return 0
    if args.out is None:
        raise DomainError("featurize needs --out for design construction")
    resp = args.response_var if args.response_var is not None else _default_response(m0)
    r_idx = resolve_column(m0, resp)
    resp_name = m0.names[r_idx]
    if args.lags is not None:
        lags = _parse_lags(args.lags)
        design, y = make_lags(m0.values, lags, response=r_idx, names=m0.names)
    elif args.trig is not None:
        # y alone: a trigonometric design reads no other column
        y = m0.col(r_idx)
        design = make_trig(m0.n, args.trig)
    else:
        y, rest, _ = split_response(m0, resp)
        spec = InteractionSpec(max_degree=args.interactions, dedup=not args.no_dedup)
        design = make_interactions(rest, spec)
    name_map = _write_design_csv(args.out, resp_name, y, design)
    if args.namemap:
        with open(args.namemap, "w", encoding="utf-8") as fh:
            for i, name in enumerate(name_map, start=1):
                fh.write(f"{i}\t{name}\n")
    print(f"wrote {len(name_map)} feature columns to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args):
    design = None
    if args.design is not None:
        design = load_csv(args.design, delimiter=args.delimiter,
                          na_policy=args.na_policy)
        n, q = design.n, design.q
    else:
        n, q = args.n, args.q
    spec = SimSpec(
        n=n,
        q=q,
        active_size=args.active,
        beta=args.beta,
        sigma=args.sigma,
        reps=args.reps,
        seed=args.seed,
        method=args.method,
        selection=_selection_config(args),
    )
    report = run_sim(spec, design=design)
    if args.output == "json":
        print(report.to_json(include_timing=not args.no_timing,
                             include_records=not args.no_records))
    else:
        print(report.to_table(include_timing=not args.no_timing))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser():
    parser = _Parser(
        prog="gausscov",
        description="Model-free covariate selection via Gaussian covariate P-values.",
    )
    sub = parser.add_subparsers(dest="command")

    def add_common_io(p):
        p.add_argument("--delimiter", default=",")
        p.add_argument("--na-policy", choices=["reject", "drop"], default="reject",
                       dest="na_policy")
        p.add_argument("--no-timing", action="store_true",
                       help="omit wall-clock fields (for byte-reproducible output)")

    ps = sub.add_parser("select", help="select covariates for a response column")
    ps.add_argument("data", help="CSV file; response plus candidate columns")
    ps.add_argument("--response", default=None,
                    help="response column name or 1-based index "
                         "(default: column named y, else column 1)")
    ps.add_argument("--standardize", action="store_true",
                    help="standardize candidate columns first")
    ps.add_argument("--output", choices=["text", "json", "csv"], default="text")
    ps.add_argument("--trace", action="store_true",
                    help="include the stepwise trace in JSON output")
    _add_selection_flags(ps, ["f1st", "f2st", "f3st", "allsubset"])
    add_common_io(ps)
    ps.set_defaults(func=cmd_select)

    # no abbreviations here, or a stray --m would be taken as --max-subset
    pg = sub.add_parser("graph", allow_abbrev=False,
                        help="estimate the dependency graph of the columns")
    pg.add_argument("data", nargs="?", default=None)
    pg.add_argument("--rule", choices=["or", "and"], default="or")
    pg.add_argument("--outdir", default=None,
                    help="directory for edges_directed.csv, edges_undirected.csv, graph.dot")
    pg.add_argument("--random", nargs=2, type=int, metavar=("P", "N"), default=None,
                    help="run the seeded random-graph recovery experiment instead")
    pg.add_argument("--reps", type=int, default=1)
    pg.add_argument("--seed", type=int, default=DEFAULT_SEED)
    pg.add_argument("--standardize", action="store_true")
    pg.add_argument("--output", choices=["text", "json"], default="text")
    _add_selection_flags(pg)
    add_common_io(pg)
    pg.set_defaults(func=cmd_graph)

    pf = sub.add_parser("featurize", help="build feature dictionaries from a CSV")
    pf.add_argument("data")
    pf.add_argument("--lags", default=None,
                    help="lag list/ranges, e.g. 1:16 or 1,2,7:9")
    pf.add_argument("--trig", type=int, default=None,
                    help="trigonometric dictionary with this many frequencies")
    pf.add_argument("--interactions", type=int, default=None,
                    help="monomial expansion up to this degree")
    pf.add_argument("--no-dedup", action="store_true",
                    help="keep bitwise-duplicate expansion columns")
    pf.add_argument("--corr-pairs", type=int, default=None, dest="corr_pairs",
                    help="export sampled column correlations as CSV")
    pf.add_argument("--response-var", default=None, dest="response_var",
                    help="response column name or 1-based index")
    pf.add_argument("--out", default=None, help="output CSV path")
    pf.add_argument("--namemap", default=None, help="write index->name TSV here")
    pf.add_argument("--seed", type=int, default=DEFAULT_SEED)
    add_common_io(pf)
    pf.set_defaults(func=cmd_featurize)

    pm = sub.add_parser("simulate", help="seeded recovery simulations")
    pm.add_argument("--n", type=int, default=100)
    pm.add_argument("--q", type=int, default=1000)
    pm.add_argument("--design", default=None, help="CSV design to reuse instead of synthetic")
    pm.add_argument("--active", type=int, default=4)
    pm.add_argument("--beta", type=float, default=20.0)
    pm.add_argument("--sigma", type=float, default=1.0)
    pm.add_argument("--reps", type=int, default=100)
    pm.add_argument("--seed", type=int, default=DEFAULT_SEED)
    pm.add_argument("--output", choices=["text", "json"], default="text")
    pm.add_argument("--no-records", action="store_true", dest="no_records")
    _add_selection_flags(pm, ["f1st", "f3st"])
    add_common_io(pm)
    pm.set_defaults(func=cmd_simulate)

    parser.set_defaults(func=None)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.func is None:
            parser.print_help()
            return 3
        return args.func(args)
    # each package error's class fixes its exit code; OSError exits with 2
    except (GausscovError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)


if __name__ == "__main__":
    sys.exit(main())
