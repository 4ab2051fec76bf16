"""gausscov benchmark: four workloads, end-to-end metrics, per-layer trace.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 perfbench/run.py --workload wide_f3st --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``wide_f3st``, ``graph_1000``,
``sim_kmn10``, ``cli_csv``.  One client sends ops in a closed loop, each op
after the previous one returns, with the package's default thread settings.

``--trace 0`` sets the inputs up several times (their median is ``setup_s``),
runs one untimed warm-up op, then runs ops for ``--seconds`` and reports the
end-to-end metrics.
``--trace 1`` alternates whole cycles of ops untraced and traced until the
traced ops add up to ``--seconds``, and reports per-op layer self times and
counts; the ratio of the two kinds' mean op times is the tracing overhead.
For ``graph_1000`` and ``sim_kmn10`` it also runs the workload once in a
child process with GAUSSCOV_THREADS=1 OPENBLAS_NUM_THREADS=1 as an ungated
single-thread reference.

Every op's output is checked against ``reference/<workload>.json``; any
mismatch or error counts as failed and the exit code is 1.  Human-readable
lines go first; the last line of standard output is one JSON object.  A
result file with the environment record is written to ``.perfbench/results``.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import tracer as tracer_mod
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 5
SETUP_MIN_S = 1.0
WARMUP_OPS = 1
SINGLE_THREAD_REFERENCE = ("graph_1000", "sim_kmn10")
# per-layer self times; they partition trace.busy_s
SELF_TIMES = ("matrix.scan_s", "matrix.scan_setup_s", "matrix.extend_s",
              "matrix.op_standardize_s", "select.self_s", "pvalues.s", "graph.self_s",
              "sim.self_s", "featurize.load_csv_s", "cli.self_s", "cli.startup_s",
              "bench.self_s")


def _quantile(values, q):
    """Linear interpolation between order statistics."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _read_first(path, prefix):
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _l3_bytes():
    raw = None
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size", encoding="utf-8") as fh:
            raw = fh.read().strip()
    except OSError:
        raw = _read_first("/proc/cpuinfo", "cache size")
    if not raw:
        return None, None
    digits = "".join(ch for ch in raw if ch.isdigit())
    scale = 1024 if "K" in raw.upper() else 1024 * 1024 if "M" in raw.upper() else 1
    return raw, int(digits) * scale if digits else None


def environment(design_bytes):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, AttributeError):
        blas = {"name": None, "version": None}
    l3_text, l3 = _l3_bytes()
    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _read_first("/proc/cpuinfo", "model name") or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in
                    ("GAUSSCOV_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "l3_reported": l3_text,
        "design_bytes": design_bytes,
    }
    if l3:
        env["design_over_l3"] = design_bytes / l3
        env["x_bytes_note"] = (
            "matrix.x_bytes is computed (8*n*q per pass over X, from the call structure), "
            + ("not measured; the design is below 4x L3, so no bandwidth fraction is claimed"
               if design_bytes < 4 * l3 else "not measured")
        )
    return env


def measure(wl, inputs, seconds, tracer=None, whole_cycles=False, first=0):
    """Closed loop of ops for at least ``seconds``; returns [(dt, items, raw, error)].

    Op indices start at ``first``; op i uses the inputs of cycle position
    ``i % wl.cycle``.
    """
    out = []
    start = time.perf_counter()
    i = first
    while True:
        err = None
        if tracer is not None:
            tracer.op = i
        with contextlib.nullcontext() if tracer is None else tracer.span(wl.root_key, "op"):
            t0 = time.perf_counter()
            try:
                raw, items = wl.op(inputs, i, tracer)
            except Exception:  # an op that raises is a failed op, reported below
                raw, items, err = None, 0, traceback.format_exc(limit=4)
            dt = time.perf_counter() - t0
        out.append((dt, items, raw, err))
        i += 1
        if time.perf_counter() - start >= seconds and (not whole_cycles or i % wl.cycle == 0):
            return out


def check(wl, inputs, ops, refs):
    """Summaries by cycle position and one failure message per failed op."""
    failures, summaries = [], {}
    for i, (_dt, _items, raw, err) in enumerate(ops):
        pos = i % wl.cycle
        if err is not None:
            failures.append(f"op {i}: raised\n{err}")
            continue
        try:
            summary = wl.summary(inputs, raw)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            failures.append(f"op {i}: unreadable output: {exc!r}")
            continue
        bad = workloads.compare(summary, refs["outputs"][pos])
        if bad:
            failures.append(f"op {i}: output differs from reference: " + "; ".join(bad[:3]))
            continue
        summaries.setdefault(pos, summary)
    return summaries, failures


def recovery_checks(wl, inputs, summaries, refs):
    """fp, fn (and extras) of one cycle, compared with the recorded ones."""
    if len(summaries) < wl.cycle:
        return None, []
    fp, fn, extra = wl.recovery(inputs, summaries)
    got = {"fp": fp, "fn": fn, **extra}
    bad = [] if got == refs["recovery"] else [f"recovery {got} != reference {refs['recovery']}"]
    if wl.name == "graph_1000" and inputs["seed"] == 1729:
        readme = {"fp": 10, "fn": 0, "edges": 1606}
        if got != readme:
            bad.append(f"graph seed 1729 gives {got}, README states {readme}")
    return got, bad


def run_plain(wl, case, seconds):
    setup_times, inputs = [], None
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S:
        inputs = None  # release the previous inputs before building new ones
        t0 = time.perf_counter()
        inputs = wl.setup(case)
        setup_times.append(time.perf_counter() - t0)
    # thread pools start and lazy caches fill in the warm-up op; it is checked, not timed
    ops = []
    while len(ops) < WARMUP_OPS:
        ops += measure(wl, inputs, 0.0, first=len(ops))
    ops += measure(wl, inputs, seconds, first=len(ops))
    return inputs, ops, setup_times


def run_traced(wl, case, seconds):
    setup_tracer = tracer_mod.Tracer()
    setup_tracer.install()
    try:
        with setup_tracer.span("bench", "setup"):
            inputs = wl.setup(case)
    finally:
        setup_tracer.uninstall()
    # Untraced and traced cycles alternate, so drift of the host's speed during
    # the run does not show up as tracing overhead.
    untraced, traced = [], []
    tr = tracer_mod.Tracer()
    while sum(dt for dt, *_x in traced) < seconds:
        untraced += measure(wl, inputs, 0.0, whole_cycles=True, first=len(untraced))
        tr.install()
        try:
            traced += measure(wl, inputs, 0.0, tracer=tr, whole_cycles=True, first=len(traced))
        finally:
            tr.uninstall()
    return inputs, untraced, traced, setup_tracer, tr


def single_thread_reference(workload, seed):
    env = dict(os.environ, GAUSSCOV_THREADS="1", OPENBLAS_NUM_THREADS="1")
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"}
    res = json.loads(lines[-1])
    return {"env": {"GAUSSCOV_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"},
            "correct": res["correct"],
            **{k: v["value"] for k, v in res["metrics"].items()
               if k in ("items_per_s", "op_p50_s")}}


def plain_metrics(wl, ops, setup_times, failures, recovery):
    timed = ops[WARMUP_OPS:]
    dts = [dt for dt, _i, _r, err in timed if err is None] or [float("nan")]
    items = sum(it for _dt, it, _r, err in timed if err is None)
    usage = resource.RUSAGE_CHILDREN if wl.name == "cli_csv" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "items_per_s": (items / sum(dt for dt, *_ in timed), "1/s"),
        "op_p50_s": (statistics.median(dts), "s"),
        "op_p90_s": (_quantile(dts, 0.9), "s"),
        "peak_rss_mb": (resource.getrusage(usage).ru_maxrss / 1024.0, "MB"),
    }
    extra = {
        "fail_ratio": (len(failures) / len(ops), "ratio"),
        "false_pos": (None if recovery is None else recovery["fp"], "count"),
        "false_neg": (None if recovery is None else recovery["fn"], "count"),
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups",
        "items_per_s": wl.item + " per second",
        "op_p50_s": f"n={len(dts)} ops after {WARMUP_OPS} warm-up",
        "op_p90_s": f"n={len(dts)} ops after {WARMUP_OPS} warm-up",
        "peak_rss_mb": "ru_maxrss of " + ("the CLI processes" if wl.name == "cli_csv"
                                          else "this process, set-up included"),
        "fail_ratio": f"{len(failures)}/{len(ops)} ops",
        "false_pos": "one cycle of distinct inputs vs the planted truth",
        "false_neg": "one cycle of distinct inputs vs the planted truth",
    }
    return metrics, extra, notes


def layer_metrics(setup_tracer, tr, traced, untraced):
    ops = len(traced)
    s = tracer_mod.summarize(tr.spans(), ops)
    lay = s["layers"]

    def get(key, field):
        return lay.get(key, {}).get(field, 0.0)

    setup_std = sum((sp.self_s for sp in setup_tracer.spans() if sp.key == "matrix.standardize"),
                    0.0)
    lookups = tr.cache_hits + tr.cache_misses
    mean_traced = sum(dt for dt, *_ in traced) / ops
    mean_untraced = sum(dt for dt, *_ in untraced) / len(untraced)
    m = {
        "matrix.scan_s": (get("matrix.scan", "self_s"), "s/op"),
        "matrix.scan_calls": (get("matrix.scan", "calls"), "count/op"),
        "matrix.scan_setup_s": (get("matrix.scan_setup", "self_s"), "s/op"),
        "matrix.scan_setup_calls": (get("matrix.scan_setup", "calls"), "count/op"),
        "matrix.extend_s": (get("matrix.extend", "self_s"), "s/op"),
        "matrix.extend_calls": (get("matrix.extend", "calls"), "count/op"),
        "matrix.x_bytes": (get("matrix.scan", "n") + get("matrix.scan_setup", "n")
                           + get("matrix.extend", "n"), "B/op"),
        "matrix.standardize_s": (setup_std, "s"),
        "matrix.op_standardize_s": (get("matrix.standardize", "self_s"), "s/op"),
        "select.self_s": (get("select", "self_s"), "s/op"),
        "select.f1st_calls": (s["f1st_calls"], "count/op"),
        "select.steps": (s["steps"], "count/op"),
        "pvalues.s": (get("pvalues", "self_s"), "s/op"),
        "pvalues.calls": (get("pvalues", "calls"), "count/op"),
        "pvalues.beta_cdf_inv_hit_ratio": (tr.cache_hits / lookups if lookups else 0.0, "ratio"),
        "parallel.wall_s": (s["parallel_wall_s"], "s/op"),
        "parallel.task_busy_s": (s["parallel_task_busy_s"], "s/op"),
        "parallel.efficiency": (s["parallel_efficiency"], "ratio"),
        "graph.self_s": (get("graph", "self_s"), "s/op"),
        "sim.self_s": (get("sim", "self_s"), "s/op"),
        "featurize.load_csv_s": (get("featurize.load_csv", "self_s"), "s/op"),
        "featurize.cells": (get("featurize.load_csv", "n"), "count/op"),
        "cli.self_s": (get("cli", "self_s"), "s/op"),
        "cli.startup_s": (get("cli.startup", "self_s"), "s/op"),
        "bench.self_s": (get("bench", "self_s"), "s/op"),
        "trace.busy_s": (s["busy_s"], "s/op"),
        "trace.overhead_ratio": (mean_traced / mean_untraced - 1.0, "ratio"),
    }
    bad = []
    if abs(s["busy_s"] - s["busy_from_roots_s"]) > 1e-6 * max(1.0, s["busy_s"]):
        bad.append(f"layer self times sum to {s['busy_s']!r} s/op but root spans "
                   f"give {s['busy_from_roots_s']!r} s/op")
    info = {"traced_ops": ops, "untraced_ops": len(untraced),
            "traced_mean_op_s": mean_traced, "untraced_mean_op_s": mean_untraced,
            "wait_s_per_op": get("parallel.wait", "self_s"),
            "unwrapped": tr.missing, "spans": len(tr.spans())}
    return m, bad, info


def write_result(name, record, spans=None):
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    path = os.path.join(OUT, "results", name + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if spans is not None:
        with open(os.path.join(OUT, "results", name + ".spans.json"), "w", encoding="utf-8") as fh:
            json.dump(spans, fh)
    return path


def main(argv=None):
    p = argparse.ArgumentParser(description="gausscov benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "gausscov", "__init__.py")):
        print(f"error: no gausscov sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import gausscov

    if os.path.dirname(os.path.abspath(gausscov.__file__)) != os.path.join(src, "gausscov"):
        print(f"error: gausscov imported from {gausscov.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.NAMES}",
              file=sys.stderr)
        return 2
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    wl = workloads.make(args.workload, ROOT, workdir)
    case = args.seed % wl.cases
    with open(os.path.join(HERE, "reference", wl.name + ".json"), encoding="utf-8") as fh:
        refs = json.load(fh)["cases"][str(case)]

    label = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    if os.environ.get("GAUSSCOV_THREADS"):
        label += f"-threads{os.environ['GAUSSCOV_THREADS']}"
    record = {"workload": wl.name, "seed": args.seed, "case": case,
              "seconds": args.seconds, "trace": args.trace}
    try:
        if args.trace:
            inputs, untraced, traced, setup_tr, tr = run_traced(wl, case, args.seconds)
            ops = untraced + traced
        else:
            inputs, ops, setup_times = run_plain(wl, case, args.seconds)
        summaries, op_failures = check(wl, inputs, ops, refs)
        recovery, failures = recovery_checks(wl, inputs, summaries, refs)
        failures = op_failures + failures
        if args.trace:
            metrics, bad, info = layer_metrics(setup_tr, tr, traced, untraced)
            failures += bad
            record["trace_info"] = info
            if wl.name in SINGLE_THREAD_REFERENCE:
                ref1 = record["single_thread_reference"] = single_thread_reference(
                    wl.name, args.seed)
                # its timings are not gated, but its outputs must match the same references
                if not ref1.get("correct"):
                    failures.append(f"single-thread run failed: {ref1}")
            notes, extra = {}, {}
        else:
            metrics, extra, notes = plain_metrics(wl, ops, setup_times, op_failures, recovery)
        record["environment"] = environment(inputs["bytes"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = not failures
    # a failed run-level check (recovery, busy-time identity) fails at least one op
    failed_ops = len(op_failures) or int(not correct)
    record.update({
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "also_reported": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "notes": notes, "recovery": recovery, "failures": failures[:20],
        "attempted": len(ops), "op_s": [dt for dt, *_x in ops],
    })
    path = write_result(label, record, tr.dump() if args.trace else None)

    print(f"{wl.name}: seed {args.seed} (case {case}), {len(ops)} ops, "
          f"{'traced' if args.trace else 'untraced'}; result file {os.path.relpath(path, ROOT)}")
    for k, (v, u) in list(metrics.items()) + list(extra.items()):
        note = notes.get(k, "")
        print(f"  {k:<34} {v!s:>24} {u:<9} {note}")
    if recovery is not None:
        print(f"  recovery vs planted truth: {recovery}")
    if "single_thread_reference" in record:
        print(f"  single-thread reference (not gated): {record['single_thread_reference']}")
    for f in failures[:5]:
        print(f"  FAILED {f}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": failed_ops,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
