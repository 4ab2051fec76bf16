"""Tests of the benchmark itself: counter determinism, span accounting, output checks.

Run from the root of a checkout:

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402

COUNTS = ("matrix.scan_calls", "matrix.scan_setup_calls", "matrix.extend_calls",
          "matrix.x_bytes", "select.f1st_calls", "select.steps", "pvalues.calls",
          "featurize.cells")


def small(name, tmp_path):
    """The workload at a size that runs in about a second."""
    return {
        "wide_f3st": lambda: workloads.WideF3st(n=120, q=3000, responses=2),
        "graph_1000": lambda: workloads.Graph1000(p=80, n=160),
        "sim_kmn10": lambda: workloads.SimKmn10(q=400, reps=8),
        "cli_csv": lambda: workloads.CliCsv(ROOT, str(tmp_path), n=100, q=300),
    }[name]()


def traced_layers(wl):
    inputs, untraced, traced, setup_tr, tr = run.run_traced(wl, 0, 0.01)
    metrics, bad, _info = run.layer_metrics(setup_tr, tr, traced, untraced)
    assert not any(err for *_x, err in untraced + traced)
    return metrics, bad


@pytest.mark.parametrize("name", workloads.NAMES)
def test_counters_repeat_and_self_times_sum_to_busy(name, tmp_path):
    wl = small(name, tmp_path)
    first, bad1 = traced_layers(wl)
    second, bad2 = traced_layers(wl)
    assert bad1 == [] and bad2 == []
    for key in COUNTS:
        assert first[key] == second[key], key
    assert first["select.f1st_calls"][0] > 0
    assert first["matrix.scan_calls"][0] > 0
    total = sum(first[k][0] for k in run.SELF_TIMES)
    assert total == pytest.approx(first["trace.busy_s"][0], rel=1e-9)


def test_pool_work_is_counted_once(tmp_path):
    # graph tasks run on pool threads; their busy time must not also appear as
    # self time of the submitting thread
    m, _ = traced_layers(small("graph_1000", tmp_path))
    assert m["parallel.task_busy_s"][0] > 0
    assert m["trace.busy_s"][0] >= m["parallel.task_busy_s"][0]
    assert m["graph.self_s"][0] < m["parallel.task_busy_s"][0]


def _last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def test_traced_runs_repeat_counts_end_to_end():
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", "sim_kmn10",
           "--seed", "5", "--seconds", "1", "--trace", "1"]
    outs = []
    for _ in range(2):
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=170)
        assert proc.returncode == 0, proc.stderr
        outs.append(_last_json(proc.stdout))
    for res in outs:
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0
    for key in COUNTS:
        assert outs[0]["metrics"][key] == outs[1]["metrics"][key], key


def test_output_check_tolerance():
    ref = [[[3, 7], [1e-20, 0.004], 0.5]]
    assert workloads.compare([[[3, 7], [1e-20 * (1 + 5e-11), 0.004], 0.5]], ref) == []
    assert workloads.compare([[[3, 7], [1e-20 * (1 + 2e-10), 0.004], 0.5]], ref) != []
    assert workloads.compare([[[7, 3], [1e-20, 0.004], 0.5]], ref) != []
    assert workloads.compare([[[3, 7], [1e-20, 0.004], None]], ref) != []


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim_kmn10", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
