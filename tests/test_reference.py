"""Every case of every benchmark workload against its recorded reference.

Replays one cycle of ops of each case of the workloads in
``perfbench/workloads.py`` and checks each op's summary against
``perfbench/reference/<workload>.json`` with ``workloads.compare`` (sets
exactly, P-values within ``workloads.PVALUE_RTOL``), and the cycle's recovery
counts exactly.  It reads ``perfbench/`` and writes only under the test's
temporary directory.  The 31 cases take about half a minute on two cores, so
the test is marked slow:

    PYTHONPATH=src python -m pytest -m slow tests/test_reference.py
"""

import json
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
sys.path.insert(0, PERFBENCH)

import workloads  # noqa: E402

CASES = [(name, case) for name in workloads.NAMES
         for case in range(workloads.make(name, None, None).cases)]


@pytest.mark.slow
@pytest.mark.parametrize("name,case", CASES)
def test_case_matches_reference(name, case, tmp_path):
    with open(os.path.join(PERFBENCH, "reference", name + ".json"), encoding="utf-8") as fh:
        ref = json.load(fh)["cases"][str(case)]
    wl = workloads.make(name, os.path.dirname(PERFBENCH), str(tmp_path))
    inputs = wl.setup(case)
    summaries = {i: wl.summary(inputs, wl.op(inputs, i)[0]) for i in range(wl.cycle)}
    for i, want in enumerate(ref["outputs"]):
        assert workloads.compare(summaries[i], want) == [], f"op {i}"
    fp, fn, extra = wl.recovery(inputs, summaries)
    assert {"fp": fp, "fn": fn, **extra} == ref["recovery"]
