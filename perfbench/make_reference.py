"""Record the reference outputs that run.py checks every op against.

Usage, from the root of a checkout:

    python3 perfbench/make_reference.py [WORKLOAD ...]

For every case of each workload it sets the inputs up, runs one cycle of ops
and writes their summaries and recovery counts to
``perfbench/reference/<workload>.json``.  The references pin the outputs of
the code that defined the benchmark; a change that claims to keep outputs
unchanged must pass against them, not re-record them.
"""

import json
import os
import platform
import shutil
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def record(wl):
    cases = {}
    for case in range(wl.cases):
        inputs = wl.setup(case)
        summaries = {i: wl.summary(inputs, wl.op(inputs, i)[0]) for i in range(wl.cycle)}
        fp, fn, extra = wl.recovery(inputs, summaries)
        cases[str(case)] = {
            "outputs": [summaries[i] for i in range(wl.cycle)],
            "recovery": {"fp": fp, "fn": fn, **extra},
        }
        print(f"{wl.name} case {case}: fp {fp} fn {fn} {extra}", flush=True)
    return cases


def main(names):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy
    import scipy

    workdir = os.path.join(ROOT, ".perfbench", "work-reference")
    try:
        for name in names or workloads.NAMES:
            write(name, workloads.make(name, ROOT, workdir), numpy, scipy)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def write(name, wl, numpy, scipy):
    doc = {
        "workload": name,
        "recorded_with": {"python": platform.python_version(),
                          "numpy": numpy.__version__, "scipy": scipy.__version__},
        "cases": record(wl),
    }
    with open(os.path.join(HERE, "reference", name + ".json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
