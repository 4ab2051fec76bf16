"""Tests for the seeded simulation harness."""

import json
import threading

import numpy as np
import pytest

import gausscov.sim as sim_mod
from gausscov import (
    DataMatrix,
    DomainError,
    SelectionConfig,
    SimSpec,
    run_sim,
)
from gausscov.sim import score_selection


class TestScore:
    def test_counts(self):
        assert score_selection([1, 2, 3], [2, 3, 9]) == (1, 1, False)
        assert score_selection([4], [4]) == (0, 0, True)
        assert score_selection([], [7]) == (1, 0, False)
        assert score_selection([], []) == (0, 0, True)


class TestSpecValidation:
    def test_bounds(self):
        with pytest.raises(DomainError):
            SimSpec(method="ridge")
        with pytest.raises(DomainError):
            SimSpec(reps=0)
        with pytest.raises(DomainError):
            SimSpec(active_size=-1)
        with pytest.raises(DomainError):
            SimSpec(sigma=-0.5)


class TestRunSim:
    def test_strong_signal_recovered(self):
        spec = SimSpec(n=100, q=300, active_size=4, beta=20.0, reps=20, seed=11)
        rep = run_sim(spec)
        assert rep.pct_correct == 100.0
        assert rep.fp_mean == 0.0 and rep.fn_mean == 0.0
        assert len(rep.records) == 20
        for r in rep.records:
            assert len(r.active) == 4
            assert sorted(r.selected) == r.active  # selected is in pick order

    def test_null_calibration_rarely_selects(self):
        # beta = 0: the truth is empty, any selection is a false positive;
        # at p0 = 0.01 the per-replicate selection probability is near 0.01
        spec = SimSpec(n=100, q=200, active_size=4, beta=0.0, reps=200, seed=29)
        rep = run_sim(spec)
        nonempty = sum(1 for r in rep.records if r.selected)
        assert rep.fn_mean == 0.0
        assert nonempty <= 10  # ~2 expected, 10 is > 5 sigma out
        assert rep.fp_mean <= 0.1

    def test_active_sets_vary_across_reps(self):
        spec = SimSpec(n=60, q=80, active_size=3, beta=15.0, reps=12, seed=40)
        rep = run_sim(spec)
        assert len({tuple(r.active) for r in rep.records}) > 1

    def test_records_ordered_by_rep(self):
        spec = SimSpec(n=50, q=60, active_size=2, beta=10.0, reps=9, seed=3)
        rep = run_sim(spec)
        assert [r.rep for r in rep.records] == list(range(9))

    def test_deterministic_across_runs_and_threads(self, monkeypatch):
        """GAUSSCOV_THREADS is no longer read: setting it changes no output."""
        spec = SimSpec(n=60, q=120, active_size=3, beta=12.0, reps=10, seed=77)
        outs = []
        for threads in ("1", "4"):
            monkeypatch.setenv("GAUSSCOV_THREADS", threads)
            outs.append(run_sim(spec).to_json(include_timing=False))
        assert outs[0] == outs[1]

    def test_replicates_run_in_order_on_the_calling_thread(self, monkeypatch):
        seen, real = [], sim_mod.f1st

        def recording(*args, **kwargs):
            r = real(*args, **kwargs)
            seen.append((threading.get_ident(), r.selected))
            return r

        spec = SimSpec(n=50, q=60, active_size=2, beta=10.0, reps=5, seed=3)
        want = run_sim(spec)
        monkeypatch.setattr(sim_mod, "f1st", recording)
        monkeypatch.setenv("GAUSSCOV_THREADS", "4")
        got = run_sim(spec)
        assert len({tuple(r.selected) for r in want.records}) > 1
        assert seen == [(threading.get_ident(), r.selected) for r in want.records]
        assert got.to_json(include_timing=False) == want.to_json(include_timing=False)

    def test_replicate_error_reaches_the_caller_unchanged(self, monkeypatch):
        err, real, calls = DomainError("replicate 3 fails"), sim_mod.f1st, []

        def failing(*args, **kwargs):
            calls.append(len(calls))
            if len(calls) == 4:
                raise err
            return real(*args, **kwargs)

        monkeypatch.setattr(sim_mod, "f1st", failing)
        with pytest.raises(DomainError) as info:
            run_sim(SimSpec(n=50, q=60, active_size=2, beta=10.0, reps=8, seed=3))
        assert info.value is err
        assert calls == [0, 1, 2, 3]

    def test_different_seeds_differ(self):
        a = run_sim(SimSpec(n=50, q=80, active_size=2, beta=10.0, reps=5, seed=1))
        b = run_sim(SimSpec(n=50, q=80, active_size=2, beta=10.0, reps=5, seed=2))
        assert (a.to_json(include_timing=False, include_records=True)
                != b.to_json(include_timing=False, include_records=True))

    def test_f3st_method_scores_best_approximation(self):
        spec = SimSpec(n=80, q=40, active_size=2, beta=15.0, reps=6, seed=8,
                       method="f3st", selection=SelectionConfig(m=2))
        rep = run_sim(spec)
        assert rep.pct_correct == 100.0

    def test_supplied_design_overrides_synthetic(self):
        rng = np.random.default_rng(15)
        design = DataMatrix(rng.standard_normal((70, 25)))
        spec = SimSpec(n=999, q=999, active_size=2, beta=20.0, reps=4, seed=5)
        rep = run_sim(spec, design=design)
        assert rep.spec.n == 70 and rep.spec.q == 25
        assert rep.pct_correct == 100.0

    def test_active_size_capped_by_q(self):
        rng = np.random.default_rng(16)
        design = DataMatrix(rng.standard_normal((30, 3)))
        with pytest.raises(DomainError):
            run_sim(SimSpec(n=30, q=3, active_size=5, reps=2, seed=1),
                    design=design)


class TestReportOutput:
    def make_report(self):
        return run_sim(SimSpec(n=50, q=40, active_size=2, beta=12.0, reps=4, seed=2))

    def test_table_shape(self):
        rep = self.make_report()
        lines = rep.to_table().splitlines()
        assert len(lines) == 2
        assert lines[0].split() == ["method", "fp", "fn", "%correct", "time"]
        assert lines[1].split()[0] == "f1st"

    def test_table_without_timing(self):
        rep = self.make_report()
        assert "time" not in rep.to_table(include_timing=False)

    def test_f3st_label_carries_depth(self):
        rep = run_sim(SimSpec(n=50, q=30, active_size=2, beta=12.0, reps=3,
                              seed=2, method="f3st",
                              selection=SelectionConfig(m=3)))
        assert "f3st(m=3)" in rep.to_table()

    def test_json_flags(self):
        rep = self.make_report()
        d = json.loads(rep.to_json(include_timing=False, include_records=False))
        assert "mean_seconds" not in d and "records" not in d
        d2 = json.loads(rep.to_json())
        assert "mean_seconds" in d2 and len(d2["records"]) == 4
        assert all("seconds" in r for r in d2["records"])
        # user-facing indices are 1-based
        assert all(min(r["active"]) >= 1 for r in d2["records"])
