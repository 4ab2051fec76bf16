"""Tests for the incomplete-beta kernel and the Gaussian P-value transforms.

Expected values marked `frozen` were computed once with mpmath at 60 decimal
digits (arguments converted from the exact binary doubles, not from decimal
strings) and pasted in, so the suite does not silently recompute its own
oracle with the code under test.
"""

import math
import warnings

import numpy as np
import pytest

from gausscov import (
    DomainError,
    PvalueContext,
    RatioClampWarning,
    beta_cdf,
    beta_cdf_inv,
    gaussian_pvalue,
    pf_from_rss_ratio,
    pf_threshold,
    pg_all_subset,
    pg_stepwise,
)

mpmath = pytest.importorskip("mpmath")


def mp_beta_cdf(a, b, x, dps=60):
    with mpmath.workdps(dps):
        return mpmath.betainc(mpmath.mpf(a), mpmath.mpf(b), 0, mpmath.mpf(x),
                              regularized=True)


# frozen mpmath values, arguments taken as binary doubles
FROZEN_BETA = [
    (3.5, 0.5, 0.9, 0.40708382206558901657),
    (1.0, 5.0, 0.2, 0.67232000000000002274),
    (0.5, 0.5, 0.5, 0.5),
    (34.0, 0.5, 0.01, 9.6874337962119295265e-70),
    (250.0, 0.5, 0.2, 7.2106733147225904936e-177),
    (100.0, 0.5, 0.05, 4.5594005266883307729e-132),
    # large shapes (n up to 4e5) with tails from 1e-3 down to 1e-200
    (2000.0, 0.5, 0.9972964314, 1.0000000148548417128e-3),
    (2000.0, 0.5, 0.989597811, 1.0000000881584781703e-10),
    (2000.0, 0.5, 0.9454415927, 9.9999995419466505532e-51),
    (2000.0, 0.5, 0.8927043544, 9.9999990672641041246e-101),
    (2000.0, 0.5, 0.795751213, 1.000000068033783573e-200),
    (20000.0, 0.5, 0.9997293441, 1.0000000844147853719e-3),
    (20000.0, 0.5, 0.9989549969, 9.9999960797654911526e-11),
    (20000.0, 0.5, 0.9944060161, 9.9999943376547836127e-51),
    (20000.0, 0.5, 0.988715435, 9.9999975792743070528e-101),
    (20000.0, 0.5, 0.977414604, 9.999990583364355821e-201),
    (200000.0, 0.5, 0.9999729314, 9.9999630611449202634e-4),
    (200000.0, 0.5, 0.9998954517, 1.0000012373792425985e-10),
    (200000.0, 0.5, 0.9994391947, 9.9999233801906629283e-51),
    (200000.0, 0.5, 0.9988657846, 1.0000029998674479159e-100),
    (200000.0, 0.5, 0.9977181977, 1.0000058289900570978e-200),
]


class TestBetaCdf:
    def test_frozen_values(self):
        for a, b, x, want in FROZEN_BETA:
            got = beta_cdf(a, b, x)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), (a, b, x)

    def test_endpoints(self):
        assert beta_cdf(3.0, 0.5, 0.0) == 0.0
        assert beta_cdf(3.0, 0.5, 1.0) == 1.0

    def test_symmetric_half(self):
        # I_{1/2}(a, a) = 1/2 for any symmetric pair
        for a in (0.5, 1.0, 2.5, 40.0):
            assert beta_cdf(a, a, 0.5) == pytest.approx(0.5, rel=1e-14)

    def test_reflection_identity(self):
        rng = np.random.default_rng(1215)
        for _ in range(300):
            a = float(10.0 ** rng.uniform(-0.3, 2.5))
            b = float(10.0 ** rng.uniform(-0.3, 1.0))
            x = float(rng.uniform(1e-6, 1 - 1e-6))
            s = beta_cdf(a, b, x) + beta_cdf(b, a, 1.0 - x)
            assert s == pytest.approx(1.0, abs=1e-13)

    def test_monotone_in_x(self):
        # true values below ~1e-308 flush to exactly 0, so demand strict
        # growth only once the curve is representable in a double
        for a, b in [(0.5, 0.5), (17.5, 0.5), (3.0, 7.0), (250.0, 0.5)]:
            xs = np.linspace(1e-4, 1 - 1e-4, 200)
            vals = np.array([beta_cdf(a, b, float(x)) for x in xs])
            assert np.all(np.diff(vals) >= 0.0), (a, b)
            pos = vals[vals > 0.0]
            assert pos.size > 100 and np.all(np.diff(pos) > 0.0), (a, b)

    def test_against_mpmath_random(self):
        # random sweep over the (a = df/2, b = 1/2) region the selector uses
        rng = np.random.default_rng(90125)
        for _ in range(250):
            a = float(10.0 ** rng.uniform(-0.3, 2.7))
            b = 0.5
            x = float(rng.uniform(0.0, 1.0))
            want = float(mp_beta_cdf(a, b, x))
            got = beta_cdf(a, b, x)
            if want == 0.0:
                assert got == 0.0
            else:
                assert got == pytest.approx(want, rel=5e-12, abs=0.0), (a, b, x)

    def test_against_mpmath_general_b(self):
        rng = np.random.default_rng(6502)
        for _ in range(120):
            a = float(10.0 ** rng.uniform(-0.3, 2.0))
            b = float(10.0 ** rng.uniform(-0.3, 2.0))
            x = float(rng.uniform(0.01, 0.99))
            want = float(mp_beta_cdf(a, b, x))
            got = beta_cdf(a, b, x)
            assert got == pytest.approx(want, rel=5e-12, abs=0.0), (a, b, x)

    def test_deep_tail_not_flushed_to_zero(self):
        # the selling point: P-values far below float-min of the naive route
        v = beta_cdf(500.0, 0.5, 0.25)
        assert 0.0 < v < 1e-290

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            beta_cdf(0.0, 0.5, 0.5)
        with pytest.raises(DomainError):
            beta_cdf(1.0, -1.0, 0.5)
        with pytest.raises(DomainError):
            beta_cdf(1.0, 1.0, -0.01)
        with pytest.raises(DomainError):
            beta_cdf(1.0, 1.0, 1.01)
        with pytest.raises(DomainError):
            beta_cdf(math.nan, 1.0, 0.5)


class TestBetaCdfInv:
    def test_round_trip(self):
        rng = np.random.default_rng(77)
        for _ in range(120):
            a = float(10.0 ** rng.uniform(-0.3, 2.3))
            b = 0.5
            p = float(10.0 ** rng.uniform(-12, -0.05))
            x = beta_cdf_inv(a, b, p)
            assert beta_cdf(a, b, x) == pytest.approx(p, rel=1e-9)

    def test_monotone_in_p(self):
        xs = [beta_cdf_inv(12.0, 0.5, p) for p in (1e-10, 1e-6, 1e-3, 0.1, 0.9)]
        assert xs == sorted(xs)

    def test_edge_probabilities(self):
        assert beta_cdf_inv(3.0, 0.5, 0.0) == 0.0
        assert beta_cdf_inv(3.0, 0.5, 1.0) == 1.0


class TestGaussianPvalue:
    def test_frozen_values(self):
        assert gaussian_pvalue(1e-4, 1000) == pytest.approx(
            0.095167106441453744961, rel=1e-13)
        assert gaussian_pvalue(0.5, 3) == pytest.approx(0.875, rel=1e-14)
        # deep tail must not underflow: 1 - (1-1e-300)^1e6 = 1e-294
        assert gaussian_pvalue(1e-300, 10 ** 6) == pytest.approx(1e-294, rel=1e-10)

    def test_identity_against_mpmath(self):
        rng = np.random.default_rng(4004)
        with mpmath.workdps(80):
            for _ in range(250):
                p = float(10.0 ** rng.uniform(-250, -0.01))
                n_gauss = int(rng.integers(1, 10 ** 7))
                want = float(1 - (1 - mpmath.mpf(p)) ** n_gauss)
                got = gaussian_pvalue(p, n_gauss)
                assert got == pytest.approx(want, rel=1e-12), (p, n_gauss)

    def test_single_competitor_is_identity(self):
        for p in (1e-8, 0.1, 0.5, 0.999):
            assert gaussian_pvalue(p, 1) == pytest.approx(p, rel=1e-15)

    def test_small_p_scales_linearly(self):
        assert gaussian_pvalue(1e-12, 1000) == pytest.approx(1e-9, rel=1e-6)

    def test_limits(self):
        assert gaussian_pvalue(0.0, 5000) == 0.0
        assert gaussian_pvalue(1.0, 5000) == 1.0

    def test_monotone_in_n(self):
        vals = [gaussian_pvalue(1e-6, n) for n in (1, 10, 10 ** 3, 10 ** 5)]
        assert vals == sorted(vals)
        assert all(0.0 < v <= 1.0 for v in vals)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            gaussian_pvalue(-0.1, 10)
        with pytest.raises(DomainError):
            gaussian_pvalue(1.1, 10)
        with pytest.raises(DomainError):
            gaussian_pvalue(0.5, 0)


class TestPfThreshold:
    def test_frozen_value(self):
        assert pf_threshold(0.01, 1000) == pytest.approx(
            0.000010050285349045252819, rel=1e-13)

    def test_inverts_gaussian_pvalue(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            p0 = float(10.0 ** rng.uniform(-6, -0.31))
            n_gauss = int(rng.integers(1, 10 ** 6))
            thr = pf_threshold(p0, n_gauss)
            assert gaussian_pvalue(thr, n_gauss) == pytest.approx(p0, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            pf_threshold(0.0, 10)
        with pytest.raises(DomainError):
            pf_threshold(1.0, 10)
        with pytest.raises(DomainError):
            pf_threshold(0.01, 0)


class TestContextAndRatio:
    def test_context_validation(self):
        PvalueContext(n=10, k=3, q_remaining=5)
        with pytest.raises(DomainError):
            PvalueContext(n=4, k=3, q_remaining=5)  # < 2 residual df
        with pytest.raises(DomainError):
            PvalueContext(n=10, k=0, q_remaining=5)
        with pytest.raises(DomainError):
            PvalueContext(n=10, k=3, q_remaining=-1)

    def test_pf_matches_beta_cdf(self):
        ctx = PvalueContext(n=25, k=4, q_remaining=10)
        got = pf_from_rss_ratio(ctx, 2.0, 8.0)
        assert got == pytest.approx(beta_cdf((25 - 4) / 2.0, 0.5, 0.25), rel=1e-15)

    def test_eps_overshoot_clamps_silently(self):
        ctx = PvalueContext(n=25, k=4, q_remaining=10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pf_from_rss_ratio(ctx, 8.0 * (1.0 + 2e-16), 8.0) == 1.0
            assert pf_from_rss_ratio(ctx, -1e-16, 8.0) == 0.0

    def test_larger_overshoot_warns(self):
        ctx = PvalueContext(n=25, k=4, q_remaining=10)
        with pytest.warns(RatioClampWarning):
            assert pf_from_rss_ratio(ctx, 8.0 * (1.0 + 1e-13), 8.0) == 1.0

    def test_gross_overshoot_raises(self):
        ctx = PvalueContext(n=25, k=4, q_remaining=10)
        with pytest.raises(DomainError):
            pf_from_rss_ratio(ctx, 9.0, 8.0)
        with pytest.raises(DomainError):
            pf_from_rss_ratio(ctx, 1.0, 0.0)

    def test_stepwise_vs_subset_competitor_counts(self):
        ctx = PvalueContext(n=50, k=3, q_remaining=100)
        p_f = 1e-6
        assert pg_stepwise(ctx, p_f) == pytest.approx(
            gaussian_pvalue(p_f, 100), rel=1e-15)
        assert pg_all_subset(ctx, p_f) == pytest.approx(
            gaussian_pvalue(p_f, 101), rel=1e-15)

    def test_stepwise_needs_a_candidate(self):
        ctx = PvalueContext(n=50, k=3, q_remaining=0)
        with pytest.raises(DomainError):
            pg_stepwise(ctx, 0.5)
        # the membership test still works: the covariate competes with itself
        assert pg_all_subset(ctx, 0.5) == pytest.approx(0.5)
