import math
from fractions import Fraction

import numpy as np
import pytest

from adaptive_tomo import (
    Adaptive,
    AdaptivePow,
    CampaignSpec,
    FixedError,
    InvalidStateError,
    KnownBasis,
    NoError,
    PerExperimentError,
    PerSettingError,
    ReducedAdaptive,
    RngContext,
    Static,
    alpha_sweep,
    bloch_to_density,
    campaign_hash,
    fit_campaign,
    fit_power_law,
    noise_floor_sweep,
    protocol_name,
    run_campaign,
)
from adaptive_tomo.fixtures import EQ7_BLOCH
from adaptive_tomo.harness import CampaignResult, CampaignRow
from adaptive_tomo.measurement import error_model_name
from adaptive_tomo.protocols import run_batch


def fraction_ols(points):
    """Normal equations evaluated in exact rational arithmetic (oracle)."""
    xs = [Fraction(math.log(x)) for x, _ in points]
    ys = [Fraction(math.log(y)) for _, y in points]
    n = len(points)
    mx = sum(xs, Fraction(0)) / n
    my = sum(ys, Fraction(0)) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = my - slope * mx
    sse = sum((y - intercept - slope * x) ** 2 for x, y in zip(xs, ys))
    s2 = sse / (n - 2)
    sigma_p = math.sqrt(float(s2 / sxx))
    return float(slope), math.exp(float(intercept)), sigma_p


class TestFitPowerLaw:
    def test_exact_inverse_law(self):
        fit = fit_power_law([(100, 2.0 / 100), (1000, 2.0 / 1000), (10000, 2.0 / 10000)])
        assert fit.p == pytest.approx(-1.0, abs=1e-10)
        assert fit.beta == pytest.approx(2.0, rel=1e-10)
        assert fit.sigma_p <= 1e-10
        assert fit.fit_range == (100, 10000)

    def test_constant_data(self):
        fit = fit_power_law([(10, 0.25), (100, 0.25), (1000, 0.25), (10000, 0.25)])
        assert fit.p == pytest.approx(0.0, abs=1e-12)
        assert fit.beta == pytest.approx(0.25, rel=1e-12)

    def test_matches_extended_precision_oracle(self):
        rng = np.random.default_rng(83)
        for _ in range(20):
            xs = np.geomspace(50, 50000, 8)
            ys = 3.0 * xs**-0.7 * np.exp(rng.normal(scale=0.2, size=8))
            points = list(zip(xs.tolist(), ys.tolist()))
            fit = fit_power_law(points)
            slope, beta, sigma_p = fraction_ols(points)
            assert fit.p == pytest.approx(slope, abs=1e-9)
            assert fit.beta == pytest.approx(beta, rel=1e-9)
            assert fit.sigma_p == pytest.approx(sigma_p, abs=1e-9)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            fit_power_law([(10, 1.0), (100, 0.1)])
        with pytest.raises(ValueError):
            fit_power_law([(10, 1.0), (100, 0.1), (1000, 0.0)])
        with pytest.raises(ValueError):
            fit_power_law([(0, 1.0), (100, 0.1), (1000, 0.01)])


class TestRunCampaign:
    def test_row_accounting(self):
        spec = CampaignSpec(Static(), EQ7_BLOCH, (60, 120, 240), reps=2, seed=5)
        result = run_campaign(spec)
        assert len(result.rows) == 3
        assert all(row.reps == 2 for row in result.rows)
        assert all(row.mean_infidelity >= 0.0 for row in result.rows)
        assert [row.n for row in result.rows] == [60, 120, 240]

    def test_reproducible_across_runs(self):
        spec = CampaignSpec(Adaptive(0.5), EQ7_BLOCH, (90, 300), reps=2, seed=5)
        first = run_campaign(spec)
        again = run_campaign(spec)
        assert first.rows == again.rows
        assert first.spec_hash == again.spec_hash

    def test_stderr_shrinks_with_reps(self):
        # The stderr ratio at a single grid point leaves the window on about
        # 8% of seeds; the geometric mean over 16 points has sd(ln) ~0.04,
        # which puts the window edges more than 6 sigma away.
        grid = tuple(int(1000 * 1.2**k) for k in range(16))
        few = run_campaign(CampaignSpec(Static(), EQ7_BLOCH, grid, reps=50, seed=9))
        many = run_campaign(CampaignSpec(Static(), EQ7_BLOCH, grid, reps=200, seed=9))
        label = int(few.spec_hash[:16], 16)
        infidelity = run_batch(Static(), bloch_to_density(EQ7_BLOCH), grid[0], NoError(),
                               RngContext(9, (label, 0)), 50).infidelity
        assert few.rows[0].stderr == float(np.std(infidelity, ddof=1) / math.sqrt(50))
        ratios = [a.stderr / b.stderr for a, b in zip(few.rows, many.rows)]
        ratio = math.exp(np.mean(np.log(ratios)))
        assert 2.0 * 0.7 < ratio < 2.0 * 1.3

    def test_distinct_specs_get_distinct_streams(self):
        a = campaign_hash(CampaignSpec(Static(), EQ7_BLOCH, (100,), reps=2, seed=5))
        b = campaign_hash(CampaignSpec(Static(), EQ7_BLOCH, (101,), reps=2, seed=5))
        c = campaign_hash(CampaignSpec(Static(), EQ7_BLOCH, (100,), reps=2, seed=6))
        assert len({a, b, c}) == 3

    def test_stream_keys_are_pinned(self):
        # These strings seed every random stream; the literals were taken
        # before protocols and error models carried their own names.
        protocols = [Static(), Adaptive(0.5), AdaptivePow(), ReducedAdaptive(0.3), KnownBasis()]
        assert [protocol_name(p) for p in protocols] == [
            "static",
            "adaptive(alpha=0.5)",
            "adaptive-pow(exponent=0.6666666666666666)",
            "reduced-adaptive(alpha=0.3)",
            "known-basis",
        ]
        models = [NoError(), PerSettingError(0.01), PerExperimentError(0.02), FixedError(0.005),
                  FixedError(0.01, (0, 0.6, 0.8))]
        assert [error_model_name(m) for m in models] == [
            "none",
            "per-setting(E=0.01)",
            "per-experiment(E=0.02)",
            "fixed(E=0.005,axis=(0.8944271909999159,0.4472135954999579,0.0))",
            "fixed(E=0.01,axis=(0.0,0.6,0.8))",
        ]
        hashes = [
            campaign_hash(CampaignSpec(p, EQ7_BLOCH, (100, 300), reps=3, error_model=m, seed=7))
            for p, m in zip(protocols, models)
        ]
        assert hashes == [
            "53a151231e751936f5c0490b4811938b7330c9685418b4c46ad4ff7c34c807a1",
            "efe5819fbb20f44ac93055477957460558fa36efba6691923268fd000b613331",
            "3a3d1fccabeb20d6e5f6a9c38fd63a7081529482d05d66833a676b857b94c590",
            "e0ba754f99ad503cd7ad3c7a20ca1791b6a3ff925b01e284fff085521e698572",
            "6bd48378b979d1f7b59c015b2b062d8cfcf2687f223189651e210491d0f31819",
        ]

    def test_spec_validation(self):
        with pytest.raises(InvalidStateError):
            CampaignSpec(Static(), EQ7_BLOCH, (100, 100), reps=2)
        with pytest.raises(InvalidStateError):
            CampaignSpec(Static(), EQ7_BLOCH, (100, 50), reps=2)
        with pytest.raises(InvalidStateError):
            CampaignSpec(Static(), EQ7_BLOCH, (100,), reps=1)

    def test_known_basis_matches_adaptive_exponent(self):
        grid = tuple(int(round(x)) for x in np.geomspace(300, 100_000, 10))
        adaptive = fit_campaign(
            run_campaign(CampaignSpec(Adaptive(0.5), EQ7_BLOCH, grid, reps=150, seed=1729))
        )
        known = fit_campaign(
            run_campaign(CampaignSpec(KnownBasis(), EQ7_BLOCH, grid, reps=150, seed=1729))
        )
        diff = abs(adaptive.p - known.p)
        assert diff <= 2.0 * math.hypot(adaptive.sigma_p, known.sigma_p)

    def test_axis_aligned_state_is_easy_for_static(self):
        # The hard regime for static tomography is a pure state away from
        # every measurement axis; on-axis states do at least 3x better.
        aligned = run_campaign(
            CampaignSpec(Static(), (0.0, 0.0, 1.0), (10000,), reps=150, seed=21)
        )
        generic = run_campaign(
            CampaignSpec(Static(), EQ7_BLOCH, (10000,), reps=150, seed=21)
        )
        assert generic.rows[0].mean_infidelity >= 3.0 * aligned.rows[0].mean_infidelity


class TestFitCampaign:
    def test_floor_exclusion(self):
        rows = (
            CampaignRow(100, 1e-2, 1e-4, 10),
            CampaignRow(1000, 1e-3, 1e-5, 10),
            CampaignRow(10000, 1e-4, 1e-6, 10),
            CampaignRow(100000, 3.0e-5, 1e-6, 10),
            CampaignRow(1000000, 2.95e-5, 1e-6, 10),
        )
        spec = CampaignSpec(Static(), EQ7_BLOCH, tuple(r.n for r in rows), reps=10)
        result = CampaignResult(spec=spec, rows=rows, spec_hash="x", seed=0)
        full = fit_campaign(result)
        clipped = fit_campaign(result, floor=3e-5)
        assert clipped.fit_range == (100, 10000)
        assert clipped.p == pytest.approx(-1.0, abs=1e-6)
        assert full.p > clipped.p  # floor rows flatten the uncorrected fit


class TestAlphaSweep:
    def test_single_point_matches_direct_campaign(self):
        base = CampaignSpec(Adaptive(0.5), EQ7_BLOCH, (100, 300, 1000), reps=5, seed=31)
        campaign = run_campaign(base)
        direct = fit_campaign(campaign)
        sweep = alpha_sweep([0.5], base)
        assert len(sweep) == 1
        alpha, result, fit = sweep[0]
        assert alpha == 0.5
        assert fit == direct
        assert result == campaign

    def test_smoke_rows(self):
        base = CampaignSpec(Adaptive(0.5), EQ7_BLOCH, (100, 300, 1000), reps=2, seed=31)
        sweep = alpha_sweep([0.3, 0.5], base)
        assert [a for a, _, _ in sweep] == [0.3, 0.5]
        assert [result.spec.protocol for _, result, _ in sweep] == [Adaptive(0.3), Adaptive(0.5)]


class TestNoiseFloorSweep:
    def test_zero_error_never_converges(self):
        out = noise_floor_sweep(
            lambda e: PerSettingError(e) if e > 0 else NoError(),
            [0.0],
            [Static()],
            EQ7_BLOCH,
            reps=5,
            seed=7,
            n_start=250,
            n_cap=4000,
        )
        point = out[0].points[0]
        assert not point.converged
        assert point.floor_infidelity is None
        assert out[0].slope_fit is None

    def test_large_error_converges_quickly(self):
        out = noise_floor_sweep(
            PerSettingError,
            [0.05],
            [Static()],
            EQ7_BLOCH,
            reps=50,
            seed=7,
            n_start=1000,
            n_cap=512_000,
        )
        point = out[0].points[0]
        assert point.converged
        assert point.floor_infidelity > 1e-3
        assert point.n_at_floor <= 512_000
