import math
import re
from fractions import Fraction

import numpy as np
import pytest

from adaptive_tomo import (
    Adaptive,
    AdaptivePow,
    BudgetError,
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
    campaign_hash,
    fit_campaign,
    fit_power_law,
    noise_floor_sweep,
    protocol_name,
    run_campaign,
)
from adaptive_tomo import estimation, harness
from adaptive_tomo.fixtures import EQ7_BLOCH
from adaptive_tomo.harness import fit_means
from adaptive_tomo.protocols import _simulate, run_grid


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
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="positive finite data"):
                fit_power_law([(10, 1.0), (100, bad), (1000, 0.01)])
            with pytest.raises(ValueError, match="positive finite data"):
                fit_power_law([(10, 1.0), (bad, 0.1), (1000, 0.01)])

    def test_rejects_a_single_x_value(self):
        # The slope divides by the spread of log x.
        with pytest.raises(ValueError, match="at least two distinct x values"):
            fit_power_law([(100, 0.1), (100, 0.05), (100, 0.02)])


class TestFitMeans:
    def test_zero_means_are_left_out(self):
        points = [(50, 0.0), (100, 0.02), (1000, 0.003), (10000, 0.0002), (20000, 0.0)]
        fit = fit_means(points)
        assert fit == fit_power_law([(100, 0.02), (1000, 0.003), (10000, 0.0002)])
        assert fit.fit_range == (100, 10000)

    def test_no_fit_below_three_nonzero_means(self):
        assert fit_means([(100, 0.1), (200, 0.0), (400, 0.02)]) is None
        assert fit_means([(100, 0.0), (200, 0.0), (400, 0.0), (800, 0.0)]) is None
        assert fit_means([]) is None

    def test_other_bad_points_still_raise(self):
        for bad in (-0.01, math.nan, math.inf):
            with pytest.raises(ValueError, match="positive finite data"):
                fit_means([(100, 0.1), (200, bad), (400, 0.02), (800, 0.0)])
        with pytest.raises(ValueError, match="at least two distinct x values"):
            fit_means([(100, 0.1), (100, 0.05), (100, 0.02), (200, 0.0)])


class TestRunCampaign:
    def test_row_accounting(self):
        spec = CampaignSpec(Static(), EQ7_BLOCH, (60, 120, 240), reps=2, seed=5)
        result = run_campaign(spec)
        assert len(result.rows) == 3
        assert all(row.mean_infidelity >= 0.0 for row in result.rows)
        assert [row.n for row in result.rows] == [60, 120, 240]

    def test_non_finite_state_rejected(self):
        # The state is checked once, before any draw.
        for state in ((math.nan, 0.0, 0.0), (0.0, -math.inf, 0.0), (0.8, 0.8, 0.0)):
            with pytest.raises(InvalidStateError):
                run_campaign(CampaignSpec(Static(), state, (100, 200, 300), reps=3))

    def test_reproducible_across_runs(self):
        spec = CampaignSpec(Adaptive(0.5), EQ7_BLOCH, (90, 300), reps=2, seed=5)
        first = run_campaign(spec)
        again = run_campaign(spec)
        assert first.rows == again.rows

    def test_stderr_shrinks_with_reps(self):
        # The stderr ratio at a single grid point leaves the window on about
        # 8% of seeds; the geometric mean over 16 points has sd(ln) ~0.04,
        # which puts the window edges more than 6 sigma away.
        grid = tuple(int(1000 * 1.2**k) for k in range(16))
        few = run_campaign(CampaignSpec(Static(), EQ7_BLOCH, grid, reps=50, seed=9))
        many = run_campaign(CampaignSpec(Static(), EQ7_BLOCH, grid, reps=200, seed=9))
        label = int(campaign_hash(few.spec)[:16], 16)
        infidelity = run_grid(Static(), EQ7_BLOCH, (grid[0],), NoError(),
                              RngContext(9, (label, 0)), 50).infidelity
        assert few.rows[0].stderr == float(np.std(infidelity, ddof=1) / math.sqrt(50))
        ratios = [a.stderr / b.stderr for a, b in zip(few.rows, many.rows)]
        ratio = math.exp(np.mean(np.log(ratios)))
        assert 2.0 * 0.7 < ratio < 2.0 * 1.3

    @pytest.mark.parametrize("reps", [2, 129, 150])
    def test_rows_reduce_each_grid_point_like_numpy(self, reps):
        # One reduction over the (grid, reps) infidelities gives each grid
        # point's numpy mean and standard error bit for bit; 129 repetitions
        # straddle numpy's 128-element pairwise-summation block.
        spec = CampaignSpec(Adaptive(0.5), EQ7_BLOCH, (100, 1000, 10**4), reps=reps, seed=12,
                            error_model=PerSettingError(0.01))
        result = run_campaign(spec)
        label = int(campaign_hash(result.spec)[:16], 16)
        infidelity = run_grid(spec.protocol, spec.state_bloch, spec.n_grid, spec.error_model,
                              RngContext(spec.seed, (label, 0)), reps).infidelity
        for i, row in enumerate(result.rows):
            block = infidelity[i * reps:(i + 1) * reps]
            assert row.mean_infidelity == float(np.mean(block))
            assert row.stderr == float(np.std(block, ddof=1) / math.sqrt(reps))

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
        assert [protocol_name(m) for m in models] == [
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
        with pytest.raises(InvalidStateError, match="empty sample-size grid"):
            CampaignSpec(Static(), EQ7_BLOCH, (), reps=2)
        with pytest.raises(InvalidStateError):
            CampaignSpec(Static(), EQ7_BLOCH, (100, 100), reps=2)
        with pytest.raises(InvalidStateError):
            CampaignSpec(Static(), EQ7_BLOCH, (100, 50), reps=2)
        with pytest.raises(InvalidStateError):
            CampaignSpec(Static(), EQ7_BLOCH, (100,), reps=1)
        # A campaign its protocol cannot run is refused when it is built.
        with pytest.raises(BudgetError, match=re.escape(
                "adaptive(alpha=0.01) at N=100: split [1, 0, 0, 33, 33, 33] leaves a setting")):
            CampaignSpec(Adaptive(0.01), EQ7_BLOCH, (100, 1000), reps=2)
        with pytest.raises(BudgetError, match="need at least 6 samples, got 5"):
            CampaignSpec(Static(), EQ7_BLOCH, (5, 100), reps=2)
        with pytest.raises(InvalidStateError):
            CampaignSpec(Static(), (0.8, 0.8, 0.0), (100,), reps=2)
        # A bool is not an integer seed: it would key another stream than 1.
        with pytest.raises(InvalidStateError, match="seed must be an integer, got True"):
            CampaignSpec(Static(), EQ7_BLOCH, (100,), reps=2, seed=True)

    def test_integral_float_grid_is_refused(self):
        with pytest.raises(BudgetError, match=re.escape("N must be an integer, got 100.0")):
            CampaignSpec(Static(), EQ7_BLOCH, (100.0, 200.0), reps=2)

    def test_fractional_n_is_refused(self):
        with pytest.raises(BudgetError, match=re.escape("N must be an integer, got 100.5")):
            CampaignSpec(Static(), EQ7_BLOCH, (100.5, 200), reps=2)

    def test_fractional_reps_are_refused(self):
        with pytest.raises(InvalidStateError, match=re.escape("reps must be an integer, got 2.5")):
            CampaignSpec(Static(), EQ7_BLOCH, (100, 200), reps=2.5)

    def test_numpy_integers_are_accepted(self):
        spec = CampaignSpec(Adaptive(0.5), EQ7_BLOCH, (100, 200), reps=3, seed=5)
        numpy_spec = CampaignSpec(Adaptive(0.5), EQ7_BLOCH, (np.int64(100), np.int32(200)),
                                  reps=np.int64(3), seed=np.int64(5))
        assert campaign_hash(numpy_spec) == campaign_hash(spec)
        assert run_campaign(numpy_spec).rows == run_campaign(spec).rows

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


    def test_solver_failure_names_the_alpha(self, monkeypatch):
        monkeypatch.setattr(estimation, "_NEWTON_MAX_ITER", 0)
        base = CampaignSpec(Adaptive(0.5), EQ7_BLOCH, (1000, 2000, 4000), reps=20, seed=4)
        with pytest.raises(RuntimeError, match=r"^boundary Newton iteration did not converge: "
                                               r".*; at alpha=0\.3$") as info:
            alpha_sweep([0.3], base)
        assert isinstance(info.value.__cause__, RuntimeError)


class TestSweepsRefuseBeforeTheFirstCampaign:
    @pytest.fixture(autouse=True)
    def no_campaign(self, monkeypatch):
        def ran(*args):
            raise AssertionError("a campaign ran")

        monkeypatch.setattr(harness, "run_campaign", ran)
        monkeypatch.setattr(harness, "_simulate", ran)

    def test_alpha_sweep_bad_alpha(self):
        base = CampaignSpec(Adaptive(0.5), EQ7_BLOCH, (100, 300, 1000), reps=2)
        with pytest.raises(InvalidStateError, match=r"alpha must be in \(0, 1\), got 1.0"):
            alpha_sweep([0.5, 1.0], base)

    def test_alpha_sweep_short_grid(self):
        base = CampaignSpec(Adaptive(0.5), EQ7_BLOCH, (100, 300), reps=2)
        with pytest.raises(InvalidStateError,
                           match=r"needs >= 3 sample sizes, got \(100, 300\)"):
            alpha_sweep([0.5], base)

    def test_float_seed(self):
        with pytest.raises(InvalidStateError, match=r"seed must be an integer, got 1\.5"):
            CampaignSpec(Adaptive(0.5), EQ7_BLOCH, (100, 300, 1000), reps=2, seed=1.5)
        with pytest.raises(InvalidStateError, match=r"seed must be an integer, got 5\.0"):
            noise_floor_sweep(PerSettingError, [0.01], [Static()], EQ7_BLOCH, reps=2, seed=5.0)

    def test_noise_floor_sweep_e_beyond_a_half_turn(self):
        with pytest.raises(InvalidStateError, match="the Bloch tilt 4 E must be at most pi"):
            noise_floor_sweep(PerSettingError, [0.01, 0.02, 1.0], [Static(), Adaptive()],
                              EQ7_BLOCH, reps=2)

    def test_noise_floor_sweep_protocol_that_cannot_split(self):
        # The second protocol's preliminary budget, round(1e-16 N), is 0 at N = 1e15.
        with pytest.raises(BudgetError, match=r"^adaptive\(alpha=1e-16\) at N=10{15}: split "
                                              r"\[0, 0, 0, .*\] leaves a setting without shots$"):
            noise_floor_sweep(PerSettingError, [0.01, 0.02], [Static(), Adaptive(1e-16)],
                              EQ7_BLOCH, reps=2)


class TestNoiseFloorSweep:
    def test_solver_failure_names_the_point(self, monkeypatch):
        monkeypatch.setattr(estimation, "_NEWTON_MAX_ITER", 0)
        with pytest.raises(RuntimeError, match=r"^boundary Newton iteration did not converge: "
                                               r".*; at static, E=0\.05$") as info:
            noise_floor_sweep(PerSettingError, [0.05], [Static()], EQ7_BLOCH, reps=10, seed=4)
        assert isinstance(info.value.__cause__, RuntimeError)

    @pytest.mark.parametrize("state", [EQ7_BLOCH, (0.3, 0.4, 0.2)], ids=["eq7", "mixed"])
    def test_zero_error_floor_is_exactly_zero(self, state):
        # Without misalignment the fit to exact probabilities is the truth.
        protocols = [Static(), Adaptive(0.5), AdaptivePow(), ReducedAdaptive(0.5), KnownBasis()]
        for factory in (lambda e: NoError(), PerSettingError, PerExperimentError, FixedError):
            out = noise_floor_sweep(factory, [0.0], protocols, state, reps=5, seed=7)
            assert [(pt.floor_infidelity, pt.stderr) for r in out for pt in r.points] == \
                [(0.0, 0.0)] * len(protocols)
            assert all(r.slope_fit is None for r in out)

    @pytest.mark.parametrize("protocol", [Static(), Adaptive(0.5)], ids=repr)
    def test_fixed_error_floor_matches_a_large_n_campaign(self, protocol):
        # Model 3 draws nothing: the floor is one number, which a campaign at
        # N = 2e10 reaches to within its noise.
        out = noise_floor_sweep(FixedError, [1e-3, 3e-2], [protocol], EQ7_BLOCH, reps=2, seed=1)
        for pt in out[0].points:
            assert pt.stderr == 0.0
            row = run_campaign(CampaignSpec(protocol, EQ7_BLOCH, (2 * 10**10,), reps=100,
                                            error_model=FixedError(pt.error_magnitude),
                                            seed=1729)).rows[0]
            tolerance = max(1e-3 * pt.floor_infidelity, 3.0 * row.stderr)
            assert abs(row.mean_infidelity - pt.floor_infidelity) <= tolerance

    @pytest.mark.parametrize("factory", [PerSettingError, PerExperimentError], ids=repr)
    def test_random_error_floor_draws_the_campaign_misalignments(self, factory):
        # The floor's draws are those of the campaign of its spec, so a grid
        # pass at N = 2e10 on that campaign's stream fits the same axes.
        spec = CampaignSpec(Static(), EQ7_BLOCH, (harness._FLOOR_N,), reps=40,
                            error_model=factory(0.01), seed=2)
        point = noise_floor_sweep(factory, [0.01], [Static()], EQ7_BLOCH, reps=40,
                                  seed=2)[0].points[0]
        rng = harness._campaign_rng(spec)
        infidelity = run_grid(Static(), EQ7_BLOCH, (2 * 10**10,), factory(0.01), rng,
                              40).infidelity
        assert point.stderr > 0.0
        assert point.floor_infidelity == pytest.approx(infidelity.mean(), rel=1e-3)

    def test_expected_counts_stay_within_shots(self):
        # Known-basis measures this pure truth on its own axis a, where
        # 0.5 (1 + a . v) rounds above 1: the count of that setting is its shots.
        v = np.random.default_rng(0).standard_normal((200_000, 3))
        v = (v / np.linalg.norm(v, axis=1, keepdims=True))[2369]
        batch = _simulate(KnownBasis(), v, (harness._FLOOR_N,), NoError(), RngContext(0), 1,
                          harness._expected_counts)
        assert batch.n_plus[0, 0] == batch.shots[0, 0]
        assert np.all(batch.n_plus <= batch.shots)
