import math

import numpy as np
import pytest

from adaptive_tomo import (
    MOUNT_TO_BLOCH_ANGLE,
    PAULI_AXES,
    Adaptive,
    CountRecord,
    FixedError,
    InvalidStateError,
    NoError,
    PerExperimentError,
    PerSettingError,
    RngContext,
    Static,
    bloch_to_density,
    born_probability,
    named_state,
    run_protocol,
)
from adaptive_tomo.fixtures import EQ7_BLOCH
from adaptive_tomo.measurement import born_probabilities, realized_axes
from adaptive_tomo.protocols import run_grid

I2 = np.eye(2, dtype=complex) / 2
X, Y, Z = PAULI_AXES


def angle_between(a, b):
    """Angles between the axes of two (..., 3) arrays."""
    return np.arccos(np.clip(np.sum(a * b, axis=-1), -1.0, 1.0))


class TestRngContext:
    def test_same_labels_reproduce(self):
        a = RngContext(7).child(1, 2, 3).generator().standard_normal(5)
        b = RngContext(7).child(1, 2, 3).generator().standard_normal(5)
        assert np.array_equal(a, b)

    def test_distinct_labels_differ(self):
        a = RngContext(7).child(1, 2, 3).generator().standard_normal(5)
        b = RngContext(7).child(1, 2, 4).generator().standard_normal(5)
        assert not np.array_equal(a, b)

    def test_numpy_integers_give_the_python_int_stream(self):
        a = RngContext(7, (1, 2**63 + 5)).generator().standard_normal(5)
        b = RngContext(np.int64(7), (np.int32(1), np.uint64(2**63 + 5))).generator()
        assert np.array_equal(a, b.standard_normal(5))

    def test_child_extends_labels(self):
        ctx = RngContext(5, (1,)).child(2).child(3, 4)
        assert ctx.labels == (1, 2, 3, 4)
        assert ctx.seed == 5


class TestBornProbability:
    def test_maximally_mixed(self):
        for axis in (X, Y, Z):
            assert born_probability(I2, axis) == pytest.approx(0.5, abs=1e-15)

    def test_aligned_pure_state(self):
        assert born_probability(bloch_to_density((0, 0, 1)), Z) == 1.0

    def test_target_state_along_z(self):
        # (1 + <sigma_z>)/2 with <sigma_z> = 0.5.
        assert born_probability(named_state("eq7"), Z) == pytest.approx(0.75, abs=1e-12)

    def test_outcomes_sum_to_one(self):
        rho = named_state("eq10")
        axis = np.array([0.3, -0.5, 0.8])
        axis /= np.linalg.norm(axis)
        assert born_probability(rho, axis) + born_probability(rho, -axis) == pytest.approx(
            1.0, abs=1e-15
        )

    def test_pure_truth_on_its_own_axis_is_at_most_one(self):
        # For about 1% of unit vectors v, 0.5 (1 + v . v) rounds above 1.
        v = np.random.default_rng(0).standard_normal((200_000, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        dot = v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1] + v[:, 2] * v[:, 2]
        above = v[0.5 * (1.0 + dot) > 1.0]
        assert len(above) > 1000
        assert max(born_probabilities(u, u) for u in above) == 1.0


class TestSampleCounts:
    """Binomial photon counts: drawn by ``run_grid`` from the streams of
    ``RngContext``, whose distinct labels give independent streams."""

    def test_certain_outcomes(self):
        for z, expected in ((1.0, 100), (-1.0, 0)):
            batch = run_grid(Static(), (0.0, 0.0, z), (300,), NoError(), RngContext(1), 50)
            assert np.all(batch.n_plus[:, 2] == expected)

    def test_binomial_moments(self):
        n, p = 10**6, 0.75
        draws = np.array(
            [RngContext(2).child(i).generator().binomial(n, p) for i in range(1000)]
        )
        freq = draws / n
        assert abs(freq.mean() - p) < 4.0 * math.sqrt(p * (1 - p) / n)
        var = draws.var(ddof=1)
        assert 0.8 * n * p * (1 - p) < var < 1.2 * n * p * (1 - p)

    def test_bit_reproducible(self):
        rng = RngContext(3).child(9, 9)
        first = run_grid(Adaptive(0.5), (0.3, 0.4, 0.2), (1000,), PerSettingError(0.01),
                         rng, 20)
        again = run_grid(Adaptive(0.5), (0.3, 0.4, 0.2), (1000,), PerSettingError(0.01),
                         rng, 20)
        assert np.array_equal(first.realized, again.realized)
        assert np.array_equal(first.n_plus, again.n_plus)

    def test_lag_one_correlation_across_labels(self):
        n, p = 1000, 0.3
        draws = np.array(
            [RngContext(4).child(i).generator().binomial(n, p) for i in range(10_000)],
            dtype=float,
        )
        std = (draws - n * p) / math.sqrt(n * p * (1 - p))
        corr = np.corrcoef(std[:-1], std[1:])[0, 1]
        assert abs(corr) < 0.05


def standard_draws(seed, shape):
    """A standard normal and an angle in [0, 2 pi) per axis, as the engine
    draws them."""
    gen = np.random.default_rng(seed)
    return gen.standard_normal(shape), gen.uniform(0.0, 2.0 * math.pi, shape)


class TestPerturbAxes:
    """Alignment errors: ``realized_axes`` on given draws, and the draws
    that ``run_grid`` gives it."""

    def test_zero_magnitude_is_identity(self):
        axes = np.array(PAULI_AXES)
        for model in (NoError(), PerSettingError(0.0), PerExperimentError(0.0),
                      FixedError(0.0)):
            assert np.array_equal(realized_axes(axes, model, standard_draws(5, 3)), axes)

    def test_outputs_are_unit(self):
        axes = np.broadcast_to(np.array(PAULI_AXES), (50, 3, 3))
        for model, width in ((PerSettingError(0.3), 3), (PerExperimentError(0.3), 1),
                             (FixedError(0.3), 1)):
            out = realized_axes(axes, model, standard_draws(6, (50, width)))
            assert np.max(np.abs(np.linalg.norm(out, axis=-1) - 1.0)) < 1e-15

    def test_fixed_model_geometry(self):
        # A y-axis rotation applied to z tilts it toward +x in the x-z plane
        # by the Bloch angle MOUNT_TO_BLOCH_ANGLE * E.
        e = 0.01
        out = realized_axes(Z[None], FixedError(e, (0.0, 1.0, 0.0)))[0]
        phi = MOUNT_TO_BLOCH_ANGLE * e
        assert np.allclose(out, (math.sin(phi), 0.0, math.cos(phi)), atol=1e-12)

    def test_fixed_model_identical_across_experiments(self):
        batch = run_grid(Adaptive(0.5), EQ7_BLOCH, (600,), FixedError(0.02), RngContext(8),
                         50)
        first_phase = batch.realized[:, :3]
        assert np.array_equal(first_phase, np.broadcast_to(first_phase[0], first_phase.shape))
        assert np.array_equal(batch.realized, realized_axes(batch.axes, FixedError(0.02)))

    def test_fixed_model_skips_parallel_axis(self):
        # The untilted axis is returned exactly, signed zeros included.
        for axis in (Y, -Y):
            out = realized_axes(axis[None], FixedError(0.3, (0.0, 1.0, 0.0)))[0]
            assert out.tobytes() == axis.tobytes()

    def test_per_setting_angle_statistics(self):
        # Mount errors are Normal(0, E^2), so the root-mean-square tilt over
        # many settings approaches MOUNT_TO_BLOCH_ANGLE * E.
        e = math.radians(0.5)
        batch = run_grid(Static(), EQ7_BLOCH, (30,), PerSettingError(e), RngContext(10),
                         1000)
        angles = angle_between(batch.axes, batch.realized)
        rms = math.sqrt(np.mean(np.square(angles)))
        assert 0.9 * MOUNT_TO_BLOCH_ANGLE * e < rms < 1.1 * MOUNT_TO_BLOCH_ANGLE * e

    def test_per_setting_draws_independent_per_setting(self):
        # Every setting of both phases tilts by its own angle.
        batch = run_grid(Adaptive(0.5), EQ7_BLOCH, (600,), PerSettingError(0.05),
                         RngContext(11), 3)
        tilts = angle_between(batch.axes, batch.realized)
        assert len(set(tilts.ravel().tolist())) == tilts.size

    def test_per_experiment_shares_one_draw(self):
        model = PerExperimentError(0.05)
        batch = run_grid(Adaptive(0.5), EQ7_BLOCH, (600,), model, RngContext(12), 3)
        tilts = angle_between(batch.axes, batch.realized)
        # One (angle, plane-parameter) draw for the whole experiment: every
        # setting of both phases is tilted by the same angle.
        assert np.allclose(tilts, tilts[:, :1], rtol=0.0, atol=1e-12)
        # A different experiment draws a different misalignment.
        assert tilts[0, 0] != pytest.approx(tilts[1, 0], abs=1e-12)
        # Batch composition does not change the realized axis.
        draws = standard_draws(12, (4, 1))
        axes = np.broadcast_to(np.array(PAULI_AXES), (4, 3, 3))
        alone = realized_axes(axes[:, 1], model, (draws[0][:, 0], draws[1][:, 0]))
        assert np.array_equal(alone, realized_axes(axes, model, draws)[:, 1])

    def test_negative_magnitude_rejected(self):
        # Neither a negative nor a non-finite magnitude makes an error model.
        for model in (PerSettingError, PerExperimentError, FixedError):
            for magnitude in (-0.1, math.nan, math.inf):
                with pytest.raises(InvalidStateError):
                    model(magnitude)
        for axis in [(2.0, 0.0, 0.0), (math.nan, 0.0, 0.0)]:
            with pytest.raises(InvalidStateError):
                FixedError(0.1, axis)

    def test_magnitude_tilts_at_most_a_half_turn(self):
        # The largest magnitude tilts an axis by exactly pi on the Bloch
        # sphere; one ulp more, or a finite 1e308 that would overflow the
        # sampled tilts, makes no error model.
        largest = math.pi / MOUNT_TO_BLOCH_ANGLE
        assert MOUNT_TO_BLOCH_ANGLE * largest == math.pi
        axes = np.broadcast_to(np.array(PAULI_AXES), (50, 3, 3))
        for model in (PerSettingError, PerExperimentError, FixedError):
            out = realized_axes(axes, model(largest), standard_draws(6, (50, 3)))
            assert np.max(np.abs(np.linalg.norm(out, axis=-1) - 1.0)) < 1e-10
            for magnitude in (math.nextafter(largest, math.inf), 1e308):
                with pytest.raises(InvalidStateError, match="Bloch tilt 4 E must be at most pi"):
                    model(magnitude)


class TestMeasureSetting:
    """The records of one experiment, as ``run_protocol`` returns them."""

    def test_certain_counts_without_error(self):
        result = run_protocol(Static(), bloch_to_density((0, 0, 1)), 15000, NoError(),
                              RngContext(13))
        rec = result.records[2]
        assert rec.n_plus == rec.n_shots == 5000
        assert np.array_equal(rec.intended_axis, Z)
        assert np.array_equal(rec.realized_axis, Z)

    def test_mixed_state_frequency(self):
        rec = run_protocol(Static(), I2, 3 * 10**6, NoError(), RngContext(14)).records[0]
        assert np.array_equal(rec.intended_axis, X)
        assert abs(rec.frequency - 0.5) < 5.0 * 0.5 / 1000.0

    def test_fixed_error_shifts_probability(self):
        # Intended z on |0><0| with a y-axis tilt: the +1 probability becomes
        # (1 + cos(MOUNT_TO_BLOCH_ANGLE * E))/2.
        e = 0.05
        rho = bloch_to_density((0, 0, 1))
        expected = 0.5 * (1.0 + math.cos(MOUNT_TO_BLOCH_ANGLE * e))
        result = run_protocol(Static(), rho, 3 * 10**6, FixedError(e, (0.0, 1.0, 0.0)),
                              RngContext(15))
        rec = result.records[2]
        assert born_probability(rho, rec.realized_axis) == pytest.approx(expected, abs=1e-12)
        assert abs(rec.frequency - expected) < 5.0 * math.sqrt(expected * (1 - expected) / 10**6)
        assert np.array_equal(rec.intended_axis, Z)

    def test_record_validation(self):
        with pytest.raises(InvalidStateError):
            CountRecord(Z, Z, 10, 11)
        nan = np.array([math.nan, 0.0, 0.0])
        # Realized and intended axes are unit vectors, and NaN is not one.
        for intended, realized in [(Z, np.array([0.0, 0.0, 2.0])), (Z, nan), (nan, Z),
                                   (np.array([0.0, 0.0, 2.0]), Z)]:
            with pytest.raises(InvalidStateError, match="axis is not a unit vector"):
                CountRecord(intended, realized, 10, 5)
        with pytest.raises(InvalidStateError,
                           match=r"intended axis is not a 3-vector \(shape \(2,\)\)"):
            CountRecord(np.array([0.0, 1.0]), Z, 10, 5)
