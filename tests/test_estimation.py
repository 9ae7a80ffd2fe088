import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from adaptive_tomo import (
    CountRecord,
    InsufficientDataError,
    NoError,
    RngContext,
    Static,
    UnderdeterminedError,
    bloch_to_density,
    density_to_bloch,
    fidelity,
    linear_inversion,
    merge_records,
    mle,
    named_state,
    negative_loglikelihood,
    run_protocol,
)
from adaptive_tomo.estimation import hedged_frequency
from adaptive_tomo.measurement import PAULI_AXES
from oracles import ball_grid, oracle_objective

X, Y, Z = PAULI_AXES


def pauli_records(counts, shots):
    return [
        CountRecord(axis, axis, n_shots, n_plus)
        for axis, n_shots, n_plus in zip(PAULI_AXES, shots, counts)
    ]


@functools.cache
def coarse_ball_grid():
    return ball_grid(0.02)


def grid_dominates(records, estimate):
    """Package objective at the estimate must not exceed the best objective
    found on a coarse global grid plus a fine grid around the estimate."""
    obj = negative_loglikelihood(estimate.rho, records)
    center = density_to_bloch(estimate.rho)
    best = min(
        float(np.min(oracle_objective(records, coarse_ball_grid()))),
        float(np.min(oracle_objective(records, ball_grid(0.002, center, 0.03)))),
    )
    assert obj <= best + 1e-6


class TestLinearInversion:
    def test_balanced_counts(self):
        r = linear_inversion(pauli_records([50, 50, 50], [100, 100, 100]))
        assert np.allclose(r, (0, 0, 0), atol=1e-15)

    def test_extreme_counts_leave_ball(self):
        r = linear_inversion(pauli_records([100, 100, 100], [100, 100, 100]))
        assert np.allclose(r, (1, 1, 1))
        assert np.linalg.norm(r) == pytest.approx(math.sqrt(3.0))

    def test_plain_arithmetic(self):
        r = linear_inversion(pauli_records([75, 85, 75], [100, 100, 100]))
        assert np.allclose(r, (0.5, 0.7, 0.5), atol=1e-15)

    def test_missing_axis_rejected(self):
        records = pauli_records([75, 85, 75], [100, 100, 100])[:2]
        with pytest.raises(InsufficientDataError):
            linear_inversion(records)

    def test_zero_shots_rejected(self):
        records = pauli_records([75, 85, 0], [100, 100, 0])
        with pytest.raises(InsufficientDataError):
            linear_inversion(records)

    def test_non_pauli_axis_rejected(self):
        diag = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
        with pytest.raises(InsufficientDataError):
            linear_inversion([CountRecord(diag, diag, 100, 50)])

    def test_zero_shot_non_pauli_record_is_dropped(self):
        # merge_records drops zero-shot records, so this one is never matched.
        diag = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
        records = pauli_records([75, 85, 75], [100, 100, 100]) + [CountRecord(diag, diag, 0, 0)]
        assert np.array_equal(linear_inversion(records), linear_inversion(records[:3]))

    def test_duplicate_records_pool(self):
        records = pauli_records([75, 85, 75], [100, 100, 100])
        records.append(CountRecord(X, X, 100, 75))
        r = linear_inversion(records)
        assert np.allclose(r, (0.5, 0.7, 0.5), atol=1e-15)


class TestNegativeLoglikelihood:
    def test_exact_match_is_zero(self):
        rho = bloch_to_density((0.5, 0.7, 0.5))
        records = pauli_records([75, 85, 75], [100, 100, 100])
        assert negative_loglikelihood(rho, records) == pytest.approx(0.0, abs=1e-20)

    def test_single_record_term(self):
        # One z record, N=100, n=75, evaluated at the maximally mixed state:
        # N (1/2 - 3/4)^2 / (ft (1 - ft)) with ft = 75.5/101.
        ft = 75.5 / 101.0
        expected = 100.0 * 0.0625 / (ft * (1.0 - ft))
        value = negative_loglikelihood(
            np.eye(2, dtype=complex) / 2, [CountRecord(Z, Z, 100, 75)]
        )
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(33.1156, abs=1e-3)

    def test_doubling_counts_doubles_objective(self):
        # The hedged denominator makes this exact only asymptotically.
        rho = named_state("eq10")
        small = pauli_records([75, 85, 60], [100, 100, 100])
        big = pauli_records([150, 170, 120], [200, 200, 200])
        ratio = negative_loglikelihood(rho, big) / negative_loglikelihood(rho, small)
        assert ratio == pytest.approx(2.0, rel=1e-2)
        n = 10**6
        small = pauli_records([int(0.75 * n), int(0.85 * n), int(0.6 * n)], [n] * 3)
        big = pauli_records([int(1.5 * n), int(1.7 * n), int(1.2 * n)], [2 * n] * 3)
        ratio = negative_loglikelihood(rho, big) / negative_loglikelihood(rho, small)
        assert ratio == pytest.approx(2.0, rel=1e-5)

    def test_weights_keep_their_digits_at_counts_of_n(self):
        # At n = N = 5.1e9 the hedge 1 - ft is 1/(2N + 2); formed as a
        # subtraction it lost 1.5e-7 of the term.
        n = 5_142_785_454
        value = negative_loglikelihood(np.eye(2, dtype=complex) / 2, [CountRecord(Z, Z, n, n)])
        ft = Fraction(2 * n + 1, 2 * n + 2)
        expected = n * (Fraction(1, 2) - 1) ** 2 / (ft * (1 - ft))
        assert value == pytest.approx(float(expected), rel=1e-14)

    def test_hedged_frequency(self):
        assert hedged_frequency(0, 100) == pytest.approx(0.5 / 101.0)
        assert hedged_frequency(100, 100) == pytest.approx(100.5 / 101.0)
        assert 0.0 < hedged_frequency(0, 1) < hedged_frequency(1, 1) < 1.0


class TestMle:
    def test_no_record_with_shots_rejected(self):
        for records in ([], [CountRecord(Z, Z, 0, 0)]):
            with pytest.raises(InsufficientDataError, match="no records with shots"):
                mle(records)

    def test_interior_solution(self):
        est = mle(pauli_records([600, 600, 600], [1000, 1000, 1000]))
        assert np.allclose(density_to_bloch(est.rho), (0.2, 0.2, 0.2), atol=1e-12)
        assert not est.on_boundary
        assert est.objective == pytest.approx(0.0, abs=1e-18)

    def test_interior_equals_linear_inversion(self):
        # On Pauli data the weighted normal equations interpolate, so any
        # in-ball linear-inversion vector is returned unchanged.
        rng = np.random.default_rng(61)
        for _ in range(50):
            shots = rng.integers(50, 500, size=3)
            counts = [int(rng.integers(s // 4, 3 * s // 4)) for s in shots]
            records = pauli_records(counts, shots)
            raw = linear_inversion(records)
            if np.linalg.norm(raw) >= 1.0:
                continue
            est = mle(records)
            assert np.max(np.abs(density_to_bloch(est.rho) - raw)) < 1e-12

    def test_boundary_case_against_grid_oracle(self):
        records = pauli_records([100, 50, 50], [100, 100, 100])
        est = mle(records)
        assert est.on_boundary
        grid_dominates(records, est)

    def test_never_leaves_ball(self):
        rng = np.random.default_rng(67)
        for _ in range(200):
            shots = rng.integers(1, 50, size=3)
            counts = [int(rng.integers(0, s + 1)) for s in shots]
            est = mle(pauli_records(counts, shots))
            assert np.linalg.norm(density_to_bloch(est.rho)) <= 1.0 + 1e-9

    def test_grid_oracle_dominance_random_datasets(self):
        rng = np.random.default_rng(71)
        for _ in range(100):
            n_axes = int(rng.integers(3, 7))
            axes = rng.normal(size=(n_axes, 3))
            axes /= np.linalg.norm(axes, axis=1, keepdims=True)
            records = []
            for k in range(n_axes):
                shots = int(rng.integers(5, 200))
                counts = int(rng.integers(0, shots + 1))
                records.append(CountRecord(axes[k], axes[k], shots, counts))
            try:
                est = mle(records)
            except UnderdeterminedError:
                continue
            grid_dominates(records, est)

    def test_large_sample_consistency(self):
        # Static Pauli data on a non-aligned pure state has O(1/sqrt(N))
        # mean infidelity: about 1.2e-4 at 1e6 shots per axis, falling
        # tenfold per hundredfold more samples.  (A fixed sub-1e-4 bound is
        # not attainable for the mean at this sample size.)
        rho = named_state("eq7")

        def mean_infidelity(shots, reps):
            vals = []
            for rep in range(reps):
                records = run_protocol(Static(), rho, 3 * shots, NoError(),
                                       RngContext(99, (rep,))).records
                vals.append(1.0 - fidelity(mle(records).rho, rho))
            return float(np.mean(vals)), float(np.median(vals))

        mean6, median6 = mean_infidelity(10**6, 150)
        assert mean6 < 3e-4
        assert median6 < 1e-4
        mean8, _ = mean_infidelity(10**8, 30)
        assert mean8 < mean6 / 3.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(73)
        axes = list(PAULI_AXES) + [np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)]
        records = [
            CountRecord(ax, ax, 100, int(rng.integers(20, 80))) for ax in axes
        ]
        records.append(CountRecord(X, X, 50, 20))
        base = mle(records)
        for _ in range(5):
            perm = [records[i] for i in rng.permutation(len(records))]
            est = mle(perm)
            assert np.array_equal(est.rho, base.rho)
            assert est.objective == base.objective

    def test_objective_convexity(self):
        rng = np.random.default_rng(79)
        records = pauli_records([70, 40, 90], [100, 100, 100])
        for _ in range(100):
            r1 = rng.normal(size=3)
            r1 *= rng.uniform() ** (1 / 3) / np.linalg.norm(r1)
            r2 = rng.normal(size=3)
            r2 *= rng.uniform() ** (1 / 3) / np.linalg.norm(r2)
            t = rng.uniform()
            rho1, rho2 = bloch_to_density(r1), bloch_to_density(r2)
            mix = bloch_to_density(t * r1 + (1 - t) * r2)
            lhs = negative_loglikelihood(mix, records)
            rhs = t * negative_loglikelihood(rho1, records) + (1 - t) * negative_loglikelihood(rho2, records)
            assert lhs <= rhs + 1e-9

    def test_underdetermined_axes(self):
        records = [CountRecord(X, X, 100, 60), CountRecord(Y, Y, 100, 40)]
        with pytest.raises(UnderdeterminedError) as err:
            mle(records)
        null = err.value.null_direction
        assert abs(abs(float(null[2])) - 1.0) < 1e-9

    def test_surface_fit_reaches_the_surface_on_ill_conditioned_data(self):
        # Weights of 3e9 on one axis beside single shots, where a solve of the
        # normal equations puts the radius only within about 1e-11 of 1.
        diagonal = np.array([0.0, 1.0, 1.0]) / math.sqrt(2.0)
        records = [CountRecord(Z, Z, 3, 0), CountRecord(X, X, 1, 0),
                   CountRecord(diagonal, diagonal, 37763, 0)]
        est = mle(records)
        assert est.on_boundary
        assert abs(np.linalg.norm(density_to_bloch(est.rho)) - 1.0) <= 1e-12

    def test_duplicate_axes_merge_before_solving(self):
        split = [
            CountRecord(Z, Z, 10, 5),
            CountRecord(X, X, 40, 30),
            CountRecord(Y, Y, 40, 10),
            CountRecord(Z, Z, 30, 15),
        ]
        pooled = pauli_records([30, 10, 20], [40, 40, 40])
        a, b = mle(split), mle(pooled)
        assert np.array_equal(a.rho, b.rho)
        assert a.objective == b.objective

    def test_merge_records_sums_and_orders(self):
        records = [
            CountRecord(Z, Z, 10, 5),
            CountRecord(X, X, 20, 10),
            CountRecord(Z, Z, 30, 15),
            CountRecord(Y, Y, 5, 0),
        ]
        merged = merge_records(records)
        as_tuples = [(tuple(axis), shots, plus) for axis, shots, plus in merged]
        assert ((0.0, 0.0, 1.0), 40, 20) in as_tuples
        assert as_tuples == sorted(as_tuples)
