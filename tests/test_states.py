import math

import numpy as np
import pytest

from adaptive_tomo import (
    BasisTriplet,
    InvalidStateError,
    RankDeficientStateError,
    bloch_of_ket,
    bloch_to_density,
    chernoff_exponent,
    check_bloch,
    density_to_bloch,
    eigendecompose,
    fidelity,
    infidelity_quadratic_approx,
    mub_triplet,
    purity,
)
from adaptive_tomo.fixtures import EQ7_BLOCH, EQ7_KET, named_state
from oracles import general_fidelity, random_in_ball

I2 = np.eye(2, dtype=complex)


def trace_powers(rho, sigma, s):
    """Tr(rho^s sigma^(1-s)) at each s of an array, with the matrix powers built
    from np.linalg.eigh on the support (eigenvalues at or below 1e-12, the
    rounding of eigh, count as 0, and 0^s = 0)."""
    def powers(m, exponents):
        w, v = np.linalg.eigh(m)
        scaled = np.where(w > 1e-12, np.abs(w)[None, :] ** exponents[:, None], 0.0)
        return np.einsum("ij,sj,kj->sik", v, scaled, v.conj())

    return np.einsum("sik,ski->s", powers(rho, s), powers(sigma, 1.0 - s)).real


def general_chernoff(rho, sigma):
    """-log min over s in [0, 1] of ``trace_powers``, which is convex in s: a
    grid of 101 points, narrowed to the neighbours of its best point until it
    is 1e-10 wide.  Used only as a test oracle."""
    lo, hi, best = 0.0, 1.0, math.inf
    while hi - lo > 1e-10:
        grid = np.linspace(lo, hi, 101)
        values = trace_powers(rho, sigma, grid)
        k = int(np.argmin(values))
        best = min(best, values[k])
        lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, 100)]
    return math.inf if best <= 0.0 else max(-math.log(best), 0.0)


def eigenbasis_quadratic_form(rho, delta):
    """(1/2) sum_ij |<i|delta|j>|^2 / (lam_i + lam_j) in the eigenbasis of rho
    from np.linalg.eigh.  Used only as a test oracle."""
    lam, v = np.linalg.eigh(rho)
    d = v.conj().T @ delta @ v
    return 0.5 * float(np.sum(np.abs(d) ** 2 / (lam[:, None] + lam[None, :])))


class TestBlochDensityConversion:
    def test_maximally_mixed(self):
        assert np.allclose(bloch_to_density((0, 0, 0)), I2 / 2, atol=1e-15)

    def test_north_pole(self):
        assert np.allclose(bloch_to_density((0, 0, 1)), np.diag([1.0, 0.0]), atol=1e-15)

    def test_target_state_matches_its_ket(self):
        projector = np.outer(EQ7_KET, EQ7_KET.conj())
        assert np.max(np.abs(bloch_to_density(EQ7_BLOCH) - projector)) < 1e-12

    def test_out_of_ball_rejected(self):
        with pytest.raises(InvalidStateError):
            bloch_to_density((1.0, 1.0, 1.0))

    def test_non_finite_rejected(self):
        for r in ((math.nan, 0.0, 0.0), (0.0, math.inf, 0.0), (0.0, 0.0, -math.inf)):
            with pytest.raises(InvalidStateError):
                bloch_to_density(r)

    def test_check_bloch_needs_three_components(self):
        check_bloch(np.array([0.0, 0.6, -0.8]))
        for r in ((0.1, 0.2), (0.1, 0.2, 0.3, 0.4), [[0.1, 0.2, 0.3]]):
            with pytest.raises(InvalidStateError, match="Bloch vector is not a 3-vector"):
                check_bloch(r)

    def test_bloch_of_identity_over_two(self):
        assert np.allclose(density_to_bloch(I2 / 2), np.zeros(3), atol=1e-15)

    def test_bloch_of_ground_state(self):
        assert np.allclose(density_to_bloch(np.diag([1.0, 0.0 + 0j])), (0, 0, 1))

    def test_bloch_of_benchmark_state(self):
        # Component formulas applied by hand to the stored matrix entries:
        # x = 2 Re(rho01), y = -2 Im(rho01), z = rho00 - rho11.
        rho = named_state("eq10")
        expected = (
            2 * rho[0, 1].real,
            -2 * rho[0, 1].imag,
            (rho[0, 0] - rho[1, 1]).real,
        )
        assert np.allclose(density_to_bloch(rho), expected, atol=1e-15)
        assert np.allclose(density_to_bloch(rho), (0.4020, 0.7248, 0.5422), atol=1e-12)
        with pytest.raises(KeyError, match="unknown state 'eq99'"):
            named_state("eq99")

    def test_round_trip_on_random_states(self):
        rng = np.random.default_rng(7)
        for r in random_in_ball(rng, 10_000):
            back = density_to_bloch(bloch_to_density(r))
            assert np.max(np.abs(back - r)) < 1e-12
        # On the surface and just outside it, within the tolerance of
        # check_bloch, which both conversions apply.
        for z in (1.0, 1 + 3e-10, 1 + 1e-9):
            assert np.array_equal(density_to_bloch(bloch_to_density((0.0, 0.0, z))), (0, 0, z))

    def test_malformed_matrices_rejected(self):
        with pytest.raises(InvalidStateError, match=r"expected a 2x2 matrix, got shape \(3, 3\)"):
            density_to_bloch(np.eye(3, dtype=complex) / 3)
        with pytest.raises(InvalidStateError, match="diagonal entries are not real"):
            density_to_bloch(np.array([[0.5 + 0.1j, 0.0], [0.0, 0.5 - 0.1j]]))
        with pytest.raises(InvalidStateError):
            density_to_bloch(np.array([[0.9, 0.2], [0.3, 0.1]], dtype=complex))
        with pytest.raises(InvalidStateError):
            density_to_bloch(np.array([[0.9, 0.0], [0.0, 0.2]], dtype=complex))
        with pytest.raises(InvalidStateError):
            density_to_bloch(np.array([[1.2, 0.0], [0.0, -0.2]], dtype=complex))
        for rho in (np.array([[0.5, math.nan], [math.nan, 0.5]], dtype=complex),
                    np.array([[math.nan, 0.0], [0.0, 0.5]], dtype=complex)):
            for function in (density_to_bloch, purity, lambda m: fidelity(m, I2 / 2)):
                with pytest.raises(InvalidStateError):
                    function(rho)


class TestEigendecompose:
    def test_pure_diagonal(self):
        eig = eigendecompose(np.diag([1.0, 0.0 + 0j]))
        assert eig.eigenvalues == (1.0, 0.0)
        assert np.allclose(eig.eigenvectors[0], [1, 0])
        assert np.allclose(eig.eigenvectors[1], [0, 1])

    def test_degenerate_returns_computational_basis(self):
        eig = eigendecompose(I2 / 2)
        assert eig.eigenvalues == (0.5, 0.5)
        assert np.allclose(eig.eigenvectors[0], [1, 0])
        assert np.allclose(eig.eigenvectors[1], [0, 1])

    def test_benchmark_state_eigenvalues(self):
        # Oracle: roots of x^2 - x + det = 0, cross-checked against purity.
        rho = named_state("eq10")
        det = (rho[0, 0] * rho[1, 1] - rho[0, 1] * rho[1, 0]).real
        lam1 = 0.5 * (1.0 + math.sqrt(1.0 - 4.0 * det))
        eig = eigendecompose(rho)
        assert eig.eigenvalues[0] == pytest.approx(lam1, abs=1e-12)
        assert eig.eigenvalues[1] == pytest.approx(1.0 - lam1, abs=1e-12)
        assert eig.eigenvalues[0] ** 2 + eig.eigenvalues[1] ** 2 == pytest.approx(
            purity(rho), abs=1e-12
        )
        assert eig.eigenvalues == pytest.approx((0.9955, 0.0045), abs=5e-4)

    def test_invariants_on_random_states(self):
        rng = np.random.default_rng(11)
        for r in random_in_ball(rng, 500):
            rho = bloch_to_density(r)
            eig = eigendecompose(rho)
            lam1, lam2 = eig.eigenvalues
            v1, v2 = eig.eigenvectors
            assert lam1 >= lam2
            assert 0.0 <= lam2 <= lam1 <= 1.0
            assert abs(lam1 + lam2 - 1.0) < 1e-10
            assert abs(np.vdot(v1, v2)) < 1e-10
            recon = lam1 * np.outer(v1, v1.conj()) + lam2 * np.outer(v2, v2.conj())
            assert np.max(np.abs(recon - rho)) < 1e-10
            for v in (v1, v2):
                lead = v[0] if abs(v[0]) > 1e-12 else v[1]
                assert lead.imag == pytest.approx(0.0, abs=1e-12)
                assert lead.real > 0.0

    def test_deterministic(self):
        rho = named_state("eq10")
        a, b = eigendecompose(rho), eigendecompose(rho)
        assert a.eigenvalues == b.eigenvalues
        assert np.array_equal(a.eigenvectors[0], b.eigenvectors[0])
        assert np.array_equal(a.eigenvectors[1], b.eigenvectors[1])


class TestPurity:
    def test_maximally_mixed(self):
        assert purity(I2 / 2) == pytest.approx(0.5, abs=1e-15)

    def test_pure_states(self):
        rng = np.random.default_rng(3)
        for r in random_in_ball(rng, 20):
            r = r / np.linalg.norm(r)
            assert purity(bloch_to_density(r)) == pytest.approx(1.0, abs=1e-12)

    def test_benchmark_value(self):
        assert abs(purity(named_state("eq10")) - 0.991) < 1e-3

    def test_matches_bloch_norm(self):
        rng = np.random.default_rng(5)
        for r in random_in_ball(rng, 200):
            rho = bloch_to_density(r)
            expected = 0.5 * (1.0 + np.dot(density_to_bloch(rho), density_to_bloch(rho)))
            assert purity(rho) == pytest.approx(expected, abs=1e-12)


class TestFidelity:
    def test_self_fidelity(self):
        rng = np.random.default_rng(13)
        for r in random_in_ball(rng, 20):
            rho = bloch_to_density(r)
            assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pure_states(self):
        assert fidelity(bloch_to_density((0, 0, 1)), bloch_to_density((0, 0, -1))) == 0.0

    def test_mixed_against_pure(self):
        # Float-normalized vectors are pure only to ~1e-16 in norm^2, and the
        # sqrt(det) term amplifies that to ~1e-8; the identity is exact for
        # exactly pure inputs.
        rng = np.random.default_rng(17)
        for r in random_in_ball(rng, 10):
            r = r / np.linalg.norm(r)
            assert fidelity(I2 / 2, bloch_to_density(r)) == pytest.approx(0.5, abs=1e-7)
        assert fidelity(I2 / 2, bloch_to_density((0, 0, 1))) == pytest.approx(0.5, abs=1e-15)

    def test_benchmark_pair(self):
        f = fidelity(named_state("eq10"), named_state("eq7"))
        assert abs(f - 0.992) < 1e-3

    def test_closed_form_matches_general_definition(self):
        rng = np.random.default_rng(19)
        rs = random_in_ball(rng, 10_000)
        ss = random_in_ball(rng, 10_000)
        for r, s in zip(rs, ss):
            rho, sigma = bloch_to_density(r), bloch_to_density(s)
            assert abs(fidelity(rho, sigma) - general_fidelity(rho, sigma)) < 1e-10

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(23)
        for r, s in zip(random_in_ball(rng, 300), random_in_ball(rng, 300)):
            rho, sigma = bloch_to_density(r), bloch_to_density(s)
            f = fidelity(rho, sigma)
            assert 0.0 <= f <= 1.0
            assert f == pytest.approx(fidelity(sigma, rho), abs=1e-13)

    def test_unity_implies_equality(self):
        rng = np.random.default_rng(29)
        for r, s in zip(random_in_ball(rng, 500), random_in_ball(rng, 500)):
            rho, sigma = bloch_to_density(r), bloch_to_density(s)
            if fidelity(rho, sigma) == 1.0:
                assert np.max(np.abs(rho - sigma)) <= 1e-8
        rho = bloch_to_density((0.2, -0.4, 0.1))
        assert fidelity(rho, rho) == 1.0


class TestInfidelityQuadraticApprox:
    def test_zero_perturbation(self):
        assert infidelity_quadratic_approx(I2 / 2, np.zeros((2, 2))) == 0.0

    def test_diagonal_case_against_exact(self):
        # For rho = I/2, delta = eps * sigma_z / 2 the quadratic form equals
        # eps^2 / 2 * sum delta_ij^2 = 2.5e-5 at eps = 0.01; the exact
        # infidelity agrees to well under 1e-7.
        eps = 0.01
        delta = eps * np.diag([0.5, -0.5 + 0j])
        approx = infidelity_quadratic_approx(I2 / 2, delta)
        assert approx == pytest.approx(2.5e-5, abs=1e-12)
        exact = 1.0 - fidelity(I2 / 2, I2 / 2 + delta)
        assert abs(approx - exact) < 1e-7

    def test_cubic_remainder_scaling(self):
        rho = bloch_to_density((0.3, -0.2, 0.4))
        delta = np.array([[0.3, 0.4 - 0.2j], [0.4 + 0.2j, -0.3]])
        delta /= np.linalg.norm(delta)
        eps1, eps2 = 2e-2, 1e-2
        err1 = abs(
            infidelity_quadratic_approx(rho, eps1 * delta)
            - (1.0 - fidelity(rho, rho + eps1 * delta))
        )
        err2 = abs(
            infidelity_quadratic_approx(rho, eps2 * delta)
            - (1.0 - fidelity(rho, rho + eps2 * delta))
        )
        assert err1 >= 7.0 * err2

    def test_remainder_bounded_on_random_states(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            r = random_in_ball(rng, 1)[0] * 0.8
            rho = bloch_to_density(r)
            h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            delta = (h + h.conj().T) / 2
            delta -= np.trace(delta).real / 2 * np.eye(2)
            delta /= np.linalg.norm(delta)
            ratios = []
            for eps in (1e-1, 1e-2, 1e-3):
                if np.linalg.norm(density_to_bloch(rho + eps * delta)) > 1.0:
                    continue
                exact = 1.0 - fidelity(rho, rho + eps * delta)
                approx = infidelity_quadratic_approx(rho, eps * delta)
                ratios.append(abs(exact - approx) / eps**3)
            # Remainder is cubic: the normalized error stays bounded as eps falls.
            assert max(ratios) < 50.0

    def test_matches_eigenbasis_sum(self):
        # Mixed states up to |r| = 0.999 (smaller eigenvalue 5e-4) in random
        # directions, I/2, and large and small traceless Hermitian deltas.
        rng = np.random.default_rng(47)
        unit = random_in_ball(rng, 40)
        unit /= np.linalg.norm(unit, axis=1, keepdims=True)
        for r in np.concatenate([random_in_ball(rng, 200) * 0.999, np.zeros((1, 3)),
                                 unit * 0.999]):
            rho = bloch_to_density(r)
            h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            delta = (h + h.conj().T) / 2
            delta -= np.trace(delta).real / 2 * np.eye(2)
            for eps in (1.0, 1e-3):
                want = eigenbasis_quadratic_form(rho, eps * delta)
                got = infidelity_quadratic_approx(rho, eps * delta)
                assert got == pytest.approx(want, rel=1e-12, abs=0.0), r

    def test_perturbation_must_be_traceless_hermitian(self):
        with pytest.raises(InvalidStateError, match="perturbation must be traceless"):
            infidelity_quadratic_approx(I2 / 2, np.diag([0.1, 0.0 + 0j]))
        with pytest.raises(InvalidStateError, match="perturbation must be Hermitian"):
            infidelity_quadratic_approx(I2 / 2, np.array([[0.0, 0.1], [0.0, 0.0 + 0j]]))

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankDeficientStateError):
            infidelity_quadratic_approx(
                np.diag([1.0, 0.0 + 0j]), np.diag([0.5, -0.5 + 0j])
            )

    def test_linear_regime_for_pure_states(self):
        # For pure rho and a perturbation moving weight onto the null
        # eigenvector, infidelity is linear: (1 - F)/eps -> <null|delta|null>.
        rho = np.diag([1.0, 0.0 + 0j])
        delta = np.array([[-0.4, 0.1 + 0.2j], [0.1 - 0.2j, 0.4]])
        eps = 1e-4
        slope = (1.0 - fidelity(rho, rho + eps * delta)) / eps
        assert slope == pytest.approx(0.4, rel=0.05)


class TestChernoffExponent:
    def test_identical_states(self):
        rho = named_state("eq10")
        assert chernoff_exponent(rho, rho) == pytest.approx(0.0, abs=1e-9)

    def test_orthogonal_pure_states(self):
        d = chernoff_exponent(bloch_to_density((0, 0, 1)), bloch_to_density((0, 0, -1)))
        assert d == math.inf

    def test_pure_states_give_log_fidelity(self):
        rho = bloch_to_density((1, 0, 0))
        sigma = bloch_to_density((0, 0, 1))
        assert chernoff_exponent(rho, sigma) == pytest.approx(-math.log(0.5), abs=1e-6)

    def test_matches_matrix_power_oracle(self):
        # Random mixed states, I/2, exactly pure Pauli states, and states
        # near rank deficiency (smaller eigenvalue 1e-9 and 1e-6), each
        # paired with three states of the same set.  Near an eigenvalue of
        # 1e-9 the rounding of either spectrum is about 1e-7 of it, which
        # moves the exponent by up to 2.1e-9 (840 pairs), hence the 1e-8.
        rng = np.random.default_rng(47)
        unit = random_in_ball(rng, 40)
        unit /= np.linalg.norm(unit, axis=1, keepdims=True)
        pauli = np.array([[0, 0, 1], [0, 0, -1], [1, 0, 0], [0, -1, 0]], dtype=float)
        states = np.concatenate([random_in_ball(rng, 60), np.zeros((1, 3)), pauli,
                                 unit[:20] * (1 - 2e-9), unit[20:] * (1 - 2e-6)])
        for r in states:
            for q in states[rng.choice(len(states), 3)]:
                rho, sigma = bloch_to_density(r), bloch_to_density(q)
                want = general_chernoff(rho, sigma)
                got = chernoff_exponent(rho, sigma)
                if math.isinf(want):
                    assert got == want, (r, q)
                else:
                    assert abs(got - want) <= 1e-8, (r, q)

    def test_sandwich_bounds_low_infidelity_pairs(self):
        rng = np.random.default_rng(37)
        count = 0
        while count < 1000:
            r = random_in_ball(rng, 1)[0] * 0.95
            s = r + rng.normal(scale=0.02, size=3)
            if np.linalg.norm(s) > 0.98:
                continue
            rho, sigma = bloch_to_density(r), bloch_to_density(s)
            f = fidelity(rho, sigma)
            if 1.0 - f > 0.1:
                continue
            d = chernoff_exponent(rho, sigma)
            assert (1.0 - f) / 2.0 - 1e-6 <= d <= -math.log(f) + 1e-6
            count += 1


class TestMubTriplet:
    def test_recovers_pauli_frame(self):
        triplet = mub_triplet(eigendecompose(bloch_to_density((0, 0, 1))))
        assert np.allclose(triplet.axes[0], (0, 0, 1), atol=1e-12)
        assert np.allclose(triplet.axes[1], (1, 0, 0), atol=1e-12)
        assert np.allclose(triplet.axes[2], (0, 1, 0), atol=1e-12)

    def test_axes_mutually_orthogonal(self):
        rng = np.random.default_rng(41)
        for r in random_in_ball(rng, 200):
            triplet = mub_triplet(eigendecompose(bloch_to_density(r)))
            for i in range(3):
                assert np.linalg.norm(triplet.axes[i]) == pytest.approx(1.0, abs=1e-10)
                for j in range(i + 1, 3):
                    assert abs(np.dot(triplet.axes[i], triplet.axes[j])) < 1e-10

    def test_first_axis_is_leading_eigenvector_axis(self):
        triplet = mub_triplet(eigendecompose(named_state("eq7")))
        assert np.allclose(triplet.axes[0], EQ7_BLOCH, atol=1e-10)

    def test_mub_overlaps_are_half(self):
        # Squared overlaps of cross-basis state vectors equal 1/2 exactly for
        # a mutually unbiased construction.
        rng = np.random.default_rng(43)
        r = random_in_ball(rng, 1)[0]
        triplet = mub_triplet(eigendecompose(bloch_to_density(r)))
        for i in range(3):
            for j in range(i + 1, 3):
                rho_i = bloch_to_density(triplet.axes[i])
                rho_j = bloch_to_density(triplet.axes[j])
                assert np.trace(rho_i @ rho_j).real == pytest.approx(0.5, abs=1e-10)

    def test_validation_rejects_bad_triplet(self):
        with pytest.raises(InvalidStateError):
            BasisTriplet(
                (np.array([1.0, 0, 0]), np.array([1.0, 0, 0]), np.array([0, 0, 1.0]))
            )
        with pytest.raises(InvalidStateError):
            BasisTriplet(
                (np.array([1.0, 0, 0]), np.array([np.nan, 0, 0]), np.array([0, 0, 1.0]))
            )

    def test_bloch_of_ket_plus_i(self):
        assert np.allclose(
            bloch_of_ket(np.array([1.0, 1j]) / math.sqrt(2)), (0, 1, 0), atol=1e-15
        )
