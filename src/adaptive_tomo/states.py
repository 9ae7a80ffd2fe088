"""Exact single-qubit state algebra.

The simulation engine works on Bloch 3-vectors (expectation values of the
three Pauli operators) alone: ``check_bloch``, ``mub_axes`` and
``fidelity_bloch`` are all that a campaign calls here.  The 2x2 complex
density matrices serve the public API (``protocols.run_protocol``, the
estimators' ``Estimate``, the fixtures): purity, fidelity, the second-order
infidelity form and the Chernoff exponent each convert their matrices with
``density_to_bloch`` and evaluate a closed form of the Bloch vectors.  A
state is valid exactly when ``check_bloch`` accepts its Bloch vector; for a
matrix, ``density_to_bloch`` checks the structure (2x2, Hermitian, unit
trace) and then applies that one rule.  A measurement or rotation axis is
valid exactly when ``check_axis`` accepts it.  All operations here are pure
functions on immutable values and are safe to call from any number of
threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidStateError, RankDeficientStateError

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# Tolerances of the structure of a density matrix and of the Bloch ball.
HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-12
BLOCH_NORM_ATOL = 1e-9

# At or below this spectral gap, which equals the Bloch norm |r|, the
# eigenbasis is treated as degenerate and the computational basis is
# returned (by ``eigendecompose`` and ``mub_axes`` alike), so that adaptation
# on a maximally mixed preliminary estimate is deterministic.
DEGENERACY_GAP = 1e-9

# Strict-positivity threshold for the second-order infidelity form.
POSITIVITY_TOL = 1e-8

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _norm3(v: Sequence[float], what: str) -> float:
    # The shape test and norm of ``check_bloch`` and ``check_axis``, whose
    # bounds are written so that a NaN norm fails them too.
    if np.shape(v) != (3,):
        raise InvalidStateError(f"{what} is not a 3-vector (shape {np.shape(v)})")
    x, y, z = float(v[0]), float(v[1]), float(v[2])
    return math.sqrt(x * x + y * y + z * z)


def check_bloch(r: Sequence[float]) -> None:
    """Raise InvalidStateError unless r is a finite Bloch 3-vector with
    |r| <= 1 within BLOCH_NORM_ATOL."""
    norm = _norm3(r, "Bloch vector")
    if not norm <= 1.0 + BLOCH_NORM_ATOL:
        raise InvalidStateError(f"Bloch vector norm {norm} is not at most 1")


def check_axis(axis: Sequence[float], what: str) -> None:
    """Raise InvalidStateError, naming ``what``, unless axis is a finite
    3-vector with |axis| = 1 within BLOCH_NORM_ATOL."""
    norm = _norm3(axis, what)
    if not abs(norm - 1.0) <= BLOCH_NORM_ATOL:
        raise InvalidStateError(f"{what} is not a unit vector (norm {norm})")


def bloch_to_density(r: Sequence[float]) -> np.ndarray:
    """Build the density matrix (1 + r . sigma)/2 from a Bloch vector.

    Raises InvalidStateError unless ``check_bloch`` accepts r.
    """
    check_bloch(r)
    x, y, z = float(r[0]), float(r[1]), float(r[2])
    return np.array(
        [
            [0.5 * (1.0 + z), 0.5 * (x - 1j * y)],
            [0.5 * (x + 1j * y), 0.5 * (1.0 - z)],
        ],
        dtype=complex,
    )


def density_to_bloch(rho: np.ndarray) -> np.ndarray:
    """Return the Bloch vector (Tr(rho sigma_x), Tr(rho sigma_y), Tr(rho sigma_z)),
    or raise InvalidStateError unless rho is a 2x2 Hermitian unit-trace matrix
    whose Bloch vector ``check_bloch`` accepts."""
    if rho.shape != (2, 2):
        raise InvalidStateError(f"expected a 2x2 matrix, got shape {rho.shape}")
    a, b, c = rho[0, 0], rho[1, 1], rho[0, 1]
    if abs(a.imag) > HERMITICITY_ATOL or abs(b.imag) > HERMITICITY_ATOL:
        raise InvalidStateError("diagonal entries are not real")
    if abs(c - rho[1, 0].conjugate()) > 2 * HERMITICITY_ATOL:
        raise InvalidStateError("matrix is not Hermitian")
    if abs(a.real + b.real - 1.0) > TRACE_ATOL:
        raise InvalidStateError(f"trace {a.real + b.real} != 1")
    r = np.array([2.0 * c.real, -2.0 * c.imag, (a - b).real])
    check_bloch(r)
    return r


def check_density(rho: np.ndarray) -> None:
    """Raise InvalidStateError unless ``density_to_bloch`` accepts rho: the one
    validity rule for states is that of ``check_bloch`` on the Bloch vector."""
    density_to_bloch(rho)


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral decomposition of a qubit state, eigenvalues sorted descending.

    Eigenvector phases follow a fixed convention (first component real and
    non-negative; if it vanishes, second component real and positive) so that
    decompositions, and everything derived from them, are reproducible.
    """

    eigenvalues: tuple[float, float]
    eigenvectors: tuple[np.ndarray, np.ndarray]


def eigendecompose(rho: np.ndarray) -> EigenDecomposition:
    """Spectral decomposition via the closed form for 2x2 Hermitian matrices.

    Degenerate inputs (gap below DEGENERACY_GAP) return the computational
    basis, making adaptation on a maximally mixed estimate deterministic.
    """
    check_density(rho)
    a = rho[0, 0].real
    b = rho[1, 1].real
    c = rho[0, 1]
    disc = math.sqrt(max((a - b) ** 2 + 4.0 * (c.real**2 + c.imag**2), 0.0))
    lam1 = min(max(0.5 * (a + b + disc), 0.0), 1.0)
    lam2 = min(max((a + b) - lam1, 0.0), 1.0)
    if disc <= DEGENERACY_GAP:
        vec1 = np.array([1.0 + 0j, 0.0 + 0j])
        vec2 = np.array([0.0 + 0j, 1.0 + 0j])
        return EigenDecomposition((lam1, lam2), (vec1, vec2))
    # Of the two analytic eigenvector forms, pick the better conditioned one.
    if abs(lam1 - b) >= abs(lam1 - a):
        v = np.array([lam1 - b, c.conjugate()])
    else:
        v = np.array([c, lam1 - a])
    v = v / np.linalg.norm(v)
    vec1 = _fix_phase(v)
    vec2 = _fix_phase(np.array([-vec1[1].conjugate(), vec1[0].conjugate()]))
    return EigenDecomposition((lam1, lam2), (vec1, vec2))


def _fix_phase(v: np.ndarray) -> np.ndarray:
    if v[0] != 0.0:
        v = v * (v[0].conjugate() / abs(v[0]))
        return np.array([complex(abs(v[0]), 0.0), v[1]])
    v = v * (v[1].conjugate() / abs(v[1]))
    return np.array([0.0 + 0j, complex(abs(v[1]), 0.0)])


def purity(rho: np.ndarray) -> float:
    """Tr(rho^2) = (1 + |r|^2)/2; ranges from 1/2 (maximally mixed) to 1 (pure)."""
    r = density_to_bloch(rho)
    return 0.5 * (1.0 + float(r @ r))


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """State fidelity via the qubit closed form Tr(rho sigma) + 2 sqrt(det rho det sigma),
    evaluated as ``fidelity_bloch`` of the two Bloch vectors.

    Equivalent to the general square-root definition but avoids matrix square
    roots of near-singular operators; clamped into [0, 1].
    """
    return float(fidelity_bloch(density_to_bloch(rho), density_to_bloch(sigma)))


def infidelity_quadratic_approx(rho: np.ndarray, delta: np.ndarray) -> float:
    """Second-order infidelity of rho + delta relative to rho.

    Evaluates, in the eigenbasis {|i>} of rho,

        (1/2) * sum_ij |<i|delta|j>|^2 / (<i|rho|i> + <j|rho|j>)

    which agrees with the exact 1 - F(rho, rho + eps*delta) up to O(eps^3).
    With rho = (1 + r.sigma)/2, delta = (d.sigma)/2 and d_par = d.r/|r| it is
    (|d|^2 - d_par^2 + d_par^2 / (1 - |r|^2))/4.  Requires rho strictly
    positive and delta traceless Hermitian; raises RankDeficientStateError
    when the smaller eigenvalue (1 - |r|)/2 of rho is below tolerance (there
    the infidelity becomes linear in delta and this form is invalid).
    """
    r = density_to_bloch(rho)
    if abs(np.trace(delta)) > 1e-10:
        raise InvalidStateError("perturbation must be traceless")
    if np.max(np.abs(delta - delta.conjugate().T)) > 1e-10:
        raise InvalidStateError("perturbation must be Hermitian")
    norm = math.sqrt(float(r @ r))
    lam2 = 0.5 * (1.0 - norm)
    if lam2 <= POSITIVITY_TOL:
        raise RankDeficientStateError(
            f"state eigenvalue {lam2} below tolerance {POSITIVITY_TOL}"
        )
    c = delta[0, 1]
    d = np.array([2.0 * c.real, -2.0 * c.imag, (delta[0, 0] - delta[1, 1]).real])
    d_par2 = float(d @ r) ** 2 / (norm * norm) if norm > 0.0 else 0.0
    return 0.25 * (float(d @ d) - d_par2 + d_par2 / (1.0 - norm * norm))


def chernoff_exponent(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Optimal asymptotic error exponent for discriminating two states.

    D = -log min_{s in [0,1]} Tr(rho^s sigma^(1-s)), with matrix powers taken
    on the support (0^s = 0).  Returns math.inf when the states have orthogonal
    support (perfectly distinguishable).  With Bloch vectors r and q, the
    eigenvalues are (1 +- |r|)/2 and (1 +- |q|)/2 and the squared eigenvector
    overlaps (1 +- cos)/2, with cos = r.q/(|r||q|), or 0 where either vanishes.
    The scalar minimisation uses a golden-section search to tolerance 1e-8 in s.
    """
    r, q = density_to_bloch(rho), density_to_bloch(sigma)
    nr, nq = math.sqrt(float(r @ r)), math.sqrt(float(q @ q))
    lr = [min(max(0.5 * (1.0 + sign * nr), 0.0), 1.0) for sign in (1.0, -1.0)]
    ls = [min(max(0.5 * (1.0 + sign * nq), 0.0), 1.0) for sign in (1.0, -1.0)]
    cos = min(max(float(r @ q) / (nr * nq), -1.0), 1.0) if nr > 0.0 and nq > 0.0 else 0.0
    overlaps = [[0.5 * (1.0 + cos), 0.5 * (1.0 - cos)], [0.5 * (1.0 - cos), 0.5 * (1.0 + cos)]]

    def trace_power(s: float) -> float:
        total = 0.0
        for i in range(2):
            pi = lr[i] ** s if lr[i] > 0.0 else 0.0
            if pi == 0.0:
                continue
            for j in range(2):
                pj = ls[j] ** (1.0 - s) if ls[j] > 0.0 else 0.0
                total += pi * pj * overlaps[i][j]
        return total

    lo, hi = 0.0, 1.0
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = trace_power(x1), trace_power(x2)
    best = min(trace_power(lo), trace_power(hi), f1, f2)
    while hi - lo > 1e-8:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = trace_power(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = trace_power(x2)
        best = min(best, f1, f2)
    if best <= 0.0:
        return math.inf
    return max(-math.log(best), 0.0)


@dataclass(frozen=True)
class BasisTriplet:
    """Three mutually unbiased measurement axes; the first diagonalizes the
    reference state the triplet was built from."""

    axes: tuple[np.ndarray, np.ndarray, np.ndarray]

    def __post_init__(self):
        for k, axis in enumerate(self.axes):
            check_axis(axis, f"axis {k}")
        for i, j in ((0, 1), (0, 2), (1, 2)):
            dot = float(np.dot(self.axes[i], self.axes[j]))
            if not abs(dot) <= 1e-9:
                raise InvalidStateError(f"axes {i} and {j} not orthogonal (dot={dot})")


def bloch_of_ket(psi: np.ndarray) -> np.ndarray:
    """Bloch vector of the projector onto a (normalized) state vector."""
    a, b = psi[0], psi[1]
    cross = a * b.conjugate()
    return np.array([2.0 * cross.real, -2.0 * cross.imag, (abs(a) ** 2 - abs(b) ** 2)])


def mub_triplet(eig: EigenDecomposition) -> BasisTriplet:
    """Mutually unbiased basis triplet built around an eigenbasis.

    The first axis is the Bloch axis of the leading eigenvector; the other two
    come from the balanced superpositions (psi1 + psi2)/sqrt(2) and
    (psi1 + i psi2)/sqrt(2).  Feeding in the computational basis recovers the
    Pauli frame (z, x, y).
    """
    psi1, psi2 = eig.eigenvectors
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    axis1 = bloch_of_ket(psi1)
    axis2 = bloch_of_ket((psi1 + psi2) * inv_sqrt2)
    axis3 = bloch_of_ket((psi1 + 1j * psi2) * inv_sqrt2)
    return BasisTriplet((axis1, axis2, axis3))


def _dot3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # a . b over a last axis of length 3, summed left to right: the bits of
    # np.sum(a * b, axis=-1) without its reduction machinery.
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def mub_axes(r: np.ndarray) -> np.ndarray:
    """The axes of ``mub_triplet(eigendecompose(bloch_to_density(r_k)))`` for
    each row r_k of an (R, 3) array, as an (R, 3, 3) array, in closed form.

    With r_hat = r_k / |r_k| = (x, y, z) and rho = sqrt(x^2 + y^2) the triplet
    is (r_hat, (-z x/rho, -z y/rho, rho), (y/rho, -x/rho, 0)).  Where that
    divides by zero the row takes the scalar construction's frame there: the
    computational frame (z, x, y) at |r_k| <= DEGENERACY_GAP, and (sign(z) z,
    x, sign(z) y) on the z axis (rho = 0).  Elsewhere it agrees with the
    scalar construction to about 1e-15, down to a rho at which x^2 + y^2
    underflows.
    """
    r = np.asarray(r, dtype=float)
    norm = np.sqrt(_dot3(r, r))
    with np.errstate(divide="ignore", invalid="ignore"):
        x, y, z = (r / norm[:, None]).T
        rho = np.sqrt(x * x + y * y)
        axes = np.stack([
            np.stack([x, y, z], axis=-1),
            np.stack([-z * x / rho, -z * y / rho, rho], axis=-1),
            np.stack([y / rho, -x / rho, np.zeros_like(x)], axis=-1),
        ], axis=1)
    # Rows where the closed form divides by a vanishing |r_k| or rho.
    special = ~(norm > DEGENERACY_GAP) | ~(rho > 0.0)
    sign = np.where((norm > DEGENERACY_GAP) & (z < 0.0), -1.0, 1.0)[special]
    axes[special] = 0.0
    axes[special, 0, 2] = sign
    axes[special, 1, 0] = 1.0
    axes[special, 2, 1] = sign
    return axes


def fidelity_bloch(r: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``fidelity`` of states given as Bloch vectors (arrays (..., 3)).

    Evaluates (1 + r.s + sqrt((1 - |r|^2)(1 - |s|^2)))/2, each factor under
    the root floored at 0 like the determinants of the matrix form
    Tr(rho sigma) + 2 sqrt(det rho det sigma), and clamps the result into
    [0, 1].  Inside the ball it agrees with that matrix form to about 1e-15;
    for pure states the root of a vanishing determinant amplifies the
    rounding of either form to about 1e-8.
    """
    r = np.asarray(r, dtype=float)
    s = np.asarray(s, dtype=float)
    det_r = np.maximum(1.0 - _dot3(r, r), 0.0)
    det_s = np.maximum(1.0 - _dot3(s, s), 0.0)
    f = 0.5 * (1.0 + _dot3(r, s) + np.sqrt(det_r * det_s))
    return np.minimum(np.maximum(f, 0.0), 1.0)
