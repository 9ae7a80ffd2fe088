"""State reconstruction from count records.

The maximum-likelihood estimate minimises a quadratic approximation to the
negative log-likelihood,

    l(rho) = sum_k N_k (Tr[rho E_k] - f_k)^2 / (ft_k (1 - ft_k)),

where E_k is the +1 projector of record k's *intended* axis, f_k = n_k / N_k
is the observed frequency, and ft_k = (n_k + 1/2) / (N_k + 1) is an add-half
hedged frequency used in the denominator only, keeping weights finite at
f_k in {0, 1}.  Estimators never see realized axes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InsufficientDataError, UnderdeterminedError
from .measurement import PAULI_AXES, CountRecord
from .states import bloch_to_density, density_to_bloch

BOUNDARY_TOL = 1e-9
_RADIUS_TOL = 1e-12
_SPAN_TOL = 1e-9
# Multiplier beyond which the boundary search is declared diverged.
_MU_LIMIT = 1e300
# Newton's method on the secular equation, used by mle_batch.
_NEWTON_TOL = 1e-13
_NEWTON_MAX_ITER = 100


@dataclass(frozen=True)
class Estimate:
    """Reconstructed state, its objective value, and whether it sits on the
    surface of the Bloch ball (within 1e-9)."""

    rho: np.ndarray
    objective: float
    on_boundary: bool


def hedged_frequency(n_plus: int, n_shots: int) -> float:
    """Add-half smoothed frequency (n + 1/2) / (N + 1)."""
    return (n_plus + 0.5) / (n_shots + 1.0)


def merge_records(records: Iterable[CountRecord]) -> list[tuple[np.ndarray, int, int]]:
    """Sum counts of records sharing an identical intended axis.

    Returns (axis, total shots, total +1 counts) tuples in a canonical order
    (lexicographic in the axis components), so downstream arithmetic is
    bit-for-bit independent of record order.  Zero-shot records are dropped.
    """
    groups: dict[tuple[float, float, float], list[int]] = {}
    for rec in records:
        if rec.n_shots == 0:
            continue
        key = (float(rec.intended_axis[0]), float(rec.intended_axis[1]),
               float(rec.intended_axis[2]))
        tally = groups.setdefault(key, [0, 0])
        tally[0] += rec.n_shots
        tally[1] += rec.n_plus
    return [
        (np.array(key), shots, plus)
        for key, (shots, plus) in sorted(groups.items())
    ]


def linear_inversion(records: Sequence[CountRecord]) -> np.ndarray:
    """Raw Bloch vector r_k = 2 f_k - 1 from data on the three Pauli axes.

    No ball projection is applied: the result may have norm > 1.  Requires
    every record to lie on a Pauli axis and every axis to carry shots.
    """
    totals = {0: [0, 0], 1: [0, 0], 2: [0, 0]}
    for rec in records:
        matched = None
        for k, axis in enumerate(PAULI_AXES):
            if np.max(np.abs(rec.intended_axis - axis)) <= 1e-9:
                matched = k
                break
        if matched is None:
            raise InsufficientDataError(
                f"linear inversion needs Pauli axes only, got {rec.intended_axis}"
            )
        totals[matched][0] += rec.n_shots
        totals[matched][1] += rec.n_plus
    out = np.empty(3)
    for k in range(3):
        shots, plus = totals[k]
        if shots == 0:
            raise InsufficientDataError(f"no shots on Pauli axis {k}")
        out[k] = 2.0 * plus / shots - 1.0
    return out


def negative_loglikelihood(rho: np.ndarray, records: Sequence[CountRecord]) -> float:
    """Hedge-weighted quadratic log-likelihood of rho given the records."""
    r = density_to_bloch(rho)
    total = 0.0
    for axis, shots, plus in merge_records(records):
        f = plus / shots
        ft = hedged_frequency(plus, shots)
        predicted = 0.5 * (1.0 + float(np.dot(axis, r)))
        total += shots * (predicted - f) ** 2 / (ft * (1.0 - ft))
    return total


def _normal_equations(merged):
    # l(r) = (1/4) sum_k w_k (a_k . r - c_k)^2  =>  A r = b at the minimum.
    # A is symmetric 3x3, kept as its six independent entries.  Axis
    # components and counts may be arrays over a batch of record sets; the
    # arithmetic is elementwise and identical for scalars.
    axx = axy = axz = ayy = ayz = azz = 0.0
    bx = by = bz = 0.0
    for axis, shots, plus in merged:
        ax, ay, az = axis[0], axis[1], axis[2]
        f = plus / shots
        ft = hedged_frequency(plus, shots)
        w = shots / (ft * (1.0 - ft))
        wc = w * (2.0 * f - 1.0)
        axx += w * ax * ax
        axy += w * ax * ay
        axz += w * ax * az
        ayy += w * ay * ay
        ayz += w * ay * az
        azz += w * az * az
        bx += wc * ax
        by += wc * ay
        bz += wc * az
    return (axx, axy, axz, ayy, ayz, azz), (bx, by, bz)


def _solve3_sym(a, b, shift: float = 0.0):
    # Cramer solve of (A + shift*I) r = b for symmetric 3x3 A.
    axx, axy, axz, ayy, ayz, azz = a
    axx = axx + shift
    ayy = ayy + shift
    azz = azz + shift
    c00 = ayy * azz - ayz * ayz
    c01 = axz * ayz - axy * azz
    c02 = axy * ayz - axz * ayy
    det = axx * c00 + axy * c01 + axz * c02
    c11 = axx * azz - axz * axz
    c12 = axy * axz - axx * ayz
    c22 = axx * ayy - axy * axy
    bx, by, bz = b
    return (
        (c00 * bx + c01 * by + c02 * bz) / det,
        (c01 * bx + c11 * by + c12 * bz) / det,
        (c02 * bx + c12 * by + c22 * bz) / det,
    )


def mle(records: Sequence[CountRecord]) -> Estimate:
    """Global minimiser of the quadratic log-likelihood over the Bloch ball.

    Solves the unconstrained weighted least-squares problem; if that solution
    is unphysical, finds the surface minimum by a monotone bisection on the
    Lagrange multiplier mu in r(mu) = (A + mu I)^-1 b, scaled onto the
    surface if rounding stops the bisection short of it.
    """
    # Plain floats keep the scalar arithmetic on Python floats.
    merged = [(axis.tolist(), shots, plus) for axis, shots, plus in merge_records(records)]
    if not merged:
        raise InsufficientDataError("no records with shots")
    _check_span(merged)
    a_mat, b_vec = _normal_equations(merged)
    r = _solve3_sym(a_mat, b_vec)
    norm = math.sqrt(r[0] * r[0] + r[1] * r[1] + r[2] * r[2])
    if norm > 1.0:
        r, norm = _boundary_solution(a_mat, b_vec)
    rho = bloch_to_density(r)
    objective = negative_loglikelihood(rho, records)
    return Estimate(rho, objective, abs(norm - 1.0) <= BOUNDARY_TOL)


def _span_det(merged):
    # Unweighted Gram determinant of the axis set; its square root is the
    # volume spanned, so near-zero means a rank-deficient axis set.  Like
    # _normal_equations, it also evaluates a batch elementwise.
    gxx = gxy = gxz = gyy = gyz = gzz = 0.0
    for axis, _, _ in merged:
        ax, ay, az = axis[0], axis[1], axis[2]
        gxx += ax * ax
        gxy += ax * ay
        gxz += ax * az
        gyy += ay * ay
        gyz += ay * az
        gzz += az * az
    return (
        gxx * (gyy * gzz - gyz * gyz)
        + gxy * (gxz * gyz - gxy * gzz)
        + gxz * (gxy * gyz - gxz * gyy)
    )


def _check_span(merged) -> None:
    if _span_det(merged) > _SPAN_TOL:
        return
    axes = np.array([axis for axis, _, _ in merged])
    _, _, vt = np.linalg.svd(axes)
    null = vt[-1]
    raise UnderdeterminedError(
        f"measurement axes do not span Bloch space; "
        f"unconstrained direction ~ ({null[0]:.6f}, {null[1]:.6f}, {null[2]:.6f})",
        null,
    )


def _boundary_solution(a_mat, b_vec):
    def radius(mu: float):
        r = _solve3_sym(a_mat, b_vec, mu)
        return math.sqrt(r[0] * r[0] + r[1] * r[1] + r[2] * r[2]), r

    lo = 0.0
    hi = max(a_mat[0] + a_mat[3] + a_mat[5], 1.0)
    while radius(hi)[0] > 1.0:
        hi *= 4.0
        if hi > _MU_LIMIT:
            raise RuntimeError("boundary multiplier search diverged")
    best = radius(hi)
    for _ in range(500):
        mid = 0.5 * (lo + hi)
        norm, r = radius(mid)
        if abs(norm - 1.0) < _RADIUS_TOL:
            return r, norm
        if norm > 1.0:
            lo = mid
        else:
            hi = mid
            best = (norm, r)
    # Rounding in an ill-conditioned Cramer solve can keep the radius from
    # reaching 1 within _RADIUS_TOL; the last point inside, left as it was,
    # could lie 6e-8 short of the surface, where the objective is steep.
    norm, r = best
    return (r[0] / norm, r[1] / norm, r[2] / norm), 1.0


# Batched fits over the repetitions of one grid point.  A batch holds A as a
# (6, n) array of matrix entries and b as a (3, n) array, from
# _normal_equations on array counts.


def _radius(a_mat, b_vec, mu):
    r = _solve3_sym(a_mat, b_vec, mu)
    return np.sqrt(r[0] * r[0] + r[1] * r[1] + r[2] * r[2]), r


def _newton_boundary(a_mat, b_vec) -> np.ndarray:
    # Surface minimum by Newton's method on phi(mu) = 1/|r(mu)| - 1, with
    # r(mu) = (A + mu I)^-1 b worked in A's eigenbasis (the More-Sorensen
    # trust-region step, SIAM J. Sci. Stat. Comput. 4:553, 1983).  A is
    # positive definite and phi is increasing and concave on mu > -lambda_min,
    # so from mu = 0, where phi < 0, the iterates rise monotonically to the
    # root.  Where rounding puts |r(0)| just below 1 although the Cramer solve
    # put it above, the root lies just left of 0; a step that would leave the
    # domain goes halfway to its edge instead.  One gather builds the
    # (n, 3, 3) matrices from A's six entries; converged rows keep their
    # eigen-coordinates t, and one back-rotation by Q ends the solve.
    lam, q = np.linalg.eigh(a_mat[[0, 1, 2, 1, 3, 4, 2, 4, 5]].T.reshape(-1, 3, 3))
    beta = np.einsum("nji,nj->ni", q, b_vec.T)
    t_out = np.empty((len(lam), 3))
    rows = np.arange(len(lam))
    mu = np.zeros(len(lam))
    for _ in range(_NEWTON_MAX_ITER):
        d = lam + mu[:, None]
        t = beta / d
        n2 = np.sum(t * t, axis=1)
        norm = np.sqrt(n2)
        done = np.abs(norm - 1.0) < _NEWTON_TOL
        t_out[rows[done]] = t[done]
        keep = ~done
        if not keep.any():
            return np.einsum("nij,nj->ni", q, t_out)
        rows, lam, beta, mu = rows[keep], lam[keep], beta[keep], mu[keep]
        t, d, n2, norm = t[keep], d[keep], n2[keep], norm[keep]
        step = mu + n2 * (norm - 1.0) / np.sum(t * t / d, axis=1)
        mu = np.maximum(step, 0.5 * (mu - lam[:, 0]))
    raise RuntimeError("boundary Newton iteration did not converge")


def mle_batch(axes: np.ndarray, shots: Sequence, n_plus: np.ndarray) -> np.ndarray:
    """Bloch vectors of ``mle`` for a batch of record sets, as an (R, 3) array.

    Record set k has ``n_plus[k, m]`` +1 counts on axis m out of ``shots[m]``
    (an int shared by every set) or ``shots[m][k]`` (an (R,) array), at least
    1 either way.  ``axes`` is (M, 3) when every set shares its axes, or
    (R, M, 3).  Each row is fitted on its own, so a stacked call returns bit
    for bit the rows of the separate calls.
    Interior rows take the batched Cramer solve; rows whose unconstrained
    optimum leaves the ball take Newton's method to ||r| - 1| < 1e-13, so the
    result agrees with ``mle`` to about 1e-11 rather than bit for bit.  Rows
    that repeat an axis (``mle`` merges such records) or whose axes do not
    span Bloch space go through ``mle`` itself.  Axes repeat when every
    component is equal as a float, so a -0.0 component matches 0.0 as it
    does in ``merge_records``.
    Raises RuntimeError if Newton's method does not converge.
    """
    n_plus = np.asarray(n_plus)
    axes = np.broadcast_to(np.asarray(axes, dtype=float), n_plus.shape + (3,))
    shots = np.stack([np.broadcast_to(n, len(n_plus)) for n in shots], axis=1)
    merged = [(axes[:, m, :].T, shots[:, m], n_plus[:, m]) for m in range(shots.shape[1])]
    x, y, z = axes[..., 0], axes[..., 1], axes[..., 2]
    same = ((x[:, :, None] == x[:, None, :]) & (y[:, :, None] == y[:, None, :])
            & (z[:, :, None] == z[:, None, :]))
    scalar = ((np.count_nonzero(same, axis=(1, 2)) > shots.shape[1])
              | ~(_span_det(merged) > _SPAN_TOL))
    out = np.empty((len(n_plus), 3))
    fast = np.flatnonzero(~scalar)
    a_mat, b_vec = map(np.array, _normal_equations(
        [(axis[:, fast], n[fast], plus[fast]) for axis, n, plus in merged]))
    norm, r = _radius(a_mat, b_vec, 0.0)
    out[fast] = np.stack(r, axis=-1)
    outside = np.flatnonzero(norm > 1.0)
    if outside.size:
        out[fast[outside]] = _newton_boundary(a_mat[:, outside], b_vec[:, outside])
    for k in np.flatnonzero(scalar):
        records = [CountRecord(ax, ax, int(n), int(plus))
                   for ax, n, plus in zip(axes[k], shots[k], n_plus[k])]
        out[k] = density_to_bloch(mle(records).rho)
    return out
