"""State reconstruction from count records.

The maximum-likelihood estimate minimises a quadratic approximation to the
negative log-likelihood,

    l(rho) = sum_k N_k (Tr[rho E_k] - f_k)^2 / (ft_k (1 - ft_k)),

where E_k is the +1 projector of record k's *intended* axis, f_k = n_k / N_k
is the observed frequency, and ft_k = (n_k + 1/2) / (N_k + 1) is an add-half
hedged frequency used in the denominator only, keeping weights finite at
f_k in {0, 1}.  Estimators never see realized axes.

There is one estimator, ``mle_batch``; ``mle`` is its one-row case.  With
weights w_k = N_k / (ft_k (1 - ft_k)), the objective of a Bloch vector r is
|D r - y|^2 / 4 for the weighted design D = sqrt(w) axes and data
y = sqrt(w) (2 f - 1).  Counts of 0 or N give weights near 2 N^2, beside
weights near 4 N for balanced counts, so the normal equations D^T D r =
D^T y, whose condition number is the square of D's, lose about eps cond(D)^2
at large N.  The estimator factors [D | y] instead, or, where all rows share
three orthonormal settings (static, known-basis and preliminary fits), fits
them in the triplet's coordinates, where D is diagonal.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InsufficientDataError, UnderdeterminedError
from .measurement import PAULI_AXES, CountRecord
from .states import bloch_to_density, density_to_bloch

# Version of the fitting arithmetic, recorded in provenance beside the stream
# version: 1 solved the normal equations, 2 factors the weighted design by QR,
# 3 factors R at the surface by one-sided Jacobi instead of LAPACK's SVD, 4
# fits a row of three orthonormal settings in their coordinates.
ESTIMATOR_VERSION = 4
BOUNDARY_TOL = 1e-9
_SPAN_TOL = 1e-9
# A shared design of three settings is a frame when their Gram matrix is within
# _FRAME_TOL of the identity: exactly for Pauli axes, to about 4 eps for
# ``mub_axes``.
_FRAME_TOL = 1e-14
# Newton's method on the secular equation, used by mle_batch.
_NEWTON_TOL = 1e-13
_NEWTON_MAX_ITER = 100
# One-sided Jacobi on R, used by mle_batch: a pair of columns rotates while
# the cosine of their angle exceeds _JACOBI_TOL.
_JACOBI_TOL = 1e-15
_JACOBI_MAX_SWEEPS = 30
_JACOBI_PAIRS = ((0, 1), (0, 2), (1, 2))
_SWAP_SIGNS = np.array([[-1.0], [1.0]])


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


def _hedge(n_plus, n_shots):
    # ft (1 - ft), with 1 - ft the hedged frequency of the -1 outcome, not a
    # subtraction that loses its digits at counts of N.
    return hedged_frequency(n_plus, n_shots) * hedged_frequency(n_shots - n_plus, n_shots)


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

    The records are merged by ``merge_records``, which drops zero-shot
    records, and each merged axis is matched to the Pauli axis within 1e-9 of
    it.  No ball projection is applied: the result may have norm > 1.  Raises
    InsufficientDataError unless every merged axis is a Pauli axis and every
    Pauli axis carries shots.
    """
    shots_on, plus_on = [0, 0, 0], [0, 0, 0]
    for axis, shots, plus in merge_records(records):
        match = np.flatnonzero(np.max(np.abs(np.array(PAULI_AXES) - axis), axis=1) <= 1e-9)
        if not match.size:
            raise InsufficientDataError(f"linear inversion needs Pauli axes only, got {axis}")
        shots_on[match[0]] += shots
        plus_on[match[0]] += plus
    if 0 in shots_on:
        raise InsufficientDataError(f"no shots on Pauli axis {shots_on.index(0)}")
    return np.array([2.0 * plus / shots - 1.0 for shots, plus in zip(shots_on, plus_on)])


def negative_loglikelihood(rho: np.ndarray, records: Sequence[CountRecord]) -> float:
    """Hedge-weighted quadratic log-likelihood of rho given the records."""
    r = density_to_bloch(rho)
    total = 0.0
    for axis, shots, plus in merge_records(records):
        f = plus / shots
        predicted = 0.5 * (1.0 + float(np.dot(axis, r)))
        total += shots * (predicted - f) ** 2 / _hedge(plus, shots)
    return total


def mle(records: Sequence[CountRecord]) -> Estimate:
    """Global minimiser of the quadratic log-likelihood over the Bloch ball.

    The records are merged (``merge_records``) and fitted as a one-row
    ``mle_batch``.
    """
    merged = merge_records(records)
    if not merged:
        raise InsufficientDataError("no records with shots")
    axes, shots, plus = zip(*merged)
    r = mle_batch(np.array(axes), shots, np.array([plus]))[0]
    rho = bloch_to_density(r)
    objective = negative_loglikelihood(rho, records)
    return Estimate(rho, objective, abs(math.sqrt(r @ r) - 1.0) <= BOUNDARY_TOL)


def _sum_settings(terms):
    # Sum over axis 0 (settings, or vector components) in index order, so
    # that a row's sum does not depend on the other rows of the batch.
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def _jacobi_svd(r_cols, c):
    # Right singular vectors of each R by one-sided (Hestenes) Jacobi: plane
    # rotations V orthogonalise the columns of R V, which keeps R's relative
    # accuracy (Demmel and Veselic, SIAM J. Matrix Anal. Appl. 13:1204,
    # 1992).  r_cols (3, 3, n) holds the columns of R and c (3, n) the data,
    # component-major.  Returns lam_j = |R v_j|^2, the basis q (3, 3, n) with
    # q[j] = v_j, and beta_j = (R v_j) . c, unsorted: the secular equation
    # needs neither U nor a division by a singular value.
    #
    # work[j] holds column j of R V above column j of V.  A pair of columns
    # rotates only in rows where the cosine of their angle exceeds 1e-15;
    # other rows are left untouched (a rotation by t = 0 divides by exactly
    # 1), so a stacked row takes bit for bit the rotations it takes alone.
    # Pair tests cycle until three in a row rotate nothing: at once for a
    # diagonal R, after 2-4 sweeps for a full one.  t = tan(theta) and the
    # secant come from hypot, so no square of a ratio can overflow.
    n = c.shape[1]
    work = np.zeros((3, 6, n))
    work[:, :3] = r_cols
    work[:, 3:] = np.eye(3)[:, :, None]
    cols = work[:, :3].swapaxes(0, 1)
    norms = _sum_settings(cols * cols)
    lengths = np.sqrt(norms)
    clean = 0
    for step in range(3 * _JACOBI_MAX_SWEEPS):
        p, q = _JACOBI_PAIRS[step % 3]
        pair = work[p:q + 1:q - p]
        gamma = _sum_settings(pair[0, :3] * pair[1, :3])
        rotate = np.abs(gamma) > _JACOBI_TOL * (lengths[p] * lengths[q])
        if not rotate.any():
            clean += 1
            if clean == 3:
                return norms, work[:, 3:], _sum_settings(cols * c[:, None])
            continue
        clean = 0
        diff = norms[q] - norms[p]
        two_gamma = gamma + gamma
        t = np.divide(two_gamma, diff + np.copysign(np.hypot(diff, two_gamma), diff),
                      out=np.zeros(n), where=rotate)
        # (x, y) <- (x - t y, y + t x) / sqrt(1 + t^2) on the pair's columns.
        np.add(pair, (_SWAP_SIGNS * t)[:, None] * pair[::-1], out=pair, where=rotate)
        pair /= np.hypot(1.0, t)
        norms = _sum_settings(cols * cols)
        lengths = np.sqrt(norms)
    cosine = np.zeros(n)
    for p, q in _JACOBI_PAIRS:
        cosine = np.maximum(cosine, np.abs(_sum_settings(work[p, :3] * work[q, :3]))
                            / (lengths[p] * lengths[q]))
    raise RuntimeError(
        f"boundary Newton iteration did not converge: the Jacobi factorisation of R left "
        f"{np.count_nonzero(cosine > _JACOBI_TOL)} of {n} rows with non-orthogonal columns "
        f"after {_JACOBI_MAX_SWEEPS} sweeps (largest cosine {cosine.max():.3g})")


def _newton_boundary(lam, q, beta) -> np.ndarray:
    # Surface minimum by Newton's method on phi(mu) = 1/|t(mu)| - 1, with
    # t(mu) = beta / (lam + mu) the minimiser of |D r - y|^2 + mu |r|^2 in
    # the eigenbasis q of D^T D, eigenvalues lam in any order (the
    # More-Sorensen trust-region step, SIAM J. Sci. Stat. Comput. 4:553,
    # 1983).  phi is increasing and concave on mu > -lam_min, so from mu = 0,
    # where phi < 0, the iterates rise monotonically to the root.  Where
    # rounding puts |t(0)| just below 1 although the interior solve put it
    # above, the root lies just left of 0; a step that would leave the domain
    # goes halfway to its edge instead.  Every row iterates in place and
    # nothing is gathered: a converged row keeps its multiplier, so its t is
    # recomputed bit for bit, and one back-rotation by q ends the solve.
    # Arrays are component-major: lam and beta (3, n), q (3, 3, n); the
    # result is (3, n).
    floor = lam.min(axis=0)
    mu = np.zeros(lam.shape[1])
    for _ in range(_NEWTON_MAX_ITER):
        d = lam + mu
        t = beta / d
        t2 = t * t
        n2 = _sum_settings(t2)
        norm = np.sqrt(n2)
        keep = ~(np.abs(norm - 1.0) < _NEWTON_TOL)
        if not keep.any():
            return _sum_settings(q * t[:, None])
        step = mu + n2 * (norm - 1.0) / _sum_settings(t2 / d)
        np.maximum(step, 0.5 * (mu - floor), out=mu, where=keep)
    gap = np.abs(np.sqrt(_sum_settings((beta / (lam + mu)) ** 2)) - 1.0)
    raise RuntimeError(
        f"boundary Newton iteration did not converge: {np.count_nonzero(~(gap < _NEWTON_TOL))} of "
        f"{gap.size} rows after {_NEWTON_MAX_ITER} iterations (largest ||t| - 1| {gap.max():.3g})")


def mle_batch(axes: np.ndarray, shots: Sequence, n_plus: np.ndarray) -> np.ndarray:
    """Bloch vectors of ``mle`` for a batch of record sets, as an (R, 3) array.

    Record set k has ``n_plus[k, m]`` +1 counts on axis m out of ``shots[m]``
    (an int shared by every set) or ``shots[m][k]`` (an (R,) array), at least
    1 either way.  ``axes`` is (M, 3) when every set shares its axes, or
    (R, M, 3).  A shared design is scanned for repeats and checked for span
    once per call.  Each row is fitted on its own, so a stacked call returns
    bit for bit the rows of the separate calls.

    Settings of one row on the same axis are merged as ``merge_records``
    merges them: the first holds the summed counts and the others carry no
    weight.  Axes repeat when every component is equal as a float, so a -0.0
    component matches 0.0.

    One rule picks the fit path, once per call, from the design's shape.  A
    shared (M, 3) design of exactly three settings whose Gram matrix is
    within 1e-14 of the identity (a frame: the Pauli axes, or a ``mub_axes``
    triplet) is fitted in the frame's coordinates t_m = a_m . r, where the
    weighted design is diagonal: R = diag(sqrt(w)), c = y, the interior
    solution is t = c / sqrt(w) and a surface row takes Newton's method on
    the secular equation in that basis.  On the Pauli axes in order this is,
    bit for bit, the arithmetic of the general path below, so a two-phase
    row whose repeats merge down to the Pauli axes fits as its merged three
    settings do, and the Pauli design broadcast to (R, M, 3) as it does
    shared; another frame broadcast differs by rounding.

    Every other design, each per-row one included (a two-phase final fit),
    is factored by modified Gram-Schmidt on [D | y], vectorised over the
    rows, giving D = Q R and c = Q^T y; it is backward stable for least
    squares (Bjorck, BIT 7:1, 1967).  Interior rows solve R r = c.  Rows
    whose solution leaves the ball take Newton's method on the secular
    equation, to ||r| - 1| < 1e-13, in the right singular basis of R that a
    one-sided Jacobi iteration on R's columns finds.
    Raises UnderdeterminedError if a row's axes do not span Bloch space
    (the first such row), RuntimeError if Newton's method or the Jacobi
    iteration does not converge (naming how many rows failed and by how much).
    """
    n_plus = np.asarray(n_plus)
    n_rows, n_settings = n_plus.shape
    axes = np.asarray(axes, dtype=float)
    # Settings-major arrays: (M, R) per quantity, (M, 3, R) for the axes, or
    # (M, 3, 1) for a shared design.
    comps = np.ascontiguousarray((axes if axes.ndim == 3 else axes[None]).transpose(1, 2, 0))
    shots = np.stack([np.broadcast_to(n, n_rows) for n in shots])
    plus = n_plus.T.copy()
    x, y, z = comps.transpose(1, 0, 2)
    same = (x[:, None] == x) & (y[:, None] == y) & (z[:, None] == z)
    kept = np.ones((n_settings, comps.shape[2]))
    repeats = np.flatnonzero(np.count_nonzero(same, axis=(0, 1)) > n_settings)
    if repeats.size:
        # Integer sums over the settings on one axis, so exact in any order.
        sub = same[:, :, repeats]
        first = np.argmax(sub, axis=1) == np.arange(n_settings)[:, None]
        rows = repeats if comps.shape[2] == n_rows else slice(None)
        for counts in (shots, plus):
            counts[:, rows] = np.where(
                first, _sum_settings(sub * counts[:, None, rows]), counts[:, rows])
        kept[:, repeats] = first
        comps = comps * kept[:, None]
    fit = _fit_frame if _check_span(comps, kept, axes.ndim == 2) else _fit_general
    f = plus / shots
    sqrt_w = kept * np.sqrt(shots / _hedge(plus, shots))
    return fit(comps, sqrt_w, sqrt_w * (2.0 * f - 1.0))


def _fit_frame(comps, sqrt_w, c):
    # Rows that share one frame, comps (3, 3, 1), in its coordinates:
    # R = diag(sqrt_w), beta = sqrt_w c and the basis is the frame itself, so
    # neither Gram-Schmidt nor Jacobi is needed.  Settings-major arrays as in
    # mle_batch; returns (n, 3).
    t = c / sqrt_w
    r = _sum_settings(t[:, None] * comps)
    out = np.ascontiguousarray(r.T)
    outside = np.flatnonzero(np.sqrt(_sum_settings(r * r)) > 1.0)
    if outside.size:
        s = sqrt_w[:, outside]
        out[outside] = _newton_boundary(s * s, comps, s * c[:, outside]).T
    return out


def _fit_general(comps, sqrt_w, c):
    # Modified Gram-Schmidt on the columns of [D | y], (M, 4, n): row k of
    # upper holds R[k, k+1:] and c[k].  Settings-major arrays as in
    # mle_batch; returns (n, 3).
    work = np.concatenate([comps * sqrt_w[:, None], c[:, None]], axis=1)
    diag, upper = [], []
    for k in range(3):
        col = work[:, k]
        norm = np.sqrt(_sum_settings(col * col))
        q = col / norm
        dots = _sum_settings(q[:, None] * work[:, k + 1:])
        work[:, k + 1:] -= dots * q[:, None]
        diag.append(norm)
        upper.append(dots)
    (r01, r02, c0), (r12, c1), (c2,) = upper
    r2 = c2 / diag[2]
    r1 = (c1 - r12 * r2) / diag[1]
    r0 = (c0 - r01 * r1 - r02 * r2) / diag[0]
    out = np.stack([r0, r1, r2], axis=-1)
    outside = np.flatnonzero(np.sqrt(r0 * r0 + r1 * r1 + r2 * r2) > 1.0)
    if outside.size:
        r_cols = np.zeros((3, 3, outside.size))
        r_cols[[0, 1, 1, 2, 2, 2], [0, 0, 1, 0, 1, 2]] = np.stack(
            [diag[0], r01, diag[1], r02, r12, diag[2]])[:, outside]
        c = np.stack([c0, c1, c2])[:, outside]
        out[outside] = _newton_boundary(*_jacobi_svd(r_cols, c)).T
    return out


def _check_span(comps, kept, shared) -> bool:
    # Unweighted Gram matrix of each row's kept axes.  The square root of its
    # determinant is the volume spanned, so near-zero means a rank-deficient
    # axis set: the first such row raises, with the null direction of its
    # kept axes.  Returns whether the design is a frame, mle_batch's one rule:
    # a shared design of three settings (so none is merged away once the
    # span holds) whose Gram matrix is within _FRAME_TOL of the identity.
    # Only such a design has its Gram matrix tested against the identity.
    gram = _sum_settings(comps[:, :, None] * comps[:, None])
    (gxx, gxy, gxz), (_, gyy, gyz), (_, _, gzz) = gram
    det = (gxx * (gyy * gzz - gyz * gyz) + gxy * (gxz * gyz - gxy * gzz)
           + gxz * (gxy * gyz - gxz * gyy))
    bad = np.flatnonzero(~(det > _SPAN_TOL))
    if not bad.size:
        return bool(shared and len(comps) == 3
                    and np.abs(gram[..., 0] - np.eye(3)).max() <= _FRAME_TOL)
    _, _, vt = np.linalg.svd(comps[kept[:, bad[0]] > 0.0, :, bad[0]])
    null = vt[-1]
    raise UnderdeterminedError(
        f"measurement axes do not span Bloch space; "
        f"unconstrained direction ~ ({null[0]:.6f}, {null[1]:.6f}, {null[2]:.6f})",
        null,
    )
