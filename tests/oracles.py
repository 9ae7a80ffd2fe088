"""Test oracles shared by several test modules: direct evaluations of the
definitions that the library computes in closed or batched form.  Not a test
module, so pytest does not collect it."""
import numpy as np


def random_in_ball(rng, count):
    """Uniform-in-ball Bloch vectors."""
    v = rng.normal(size=(count, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v * (rng.uniform(size=(count, 1)) ** (1.0 / 3.0))


def sqrt_psd(m):
    w, v = np.linalg.eigh(m)
    return v @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def general_fidelity(rho, sigma):
    """Direct square-root-definition evaluator."""
    m = sqrt_psd(rho) @ sigma @ sqrt_psd(rho)
    return float(np.sum(np.sqrt(np.clip(np.linalg.eigvalsh(m), 0.0, None))) ** 2)


def ball_grid(spacing, center=(0.0, 0.0, 0.0), half=1.0):
    """The points of the Bloch ball on a cubic grid of the given spacing that
    spans ``half`` on either side of ``center``."""
    ticks = np.arange(-half, half + 1e-12, spacing)
    pts = np.stack(np.meshgrid(ticks, ticks, ticks, indexing="ij"), axis=-1).reshape(-1, 3)
    pts = pts + np.asarray(center)
    return pts[np.linalg.norm(pts, axis=1) <= 1.0]


def oracle_objective(records, points):
    """Evaluate the hedge-weighted quadratic objective on an array of Bloch
    vectors, straight from its defining formula."""
    points = np.atleast_2d(points)
    total = np.zeros(len(points))
    for rec in records:
        f = rec.n_plus / rec.n_shots
        ft = (rec.n_plus + 0.5) / (rec.n_shots + 1.0)
        predicted = 0.5 * (1.0 + points @ rec.intended_axis)
        total += rec.n_shots * (predicted - f) ** 2 / (ft * (1.0 - ft))
    return total
