"""Monte Carlo campaigns, power-law fits, and the two sweep drivers.

A campaign repeats a protocol R times at every sample size in a grid and
aggregates mean infidelity with its standard error.  The random streams of a
grid point are labelled by (campaign hash, grid index).  All R x grid runs
are simulated together as arrays (``protocols.run_grid``); each grid point
draws from its own streams as ``protocols.run_batch`` declares.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InvalidStateError
from .measurement import ErrorModel, NoError, RngContext, error_model_name
from .protocols import Adaptive, ProtocolSpec, protocol_name, run_grid
from .states import bloch_to_density


@dataclass(frozen=True)
class CampaignSpec:
    """One Monte Carlo campaign: protocol, true state, N grid, repetitions."""

    protocol: ProtocolSpec
    state_bloch: tuple[float, float, float]
    n_grid: tuple[int, ...]
    reps: int = 150
    error_model: ErrorModel = NoError()
    seed: int = 0

    def __post_init__(self):
        if len(self.n_grid) == 0:
            raise InvalidStateError("empty sample-size grid")
        if any(b >= a for a, b in zip(self.n_grid[1:], self.n_grid)):
            raise InvalidStateError(f"sample-size grid not strictly increasing: {self.n_grid}")
        if self.reps < 2:
            raise InvalidStateError("need at least 2 repetitions")


@dataclass(frozen=True)
class CampaignRow:
    n: int
    mean_infidelity: float
    stderr: float
    reps: int


@dataclass(frozen=True)
class CampaignResult:
    spec: CampaignSpec
    rows: tuple[CampaignRow, ...]
    spec_hash: str
    seed: int


def campaign_hash(spec: CampaignSpec) -> str:
    text = ";".join(
        [
            protocol_name(spec.protocol),
            "state=({!r},{!r},{!r})".format(*(float(x) for x in spec.state_bloch)),
            f"grid={[int(n) for n in spec.n_grid]!r}",
            f"reps={spec.reps}",
            f"err={error_model_name(spec.error_model)}",
            f"seed={spec.seed}",
        ]
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_campaign(spec: CampaignSpec) -> CampaignResult:
    """Run reps x grid independent experiments and aggregate per grid point.

    The whole grid is one vectorised pass (``protocols.run_grid``) in which
    grid point i still draws from its own streams.
    """
    digest = campaign_hash(spec)
    label = int.from_bytes(bytes.fromhex(digest[:16]), "big")
    rngs = [RngContext(spec.seed, (label, i)) for i in range(len(spec.n_grid))]
    infidelities = run_grid(
        spec.protocol, bloch_to_density(spec.state_bloch), spec.n_grid, spec.error_model,
        rngs, spec.reps,
    ).infidelity.reshape(len(spec.n_grid), spec.reps)
    rows = tuple(CampaignRow(n, float(np.mean(block)),
                             float(np.std(block, ddof=1) / math.sqrt(spec.reps)), spec.reps)
                 for n, block in zip(spec.n_grid, infidelities))
    return CampaignResult(spec=spec, rows=rows, spec_hash=digest, seed=spec.seed)


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares power law y = beta * x^p fitted on log-log pairs."""

    beta: float
    p: float
    sigma_p: float
    sigma_beta: float
    fit_range: tuple[float, float]


def fit_power_law(points: Sequence[tuple[float, float]]) -> ScalingFit:
    """Ordinary least squares on (log x, log y); standard errors from the
    usual regression formulas.  Requires >= 3 points with positive values."""
    if len(points) < 3:
        raise ValueError(f"need at least 3 points to fit, got {len(points)}")
    for x, y in points:
        if x <= 0 or y <= 0:
            raise ValueError(f"power-law fit needs positive data, got ({x}, {y})")
    lx = np.log([x for x, _ in points])
    ly = np.log([y for _, y in points])
    n = len(points)
    mx = float(np.mean(lx))
    my = float(np.mean(ly))
    sxx = float(np.sum((lx - mx) ** 2))
    sxy = float(np.sum((lx - mx) * (ly - my)))
    slope = sxy / sxx
    intercept = my - slope * mx
    resid = ly - (intercept + slope * lx)
    s2 = float(np.sum(resid**2)) / (n - 2)
    sigma_p = math.sqrt(s2 / sxx)
    sigma_ln_beta = math.sqrt(s2 * (1.0 / n + mx * mx / sxx))
    beta = math.exp(intercept)
    return ScalingFit(
        beta=beta,
        p=slope,
        sigma_p=sigma_p,
        sigma_beta=beta * sigma_ln_beta,
        fit_range=(min(x for x, _ in points), max(x for x, _ in points)),
    )


def fit_campaign(result: CampaignResult, floor: Optional[float] = None) -> ScalingFit:
    """Fit mean infidelity vs N, optionally excluding rows within 3 standard
    errors of a detected noise floor (fits target the scaling region)."""
    rows = result.rows
    if floor is not None:
        rows = tuple(
            row for row in rows if abs(row.mean_infidelity - floor) > 3.0 * row.stderr
        )
    return fit_power_law([(row.n, row.mean_infidelity) for row in rows])


def alpha_sweep(
    alphas: Sequence[float],
    base_spec: CampaignSpec,
) -> list[tuple[float, CampaignResult, ScalingFit]]:
    """One campaign + power-law fit per preliminary-budget fraction alpha.

    The campaign for each alpha is exactly the campaign of the corresponding
    Adaptive(alpha) spec with the same seed, so a sweep over {0.5} reproduces
    a direct Adaptive(0.5) campaign number for number.  Returns
    (alpha, campaign, fit) per alpha, in the order given.
    """
    out = []
    for alpha in alphas:
        result = run_campaign(replace(base_spec, protocol=Adaptive(alpha)))
        out.append((alpha, result, fit_campaign(result)))
    return out


@dataclass(frozen=True)
class FloorPoint:
    """Detected noise floor for one error magnitude (or a not-converged report)."""

    error_magnitude: float
    converged: bool
    floor_infidelity: Optional[float]
    n_at_floor: Optional[int]
    stderr: Optional[float]


@dataclass(frozen=True)
class NoiseFloorResult:
    protocol: ProtocolSpec
    points: tuple[FloorPoint, ...]
    slope_fit: Optional[ScalingFit]


def noise_floor_sweep(
    model_factory: Callable[[float], ErrorModel],
    e_grid: Sequence[float],
    protocols: Sequence[ProtocolSpec],
    state_bloch: tuple[float, float, float],
    *,
    reps: int = 150,
    seed: int = 0,
    n_start: int = 1000,
    n_cap: int = 20_000_000,
    rel_tol: float = 0.1,
) -> list[NoiseFloorResult]:
    """Locate the infidelity floor vs error magnitude and fit its slope.

    For each error magnitude E the sample size is doubled from ``n_start``
    until the last three points of the ladder are flat, or ``n_cap`` is
    exceeded (reported as not converged; E = 0 never converges).  Flat means
    that the weighted least-squares slope s of ln(mean) against ln(N) over
    those three points, with weights (mean/stderr)^2, satisfies
    |s| < ln(1 + rel_tol)/ln 2 (the mean moves by less than ``rel_tol`` per
    doubling) and s > -0.5 + 3 sigma_s, so that the points cannot still be
    falling at -0.5, the scaling slope of static tomography.  The floor is
    the mean of the three points, with their standard errors pooled, and
    ``n_at_floor`` is the largest N of the three.  Per protocol, the slope of
    log(floor) vs log(E) is fitted over the converged magnitudes;
    ``slope_fit`` is None when fewer than three are available.
    """
    flat = math.log(1.0 + rel_tol) / math.log(2.0)
    results = []
    for protocol in protocols:
        points = []
        for e_value in e_grid:
            model = model_factory(float(e_value))
            ladder: list[CampaignRow] = []
            point = FloorPoint(float(e_value), False, None, None, None)
            n = n_start
            while n <= n_cap:
                spec = CampaignSpec(
                    protocol=protocol,
                    state_bloch=state_bloch,
                    n_grid=(n,),
                    reps=reps,
                    error_model=model,
                    seed=seed,
                )
                ladder.append(run_campaign(spec).rows[0])
                last = ladder[-3:]
                if len(last) == 3 and all(row.stderr > 0.0 for row in last):
                    x = np.log([row.n for row in last])
                    y = np.log([row.mean_infidelity for row in last])
                    w = np.array([(row.mean_infidelity / row.stderr) ** 2 for row in last])
                    dx = x - np.sum(w * x) / np.sum(w)
                    sxx = float(np.sum(w * dx * dx))
                    s = float(np.sum(w * dx * y)) / sxx
                    if abs(s) < flat and s > -0.5 + 3.0 / math.sqrt(sxx):
                        point = FloorPoint(
                            float(e_value), True,
                            sum(row.mean_infidelity for row in last) / 3.0, n,
                            math.sqrt(sum(row.stderr**2 for row in last)) / 3.0,
                        )
                        break
                n *= 2
            points.append(point)
        fittable = [
            (pt.error_magnitude, pt.floor_infidelity)
            for pt in points
            if pt.converged and pt.floor_infidelity and pt.floor_infidelity > 0
        ]
        fit = fit_power_law(fittable) if len(fittable) >= 3 else None
        results.append(NoiseFloorResult(protocol, tuple(points), fit))
    return results
