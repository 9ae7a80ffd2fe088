"""Monte Carlo campaigns, power-law fits, and the two sweep drivers.

A campaign repeats a protocol R times at every sample size in a grid and
aggregates mean infidelity with its standard error.  All R x grid runs are
simulated together as arrays by ``protocols.run_grid``, from the children of
one stream labelled (campaign hash, 0), drawn as ``run_grid`` declares
(stream layout 4: a grid point's repetitions of one setting back to back).
The true state goes in as the campaign's Bloch vector, and no density
matrix is built on the way to the infidelities.
"""
from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InvalidStateError
from .measurement import ErrorModel, NoError, RngContext
from .protocols import Adaptive, ProtocolSpec, _shot_plan, protocol_name, run_grid
from .states import check_bloch


@dataclass(frozen=True)
class CampaignSpec:
    """One Monte Carlo campaign: protocol, true state, N grid, repetitions.
    Building one refuses a campaign that cannot run: a grid not strictly
    increasing, reps not an integer of at least 2, a seed not an integer, a
    state outside the Bloch ball (``check_bloch``) or an N that is not an
    integer, that the protocol cannot split or whose split leaks (``_shot_plan``)."""

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
        if not isinstance(self.reps, numbers.Integral):
            raise InvalidStateError(f"reps must be an integer, got {self.reps!r}")
        if self.reps < 2:
            raise InvalidStateError("need at least 2 repetitions")
        if not isinstance(self.seed, numbers.Integral):
            raise InvalidStateError(f"seed must be an integer, got {self.seed!r}")
        check_bloch(self.state_bloch)
        for n in self.n_grid:
            _shot_plan(self.protocol, n)


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
            f"err={protocol_name(spec.error_model)}",
            f"seed={spec.seed}",
        ]
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_campaign(spec: CampaignSpec) -> CampaignResult:
    """Run reps x grid independent experiments and aggregate per grid point.

    The whole grid is one vectorised pass (``protocols.run_grid``) on the
    Bloch vector ``spec.state_bloch`` and the stream (seed, (hash label, 0)).
    The spec refused, when it was built, a state outside the Bloch ball and
    an N its protocol cannot split.
    """
    digest = campaign_hash(spec)
    label = int.from_bytes(bytes.fromhex(digest[:16]), "big")
    rng = RngContext(spec.seed, (label, 0))
    infidelities = run_grid(spec.protocol, spec.state_bloch, spec.n_grid, spec.error_model, rng,
                            spec.reps).infidelity.reshape(len(spec.n_grid), spec.reps)
    stderrs = infidelities.std(axis=1, ddof=1) / math.sqrt(spec.reps)
    rows = tuple(CampaignRow(n, float(mean), float(stderr), spec.reps)
                 for n, mean, stderr in zip(spec.n_grid, infidelities.mean(axis=1), stderrs))
    return CampaignResult(spec=spec, rows=rows, spec_hash=digest, seed=spec.seed)


# The fewest points that a power-law fit takes.
MIN_FIT_POINTS = 3


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
    usual regression formulas.  Requires >= MIN_FIT_POINTS points with
    positive finite values and at least two distinct x values."""
    if len(points) < MIN_FIT_POINTS:
        raise ValueError(f"need at least {MIN_FIT_POINTS} points to fit, got {len(points)}")
    for x, y in points:
        if not (0 < x < math.inf and 0 < y < math.inf):
            raise ValueError(f"power-law fit needs positive finite data, got ({x}, {y})")
    if len({x for x, _ in points}) < 2:
        raise ValueError("power-law fit needs at least two distinct x values")
    lx = np.log(np.array([x for x, _ in points], dtype=float))
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


def fit_means(points: Sequence[tuple[float, float]]) -> Optional[ScalingFit]:
    """``fit_power_law`` of the (x, mean) points whose mean is not exactly 0
    (every fit hit a pure truth), or None when fewer than MIN_FIT_POINTS
    remain.  Every fit of campaign means or floors goes through it."""
    kept = [(x, y) for x, y in points if y != 0.0]
    return fit_power_law(kept) if len(kept) >= MIN_FIT_POINTS else None


def fit_campaign(result: CampaignResult) -> Optional[ScalingFit]:
    """``fit_means`` of mean infidelity vs N over the campaign's rows, or None."""
    return fit_means([(row.n, row.mean_infidelity) for row in result.rows])


def alpha_sweep(
    alphas: Sequence[float],
    base_spec: CampaignSpec,
) -> list[tuple[float, CampaignResult, Optional[ScalingFit]]]:
    """One campaign + power-law fit per preliminary-budget fraction alpha.

    The campaign for each alpha is exactly the campaign of the corresponding
    Adaptive(alpha) spec with the same seed, so a sweep over {0.5} reproduces
    a direct Adaptive(0.5) campaign number for number.  Every spec is built,
    and a grid shorter than MIN_FIT_POINTS refused, before the first campaign
    runs.  Returns (alpha, campaign, ``fit_campaign`` or None) per alpha, in
    the order given; a campaign's RuntimeError is raised again naming its alpha.
    """
    if len(base_spec.n_grid) < MIN_FIT_POINTS:
        raise InvalidStateError(f"an alpha sweep fits a power law and needs >= {MIN_FIT_POINTS} "
                                f"sample sizes, got {base_spec.n_grid}")
    specs = [replace(base_spec, protocol=Adaptive(alpha)) for alpha in alphas]
    out = []
    for alpha, spec in zip(alphas, specs):
        try:
            result = run_campaign(spec)
        except RuntimeError as exc:
            raise RuntimeError(f"{exc}; at alpha={alpha!r}") from exc
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


# Largest |slope| of ln(mean) against ln(N) that counts as flat: a mean that
# moves by less than 10% per doubling of N.
_FLAT_SLOPE = math.log(1.1) / math.log(2.0)


def noise_ladder(n_start: int, n_cap: int) -> list[int]:
    """The sample sizes of a noise-floor search: ``n_start`` doubled while it
    is at most ``n_cap``.  Raises InvalidStateError unless both are integers
    and 1 <= n_start <= n_cap."""
    if not all(isinstance(n, numbers.Integral) for n in (n_start, n_cap)):
        raise InvalidStateError(f"noise ladder bounds must be integers, got "
                                f"n_start={n_start!r}, n_cap={n_cap!r}")
    if not 1 <= n_start <= n_cap:
        raise InvalidStateError(f"noise ladder needs 1 <= n_start <= n_cap, got "
                                f"n_start={n_start}, n_cap={n_cap}")
    return [int(n_start) << k for k in range(int(n_cap // n_start).bit_length())]


def noise_floor_sweep(
    model_factory: Callable[[float], ErrorModel],
    e_grid: Sequence[float],
    protocols: Sequence[ProtocolSpec],
    state_bloch: tuple[float, float, float],
    *,
    reps: int = CampaignSpec.reps,
    seed: int = 0,
    n_start: int = 1000,
    n_cap: int = 20_000_000,
) -> list[NoiseFloorResult]:
    """Locate the infidelity floor vs error magnitude and fit its slope.

    For each error magnitude E the campaigns climb ``noise_ladder(n_start,
    n_cap)`` until the last three points run are flat; a ladder that runs out
    first is reported as not converged (E = 0 never converges).  The
    ``CampaignSpec`` of every rung of every (protocol, E) ladder is built
    before the first campaign runs, so an empty ladder, an E that
    ``model_factory`` refuses or a rung a protocol cannot split raises first.
    Flat means that the weighted least-squares slope s of ln(mean) against ln(N) over
    those three points, with weights (mean/stderr)^2, satisfies
    |s| < ln(1.1)/ln 2 (the mean moves by less than 10% per doubling) and
    s > -0.5 + 3 sigma_s, so that the points cannot still be falling at
    -0.5, the scaling slope of static tomography.  The floor is the mean of
    the three points, with their standard errors pooled, and ``n_at_floor``
    is the largest N of the three.  Per protocol, the slope of log(floor) vs
    log(E) is ``fit_means`` of the converged magnitudes' floors, so
    ``slope_fit`` is None when fewer than MIN_FIT_POINTS converged.  A
    campaign's RuntimeError is raised again naming its protocol, E and N.
    """
    sizes = noise_ladder(n_start, n_cap)
    models = [model_factory(float(e_value)) for e_value in e_grid]
    ladders = [[[CampaignSpec(protocol, state_bloch, (n,), reps=reps, error_model=model,
                              seed=seed) for n in sizes] for model in models]
               for protocol in protocols]
    results = []
    for protocol, protocol_ladders in zip(protocols, ladders):
        points = []
        for e_value, specs in zip(e_grid, protocol_ladders):
            rows: list[CampaignRow] = []
            point = FloorPoint(float(e_value), False, None, None, None)
            for n, spec in zip(sizes, specs):
                try:
                    rows.append(run_campaign(spec).rows[0])
                except RuntimeError as exc:
                    raise RuntimeError(f"{exc}; at {protocol_name(protocol)}, "
                                       f"E={float(e_value)!r}, N={n}") from exc
                last = rows[-3:]
                if len(last) == 3 and all(row.stderr > 0.0 for row in last):
                    x = np.log([row.n for row in last])
                    y = np.log([row.mean_infidelity for row in last])
                    w = np.array([(row.mean_infidelity / row.stderr) ** 2 for row in last])
                    dx = x - np.sum(w * x) / np.sum(w)
                    sxx = float(np.sum(w * dx * dx))
                    s = float(np.sum(w * dx * y)) / sxx
                    if abs(s) < _FLAT_SLOPE and s > -0.5 + 3.0 / math.sqrt(sxx):
                        point = FloorPoint(
                            float(e_value), True,
                            sum(row.mean_infidelity for row in last) / 3.0, n,
                            math.sqrt(sum(row.stderr**2 for row in last)) / 3.0,
                        )
                        break
            points.append(point)
        fit = fit_means([(pt.error_magnitude, pt.floor_infidelity)
                         for pt in points if pt.converged])
        results.append(NoiseFloorResult(protocol, tuple(points), fit))
    return results
