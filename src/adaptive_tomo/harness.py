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
from .measurement import ErrorModel, NoError, RngContext, _draws_misalignments
from .protocols import Adaptive, ProtocolSpec, _shot_plan, _simulate, protocol_name, run_grid
from .states import check_bloch


@dataclass(frozen=True)
class CampaignSpec:
    """One Monte Carlo campaign: protocol, true state, N grid, repetitions.
    Building one refuses a campaign that cannot run: a grid not strictly
    increasing, reps not an integer of at least 2, a bool or non-integer
    seed, a state outside the Bloch ball (``check_bloch``) or an N that is
    not an integer, that the protocol cannot split or whose split leaks (``_shot_plan``)."""

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
        if type(self.seed) is bool or not isinstance(self.seed, numbers.Integral):
            raise InvalidStateError(f"seed must be an integer, got {self.seed!r}")
        check_bloch(self.state_bloch)
        for n in self.n_grid:
            _shot_plan(self.protocol, n)


@dataclass(frozen=True)
class CampaignRow:
    n: int
    mean_infidelity: float
    stderr: float


@dataclass(frozen=True)
class CampaignResult:
    spec: CampaignSpec
    rows: tuple[CampaignRow, ...]


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


def _campaign_rng(spec: CampaignSpec) -> RngContext:
    # A campaign's stream (seed, (label, 0)), the label the first 64 bits of its hash.
    return RngContext(spec.seed, (int(campaign_hash(spec)[:16], 16), 0))


def run_campaign(spec: CampaignSpec) -> CampaignResult:
    """Run reps x grid independent experiments and aggregate per grid point.

    The whole grid is one vectorised pass (``protocols.run_grid``) on the
    Bloch vector ``spec.state_bloch`` and the stream (seed, (hash label, 0)).
    The spec refused, when it was built, a state outside the Bloch ball and
    an N its protocol cannot split.  Under glibc, the process's first engine
    call sets its malloc policy (``run_grid``).
    """
    infidelities = run_grid(spec.protocol, spec.state_bloch, spec.n_grid, spec.error_model,
                            _campaign_rng(spec), spec.reps).infidelity.reshape(-1, spec.reps)
    stderrs = infidelities.std(axis=1, ddof=1) / math.sqrt(spec.reps)
    rows = tuple(CampaignRow(n, float(mean), float(stderr))
                 for n, mean, stderr in zip(spec.n_grid, infidelities.mean(axis=1), stderrs))
    return CampaignResult(spec=spec, rows=rows)


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
    Under glibc, the process's first engine call sets its malloc policy.
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
    """The infidelity floor at N -> infinity for one error magnitude, with
    its standard error over the misalignment draws."""

    error_magnitude: float
    floor_infidelity: float
    stderr: float


@dataclass(frozen=True)
class NoiseFloorResult:
    protocol: ProtocolSpec
    points: tuple[FloorPoint, ...]
    slope_fit: Optional[ScalingFit]


# The N whose expected counts stand for N -> infinity.  The hedge's 1/2
# moves the frequency of a setting of s shots by about 1/s: 3e-15 at N/3
# shots, 3e-10 on the N^(2/3)/3 preliminary shots of adaptive-pow.
_FLOOR_N = 10**15


def _expected_counts(phase: int, shots: np.ndarray, p: np.ndarray) -> np.ndarray:
    # The +1 counts of a noise floor in place of the binomial draw, as floats.
    return p * shots


def noise_floor_sweep(
    model_factory: Callable[[float], ErrorModel],
    e_grid: Sequence[float],
    protocols: Sequence[ProtocolSpec],
    state_bloch: tuple[float, float, float],
    *,
    reps: int = CampaignSpec.reps,
    seed: int = 0,
) -> list[NoiseFloorResult]:
    """The infidelity floor at N -> infinity per error magnitude, and its slope.

    As N grows the counts carry no noise, so the estimate is the fit to the
    exact Born probabilities of the realized axes.  The floor of a protocol
    at E is the mean infidelity of that fit over ``reps`` misalignments: the
    rows of ``run_grid`` for ``CampaignSpec(protocol, state_bloch,
    (_FLOOR_N,), reps, model_factory(E), seed)`` on its campaign stream, with
    the expected counts p * shots in place of the binomial draw.  A model
    that draws no misalignment (a fixed tilt, or E = 0) gives one exact
    floor with stderr 0.  Every spec is built before the first fit, so an E
    that ``model_factory`` refuses or a protocol that cannot split
    ``_FLOOR_N`` raises first.  Per protocol, the slope of log(floor) vs
    log(E) is ``fit_means`` of every floor (a floor of exactly 0 left out).
    A fit's RuntimeError is raised again naming its protocol and E.  Under
    glibc, the process's first engine call sets its malloc policy.
    """
    models = [model_factory(float(e_value)) for e_value in e_grid]
    specs = [[CampaignSpec(protocol, state_bloch, (_FLOOR_N,), reps=reps, error_model=model,
                           seed=seed) for model in models] for protocol in protocols]
    results = []
    for protocol, protocol_specs in zip(protocols, specs):
        points = []
        for e_value, spec in zip(e_grid, protocol_specs):
            rows = spec.reps if _draws_misalignments(spec.error_model) else 1
            try:
                infidelity = _simulate(protocol, state_bloch, spec.n_grid, spec.error_model,
                                       _campaign_rng(spec), rows, _expected_counts).infidelity
            except RuntimeError as exc:
                raise RuntimeError(f"{exc}; at {protocol_name(protocol)}, "
                                   f"E={float(e_value)!r}") from exc
            stderr = infidelity.std(ddof=1) / math.sqrt(rows) if rows > 1 else 0.0
            points.append(FloorPoint(float(e_value), float(infidelity.mean()), float(stderr)))
        fit = fit_means([(pt.error_magnitude, pt.floor_infidelity) for pt in points])
        results.append(NoiseFloorResult(protocol, tuple(points), fit))
    return results
