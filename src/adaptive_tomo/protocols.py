"""The tomography strategies.

* ``Static``: the sample budget is split across the three Pauli axes and a
  single estimate is fitted.
* ``Adaptive(alpha)``: a fraction alpha of the budget buys a preliminary
  estimate from static tomography; the remainder is measured in a mutually
  unbiased triplet whose first basis diagonalizes that estimate; the final
  fit uses the records of both phases.
* ``AdaptivePow(exponent)``: same two-phase scheme with the preliminary budget
  N^exponent (default 2/3) instead of a constant fraction.
* ``ReducedAdaptive(alpha)``: the whole second phase is spent on the single
  diagonal axis of the preliminary estimate (one extra setting in total).
* ``KnownBasis``: a diagnostic ceiling, not a realizable protocol: all samples
  are measured in the mutually unbiased triplet of the *true* eigenbasis.

Budget accounting is exact: the preliminary budget is round(alpha N) (half
away from zero) and within each phase the per-axis split is floor thirds with
the remainder given to the earliest axes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import ClassVar, Optional, Sequence, Union

import numpy as np

from .errors import BudgetError, InvalidStateError
from .estimation import mle_batch
from .measurement import (
    _ALIGN_STREAM,
    _COUNT_STREAM,
    PAULI_AXES,
    CountRecord,
    ErrorModel,
    RngContext,
    born_probabilities,
    realized_axes,
)
from .states import (
    bloch_to_density,
    density_to_bloch,
    eigendecompose,
    fidelity_bloch,
    mub_axes,
    mub_triplet,
)


def _check_open_unit(name: str, value: float) -> None:
    if not 0.0 < value < 1.0:
        raise InvalidStateError(f"{name} must be in (0, 1), got {value}")


# Each protocol states its own data: ``name`` (its CLI name), how many
# settings its adapted phase measures (0, 1 or 3), whether its first phase
# measures in the true state's triplet instead of the Pauli frame, and
# ``first_phase_budget``, the shots of the first phase out of ``n_total``
# (all of them, or the preliminary budget of a two-phase protocol).


@dataclass(frozen=True)
class Static:
    """Fixed Pauli-frame tomography."""

    name: ClassVar[str] = "static"
    adapted_settings: ClassVar[int] = 0
    true_basis: ClassVar[bool] = False

    def first_phase_budget(self, n_total: int) -> int:
        return n_total


@dataclass(frozen=True)
class Adaptive:
    """Two-phase tomography with preliminary budget alpha * N."""

    alpha: float = 0.5
    name: ClassVar[str] = "adaptive"
    adapted_settings: ClassVar[int] = 3
    true_basis: ClassVar[bool] = False

    def __post_init__(self):
        _check_open_unit("alpha", self.alpha)

    def first_phase_budget(self, n_total: int) -> int:
        return _round_half_up(self.alpha * n_total)


@dataclass(frozen=True)
class AdaptivePow:
    """Two-phase tomography with preliminary budget N ** exponent."""

    exponent: float = 2.0 / 3.0
    name: ClassVar[str] = "adaptive-pow"
    adapted_settings: ClassVar[int] = 3
    true_basis: ClassVar[bool] = False

    def __post_init__(self):
        _check_open_unit("exponent", self.exponent)

    def first_phase_budget(self, n_total: int) -> int:
        return _round_half_up(n_total**self.exponent)


@dataclass(frozen=True)
class ReducedAdaptive:
    """Adaptive tomography spending the whole second phase on one axis."""

    alpha: float = 0.5
    name: ClassVar[str] = "reduced-adaptive"
    adapted_settings: ClassVar[int] = 1
    true_basis: ClassVar[bool] = False

    def __post_init__(self):
        _check_open_unit("alpha", self.alpha)

    def first_phase_budget(self, n_total: int) -> int:
        return _round_half_up(self.alpha * n_total)


@dataclass(frozen=True)
class KnownBasis:
    """Measures in the true state's eigenbasis for all samples (diagnostic)."""

    name: ClassVar[str] = "known-basis"
    adapted_settings: ClassVar[int] = 0
    true_basis: ClassVar[bool] = True

    def first_phase_budget(self, n_total: int) -> int:
        return n_total


ProtocolSpec = Union[Static, Adaptive, AdaptivePow, ReducedAdaptive, KnownBasis]


@dataclass(frozen=True)
class RunResult:
    """Outcome of one simulated experiment."""

    rho_hat: np.ndarray
    rho_prelim: Optional[np.ndarray]
    records: tuple[CountRecord, ...]
    infidelity: float
    total_shots: int


def protocol_name(spec: ProtocolSpec) -> str:
    """Canonical printable name, stable across runs (used in CSV and hashing)."""
    params = ",".join(f"{f.name}={float(getattr(spec, f.name))!r}" for f in fields(spec))
    return f"{spec.name}({params})" if params else spec.name


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _split_three(total: int) -> list[int]:
    base = total // 3
    rem = total - 3 * base
    return [base + (1 if i < rem else 0) for i in range(3)]


def _require_positive(shots: list[int], what: str) -> None:
    if min(shots) < 1:
        raise BudgetError(f"{what} split {shots} leaves a setting without shots")


def _shot_plan(spec: ProtocolSpec, n_total: int) -> tuple[list[int], list[int]]:
    """Per-setting shots of the first phase and of the adapted phase."""
    if n_total < 6:
        raise BudgetError(f"need at least 6 samples, got {n_total}")
    n_first = spec.first_phase_budget(n_total)
    shots1 = _split_three(n_first)
    _require_positive(shots1, "preliminary phase" if spec.adapted_settings else spec.name)
    n_final = n_total - n_first
    shots2: list[int] = []
    if spec.adapted_settings == 1:
        if n_final < 1:
            raise BudgetError("no samples left for the adapted setting")
        shots2 = [n_final]
    elif spec.adapted_settings == 3:
        shots2 = _split_three(n_final)
        _require_positive(shots2, "adapted phase")
    total = sum(shots1) + sum(shots2)
    if total != n_total:
        raise AssertionError(f"budget leak: measured {total} of {n_total}")
    return shots1, shots2


def _first_phase_axes(spec: ProtocolSpec, rho_true: np.ndarray):
    return mub_triplet(eigendecompose(rho_true)).axes if spec.true_basis else PAULI_AXES


def run_protocol(spec: ProtocolSpec, rho_true: np.ndarray, n_total: int,
                 error_model: ErrorModel, rng: RngContext) -> RunResult:
    """Simulate one experiment of ``n_total`` samples and reconstruct a state.

    This is ``run_batch`` with one repetition on the same ``rng``, so it
    draws the counts that a campaign draws on that stream.  The records hold
    the intended axes, realized axes, shots and counts of its settings;
    ``rho_prelim`` is the preliminary fit that chose the adapted triplet
    (None for one-phase protocols) and ``rho_hat`` the final fit.
    """
    batch = run_batch(spec, rho_true, n_total, error_model, rng, 1)
    shots = sum(_shot_plan(spec, n_total), [])
    records = tuple(map(CountRecord, batch.axes[0], batch.realized[0], shots,
                        batch.n_plus[0].tolist()))
    prelim = None if batch.bloch_prelim is None else bloch_to_density(batch.bloch_prelim[0])
    return RunResult(rho_hat=bloch_to_density(batch.bloch_hat[0]), rho_prelim=prelim,
                     records=records, infidelity=float(batch.infidelity[0]), total_shots=n_total)


# Version of the random-stream layout declared in ``run_batch``; recorded in
# provenance so that numbers from different layouts are not compared.
STREAM_VERSION = 2


@dataclass(frozen=True)
class BatchResult:
    """Outcome of the experiments at one sample size, as arrays over reps.

    ``axes`` (reps, M, 3) holds the intended axis, ``realized`` (reps, M, 3)
    the axis measured after alignment error and ``n_plus`` (reps, M) the +1
    counts of every setting, in ``run_protocol``'s record order (preliminary
    phase first).  ``bloch_prelim`` (reps, 3) is the preliminary estimate
    that chose the adapted triplet, None for one-phase protocols, and
    ``bloch_hat`` (reps, 3) the final one.  ``run_grid`` stacks the reps of
    its grid points in grid order.
    """

    axes: np.ndarray
    realized: np.ndarray
    bloch_prelim: Optional[np.ndarray]
    bloch_hat: np.ndarray
    n_plus: np.ndarray
    infidelity: np.ndarray


def run_batch(
    spec: ProtocolSpec,
    rho_true: np.ndarray,
    n_total: int,
    error_model: ErrorModel,
    rng: RngContext,
    reps: int,
) -> BatchResult:
    """``reps`` independent experiments of ``n_total`` samples, simulated as
    one vectorised pass; ``run_protocol`` is its one-repetition case.

    Random streams (layout ``STREAM_VERSION`` 2), all children of ``rng``:

    * the counts of phase k (0 = first phase, 1 = adapted phase) are one call
      ``rng.child(_COUNT_STREAM, k).generator().binomial(shots, p)``, with
      ``shots`` the phase's per-setting list and ``p`` of shape (reps,
      settings of the phase), filled in C order;
    * the misalignments of a random error model come from
      ``rng.child(_ALIGN_STREAM).generator()``: one ``standard_normal((reps,
      w))`` call, then one ``uniform(0, 2 pi, (reps, w))`` call, where w is
      the number of settings of both phases under per-setting error and 1
      (shared by every setting) under per-experiment error.

    The preliminary estimate is ``mle_batch`` on the first-phase records and
    the adapted triplet is ``mub_axes`` of it; the final estimate is
    ``mle_batch`` on the records of both phases, each called with one (reps,)
    array of shots per setting.  Checks that do not depend on the repetition
    (state, budget, budget leak) run once.
    """
    return run_grid(spec, rho_true, (n_total,), error_model, (rng,), reps)


def run_grid(spec: ProtocolSpec, rho_true: np.ndarray, n_grid: Sequence[int],
             error_model: ErrorModel, rngs: Sequence[RngContext], reps: int) -> BatchResult:
    """``run_batch`` at every ``n_grid[g]`` with stream ``rngs[g]``, as one
    pass over the stacked reps: rows ``g * reps`` to ``(g + 1) * reps`` are
    bit for bit that grid point's ``run_batch``.  Each grid point draws from
    its own streams; the arithmetic between draws acts on each row alone.
    Every shot plan is worked out first, so the first bad N raises.
    """
    r_true = density_to_bloch(rho_true)
    plans = [_shot_plan(spec, n) for n in n_grid]
    # Per-row shots of every setting, (rows, M).
    shots = np.repeat([shots1 + shots2 for shots1, shots2 in plans], reps, axis=0)
    draws = None
    if error_model.magnitude != 0.0 and error_model.draws_per is not None:
        width = shots.shape[1] if error_model.draws_per == "setting" else 1
        gens = [rng.child(_ALIGN_STREAM).generator() for rng in rngs]
        draws = (np.concatenate([gen.standard_normal((reps, width)) for gen in gens]),
                 np.concatenate([gen.uniform(0.0, 2.0 * math.pi, (reps, width)) for gen in gens]))

    def measure(intended: np.ndarray, phase: int) -> tuple[np.ndarray, np.ndarray]:
        phase_draws = draws
        if draws is not None and error_model.draws_per == "setting":
            settings = slice(3 * phase, 3 * phase + intended.shape[1])
            phase_draws = (draws[0][:, settings], draws[1][:, settings])
        realized = realized_axes(intended, error_model, phase_draws)
        p = born_probabilities(realized, r_true)
        return realized, np.concatenate([
            rng.child(_COUNT_STREAM, phase).generator().binomial(plan[phase], block)
            for rng, plan, block in zip(rngs, plans, np.split(p, len(rngs)))])

    axes = np.broadcast_to(np.array(_first_phase_axes(spec, rho_true)), (len(shots), 3, 3))
    realized, n_plus = measure(axes, 0)
    prelim = None
    if spec.adapted_settings:
        prelim = mle_batch(axes, shots.T[:3], n_plus)
        axes2 = mub_axes(prelim)[:, :spec.adapted_settings]
        realized2, n_plus2 = measure(axes2, 1)
        axes = np.concatenate([axes, axes2], axis=1)
        realized = np.concatenate([realized, realized2], axis=1)
        n_plus = np.concatenate([n_plus, n_plus2], axis=1)
    bloch_hat = mle_batch(axes, shots.T, n_plus)
    return BatchResult(axes, realized, prelim, bloch_hat, n_plus,
                       1.0 - fidelity_bloch(bloch_hat, r_true))
