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

``ReducedAdaptive`` derives from ``Adaptive`` and ``KnownBasis`` from
``Static``: each shares its parent's body and states only the class data
that differ.  Budget accounting is exact: the preliminary budget is
round(alpha N) (half away from zero) and each phase splits its budget into
floor shares per setting, with the remainder given to the earliest settings.
"""
from __future__ import annotations

import ctypes
import functools
import math
import numbers
import os
from dataclasses import dataclass
from typing import Callable, ClassVar, Optional, Sequence, Union

import numpy as np

from .errors import BudgetError, InvalidStateError
from .estimation import mle_batch
from .measurement import (
    PAULI_AXES,
    CountRecord,
    ErrorModel,
    RngContext,
    _draws_misalignments,
    born_probabilities,
    protocol_name,
    realized_axes,
)
from .states import bloch_to_density, check_bloch, density_to_bloch, fidelity_bloch, mub_axes


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
class ReducedAdaptive(Adaptive):
    """Adaptive tomography spending the whole second phase on one axis."""

    name: ClassVar[str] = "reduced-adaptive"
    adapted_settings: ClassVar[int] = 1


@dataclass(frozen=True)
class KnownBasis(Static):
    """Measures in the true state's eigenbasis for all samples (diagnostic)."""

    name: ClassVar[str] = "known-basis"
    true_basis: ClassVar[bool] = True


ProtocolSpec = Union[Static, Adaptive, AdaptivePow, ReducedAdaptive, KnownBasis]


@dataclass(frozen=True)
class RunResult:
    """Outcome of one simulated experiment."""

    rho_hat: np.ndarray
    rho_prelim: Optional[np.ndarray]
    records: tuple[CountRecord, ...]
    infidelity: float
    total_shots: int


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _split(total: int, parts: int) -> list[int]:
    """``total`` in ``parts`` floor shares, the remainder one each to the
    earliest; no parts for ``parts == 0``."""
    return [(total + parts - 1 - i) // parts for i in range(parts)]


# The most shots one setting can take: numpy's binomial draws int64 counts.
_MAX_SETTING_SHOTS = 2**63 - 1


def _shot_plan(spec: ProtocolSpec, n_total: int) -> tuple[list[int], list[int]]:
    """Per-setting shots of the first phase and of the adapted phase; the one
    check that they spend exactly N (AssertionError "budget leak")."""
    if not isinstance(n_total, numbers.Integral):
        raise BudgetError(f"N must be an integer, got {n_total!r}")
    if n_total < 6:
        raise BudgetError(f"need at least 6 samples, got {n_total}")
    # No protocol measures more than six settings, so past six times the
    # limit some setting is beyond it (and the split could overflow a float).
    if n_total <= 6 * _MAX_SETTING_SHOTS:
        n_first = spec.first_phase_budget(n_total)
        shots1, shots2 = _split(n_first, 3), _split(n_total - n_first, spec.adapted_settings)
        if min(shots1 + shots2) < 1:
            raise BudgetError(f"{protocol_name(spec)} at N={n_total}: split {shots1 + shots2} "
                              f"leaves a setting without shots")
        if max(shots1 + shots2) <= _MAX_SETTING_SHOTS:
            if sum(shots1 + shots2) != n_total:
                raise AssertionError(f"budget leak: measured {sum(shots1 + shots2)} of {n_total}")
            return shots1, shots2
    raise BudgetError(f"{protocol_name(spec)} at N={n_total}: a setting would take more "
                      f"than the sampler's 2**63 - 1 shots")


def run_protocol(spec: ProtocolSpec, rho_true: np.ndarray, n_total: int,
                 error_model: ErrorModel, rng: RngContext) -> RunResult:
    """Simulate one experiment of ``n_total`` samples and reconstruct a state.

    This is ``run_grid`` on ``density_to_bloch(rho_true)`` with the one-point
    grid ``(n_total,)``, the stream ``rng`` and one repetition; it is where
    the engine meets density matrices, on the way in and for the
    ``RunResult``.  The records hold the intended axes, realized axes,
    shots and counts of its settings; ``rho_prelim`` is the preliminary fit
    that chose the adapted triplet (None for one-phase protocols) and
    ``rho_hat`` the final fit.  Like ``run_grid``, it sets the process's
    malloc policy under glibc.
    """
    batch = run_grid(spec, density_to_bloch(rho_true), (n_total,), error_model, rng, 1)
    records = tuple(map(CountRecord, batch.axes[0], batch.realized[0], batch.shots[0].tolist(),
                        batch.n_plus[0].tolist()))
    prelim = None if batch.bloch_prelim is None else bloch_to_density(batch.bloch_prelim[0])
    return RunResult(rho_hat=bloch_to_density(batch.bloch_hat[0]), rho_prelim=prelim,
                     records=records, infidelity=float(batch.infidelity[0]), total_shots=n_total)


# Version of the random-stream layout declared in ``run_grid``; recorded in
# provenance so that numbers from different layouts are not compared.
STREAM_VERSION = 4

# Leading stream labels, so alignment draws and photon counts never collide.
_ALIGN_STREAM = 1
_COUNT_STREAM = 2


@dataclass(frozen=True)
class BatchResult:
    """Outcome of the experiments of a sample-size grid, as arrays over rows.

    ``axes`` (rows, M, 3) holds the intended axis, ``realized`` (rows, M, 3)
    the axis measured after alignment error, ``shots`` (rows, M) the shots
    of ``_shot_plan`` and ``n_plus`` (rows, M) the +1 counts of every
    setting, in ``run_protocol``'s record order (preliminary phase first).
    ``bloch_prelim`` (rows, 3) is the preliminary estimate that chose the
    adapted triplet, None for one-phase protocols, and ``bloch_hat`` (rows,
    3) the final one.  ``run_grid`` stacks the reps of its grid points in
    grid order.
    """

    axes: np.ndarray
    realized: np.ndarray
    shots: np.ndarray
    bloch_prelim: Optional[np.ndarray]
    bloch_hat: np.ndarray
    n_plus: np.ndarray
    infidelity: np.ndarray


def run_grid(spec: ProtocolSpec, r_true: Sequence[float], n_grid: Sequence[int],
             error_model: ErrorModel, rng: RngContext, reps: int) -> BatchResult:
    """``reps`` independent experiments of ``n_grid[g]`` samples at every grid
    point g, on the true state with Bloch vector ``r_true``, simulated as one
    vectorised pass over the stacked rows: rows ``g * reps`` to ``(g + 1) *
    reps`` are grid point g's.  ``run_protocol`` is its one-point,
    one-repetition case.

    Random streams (layout ``STREAM_VERSION`` 4), children of ``rng``:

    * the counts of phase k (0 = first phase, 1 = adapted phase) are one call
      ``rng.child(_COUNT_STREAM, k).generator().binomial(shots, p)``, with
      ``shots`` and ``p`` of shape (grid points, settings of the phase,
      reps), filled in C order: a grid point's repetitions of one setting
      are drawn back to back;
    * the misalignments of a random error model come from
      ``rng.child(_ALIGN_STREAM).generator()``: one ``standard_normal((rows,
      w))`` call, then one ``uniform(0, 2 pi, (rows, w))`` call, where w is
      the number of settings of both phases under per-setting error and 1
      (shared by every setting) under per-experiment error.

    Where the repetitions of a grid point share a setting's shots and
    probability (a shared design, no random misalignment), numpy's binomial
    keeps its setup across their draws.  Grid point 0's draws are a prefix
    of each stream, and a grid of one repetition draws as under layout 3
    (rows, then settings), as every ``run_protocol`` call does.  Grid points
    do not draw independently, which nothing outside ``run_grid`` sees: a
    campaign keys its stream on its whole grid (``harness.campaign_hash``).

    The first phase measures the Pauli frame, or under ``KnownBasis`` the
    triplet ``mub_axes`` of ``r_true``.  The preliminary estimate is
    ``mle_batch`` on the first-phase records and the adapted triplet is
    ``mub_axes`` of it; the final estimate is ``mle_batch`` on the records of
    both phases, each called with one (rows,) array of shots per setting.
    The state is a Bloch vector throughout, and the infidelity is
    ``fidelity_bloch``'s; the arithmetic between draws acts on each row
    alone.  ``r_true`` is checked (``check_bloch``) and every shot plan is
    worked out (``_shot_plan``, which also refuses a leaked budget) before
    anything is drawn, so a bad state or the first bad N raises.  These
    stages are ``_simulate``'s, given this binomial draw as the counts.

    Under glibc this changes malloc for the whole process, and nothing undoes
    it (``_keep_heap``): the first call pins the mmap threshold at 32 MB,
    and every call raises the freed heap kept above the break (the top pad)
    to 2 KB per row, 8 to 64 MB.  So blocks of up to 32 MB that other code
    allocates come from the heap, and up to 64 MB of freed heap stays with
    the process instead of going back to the kernel.
    """
    def binomial(phase: int, shots: np.ndarray, p: np.ndarray) -> np.ndarray:
        def by_point(a: np.ndarray) -> np.ndarray:
            # (rows, w) -> (grid points, w, reps): the repetitions innermost.
            return a.reshape(len(n_grid), reps, -1).swapaxes(1, 2)

        n_plus = rng.child(_COUNT_STREAM, phase).generator().binomial(by_point(shots), by_point(p))
        return n_plus.swapaxes(1, 2).reshape(shots.shape)

    return _simulate(spec, r_true, n_grid, error_model, rng, reps, binomial)


# glibc's malloc parameters (<malloc.h>).  A two-phase campaign allocates
# about 1.7 KB of fit temporaries per row (1-3 MB at the default grid's 1500
# rows); given back to the kernel at its end, they cost the next campaign
# hundreds of minor page faults.
_M_TOP_PAD = -2
_M_MMAP_THRESHOLD = -3
# Freed heap kept above the break (the top pad): 2 KB per row of the largest
# campaign so far, and at least 8 MB.  Measured on Adaptive campaigns of 1 500
# to 48 000 rows, a steady campaign mostly took 0 faults and at most 281 below
# the cap, where glibc's own policy took about 200 to 10 000.
_PAD_BYTES_PER_ROW = 2 << 10
_MIN_PAD_BYTES = 8 << 20
# Setting any malloc parameter stops glibc raising its mmap threshold as large
# blocks are freed; pinned at the ceiling that raising reaches on 64-bit, it
# keeps temporaries too large for the pad on the heap instead of mapping each
# afresh.  The pad stops at twice that, the most freed heap glibc's own
# sliding policy keeps (its trim threshold at that ceiling), reached at
# 32 768 rows.
_MMAP_THRESHOLD_BYTES = 32 << 20
_MAX_PAD_BYTES = 2 * _MMAP_THRESHOLD_BYTES
# The pad set so far (0 before the first campaign, or off glibc): a module
# value because the setting it mirrors is the process's, and glibc has no
# call that reads it back.  Threads racing here can leave a smaller pad,
# which costs faults, never a different result.
_heap_pad = 0


@functools.cache
def _mallopt() -> Optional[Callable[[int, int], int]]:
    """glibc's ``mallopt``, or None under any other C library."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return None
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError, ValueError):
        return None
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return mallopt


def _keep_heap(rows: int) -> None:
    """Keep freed heap between campaigns of up to ``rows`` rows under glibc;
    the pad only grows.  Does nothing, and never raises, where the C library
    is not glibc or refuses the pad."""
    global _heap_pad
    pad = min(max(_MIN_PAD_BYTES, rows * _PAD_BYTES_PER_ROW), _MAX_PAD_BYTES)
    mallopt = _mallopt()
    if mallopt is None or pad <= _heap_pad or not mallopt(_M_TOP_PAD, pad):
        return
    if not _heap_pad:
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    _heap_pad = pad


def _simulate(spec: ProtocolSpec, r_true: Sequence[float], n_grid: Sequence[int],
              error_model: ErrorModel, rng: RngContext, reps: int,
              counts: Callable[[int, np.ndarray, np.ndarray], np.ndarray]) -> BatchResult:
    """``run_grid``'s stages, with the +1 counts of phase k taken from
    ``counts(k, shots, p)`` for (rows, settings of the phase) arrays of shots
    and Born probabilities: ``run_grid``'s binomial draw, or the expected
    counts ``p * shots`` of a noise floor (``harness.noise_floor_sweep``)."""
    check_bloch(r_true)
    r_true = np.asarray(r_true, dtype=float)
    # Per-row shots of every setting, (rows, M).
    shots = np.repeat([sum(_shot_plan(spec, n), []) for n in n_grid], reps, axis=0)
    _keep_heap(len(shots))
    draws = None
    if _draws_misalignments(error_model):
        size = (len(shots), shots.shape[1] if error_model.draws_per == "setting" else 1)
        gen = rng.child(_ALIGN_STREAM).generator()
        draws = (gen.standard_normal(size), gen.uniform(0.0, 2.0 * math.pi, size))

    def measure(intended: np.ndarray, phase: int) -> tuple[np.ndarray, np.ndarray]:
        # ``intended`` is (rows, M, 3), or one (M, 3) design shared by every row.
        width = intended.shape[-2]
        settings = slice(3 * phase, 3 * phase + width)
        phase_draws = draws
        if draws is not None and error_model.draws_per == "setting":
            phase_draws = (draws[0][:, settings], draws[1][:, settings])
        realized = realized_axes(intended, error_model, phase_draws)
        # A shared design without draws has its probabilities once per setting.
        p = np.broadcast_to(born_probabilities(realized, r_true), (len(shots), width))
        return (np.broadcast_to(realized, (len(shots), width, 3)),
                counts(phase, shots[:, settings], p))

    # The first-phase triplet is one (3, 3) design shared by every row.
    design = mub_axes(r_true[None])[0] if spec.true_basis else np.array(PAULI_AXES)
    axes = np.broadcast_to(design, (len(shots), 3, 3))
    realized, n_plus = measure(design, 0)
    prelim = None
    if spec.adapted_settings:
        prelim = mle_batch(design, shots.T[:3], n_plus)
        axes2 = mub_axes(prelim)[:, :spec.adapted_settings]
        realized2, n_plus2 = measure(axes2, 1)
        design = axes = np.concatenate([axes, axes2], axis=1)
        realized = np.concatenate([realized, realized2], axis=1)
        n_plus = np.concatenate([n_plus, n_plus2], axis=1)
    bloch_hat = mle_batch(design, shots.T, n_plus)
    return BatchResult(axes, realized, shots, prelim, bloch_hat, n_plus,
                       1.0 - fidelity_bloch(bloch_hat, r_true))
