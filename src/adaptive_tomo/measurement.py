"""Projective qubit measurements: Born probabilities, the random streams
that photon counts and misalignments are drawn from, and the alignment-error
models that perturb measurement axes.

An *experiment* is one simulated run of a tomography protocol; a *setting* is
one measurement axis within it, applied to a batch of identically prepared
samples.  The three error models differ in how often a fresh misalignment is
drawn:

* ``PerSettingError`` (model 1): every setting of every experiment gets an
  independent mount-angle error, Normal(0, E^2).
* ``PerExperimentError`` (model 2): one mount-angle error draw per experiment,
  shared by all settings in that experiment.
* ``FixedError`` (model 3): a deterministic mount-angle error E, identical in
  every experiment, tilting each axis about the component of a fixed rotation
  axis perpendicular to it.

A mount-angle error of ``delta`` radians tilts the measured Bloch axis by
``MOUNT_TO_BLOCH_ANGLE * delta``: the wave-plate mount angle doubles into the
polarization-plane angle, which doubles again on the Bloch sphere.  The factor
lives in one constant so the mapping can be varied in sensitivity studies.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from typing import ClassVar, Optional, Sequence, Union

import numpy as np

from .errors import InvalidStateError
from .states import check_axis, density_to_bloch

# Bloch-sphere rotation angle produced per radian of wave-plate mount error.
MOUNT_TO_BLOCH_ANGLE = 4.0

PAULI_AXES = (
    np.array([1.0, 0.0, 0.0]),
    np.array([0.0, 1.0, 0.0]),
    np.array([0.0, 0.0, 1.0]),
)

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class RngContext:
    """Reproducible random stream keyed by a master seed plus integer labels.

    Identical (seed, labels) always yield identical draws; distinct labels
    yield statistically independent streams.  There is no global RNG state:
    parallel experiments must use distinct labels.
    """

    seed: int
    labels: tuple[int, ...] = ()

    def child(self, *labels: int) -> "RngContext":
        return RngContext(self.seed, self.labels + tuple(int(x) for x in labels))

    def generator(self) -> np.random.Generator:
        # PCG64 seeded by SeedSequence on the list of the seed and labels,
        # each a Python int (numpy integers included) mod 2**64.
        entropy = [operator.index(value) & _MASK64 for value in (self.seed, *self.labels)]
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def _check_magnitude(magnitude: float) -> None:
    # NaN fails it too; a Bloch tilt capped at pi keeps every sampled tilt finite.
    if not 0.0 <= MOUNT_TO_BLOCH_ANGLE * magnitude <= math.pi:
        raise InvalidStateError(f"error magnitude must be a finite number >= 0, got {magnitude}; "
                                f"the Bloch tilt {MOUNT_TO_BLOCH_ANGLE:g} E must be at most pi")


# Each error model states its own data: ``name`` (the stem of its
# ``protocol_name``) and ``draws_per``, how often a random model draws a
# fresh misalignment: once per "setting", once per "experiment", or never
# (None).  A model with a nonzero magnitude that never draws tilts every axis
# by a fixed rotation.


@dataclass(frozen=True)
class NoError:
    """Perfectly aligned measurements."""

    name: ClassVar[str] = "none"
    magnitude: ClassVar[float] = 0.0
    draws_per: ClassVar[Optional[str]] = None


@dataclass(frozen=True)
class PerSettingError:
    """Independent Normal(0, magnitude^2) mount error per setting (model 1)."""

    magnitude: float
    name: ClassVar[str] = "per-setting"
    draws_per: ClassVar[Optional[str]] = "setting"

    def __post_init__(self):
        _check_magnitude(self.magnitude)


@dataclass(frozen=True)
class PerExperimentError:
    """One Normal(0, magnitude^2) mount error per experiment (model 2)."""

    magnitude: float
    name: ClassVar[str] = "per-experiment"
    draws_per: ClassVar[Optional[str]] = "experiment"

    def __post_init__(self):
        _check_magnitude(self.magnitude)


@dataclass(frozen=True)
class FixedError:
    """Deterministic mount error, identical across experiments (model 3)."""

    magnitude: float
    rotation_axis: tuple[float, float, float] = (2.0 / math.sqrt(5.0), 1.0 / math.sqrt(5.0), 0.0)
    name: ClassVar[str] = "fixed"
    draws_per: ClassVar[Optional[str]] = None

    def __post_init__(self):
        _check_magnitude(self.magnitude)
        check_axis(self.rotation_axis, "rotation axis")


ErrorModel = Union[NoError, PerSettingError, PerExperimentError, FixedError]


def _draws_misalignments(model: ErrorModel) -> bool:
    # Whether a model draws random misalignments: a random model of nonzero
    # magnitude.  Every other model tilts the axes of every experiment alike.
    return model.magnitude != 0.0 and model.draws_per is not None


# How a field is spelled in ``protocol_name``: an error model's by its label
# here, a protocol's by its own name.
_NAME_LABELS = {"magnitude": "E", "rotation_axis": "axis"}


def protocol_name(spec) -> str:
    """Canonical printable name of a protocol or an error model, stable across
    runs: the class's ``name``, then each dataclass field as a float (a tuple
    field as its floats), for CSV and for ``harness.campaign_hash``."""
    params = ",".join(f"{_NAME_LABELS.get(f.name, f.name)}={_name_value(getattr(spec, f.name))}"
                      for f in fields(spec))
    return f"{spec.name}({params})" if params else spec.name


def _name_value(value) -> str:
    if np.ndim(value) == 0:
        return repr(float(value))
    return "(" + ",".join(repr(float(x)) for x in value) + ")"


@dataclass(frozen=True)
class CountRecord:
    """Counts for one measurement setting.

    ``realized_axis`` is the axis actually measured after alignment error;
    estimators must only ever consume ``intended_axis`` (the systematic error
    is invisible to them, which is the point).  Both must pass ``check_axis``.
    """

    intended_axis: np.ndarray
    realized_axis: np.ndarray
    n_shots: int
    n_plus: int

    def __post_init__(self):
        if not 0 <= self.n_plus <= self.n_shots:
            raise InvalidStateError(
                f"counts {self.n_plus} outside [0, {self.n_shots}]"
            )
        check_axis(self.intended_axis, "intended axis")
        check_axis(self.realized_axis, "realized axis")

    @property
    def frequency(self) -> float:
        return self.n_plus / self.n_shots


def born_probability(rho: np.ndarray, axis: Sequence[float]) -> float:
    """Probability of the +1 outcome when measuring along a unit Bloch axis:
    ``born_probabilities`` of the axis on ``density_to_bloch(rho)``."""
    return float(born_probabilities(np.asarray(axis, dtype=float), density_to_bloch(rho)))


def _cross(a, b) -> tuple[float, float, float]:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


# The engine's measurement acts on arrays over every row of a campaign; the
# random draws it consumes come from the streams that ``protocols.run_grid``
# declares.


def born_probabilities(axes: np.ndarray, r: np.ndarray) -> np.ndarray:
    """``born_probability`` for a Bloch vector ``r`` on an (..., 3) array of axes."""
    dot = axes[..., 0] * r[0] + axes[..., 1] * r[1] + axes[..., 2] * r[2]
    return np.minimum(np.maximum(0.5 * (1.0 + dot), 0.0), 1.0)


def realized_axes(
    intended: np.ndarray,
    model: ErrorModel,
    draws: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> np.ndarray:
    """The axes measured in place of an (..., 3) array of intended axes.

    Each axis a tilts by theta, ``MOUNT_TO_BLOCH_ANGLE`` times its mount
    error, toward a unit vector w perpendicular to it: the realized axis is
    ``a cos(theta) + w sin(theta)``, unit to rounding.  For ``FixedError``,
    w = p x a with p the unit perpendicular part of ``rotation_axis`` (no
    tilt where that part vanishes); for the random models, w = e1 sin(chi) -
    e2 cos(chi) in a fixed basis (e1, e2) of the perpendicular plane.
    ``draws`` then holds each axis's standard normal and chi in [0, 2 pi), as
    arrays that broadcast against ``intended[..., 0]``.  The scalar
    reference is ``realized_axis`` in ``tests/test_engine.py``.

    The result has the broadcast shape of the axes and the draws.  So a
    design shared by every row is passed once, as an (M, 3) array, with
    (rows, M) draws: what depends on the axis alone (the tilt of
    ``FixedError``, the basis of the perpendicular plane) is worked out once
    per setting, and each row's result is bit for bit that of the design
    broadcast to (rows, M, 3).
    """
    if model.magnitude == 0.0:
        return intended
    a = (intended[..., 0], intended[..., 1], intended[..., 2])
    if model.draws_per is None:
        rx, ry, rz = model.rotation_axis
        d = rx * a[0] + ry * a[1] + rz * a[2]
        px, py, pz = rx - d * a[0], ry - d * a[1], rz - d * a[2]
        norm = np.sqrt(px * px + py * py + pz * pz)
        with np.errstate(divide="ignore", invalid="ignore"):
            w = _cross((px / norm, py / norm, pz / norm), a)
        angle = MOUNT_TO_BLOCH_ANGLE * model.magnitude
        c, s = math.cos(angle), math.sin(angle)
    else:
        normal, chi = draws
        # The fixed basis (e1, e2): the unit vector on the axis's smallest
        # |component| (first on ties), orthogonalised against the axis.
        k = np.argmin(np.abs(intended), axis=-1)
        d = np.take_along_axis(intended, k[..., None], axis=-1)[..., 0]
        e = [(k == i).astype(float) for i in range(3)]
        e1 = (e[0] - d * a[0], e[1] - d * a[1], e[2] - d * a[2])
        n = np.sqrt(e1[0] ** 2 + e1[1] ** 2 + e1[2] ** 2)
        e1 = (e1[0] / n, e1[1] / n, e1[2] / n)
        e2 = _cross(a, e1)
        cos_chi, sin_chi = np.cos(chi), np.sin(chi)
        w = tuple(e1[i] * sin_chi - e2[i] * cos_chi for i in range(3))
        angle = MOUNT_TO_BLOCH_ANGLE * (normal * model.magnitude)
        c, s = np.cos(angle), np.sin(angle)
    out = np.stack([a[i] * c + w[i] * s for i in range(3)], axis=-1)
    # Rotation about the measured axis itself is unobservable.
    return out if model.draws_per else np.where((norm < 1e-12)[..., None], intended, out)
