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
from dataclasses import dataclass, fields
from typing import ClassVar, Optional, Sequence, Union

import numpy as np

from .errors import InvalidStateError
from .states import density_to_bloch

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
        entropy = [self.seed & _MASK64]
        entropy.extend(label & _MASK64 for label in self.labels)
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def _check_magnitude(magnitude: float) -> None:
    if magnitude < 0:
        raise InvalidStateError("error magnitude must be >= 0")


# Each error model states its own data: ``name`` (the stem of its
# ``error_model_name``) and ``draws_per``, how often a random model draws a
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
        norm = math.sqrt(sum(x * x for x in self.rotation_axis))
        if abs(norm - 1.0) > 1e-9:
            raise InvalidStateError("rotation axis must be a unit vector")


ErrorModel = Union[NoError, PerSettingError, PerExperimentError, FixedError]

# How each error-model field is spelled in ``error_model_name``.
_NAME_LABELS = {"magnitude": "E", "rotation_axis": "axis"}


def _name_value(value) -> str:
    if np.ndim(value) == 0:
        return repr(float(value))
    return "(" + ",".join(repr(float(x)) for x in value) + ")"


def error_model_name(model: ErrorModel) -> str:
    """Canonical printable name for an error model (used in hashing and CSV)."""
    params = ",".join(f"{_NAME_LABELS[f.name]}={_name_value(getattr(model, f.name))}"
                      for f in fields(model))
    return f"{model.name}({params})" if params else model.name


@dataclass(frozen=True)
class CountRecord:
    """Counts for one measurement setting.

    ``realized_axis`` is the axis actually measured after alignment error;
    estimators must only ever consume ``intended_axis`` (the systematic error
    is invisible to them, which is the point).
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
        ax = self.realized_axis
        norm = math.sqrt(float(ax[0]) ** 2 + float(ax[1]) ** 2 + float(ax[2]) ** 2)
        if abs(norm - 1.0) > 1e-9:
            raise InvalidStateError("realized axis is not a unit vector")

    @property
    def frequency(self) -> float:
        return self.n_plus / self.n_shots


def born_probability(rho: np.ndarray, axis: Sequence[float]) -> float:
    """Probability of the +1 outcome when measuring along a unit Bloch axis."""
    r = density_to_bloch(rho)
    dot = float(axis[0]) * r[0] + float(axis[1]) * r[1] + float(axis[2]) * r[2]
    p = 0.5 * (1.0 + dot)
    return min(max(p, 0.0), 1.0)


def _cross(a, b) -> tuple[float, float, float]:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


# The engine's measurement acts on arrays over the repetitions of a grid
# point; the random draws it consumes come from the streams that
# ``protocols.run_grid`` declares.


def born_probabilities(axes: np.ndarray, r: np.ndarray) -> np.ndarray:
    """``born_probability`` for a Bloch vector ``r`` on an (..., 3) array of axes."""
    dot = axes[..., 0] * r[0] + axes[..., 1] * r[1] + axes[..., 2] * r[2]
    return np.minimum(np.maximum(0.5 * (1.0 + dot), 0.0), 1.0)


def _rotate3(a, u, c, s):
    # Rodrigues rotation of the component arrays a about the unit axis u
    # perpendicular to them, given cos and sin of the angle.
    cx, cy, cz = _cross(u, a)
    ox, oy, oz = a[0] * c + cx * s, a[1] * c + cy * s, a[2] * c + cz * s
    n = np.sqrt(ox * ox + oy * oy + oz * oz)
    return ox / n, oy / n, oz / n


def realized_axes(
    intended: np.ndarray,
    model: ErrorModel,
    draws: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> np.ndarray:
    """The axes measured in place of an (..., 3) array of intended axes.

    Each axis turns by ``MOUNT_TO_BLOCH_ANGLE`` times its mount error about a
    unit axis perpendicular to it: the perpendicular part of ``rotation_axis``
    for ``FixedError`` (no turn where it vanishes), and for the random models
    the direction at angle chi in a fixed basis of the perpendicular plane.
    ``draws`` then holds each axis's standard normal and chi in [0, 2 pi), as
    arrays that broadcast against ``intended[..., 0]``.
    """
    if model.magnitude == 0.0:
        return intended
    a = (intended[..., 0], intended[..., 1], intended[..., 2])
    if model.draws_per is None:
        wx, wy, wz = model.rotation_axis
        d = wx * a[0] + wy * a[1] + wz * a[2]
        px, py, pz = wx - d * a[0], wy - d * a[1], wz - d * a[2]
        norm = np.sqrt(px * px + py * py + pz * pz)
        angle = MOUNT_TO_BLOCH_ANGLE * model.magnitude
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.stack(_rotate3(a, (px / norm, py / norm, pz / norm),
                                    math.cos(angle), math.sin(angle)), axis=-1)
        # Rotation about the measured axis itself is unobservable.
        return np.where((norm < 1e-12)[..., None], intended, out)
    normal, chi = draws
    delta = normal * model.magnitude
    # The fixed basis (e1, e2): the unit vector on the axis's smallest
    # |component| (first on ties), orthogonalised against the axis.
    k = np.argmin(np.abs(intended), axis=-1)
    d = np.take_along_axis(intended, k[..., None], axis=-1)[..., 0]
    e = [(k == i).astype(float) for i in range(3)]
    e1 = (e[0] - d * a[0], e[1] - d * a[1], e[2] - d * a[2])
    n = np.sqrt(e1[0] ** 2 + e1[1] ** 2 + e1[2] ** 2)
    e1 = (e1[0] / n, e1[1] / n, e1[2] / n)
    e2 = _cross(a, e1)
    c, s = np.cos(chi), np.sin(chi)
    u = (e1[0] * c + e2[0] * s, e1[1] * c + e2[1] * s, e1[2] * c + e2[2] * s)
    angle = MOUNT_TO_BLOCH_ANGLE * delta
    return np.stack(_rotate3(a, u, np.cos(angle), np.sin(angle)), axis=-1)

