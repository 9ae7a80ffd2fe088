"""The batched campaign engine against the scalar reference path, and its
fits against a high-precision solve.

``protocols.run_grid`` simulates all repetitions of a sample-size grid as
arrays on the true state's Bloch vector, drawing every random number from the
streams its docstring declares.  The reference below redraws those numbers one
scalar call at a time from the same streams, one generator per phase drawing
grid point by grid point, then setting by setting, then repetition by
repetition, perturbs each axis with the scalar ``realized_axis`` defined here
and requires identical counts; on those counts the density-matrix routines
(the one-record-set fit ``mle``, ``mub_triplet`` and ``fidelity``) must
reproduce the batch's first-phase and adapted axes, estimates and infidelities
up to the rounding of the batched fits, and a campaign must complete with
those routines disabled.  The first grid point of a pass without random
misalignments must be exactly the one-point ``run_grid`` on the same stream, a
grid of one repetition per point must draw its counts in C order over (rows,
settings), and ``run_protocol`` must be exactly its one-repetition batch.  The
fits themselves are held to the same hedged objective solved in 50-digit
arithmetic (``reference_fit``) and to a local grid of the objective around
each fit, and the Jacobi factorisation of R that the surface fits use to
LAPACK's SVD.  Orthonormal frames (Pauli, signed and permuted Pauli,
``mub_axes`` triplets), which ``mle_batch`` fits in the frame's coordinates
when they are one shared design, are held to the same oracles as one-row
shared designs.  Stacked with other rows they must give the fits of their
separate calls bit for bit, and a shared design must give its broadcast's fits
bit for bit, unless it is a frame other than the Pauli axes in order: such a
frame reaches the frame path and its broadcast the general path.
"""
import contextlib
import math
import re
import sys
import unittest.mock
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from adaptive_tomo import (
    Adaptive,
    AdaptivePow,
    BudgetError,
    CampaignSpec,
    CountRecord,
    FixedError,
    InvalidStateError,
    KnownBasis,
    NoError,
    PerExperimentError,
    PerSettingError,
    ReducedAdaptive,
    RngContext,
    Static,
    UnderdeterminedError,
    born_probability,
    bloch_to_density,
    campaign_hash,
    density_to_bloch,
    eigendecompose,
    fidelity,
    merge_records,
    mle,
    mub_triplet,
    run_campaign,
    run_protocol,
)
from adaptive_tomo import estimation, protocols, states
from adaptive_tomo.estimation import mle_batch
from adaptive_tomo.fixtures import EQ7_BLOCH
from adaptive_tomo.measurement import (MOUNT_TO_BLOCH_ANGLE, PAULI_AXES, _cross,
                                      born_probabilities, realized_axes)
from adaptive_tomo.protocols import _ALIGN_STREAM, _COUNT_STREAM, _shot_plan, run_grid
from adaptive_tomo.states import fidelity_bloch, mub_axes

SEED = 1729
# A campaign label needs two entropy words, like most campaign-hash labels.
LABEL = 0x9E3779B97F4A7C15
REPS = 2
PROTOCOLS = (Static(), Adaptive(0.5), Adaptive(0.2), AdaptivePow(), ReducedAdaptive(0.5),
             KnownBasis())
MODELS = (NoError(), PerSettingError(0.01), PerExperimentError(0.02), FixedError(0.01))
STATES = (EQ7_BLOCH, (0.3, 0.4, 0.2), (0.0, 0.0, 1.0), (0.0, 0.0, 0.0), (1e-9, 0.0, 0.999),
          (0.6, 0.0, 0.0))
GRIDS = ((6, 7, 12, 30, 84), (300, 5000))

settings.register_profile("engine", derandomize=True, database=None, max_examples=150,
                          deadline=None)


def perp_basis(axis):
    # Deterministic orthonormal basis of the plane perpendicular to axis.
    ax, ay, az = float(axis[0]), float(axis[1]), float(axis[2])
    k = min(range(3), key=lambda i: abs((ax, ay, az)[i]))
    e = [0.0, 0.0, 0.0]
    e[k] = 1.0
    d = (ax, ay, az)[k]
    e1 = (e[0] - d * ax, e[1] - d * ay, e[2] - d * az)
    n = math.sqrt(e1[0] ** 2 + e1[1] ** 2 + e1[2] ** 2)
    e1 = (e1[0] / n, e1[1] / n, e1[2] / n)
    e2 = _cross((ax, ay, az), e1)
    return np.array(e1), np.array(e2)


def tilt(axis, w, angle):
    # The axis turned by angle toward the unit vector w perpendicular to it.
    c, s = math.cos(angle), math.sin(angle)
    return np.array([float(axis[i]) * c + float(w[i]) * s for i in range(3)])


def realized_axis(intended, model, normal=0.0, chi=0.0):
    """Scalar reference of ``measurement.realized_axes`` for one axis; a
    random model takes its standard normal draw and its angle in [0, 2 pi)
    as arguments."""
    if model.magnitude == 0.0:
        return intended
    if model.draws_per is None:
        rx, ry, rz = model.rotation_axis
        ax, ay, az = float(intended[0]), float(intended[1]), float(intended[2])
        d = rx * ax + ry * ay + rz * az
        px, py, pz = rx - d * ax, ry - d * ay, rz - d * az
        norm = math.sqrt(px * px + py * py + pz * pz)
        if norm < 1e-12:
            # Rotation about the measured axis itself is unobservable.
            return intended
        w = _cross((px / norm, py / norm, pz / norm), (ax, ay, az))
        return tilt(intended, w, MOUNT_TO_BLOCH_ANGLE * model.magnitude)
    delta = normal * model.magnitude
    e1, e2 = perp_basis(intended)
    return tilt(intended, e1 * math.sin(chi) - e2 * math.cos(chi), MOUNT_TO_BLOCH_ANGLE * delta)


def reference_realized_axes(model, rng, axes):
    """Realized axes of ``axes`` (rows, M, 3), with every misalignment drawn
    by a scalar call from the declared stream, in C order."""
    rows, m = axes.shape[:2]
    normal = chi = np.zeros((rows, m))
    if model.magnitude != 0.0 and model.draws_per is not None:
        width = m if model.draws_per == "setting" else 1
        gen = rng.child(_ALIGN_STREAM).generator()
        normal = [[gen.standard_normal() for _ in range(width)] for _ in range(rows)]
        chi = [[gen.uniform(0.0, 2.0 * math.pi) for _ in range(width)] for _ in range(rows)]
        if width == 1:
            normal, chi = ([row * m for row in draws] for draws in (normal, chi))
    return [[realized_axis(axes[j, s], model, normal[j][s], chi[j][s]) for s in range(m)]
            for j in range(rows)]


def check_against_reference(protocol, rho, n_grid, model, rng, reps):
    """Run the grid ``n_grid`` on the Bloch vector of ``rho`` and check it
    against the scalar reference on ``rho``; returns the batch, or None where
    both paths raise the BudgetError of the first bad N."""
    try:
        batch = run_grid(protocol, density_to_bloch(rho), n_grid, model, rng, reps)
    except BudgetError as exc:
        with pytest.raises(BudgetError, match=re.escape(str(exc))):
            for n in n_grid:
                run_protocol(protocol, rho, n, model, rng.child(0))
        return None
    if protocol.true_basis:
        triplet = mub_triplet(eigendecompose(rho)).axes
        assert np.max(np.abs(batch.axes[:, :3] - triplet)) <= 1e-14, density_to_bloch(rho)
    # Per-row shots of every setting, grid points in order.
    shots = [sum(_shot_plan(protocol, n), []) for n in n_grid for _ in range(reps)]
    m = len(shots[0])
    realized = reference_realized_axes(model, rng, batch.axes)
    counts = np.empty((len(shots), m), dtype=np.int64)
    for phase, settings_ in enumerate((range(3), range(3, m))):
        gen = rng.child(_COUNT_STREAM, phase).generator()
        for g in range(len(n_grid)):
            for s in settings_:
                for j in range(g * reps, (g + 1) * reps):
                    counts[j, s] = gen.binomial(shots[j][s],
                                                born_probability(rho, realized[j][s]))
    where = f"{protocol} {model} {density_to_bloch(rho)} N={list(n_grid)}"
    assert np.array_equal(batch.realized, np.array(realized)), where
    assert np.array_equal(batch.n_plus, counts), where
    for j in range(len(shots)):
        records = [CountRecord(batch.axes[j, s], realized[j][s], shots[j][s], int(counts[j, s]))
                   for s in range(m)]
        if m > 3:
            triplet = mub_triplet(eigendecompose(mle(records[:3]).rho)).axes
            assert np.max(np.abs(batch.axes[j, 3:] - triplet[:m - 3])) <= 1e-8, where
        est = mle(records)
        assert np.max(np.abs(batch.bloch_hat[j] - density_to_bloch(est.rho))) <= 1e-8, where
        assert abs(batch.infidelity[j] - (1.0 - fidelity(est.rho, rho))) <= 1e-6, where
    return batch


@pytest.mark.parametrize("protocol", PROTOCOLS, ids=repr)
def test_batch_matches_scalar_reference(protocol):
    checked = 0
    for model in MODELS:
        for state in STATES:
            rho = bloch_to_density(state)
            for grid in GRIDS:
                for i, n in enumerate(grid):
                    rng = RngContext(SEED, (LABEL, i))
                    checked += check_against_reference(protocol, rho, (n,), model, rng,
                                                       REPS) is not None
    assert checked > 0


def test_campaign_reduces_the_reference_runs():
    spec = CampaignSpec(Adaptive(0.5), EQ7_BLOCH, (90, 300), reps=4, seed=SEED,
                        error_model=PerSettingError(0.01))
    result = run_campaign(spec)
    label = int(campaign_hash(spec)[:16], 16)
    batch = check_against_reference(spec.protocol, bloch_to_density(EQ7_BLOCH), spec.n_grid,
                                    spec.error_model, RngContext(SEED, (label, 0)), spec.reps)
    for i, row in enumerate(result.rows):
        block = batch.infidelity[i * spec.reps:(i + 1) * spec.reps]
        assert row.mean_infidelity == float(np.mean(block))
        assert row.stderr == float(np.std(block, ddof=1) / math.sqrt(spec.reps))


def test_campaigns_build_no_density_matrix(monkeypatch):
    # The campaign path holds Bloch vectors only: every protocol and error
    # model completes with the density-matrix routines disabled in every
    # module namespace that binds them.
    def disabled(*args, **kwargs):
        raise AssertionError("density-matrix routine called by a campaign")

    originals = [getattr(states, name) for name in ("bloch_to_density", "density_to_bloch",
                                                    "check_density", "eigendecompose",
                                                    "mub_triplet")]
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "adaptive_tomo":
            for attr, value in list(vars(module).items()):
                if any(value is fn for fn in originals):
                    monkeypatch.setattr(module, attr, disabled)
    with pytest.raises(AssertionError, match="density-matrix"):
        states.bloch_to_density(EQ7_BLOCH)
    # The corners of mub_axes, which a campaign reaches only by chance.
    states.mub_axes(np.array([[0.0, 0.0, 0.0], [1e-10, 0.0, 0.0], [0.0, 0.0, -0.3],
                              [1e-8, 0.0, 0.9]]))
    for protocol in PROTOCOLS:
        for model in MODELS:
            for state in STATES:
                result = run_campaign(CampaignSpec(protocol, state, (30, 300, 5000), reps=REPS,
                                                   error_model=model, seed=SEED))
                assert all(math.isfinite(row.mean_infidelity) for row in result.rows)


@pytest.mark.parametrize("protocol", PROTOCOLS, ids=repr)
def test_run_protocol_is_the_one_rep_batch(protocol):
    checked = 0
    for model in MODELS:
        for state in STATES:
            rho = bloch_to_density(state)
            for i, n in enumerate((7, 300)):
                rng = RngContext(SEED, (LABEL, i))
                try:
                    batch = run_grid(protocol, density_to_bloch(rho), (n,), model, rng, 1)
                except BudgetError as exc:
                    with pytest.raises(BudgetError, match=re.escape(str(exc))):
                        run_protocol(protocol, rho, n, model, rng)
                    continue
                result = run_protocol(protocol, rho, n, model, rng)
                where = f"{model} {state} N={n}"
                shots = sum(_shot_plan(protocol, n), [])
                assert [rec.n_shots for rec in result.records] == shots, where
                for field, attr in (("axes", "intended_axis"), ("realized", "realized_axis"),
                                    ("n_plus", "n_plus")):
                    got = np.array([getattr(rec, attr) for rec in result.records])
                    assert np.array_equal(got, getattr(batch, field)[0]), f"{field} {where}"
                assert np.array_equal(result.rho_hat, bloch_to_density(batch.bloch_hat[0])), where
                if protocol.adapted_settings:
                    # The fit on the first phase's records chose the adapted triplet.
                    prelim = mle_batch(batch.axes[:, :3], shots[:3], batch.n_plus[:, :3])
                    assert np.array_equal(batch.bloch_prelim, prelim), where
                    assert np.array_equal(result.rho_prelim, bloch_to_density(prelim[0])), where
                else:
                    assert result.rho_prelim is None and batch.bloch_prelim is None, where
                assert result.infidelity == batch.infidelity[0], where
                checked += 1
    assert checked > 0


def first_budget_error(protocol, grid):
    """The BudgetError message of the first N of ``grid`` that ``protocol``
    cannot split, or None."""
    for n in grid:
        try:
            _shot_plan(protocol, n)
        except BudgetError as exc:
            return str(exc)
    return None


@pytest.mark.parametrize("protocol", PROTOCOLS, ids=repr)
def test_grid_pass_matches_the_reference(protocol):
    # A grid pass matches the scalar reference, which draws each phase grid
    # point by grid point, setting by setting, repetition by repetition from
    # one generator.  Its first grid point is the one-point pass on the same
    # stream, except under a random error model, whose angles follow the
    # normal draws of every row.  A grid with a bad N raises that N's
    # BudgetError before it builds a generator.
    rng = RngContext(SEED, (LABEL, 0))
    checked = 0
    for model in MODELS:
        for state in STATES:
            for grid in GRIDS:
                error = first_budget_error(protocol, grid)
                if error is not None:
                    with unittest.mock.patch.object(RngContext, "generator",
                                                    side_effect=AssertionError("drew")), \
                            pytest.raises(BudgetError, match=re.escape(error)):
                        run_grid(protocol, state, grid, model, rng, REPS)
                good = [n for n in grid if first_budget_error(protocol, (n,)) is None]
                if not good:
                    continue
                rho = bloch_to_density(state)
                batch = check_against_reference(protocol, rho, good, model, rng, REPS)
                if model.draws_per is None:
                    first = run_grid(protocol, density_to_bloch(rho), good[:1], model, rng, REPS)
                    for field in ("axes", "realized", "n_plus", "bloch_hat", "infidelity"):
                        assert np.array_equal(getattr(batch, field)[:REPS],
                                              getattr(first, field)), (
                            f"{field} {model} {state} N={good[0]}")
                checked += 1
    assert checked > 0


@pytest.mark.parametrize("grid, reps", [((), REPS), ((60,), 0), ((60,), -1), ((60,), 1.5),
                                        ((60,), True)],
                         ids=["empty-grid", "reps-0", "reps-negative", "reps-float", "reps-bool"])
def test_grid_pass_refuses_what_it_cannot_run(grid, reps):
    # An empty grid, or reps that is not an integer >= 1, raises before a
    # generator is built, as a bad N does.
    with unittest.mock.patch.object(RngContext, "generator", side_effect=AssertionError("drew")), \
            pytest.raises(InvalidStateError, match=re.escape(
                f"got {len(grid)} grid points and reps {reps!r}")):
        run_grid(Adaptive(0.5), EQ7_BLOCH, grid, PerSettingError(0.01),
                 RngContext(SEED, (LABEL, 0)), reps)


@pytest.mark.parametrize("model", MODELS, ids=repr)
def test_one_rep_grids_draw_counts_in_row_order(model):
    # With one repetition per grid point, the (grid points, settings, reps)
    # order of the counts is C order over (rows, settings), the order of
    # stream layout 3: one binomial call per phase on the batch's own shots
    # and realized axes redraws its counts.
    rng = RngContext(SEED, (LABEL, 0))
    grid = (30, 300, 5000, 123457)
    for protocol in PROTOCOLS:
        batch = run_grid(protocol, EQ7_BLOCH, grid, model, rng, 1)
        shots = np.array([sum(_shot_plan(protocol, n), []) for n in grid])
        p = born_probabilities(batch.realized, np.array(EQ7_BLOCH))
        counts = np.concatenate([
            rng.child(_COUNT_STREAM, phase).generator().binomial(shots[:, settings_],
                                                                 p[:, settings_])
            for phase, settings_ in enumerate((slice(0, 3), slice(3, None)))], axis=1)
        assert np.array_equal(batch.n_plus, counts), protocol


@settings(settings.get_profile("engine"))
@given(n=st.integers(6, 10**6), alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       exponent=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_shot_plans_spend_the_budget_or_raise(n, alpha, exponent):
    for protocol in (Static(), Adaptive(alpha), AdaptivePow(exponent), ReducedAdaptive(alpha),
                     KnownBasis()):
        try:
            shots1, shots2 = _shot_plan(protocol, n)
        except BudgetError as exc:
            # The grid pass checks every plan before it draws.
            with pytest.raises(BudgetError, match=re.escape(str(exc))):
                run_grid(protocol, EQ7_BLOCH, (n, 2 * n), NoError(), RngContext(SEED), REPS)
            continue
        assert sum(shots1) + sum(shots2) == n
        assert len(shots1) == 3 and len(shots2) == protocol.adapted_settings
        assert min(shots1 + shots2) >= 1


def test_shot_plans_stop_at_the_samplers_limit():
    # numpy's binomial draws int64 counts: a setting of 2**63 - 1 shots is
    # drawn, one more is refused before anything is drawn, and so is an N
    # too large to split in floats.
    limit = 2**63 - 1
    assert max(sum(_shot_plan(Static(), 3 * limit), [])) == limit
    run_grid(Static(), EQ7_BLOCH, (3 * limit,), NoError(), RngContext(SEED), REPS)
    beyond = [(Static(), 3 * limit + 1), (KnownBasis(), 3 * limit + 1),
              (ReducedAdaptive(0.5), 6 * limit)]
    beyond += [(protocol, n) for protocol in PROTOCOLS for n in (6 * limit + 1, 10**400)]
    for protocol, n in beyond:
        with pytest.raises(BudgetError, match=re.escape("the sampler's 2**63 - 1 shots")):
            _shot_plan(protocol, n)


@pytest.mark.parametrize("seed", [0, 1, SEED, 2**32 - 1, 2**32, 2**64 - 1, -5])
@pytest.mark.parametrize("label", [0, 7, 2**32 - 1, 2**32, LABEL, 2**64 - 1])
def test_stream_states_match_seed_sequence(seed, label):
    # Each stream that run_grid declares is PCG64 seeded by numpy's
    # SeedSequence on (seed mod 2**64, the labels of run_grid's stream, stream
    # labels), for seeds and labels on both sides of 2**32; with the
    # reference test this pins a seed's numbers to numpy's documented seeding.
    rng = RngContext(seed, (label, 3))
    entropy = [seed & (2**64 - 1), label, 3]
    for labels in ((_COUNT_STREAM, 0), (_COUNT_STREAM, 1), (_ALIGN_STREAM,)):
        want = np.random.PCG64(np.random.SeedSequence(entropy + list(labels))).state
        assert rng.child(*labels).generator().bit_generator.state == want


def scalar_axes(r):
    return np.array(mub_triplet(eigendecompose(bloch_to_density(r))).axes)


def test_closed_form_triplets():
    rng = np.random.default_rng(SEED)
    generic = rng.normal(size=(200, 3))
    generic *= (rng.uniform(size=(200, 1)) ** (1 / 3)) / np.linalg.norm(generic, axis=1,
                                                                         keepdims=True)
    axes = mub_axes(generic)
    for r, got in zip(generic, axes):
        assert np.max(np.abs(got - scalar_axes(r))) <= 1e-14

    # Inputs at which the closed form once handed over to the scalar
    # construction: a Pauli axis, a tie of the two smallest components, and
    # an axis orthogonal to a probe vector.
    probe = np.array([0.1, -0.5, 0.2])
    orthogonal = np.cross(probe, [1.0, 0.0, 0.0])
    ties = np.array([[0.5, 0.0, 0.0], [0.3, 0.3, 0.5],
                     0.8 * orthogonal / np.linalg.norm(orthogonal)])
    for r, got in zip(ties, mub_axes(ties)):
        assert np.max(np.abs(got - scalar_axes(r))) <= 1e-14

    # Near a pole the closed form itself still holds, down to directions
    # 1e-13 rad from either pole.
    tilts = np.array([1e-13, 1e-12, 1e-6])
    near_pole = np.concatenate([
        [[1e-8, 0.0, 0.9], [0.0, -3e-11, -0.4]],
        *(0.5 * np.stack([np.sin(tilts) * np.cos(1.0), np.sin(tilts) * np.sin(1.0),
                          pole * np.cos(tilts)], axis=1) for pole in (1.0, -1.0)),
    ])
    for r, got in zip(near_pole, mub_axes(near_pole)):
        assert np.max(np.abs(got - scalar_axes(r))) <= 1e-14

    # Where it divides by zero the row takes a fixed frame: the computational
    # frame (z, x, y) at |r| <= DEGENERACY_GAP = 1e-9, and (sign(z) z, x,
    # sign(z) y) on the z axis, the frames that the scalar construction gives
    # there.  The two share the degeneracy threshold, so they agree on every
    # |r| below it.
    z, x, y = [0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]
    frames = {
        "degenerate": ([1e-10, 0.0, 0.0], [z, x, y]),
        "degenerate below the threshold": ([5e-10, 0.0, 0.0], [z, x, y]),
        "origin": ([0.0, 0.0, 0.0], [z, x, y]),
        "north pole": ([0.0, 0.0, 0.9], [z, x, y]),
        "south pole": ([0.0, 0.0, -0.3], [[0.0, 0.0, -1.0], x, [0.0, -1.0, 0.0]]),
    }
    r = np.array([row for row, _ in frames.values()])
    for name, got, row in zip(frames, mub_axes(r), r):
        assert np.array_equal(got, frames[name][1]), name
        assert np.max(np.abs(got - scalar_axes(row))) <= 1e-14, name


def _direction(v):
    v = np.asarray(v, dtype=float)
    norm = np.linalg.norm(v)
    return v / norm if norm > 1e-3 else np.array([0.0, 0.0, 1.0])


_DIRECTIONS = st.tuples(*[st.floats(-1.0, 1.0)] * 3).map(_direction)
# Corners of mub_axes: |r| around the 1e-9 threshold of the degenerate
# branch, the surface |r| = 1, directions whose transverse component
# sqrt(x^2 + y^2) is small (1e-8 to 1e-4) next to the poles, and the points
# where the closed form divides by zero.
_EXACT = st.sampled_from([(0.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.0, 0.0, -0.3)]).map(np.array)
_NEAR_ZERO = st.tuples(_DIRECTIONS, st.floats(-10.0, -8.0)).map(lambda t: t[0] * 10.0 ** t[1])
_NEAR_POLE = st.tuples(st.floats(0.0, 2.0 * math.pi), st.floats(-8.0, -4.0),
                       st.sampled_from([1.0, -1.0]), st.floats(0.1, 1.0)).map(
    lambda t: t[3] * np.array([10.0 ** t[1] * math.cos(t[0]), 10.0 ** t[1] * math.sin(t[0]),
                               t[2] * math.sqrt(1.0 - 10.0 ** (2 * t[1]))]))


@settings(settings.get_profile("engine"))
@given(st.lists(st.one_of(_NEAR_ZERO, _DIRECTIONS, _NEAR_POLE, _EXACT), min_size=1, max_size=4))
def test_mub_axes_orthonormal_at_the_corners(rows):
    r = np.array(rows)
    axes = mub_axes(r)
    for row, frame in zip(r, axes):
        assert np.max(np.abs(frame @ frame.T - np.eye(3))) <= 1e-12, row
        norm = np.linalg.norm(row)
        if norm > 1e-9:
            assert np.max(np.abs(frame[0] - row / norm)) <= 1e-12, row


@pytest.mark.parametrize("model", MODELS + (FixedError(0.3, (0.0, 0.0, 1.0)),), ids=repr)
def test_shared_design_realized_axes_match_their_broadcast(model):
    # realized_axes turns a shared (M, 3) design once per setting; each row
    # must be bit for bit that of the design broadcast over the rows.  The
    # last model's rotation axis is parallel to Pauli z, which is not turned.
    rows = 40
    gen = np.random.default_rng(SEED)
    designs = [np.array(PAULI_AXES), mub_axes(np.array([EQ7_BLOCH]))[0],
               mub_axes(np.array([[0.3, 0.4, 0.2]]))[0][:1]]
    for design in designs:
        width = len(design)
        # Per-setting draws as run_grid slices them out of a wider array,
        # per-experiment draws shared by every setting.
        wide = [gen.standard_normal((rows, width + 3)),
                gen.uniform(0.0, 2 * math.pi, (rows, width + 3))]
        for draws in ((wide[0][:, :width], wide[1][:, :width]),
                      (gen.standard_normal((rows, 1)), gen.uniform(0.0, 2 * math.pi, (rows, 1)))):
            draws = draws if model.draws_per else None
            shared = realized_axes(design, model, draws)
            broadcast = realized_axes(np.broadcast_to(design, (rows, width, 3)), model, draws)
            shared = np.broadcast_to(shared, broadcast.shape)
            assert shared.tobytes() == np.ascontiguousarray(broadcast).tobytes()
    if model == FixedError(0.3, (0.0, 0.0, 1.0)):
        assert np.array_equal(realized_axes(designs[0], model)[2], PAULI_AXES[2])


def test_length_three_sums_match_np_sum(monkeypatch):
    # fidelity_bloch and mub_axes sum their length-3 products left to right,
    # which is bit for bit what np.sum does over that axis.
    gen = np.random.default_rng(SEED)
    mixed = gen.normal(size=(300, 3))
    mixed *= gen.uniform(size=(300, 1)) / np.linalg.norm(mixed, axis=1, keepdims=True)
    pure = mixed / np.linalg.norm(mixed, axis=1, keepdims=True)
    degenerate = np.array([[0.0, 0.0, 0.0], [-0.0, -0.0, -0.0], [0.0, 0.0, 1.0],
                           [0.0, -0.0, -0.3], [1e-12, 0.0, 0.0], [1e-9, 0.0, 0.999]])
    r = np.concatenate([mixed, pure, degenerate])
    s = np.roll(r, 1, axis=0)

    def outputs():
        return (mub_axes(r), fidelity_bloch(r, s), fidelity_bloch(r, np.array(EQ7_BLOCH)))

    fast = outputs()
    monkeypatch.setattr(states, "_dot3", lambda a, b: np.sum(a * b, axis=-1))
    for got, want in zip(fast, outputs()):
        assert got.tobytes() == want.tobytes()


def matrix_fidelity(rho, sigma):
    """The qubit closed form Tr(rho sigma) + 2 sqrt(det rho det sigma), each
    determinant floored at 0, clamped into [0, 1]."""
    det_r, det_s = (max((m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]).real, 0.0) for m in (rho, sigma))
    f = np.trace(rho @ sigma).real + 2.0 * math.sqrt(det_r * det_s)
    return min(max(f, 0.0), 1.0)


def test_bloch_fidelity_matches_matrix_form():
    rng = np.random.default_rng(5)
    r = rng.normal(size=(400, 3))
    r /= np.linalg.norm(r, axis=1, keepdims=True)
    r[:300] *= rng.uniform(size=(300, 1)) ** (1 / 3)
    s = np.roll(r, 1, axis=0)
    got = fidelity_bloch(r, s)
    want = [matrix_fidelity(bloch_to_density(a), bloch_to_density(b)) for a, b in zip(r, s)]
    # Inside the ball the two forms agree to rounding; at the surface the
    # square root of a vanishing determinant amplifies it to ~1e-8.
    assert np.max(np.abs(got[:299] - want[:299])) <= 1e-15
    assert np.max(np.abs(got[299:] - want[299:])) <= 1e-7


@st.composite
def record_batches(draw, n_axes=None):
    n_axes = n_axes or draw(st.integers(3, 6))
    rows = draw(st.integers(1, 3))
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    axes = np.array(draw(st.lists(st.lists(st.tuples(unit, unit, unit), min_size=n_axes,
                                           max_size=n_axes), min_size=rows, max_size=rows)))
    norms = np.linalg.norm(axes, axis=-1, keepdims=True)
    axes = np.where(norms > 1e-3, axes / np.where(norms > 0, norms, 1.0), [0.0, 0.0, 1.0])
    return (axes,) + draw_counts(draw, n_axes, rows)


def draw_counts(draw, n_axes, rows):
    """Shots shared by the rows and +1 counts (rows, n_axes) of a batch."""
    # Shots up to 1e10, and settings whose counts are 0 or N: the hedged
    # weight of such a setting is about 2 N^2, so a batch can mix weights
    # from 4 to 2e20.
    shots = draw(st.lists(st.one_of(st.integers(1, 10**6), st.integers(1, 10**10)),
                          min_size=n_axes, max_size=n_axes))
    fractions = draw(st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0])),
                              min_size=rows * n_axes, max_size=rows * n_axes))
    n_plus = np.array([round(f * n) for f, n in zip(fractions, shots * rows)]).reshape(rows, -1)
    return shots, n_plus


# Bloch vectors whose mub_axes triplets the frame batches measure: any radius
# from 0 to 1, near the poles, and the exact corners (the centre, the z axis).
_FRAME_STATES = st.one_of(st.tuples(_DIRECTIONS, st.floats(0.0, 1.0)).map(lambda t: t[0] * t[1]),
                          _NEAR_POLE, _EXACT)


@st.composite
def frame_batches(draw, repeat=None):
    """Batches like ``record_batches`` on three orthonormal axes per row, the
    frames that static, known-basis and preliminary fits measure: the Pauli
    axes in order, signed and permuted, or a ``mub_axes`` triplet.  Maybe
    one axis of each row is measured twice, in any position, so that the
    row keeps three of its four settings once they are merged."""
    rows = draw(st.integers(1, 3))
    axes = []
    for _ in range(rows):
        kind = draw(st.sampled_from(["pauli", "signed", "mub"]))
        if kind == "mub":
            axes.append(mub_axes(draw(_FRAME_STATES)[None])[0])
            continue
        order = draw(st.permutations(range(3))) if kind == "signed" else [0, 1, 2]
        signs = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=3, max_size=3)
                     if kind == "signed" else st.just([1.0] * 3))
        axes.append(np.array(PAULI_AXES)[order] * np.array(signs)[:, None])
    axes = np.array(axes)
    if draw(st.booleans()) if repeat is None else repeat:
        settings = draw(st.permutations([0, 1, 2, draw(st.integers(0, 2))]))
        axes = axes[:, settings]
    return (axes,) + draw_counts(draw, axes.shape[1], rows)


@contextlib.contextmanager
def frame_fits_only(axes):
    """Fails a fit that reaches the general (Gram-Schmidt and Jacobi) path,
    when the rows have three settings: a frame is three settings, so a row
    with a repeated axis takes the general path."""
    def general(*args):
        raise AssertionError("a frame row took the general path")
    if axes.shape[1] != 3:
        yield
        return
    with unittest.mock.patch.object(estimation, "_fit_general", general):
        yield


@contextlib.contextmanager
def fit_paths():
    """The fit path, ``_fit_frame`` or ``_fit_general``, that each
    ``mle_batch`` call reaches, in call order."""
    paths = []
    with contextlib.ExitStack() as stack:
        for name in ("_fit_frame", "_fit_general"):
            def spy(*args, name=name, fit=getattr(estimation, name)):
                paths.append(name)
                return fit(*args)
            stack.enter_context(unittest.mock.patch.object(estimation, name, spy))
        yield paths


def merged_weights(axes, shots, n_plus):
    """Axes, shots, +1 counts and hedged weights N / (ft (1 - ft)) of the
    records with repeated axes merged, as the fits define them.  1 - ft is
    formed from the counts, so that weights near 2 N^2 keep their digits."""
    merged = merge_records(CountRecord(a, a, n, int(p)) for a, n, p in zip(axes, shots, n_plus))
    axes = np.array([a for a, _, _ in merged])
    shots, plus = np.array([[n, p] for _, n, p in merged], dtype=float).T
    return axes, shots, plus, shots * (shots + 1.0) ** 2 / ((plus + 0.5) * (shots - plus + 0.5))


def merged_objective(points, axes, shots, n_plus):
    """The hedged objective and its gradient at each of ``points``, and the
    condition number of the weighted design sqrt(w) axes."""
    axes, shots, plus, weights = merged_weights(axes, shots, n_plus)
    residuals = 0.5 * (1.0 + points @ axes.T) - plus / shots
    return (np.sum(weights * residuals**2, axis=1), (weights * residuals) @ axes,
            np.linalg.cond(np.sqrt(weights)[:, None] * axes))


def reference_fit(axes, shots, n_plus):
    """The minimiser of one record set's hedged objective over the Bloch
    ball, computed in 50-digit arithmetic from the merged records; None
    where their axes do not span Bloch space (unweighted Gram determinant at
    most 1e-9, the estimator's own limit).

    The normal equations A r = b are solved in the eigenbasis of A, where
    (A + mu I) r = b has coordinates t_i = beta_i / (lam_i + mu).  A solution
    outside the ball moves to the surface by Newton's method on
    1/|t(mu)| - 1: that function of mu is concave and increasing, so the
    iterates climb to the root from below, and |t| is at most 1 once
    mu >= |beta|.
    """
    merged = merge_records(CountRecord(a, a, n, int(p)) for a, n, p in zip(axes, shots, n_plus))
    with mpmath.workdps(50):
        a_mat, b_vec, gram = mpmath.zeros(3, 3), mpmath.zeros(3, 1), mpmath.zeros(3, 3)
        for axis, n, p in merged:
            a = [mpmath.mpf(x) for x in axis]
            n, p = mpmath.mpf(int(n)), mpmath.mpf(int(p))
            w = n * (n + 1) ** 2 / ((p + 0.5) * (n - p + 0.5))
            a_mat += mpmath.matrix([[w * x * y for y in a] for x in a])
            b_vec += mpmath.matrix([w * (2 * p - n) / n * x for x in a])
            gram += mpmath.matrix([[x * y for y in a] for x in a])
        if mpmath.det(gram) <= 1e-9:
            return None
        lam, q = mpmath.eigsy(a_mat)
        lam, beta = list(lam), list(q.T * b_vec)

        def moment(mu, power):
            return sum(b * b / (x + mu) ** power for x, b in zip(lam, beta))

        mu = 0
        if moment(mu, 2) > 1:
            # |beta_i| / (lam_i + mu) <= 1 at the root, for every i.
            mu = max(0, max(abs(b) - x for x, b in zip(lam, beta)))
            hi = mu + mpmath.norm(beta)
            step = hi
            while step > 1e-40 * mu:
                # Newton's step on S^(-1/2) - 1, with S = |t|^2 and dS/dmu = -2 moment(mu, 3).
                radius2 = moment(mu, 2)
                step = (radius2 * mpmath.sqrt(radius2) - radius2) / moment(mu, 3)
                mu = min(mu + step, hi)
        t = mpmath.matrix([b / (x + mu) for x, b in zip(lam, beta)])
        return np.array([float(x) for x in q * t])


def reference_fits_or_error(axes, shots, n_plus):
    """``reference_fit`` of each row, or None where a row's axes do not span."""
    fits = [reference_fit(axes[k], shots, n_plus[k]) for k in range(len(n_plus))]
    return None if any(fit is None for fit in fits) else fits


def assert_fits_match_reference(got, expected, axes, shots, n_plus):
    for k, want in enumerate(expected):
        values, _, cond = merged_objective(np.array([got[k], want]), axes[k], shots, n_plus[k])
        # The batched fit is feasible and as good as the optimum.
        assert np.linalg.norm(got[k]) <= 1.0 + 1e-12
        assert values[0] <= values[1] + 1e-9 * (1.0 + values[1])
        # The fits are accurate to about eps * cond(D) for the weighted
        # design D (at most 37 eps cond(D) on 800 random sets with up to
        # 1e10 shots): 1e-8 up to cond(D) = 1.8e5, 256 eps cond(D) beyond.
        tolerance = max(1e-8, 256 * np.finfo(float).eps * cond)
        assert np.max(np.abs(got[k] - want)) <= tolerance, (k, cond)


def per_row(axes, n_plus):
    """A design as per-row axes (R, M, 3): a shared (M, 3) design broadcast."""
    return axes if axes.ndim == 3 else np.broadcast_to(axes, (len(n_plus),) + axes.shape)


def check_fits_match_reference(axes, shots, n_plus):
    # The maximum-likelihood estimate, computed to 50 digits.
    rows = per_row(axes, n_plus)
    expected = reference_fits_or_error(rows, shots, n_plus)
    if expected is None:
        with pytest.raises(UnderdeterminedError):
            mle_batch(axes, shots, n_plus)
        return
    assert_fits_match_reference(mle_batch(axes, shots, n_plus), expected, rows, shots, n_plus)


@settings(settings.get_profile("engine"))
@given(record_batches())
def test_batched_final_fit_matches_mle(batch):
    check_fits_match_reference(*batch)


@settings(settings.get_profile("engine"))
@given(frame_batches())
def test_frame_fits_match_mle(batch):
    # Each row's frame as a one-row shared design, the design that is a frame.
    axes, shots, n_plus = batch
    with frame_fits_only(axes):
        for k in range(len(n_plus)):
            check_fits_match_reference(axes[k], shots, n_plus[k:k + 1])


def test_a_near_frame_takes_the_general_path():
    # A shared design of three settings whose Gram matrix is off the identity
    # by 1e-10: fitted in its own coordinates as if it were a frame, each fit
    # would move by about 1e-10.  One row is inside the ball, one outside.
    design = np.array([[1.0, 0.0, 0.0], [1e-10, 1.0, 0.0], [0.0, 0.0, 1.0]])
    design /= np.linalg.norm(design, axis=1, keepdims=True)
    shots = [10**6] * 3
    n_plus = np.array([[700_000, 350_000, 750_000], [123_456, 876_543, 500_000]])
    fits = mle_batch(design, shots, n_plus)
    for fit, counts in zip(fits, n_plus):
        assert np.max(np.abs(fit - reference_fit(design, shots, counts))) <= 1e-12


def test_reduced_adaptive_at_the_default_cap_fits_every_row():
    # At N = 2e7 the adapted axis carries counts of 0 or N and hedged
    # weights near 8e14; every row's fit stays in the ball.
    batch = run_grid(ReducedAdaptive(0.5), EQ7_BLOCH, (2 * 10**7,), NoError(),
                     RngContext(0), 4000)
    assert np.all(np.linalg.norm(batch.bloch_hat, axis=1) <= 1.0 + 1e-12)


@pytest.mark.parametrize("protocol", [Static(), KnownBasis(), Adaptive(0.5), ReducedAdaptive(0.5)],
                         ids=repr)
@pytest.mark.parametrize("n, tolerance", [(2 * 10**7, 1e-8), (2 * 10**9, 1e-6)])
def test_large_n_fits_match_the_reference(protocol, n, tolerance):
    batch = run_grid(protocol, EQ7_BLOCH, (n,), NoError(), RngContext(0), 40)
    shots = sum(_shot_plan(protocol, n), [])
    for axes, counts, fit in zip(batch.axes, batch.n_plus, batch.bloch_hat):
        assert np.max(np.abs(fit - reference_fit(axes, shots, counts))) <= tolerance


def local_grid_clipped_to_ball(center):
    """``center`` and the points 1e-2, 1e-4 and 1e-6 away from it along the
    26 grid directions, radially projected into the Bloch ball."""
    steps = np.array(np.meshgrid(*[(-1.0, 0.0, 1.0)] * 3, indexing="ij")).reshape(3, -1).T
    points = center + np.concatenate([h * steps for h in (1e-2, 1e-4, 1e-6)])
    return points / np.maximum(1.0, np.linalg.norm(points, axis=1, keepdims=True))


def check_fits_beat_a_local_grid(axes, shots, n_plus):
    # Both the batch and ``mle`` on each row's records, which fits them
    # merged and in canonical order.
    rows = per_row(axes, n_plus)
    try:
        scalar = [density_to_bloch(mle([CountRecord(a, a, n, int(p)) for a, n, p
                                        in zip(rows[k], shots, n_plus[k])]).rho)
                  for k in range(len(n_plus))]
    except UnderdeterminedError:
        return
    for k, fits in enumerate(zip(mle_batch(axes, shots, n_plus), scalar)):
        for r in fits:
            assert np.linalg.norm(r) <= 1.0 + 1e-12
            values, gradients, _ = merged_objective(
                np.vstack([r, local_grid_clipped_to_ball(r)]), rows[k], shots, n_plus[k])
            # Both fits stop within 1e-13 of the surface, which costs up to
            # |gradient| * 1e-13 where counts of 0 or N weight an axis by up
            # to 2e20.
            slack = 1e-9 * (1.0 + values[0]) + 1e-12 * np.linalg.norm(gradients[0])
            assert values[0] <= values[1:].min() + slack


@settings(settings.get_profile("engine"))
@given(record_batches())
def test_fits_stay_in_the_ball_and_beat_a_local_grid(batch):
    check_fits_beat_a_local_grid(*batch)


@settings(settings.get_profile("engine"))
@given(frame_batches())
def test_frame_fits_stay_in_the_ball_and_beat_a_local_grid(batch):
    # Each row's frame as a one-row shared design, the design that is a frame.
    axes, shots, n_plus = batch
    with frame_fits_only(axes):
        for k in range(len(n_plus)):
            check_fits_beat_a_local_grid(axes[k], shots, n_plus[k:k + 1])


@st.composite
def split_and_shuffled(draw):
    """A batch, and the same batch with one setting split into two records
    on its axis (n1 + n2 = n shots, p1 + p2 = p counts) and the settings
    shuffled."""
    axes, shots, n_plus = draw(record_batches())
    m = draw(st.integers(0, len(shots) - 1))
    assume(shots[m] >= 2)
    n1 = draw(st.integers(1, shots[m] - 1))
    p1 = np.array([draw(st.integers(max(0, p - (shots[m] - n1)), min(p, n1)))
                   for p in n_plus[:, m]])
    split_shots = shots[:m] + [n1] + shots[m + 1:] + [shots[m] - n1]
    split_plus = np.column_stack([n_plus, n_plus[:, m] - p1])
    split_plus[:, m] = p1
    order = draw(st.permutations(range(len(split_shots))))
    split_axes = np.concatenate([axes, axes[:, m:m + 1]], axis=1)[:, order]
    return (axes, shots, n_plus), (split_axes, [split_shots[i] for i in order],
                                   split_plus[:, order])


@settings(settings.get_profile("engine"))
@given(split_and_shuffled())
def test_final_fit_is_merge_and_permutation_invariant(batches):
    (axes, shots, n_plus), split = batches
    expected = reference_fits_or_error(axes, shots, n_plus)
    if expected is None:
        with pytest.raises(UnderdeterminedError):
            mle_batch(*split)
        return
    assert_fits_match_reference(mle_batch(*split), expected, axes, shots, n_plus)


@pytest.mark.parametrize("z_repeat", [(0.0, 0.0, 1.0), (-0.0, -0.0, 1.0)],
                         ids=["same-bits", "signed-zero"])
def test_final_fit_merges_repeated_axes_like_mle(z_repeat):
    # An adapted triplet yields (-0.0, -0.0, 1.0) where the preliminary fit's
    # transverse components are exactly 0; it repeats Pauli z as a float.
    axes = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], z_repeat])
    shots, n_plus = [50, 50, 40, 60], np.array([[45, 20, 39, 58]])
    records = [CountRecord(np.array(a), np.array(a), n, int(p))
               for a, n, p in zip(axes, shots, n_plus[0])]
    want = density_to_bloch(mle(records).rho)
    assert np.max(np.abs(mle_batch(axes, shots, n_plus)[0] - want)) <= 1e-15


@st.composite
def stackable_batches(draw):
    n_axes = draw(st.integers(3, 5))
    batches = []
    for _ in range(draw(st.integers(2, 3))):
        axes, shots, n_plus = draw(record_batches(n_axes))
        if draw(st.booleans()):
            # A repeated axis: the row merges the two settings.
            axes[0, 1] = axes[0, 0]
        batches.append((axes, shots, n_plus))
    return batches


def check_stack_matches_separate_fits(batches):
    separate = []
    for axes, shots, n_plus in batches:
        try:
            separate.append(mle_batch(axes, shots, n_plus))
        except UnderdeterminedError as exc:
            separate.append(exc)
    axes = np.concatenate([axes for axes, _, _ in batches])
    shots = np.concatenate([np.broadcast_to(shots, n_plus.shape)
                            for _, shots, n_plus in batches]).T
    n_plus = np.concatenate([n_plus for _, _, n_plus in batches])
    failed = [result for result in separate if isinstance(result, Exception)]
    if failed:
        with pytest.raises(UnderdeterminedError, match=re.escape(str(failed[0]))):
            mle_batch(axes, list(shots), n_plus)
        return
    assert np.array_equal(mle_batch(axes, list(shots), n_plus), np.concatenate(separate))


@settings(settings.get_profile("engine"))
@given(stackable_batches())
def test_per_row_shots_match_separate_fits(batches):
    check_stack_matches_separate_fits(batches)


@st.composite
def frame_and_other_batches(draw):
    """A frame batch and a batch on as many random axes (three, or four with
    one repeated frame axis), and maybe one more of either, in any order: a
    stack that mixes frame and general rows."""
    repeat = draw(st.booleans())
    frames, others = frame_batches(repeat), record_batches(4 if repeat else 3)
    batches = [draw(frames), draw(others)]
    batches += draw(st.lists(st.one_of(frames, others), max_size=1))
    return [batches[i] for i in draw(st.permutations(range(len(batches))))]


@settings(settings.get_profile("engine"))
@given(frame_and_other_batches())
def test_frame_and_general_rows_stack_bit_for_bit(batches):
    check_stack_matches_separate_fits(batches)


def fits_or_error(axes, shots, n_plus):
    try:
        return mle_batch(axes, shots, n_plus)
    except UnderdeterminedError as exc:
        return str(exc)


@settings(settings.get_profile("engine"))
@given(st.one_of(frame_batches(), record_batches()), st.booleans())
def test_shared_design_matches_its_broadcast(batch, repeat):
    # Row 0's axes, maybe with a repeated axis, shared by every row.
    axes, shots, n_plus = batch
    design = axes[0].copy()
    if repeat:
        design[1] = design[0]
    with fit_paths() as paths:
        shared = fits_or_error(design, shots, n_plus)
        broadcast = fits_or_error(per_row(design, n_plus), shots, n_plus)
    if (len(design) == 3 and np.abs(design.T @ design - np.eye(3)).max() <= 1e-14
            and not np.array_equal(design, PAULI_AXES)):
        # Only a shared design is a frame; on other than the Pauli axes in
        # order the general path's arithmetic differs in the last digits.
        assert paths == ["_fit_frame", "_fit_general"]
    elif isinstance(shared, str):
        assert shared == broadcast
    else:
        assert np.array_equal(shared, broadcast)


@pytest.mark.parametrize("model", [NoError(), PerSettingError(0.01), FixedError(0.01)], ids=repr)
def test_campaigns_fit_frames_as_shared_designs(model):
    # The traffic that mle_batch's one rule relies on: every three-setting
    # fit of a campaign (static, known-basis, preliminary) is one shared
    # design that reaches the frame path, and every per-row design is a
    # two-phase final fit of 4 or 6 settings.  On the Pauli axes the general
    # path gives the same bits, only slower, so the golden outputs would not
    # see a three-setting fit take it.
    designs = []

    def recording(axes, shots, n_plus):
        designs.append(np.shape(axes))
        return mle_batch(axes, shots, n_plus)

    with fit_paths() as paths, unittest.mock.patch.object(protocols, "mle_batch", recording):
        for protocol in (Static(), Adaptive(0.5), AdaptivePow(), ReducedAdaptive(0.5),
                         KnownBasis()):
            run_campaign(CampaignSpec(protocol, EQ7_BLOCH, (30, 300), reps=2, error_model=model,
                                      seed=SEED))
    assert len(designs) == len(paths) == 8
    for shape, path in zip(designs, paths):
        if shape[-2] == 3:
            assert (shape, path) == ((3, 3), "_fit_frame")
        else:
            assert (len(shape), path) == (3, "_fit_general") and shape[1] in (4, 6), shape


def test_four_axes_with_an_identity_gram_are_not_a_frame():
    # Half the tetrahedron's vertices (+-1, +-1, +-1): four axes of length
    # sqrt(3) / 2 whose Gram matrix is exactly the identity.  The fit is the
    # interior least-squares solution on all four.
    axes = 0.5 * np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0],
                           [-1.0, -1.0, 1.0]])
    assert np.array_equal(axes.T @ axes, np.eye(3))
    shots, n_plus = np.array([100, 100, 100, 100]), np.array([60, 45, 52, 43])
    sqrt_w = np.sqrt(shots * (shots + 1.0) ** 2 / ((n_plus + 0.5) * (shots - n_plus + 0.5)))
    want = np.linalg.lstsq(sqrt_w[:, None] * axes, sqrt_w * (2.0 * n_plus / shots - 1.0),
                           rcond=None)[0]
    assert np.linalg.norm(want) < 1.0
    assert np.max(np.abs(mle_batch(axes, shots, n_plus[None])[0] - want)) <= 1e-14


@pytest.mark.parametrize("design", [
    [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]],
    [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [math.sqrt(0.5), math.sqrt(0.5), 0.0], [0.0, 1.0, 0.0]],
], ids=["repeat-leaves-two-axes", "coplanar"])
def test_shared_rank_deficient_design_raises(design):
    n_plus = np.array([[3, 5, 7] + [2] * (len(design) - 3), [9, 1, 4] + [6] * (len(design) - 3)])
    with pytest.raises(UnderdeterminedError, match=r"unconstrained direction ~ \(0.000000, "
                                                   r"0.000000, [-+]?1.000000\)"):
        mle_batch(np.array(design), [10] * len(design), n_plus)


def jacobi_of(r_mats, c):
    """``estimation._jacobi_svd`` of a stack of 3 x 3 matrices R (n, 3, 3) and
    data c (n, 3), with its results in the same row-major layout: lam (n, 3),
    q (n, 3, 3) with the basis vectors as columns, beta (n, 3)."""
    lam, q, beta = estimation._jacobi_svd(np.array(r_mats).transpose(2, 1, 0), np.array(c).T)
    return lam.T, q.transpose(2, 1, 0), beta.T


@settings(settings.get_profile("engine"))
@given(record_batches())
def test_surface_factorisation_matches_lapack(batch):
    # R and c of [D | y] for each row's merged records, factored by LAPACK,
    # where the axes span Bloch space as the estimator requires.
    axes, shots, n_plus = batch
    r_mats, cs = [], []
    for k in range(len(n_plus)):
        merged_axes, merged_shots, plus, weights = merged_weights(axes[k], shots, n_plus[k])
        if np.prod(np.linalg.eigvalsh(merged_axes.T @ merged_axes)) <= 1e-9:
            continue
        design = np.sqrt(weights)[:, None] * np.column_stack(
            [merged_axes, 2.0 * plus / merged_shots - 1.0])
        r_full = np.linalg.qr(design, mode="r")
        r_mats.append(r_full[:3, :3])
        cs.append(r_full[:3, 3])
    assume(r_mats)
    lam, q, beta = jacobi_of(r_mats, cs)
    # Normwise agreement, relative to the largest singular value s_1 of R:
    # at most 8.3 eps on 4 000 random sets, hence the bound of 32 eps.
    tolerance = 32 * np.finfo(float).eps
    for r_mat, c, lam_k, q_k, beta_k in zip(r_mats, cs, lam, q, beta):
        s = np.linalg.svd(r_mat, compute_uv=False)
        scale = s[0] ** 2
        assert np.max(np.abs(np.sort(lam_k)[::-1] - s * s)) <= tolerance * scale
        assert np.max(np.abs(q_k.T @ q_k - np.eye(3))) <= tolerance
        assert np.max(np.abs(q_k * lam_k @ q_k.T - r_mat.T @ r_mat)) <= tolerance * scale
        assert (np.max(np.abs(q_k @ beta_k - r_mat.T @ c))
                <= tolerance * s[0] * np.linalg.norm(c))


def test_surface_factorisation_is_exact_on_a_diagonal_r():
    # A diagonal R (orthogonal columns of D) takes no rotation: the
    # factorisation is exact.
    d, c = np.array([3.0, 1e-5, 7e8]), np.array([0.1, -2.0, 5e3])
    lam, q, beta = jacobi_of([np.diag(d)], [c])
    assert np.array_equal(lam[0], d * d)
    assert np.array_equal(q[0], np.eye(3))
    assert np.array_equal(beta[0], d * c)


@pytest.mark.parametrize("r_mat", [
    # An off-diagonal too small to rotate.
    [[2.0, 1e-300, 0.0], [0.0, 3.0, 0.0], [0.0, 0.0, 5.0]],
    # A pair that rotates although (|x|^2 - |y|^2) / (2 x . y) is about 5e214.
    [[1e-100, 1e86, 0.0], [0.0, 1e100, 0.0], [0.0, 0.0, 1.0]],
], ids=["tiny-off-diagonal", "huge-column-ratio"])
def test_surface_factorisation_raises_no_warning_near_diagonal(r_mat):
    r_mat, c = np.array(r_mat), np.array([1.0, -1.0, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lam, q, beta = jacobi_of([r_mat], [c])
    s = np.linalg.svd(r_mat, compute_uv=False)
    assert np.allclose(np.sort(lam[0])[::-1], s * s, rtol=0.0, atol=1e-15 * s[0] ** 2)
    assert np.allclose(q[0].T @ q[0], np.eye(3), rtol=0.0, atol=1e-15)
    assert np.allclose(q[0] @ beta[0], r_mat.T @ c, rtol=1e-15, atol=0.0)


def test_zero_and_many_sweep_rows_stack_bit_for_bit():
    # A surface row on Pauli axes measured twice (merged into a frame row,
    # which takes no Gram-Schmidt or Jacobi) beside surface rows of adapted
    # final fits at N = 1e2, 1e4 and 2e9 (full R: several Jacobi sweeps), as
    # separate calls and stacked.  The rows also take 2 to 6
    # Newton steps; one that converges first keeps its multiplier while the
    # others iterate.
    protocol = Adaptive(0.5)
    axes, shots, n_plus = [], [], []
    for n in (10**2, 10**4, 2 * 10**9):
        batch = run_grid(protocol, EQ7_BLOCH, (n,), NoError(), RngContext(0), 6)
        axes.append(batch.axes)
        shots.append(np.tile(sum(_shot_plan(protocol, n), []), (6, 1)))
        n_plus.append(batch.n_plus)
    pauli_shots = np.array(sum(_shot_plan(protocol, 10**4), []))
    axes.append(np.concatenate([PAULI_AXES, PAULI_AXES])[None])
    shots.append(pauli_shots[None])
    n_plus.append((pauli_shots * np.array([1, 0, 1, 1, 0, 1]) + np.array([0, 7, 0, 0, 9, 0]))[None])
    axes, shots, n_plus = np.concatenate(axes), np.concatenate(shots), np.concatenate(n_plus)
    separate = np.concatenate([mle_batch(axes[k], list(shots[k]), n_plus[k:k + 1])
                               for k in range(len(n_plus))])
    on_surface = np.abs(np.linalg.norm(separate, axis=1) - 1.0) <= 1e-12
    assert on_surface[-1] and all(on_surface[k:k + 6].any() for k in (0, 6, 12))
    assert np.array_equal(mle_batch(axes, list(shots.T), n_plus), separate)


@pytest.mark.parametrize("cap, message", [
    ("_NEWTON_MAX_ITER", r"1 of 1 rows after 0 iterations \(largest \|\|t\| - 1\| [\d.e+-]+\)"),
    ("_JACOBI_MAX_SWEEPS",
     r"left 1 of 1 rows with non-orthogonal columns after 0 sweeps \(largest cosine [\d.e+-]+\)"),
])
def test_surface_solve_failure_names_its_rows(monkeypatch, cap, message):
    # One adapted final-fit row on the surface, with the named cap at 0.
    protocol, n = Adaptive(0.5), 10**4
    batch = run_grid(protocol, EQ7_BLOCH, (n,), NoError(), RngContext(0), 1)
    monkeypatch.setattr(estimation, cap, 0)
    with pytest.raises(RuntimeError,
                       match="^boundary Newton iteration did not converge: .*" + message):
        mle_batch(batch.axes[0], sum(_shot_plan(protocol, n), []), batch.n_plus)


def test_repeated_axes_merge_in_one_step_like_one_row_calls_and_mle():
    # One row without a repeat beside four rows with repeats, all on the
    # Pauli axes then three more: a pole-frame adapted triplet (each axis
    # repeats a Pauli axis), the triplet of a preliminary estimate with a
    # zero x component (its third axis is (1, -0, 0), Pauli x), z repeated
    # with signed zeros, and z appearing three times.
    generic = mub_axes(np.array([[0.3, -0.5, 0.6]]))[0]
    extra = np.stack([
        generic,
        mub_axes(np.array([[0.0, 0.0, 0.9]]))[0],
        mub_axes(np.array([[0.0, 0.4, 0.7]]))[0],
        [[-0.0, -0.0, 1.0], generic[0], generic[1]],
        [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], generic[2]],
    ])
    axes = np.concatenate([np.broadcast_to(PAULI_AXES, extra.shape), extra], axis=1)
    repeats = [sum(any(np.array_equal(a, b) for b in row[:m]) for m, a in enumerate(row))
               for row in axes]
    assert repeats == [0, 3, 1, 1, 2]
    shots = [40, 40, 40, 60, 60, 60]
    p = 0.5 * (1.0 + axes @ np.array(EQ7_BLOCH))
    n_plus = np.random.default_rng(5).binomial(shots, p)
    separate = np.concatenate([mle_batch(axes[k], shots, n_plus[k:k + 1])
                               for k in range(len(axes))])
    assert np.array_equal(mle_batch(axes, shots, n_plus), separate)
    for row, counts, fit in zip(axes, n_plus, separate):
        records = [CountRecord(a, a, n, int(c)) for a, n, c in zip(row, shots, counts)]
        assert np.max(np.abs(fit - density_to_bloch(mle(records).rho))) <= 1e-15
    # The pole-frame row fits bit for bit as its settings merged onto the
    # three Pauli axes in order.
    on_axis = [np.flatnonzero((axes[1] == a).all(axis=1)) for a in PAULI_AXES]
    merged = mle_batch(np.array(PAULI_AXES), [sum(shots[m] for m in ms) for ms in on_axis],
                       np.array([[n_plus[1, ms].sum() for ms in on_axis]]))
    assert np.array_equal(separate[1:2], merged)
