"""The batched campaign engine against the scalar reference path.

``protocols.run_batch`` simulates all repetitions of a grid point as arrays,
drawing every random number from the streams its docstring declares.  The
reference below redraws those numbers one scalar call at a time from the same
streams, perturbs each axis with the scalar routines and requires identical
counts; on those counts the scalar ``mle``, ``mub_triplet`` and ``fidelity``
must reproduce the batch's adapted axes, estimates and infidelities up to
the rounding of the batched fits.  A campaign's grid pass
(``protocols.run_grid``) must give, block by block, exactly the rows of
``run_batch`` at each grid point, and ``run_protocol`` exactly its
one-repetition batch.
"""
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from adaptive_tomo import (
    MOUNT_TO_BLOCH_ANGLE,
    Adaptive,
    AdaptivePow,
    BudgetError,
    CampaignSpec,
    CountRecord,
    FixedError,
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
    mle,
    mub_triplet,
    run_campaign,
    run_protocol,
)
from adaptive_tomo.estimation import mle_batch
from adaptive_tomo.fixtures import EQ7_BLOCH
from adaptive_tomo.measurement import (
    _ALIGN_STREAM,
    _COUNT_STREAM,
    _perp_basis,
    _realized_axis,
    _rotate,
)
from adaptive_tomo.protocols import _shot_plan, run_batch, run_grid
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


def reference_realized_axes(model, rng, axes):
    """Realized axes of ``axes`` (reps, M, 3), with every misalignment drawn
    by a scalar call from the declared stream, in C order."""
    reps, m = axes.shape[:2]
    if model.magnitude == 0.0 or model.draws_per is None:
        return [[_realized_axis(axes[j, s], model, j, s, rng) for s in range(m)]
                for j in range(reps)]
    width = m if model.draws_per == "setting" else 1
    gen = rng.child(_ALIGN_STREAM).generator()
    normal = [[gen.standard_normal() for _ in range(width)] for _ in range(reps)]
    chi = [[gen.uniform(0.0, 2.0 * math.pi) for _ in range(width)] for _ in range(reps)]
    out = []
    for j in range(reps):
        row = []
        for s in range(m):
            k = s if width > 1 else 0
            e1, e2 = _perp_basis(axes[j, s])
            rot_axis = e1 * math.cos(chi[j][k]) + e2 * math.sin(chi[j][k])
            delta = normal[j][k] * model.magnitude
            row.append(_rotate(axes[j, s], rot_axis, MOUNT_TO_BLOCH_ANGLE * delta))
        out.append(row)
    return out


def check_against_reference(protocol, rho, n, model, rng, reps):
    """Run one grid point and check it against the scalar reference; returns
    the batch, or None where both paths raise the same BudgetError."""
    try:
        batch = run_batch(protocol, rho, n, model, rng, reps)
    except BudgetError as exc:
        with pytest.raises(BudgetError, match=re.escape(str(exc))):
            run_protocol(protocol, rho, n, model, rng.child(0))
        return None
    shots = sum(_shot_plan(protocol, n), [])
    realized = reference_realized_axes(model, rng, batch.axes)
    counts = np.empty((reps, len(shots)), dtype=np.int64)
    for phase, settings_ in enumerate((range(3), range(3, len(shots)))):
        gen = rng.child(_COUNT_STREAM, phase).generator()
        for j in range(reps):
            for s in settings_:
                counts[j, s] = gen.binomial(shots[s], born_probability(rho, realized[j][s]))
    where = f"{protocol} {model} {density_to_bloch(rho)} N={n}"
    assert np.array_equal(batch.realized, np.array(realized)), where
    assert np.array_equal(batch.n_plus, counts), where
    for j in range(reps):
        records = [CountRecord(batch.axes[j, s], realized[j][s], shots[s], int(counts[j, s]))
                   for s in range(len(shots))]
        if len(shots) > 3:
            triplet = mub_triplet(eigendecompose(mle(records[:3]).rho)).axes
            assert np.max(np.abs(batch.axes[j, 3:] - triplet[:len(shots) - 3])) <= 1e-8, where
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
                    checked += check_against_reference(protocol, rho, n, model, rng,
                                                       REPS) is not None
    assert checked > 0


def test_campaign_reduces_the_reference_runs():
    spec = CampaignSpec(Adaptive(0.5), EQ7_BLOCH, (90, 300), reps=4, seed=SEED,
                        error_model=PerSettingError(0.01))
    result = run_campaign(spec)
    label = int(campaign_hash(spec)[:16], 16)
    rho = bloch_to_density(EQ7_BLOCH)
    for i, row in enumerate(result.rows):
        batch = check_against_reference(spec.protocol, rho, row.n, spec.error_model,
                                        RngContext(SEED, (label, i)), spec.reps)
        assert row.mean_infidelity == float(np.mean(batch.infidelity))
        assert row.stderr == float(np.std(batch.infidelity, ddof=1) / math.sqrt(spec.reps))


@pytest.mark.parametrize("protocol", PROTOCOLS, ids=repr)
def test_run_protocol_is_the_one_rep_batch(protocol):
    checked = 0
    for model in MODELS:
        for state in STATES:
            rho = bloch_to_density(state)
            for i, n in enumerate((7, 300)):
                rng = RngContext(SEED, (LABEL, i))
                try:
                    batch = run_batch(protocol, rho, n, model, rng, 1)
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
                assert result.total_shots == n, where
                checked += 1
    assert checked > 0


def batch_or_error(protocol, rho, n, model, rng):
    try:
        return run_batch(protocol, rho, n, model, rng, REPS)
    except BudgetError as exc:
        return str(exc)


@pytest.mark.parametrize("protocol", PROTOCOLS, ids=repr)
def test_grid_pass_matches_per_point_batches(protocol):
    checked = 0
    for model in MODELS:
        for state in STATES:
            rho = bloch_to_density(state)
            for grid in GRIDS:
                rngs = [RngContext(SEED, (LABEL, g)) for g in range(len(grid))]
                points = [batch_or_error(protocol, rho, n, model, rng)
                          for n, rng in zip(grid, rngs)]
                errors = [point for point in points if isinstance(point, str)]
                if errors:
                    with pytest.raises(BudgetError, match=re.escape(errors[0])):
                        run_grid(protocol, rho, grid, model, rngs, REPS)
                # The grid points that do run, with the streams they own.
                good = [g for g, point in enumerate(points) if not isinstance(point, str)]
                if not good:
                    continue
                stacked = run_grid(protocol, rho, [grid[g] for g in good], model,
                                   [rngs[g] for g in good], REPS)
                for block, g in enumerate(good):
                    rows = slice(block * REPS, (block + 1) * REPS)
                    for field in ("axes", "n_plus", "bloch_hat", "infidelity"):
                        assert np.array_equal(getattr(stacked, field)[rows],
                                              getattr(points[g], field)), (
                            f"{field} {model} {state} N={grid[g]}")
                    checked += 1
    assert checked > 0


@settings(settings.get_profile("engine"))
@given(n=st.integers(6, 10**6), alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       exponent=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_shot_plans_spend_the_budget_or_raise(n, alpha, exponent):
    rho = bloch_to_density(EQ7_BLOCH)
    for protocol in (Static(), Adaptive(alpha), AdaptivePow(exponent), ReducedAdaptive(alpha),
                     KnownBasis()):
        try:
            shots1, shots2 = _shot_plan(protocol, n)
        except BudgetError as exc:
            # The grid pass checks every plan before it draws.
            with pytest.raises(BudgetError, match=re.escape(str(exc))):
                run_grid(protocol, rho, (n, 2 * n), NoError(), [RngContext(SEED)] * 2, REPS)
            continue
        assert sum(shots1) + sum(shots2) == n
        assert len(shots1) == 3 and len(shots2) == protocol.adapted_settings
        assert min(shots1 + shots2) >= 1


@pytest.mark.parametrize("seed", [0, 1, SEED, 2**32 - 1, 2**32, 2**64 - 1, -5])
@pytest.mark.parametrize("label", [0, 7, 2**32 - 1, 2**32, LABEL, 2**64 - 1])
def test_stream_states_match_seed_sequence(seed, label):
    # Each stream that run_batch declares is PCG64 seeded by numpy's
    # SeedSequence on (seed mod 2**64, campaign label, grid index, stream
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

    triggers = {
        "degenerate": [1e-10, 0.0, 0.0],
        "pole": [1e-8, 0.0, 0.9],
    }
    r = np.array(list(triggers.values()))
    for name, got, want in zip(triggers, mub_axes(r), map(scalar_axes, r)):
        assert np.array_equal(got, want), name


def _direction(v):
    v = np.asarray(v, dtype=float)
    norm = np.linalg.norm(v)
    return v / norm if norm > 1e-3 else np.array([0.0, 0.0, 1.0])


_DIRECTIONS = st.tuples(*[st.floats(-1.0, 1.0)] * 3).map(_direction)
# Corners of mub_axes: |r| around the 1e-9 threshold of the degenerate
# branch, the surface |r| = 1, directions whose transverse component
# sqrt(x^2 + y^2) lies around the 1e-6 threshold of the pole branch, and the
# points where the closed form divides by zero.
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


def test_bloch_fidelity_matches_matrix_form():
    rng = np.random.default_rng(5)
    r = rng.normal(size=(400, 3))
    r /= np.linalg.norm(r, axis=1, keepdims=True)
    r[:300] *= rng.uniform(size=(300, 1)) ** (1 / 3)
    s = np.roll(r, 1, axis=0)
    got = fidelity_bloch(r, s)
    want = [fidelity(bloch_to_density(a), bloch_to_density(b)) for a, b in zip(r, s)]
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
    shots = draw(st.lists(st.integers(1, 10**6), min_size=n_axes, max_size=n_axes))
    fractions = draw(st.lists(st.floats(0.0, 1.0), min_size=rows * n_axes,
                              max_size=rows * n_axes))
    n_plus = np.array([round(f * n) for f, n in zip(fractions, shots * rows)]).reshape(rows, -1)
    return axes, shots, n_plus


def objective(r, axes, shots, n_plus):
    f = n_plus / np.asarray(shots)
    ft = (n_plus + 0.5) / (np.asarray(shots) + 1.0)
    return float(np.sum(np.asarray(shots) * (0.5 * (1.0 + axes @ r) - f) ** 2 / (ft * (1.0 - ft))))


def scalar_fits_or_error(axes, shots, n_plus):
    """``mle`` on each row, or None where it raises UnderdeterminedError."""
    expected = []
    for k in range(len(n_plus)):
        records = [CountRecord(a, a, n, int(p)) for a, n, p in zip(axes[k], shots, n_plus[k])]
        try:
            expected.append(density_to_bloch(mle(records).rho))
        except UnderdeterminedError:
            return None
    return expected


def assert_fits_match_mle(got, expected, axes, shots, n_plus):
    for k, want in enumerate(expected):
        # The batched fit is feasible and at least as good as the scalar one.
        assert np.linalg.norm(got[k]) <= 1.0 + 1e-12
        best = objective(want, axes[k], shots, n_plus[k])
        assert objective(got[k], axes[k], shots, n_plus[k]) <= best + 1e-9 * (1.0 + best)
        # Where the normal equations are well conditioned, both solvers'
        # rounding is small and the two fits agree.  Beyond that the scalar
        # bisection on a Cramer solve carries about cond(A) * 1e-16 of error.
        weights = np.asarray(shots) / (((n_plus[k] + 0.5) / (np.asarray(shots) + 1.0))
                                       * (1.0 - (n_plus[k] + 0.5) / (np.asarray(shots) + 1.0)))
        gram = (axes[k].T * weights) @ axes[k]
        if np.linalg.cond(gram) <= 1e6:
            assert np.max(np.abs(got[k] - want)) <= 1e-8


@settings(settings.get_profile("engine"))
@given(record_batches())
def test_batched_final_fit_matches_mle(batch):
    axes, shots, n_plus = batch
    expected = scalar_fits_or_error(axes, shots, n_plus)
    if expected is None:
        with pytest.raises(UnderdeterminedError):
            mle_batch(axes, shots, n_plus)
        return
    assert_fits_match_mle(mle_batch(axes, shots, n_plus), expected, axes, shots, n_plus)


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
    expected = scalar_fits_or_error(axes, shots, n_plus)
    if expected is None:
        with pytest.raises(UnderdeterminedError):
            mle_batch(*split)
        return
    assert_fits_match_mle(mle_batch(*split), expected, axes, shots, n_plus)


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
            # A repeated axis sends the row through the scalar mle.
            axes[0, 1] = axes[0, 0]
        batches.append((axes, shots, n_plus))
    return batches


@settings(settings.get_profile("engine"))
@given(stackable_batches())
def test_per_row_shots_match_separate_fits(batches):
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
