import ctypes
import os
import subprocess
import sys
import types

import numpy as np
import pytest

from adaptive_tomo import (
    Adaptive,
    AdaptivePow,
    BudgetError,
    FixedError,
    InvalidStateError,
    KnownBasis,
    NoError,
    ReducedAdaptive,
    RngContext,
    Static,
    bloch_to_density,
    named_state,
    run_protocol,
)
from adaptive_tomo import protocols
from adaptive_tomo.protocols import run_grid
from adaptive_tomo.states import SIGMA_X, SIGMA_Y, SIGMA_Z

ALL_PROTOCOLS = (Static(), Adaptive(0.5), AdaptivePow(), ReducedAdaptive(), KnownBasis())
EXPECTED_SETTINGS = {Static: 3, Adaptive: 6, AdaptivePow: 6, ReducedAdaptive: 4, KnownBasis: 3}


def pauli_matrix(axis):
    return axis[0] * SIGMA_X + axis[1] * SIGMA_Y + axis[2] * SIGMA_Z


class TestBudgetAccounting:
    def test_exact_budget_for_all_protocols(self):
        rho = named_state("eq7")
        for n in range(6, 31):
            for spec in ALL_PROTOCOLS:
                result = run_protocol(spec, rho, n, NoError(), RngContext(1, (n,)))
                assert result.total_shots == n
                assert sum(r.n_shots for r in result.records) == n
                assert len(result.records) == EXPECTED_SETTINGS[type(spec)]
                assert all(r.n_shots >= 1 for r in result.records)

    def test_adaptive_split_at_ten(self):
        result = run_protocol(
            Adaptive(0.5), named_state("eq7"), 10, NoError(), RngContext(2)
        )
        assert [r.n_shots for r in result.records] == [2, 2, 1, 2, 2, 1]

    def test_static_remainder_goes_to_x_then_y(self):
        result = run_protocol(Static(), named_state("eq7"), 11, NoError(), RngContext(3))
        assert [r.n_shots for r in result.records] == [4, 4, 3]
        assert np.array_equal(result.records[0].intended_axis, (1, 0, 0))

    def test_too_small_budget(self):
        with pytest.raises(BudgetError):
            run_protocol(Static(), named_state("eq7"), 5, NoError(), RngContext(4))

    def test_non_integer_budget(self):
        # run_grid, run_protocol and CampaignSpec share _shot_plan's rule.
        for n in (100.0, 100.5):
            with pytest.raises(BudgetError, match="N must be an integer"):
                run_grid(Static(), (0.0, 0.0, 0.5), (n,), NoError(), RngContext(4), 2)
            with pytest.raises(BudgetError, match="N must be an integer"):
                run_protocol(Static(), named_state("eq7"), n, NoError(), RngContext(4))

    def test_lopsided_alpha_budget_error(self):
        with pytest.raises(BudgetError):
            run_protocol(Adaptive(0.05), named_state("eq7"), 20, NoError(), RngContext(5))

    def test_alpha_near_one_leaves_vanishing_second_phase(self):
        result = run_protocol(
            Adaptive(0.99), named_state("eq7"), 1000, NoError(), RngContext(6)
        )
        phase2 = [r.n_shots for r in result.records[3:]]
        assert sum(phase2) == 1000 - round(0.99 * 1000)

    def test_parameter_validation(self):
        with pytest.raises(InvalidStateError):
            Adaptive(1.5)
        with pytest.raises(InvalidStateError):
            ReducedAdaptive(0.0)
        with pytest.raises(InvalidStateError):
            AdaptivePow(1.0)


class TestAdaptationMechanics:
    def test_second_phase_diagonalizes_preliminary_estimate(self):
        rho = named_state("eq10")
        for rep in range(10):
            result = run_protocol(
                Adaptive(0.5), rho, 600, NoError(), RngContext(7, (rep,))
            )
            assert result.rho_prelim is not None
            axis = result.records[3].intended_axis
            projector = 0.5 * (np.eye(2, dtype=complex) + pauli_matrix(axis))
            comm = projector @ result.rho_prelim - result.rho_prelim @ projector
            assert np.max(np.abs(comm)) < 1e-9

    def test_boundary_preliminary_estimate_is_usable(self):
        # Small first phases often put the preliminary estimate on the Bloch
        # sphere; its eigenbasis must still drive the second phase cleanly.
        from adaptive_tomo import purity

        rho = named_state("eq7")
        boundary_seen = 0
        for rep in range(20):
            result = run_protocol(Adaptive(0.5), rho, 12, NoError(), RngContext(19, (rep,)))
            if purity(result.rho_prelim) > 1.0 - 1e-9:
                boundary_seen += 1
            assert result.total_shots == 12
        assert boundary_seen > 0

    def test_reduced_second_phase_single_axis(self):
        result = run_protocol(
            ReducedAdaptive(0.5), named_state("eq7"), 1000, NoError(), RngContext(8)
        )
        assert len(result.records) == 4
        assert result.records[3].n_shots == 500

    def test_known_basis_measures_true_eigenbasis(self):
        rho = named_state("eq10")
        result = run_protocol(KnownBasis(), rho, 900, NoError(), RngContext(9))
        axis = result.records[0].intended_axis
        projector = 0.5 * (np.eye(2, dtype=complex) + pauli_matrix(axis))
        comm = projector @ rho - rho @ projector
        assert np.max(np.abs(comm)) < 1e-9
        assert result.rho_prelim is None

    def test_error_model_applies_to_both_phases(self):
        model = FixedError(0.05, (0.0, 1.0, 0.0))
        result = run_protocol(
            Adaptive(0.5), named_state("eq7"), 600, model, RngContext(10)
        )
        for rec in result.records:
            if abs(np.dot(rec.intended_axis, (0.0, 1.0, 0.0))) > 1.0 - 1e-12:
                continue  # rotation axis parallel to the setting is a no-op
            assert not np.array_equal(rec.intended_axis, rec.realized_axis)

    def test_estimator_never_sees_realized_axes(self):
        # With a fixed tilt, re-running with the error model replaced by an
        # equivalent pre-tilted truth must reproduce the estimate only if the
        # estimator consumed intended axes; spot-check the record plumbing.
        model = FixedError(0.1, (0.0, 1.0, 0.0))
        result = run_protocol(Static(), named_state("eq7"), 300, model, RngContext(11))
        intended = {tuple(np.round(r.intended_axis, 12)) for r in result.records}
        assert intended == {(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)}


class TestAccuracy:
    def test_static_aligned_pure_state(self):
        # A state on a measurement axis is the easy case for static tomography.
        rho = bloch_to_density((0, 0, 1))
        result = run_protocol(Static(), rho, 3_000_000, NoError(), RngContext(12))
        assert result.infidelity < 1e-5

    def test_known_basis_pure_state(self):
        result = run_protocol(
            KnownBasis(), named_state("eq7"), 3_000_000, NoError(), RngContext(13)
        )
        assert result.infidelity < 1e-5

    def test_infidelity_non_negative(self):
        for rep in range(20):
            result = run_protocol(
                Adaptive(0.5), named_state("eq10"), 60, NoError(), RngContext(14, (rep,))
            )
            assert result.infidelity >= 0.0

    def test_mean_infidelity_monotone_in_samples(self):
        rho = named_state("eq7")
        for spec in (Static(), Adaptive(0.5)):
            means, errs = [], []
            for idx, n in enumerate((120, 600, 3000, 15000)):
                vals = [
                    run_protocol(spec, rho, n, NoError(), RngContext(15, (idx, rep))).infidelity
                    for rep in range(100)
                ]
                means.append(np.mean(vals))
                errs.append(np.std(vals, ddof=1) / np.sqrt(len(vals)))
            for i in range(len(means) - 1):
                slack = 2.0 * np.hypot(errs[i], errs[i + 1])
                assert means[i + 1] <= means[i] + slack


class TestDeterminism:
    def test_bit_identical_results(self):
        rho = named_state("eq10")
        for spec in ALL_PROTOCOLS:
            a = run_protocol(spec, rho, 500, FixedError(0.01), RngContext(16, (5,)))
            b = run_protocol(spec, rho, 500, FixedError(0.01), RngContext(16, (5,)))
            assert np.array_equal(a.rho_hat, b.rho_hat)
            assert a.infidelity == b.infidelity
            assert all(
                x.n_plus == y.n_plus and np.array_equal(x.realized_axis, y.realized_axis)
                for x, y in zip(a.records, b.records)
            )


# One default-grid Adaptive(0.5) campaign at a mixed state, run twice to warm
# up and then once more under a count of the process's minor page faults.
_FAULTS_CHILD = """
import resource
from adaptive_tomo import Adaptive, CampaignSpec, run_campaign
from adaptive_tomo.cli import RunConfig
spec = CampaignSpec(protocol=Adaptive(0.5), state_bloch=(0.3, 0.4, 0.2),
                    n_grid=RunConfig.n_grid, seed=7)
run_campaign(spec)
run_campaign(spec)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run_campaign(spec)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(protocols._mallopt() is None, reason="the C library is not glibc")
def test_steady_campaign_keeps_its_heap():
    # A fresh interpreter, so that earlier tests leave no heap behind; without
    # the kept heap this campaign faults its 1-3 MB of fit temporaries back in
    # (400-500 faults).
    src = os.path.dirname(os.path.dirname(protocols.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _FAULTS_CHILD], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert int(done.stdout) <= 20


_MB = 1 << 20


@pytest.mark.parametrize("result, rows, calls, pad", [
    (0, [1500], [(protocols._M_TOP_PAD, 8 * _MB)], 0),
    (1, [1500], [(protocols._M_TOP_PAD, 8 * _MB),
                 (protocols._M_MMAP_THRESHOLD, 32 * _MB)], 8 * _MB),
    # The pad grows with the largest campaign, up to 64 MB, and never shrinks.
    (1, [1500, 12000, 1500, 1500, 10**6, 12000],
     [(protocols._M_TOP_PAD, 8 * _MB), (protocols._M_MMAP_THRESHOLD, 32 * _MB),
      (protocols._M_TOP_PAD, 12000 * 2048), (protocols._M_TOP_PAD, 64 * _MB)], 64 * _MB),
], ids=["refused", "taken", "grows"])
def test_keep_heap_pads_by_rows_and_pins_the_threshold_once(monkeypatch, result, rows, calls,
                                                             pad):
    made = []

    def mallopt(param, value):
        made.append((param, value))
        return result

    monkeypatch.setattr(protocols, "_mallopt", lambda: mallopt)
    monkeypatch.setattr(protocols, "_heap_pad", 0)
    for n in rows:
        assert protocols._keep_heap(n) is None
    assert made == calls
    assert protocols._heap_pad == pad


def test_keep_heap_without_mallopt_does_nothing(monkeypatch):
    monkeypatch.setattr(protocols, "_mallopt", lambda: None)
    monkeypatch.setattr(protocols, "_heap_pad", 0)
    assert protocols._keep_heap(1500) is None
    assert protocols._heap_pad == 0


def test_mallopt_under_glibc_is_typed(monkeypatch):
    def mallopt(param, value):
        return 1

    monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36", raising=False)
    monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
    assert protocols._mallopt.__wrapped__() is mallopt
    assert mallopt.argtypes == (ctypes.c_int, ctypes.c_int) and mallopt.restype is ctypes.c_int


def _raises(error):
    def stand_in(*args):
        raise error
    return stand_in


@pytest.mark.parametrize("confstr, cdll", [
    (lambda name: "glibc 2.36", lambda name: types.SimpleNamespace()),
    (lambda name: "glibc 2.36", _raises(OSError("no C library"))),
    # ctypes on Windows refuses CDLL(None) with a TypeError.
    (lambda name: "glibc 2.36", _raises(TypeError("argument of type 'NoneType' is not iterable"))),
    (lambda name: None, lambda name: types.SimpleNamespace(mallopt=print)),
    (_raises(ValueError("unrecognized configuration name")),
     lambda name: types.SimpleNamespace(mallopt=print)),
    (None, lambda name: types.SimpleNamespace(mallopt=print)),
], ids=["no-mallopt", "no-library", "windows", "not-glibc", "no-glibc-name", "no-confstr"])
def test_mallopt_is_none_off_glibc(monkeypatch, confstr, cdll):
    if confstr is None:
        monkeypatch.delattr(os, "confstr", raising=False)
    else:
        monkeypatch.setattr(os, "confstr", confstr, raising=False)
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert protocols._mallopt.__wrapped__() is None
