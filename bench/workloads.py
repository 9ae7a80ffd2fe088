"""The benchmark's three fixed-work campaign workloads and their checks.

Every workload runs ``static`` and ``adaptive(0.5)``; the checks come from
the paper's physics (infidelity scaling exponents and alignment-error
floors), not from the engine, so they hold for any correct implementation.

* ``pure-grid``: the CLI ``run`` command, in process, once per protocol, on
  the pure state ``eq7`` and the default grid.  Most adaptive fits land on
  the ball surface, so the boundary solver and the CLI layer do real work.
* ``mixed-grid``: ``harness.run_campaign`` on the same protocols and grid at
  a mixed state.  Almost no fit reaches the boundary and the CLI is
  bypassed, so a boundary-solver or CLI change should not show here.
* ``noise-ladder``: ``static`` and ``adaptive(0.5)`` on ``eq7`` under a
  half-degree per-setting alignment error (model 1) on a fixed doubling
  ladder, the only workload where axis perturbation runs.  The ladder is
  fixed rather than stopped on convergence so that the work stays the same
  when the stopping rule or the stream layout changes.

Library calls go through module attributes (``adaptive_tomo.cli.main``, not a
name imported here) so that the tracer sees them.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import adaptive_tomo
import adaptive_tomo.cli
import adaptive_tomo.harness
from adaptive_tomo.fixtures import EQ7_BLOCH

WORKLOADS = ("pure-grid", "mixed-grid", "noise-ladder")
PROTOCOLS = ("static", "adaptive", "adaptive-pow", "reduced-adaptive", "known-basis")
MIXED_BLOCH = (0.3, 0.4, 0.2)
NOISE_E = math.radians(0.5)

# (grid argument for the CLI, grid, noise ladder, reps); "full" is the
# benchmark, "tiny" only exercises the plumbing and may fail the checks.
SCALES = {
    "full": ("100:30000:10", (100, 188, 355, 669, 1262, 2378, 4481, 8446, 15918, 30000),
             tuple(1000 * 2**k for k in range(10)), 150),
    "tiny": ("100:1000:3", (100, 316, 1000), (1000, 2000, 4000), 3),
}

# Fitted infidelity exponent windows.  Static tomography of a pure state
# scales as N^-1/2, adaptive tomography as N^-1; the N^(2/3) preliminary
# budget of adaptive-pow lands in between.  At a mixed state every protocol
# scales as N^-1.
PURE_EXPONENTS = {
    "static": (-0.6, -0.4),
    "adaptive": (-1.1, -0.9),
    "adaptive-pow": (-0.95, -0.72),
    "reduced-adaptive": (-1.1, -0.9),
    "known-basis": (-1.1, -0.9),
}
MIXED_EXPONENTS = {name: (-1.1, -0.9) for name in PROTOCOLS}
# Half-degree floors: static O(E), adaptive O(E^2).
FLOOR_WINDOWS = {"static": (3e-3, 3e-2), "adaptive": (3e-4, 3e-3)}


@dataclass(frozen=True)
class Campaign:
    """One campaign of a workload: ``execute`` does the timed work and
    returns what ``check`` reads; ``check`` returns (passed, detail, value)."""

    protocol: str
    runs: int
    execute: Callable[[], object]
    check: Callable[[object], tuple[bool, str, float]]


def build(workload: str, seed: int, out_root: str, scale: str = "full") -> list[Campaign]:
    """The campaigns of one workload, built from its seed."""
    grid_arg, grid, ladder, reps = SCALES[scale]
    if workload == "pure-grid":
        return [_cli_campaign(name, grid_arg, grid, reps, seed, os.path.join(out_root, name))
                for name in PROTOCOLS]
    if workload == "mixed-grid":
        return [_harness_campaign(name, MIXED_BLOCH, grid, reps, adaptive_tomo.NoError(), seed,
                                  _fitted_exponent,
                                  _window_check("exponent", MIXED_EXPONENTS[name]))
                for name in PROTOCOLS]
    if workload == "noise-ladder":
        model = adaptive_tomo.PerSettingError(NOISE_E)
        return [_harness_campaign(name, EQ7_BLOCH, ladder, reps, model, seed, _ladder_floor,
                                  _window_check("floor", FLOOR_WINDOWS[name]))
                for name in ("static", "adaptive")]
    raise ValueError(f"unknown workload {workload!r}")


def _protocol_spec(name: str):
    return {
        "static": adaptive_tomo.Static,
        "adaptive": lambda: adaptive_tomo.Adaptive(0.5),
        "adaptive-pow": lambda: adaptive_tomo.AdaptivePow(2.0 / 3.0),
        "reduced-adaptive": lambda: adaptive_tomo.ReducedAdaptive(0.5),
        "known-basis": adaptive_tomo.KnownBasis,
    }[name]()


def _fitted_exponent(result) -> float:
    return adaptive_tomo.harness.fit_campaign(result).p


def _ladder_floor(result) -> float:
    # The floor is the mean over the top three ladder points (3 x reps runs):
    # one 150-run point alone leaves the static window about 2% of the time.
    return sum(row.mean_infidelity for row in result.rows[-3:]) / 3.0


def _window_check(what: str, window: tuple[float, float]):
    def check(value: float) -> tuple[bool, str, float]:
        return (window[0] <= value <= window[1],
                f"{what} {value:.4g} in [{window[0]:g}, {window[1]:g}]", value)
    return check


def _harness_campaign(name, state, grid, reps, model, seed, reduce, check) -> Campaign:
    spec = adaptive_tomo.harness.CampaignSpec(
        protocol=_protocol_spec(name), state_bloch=state, n_grid=grid, reps=reps,
        error_model=model, seed=seed,
    )
    return Campaign(name, reps * len(grid),
                    lambda: reduce(adaptive_tomo.harness.run_campaign(spec)), check)


def _cli_campaign(name, grid_arg, grid, reps, seed, out_dir) -> Campaign:
    argv = ["run", "--protocol", name, "--state", "eq7", "--n-grid", grid_arg,
            "--reps", str(reps), "--seed", str(seed), "--out", out_dir]
    if name in ("adaptive", "reduced-adaptive"):
        argv += ["--alpha", "0.5"]

    def execute():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            status = adaptive_tomo.cli.main(argv)
        return status, stdout.getvalue()

    def check(outcome) -> tuple[bool, str, float]:
        status, printed = outcome
        if status != 0:
            return False, f"exit status {status}", math.nan
        with open(os.path.join(out_dir, "campaign.csv"), newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        with open(os.path.join(out_dir, "fit.json"), encoding="utf-8") as fh:
            fits = json.load(fh)["fits"]
        ns = tuple(int(row["N"]) for row in rows)
        if ns != grid or len(printed.splitlines()) != len(grid) or len(fits) != 1:
            return False, f"outputs do not cover the grid {grid}: N = {ns}", math.nan
        if any(int(row["reps"]) != reps for row in rows):
            return False, "campaign.csv reps column is wrong", math.nan
        return _window_check("exponent", PURE_EXPONENTS[name])(fits[0]["p"])

    return Campaign(name, reps * len(grid), execute, check)
