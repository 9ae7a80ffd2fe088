"""Golden outputs: the campaign rows of every protocol at two states, a
noise-floor sweep and an alpha sweep, recomputed and compared exactly, as
float reprs, with ``golden.json``.  A change that moves any of these numbers,
by as little as one ulp, fails here.

Regenerate the file with ``PYTHONPATH=src python tests/test_golden.py`` only
in a change that bumps ``STREAM_VERSION`` or ``ESTIMATOR_VERSION``, or that
lists the values it moved, with their cause, in CHANGES.md.  numpy does not
promise the same ``Generator`` streams across its versions (NEP 19), so a
numpy upgrade is such a cause.
"""
import itertools
import json
import pathlib

import numpy as np

from adaptive_tomo import (
    Adaptive,
    AdaptivePow,
    CampaignSpec,
    KnownBasis,
    PerSettingError,
    ReducedAdaptive,
    Static,
    alpha_sweep,
    noise_floor_sweep,
    protocol_name,
    run_campaign,
)
from adaptive_tomo.cli import RunConfig
from adaptive_tomo.estimation import ESTIMATOR_VERSION
from adaptive_tomo.fixtures import EQ7_BLOCH
from adaptive_tomo.protocols import STREAM_VERSION

GOLDEN = pathlib.Path(__file__).with_name("golden.json")
SEED = 3
STATES = {"eq7": EQ7_BLOCH, "0.3,0.4,0.2": (0.3, 0.4, 0.2)}
PROTOCOLS = (Static(), Adaptive(0.5), AdaptivePow(), ReducedAdaptive(0.5), KnownBasis())


def reprs(*values):
    return [repr(value) if isinstance(value, float) else value for value in values]


def rows(result):
    return [reprs(row.n, row.mean_infidelity, row.stderr) for row in result.rows]


def fit_reprs(fit):
    return None if fit is None else reprs(fit.beta, fit.p, fit.sigma_p, fit.sigma_beta)


def compute():
    """The recorded values, keyed by what produced them, on the CLI's default
    grid at seed 3."""
    values = {"stream_version": STREAM_VERSION, "estimator_version": ESTIMATOR_VERSION}
    for state, bloch in STATES.items():
        for protocol in PROTOCOLS:
            spec = CampaignSpec(protocol, bloch, RunConfig.n_grid, reps=150, seed=SEED)
            values[f"run {protocol_name(protocol)} {state}"] = rows(run_campaign(spec))
    for result in noise_floor_sweep(PerSettingError, [0.003, 0.01, 0.03],
                                    [Static(), Adaptive(0.5)], EQ7_BLOCH, reps=60, seed=SEED):
        values[f"sweep-noise {protocol_name(result.protocol)}"] = {
            "points": [reprs(pt.error_magnitude, pt.converged, pt.floor_infidelity,
                              pt.n_at_floor, pt.stderr) for pt in result.points],
            "slope_fit": fit_reprs(result.slope_fit),
        }
    base = CampaignSpec(Adaptive(0.5), EQ7_BLOCH, RunConfig.n_grid, reps=40, seed=SEED)
    for alpha, result, fit in alpha_sweep([0.1, 0.3, 0.5, 0.7, 0.9], base):
        values[f"sweep-alpha {alpha!r}"] = {"rows": rows(result), "fit": fit_reprs(fit)}
    return values


def leaves(value, path=""):
    """(path, value) of every scalar in a JSON value, in document order."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from leaves(item, f"{path}/{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def test_outputs_match_the_golden_file():
    golden = json.loads(GOLDEN.read_text())
    numpy_version = golden.pop("numpy")
    now = json.loads(json.dumps(compute()))
    versions = (f"golden stream_version {golden['stream_version']}, estimator_version "
                f"{golden['estimator_version']}, numpy {numpy_version}; now "
                f"{STREAM_VERSION}, {ESTIMATOR_VERSION}, numpy {np.__version__}")
    for (path, want), (path_now, got) in itertools.zip_longest(
            leaves(golden), leaves(now), fillvalue=(None, None)):
        assert (path, want) == (path_now, got), (
            f"first moved value {path or path_now}: golden {want!r}, now {got!r} ({versions})")


if __name__ == "__main__":
    values = {"numpy": np.__version__, **compute()}
    GOLDEN.write_text("{\n" + ",\n".join(f" {json.dumps(key)}: {json.dumps(value)}"
                                         for key, value in values.items()) + "\n}\n")
