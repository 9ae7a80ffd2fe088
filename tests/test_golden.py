"""Golden outputs: the campaign rows of every protocol at two states, a
noise-floor sweep and an alpha sweep, recomputed and compared exactly, as
float reprs, with ``golden.json``.  A change that moves any of these numbers,
by as little as one ulp, fails here.  Beside them the file holds a SHA-256
of the counts, final fits and infidelities of every run of a small
``run_grid`` per protocol and state, which a one-ulp move of a single run
changes although a campaign mean may not, and the stdout and output files
(all but the environment-dependent ``provenance.json``) of tiny CLI runs.

Regenerate the file with ``PYTHONPATH=src python tests/test_golden.py`` only
in a change that bumps ``STREAM_VERSION`` or ``ESTIMATOR_VERSION``, or that
lists the values it moved, with their cause, in CHANGES.md.  numpy does not
promise the same ``Generator`` streams across its versions (NEP 19), so a
numpy upgrade is such a cause.
"""
import contextlib
import hashlib
import io
import itertools
import json
import os
import pathlib
import tempfile

import numpy as np

from adaptive_tomo import (
    Adaptive,
    AdaptivePow,
    CampaignSpec,
    KnownBasis,
    NoError,
    PerSettingError,
    ReducedAdaptive,
    RngContext,
    Static,
    alpha_sweep,
    noise_floor_sweep,
    protocol_name,
    run_campaign,
)
from adaptive_tomo.cli import RunConfig, main
from adaptive_tomo.estimation import ESTIMATOR_VERSION
from adaptive_tomo.fixtures import EQ7_BLOCH
from adaptive_tomo.protocols import STREAM_VERSION, run_grid

GOLDEN = pathlib.Path(__file__).with_name("golden.json")
SEED = 3
STATES = {"eq7": EQ7_BLOCH, "0.3,0.4,0.2": (0.3, 0.4, 0.2)}
PROTOCOLS = (Static(), Adaptive(0.5), AdaptivePow(), ReducedAdaptive(0.5), KnownBasis())
# The golden.json keys of the per-run digests and of the CLI outputs.
DIGESTS = "run_grid sha256"
CLI = "cli outputs"
# Tiny CLI runs, each in its own output directory: (directory, argv).  Paths
# are relative to the working directory, so that stdout does not name it.
TINY = ("--reps", "20", "--seed", str(SEED))
CLI_RUNS = (
    ("run-static", ["run", "--protocol", "static", "--n-grid", "100,1000,10000", "--gnuplot",
                    *TINY]),
    ("run-adaptive", ["run", "--protocol", "adaptive", "--n-grid", "100,1000,10000", *TINY]),
    ("run-known-basis", ["run", "--protocol", "known-basis", "--n-grid", "100,1000,10000",
                         *TINY]),
    ("sweep-alpha", ["sweep-alpha", "--n-grid", "100,1000,10000", *TINY]),
    ("sweep-noise", ["sweep-noise", "--model", "3", "--e-grid", "0.02,0.04,0.08", *TINY]),
    ("fit", ["fit", "--csv", "run-static/campaign.csv"]),
)


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
            "points": [reprs(pt.error_magnitude, pt.floor_infidelity, pt.stderr)
                       for pt in result.points],
            "slope_fit": fit_reprs(result.slope_fit),
        }
    base = CampaignSpec(Adaptive(0.5), EQ7_BLOCH, RunConfig.n_grid, reps=40, seed=SEED)
    for alpha, result, fit in alpha_sweep([0.1, 0.3, 0.5, 0.7, 0.9], base):
        values[f"sweep-alpha {alpha!r}"] = {"rows": rows(result), "fit": fit_reprs(fit)}
    return values


def run_digests():
    """SHA-256 of the +1 counts, final Bloch vectors and infidelities of every
    run of ``run_grid`` at N = 100, 1 000 and 10 000, 20 reps, on the stream
    (seed 3, (0,)), per protocol and state."""
    values = {}
    for state, bloch in STATES.items():
        for protocol in PROTOCOLS:
            batch = run_grid(protocol, bloch, (100, 1000, 10000), NoError(),
                             RngContext(SEED, (0,)), 20)
            digest = hashlib.sha256(batch.n_plus.astype("<i8").tobytes())
            digest.update(batch.bloch_hat.astype("<f8").tobytes())
            digest.update(batch.infidelity.astype("<f8").tobytes())
            values[f"{protocol_name(protocol)} {state}"] = digest.hexdigest()
    return values


def cli_outputs():
    """Exit status, stdout and output files of each of ``CLI_RUNS``, run in
    process in the working directory."""
    values = {}
    for out, argv in CLI_RUNS:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            status = main(argv + ["--out", out])
        values[out] = {"status": status, "stdout": stdout.getvalue()}
        for name in sorted(os.listdir(out)):
            if name != "provenance.json":
                values[out][name] = pathlib.Path(out, name).read_text()
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


def load_golden():
    """The golden values, and the library versions that made them and that
    run now, for failure messages."""
    golden = json.loads(GOLDEN.read_text())
    numpy_version = golden.pop("numpy")
    versions = (f"golden stream_version {golden['stream_version']}, estimator_version "
                f"{golden['estimator_version']}, numpy {numpy_version}; now "
                f"{STREAM_VERSION}, {ESTIMATOR_VERSION}, numpy {np.__version__}")
    return golden, versions


def assert_same(golden, now, versions, path=""):
    now = json.loads(json.dumps(now))
    for (path, want), (path_now, got) in itertools.zip_longest(
            leaves(golden, path), leaves(now, path), fillvalue=(None, None)):
        assert (path, want) == (path_now, got), (
            f"first moved value {path or path_now}: golden {want!r}, now {got!r} ({versions})")


def test_outputs_match_the_golden_file():
    golden, versions = load_golden()
    del golden[DIGESTS], golden[CLI]
    assert_same(golden, compute(), versions)


def test_every_run_matches_its_digest():
    golden, versions = load_golden()
    assert_same(golden[DIGESTS], run_digests(), versions, f"/{DIGESTS}")


def test_cli_outputs_match_the_golden_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    golden, versions = load_golden()
    assert_same(golden[CLI], cli_outputs(), versions, f"/{CLI}")


if __name__ == "__main__":
    values = {"numpy": np.__version__, **compute(), DIGESTS: run_digests()}
    with tempfile.TemporaryDirectory() as workdir:
        here = os.getcwd()
        os.chdir(workdir)
        try:
            values[CLI] = cli_outputs()
        finally:
            os.chdir(here)
    GOLDEN.write_text("{\n" + ",\n".join(f" {json.dumps(key)}: {json.dumps(value)}"
                                         for key, value in values.items()) + "\n}\n")
