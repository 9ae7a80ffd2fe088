#!/usr/bin/env python3
"""Campaign benchmark for ``adaptive_tomo``.

Run from the repository root:

    python3 bench/run.py --workload pure-grid --seed 0 --seconds 35 --trace 0

A *pass* runs the workload's fixed set of campaigns once (see
``workloads.py``).  A run repeats passes with the same inputs until
``--seconds`` is used up, checks every campaign's output against the
physics, and reports medians over passes.  Load comes from this one process
with the engine serial.

Times are speed-calibrated.  On the 2-core Xeon KVM guest the bounds were
set on, the host moves between speed regimes up to 2x apart for seconds at
a time, which put the spread of raw wall times across runs near 30%.  So a fixed
calibration loop (``calibrate``; it calls nothing in ``adaptive_tomo``) is
timed before and after every campaign, and each campaign's time is scaled
by ``CALIBRATION_SECONDS`` over the mean of the two readings: a time at a
fixed machine speed.  The raw times are printed beside the calibrated ones.

``--trace 0`` reports the end-to-end metrics, among them ``setup_s``: the
median over several fresh interpreters of importing ``adaptive_tomo`` and
building the workload's specs or argv.  ``--trace 1`` alternates untraced
and traced passes and reports per-layer call counts and self times from the
traced ones; call counts must repeat exactly between traced passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (campaigns) and ``metrics``.  The exit
status is 0 only when every campaign passed its check.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_PROBES = 9
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
CALIBRATION_DRAWS = 3000
# Nominal duration of ``calibrate()``: about its median on the 2-core Xeon KVM
# guest (Python 3.11, numpy 2.4) the bounds were measured on.
CALIBRATION_SECONDS = 0.07

# The two protocols every workload runs.
END_TO_END_PROTOCOLS = ("static", "adaptive")
# Layer spans whose call counts are reported; every one also reports self time.
COUNTED_SPANS = (
    "measurement.RngContext.generator",
    "measurement.sample_counts",
    "measurement.measure_setting",
    "estimation.mle",
    "states.check_density",
    "states.eigendecompose",
    "protocols.run_protocol",
    "harness.run_campaign",
)
TIMED_SPANS = COUNTED_SPANS + (
    "measurement.born_probability",
    "estimation.negative_loglikelihood",
    "estimation.merge_records",
    "states.mub_triplet",
    "states.fidelity",
    "states.bloch_to_density",
    "states.density_to_bloch",
    "harness.fit_power_law",
    "cli.parse_config",
    "cli.execute",
)
# Protocols whose traced run_protocol time is a layer metric (the other two
# are end-to-end metrics).
TRACED_PROTOCOLS = ("adaptive-pow", "reduced-adaptive", "known-basis")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="pure-grid, mixed-grid or noise-ladder")
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--seconds", type=float, default=35.0, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics, 1: per-layer metrics")
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny only exercises the plumbing; its checks may fail")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_library() -> None:
    """Import ``adaptive_tomo`` from this checkout's source tree only."""
    if not (SRC / "adaptive_tomo" / "__init__.py").is_file():
        raise SystemExit(f"error: no adaptive_tomo package under {SRC}; "
                         "run the benchmark from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import adaptive_tomo

    if Path(adaptive_tomo.__file__).resolve().parent != SRC / "adaptive_tomo":
        raise SystemExit(f"error: adaptive_tomo resolved to {adaptive_tomo.__file__}, "
                         f"not to {SRC}")


def calibrate() -> float:
    """Seconds taken by a fixed mix of the operations a simulated run is made
    of: seeding a PCG64 stream, one binomial draw, small-array arithmetic."""
    import numpy as np

    start = time.perf_counter()
    total = 0.0
    for i in range(CALIBRATION_DRAWS):
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence([1729, i])))
        total += gen.binomial(1000, 0.3)
        axis = np.array([0.1 * i, 0.2, 0.3])
        total += float(np.dot(axis, axis))
    return time.perf_counter() - start


def setup_probe(args) -> None:
    start = time.perf_counter()
    import_library()
    import workloads

    workloads.build(args.workload, args.seed, str(BENCH_DIR / ".out-probe"), args.scale)
    raw = time.perf_counter() - start
    calibration = statistics.median(calibrate() for _ in range(3))
    print(raw, raw * CALIBRATION_SECONDS / calibration)


def measure_setup(args) -> list[tuple[float, float]]:
    """(raw, calibrated) set-up seconds of fresh interpreters, one after
    another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        raw, calibrated = done.stdout.split()[-2:]
        times.append((float(raw), float(calibrated)))
    return times


class Pass:
    """One run of every campaign of a workload."""

    def __init__(self):
        self.wall = 0.0
        self.raw = {}  # protocol -> seconds
        self.scale = {}  # protocol -> calibration factor for its times
        self.outcomes = {}  # protocol -> execute() result, or the exception it raised

    def seconds(self, protocol: str) -> float:
        return self.raw[protocol] * self.scale[protocol]


def run_pass(campaigns, tracer=None) -> Pass:
    result = Pass()
    start = time.perf_counter()
    before = calibrate()
    for campaign in campaigns:
        if tracer is not None:
            tracer.scope = campaign.protocol
        t0 = time.perf_counter()
        try:
            result.outcomes[campaign.protocol] = campaign.execute()
        except Exception as exc:  # a failed campaign is counted, not fatal
            result.outcomes[campaign.protocol] = exc
        result.raw[campaign.protocol] = time.perf_counter() - t0
        after = calibrate()
        result.scale[campaign.protocol] = 2.0 * CALIBRATION_SECONDS / (before + after)
        before = after
    result.wall = time.perf_counter() - start
    return result


def check_pass(campaigns, outcomes, reference):
    """(protocol, passed, detail) per campaign.  ``reference`` maps protocol
    to the value the first pass produced; identical inputs must reproduce
    it exactly."""
    results = []
    for campaign in campaigns:
        outcome = outcomes[campaign.protocol]
        if isinstance(outcome, Exception):
            results.append((campaign.protocol, False,
                            f"raised {type(outcome).__name__}: {outcome}"))
            continue
        try:
            ok, detail, value = campaign.check(outcome)
        except (OSError, ValueError, KeyError) as exc:
            results.append((campaign.protocol, False,
                            f"output unreadable: {type(exc).__name__}: {exc}"))
            continue
        first = reference.setdefault(campaign.protocol, value)
        if value != first and not (math.isnan(value) and math.isnan(first)):
            ok, detail = False, f"{detail}; first pass gave {first!r}, this pass {value!r}"
        results.append((campaign.protocol, ok, detail))
    return results


def layer_metrics(tracer, campaigns, scale: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced pass; ``scale`` holds the calibration
    factor of each protocol's campaign."""
    metrics = {}
    for span in COUNTED_SPANS:
        metrics[f"{span}.calls"] = tracer.totals(span).calls
    for span in TIMED_SPANS:
        metrics[f"{span}.self_s"] = sum(
            tracer.totals(span, p).self_s * factor for p, factor in scale.items())
    runs = {c.protocol: c.runs for c in campaigns}
    for protocol in END_TO_END_PROTOCOLS:
        generator = tracer.totals("measurement.RngContext.generator", protocol)
        metrics[f"measurement.RngContext.generator.per_run.{protocol}"] = (
            generator.calls / runs[protocol])
    mle = tracer.totals("estimation.mle")
    metrics["estimation.mle.boundary_frac"] = mle.flagged / mle.calls if mle.calls else 0.0
    mle = tracer.totals("estimation.mle", "adaptive")
    metrics["estimation.mle.boundary_frac.adaptive"] = (
        mle.flagged / mle.calls if mle.calls else 0.0)
    for protocol in TRACED_PROTOCOLS:
        run = tracer.totals("protocols.run_protocol", protocol)
        metrics[f"protocols.run_protocol.us.{protocol}"] = (
            1e6 * run.total_s * scale[protocol] / run.calls if run.calls else 0.0)
    return metrics


def unit_of(name: str) -> str:
    if name == "runs_per_s":
        return "1/s"
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_s"):
        return "s"
    if ".per_run." in name:
        return "calls/run"
    if ".us." in name or name.startswith("us_per_run."):
        return "us"
    if name.endswith("_mb"):
        return "MB"
    return "ratio"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "adaptive_tomo").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def provenance(args, np_version: str, runs_per_pass: dict[str, int], passes: int) -> dict:
    return {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np_version,
            "platform": platform.platform(),
        },
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "trace": args.trace,
        "passes": passes,
        "runs_per_pass": runs_per_pass,
    }


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    import_library()
    import numpy

    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    setup = measure_setup(args) if args.trace == 0 else []

    with tempfile.TemporaryDirectory(dir=BENCH_DIR, prefix=".out-") as out_root:
        campaigns = workloads.build(args.workload, args.seed, out_root, args.scale)
        runs_per_pass = {
            name: sum(c.runs for c in workloads.build(name, args.seed, out_root, args.scale))
            for name in workloads.WORKLOADS
        }
        reference: dict[str, float] = {}
        checks, untraced, traced = [], [], []
        start = time.perf_counter()
        while True:
            untraced.append(run_pass(campaigns))
            checks.append(check_pass(campaigns, untraced[-1].outcomes, reference))
            elapsed = untraced[-1].wall
            if args.trace:
                tracer = tracing.Tracer("adaptive_tomo",
                                        flags={"estimation.mle": lambda est: est.on_boundary})
                with tracer:
                    traced.append((run_pass(campaigns, tracer), tracer))
                checks.append(check_pass(campaigns, traced[-1][0].outcomes, reference))
                elapsed += traced[-1][0].wall
            done = len(untraced) >= (MIN_TRACED_PASSES if args.trace else MIN_PASSES)
            if done and time.perf_counter() - start + elapsed > args.seconds:
                break

    protocols = [c.protocol for c in campaigns]
    runs = {c.protocol: c.runs for c in campaigns}
    attempted = sum(len(results) for results in checks)
    failed = sum(not ok for results in checks for _, ok, _ in results)
    metrics: dict[str, float] = {}
    raw: dict[str, float] = {}
    counts_repeat = True
    if args.trace:
        per_pass = [layer_metrics(tracer, campaigns, p.scale) for p, tracer in traced]
        # Counts are equal in every pass (checked below), so medians keep them.
        for name in per_pass[0]:
            metrics[name] = statistics.median(m[name] for m in per_pass)
        spans = [{key: (t.calls, t.flagged) for key, t in tracer.spans.items()}
                 for _, tracer in traced]
        counts_repeat = all(s == spans[0] for s in spans)
        metrics["trace.overhead_frac"] = statistics.median(
            sum(t.seconds(p) for p in protocols) / sum(u.seconds(p) for p in protocols)
            for u, (t, _) in zip(untraced, traced)) - 1.0
    else:
        metrics["setup_s"] = statistics.median(c for _, c in setup)
        metrics["runs_per_s"] = statistics.median(
            sum(runs.values()) / sum(p.seconds(x) for x in protocols) for p in untraced)
        for protocol in END_TO_END_PROTOCOLS:
            metrics[f"us_per_run.{protocol}"] = statistics.median(
                1e6 * p.seconds(protocol) / runs[protocol] for p in untraced)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        raw["setup_s"] = statistics.median(r for r, _ in setup)
        raw["runs_per_s"] = statistics.median(
            sum(runs.values()) / sum(p.raw.values()) for p in untraced)
        for protocol in END_TO_END_PROTOCOLS:
            raw[f"us_per_run.{protocol}"] = statistics.median(
                1e6 * p.raw[protocol] / runs[protocol] for p in untraced)
    speed = statistics.median(f for p in untraced for f in p.scale.values())

    correct = failed == 0 and counts_repeat
    print(f"workload {args.workload}, seed {args.seed}, scale {args.scale}, "
          f"{len(untraced)} untraced and {len(traced)} traced passes of "
          f"{runs_per_pass[args.workload]} runs; median calibration factor {speed:.4f}")
    for (protocol, ok, detail), count in Counter(r for rs in checks for r in rs).items():
        print(f"check {args.workload} {protocol}: {'PASS' if ok else 'FAIL'} ({detail}) "
              f"in {count} of {len(checks)} passes")
    if not counts_repeat:
        print("check counts: FAIL (call counts differ between traced passes)")
    print(f"failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted} campaigns)")
    for name, value in metrics.items():
        uncalibrated = f" (raw {raw[name]:.6g})" if name in raw else ""
        print(f"{name} {value:.6g} {unit_of(name)}{uncalibrated}")
    if args.trace:
        print("spans of the first traced pass (scope parent span: calls self_s total_s, raw)")
        for (scope, parent, span), t in sorted(traced[0][1].spans.items()):
            print(f"  {scope} {parent or '-'} {span}: {t.calls} {t.self_s:.6f} {t.total_s:.6f}")
    print("provenance " + json.dumps(provenance(args, numpy.__version__, runs_per_pass,
                                                len(untraced) + len(traced))))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
