"""Command-line front end.

Commands
--------
run          one campaign: CSV of per-N means, power-law fit JSON, provenance
sweep-alpha  campaigns over a grid of preliminary-budget fractions
sweep-noise  noise-floor sweep over error magnitudes, slope fit per protocol
fit          re-fit a previously emitted campaign CSV
fixtures     print the named reference states and their sanity-check values

Every option can also be given in a flat ``key = value`` config file
(``--config``); explicit flags override file values.  Numeric grids accept
either comma lists (``100,1000,10000``) or ``start:stop:count`` for
log-spaced points; exponents may be fractional (``1e-1.5``).

Outputs are written atomically into the output directory (``--out``, or the
``ADAPTIVE_TOMO_OUT`` environment variable, or the working directory).  Exit
status is 0 on success, 1 on runtime failure, 2 on usage errors.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import platform
import re
import sys
import tempfile
from dataclasses import asdict, dataclass, fields
from typing import Optional, Sequence, get_args

import numpy as np

from . import __version__
from .errors import TomographyError, UsageError
from .fixtures import NAMED_STATES, named_state
from .harness import (
    CampaignResult,
    CampaignSpec,
    NoiseFloorResult,
    ScalingFit,
    alpha_sweep,
    fit_campaign,
    fit_power_law,
    noise_floor_sweep,
    run_campaign,
)
from .measurement import ErrorModel, FixedError, NoError, PerExperimentError, PerSettingError
from .protocols import STREAM_VERSION, ProtocolSpec, protocol_name
from .states import density_to_bloch, fidelity, purity

OUTPUT_DIR_ENV = "ADAPTIVE_TOMO_OUT"

# --protocol name -> protocol class, keyed by the classes' own names.
_PROTOCOLS = {cls.name: cls for cls in get_args(ProtocolSpec)}

# --model value -> error model of magnitude E about the --error-axis.
_ERROR_MODELS = {
    "none": lambda e, axis: NoError(),
    "1": lambda e, axis: PerSettingError(e),
    "2": lambda e, axis: PerExperimentError(e),
    "3": FixedError,
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved invocation: defaults, then config file, then flags."""

    command: str
    protocol: str = "static"
    alpha: float = 0.5
    exponent: float = 2.0 / 3.0
    state: str = "eq7"
    n_grid: tuple[int, ...] = (100, 188, 355, 669, 1262, 2378, 4481, 8446, 15918, 30000)
    reps: int = 150
    model: str = "none"
    e_value: float = 0.0
    error_axis: tuple[float, float, float] = FixedError(0.0).rotation_axis
    seed: int = 0
    out_dir: str = ""
    alphas: tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 0.9)
    protocols: tuple[str, ...] = ("static", "adaptive")
    e_grid: tuple[float, ...] = ()
    n_start: int = 1000
    n_cap: int = 20_000_000
    csv_path: str = ""
    gnuplot: bool = False


_FLOAT_WITH_EXP = re.compile(r"^([+-]?(?:\d+\.?\d*|\.\d+)?)[eE]([+-]?\d+\.?\d*)$")


def parse_float(text: str) -> float:
    """Finite-float parser that also accepts fractional exponents like 1e-1.5."""
    text = text.strip()
    try:
        value = float(text)
    except ValueError:
        m = _FLOAT_WITH_EXP.match(text)
        if not m:
            raise UsageError(f"cannot parse number {text!r}") from None
        mantissa = float(m.group(1)) if m.group(1) not in ("", "+", "-") else float(m.group(1) + "1")
        try:
            value = mantissa * 10.0 ** float(m.group(2))
        except OverflowError:
            value = math.inf
    if not math.isfinite(value):
        raise UsageError(f"number {text!r} is not finite")
    return value


def parse_float_grid(text: str) -> tuple[float, ...]:
    """Comma list, or start:stop:count log-spaced."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise UsageError(f"grid {text!r} must be start:stop:count")
        start, stop = parse_float(parts[0]), parse_float(parts[1])
        try:
            count = int(parts[2])
        except ValueError:
            raise UsageError(f"grid count {parts[2]!r} is not an integer") from None
        if start <= 0 or stop <= start or count < 2:
            raise UsageError(f"grid {text!r} needs 0 < start < stop and count >= 2")
        return tuple(float(x) for x in np.geomspace(start, stop, count))
    return tuple(parse_float(part) for part in text.split(","))


def parse_n_grid(text: str) -> tuple[int, ...]:
    values = [int(round(x)) for x in parse_float_grid(text)]
    out: list[int] = []
    for v in values:
        if not out or v > out[-1]:
            out.append(v)
        elif v < out[-1]:
            raise UsageError(f"sample-size grid {text!r} is not increasing")
    return tuple(out)


def parse_axis(text: str) -> tuple[float, float, float]:
    parts = [parse_float(p) for p in text.split(",")]
    if len(parts) != 3:
        raise UsageError(f"axis {text!r} must be three comma-separated numbers")
    norm = math.sqrt(sum(p * p for p in parts))
    if norm == 0:
        raise UsageError("axis must be nonzero")
    return (parts[0] / norm, parts[1] / norm, parts[2] / norm)


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with status 2 on a usage error; raising instead lets
    # ``main`` report it and return 2 to a caller that imported it.
    def error(self, message):
        raise UsageError(message)


# Built on first use, not at import, and then once per process: parsing
# leaves the parser unchanged.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="adaptive-tomo",
        description="Simulate static and adaptive single-qubit tomography.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--out", dest="out_dir", help="output directory")
        p.add_argument("--seed", help="master seed (default 0)")
        p.add_argument("--reps", help="repetitions per grid point (default 150)")
        p.add_argument("--state", help="named state (eq7, eq10) or Bloch triple x,y,z")
        p.add_argument("--gnuplot", action="store_const", const="true",
                       help="also emit a gnuplot script for the CSV")

    p_run = sub.add_parser("run", help="run one campaign")
    common(p_run)
    p_run.add_argument("--protocol", help="|".join(_PROTOCOLS))
    p_run.add_argument("--alpha", help="preliminary fraction for adaptive/reduced")
    p_run.add_argument("--exponent", help="preliminary exponent for adaptive-pow")
    p_run.add_argument("--n", help="single sample size")
    p_run.add_argument("--n-grid", dest="n_grid", help="comma list or start:stop:count")

    p_alpha = sub.add_parser("sweep-alpha", help="sweep the preliminary fraction")
    common(p_alpha)
    p_alpha.add_argument("--alpha-grid", dest="alphas", help="comma list of fractions")
    p_alpha.add_argument("--n-grid", dest="n_grid", help="comma list or start:stop:count")
    for p in (p_run, p_alpha):
        p.add_argument("--model", help="error model: none, 1, 2 or 3")
        p.add_argument("--e", dest="e_value", help="error magnitude in radians")
        p.add_argument("--error-axis", dest="error_axis",
                       help="fixed rotation axis for model 3 (x,y,z)")

    p_noise = sub.add_parser("sweep-noise", help="noise-floor sweep over E")
    common(p_noise)
    p_noise.add_argument("--model", help="error model: 1, 2 or 3")
    p_noise.add_argument("--protocols", help="comma list of " + "|".join(_PROTOCOLS))
    p_noise.add_argument("--e-grid", dest="e_grid", help="comma list or start:stop:count")
    p_noise.add_argument("--error-axis", dest="error_axis",
                         help="fixed rotation axis for model 3 (x,y,z)")
    p_noise.add_argument("--alpha", help="preliminary fraction for adaptive/reduced")
    p_noise.add_argument("--n-start", dest="n_start", help="floor-search ladder start")
    p_noise.add_argument("--n-cap", dest="n_cap", help="floor-search sample cap")

    p_fit = sub.add_parser("fit", help="re-fit an emitted campaign CSV")
    common(p_fit)
    p_fit.add_argument("--csv", dest="csv_path", help="campaign CSV to fit")

    p_fixtures = sub.add_parser("fixtures", help="print the named reference states")
    common(p_fixtures)

    return parser


_KEY_PARSERS = {
    "protocol": str,
    "alpha": parse_float,
    "exponent": parse_float,
    "state": str,
    "n": parse_n_grid,
    "n_grid": parse_n_grid,
    "reps": int,
    "model": str,
    "e_value": parse_float,
    "error_axis": parse_axis,
    "seed": int,
    "out_dir": str,
    "alphas": parse_float_grid,
    "protocols": lambda s: tuple(name.strip() for name in s.split(",") if name.strip()),
    "e_grid": parse_float_grid,
    "n_start": int,
    "n_cap": int,
    "csv_path": str,
    "gnuplot": lambda s: s.strip().lower() in ("1", "true", "yes"),
}

# Flag spellings whose destination is not the flag with "-" read as "_".
_FILE_KEY_ALIASES = {
    "e": "e_value",
    "alpha-grid": "alphas",
    "e-grid": "e_grid",
    "out": "out_dir",
    "csv": "csv_path",
}


def _parse_value(key: str, text: str, where: str = ""):
    try:
        return _KEY_PARSERS[key](text)
    except (UsageError, ValueError) as exc:
        raise UsageError(f"{where}bad value for {key}: {exc}") from None


def _read_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except FileNotFoundError:
        raise UsageError(f"config file {path!r} not found") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc}") from None
    values: dict = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        key = _FILE_KEY_ALIASES.get(key, key.replace("-", "_"))
        if key not in _KEY_PARSERS:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _parse_value(key, value, f"{path}:{lineno}: ")
    return values


def parse_config(argv: Sequence[str]) -> RunConfig:
    """Resolve argv (and any --config file) into a validated RunConfig."""
    ns = _build_parser().parse_args(argv)
    given = {key: _parse_value(key, value) for key, value in vars(ns).items()
             if value is not None and key not in ("command", "config")}
    from_file: dict = _read_config_file(ns.config) if ns.config else {}
    merged: dict = {**from_file, **given}

    # A single sample size and a grid are the same option; within each source
    # the explicit single value wins, and flags beat the file as usual.
    merged.pop("n", None)
    for source in (from_file, given):
        if "n" in source:
            merged["n_grid"] = source["n"]
        elif "n_grid" in source:
            merged["n_grid"] = source["n_grid"]

    if not merged.get("out_dir"):
        merged["out_dir"] = os.environ.get(OUTPUT_DIR_ENV, ".")
    config = RunConfig(command=ns.command, **merged)
    _validate(config)
    return config


def _validate(config: RunConfig) -> None:
    if config.protocol not in _PROTOCOLS:
        raise UsageError(
            f"protocol must be one of {', '.join(_PROTOCOLS)}, got {config.protocol!r}"
        )
    if not 0.0 < config.alpha < 1.0:
        raise UsageError(f"alpha must be in (0, 1), got {config.alpha}")
    if not 0.0 < config.exponent < 1.0:
        raise UsageError(f"exponent must be in (0, 1), got {config.exponent}")
    if config.reps < 2:
        raise UsageError(f"reps must be >= 2, got {config.reps}")
    if config.model not in _ERROR_MODELS:
        raise UsageError(f"model must be none, 1, 2 or 3, got {config.model!r}")
    if config.e_value < 0:
        raise UsageError(f"error magnitude must be >= 0, got {config.e_value}")
    if any(n < 6 for n in config.n_grid):
        raise UsageError(f"sample sizes must be >= 6, got {config.n_grid}")
    if config.command == "sweep-alpha" and len(config.n_grid) < 3:
        raise UsageError(f"sweep-alpha fits a power law and needs >= 3 sample sizes, "
                         f"got {config.n_grid}")
    if any(not 0.0 < a < 1.0 for a in config.alphas):
        raise UsageError(f"alpha grid values must be in (0, 1), got {config.alphas}")
    for name in config.protocols:
        if name not in _PROTOCOLS:
            raise UsageError(f"unknown protocol {name!r} in --protocols")
    if config.e_grid and any(e <= 0 for e in config.e_grid):
        raise UsageError("e-grid values must be positive")
    if config.e_grid and any(
        b <= a for a, b in zip(config.e_grid, config.e_grid[1:])
    ):
        raise UsageError("e-grid must be strictly increasing")
    if config.n_start < 6:
        raise UsageError(f"n-start must be >= 6, got {config.n_start}")
    if config.n_cap < config.n_start:
        raise UsageError("n-cap must be >= n-start")
    _resolve_state(config.state)
    if config.command == "fit" and not config.csv_path:
        raise UsageError("fit requires --csv")


def _resolve_state(text: str) -> tuple[float, float, float]:
    if text in NAMED_STATES:
        return NAMED_STATES[text]
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(
            f"state {text!r} is neither a named state {sorted(NAMED_STATES)} "
            f"nor a Bloch triple x,y,z"
        )
    bloch = tuple(parse_float(p) for p in parts)
    if math.sqrt(sum(x * x for x in bloch)) > 1.0 + 1e-9:
        raise UsageError(f"Bloch vector {bloch} lies outside the unit ball")
    return bloch


def _protocol(config: RunConfig, name: str) -> ProtocolSpec:
    # Parameters come from the RunConfig fields of the same name.
    cls = _PROTOCOLS[name]
    return cls(**{f.name: getattr(config, f.name) for f in fields(cls)})


def _error_model(config: RunConfig, e: float) -> ErrorModel:
    if e == 0.0:
        return NoError()
    return _ERROR_MODELS[config.model](e, config.error_axis)


def _campaign_spec(config: RunConfig) -> CampaignSpec:
    return CampaignSpec(
        protocol=_protocol(config, config.protocol),
        state_bloch=_resolve_state(config.state),
        n_grid=config.n_grid,
        reps=config.reps,
        error_model=_error_model(config, config.e_value),
        seed=config.seed,
    )


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _atomic_write(path: str, data: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=False)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _campaign_csv(results: Sequence[CampaignResult]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["protocol", "N", "reps", "mean_infidelity", "stderr", "seed"])
    for result in results:
        name = protocol_name(result.spec.protocol)
        for row in result.rows:
            writer.writerow(
                [name, row.n, row.reps, _fmt(row.mean_infidelity), _fmt(row.stderr),
                 result.seed]
            )
    return buf.getvalue()


def _fit_entry(name: str, fit: ScalingFit) -> dict:
    return {
        "protocol": name,
        "beta": fit.beta,
        "p": fit.p,
        "sigma_p": fit.sigma_p,
        "sigma_beta": fit.sigma_beta,
        "fit_range": [fit.fit_range[0], fit.fit_range[1]],
    }


def _fits_from_rows(rows: Sequence[tuple[str, int, float]]) -> list[dict]:
    order: list[str] = []
    grouped: dict[str, list[tuple[int, float]]] = {}
    for name, n, mean in rows:
        if name not in grouped:
            grouped[name] = []
            order.append(name)
        grouped[name].append((n, mean))
    return [_fit_entry(name, fit_power_law(grouped[name])) for name in order]


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def config_from_provenance(data: dict) -> RunConfig:
    """Rebuild the resolved RunConfig from a provenance JSON payload."""
    raw = dict(data["config"])
    # Provenance written before the no-op ``threads`` option was removed.
    raw.pop("threads", None)
    for key in ("n_grid", "alphas", "protocols", "e_grid", "error_axis"):
        if key in raw and isinstance(raw[key], list):
            raw[key] = tuple(raw[key])
    return RunConfig(**raw)


_GNUPLOT = """set logscale xy
set xlabel 'N'
set ylabel 'mean infidelity'
set datafile separator ','
plot 'campaign.csv' every ::1 using 2:4 with linespoints title 'campaign'
"""


def execute(config: RunConfig) -> int:
    """Run the resolved command, write its files, and return an exit status."""
    os.makedirs(config.out_dir, exist_ok=True)

    if config.command == "fixtures":
        eq7 = named_state("eq7")
        eq10 = named_state("eq10")
        for name, rho in (("eq7", eq7), ("eq10", eq10)):
            bloch = density_to_bloch(rho)
            print(
                f"{name}: bloch = ({bloch[0]:.6f}, {bloch[1]:.6f}, {bloch[2]:.6f}), "
                f"purity = {purity(rho):.6f}"
            )
        print(f"purity(eq10) = {purity(eq10):.4f}")
        print(f"F(eq10, eq7) = {fidelity(eq10, eq7):.4f}")
        return 0

    if config.command == "fit":
        with open(config.csv_path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            required = {"protocol", "N", "mean_infidelity"}
            if reader.fieldnames is None or not required <= set(reader.fieldnames):
                raise UsageError(
                    f"{config.csv_path} is not a campaign CSV "
                    f"(needs columns {sorted(required)})"
                )
            rows = [
                (row["protocol"], int(row["N"]), float(row["mean_infidelity"]))
                for row in reader
            ]
        fits = _fits_from_rows(rows)
        files = {"fit.json": _json({"fits": fits})}
        print(f"fitted {len(fits)} protocol(s) from {config.csv_path}")

    elif config.command == "run":
        result = run_campaign(_campaign_spec(config))
        name = protocol_name(result.spec.protocol)
        for row in result.rows:
            print(
                f"{name} N={row.n} reps={row.reps} "
                f"mean={row.mean_infidelity:.6e} stderr={row.stderr:.6e}"
            )
        fits = [_fit_entry(name, fit_campaign(result))] if len(result.rows) >= 3 else []
        files = {"campaign.csv": _campaign_csv([result]), "fit.json": _json({"fits": fits})}
        if config.gnuplot:
            files["campaign.gp"] = _GNUPLOT

    elif config.command == "sweep-alpha":
        sweep = alpha_sweep(config.alphas, _campaign_spec(config))
        entries = []
        for alpha, result, fit in sweep:
            entry = _fit_entry(protocol_name(result.spec.protocol), fit)
            entry["alpha"] = alpha
            entries.append(entry)
            print(f"alpha={alpha} beta={fit.beta:.6f} p={fit.p:+.4f}")
        files = {"campaign.csv": _campaign_csv([result for _, result, _ in sweep]),
                 "fit.json": _json({"alpha_sweep": entries})}

    elif config.command == "sweep-noise":
        if config.model == "none":
            raise UsageError("sweep-noise requires --model 1, 2 or 3")
        e_grid = config.e_grid or tuple(float(x) for x in np.geomspace(1e-3, 3e-2, 5))
        results = noise_floor_sweep(
            lambda e: _error_model(config, e),
            e_grid,
            [_protocol(config, name) for name in config.protocols],
            _resolve_state(config.state),
            reps=config.reps,
            seed=config.seed,
            n_start=config.n_start,
            n_cap=config.n_cap,
        )
        entries = []
        for result in results:
            name = protocol_name(result.protocol)
            entry: dict = {"protocol": name}
            if result.slope_fit is not None:
                entry.update(
                    slope=result.slope_fit.p,
                    sigma_slope=result.slope_fit.sigma_p,
                    beta=result.slope_fit.beta,
                    fit_range=list(result.slope_fit.fit_range),
                )
            else:
                entry["slope"] = None
            entry["floors"] = [
                {
                    "e": pt.error_magnitude,
                    "converged": pt.converged,
                    "floor_infidelity": pt.floor_infidelity,
                    "n_at_floor": pt.n_at_floor,
                }
                for pt in result.points
            ]
            entries.append(entry)
            slope = "n/a" if result.slope_fit is None else f"{result.slope_fit.p:.3f}"
            print(f"{name}: floor slope vs E = {slope}")
        files = {"floors.csv": _floors_csv(results, config),
                 "fit.json": _json({"noise_floors": entries})}

    else:
        raise UsageError(f"unknown command {config.command!r}")

    environment = {"python": platform.python_version(), "numpy": np.__version__,
                   "platform": platform.platform(), "nproc": os.cpu_count()}
    files["provenance.json"] = _json({"artifact_version": __version__,
                                      "stream_version": STREAM_VERSION,
                                      "environment": environment,
                                      "config": asdict(config)})
    for filename, data in files.items():
        _atomic_write(os.path.join(config.out_dir, filename), data)
    return 0


def _floors_csv(results: Sequence[NoiseFloorResult], config: RunConfig) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["protocol", "E", "converged", "floor_infidelity", "n_at_floor", "stderr", "seed"]
    )
    for result in results:
        name = protocol_name(result.protocol)
        for pt in result.points:
            writer.writerow(
                [
                    name,
                    _fmt(pt.error_magnitude),
                    int(pt.converged),
                    "" if pt.floor_infidelity is None else _fmt(pt.floor_infidelity),
                    "" if pt.n_at_floor is None else pt.n_at_floor,
                    "" if pt.stderr is None else _fmt(pt.stderr),
                    config.seed,
                ]
            )
    return buf.getvalue()


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        config = parse_config(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        # argparse exits after printing --help (usage errors raise UsageError).
        return exc.code
    try:
        return execute(config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TomographyError, ValueError, RuntimeError, AssertionError, OverflowError) as exc:
        # RuntimeError: a boundary solver did not converge; AssertionError: a
        # protocol's budget leaked; OverflowError: a sample size too large for
        # the binomial sampler.  All are runtime failures, not tracebacks.
        print(
            f"error: {type(exc).__name__}: {exc} "
            f"(protocol={config.protocol}, n_grid={config.n_grid}, "
            f"model={config.model}, E={config.e_value})",
            file=sys.stderr,
        )
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
