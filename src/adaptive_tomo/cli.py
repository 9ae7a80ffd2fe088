"""Command-line front end.

Commands
--------
run          one campaign: CSV of per-N means, power-law fit JSON, provenance
sweep-alpha  campaigns over a grid of preliminary-budget fractions
sweep-noise  noise floors at N -> infinity over error magnitudes, slope fit per protocol
fit          re-fit a previously emitted campaign CSV
fixtures     print the named reference states and their sanity-check values

A command's options can also be given in a flat ``key = value`` config file
(``--config``); its keys are its own flags' RunConfig fields or the flags
without their dashes, with ``-`` and ``_`` interchangeable, and explicit flags
override file values.  ``--n`` is another spelling of ``--n-grid``.  Numeric
grids accept either comma lists (``100,1000,10000``) or ``start:stop:count``
for log-spaced points; exponents may be fractional (``1e-1.5``).

Outputs are written atomically into the output directory (``--out``, or the
``ADAPTIVE_TOMO_OUT`` environment variable, or the working directory), and
only after every output is computed, so a command that fails writes nothing.
Exit status is 0 on success, 2 on a refused input (any ``TomographyError``:
a CLI rule's ``UsageError`` or a library check, raised before any campaign
runs) and 1 on any other failure.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import os
import platform
import re
import sys
from dataclasses import asdict, dataclass, fields
from typing import Optional, Sequence, get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .errors import TomographyError, UsageError
from .estimation import ESTIMATOR_VERSION
from .fixtures import NAMED_STATES, named_state
from .harness import (
    CampaignResult,
    CampaignSpec,
    NoiseFloorResult,
    ScalingFit,
    alpha_sweep,
    fit_means,
    noise_floor_sweep,
    run_campaign,
)
from .measurement import FixedError, NoError, PerExperimentError, PerSettingError
from .protocols import STREAM_VERSION, Adaptive, AdaptivePow, ProtocolSpec, protocol_name
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
    alpha: float = Adaptive.alpha
    exponent: float = AdaptivePow.exponent
    state: str = "eq7"
    n_grid: tuple[int, ...] = (100, 188, 355, 669, 1262, 2378, 4481, 8446, 15918, 30000)
    reps: int = CampaignSpec.reps
    model: str = "none"
    e_value: float = 0.0
    error_axis: tuple[float, float, float] = FixedError(0.0).rotation_axis
    seed: int = 0
    out_dir: str = ""
    alphas: tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 0.9)
    protocols: tuple[str, ...] = ("static", "adaptive")
    e_grid: tuple[float, ...] = tuple(float(x) for x in np.geomspace(1e-3, 3e-2, 5))
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
    """Grid rounded to integers; a point equal to the one before it is dropped."""
    return tuple(n for n, _ in itertools.groupby(int(round(x)) for x in parse_float_grid(text)))


def parse_axis(text: str) -> tuple[float, float, float]:
    parts = [parse_float(p) for p in text.split(",")]
    if len(parts) != 3:
        raise UsageError(f"axis {text!r} must be three comma-separated numbers")
    norm = math.sqrt(sum(p * p for p in parts))
    if norm == 0:
        raise UsageError("axis must be nonzero")
    return (parts[0] / norm, parts[1] / norm, parts[2] / norm)


def _protocol_list(text: str) -> tuple[str, ...]:
    return tuple(name.strip() for name in text.split(",") if name.strip())


def _parse_bool(text: str) -> bool:
    return text.strip().lower() in ("1", "true", "yes")


_COMMANDS = {
    "run": "run one campaign",
    "sweep-alpha": "sweep the preliminary fraction",
    "sweep-noise": "noise floors at N -> infinity over E",
    "fit": "re-fit an emitted campaign CSV",
    "fixtures": "print the named reference states",
}
# The commands that simulate: each takes a state, seed, reps and error model.
_SIMULATIONS = ("run", "sweep-alpha", "sweep-noise")

# Every option, declared once: (RunConfig field, flag, value parser, commands
# that take the flag, help).  The argparse tree, the parsers of flag and
# config-file values and each command's config-file keys all derive from it.
_OPTIONS = (
    ("out_dir", "--out", str, _SIMULATIONS + ("fit",), "output directory"),
    ("seed", "--seed", int, _SIMULATIONS, "master seed (default 0)"),
    ("reps", "--reps", int, _SIMULATIONS,
     "repetitions per grid point, or misalignment draws per E (default 150)"),
    ("state", "--state", str, _SIMULATIONS, "named state (eq7, eq10) or Bloch triple x,y,z"),
    ("gnuplot", "--gnuplot", _parse_bool, ("run",), "also emit a gnuplot script for the CSV"),
    ("protocol", "--protocol", str, ("run",), "|".join(_PROTOCOLS)),
    ("alpha", "--alpha", parse_float, ("run", "sweep-noise"),
     "preliminary fraction for adaptive/reduced"),
    ("exponent", "--exponent", parse_float, ("run",), "preliminary exponent for adaptive-pow"),
    ("n_grid", "--n", parse_n_grid, ("run",), "another spelling of --n-grid"),
    ("n_grid", "--n-grid", parse_n_grid, ("run", "sweep-alpha"),
     "comma list or start:stop:count"),
    ("alphas", "--alpha-grid", parse_float_grid, ("sweep-alpha",), "comma list of fractions"),
    ("model", "--model", str, _SIMULATIONS, "error model: none, 1, 2 or 3"),
    ("e_value", "--e", parse_float, ("run", "sweep-alpha"), "error magnitude in radians"),
    ("error_axis", "--error-axis", parse_axis, _SIMULATIONS,
     "fixed rotation axis for model 3 (x,y,z)"),
    ("protocols", "--protocols", _protocol_list, ("sweep-noise",),
     "comma list of " + "|".join(_PROTOCOLS)),
    ("e_grid", "--e-grid", parse_float_grid, ("sweep-noise",), "comma list or start:stop:count"),
    ("csv_path", "--csv", str, ("fit",), "campaign CSV to fit"),
)
_PARSERS = {field: parse for field, _, parse, _, _ in _OPTIONS}
_FLAGS = {field: flag for field, flag, _, _, _ in _OPTIONS}
# The fields that parameterise a protocol (alpha, exponent).
_PROTOCOL_PARAMS = {f.name for cls in _PROTOCOLS.values() for f in fields(cls)}
# (command, config-file key) -> field.  A command takes the keys of its own
# flags: the field name or the flag without its dashes, with "-" and "_"
# interchangeable.
_FILE_KEYS = {(command, key): field for field, flag, _, commands, _ in _OPTIONS
              for command in commands
              for key in (field, flag.lstrip("-").replace("-", "_"))}


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
    for command, command_help in _COMMANDS.items():
        p = sub.add_parser(command, help=command_help)
        p.add_argument("--config", help="flat key = value config file")
        for field, flag, parse, commands, option_help in _OPTIONS:
            if command in commands:
                # A switch stores the text a config file would give it.
                switch = {"action": "store_const", "const": "true"} if parse is _parse_bool else {}
                p.add_argument(flag, dest=field, help=option_help, **switch)
    return parser


def _parse_value(field: str, text: str, where: str = ""):
    try:
        return _PARSERS[field](text)
    except (UsageError, ValueError) as exc:
        raise UsageError(f"{where}bad value for {field}: {exc}") from None


def _read_lines(path: str, kind: str, newline: Optional[str] = None) -> list[str]:
    """The lines of a UTF-8 input file; UsageError naming it if it cannot be read."""
    try:
        with open(path, "r", encoding="utf-8", newline=newline) as fh:
            return fh.readlines()
    except FileNotFoundError:
        raise UsageError(f"{kind} {path!r} not found") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {kind} {path!r}: {exc}") from None


def _read_config_file(path: str, command: str) -> dict:
    values: dict = {}
    for lineno, raw in enumerate(_read_lines(path, "config file"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        field = _FILE_KEYS.get((command, key.replace("-", "_")))
        if field is None:
            raise UsageError(f"{path}:{lineno}: {command} takes no key {key!r}")
        values[field] = _parse_value(field, value, f"{path}:{lineno}: ")
    return values


def parse_config(argv: Sequence[str]) -> RunConfig:
    """Resolve argv (and any --config file) into a validated RunConfig."""
    ns = _build_parser().parse_args(argv)
    flags = {field: _parse_value(field, value) for field, value in vars(ns).items()
             if value is not None and field not in ("command", "config")}
    merged = {**(_read_config_file(ns.config, ns.command) if ns.config else {}), **flags}
    given = set(merged)
    if not merged.get("out_dir"):
        merged["out_dir"] = os.environ.get(OUTPUT_DIR_ENV, ".")
    config = RunConfig(command=ns.command, **merged)
    _validate(config, given)
    return config


def _validate(config: RunConfig, given: set[str]) -> None:
    # The CLI's own rules: value formats, protocol and model names, grid
    # shapes, flag combinations and unused flags.  Every other refusal is the
    # library's, raised when ``execute`` builds the command's objects and
    # before any campaign runs.  ``given`` holds the fields set by a flag or a
    # config-file key: one that the command would not use is refused.
    _resolve_state(config.state)
    if config.model not in _ERROR_MODELS:
        raise UsageError(f"model must be none, 1, 2 or 3, got {config.model!r}")
    if config.command == "sweep-noise" and config.model == "none":
        raise UsageError("sweep-noise requires --model 1, 2 or 3")
    if not config.protocols:
        raise UsageError("--protocols names no protocol")
    chosen = config.protocols if config.command == "sweep-noise" else (config.protocol,)
    for name in chosen:
        if name not in _PROTOCOLS:
            raise UsageError(f"unknown protocol {name!r}: protocol must be one of "
                             f"{', '.join(_PROTOCOLS)}")
    if any(e <= 0 for e in config.e_grid):
        raise UsageError("e-grid values must be positive")
    if any(b <= a for a, b in zip(config.e_grid, config.e_grid[1:])):
        raise UsageError("e-grid must be strictly increasing")
    if config.command == "fit" and not config.csv_path:
        raise UsageError("fit requires --csv")
    if config.e_value and config.model == "none":
        raise UsageError(f"--e {config.e_value} needs --model 1, 2 or 3")
    if config.command != "sweep-noise" and config.model != "none" and not config.e_value:
        raise UsageError(f"--model {config.model} needs a nonzero --e")
    if "error_axis" in given and config.model != "3":
        raise UsageError(f"--error-axis needs --model 3, got --model {config.model}")
    unused = given & _PROTOCOL_PARAMS - {f.name for name in chosen
                                         for f in fields(_PROTOCOLS[name])}
    if unused:
        field = min(unused)
        raise UsageError(f"{_FLAGS[field]} {getattr(config, field)} is used by none of the "
                         f"protocols {', '.join(chosen)}")


def _resolve_state(text: str) -> tuple[float, float, float]:
    if text in NAMED_STATES:
        return NAMED_STATES[text]
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(
            f"state {text!r} is neither a named state {sorted(NAMED_STATES)} "
            f"nor a Bloch triple x,y,z"
        )
    return tuple(parse_float(p) for p in parts)


def _protocol(config: RunConfig, name: str) -> ProtocolSpec:
    # Parameters come from the RunConfig fields of the same name.
    cls = _PROTOCOLS[name]
    return cls(**{f.name: getattr(config, f.name) for f in fields(cls)})


def _campaign_spec(config: RunConfig) -> CampaignSpec:
    return CampaignSpec(
        protocol=_protocol(config, config.protocol),
        state_bloch=_resolve_state(config.state),
        n_grid=config.n_grid,
        reps=config.reps,
        error_model=_ERROR_MODELS[config.model](config.e_value, config.error_axis),
        seed=config.seed,
    )


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _atomic_write(path: str, data: str) -> None:
    directory = os.path.dirname(path) or "."
    # Mode 0o666 less the umask, as for any new file; ``os.replace`` keeps
    # the mode, so mkstemp's 0o600 would leave every output owner-only.
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv(header: Sequence[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _campaign_csv(results: Sequence[CampaignResult]) -> str:
    return _csv(["protocol", "N", "reps", "mean_infidelity", "stderr", "seed"],
                ([protocol_name(result.spec.protocol), row.n, row.reps,
                  _fmt(row.mean_infidelity), _fmt(row.stderr), result.seed]
                 for result in results for row in result.rows))


def _floors_csv(results: Sequence[NoiseFloorResult], seed: int) -> str:
    return _csv(["protocol", "E", "floor_infidelity", "stderr", "seed"],
                ([protocol_name(result.protocol), _fmt(pt.error_magnitude),
                  _fmt(pt.floor_infidelity), _fmt(pt.stderr), seed]
                 for result in results for pt in result.points))


def _fit_entry(name: str, fit: ScalingFit) -> dict:
    return {"protocol": name, **asdict(fit)}


def _fits_from_rows(rows: Sequence[tuple[str, int, float]]) -> list[dict]:
    # A protocol that ``fit_means`` leaves without a fit has no entry.
    grouped: dict[str, list[tuple[int, float]]] = {}
    for name, n, mean in rows:
        grouped.setdefault(name, []).append((n, mean))
    fits = {name: fit_means(points) for name, points in grouped.items()}
    return [_fit_entry(name, fit) for name, fit in fits.items() if fit is not None]


def _read_campaign_rows(path: str) -> list[tuple[str, int, float]]:
    """(protocol, N, mean infidelity) of every row of a campaign CSV."""
    reader = csv.DictReader(_read_lines(path, "campaign CSV", newline=""), restval="")
    required = {"protocol", "N", "mean_infidelity"}
    if reader.fieldnames is None or not required <= set(reader.fieldnames):
        raise UsageError(f"{path} is not a campaign CSV (needs columns {sorted(required)})")
    rows = []
    for row in reader:
        try:
            n, mean = int(row["N"]), parse_float(row["mean_infidelity"])
            if n < 1 or mean < 0:
                raise UsageError(f"N must be >= 1 and mean_infidelity >= 0, got {n}, {mean}")
        except ValueError as exc:
            raise UsageError(f"{path}:{reader.line_num}: {exc}") from None
        rows.append((row["protocol"], n, mean))
    return rows


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _is_json_of(value, hint) -> bool:
    """Whether a JSON value holds a RunConfig field of type ``hint``: JSON
    writes a tuple as a list and may write a float without a fraction."""
    if get_origin(hint) is tuple:
        return isinstance(value, list) and all(_is_json_of(v, get_args(hint)[0]) for v in value)
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def config_from_provenance(data: dict) -> RunConfig:
    """Rebuild the resolved RunConfig from a provenance JSON payload; UsageError
    if its stream or estimator version is not the engine's (naming both), if
    it has no config object or one without a command, if its config has a key
    that RunConfig lacks (naming each, such as the ``n_start`` and ``n_cap``
    of an earlier ``sweep-noise``) or a value of another type (naming the key
    and the type), or if the CLI's rules refuse the config."""
    for key, version in (("stream_version", STREAM_VERSION),
                         ("estimator_version", ESTIMATOR_VERSION)):
        if data.get(key) != version:
            raise UsageError(f"provenance has {key} {data.get(key)}, this engine {version}")
    given = data.get("config")
    if not isinstance(given, dict):
        raise UsageError("provenance has no config object")
    hints = get_type_hints(RunConfig)
    unknown = sorted(set(given) - set(hints))
    if unknown:
        raise UsageError(f"provenance config has keys this engine lacks: {', '.join(unknown)}")
    if "command" not in given:
        raise UsageError("provenance config has no command")
    for key, value in given.items():
        hint = hints[key]
        if not _is_json_of(value, hint):
            raise UsageError(f"provenance config {key} must be "
                             f"{hint.__name__ if isinstance(hint, type) else hint}, "
                             f"got {type(value).__name__} {value!r}")
    config = RunConfig(**{key: tuple(value) if isinstance(value, list) else value
                          for key, value in given.items()})
    _validate(config, set())
    return config


_GNUPLOT = """set logscale xy
set xlabel 'N'
set ylabel 'mean infidelity'
set datafile separator ','
plot 'campaign.csv' every ::1 using 2:4 with linespoints title 'campaign'
"""


def execute(config: RunConfig) -> int:
    """Run the resolved command, write its files, and return an exit status."""
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
        rows = _read_campaign_rows(config.csv_path)
        try:
            # What ``fit_power_law`` refuses, or fits past the float range, is bad input.
            fits = _fits_from_rows(rows)
            files = {"fit.json": _json({"fits": fits})}
        except (ValueError, ArithmeticError) as exc:
            raise UsageError(f"{config.csv_path}: cannot fit: {exc}") from None
        print(f"fitted {len(fits)} protocol(s) from {config.csv_path}")

    elif config.command == "run":
        result = run_campaign(_campaign_spec(config))
        name = protocol_name(result.spec.protocol)
        for row in result.rows:
            print(
                f"{name} N={row.n} reps={row.reps} "
                f"mean={row.mean_infidelity:.6e} stderr={row.stderr:.6e}"
            )
        fits = _fits_from_rows([(name, row.n, row.mean_infidelity) for row in result.rows])
        files = {"campaign.csv": _campaign_csv([result]), "fit.json": _json({"fits": fits})}
        if config.gnuplot:
            files["campaign.gp"] = _GNUPLOT

    elif config.command == "sweep-alpha":
        sweep = alpha_sweep(config.alphas, _campaign_spec(config))
        entries = []
        for alpha, result, fit in sweep:
            if fit is None:
                print(f"alpha={alpha} no fit")
                continue
            entries.append({**_fit_entry(protocol_name(result.spec.protocol), fit), "alpha": alpha})
            print(f"alpha={alpha} beta={fit.beta:.6f} p={fit.p:+.4f}")
        files = {"campaign.csv": _campaign_csv([result for _, result, _ in sweep]),
                 "fit.json": _json({"alpha_sweep": entries})}

    else:  # sweep-noise
        results = noise_floor_sweep(
            lambda e: _ERROR_MODELS[config.model](e, config.error_axis),
            config.e_grid,
            [_protocol(config, name) for name in config.protocols],
            _resolve_state(config.state),
            reps=config.reps,
            seed=config.seed,
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
            entry["floors"] = [{"e": pt.error_magnitude, "floor_infidelity": pt.floor_infidelity}
                               for pt in result.points]
            entries.append(entry)
            for pt in result.points:
                print(f"{name} E={pt.error_magnitude:.6g} floor={pt.floor_infidelity:.6e} "
                      f"stderr={pt.stderr:.6e}")
            slope = "n/a" if result.slope_fit is None else f"{result.slope_fit.p:.3f}"
            print(f"{name}: floor slope vs E = {slope}")
        files = {"floors.csv": _floors_csv(results, config.seed),
                 "fit.json": _json({"noise_floors": entries})}

    environment = {"python": platform.python_version(), "numpy": np.__version__,
                   "platform": platform.platform(), "nproc": os.cpu_count()}
    files["provenance.json"] = _json({"artifact_version": __version__,
                                      "stream_version": STREAM_VERSION,
                                      "estimator_version": ESTIMATOR_VERSION,
                                      "environment": environment,
                                      "config": asdict(config)})
    # Made only once every output is computed: a failed command leaves none.
    os.makedirs(config.out_dir, exist_ok=True)
    for filename, data in files.items():
        _atomic_write(os.path.join(config.out_dir, filename), data)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    config = None
    try:
        config = parse_config(argv)
        return execute(config)
    except TomographyError as exc:
        # A refused input: a CLI rule (UsageError) or a library check, each
        # raised before any campaign runs.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        # argparse exits after printing --help (usage errors raise UsageError).
        return exc.code
    except Exception as exc:
        # Every other failure is a runtime failure, not a traceback: a boundary
        # solver that did not converge (RuntimeError), a leaked budget
        # (AssertionError), an unwritable output directory (OSError), ...  The
        # context names the options the command takes.
        context = "" if config is None else " ({})".format(", ".join(
            f"{field}={getattr(config, field)}"
            for field in dict.fromkeys(field for field, _, _, commands, _ in _OPTIONS
                                       if config.command in commands)))
        print(f"error: {type(exc).__name__}: {exc}{context}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
