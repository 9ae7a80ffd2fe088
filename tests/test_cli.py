import argparse
import csv
import dataclasses
import json
import os
import stat

import numpy as np
import pytest

from adaptive_tomo import Adaptive, CampaignSpec, alpha_sweep, cli, harness
from adaptive_tomo.cli import (
    OUTPUT_DIR_ENV,
    config_from_provenance,
    main,
    parse_config,
    parse_float,
    parse_float_grid,
    parse_axis,
    parse_n_grid,
)
from adaptive_tomo.errors import UsageError
from adaptive_tomo.fixtures import EQ7_BLOCH


class TestParsing:
    def test_parse_float_fractional_exponent(self):
        assert parse_float("1e-1.5") == pytest.approx(10.0**-1.5)
        assert parse_float("2.5e2") == pytest.approx(250.0)
        assert parse_float("0.75") == 0.75
        with pytest.raises(UsageError):
            parse_float("abc")

    def test_float_grid_log_spaced(self):
        grid = parse_float_grid("1e-3:1e-1.5:6")
        assert len(grid) == 6
        assert grid[0] == pytest.approx(1e-3)
        assert grid[-1] == pytest.approx(10.0**-1.5)
        ratios = [b / a for a, b in zip(grid, grid[1:])]
        assert all(r == pytest.approx(ratios[0], rel=1e-9) for r in ratios)

    def test_comma_grid(self):
        assert parse_float_grid("0.1,0.3,0.5") == (0.1, 0.3, 0.5)

    def test_n_grid_rounds_and_dedupes(self):
        assert parse_n_grid("100:1000:4") == (100, 215, 464, 1000)
        assert parse_n_grid("10,10.2,11") == (10, 11)

    def test_parse_axis_keeps_a_unit_axis_bit_for_bit(self):
        # An axis within BLOCH_NORM_ATOL of unit length names its campaign as
        # given; any other is normalised, so parsing the text of a parsed
        # axis gives that axis back.
        assert parse_axis("0.8944271909999159,0.4472135954999579,0.0") == cli.RunConfig.error_axis
        assert parse_axis("0,0,2") == (0.0, 0.0, 1.0)
        assert parse_axis("0,-3,4") == (0.0, -0.6, 0.8)
        rng = np.random.default_rng(2013)
        for vector in rng.normal(size=(10_000, 3)) * rng.uniform(0.01, 100.0, size=(10_000, 1)):
            axis = parse_axis(",".join(repr(float(x)) for x in vector))
            assert parse_axis(",".join(map(repr, axis))) == axis

    def test_basic_run_config(self):
        config = parse_config(
            ["run", "--protocol", "static", "--state", "eq7", "--n", "1000",
             "--reps", "5", "--seed", "7"]
        )
        assert config.command == "run"
        assert config.protocol == "static"
        assert config.n_grid == (1000,)
        assert config.reps == 5
        assert config.seed == 7
        assert config.model == "none"

    def test_alpha_out_of_range(self, tmp_path, capsys):
        # Adaptive's own refusal, raised when execute builds the campaign.
        argv = ["run", "--protocol", "adaptive", "--alpha", "1.5", "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: alpha must be in (0, 1), got 1.5\n"
        assert not (tmp_path / "out").exists()

    def test_unknown_state(self):
        with pytest.raises(UsageError):
            parse_config(["run", "--state", "eq99"])

    def test_explicit_bloch_state(self, tmp_path, capsys):
        config = parse_config(["run", "--state", "0.1,0.2,0.3"])
        assert config.state == "0.1,0.2,0.3"
        # Outside the ball: check_bloch's refusal, raised when execute builds
        # the campaign.
        argv = ["run", "--state", "1.0,1.0,1.0", "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert capsys.readouterr().err == ("error: Bloch vector norm 1.7320508075688772 is not "
                                           "at most 1\n")
        assert not (tmp_path / "out").exists()

    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "config.txt"
        cfg.write_text("reps = 150\nseed = 9\nprotocol = adaptive\ngnuplot = No\n# comment\n")
        config = parse_config(["run", "--config", str(cfg), "--reps", "10"])
        assert config.reps == 10  # flag wins
        assert config.seed == 9
        assert config.protocol == "adaptive"
        assert config.gnuplot is False
        assert parse_config(["run", "--config", str(cfg), "--gnuplot"]).gnuplot is True

    def test_config_file_unknown_key(self, tmp_path):
        cfg = tmp_path / "config.txt"
        cfg.write_text("nonsense = 3\n")
        with pytest.raises(UsageError):
            parse_config(["run", "--config", str(cfg)])

    def test_empty_protocol_list_in_a_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "config.txt"
        cfg.write_text("protocols = ,\n")
        assert main(["sweep-noise", "--model", "1", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    # (argv of a command that takes the key, config line, field, value)
    FILE_KEYS = [
        (["run"], "n = 60,120", "n_grid", (60, 120)),
        (["run"], "n-grid = 60,120", "n_grid", (60, 120)),
        (["sweep-alpha"], "alpha-grid = 0.2,0.4", "alphas", (0.2, 0.4)),
        (["sweep-alpha"], "alpha_grid = 0.2,0.4", "alphas", (0.2, 0.4)),
        (["sweep-alpha"], "alphas = 0.2,0.4", "alphas", (0.2, 0.4)),
        (["run", "--model", "1"], "e = 0.01", "e_value", 0.01),
        (["run", "--model", "1"], "e-value = 0.01", "e_value", 0.01),
        (["run"], "out = results", "out_dir", "results"),
        (["fit"], "csv = a.csv", "csv_path", "a.csv"),
        (["run", "--model", "3", "--e", "0.01"], "error-axis = 0,0,2", "error_axis",
         (0.0, 0.0, 1.0)),
        (["run"], "gnuplot = yes", "gnuplot", True),
    ]

    @pytest.mark.parametrize("argv, line, field, value", FILE_KEYS,
                             ids=[line.split(" = ")[0] for _, line, _, _ in FILE_KEYS])
    def test_config_file_key_is_a_field_or_a_flag(self, argv, line, field, value, tmp_path):
        cfg = tmp_path / "config.txt"
        cfg.write_text(line + "\n")
        assert getattr(parse_config(argv + ["--config", str(cfg)]), field) == value

    @pytest.mark.parametrize("argv, key", [
        (["fit", "--csv", "x.csv"], "seed"),
        (["fit", "--csv", "x.csv"], "reps"),
        (["fixtures"], "seed"),
        (["fixtures"], "out"),
        (["run"], "alpha-grid"),
        (["sweep-noise", "--model", "1"], "gnuplot"),
    ], ids=["fit-seed", "fit-reps", "fixtures-seed", "fixtures-out", "run-alpha-grid",
            "sweep-noise-gnuplot"])
    def test_config_file_key_of_another_command(self, argv, key, tmp_path, capsys):
        # A config file sets only what the command's own flags set.
        cfg = tmp_path / "config.txt"
        cfg.write_text(f"# comment\n{key} = 1\n")
        message = f"{cfg}:2: {argv[0]} takes no key '{key}'"
        with pytest.raises(UsageError) as excinfo:
            parse_config(argv + ["--config", str(cfg)])
        assert str(excinfo.value) == message
        assert main(argv + ["--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_n_is_another_spelling_of_n_grid(self, tmp_path):
        assert parse_config(["run", "--n", "60", "--n-grid", "70,80"]).n_grid == (70, 80)
        assert parse_config(["run", "--n-grid", "70,80", "--n", "60"]).n_grid == (60,)
        # A config file sets a field once, under either key.
        cfg = tmp_path / "config.txt"
        cfg.write_text("n = 60\n")
        assert parse_config(["run", "--config", str(cfg), "--n-grid", "70,80"]).n_grid == (70, 80)
        cfg.write_text("n = 60\nn_grid = 70,80\n")
        with pytest.raises(UsageError, match=r"config.txt:2: n_grid is already set on line 1"):
            parse_config(["run", "--config", str(cfg)])

    def test_each_command_takes_its_flags(self):
        common = {"--config", "-h", "--help"}
        simulation = common | {"--out", "--seed", "--reps", "--state", "--model",
                               "--error-axis"}
        expected = {
            "run": simulation | {"--e", "--gnuplot", "--protocol", "--alpha", "--exponent",
                                 "--n", "--n-grid"},
            "sweep-alpha": simulation | {"--e", "--alpha-grid", "--n-grid"},
            "sweep-noise": simulation | {"--protocols", "--e-grid", "--alpha"},
            "fit": common | {"--out", "--csv"},
            "fixtures": common,
        }
        sub = next(a for a in cli._build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert {command: {flag for action in parser._actions for flag in action.option_strings}
                for command, parser in sub.choices.items()} == expected
        # A command's config-file keys are exactly its flags' fields and the
        # flags without their dashes.
        for command, parser in sub.choices.items():
            keys = {(command, key): action.dest for action in parser._actions
                    if action.dest not in ("help", "config")
                    for key in (action.dest, action.option_strings[0][2:].replace("-", "_"))}
            assert {k: f for k, f in cli._FILE_KEYS.items() if k[0] == command} == keys
        assert len(set(cli._FILE_KEYS.values())) == 16
        assert len({(command, field) for (command, _), field in cli._FILE_KEYS.items()}) == 32

    def test_config_file_may_start_with_a_byte_order_mark(self, tmp_path):
        cfg = tmp_path / "config.txt"
        cfg.write_text("reps = 7\nseed = 3\n", encoding="utf-8-sig")
        config = parse_config(["run", "--config", str(cfg)])
        assert (config.reps, config.seed) == (7, 3)

    def test_unreadable_config_file_is_a_usage_error(self, tmp_path, capsys):
        latin1 = tmp_path / "latin1.txt"
        latin1.write_bytes("seed = 1  # caf\xe9\n".encode("latin-1"))
        for path in (latin1, tmp_path):
            assert main(["run", "--config", str(path)]) == 2
            assert "error:" in capsys.readouterr().err

    def test_usage_error_exit_code(self, capsys):
        assert main(["run", "--protocol", "adaptive", "--alpha", "1.5"]) == 2
        assert "alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [[], ["run", "--bogus"],
                                      ["sweep-alpha", "--protocols", "static"],
                                      ["sweep-noise", "--model", "1", "--protocols", ","]],
                             ids=["no-command", "unknown-flag", "flag-of-another-command",
                                  "empty-protocols"])
    def test_argparse_error_exit_code(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    # (argv, whether parse_config refuses it; the others are the library's
    # refusals, raised when execute builds the campaign)
    @pytest.mark.parametrize("argv, parsed", [
        (["run", "--e", "nan", "--model", "1"], True),
        (["run", "--e", "inf", "--model", "1"], True),
        (["run", "--state", "0.5,0.5,nan"], True),
        (["run", "--error-axis", "nan,0,0", "--model", "3", "--e", "0.1"], True),
        (["sweep-noise", "--model", "1", "--e-grid", "0.01,nan"], True),
        (["run", "--n", "1e400"], True),
        (["run", "--e", "1e400.5", "--model", "1"], True),
        (["run", "--n", "1e30", "--reps", "2"], False),
    ], ids=["e-nan", "e-inf", "state-nan", "axis-nan", "e-grid-nan", "n-overflow",
            "e-fractional-exponent-overflow", "n-beyond-sampler"])
    def test_non_finite_or_overflowing_numbers(self, argv, parsed, tmp_path, capsys):
        if parsed:
            with pytest.raises(UsageError):
                parse_config(argv)
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        # A command that fails writes nothing.
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("model", ["1", "2", "3"])
    @pytest.mark.parametrize("argv", [["run", "--e", "1e308"], ["sweep-alpha", "--e", "1e308"],
                                      ["sweep-noise", "--e-grid", "0.01,1e308"]],
                             ids=["run", "sweep-alpha", "sweep-noise"])
    def test_error_magnitude_beyond_a_half_turn(self, argv, model, tmp_path, capsys):
        # A finite E whose Bloch tilt 4 E exceeds pi is refused, with status 2,
        # before any campaign runs (sweep-noise's E = 0.01 floor included),
        # with no numpy warning on stderr and no output.
        argv = argv + ["--model", model, "--reps", "2", "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "1e+308; the Bloch tilt 4 E must be at most pi" in err
        assert not (tmp_path / "out").exists()

    USAGE_ERRORS = [
        ("protocol", ["run", "--protocol", "bogus"], "protocol must be one of"),
        ("exponent", ["run", "--protocol", "adaptive-pow", "--exponent", "1.5"],
         "exponent must be in (0, 1)"),
        ("exponent-static", ["run", "--exponent", "1.5"],
         "--exponent 1.5 is used by none of the protocols static"),
        ("reps", ["run", "--reps", "1"], "need at least 2 repetitions"),
        ("model", ["run", "--model", "4"], "model must be none, 1, 2 or 3"),
        ("negative-e", ["run", "--model", "1", "--e=-0.1"],
         "error magnitude must be a finite number >= 0, got -0.1"),
        ("negative-e-model-none", ["run", "--e=-0.1"], "--e -0.1 needs --model 1, 2 or 3"),
        ("e-without-model", ["run", "--e", "0.05"], "--e 0.05 needs --model 1, 2 or 3"),
        ("e-without-model-sweep-alpha", ["sweep-alpha", "--model", "none", "--e", "0.05"],
         "--e 0.05 needs --model 1, 2 or 3"),
        ("n-below-6", ["run", "--n-grid", "5,100"], "need at least 6 samples, got 5"),
        ("run-budget", ["run", "--protocol", "adaptive", "--alpha", "0.01", "--n-grid",
                        "100,1000", "--reps", "2"], "leaves a setting without shots"),
        ("sweep-alpha-budget", ["sweep-alpha", "--alpha-grid", "0.5,0.01", "--n-grid",
                                "100,200,400", "--reps", "2"], "leaves a setting without shots"),
        ("sweep-noise-budget", ["sweep-noise", "--model", "1", "--protocols", "adaptive",
                                "--alpha", "1e-16", "--reps", "2"],
         "leaves a setting without shots"),
        ("alpha-grid", ["sweep-alpha", "--alpha-grid", "0.5,1.0"],
         "alpha must be in (0, 1), got 1.0"),
        ("protocols-name", ["sweep-noise", "--model", "1", "--protocols", "static,bogus"],
         "unknown protocol 'bogus': protocol must be one of static, adaptive, adaptive-pow, "
         "reduced-adaptive, known-basis"),
        ("e-grid-zero", ["sweep-noise", "--model", "1", "--e-grid", "0,0.01"],
         "e-grid values must be positive"),
        ("e-grid-order", ["sweep-noise", "--model", "1", "--e-grid", "0.02,0.01"],
         "e-grid must be strictly increasing"),
        ("fit-csv", ["fit"], "fit requires --csv"),
        ("sweep-noise-model", ["sweep-noise", "--protocols", "static"],
         "sweep-noise requires --model 1, 2 or 3"),
        ("grid-two-parts", ["run", "--n-grid", "100:1000"], "must be start:stop:count"),
        ("grid-count", ["run", "--n-grid", "100:1000:x"], "is not an integer"),
        ("grid-bounds", ["run", "--n-grid", "1000:100:3"],
         "needs 0 < start < stop and count >= 2"),
        ("n-grid-order", ["run", "--n-grid", "200,100"],
         "sample-size grid not strictly increasing: (200, 100)"),
        ("axis-length", ["run", "--error-axis", "1,0"], "must be three comma-separated"),
        ("axis-zero", ["run", "--error-axis", "0,0,0"], "axis must be nonzero"),
        ("config-missing", ["run", "--config", "{tmp}/missing.txt"], "not found"),
        # A campaign CSV that cannot be read: missing, a directory, not UTF-8.
        ("csv-missing", ["fit", "--csv", "{tmp}/missing.csv"], "missing.csv' not found"),
        ("csv-directory", ["fit", "--csv", "{tmp}"], "cannot read campaign CSV"),
        ("csv-not-utf8", ["fit", "--csv", "{tmp}/latin1.csv"],
         "latin1.csv': 'utf-8' codec can't decode byte 0xe9"),
        ("config-line", ["run", "--config", "{tmp}/no-equals.txt"], "expected 'key = value'"),
        ("config-repeated-field", ["run", "--config", "{tmp}/reps-twice.txt"],
         "reps-twice.txt:3: reps is already set on line 1"),
        ("gnuplot-on", ["run", "--config", "{tmp}/gnuplot-on.txt"],
         "gnuplot-on.txt:1: bad value for gnuplot: 'on' is not one of"),
        ("gnuplot-typo", ["run", "--config", "{tmp}/gnuplot-typo.txt"],
         "gnuplot-typo.txt:1: bad value for gnuplot: 'flase' is not one of"),
        ("alpha-grid-repeated", ["sweep-alpha", "--alpha-grid", "0.5,0.3,0.5"],
         "--alpha-grid repeats 0.5"),
        ("protocols-repeated", ["sweep-noise", "--model", "1", "--protocols", "static,static"],
         "--protocols repeats 'static'"),
        ("csv-columns", ["fit", "--csv", "{tmp}/columns.csv"], "is not a campaign CSV"),
        ("csv-row", ["fit", "--csv", "{tmp}/row.csv"],
         "row.csv:3: invalid literal for int() with base 10: 'abc'"),
        ("csv-nan", ["fit", "--csv", "{tmp}/nan.csv"], "nan.csv:3: number 'nan' is not finite"),
        ("csv-n-zero", ["fit", "--csv", "{tmp}/n-zero.csv"],
         "n-zero.csv:3: N must be >= 1 and mean_infidelity >= 0, got 0, 0.05"),
        ("csv-n-negative", ["fit", "--csv", "{tmp}/n-negative.csv"],
         "n-negative.csv:3: N must be >= 1 and mean_infidelity >= 0, got -100, 0.05"),
        ("csv-mean-negative", ["fit", "--csv", "{tmp}/mean-negative.csv"],
         "mean-negative.csv:3: N must be >= 1 and mean_infidelity >= 0, got 200, -0.1"),
        # CSVs that parse but that no power law fits: rows that share one N,
        # an N past the float range, a fitted beta or sigma_beta past it.
        ("csv-one-n", ["fit", "--csv", "{tmp}/one-n.csv"],
         "one-n.csv: cannot fit: power-law fit needs at least two distinct x values"),
        ("csv-n-huge", ["fit", "--csv", "{tmp}/n-huge.csv"],
         "n-huge.csv: cannot fit: int too large to convert to float"),
        ("csv-beta-overflow", ["fit", "--csv", "{tmp}/beta-overflow.csv"],
         "beta-overflow.csv: cannot fit: math range error"),
        ("csv-sigma-overflow", ["fit", "--csv", "{tmp}/sigma-overflow.csv"],
         "sigma-overflow.csv: cannot fit: Out of range float values are not JSON compliant"),
        # A flag or config-file key the command would not use.  Each of these
        # runs at small reps where it is accepted.
        ("error-axis-model-none", ["run", "--error-axis", "0,0,1", "--n", "60", "--reps", "2"],
         "--error-axis needs --model 3, got --model none"),
        # A model without an E would run error-free while provenance records it.
        ("model-without-e", ["run", "--model", "3", "--error-axis", "0,0,1", "--reps", "2",
                             "--n-grid", "60,120,240"], "--model 3 needs a nonzero --e"),
        ("model-e-zero-sweep-alpha", ["sweep-alpha", "--model", "1", "--e", "0",
                                      "--n-grid", "60,120,240", "--reps", "2"],
         "--model 1 needs a nonzero --e"),
        ("error-axis-model-1", ["run", "--model", "1", "--e", "0.01", "--error-axis", "0,0,1",
                                "--n", "60", "--reps", "2"],
         "--error-axis needs --model 3, got --model 1"),
        ("error-axis-model-2", ["sweep-alpha", "--config", "{tmp}/axis.txt", "--model", "2",
                                "--e", "0.01", "--n-grid", "60,120,240", "--reps", "2"],
         "--error-axis needs --model 3, got --model 2"),
        ("alpha-static", ["run", "--alpha", "0.3", "--n", "60", "--reps", "2"],
         "--alpha 0.3 is used by none of the protocols static"),
        ("alpha-config-adaptive-pow", ["run", "--protocol", "adaptive-pow", "--config",
                                       "{tmp}/alpha.txt", "--n", "60", "--reps", "2"],
         "--alpha 0.3 is used by none of the protocols adaptive-pow"),
        ("alpha-sweep-noise", ["sweep-noise", "--model", "1", "--protocols", "static,known-basis",
                               "--alpha", "0.3", "--e-grid", "0.01", "--reps", "2"],
         "--alpha 0.3 is used by none of the protocols static, known-basis"),
        ("exponent-adaptive", ["run", "--protocol", "adaptive", "--exponent", "0.5",
                               "--n", "60", "--reps", "2"],
         "--exponent 0.5 is used by none of the protocols adaptive"),
    ]

    @pytest.mark.parametrize("argv, message", [case[1:] for case in USAGE_ERRORS],
                             ids=[case[0] for case in USAGE_ERRORS])
    def test_usage_errors(self, argv, message, tmp_path, capsys, monkeypatch):
        (tmp_path / "no-equals.txt").write_text("seed 3\n")
        (tmp_path / "axis.txt").write_text("error-axis = 0,0,1\n")
        (tmp_path / "alpha.txt").write_text("alpha = 0.3\n")
        (tmp_path / "reps-twice.txt").write_text("reps = 2\n# comment\nreps = 3\n")
        (tmp_path / "gnuplot-on.txt").write_text("gnuplot = on\n")
        (tmp_path / "gnuplot-typo.txt").write_text("gnuplot = flase\n")
        (tmp_path / "columns.csv").write_text("protocol,n\r\nstatic,100\r\n")
        (tmp_path / "latin1.csv").write_bytes("protocol,N,mean_infidelity\r\ncaf\u00e9,100,0.1\r\n"
                                              .encode("latin-1"))
        for name, points in (("row", ((100, 0.1), ("abc", 0.05))),
                             ("nan", ((100, 0.1), (200, "nan"), (400, 0.02))),
                             ("n-zero", ((100, 0.1), (0, 0.05), (400, 0.02))),
                             ("n-negative", ((100, 0.1), (-100, 0.05), (400, 0.02))),
                             ("mean-negative", ((100, 0.1), (200, -0.1), (400, 0.02))),
                             ("one-n", ((100, 0.1), (100, 0.05), (100, 0.02))),
                             ("n-huge", ((100, 0.1), (200, 0.05), (10**400, 0.02))),
                             ("beta-overflow", ((100, 1e308), (200, 1e-308), (400, 1e-4))),
                             ("sigma-overflow", ((10, 1e-25), (11, 1e-300), (12, 1e-50)))):
            (tmp_path / f"{name}.csv").write_text(
                "protocol,N,reps,mean_infidelity,stderr,seed\r\n"
                + "".join(f"static,{n},2,{mean},0.01,0\r\n" for n, mean in points))
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
        argv += ["--out", str(tmp_path / "out" / "deep")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert message in err
        # A usage error creates no output directory.
        assert not (tmp_path / "out").exists()

        # Refused before any campaign runs: with every campaign failing, the
        # outcome is the same.
        def ran(spec):
            raise AssertionError("a campaign ran")

        monkeypatch.setattr(cli, "run_campaign", ran)
        monkeypatch.setattr(harness, "run_campaign", ran)
        assert main(argv) == 2
        assert capsys.readouterr().err == err
        assert not (tmp_path / "out").exists()

    def test_alpha_sweep_needs_three_sample_sizes(self, tmp_path, capsys):
        argv = ["sweep-alpha", "--n-grid", "100,200", "--reps", "2", "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "needs >= 3 sample sizes, got (100, 200)" in err
        assert not (tmp_path / "out").exists()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: adaptive-tomo")
        assert main(["run", "-h"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: adaptive-tomo run") and "--protocol" in out

    def test_parser_is_built_once_and_keeps_no_state(self):
        assert cli._build_parser() is cli._build_parser()
        # Flags shared by both commands (alpha, model, error axis) would show
        # a value left behind by the previous parse.
        argvs = (
            ["run", "--protocol", "adaptive", "--bogus"],
            ["run", "--protocol", "adaptive", "--alpha", "0.3", "--model", "3",
             "--e", "0.1", "--error-axis", "0,0,1", "--n-grid", "100,200", "--reps", "4"],
            ["sweep-noise", "--model", "1", "--e-grid", "0.01,0.02"],
        )

        def outcome(argv):
            try:
                return parse_config(argv)
            except UsageError as exc:
                return str(exc)

        fresh = []
        for argv in argvs:
            cli._build_parser.cache_clear()
            fresh.append(outcome(argv))
        assert isinstance(fresh[0], str) and fresh[2].alpha == 0.5
        for _ in range(2):
            assert [outcome(argv) for argv in argvs] == fresh


class TestFixturesCommand:
    def test_prints_sanity_values(self, capsys, tmp_path, monkeypatch):
        # fixtures writes no file, so it creates nothing in the working directory.
        monkeypatch.chdir(tmp_path)
        assert main(["fixtures"]) == 0
        assert not any(tmp_path.iterdir())
        out = capsys.readouterr().out
        purity_line = [l for l in out.splitlines() if l.startswith("purity(eq10)")][0]
        fid_line = [l for l in out.splitlines() if l.startswith("F(eq10, eq7)")][0]
        assert abs(float(purity_line.split("=")[1]) - 0.991) < 1e-3
        assert abs(float(fid_line.split("=")[1]) - 0.992) < 1e-3


class TestRunCommand:
    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = ["run", "--protocol", "adaptive", "--n-grid", "60,120,240",
                "--reps", "2", "--seed", "3"]
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(dir_a)]) == 0
        assert main(args + ["--out", str(dir_b)]) == 0
        assert (dir_a / "campaign.csv").read_bytes() == (dir_b / "campaign.csv").read_bytes()
        assert (dir_a / "fit.json").read_bytes() == (dir_b / "fit.json").read_bytes()

    def test_the_default_axis_given_names_the_default_campaign(self, tmp_path, capsys):
        # The axis as provenance.json records the default writes the default's files.
        argv = ["run", "--model", "3", "--e", "0.01", "--n-grid", "100,1000,10000",
                "--reps", "20"]
        default, given = tmp_path / "default", tmp_path / "given"
        assert main(argv + ["--out", str(default)]) == 0
        axis = json.loads((default / "provenance.json").read_text())["config"]["error_axis"]
        assert main(argv + ["--error-axis", ",".join(map(repr, axis)), "--out", str(given)]) == 0
        for name in ("campaign.csv", "fit.json"):
            assert (default / name).read_bytes() == (given / name).read_bytes()

    def test_fit_reads_a_csv_that_starts_with_a_byte_order_mark(self, tmp_path, capsys):
        # A spreadsheet's "CSV UTF-8" starts with one.
        run_dir, fit_dir = tmp_path / "run", tmp_path / "fit"
        assert main(["run", "--n-grid", "60,120,240", "--reps", "3", "--out", str(run_dir)]) == 0
        bom_csv = tmp_path / "bom.csv"
        bom_csv.write_bytes(b"\xef\xbb\xbf" + (run_dir / "campaign.csv").read_bytes())
        assert main(["fit", "--csv", str(bom_csv), "--out", str(fit_dir)]) == 0
        assert (fit_dir / "fit.json").read_bytes() == (run_dir / "fit.json").read_bytes()

    def test_csv_schema(self, tmp_path, capsys):
        assert main(["run", "--n", "600", "--reps", "2", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "campaign.csv").read_bytes().split(b"\r\n")
        assert lines[0] == b"protocol,N,reps,mean_infidelity,stderr,seed"
        fields = lines[1].split(b",")
        assert fields[0] == b"static"
        assert int(fields[1]) == 600
        mean = float(fields[3])
        assert len(fields[3].split(b".")[-1]) >= 12 or b"e" in fields[3]
        assert 0.0 <= mean < 1.0

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
    def test_outputs_are_created_under_the_umask(self, umask, tmp_path, capsys):
        # Every output file gets mode 0o666 less the umask, as a new file
        # would, and no temporary file is left behind.
        old = os.umask(umask)
        try:
            assert main(["run", "--n-grid", "60,120,240", "--reps", "2", "--gnuplot",
                         "--out", str(tmp_path)]) == 0
        finally:
            os.umask(old)
        modes = {path.name: stat.S_IMODE(path.stat().st_mode) for path in tmp_path.iterdir()}
        names = ["campaign.csv", "campaign.gp", "fit.json", "provenance.json"]
        assert modes == dict.fromkeys(names, 0o666 & ~umask)

    def test_stdout_summary(self, tmp_path, capsys):
        main(["run", "--n", "600", "--reps", "2", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert "static N=600 reps=2" in out

    def test_fit_round_trip_bit_for_bit(self, tmp_path, capsys):
        run_dir, fit_dir = tmp_path / "run", tmp_path / "fit"
        assert main(["run", "--protocol", "reduced-adaptive", "--n-grid", "90,300,900",
                     "--reps", "3", "--seed", "5", "--out", str(run_dir)]) == 0
        assert main(["fit", "--csv", str(run_dir / "campaign.csv"),
                     "--out", str(fit_dir)]) == 0
        assert (run_dir / "fit.json").read_bytes() == (fit_dir / "fit.json").read_bytes()

    @pytest.mark.parametrize("grid", ["100,200", "100,200,400"],
                             ids=["2-points", "3-points"])
    def test_fit_reproduces_run_on_any_grid(self, grid, tmp_path, capsys):
        # With fewer than 3 points run writes no fit, and neither does fit.
        run_dir, fit_dir = tmp_path / "run", tmp_path / "fit"
        assert main(["run", "--n-grid", grid, "--reps", "3", "--out", str(run_dir)]) == 0
        assert main(["fit", "--csv", str(run_dir / "campaign.csv"),
                     "--out", str(fit_dir)]) == 0
        assert (run_dir / "fit.json").read_bytes() == (fit_dir / "fit.json").read_bytes()

    @pytest.mark.parametrize("argv", [
        ["run", "--protocol", "adaptive-pow", "--n-grid", "60,120", "--reps", "2",
         "--seed", "11"],
        ["sweep-alpha", "--alpha-grid", "0.3,0.6", "--n-grid", "60,120,240", "--reps", "2",
         "--model", "3", "--e", "0.05", "--error-axis", "0,1,1"],
        ["sweep-noise", "--model", "3", "--protocols", "known-basis,static",
         "--e-grid", "0.05,0.1", "--error-axis", "1,0,1", "--reps", "4"],
        ["fit", "--csv", "campaign.csv"],
    ], ids=["run", "sweep-alpha", "sweep-noise", "fit"])
    def test_provenance_round_trip(self, argv, tmp_path, capsys, monkeypatch):
        # JSON turns every tuple field (n_grid, alphas, protocols, e_grid,
        # error_axis) into a list; the rebuilt RunConfig must hold tuples again.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "campaign.csv").write_text(
            "protocol,N,reps,mean_infidelity,stderr,seed\r\n"
            "static,100,2,0.1,0.01,0\r\n"
            "static,200,2,0.05,0.01,0\r\n"
            "static,400,2,0.02,0.01,0\r\n"
        )
        argv = argv + ["--out", str(tmp_path / "out")]
        expected = parse_config(argv)
        assert main(argv) == 0
        payload = json.loads((tmp_path / "out" / "provenance.json").read_text())
        assert config_from_provenance(payload) == expected
        assert payload["stream_version"] == 4
        assert payload["estimator_version"] == 4
        assert set(payload["environment"]) == {"python", "numpy", "platform", "nproc"}

    def test_provenance_from_another_version_is_refused(self):
        # The config section of a stream-v2 provenance.json written while
        # RunConfig still had the no-op ``threads`` field.
        config = {
            "command": "run", "protocol": "adaptive-pow", "alpha": 0.5,
            "exponent": 0.6666666666666666, "state": "eq7", "n_grid": [60, 120], "reps": 2,
            "model": "none", "e_value": 0.0,
            "error_axis": [0.8944271909999159, 0.4472135954999579, 0.0], "seed": 11,
            "out_dir": "results", "threads": 1, "alphas": [0.1, 0.3, 0.5, 0.7, 0.9],
            "protocols": ["static", "adaptive"], "e_grid": [], "n_start": 1000,
            "n_cap": 20000000, "csv_path": "", "gnuplot": False,
        }
        payload = {"artifact_version": "0.1.0", "stream_version": 2, "config": config}
        # A re-run at this engine's versions would draw other numbers.
        with pytest.raises(UsageError, match="provenance has stream_version 2, this engine 4"):
            config_from_provenance(payload)
        payload.update(stream_version=4, estimator_version=3)
        with pytest.raises(UsageError, match="estimator_version 3, this engine 4"):
            config_from_provenance(payload)
        del payload["estimator_version"]
        with pytest.raises(UsageError, match="estimator_version None, this engine 4"):
            config_from_provenance(payload)

    def test_provenance_with_a_key_runconfig_lacks_is_refused(self):
        # A sweep-noise provenance.json written while the floor search still
        # took the ladder bounds --n-start and --n-cap.
        config = dataclasses.asdict(cli.RunConfig(command="sweep-noise", model="1"))
        config.update(n_start=1000, n_cap=20000000)
        payload = {"stream_version": 4, "estimator_version": 4,
                   "config": json.loads(json.dumps(config))}
        with pytest.raises(UsageError, match="^provenance config has keys this engine lacks: "
                                             "n_cap, n_start$"):
            config_from_provenance(payload)
        del payload["config"]["n_cap"]
        with pytest.raises(UsageError, match="engine lacks: n_start$"):
            config_from_provenance(payload)
        del payload["config"]["n_start"]
        assert config_from_provenance(payload) == cli.RunConfig(command="sweep-noise", model="1")

    def test_provenance_without_a_config_object_is_refused(self):
        with pytest.raises(UsageError, match="^provenance has no config object$"):
            config_from_provenance({"stream_version": 4, "estimator_version": 4})
        with pytest.raises(UsageError, match="^provenance config has no command$"):
            config_from_provenance({"stream_version": 4, "estimator_version": 4,
                                    "config": {"reps": 2}})

    @pytest.mark.parametrize("key, value, message", [
        ("reps", "2", "reps must be int, got str '2'"),
        ("seed", True, "seed must be int, got bool True"),
        ("alpha", "0.5", "alpha must be float, got str '0.5'"),
        ("n_grid", [60, 120.5], r"n_grid must be tuple\[int, \.\.\.\], got list \[60, 120.5\]"),
        ("protocols", "static", r"protocols must be tuple\[str, \.\.\.\], got str 'static'"),
        ("gnuplot", 1, "gnuplot must be bool, got int 1"),
    ])
    def test_provenance_value_of_another_type_is_refused(self, key, value, message):
        # Refused here, naming the key and its type, not later by ``execute``.
        config = dataclasses.asdict(cli.RunConfig(command="run", n_grid=(60, 120)))
        payload = {"stream_version": 4, "estimator_version": 4,
                   "config": {**json.loads(json.dumps(config)), key: value}}
        with pytest.raises(UsageError, match=f"^provenance config {message}$"):
            config_from_provenance(payload)

    def test_provenance_float_written_without_a_fraction_is_taken(self):
        config = dataclasses.asdict(cli.RunConfig(command="run", model="3", e_value=1.0))
        config = {**json.loads(json.dumps(config)), "e_value": 1}
        payload = {"stream_version": 4, "estimator_version": 4, "config": config}
        assert config_from_provenance(payload) == cli.RunConfig(command="run", model="3",
                                                                e_value=1.0)

    def test_provenance_of_a_model_without_e_is_refused(self):
        # Earlier releases ran --model 1 with E = 0 error-free; this engine
        # would run PerSettingError(0) under another campaign hash.
        config = dataclasses.asdict(cli.RunConfig(command="run", model="1", n_grid=(60, 120)))
        payload = {"stream_version": 4, "estimator_version": 4,
                   "config": json.loads(json.dumps(config))}
        with pytest.raises(UsageError, match="--model 1 needs a nonzero --e"):
            config_from_provenance(payload)

    def test_provenance_records_the_default_e_grid(self, tmp_path, capsys):
        assert main(["sweep-noise", "--model", "1", "--protocols", "static", "--reps", "2",
                     "--out", str(tmp_path)]) == 0
        provenance = json.loads((tmp_path / "provenance.json").read_text())
        fit = json.loads((tmp_path / "fit.json").read_text())
        ran = [floor["e"] for floor in fit["noise_floors"][0]["floors"]]
        assert len(ran) == 5 and provenance["config"]["e_grid"] == ran

    def test_error_model_flags(self, tmp_path, capsys):
        assert main(["run", "--model", "3", "--e", "0.01",
                     "--error-axis", "0,1,0", "--n", "120", "--reps", "2",
                     "--out", str(tmp_path)]) == 0

    def test_gnuplot_emission(self, tmp_path, capsys):
        assert main(["run", "--n-grid", "60,120", "--reps", "2", "--gnuplot",
                     "--out", str(tmp_path)]) == 0
        assert "logscale" in (tmp_path / "campaign.gp").read_text()

    def test_output_dir_from_environment(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "envout"))
        assert main(["run", "--n", "60", "--reps", "2"]) == 0
        assert (tmp_path / "envout" / "campaign.csv").exists()

    def test_runtime_failure_exit_code(self, tmp_path, capsys):
        # A zero mean infidelity is left out of the fit, not a failure.
        csv_path = tmp_path / "zero.csv"
        csv_path.write_text(
            "protocol,N,reps,mean_infidelity,stderr,seed\r\n"
            "static,100,2,0.1,0.01,0\r\n"
            "static,200,2,0.05,0.01,0\r\n"
            "static,400,2,0.0,0.0,0\r\n"
            "static,800,2,0.02,0.01,0\r\n"
        )
        assert main(["fit", "--csv", str(csv_path), "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        [entry] = json.loads((tmp_path / "fit.json").read_text())["fits"]
        fit = harness.fit_power_law([(100, 0.1), (200, 0.05), (800, 0.02)])
        assert entry == {"protocol": "static", **dataclasses.asdict(fit), "fit_range": [100, 800]}

    def test_zero_mean_csv_has_no_fit_entry(self, tmp_path, capsys):
        # Two nonzero means are too few to fit, so the zero-mean CSV has no
        # fit entry.
        csv_path = tmp_path / "campaign.csv"
        csv_path.write_text("protocol,N,reps,mean_infidelity,stderr,seed\r\n" + "".join(
            f"static,{n},2,{mean},0.01,0\r\n" for n, mean in ((100, 0.1), (200, 0.05), (400, 0.0))))
        assert main(["fit", "--csv", str(csv_path), "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""
        assert json.loads((tmp_path / "out" / "fit.json").read_text()) == {"fits": []}

    def test_zero_mean_is_left_out_of_the_fit(self, tmp_path, capsys):
        # Every fit at a grid point can hit a pure truth: that mean is 0.
        argv = ["run", "--state", "1,0,0", "--reps", "2", "--n-grid", "6,12,24"]
        assert main(argv + ["--out", str(tmp_path / "short")]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3
        assert sorted(os.listdir(tmp_path / "short")) == [
            "campaign.csv", "fit.json", "provenance.json"]
        assert "static,12,2,0,0,0\n" in (tmp_path / "short" / "campaign.csv").read_text()
        assert json.loads((tmp_path / "short" / "fit.json").read_text()) == {"fits": []}
        # Four nonzero means of five: the fit spans them, and ``fit`` of the
        # CSV writes the same fit.json.
        run, refit = tmp_path / "run", tmp_path / "refit"
        assert main(["run", "--state", "1,0,0", "--reps", "2", "--n-grid", "6,12,24,48,96",
                     "--seed", "3", "--out", str(run)]) == 0
        assert "static,6,2,0,0,3\n" in (run / "campaign.csv").read_text()
        [fit] = json.loads((run / "fit.json").read_text())["fits"]
        assert fit["fit_range"] == [12, 96]
        assert main(["fit", "--csv", str(run / "campaign.csv"), "--out", str(refit)]) == 0
        assert (refit / "fit.json").read_bytes() == (run / "fit.json").read_bytes()

    def test_sample_sizes_beyond_int64_are_fitted(self, tmp_path, capsys):
        # Each setting's share stays below the sampler's 2**63 - 1 shots.
        assert main(["run", "--n-grid", "1e19,2e19,2.7e19", "--reps", "2",
                     "--out", str(tmp_path)]) == 0
        [fit] = json.loads((tmp_path / "fit.json").read_text())["fits"]
        assert fit["fit_range"] == [10**19, 27 * 10**18]


class TestSweepCommands:
    def test_alpha_sweep_outputs(self, tmp_path, capsys):
        assert main(["sweep-alpha", "--alpha-grid", "0.3,0.5", "--n-grid", "60,120,240",
                     "--reps", "2", "--seed", "13", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "fit.json").read_text())
        assert [e["alpha"] for e in payload["alpha_sweep"]] == [0.3, 0.5]
        body = (tmp_path / "campaign.csv").read_text()
        assert "adaptive(alpha=0.3)" in body and "adaptive(alpha=0.5)" in body

    def test_alpha_sweep_leaves_out_an_alpha_without_a_fit(self, tmp_path, capsys):
        assert main(["sweep-alpha", "--state", "1,0,0", "--alpha-grid", "0.5", "--n-grid",
                     "6,12,24", "--reps", "2", "--seed", "11", "--out", str(tmp_path / "a")]) == 0
        assert capsys.readouterr().out == "alpha=0.5 no fit\n"
        assert sorted(os.listdir(tmp_path / "a")) == [
            "campaign.csv", "fit.json", "provenance.json"]
        csv_text = (tmp_path / "a" / "campaign.csv").read_text()
        assert "adaptive(alpha=0.5),12,2,0,0,11\n" in csv_text
        assert json.loads((tmp_path / "a" / "fit.json").read_text()) == {"alpha_sweep": []}
        # At seed 37 only alpha = 0.75 has a zero mean among its three.
        assert main(["sweep-alpha", "--state", "1,0,0", "--alpha-grid", "0.25,0.5,0.75",
                     "--n-grid", "12,24,48", "--reps", "2", "--seed", "37",
                     "--out", str(tmp_path / "b")]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 3 and out[2] == "alpha=0.75 no fit" and "no fit" not in out[1]
        entries = json.loads((tmp_path / "b" / "fit.json").read_text())["alpha_sweep"]
        assert [entry["alpha"] for entry in entries] == [0.25, 0.5]

    def test_alpha_sweep_error_model_flags_match_config_file(self, tmp_path, capsys):
        argv = ["sweep-alpha", "--alpha-grid", "0.3,0.5", "--n-grid", "60,120,240",
                "--reps", "2", "--seed", "13"]
        flags, from_file, aligned = tmp_path / "flags", tmp_path / "file", tmp_path / "none"
        cfg = tmp_path / "config.txt"
        cfg.write_text("model = 3\ne = 0.05\nerror-axis = 0,1,0\n")
        assert main(argv + ["--model", "3", "--e", "0.05", "--error-axis", "0,1,0",
                            "--out", str(flags)]) == 0
        assert main(argv + ["--config", str(cfg), "--out", str(from_file)]) == 0
        assert main(argv + ["--out", str(aligned)]) == 0
        for name in ("campaign.csv", "fit.json"):
            assert (flags / name).read_bytes() == (from_file / name).read_bytes()
        assert (flags / "campaign.csv").read_bytes() != (aligned / "campaign.csv").read_bytes()

    def test_alpha_sweep_writes_what_the_harness_returns(self, tmp_path, capsys):
        assert main(["sweep-alpha", "--alpha-grid", "0.3,0.5", "--n-grid", "60,120,240",
                     "--reps", "2", "--seed", "13", "--out", str(tmp_path)]) == 0
        base = CampaignSpec(Adaptive(0.5), EQ7_BLOCH, (60, 120, 240), reps=2, seed=13)
        sweep = alpha_sweep([0.3, 0.5], base)
        with open(tmp_path / "campaign.csv", newline="", encoding="utf-8") as fh:
            rows = [(r["protocol"], int(r["N"]), int(r["reps"]), float(r["mean_infidelity"]),
                     float(r["stderr"]), int(r["seed"])) for r in csv.DictReader(fh)]
        assert rows == [
            (f"adaptive(alpha={alpha})", row.n, result.spec.reps, row.mean_infidelity, row.stderr,
             13)
            for alpha, result, _ in sweep for row in result.rows
        ]
        entries = json.loads((tmp_path / "fit.json").read_text())["alpha_sweep"]
        assert entries == [
            {"protocol": f"adaptive(alpha={alpha})", "beta": fit.beta, "p": fit.p,
             "sigma_p": fit.sigma_p, "sigma_beta": fit.sigma_beta,
             "fit_range": list(fit.fit_range), "alpha": alpha}
            for alpha, _, fit in sweep
        ]

    def test_noise_sweep_outputs(self, tmp_path, capsys):
        assert main(["sweep-noise", "--model", "1", "--protocols", "static,adaptive",
                     "--e-grid", "0.02,0.035,0.06", "--reps", "40",
                     "--seed", "17", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "fit.json").read_text())
        entries = payload["noise_floors"]
        assert [e["protocol"] for e in entries] == ["static", "adaptive(alpha=0.5)"]
        for entry in entries:
            assert "slope" in entry
            assert len(entry["floors"]) == 3
        floors_csv = (tmp_path / "floors.csv").read_text()
        assert floors_csv.startswith("protocol,E,floor_infidelity,stderr,seed\n")
        # One line per (protocol, E), then the protocol's slope.
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 8 and lines[0].startswith("static E=0.02 floor=")
        assert lines[3] == f"static: floor slope vs E = {entries[0]['slope']:.3f}"

    def test_noise_sweep_requires_model(self, tmp_path, capsys):
        assert main(["sweep-noise", "--protocols", "static",
                     "--out", str(tmp_path)]) == 2

    def test_noise_sweep_fits_expected_counts_near_n(self, tmp_path, capsys):
        # At N = 1e15 the adapted axis of a nearly pure state carries expected
        # counts near N, whose hedged weight dwarfs the other settings'.
        assert main(["sweep-noise", "--model", "1", "--protocols", "reduced-adaptive",
                     "--e-grid", "1e-4,3e-4,1e-3,3e-3", "--out", str(tmp_path)]) == 0


class TestRuntimeFailureExitCodes:
    """Solver and budget failures exit with status 1 and the config context."""

    ARGV = ["run", "--protocol", "adaptive", "--n", "1000", "--reps", "20", "--seed", "4"]

    def run_failing(self, tmp_path, capsys, error):
        assert main(self.ARGV + ["--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert error in err
        assert "protocol=adaptive" in err and "n_grid=(1000,)" in err
        assert not (tmp_path / "out").exists()

    def test_unanticipated_exception(self, tmp_path, capsys, monkeypatch):
        def broken(spec):
            raise KeyError("lost key")

        monkeypatch.setattr(cli, "run_campaign", broken)
        self.run_failing(tmp_path, capsys, "error: KeyError: 'lost key'")

    def test_sweep_failure_names_the_sweep_options(self, tmp_path, capsys, monkeypatch):
        import adaptive_tomo.estimation as estimation

        monkeypatch.setattr(estimation, "_NEWTON_MAX_ITER", 0)
        assert main(["sweep-noise", "--model", "1", "--protocols", "static",
                     "--e-grid", "0.05", "--reps", "10", "--seed", "4",
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: RuntimeError: boundary Newton iteration")
        assert "Traceback" not in err
        assert "protocols=('static',)" in err and "e_grid=(0.05,)" in err
        # run's options, which the sweep ignores, are not named.
        assert "n_grid" not in err and "protocol=" not in err
        # The failing point of the sweep is.
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "; at static, E=0.05 (" in errors[0]

    def test_sweep_alpha_failure_names_the_alpha(self, tmp_path, capsys, monkeypatch):
        import adaptive_tomo.estimation as estimation

        monkeypatch.setattr(estimation, "_NEWTON_MAX_ITER", 0)
        assert main(["sweep-alpha", "--alpha-grid", "0.5,0.3", "--n-grid", "1000,2000,4000",
                     "--reps", "20", "--seed", "4", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "Traceback" not in err
        assert errors[0].startswith("error: RuntimeError: boundary Newton iteration")
        assert "; at alpha=0.5 (" in errors[0] and "alphas=(0.5, 0.3)" in errors[0]

    def test_unwritable_output_directory(self, tmp_path, capsys):
        out = tmp_path / "a-file"
        out.write_text("")
        assert main(self.ARGV + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: FileExistsError: ") and "protocol=adaptive" in err
        # An output file that cannot be replaced: its temporary file is removed.
        out = tmp_path / "out"
        (out / "campaign.csv").mkdir(parents=True)
        assert main(self.ARGV + ["--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: IsADirectoryError: ")
        assert [path.name for path in out.iterdir()] == ["campaign.csv"]

    def test_diverged_boundary_search(self, tmp_path, capsys, monkeypatch):
        import adaptive_tomo.protocols as protocols

        final_fit = protocols.mle_batch

        def diverging_preliminary_fit(axes, shots, n_plus):
            if len(shots) == 3:
                raise RuntimeError("boundary multiplier search diverged")
            return final_fit(axes, shots, n_plus)

        monkeypatch.setattr(protocols, "mle_batch", diverging_preliminary_fit)
        self.run_failing(tmp_path, capsys, "RuntimeError: boundary multiplier search diverged")

    def test_newton_iteration_cap(self, tmp_path, capsys, monkeypatch):
        import adaptive_tomo.estimation as estimation

        monkeypatch.setattr(estimation, "_NEWTON_MAX_ITER", 0)
        self.run_failing(tmp_path, capsys, "RuntimeError: boundary Newton iteration")

    def test_budget_leak(self, tmp_path, capsys, monkeypatch):
        import adaptive_tomo.protocols as protocols

        def ran(spec):
            raise KeyError("a campaign ran")

        # The leak is refused when the campaign is built, before it runs.
        monkeypatch.setattr(cli, "run_campaign", ran)
        monkeypatch.setattr(protocols, "_split", lambda total, parts: [total // 3] * parts)
        self.run_failing(tmp_path, capsys, "AssertionError: budget leak")

    def test_scalar_budget_leak(self, monkeypatch):
        import adaptive_tomo.protocols as protocols
        from adaptive_tomo import NoError, RngContext, Static, named_state

        monkeypatch.setattr(protocols, "_split", lambda total, parts: [total // 3] * parts)
        with pytest.raises(AssertionError, match="budget leak"):
            protocols.run_protocol(Static(), named_state("eq7"), 1000, NoError(), RngContext(0))
