import csv
import json

import pytest

from adaptive_tomo import Adaptive, CampaignSpec, alpha_sweep, cli
from adaptive_tomo.cli import (
    OUTPUT_DIR_ENV,
    config_from_provenance,
    main,
    parse_config,
    parse_float,
    parse_float_grid,
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

    def test_alpha_out_of_range(self):
        with pytest.raises(UsageError):
            parse_config(["run", "--protocol", "adaptive", "--alpha", "1.5"])

    def test_unknown_state(self):
        with pytest.raises(UsageError):
            parse_config(["run", "--state", "eq99"])

    def test_explicit_bloch_state(self):
        config = parse_config(["run", "--state", "0.1,0.2,0.3"])
        assert config.state == "0.1,0.2,0.3"
        with pytest.raises(UsageError):
            parse_config(["run", "--state", "1.0,1.0,1.0"])

    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "config.txt"
        cfg.write_text("reps = 150\nseed = 9\nprotocol = adaptive\n# comment\n")
        config = parse_config(["run", "--config", str(cfg), "--reps", "10"])
        assert config.reps == 10  # flag wins
        assert config.seed == 9
        assert config.protocol == "adaptive"

    def test_config_file_unknown_key(self, tmp_path):
        cfg = tmp_path / "config.txt"
        cfg.write_text("nonsense = 3\n")
        with pytest.raises(UsageError):
            parse_config(["run", "--config", str(cfg)])

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
                                      ["sweep-alpha", "--protocols", "static"]],
                             ids=["no-command", "unknown-flag", "flag-of-another-command"])
    def test_argparse_error_exit_code(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv, status", [
        (["run", "--e", "nan", "--model", "1"], 2),
        (["run", "--e", "inf", "--model", "1"], 2),
        (["run", "--state", "0.5,0.5,nan"], 2),
        (["run", "--error-axis", "nan,0,0", "--model", "3", "--e", "0.1"], 2),
        (["sweep-noise", "--model", "1", "--e-grid", "0.01,nan"], 2),
        (["run", "--n", "1e400"], 2),
        (["run", "--n", "1e30", "--reps", "2"], 1),
    ], ids=["e-nan", "e-inf", "state-nan", "axis-nan", "e-grid-nan", "n-overflow",
            "n-beyond-sampler"])
    def test_non_finite_or_overflowing_numbers(self, argv, status, tmp_path, capsys):
        if status == 2:
            # Rejected while parsing, before any campaign runs.
            with pytest.raises(UsageError):
                parse_config(argv)
        assert main(argv + ["--out", str(tmp_path)]) == status
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_alpha_sweep_needs_three_sample_sizes(self, capsys):
        argv = ["sweep-alpha", "--n-grid", "100,200", "--reps", "2"]
        with pytest.raises(UsageError, match="needs >= 3 sample sizes"):
            parse_config(argv)
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

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
    def test_prints_sanity_values(self, capsys, tmp_path):
        assert main(["fixtures", "--out", str(tmp_path)]) == 0
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

    def test_provenance_round_trip(self, tmp_path, capsys):
        argv = ["run", "--protocol", "adaptive-pow", "--n-grid", "60,120", "--reps", "2",
                "--seed", "11", "--out", str(tmp_path)]
        expected = parse_config(argv)
        assert main(argv) == 0
        payload = json.loads((tmp_path / "provenance.json").read_text())
        assert config_from_provenance(payload) == expected
        assert payload["stream_version"] == 2
        assert set(payload["environment"]) == {"python", "numpy", "platform", "nproc"}

    def test_provenance_with_the_removed_threads_key_still_loads(self):
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
        assert config_from_provenance(payload) == parse_config(
            ["run", "--protocol", "adaptive-pow", "--n-grid", "60,120", "--reps", "2",
             "--seed", "11", "--out", "results"])

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
        # Two grid points cannot be power-law fitted inside the fit command.
        csv_path = tmp_path / "short.csv"
        csv_path.write_text(
            "protocol,N,reps,mean_infidelity,stderr,seed\r\n"
            "static,100,2,0.1,0.01,0\r\n"
            "static,200,2,0.05,0.01,0\r\n"
        )
        assert main(["fit", "--csv", str(csv_path), "--out", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err


class TestSweepCommands:
    def test_alpha_sweep_outputs(self, tmp_path, capsys):
        assert main(["sweep-alpha", "--alpha-grid", "0.3,0.5", "--n-grid", "60,120,240",
                     "--reps", "2", "--seed", "13", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "fit.json").read_text())
        assert [e["alpha"] for e in payload["alpha_sweep"]] == [0.3, 0.5]
        body = (tmp_path / "campaign.csv").read_text()
        assert "adaptive(alpha=0.3)" in body and "adaptive(alpha=0.5)" in body

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
            (f"adaptive(alpha={alpha})", row.n, row.reps, row.mean_infidelity, row.stderr, 13)
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
                     "--n-start", "500", "--n-cap", "128000",
                     "--seed", "17", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "fit.json").read_text())
        entries = payload["noise_floors"]
        assert [e["protocol"] for e in entries] == ["static", "adaptive(alpha=0.5)"]
        for entry in entries:
            assert "slope" in entry
            assert len(entry["floors"]) == 3
        floors_csv = (tmp_path / "floors.csv").read_text()
        assert floors_csv.startswith("protocol,E,converged,floor_infidelity")

    def test_noise_sweep_requires_model(self, tmp_path, capsys):
        assert main(["sweep-noise", "--protocols", "static",
                     "--out", str(tmp_path)]) == 2


class TestRuntimeFailureExitCodes:
    """Solver and budget failures exit with status 1 and the config context."""

    ARGV = ["run", "--protocol", "adaptive", "--n", "1000", "--reps", "20", "--seed", "4"]

    def run_failing(self, tmp_path, capsys, error):
        assert main(self.ARGV + ["--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert error in err
        assert "protocol=adaptive" in err and "n_grid=(1000,)" in err

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

        monkeypatch.setattr(protocols, "_split_three", lambda total: [total // 3] * 3)
        self.run_failing(tmp_path, capsys, "AssertionError: budget leak")

    def test_scalar_budget_leak(self, monkeypatch):
        import adaptive_tomo.protocols as protocols
        from adaptive_tomo import NoError, RngContext, Static, named_state

        monkeypatch.setattr(protocols, "_split_three", lambda total: [total // 3] * 3)
        with pytest.raises(AssertionError, match="budget leak"):
            protocols.run_protocol(Static(), named_state("eq7"), 1000, NoError(), RngContext(0))
