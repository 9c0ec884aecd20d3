import os
import subprocess
import sys

import numpy as np
import pytest

from twistedma import BicomplexGrid, ScalarField, save_field
from twistedma.cli import EXIT_CODES, load_config, main, report, run_scenario
from twistedma.errors import ConfigError

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")
SRC = os.path.join(os.path.dirname(__file__), "..", "src")
SCENARIOS = ["flat_stationary.cfg", "finite_tau_star.cfg",
             "cosine_decay.cfg", "sin_forcing_barrier.cfg"]


def scenario(name):
    return os.path.join(SCENARIO_DIR, name)


class TestLoadConfig:
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_shipped_scenarios_parse(self, name):
        cfg = load_config(scenario(name))
        assert cfg.t_end > 0
        assert cfg.grid.real_dim == 4

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.cfg")

    def test_corrupt_config(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("[grid]\nk = 1\nl = 1\nn = 8\n[run]\nt_end = -3\n")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_unknown_forcing(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("[grid]\nk = 1\nl = 1\nn = 8\n"
                     "[background]\nforcing = sawtooth\n[run]\nt_end = 0.1\n")
        with pytest.raises(ConfigError):
            load_config(p)


class TestRunScenario:
    def test_flat_stationary_artifacts(self, tmp_path):
        code, lines = run_scenario(scenario("flat_stationary.cfg"), tmp_path)
        assert code == 0
        for fname in ("monitor.csv", "initial.bin", "final.bin",
                      "violations_sub.csv", "violations_super.csv",
                      "summary.txt"):
            assert (tmp_path / fname).exists()
        assert any(l.startswith("checks_passed = True") for l in lines)

    def test_tau_star_guard(self, tmp_path):
        # shipped config stays below tau_star; pushing t_end past it trips
        cfg = load_config(scenario("finite_tau_star.cfg"))
        cfg.t_end = 10.0
        with pytest.raises(ConfigError):
            run_scenario(cfg, tmp_path)

    def test_tau_star_override_runs_until_breakdown(self, tmp_path):
        from twistedma.errors import NotAdmissible
        cfg = load_config(scenario("finite_tau_star.cfg"))
        cfg.t_end = 10.0
        with pytest.raises(NotAdmissible):
            run_scenario(cfg, tmp_path, override_tau_star=True)

    def test_seed_determinism_modulo_comments(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            run_scenario(scenario("cosine_decay.cfg"), d, seed=7)
            lines = (d / "monitor.csv").read_text().split("\n")
            outs.append([l for l in lines if not l.startswith("#")])
        assert outs[0] == outs[1]
        # a run whose checks fail repeats its violation reports too
        failing = tmp_path / "failing.cfg"
        failing.write_text(open(scenario("cosine_decay.cfg")).read()
                           .replace("[checks]", "[checks]\ntolerance = 1e-300"))
        reports = []
        for sub in ("c", "d"):
            d = tmp_path / sub
            assert run_scenario(str(failing), d, seed=7)[0] == 1
            reports.append([[l for l in (d / f"violations_{side}.csv").read_text().split("\n")
                             if l and not l.startswith("#")] for side in ("sub", "super")])
        assert reports[0] == reports[1]
        assert all(len(lines) > 1 for lines in reports[0])


    def test_mutated_config_revalidated(self, tmp_path):
        cfg = load_config(scenario("flat_stationary.cfg"))
        cfg.t_end = float("nan")
        with pytest.raises(ConfigError, match="t_end"):
            run_scenario(cfg, tmp_path)

    def test_seed_override_leaves_config_alone(self, tmp_path):
        cfg = load_config(scenario("flat_stationary.cfg"))
        seed = cfg.seed
        code, _ = run_scenario(cfg, tmp_path, seed=seed + 7)
        assert code == 0
        assert cfg.seed == seed


class TestReport:
    def test_report_lines(self, tmp_path):
        run_scenario(scenario("cosine_decay.cfg"), tmp_path)
        lines = report(tmp_path)
        keys = [l.split(" = ")[0] for l in lines]
        assert keys == ["emissions", "t_final", "sup_u_final",
                        "worst_plus_margin", "worst_minus_margin",
                        "min_barrier_gap_lo", "min_barrier_gap_hi",
                        "fitted_decay_rate"]
        rate = float(lines[-1].split(" = ")[1])
        # flat-background cosine mode decays at about a quarter
        assert rate == pytest.approx(0.25, rel=0.05)

    def test_missing_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            report(tmp_path / "nothing")


class TestMain:
    def test_run_and_report_exit_zero(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert main(["run", scenario("flat_stationary.cfg"),
                     "--out", out]) == 0
        captured = capsys.readouterr().out
        assert "tau_star = inf" in captured
        assert main(["report", out]) == 0

    def test_finite_tau_star_printed(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert main(["run", scenario("finite_tau_star.cfg"),
                     "--out", out]) == 0
        assert "tau_star = 0.5" in capsys.readouterr().out

    def test_corrupt_config_exit_two(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("[run]\nt_end = 0.1\n")
        assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 2

    @staticmethod
    def _file_scenario(tmp_path, field_path):
        p = tmp_path / "file.cfg"
        p.write_text("[grid]\nk = 1\nl = 1\nn = 8\n"
                     f"[initial]\nkind = file\nfile = {field_path}\n"
                     "[run]\nt_end = 0.01\n")
        return str(p)

    def test_missing_initial_file_exit_two(self, tmp_path, capsys):
        cfg = self._file_scenario(tmp_path, tmp_path / "absent.bin")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "absent.bin" in capsys.readouterr().err

    def test_truncated_initial_file_exit_two(self, tmp_path, capsys):
        field = tmp_path / "short.bin"
        save_field(ScalarField.zeros(BicomplexGrid.regular(1, 1, 8)), field)
        field.write_bytes(field.read_bytes()[:-8])
        cfg = self._file_scenario(tmp_path, field)
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "expected 32768" in capsys.readouterr().err

    @pytest.mark.parametrize("old,new", [
        ("t_end = 0.05", "t_end = nan"),
        ("t_end = 0.05", "t_end = inf"),
        ("omega_plus = 1", "omega_plus = nan"),
        ("n = 8", "n = 8\nperiod = nan"),
    ], ids=["t_end_nan", "t_end_inf", "omega_plus_nan", "period_nan"])
    def test_non_finite_value_exit_two(self, tmp_path, capsys, old, new):
        text = open(scenario("flat_stationary.cfg")).read()
        assert old in text
        p = tmp_path / "bad.cfg"
        p.write_text(text.replace(old, new))
        assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("name,old,new,code", [
        ("sin_forcing_barrier.cfg", "forcing_amplitude = 0.5", "forcing_amplitude = 1e308", 3),
        ("sin_forcing_barrier.cfg", "omega_minus = 1", "omega_minus = 1\nzeta_plus = 1e308", 3),
        ("sin_forcing_barrier.cfg", "omega_minus = 1", "omega_minus = 1\nzeta_minus = -1e308", 3),
        ("cosine_decay.cfg", "n = 16", "n = 16\nperiod = 1e-160", 2),
        ("cosine_decay.cfg", "n = 16", "n = 16\nperiod = 1e-170", 2),
    ], ids=["forcing_1e308", "zeta_plus_1e308", "zeta_minus_-1e308",
            "period_1e-160", "period_1e-170"])
    def test_extreme_finite_value_typed_error(self, tmp_path, capsys, name, old, new, code):
        # an overflow inside the flow ends in NotAdmissible at its first
        # point; a spacing whose 1/h^2 overflows is a config error
        text = open(scenario(name)).read()
        assert old in text
        p = tmp_path / "extreme.cfg"
        p.write_text(text.replace(old, new))
        got = main(["run", str(p), "--out", str(tmp_path / "o")])
        assert got == code and got in EXIT_CODES.values()
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert code != 3 or "at point (" in err

    def test_report_missing_dir_exit_one(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nothing")]) == 1

    def test_probe_localization_subcommand(self, tmp_path, capsys):
        out = str(tmp_path / "probe")
        code = main(["probe-localization", "--dim", "1",
                     "--alphas", "1e1,1e2,1e3", "--out", out])
        assert code == 0
        text = capsys.readouterr().out
        assert text.startswith("alpha,distance,hessian_norm")
        assert "reference_exponent = 2.0" in text
        assert os.path.exists(os.path.join(out, "probe.csv"))

    @pytest.mark.parametrize("args", [
        ["--alphas", "1e1"], ["--alphas", "abc,1"], ["--dim", "0"],
        ["--alphas", "1e1,nan"], ["--alphas", "0,1e1"]],
        ids=["one_alpha", "unparseable_alpha", "dim_zero", "nan_alpha",
             "zero_alpha"])
    def test_probe_localization_bad_input_exit_two(self, args, capsys):
        assert main(["probe-localization"] + args) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err + captured.out


@pytest.mark.parametrize("command", ["run", "report"])
def test_closed_stdout_exits_quietly(tmp_path, command):
    # `twistedma report DIR | head -1`: the reader has gone before the
    # command prints, so every write to stdout fails with EPIPE
    out = str(tmp_path / "run")
    run_scenario(scenario("flat_stationary.cfg"), out)
    argv = (["run", scenario("flat_stationary.cfg"), "--out", out]
            if command == "run" else ["report", out])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(SRC), env.get("PYTHONPATH")) if p)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "twistedma.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=env, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert proc.stderr == ""
    assert proc.returncode == 0


def test_exit_codes_distinct():
    codes = list(EXIT_CODES.values())
    assert len(set(codes)) == len(codes)
    assert 0 not in codes and 1 not in codes
