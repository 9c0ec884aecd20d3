import configparser
import contextlib
import dataclasses
import hashlib
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import unittest.mock
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import scipy

import twistedma
from twistedma import (BicomplexGrid, ScalarField, cli, flow, grid, load_field,
                       save_field, viscosity)
from twistedma.cli import EXIT_CODES, load_config, main, report, run_scenario
from twistedma.errors import BarrierViolation, ConfigError, TwistedMAError

from conftest import log_space_violations

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

    @pytest.mark.parametrize("change", [
        {"initial_kind": "bogus"}, {"forcing": "saw"},
        {"forcing": "sin", "forcing_axis": 99}, {"initial_kind": "file"},
        {"omega_plus_diag": np.ones(2)}, {"omega_plus_diag": np.array(["1"])}],
        ids=["unknown_kind", "unknown_forcing", "axis_99", "file_without_path",
             "diagonal_length", "diagonal_str"])
    def test_api_config_validated(self, change):
        # a config built in code obeys the same rules as a parsed one
        with pytest.raises(ConfigError):
            replace(load_config(scenario("cosine_decay.cfg")), **change)

    @pytest.mark.parametrize("field,value", [
        ("forcing_axis", 1.5), ("initial_axis", 1.5), ("initial_mode", True),
        ("emit_every", 10.0), ("seed", 1.5),
        ("zeta_plus", "0"), ("zeta_minus", None), ("forcing_amplitude", True),
        ("initial_amplitude", 1j), ("t_end", "0.1"), ("tolerance", "1e-8"),
        ("safety", np.array([0.5])), ("grid", 1.0), ("forcing", None), ("initial_kind", 1),
        ("initial_file", True), ("check_viscosity", 1.5), ("check_roundtrip", "no")])
    def test_api_config_field_types(self, field, value):
        # each field's type is checked, so a config built in code fails
        # with a ConfigError rather than a TypeError later in the run
        cfg = load_config(scenario("cosine_decay.cfg"))
        with pytest.raises(ConfigError, match=field):
            replace(cfg, **{field: value})

    @pytest.mark.parametrize("seed", [1.5, True, "3"])
    def test_seed_argument_type_checked(self, seed, tmp_path):
        with pytest.raises(ConfigError, match="seed"):
            run_scenario(scenario("cosine_decay.cfg"), tmp_path, seed=seed)

    @pytest.mark.parametrize("value,expected", [
        ("true", True), ("On", True), ("1", True), ("yes", True),
        ("false", False), ("off", False), ("0", False), ("NO", False)])
    def test_check_flags_read_as_booleans(self, tmp_path, value, expected):
        p = tmp_path / "flags.cfg"
        p.write_text(open(scenario("flat_stationary.cfg")).read()
                     .replace("viscosity = true", f"viscosity = {value}\nroundtrip = {value}"))
        cfg = load_config(p)
        assert cfg.check_viscosity is cfg.check_roundtrip is expected


class TestRunScenario:
    def test_flat_stationary_artifacts(self, tmp_path):
        code, lines = run_scenario(scenario("flat_stationary.cfg"), tmp_path)
        assert code == 0
        for fname in ("monitor.csv", "initial.bin", "final.bin",
                      "violations_sub.csv", "violations_super.csv",
                      "summary.txt"):
            assert (tmp_path / fname).exists()
        assert any(l.startswith("checks_passed = True") for l in lines)
        assert not any(l.startswith("t_end_reached") for l in lines)

    def test_run_info_parses_with_every_key(self, tmp_path):
        code, _ = run_scenario(scenario("cosine_decay.cfg"), tmp_path, seed=5)
        assert code == 0
        info = dict(line.split(" = ", 1)
                    for line in (tmp_path / "run_info.txt").read_text().splitlines())
        assert list(info) == ["twistedma_version", "numpy_version", "scipy_version",
                              "config_sha256", "seed", "flow_s", "checks_s",
                              "roundtrip_s", "artifacts_s"]
        assert info["twistedma_version"] == twistedma.__version__
        assert info["numpy_version"] == np.__version__
        assert info["scipy_version"] == scipy.__version__
        assert info["seed"] == "5"
        cfg = replace(load_config(scenario("cosine_decay.cfg")), seed=5)
        assert info["config_sha256"] == hashlib.sha256(repr(cfg).encode()).hexdigest()
        phases = {k: float(info[k]) for k in ("flow_s", "checks_s", "roundtrip_s",
                                              "artifacts_s")}
        # cosine_decay runs its checks but not the roundtrip
        assert phases["roundtrip_s"] == 0.0
        assert all(0.0 < v < 60.0 for k, v in phases.items() if k != "roundtrip_s")

    def test_six_hessians_per_drift_run(self, tmp_path, monkeypatch):
        # 2 for the t = 0 state, 2 for the one step's state, 2 for the
        # roundtrip's square_operator: the checks read the final state's
        # blocks (10 calls when each side took its own Hessians)
        calls = []
        real = grid.hessian_block_values

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)
        for module in (grid, flow, viscosity):
            monkeypatch.setattr(module, "hessian_block_values", counted)
        code, lines = run_scenario(scenario("drift_k2l2.cfg"), tmp_path)
        assert code == 0 and "steps = 1" in lines
        assert len(calls) == 6

    def test_summary_carries_run_statistics(self, tmp_path):
        code, lines = run_scenario(scenario("cosine_decay.cfg"), tmp_path)
        assert code == 0
        assert (tmp_path / "summary.txt").read_text().splitlines() == lines
        names = [l.split(" = ")[0] for l in lines]
        i = names.index("steps")
        assert names[i:i + 4] == ["steps", "rejected_trials", "dt_min", "dt_max"]
        assert names[-1] == "checks_passed"
        stats = dict(l.split(" = ") for l in lines[i:i + 4])
        assert int(stats["steps"]) >= 2 and int(stats["rejected_trials"]) >= 0
        assert 0.0 < float(stats["dt_min"]) <= float(stats["dt_max"])

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

    def test_jet_samples_key_is_ignored(self, tmp_path):
        # the checks no longer sample jets; a config that still sets
        # jet_samples runs, and its artifacts are those of the config without
        # it ('#' lines and the phase seconds aside)
        text = open(scenario("cosine_decay.cfg")).read()
        runs = []
        for name, body in (("without", text),
                           ("with", text.replace("[checks]\n", "[checks]\njet_samples = 2\n"))):
            p = tmp_path / f"{name}.cfg"
            p.write_text(body)
            assert run_scenario(str(p), tmp_path / name)[0] == 0
            runs.append({f.name: [l for l in f.read_bytes().split(b"\n")
                                  if not l.startswith(b"#") and not re.match(rb"\w+_s = ", l)]
                         for f in sorted((tmp_path / name).iterdir())})
        assert "jet_samples = 2" in (tmp_path / "with.cfg").read_text()
        assert runs[0] == runs[1] and "violations_sub.csv" in runs[0]


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

    def test_initial_file_spacing_mismatch_exit_two(self, tmp_path, capsys):
        # saved on a period-1 grid, read by a config with the default 2*pi
        field = tmp_path / "period_one.bin"
        save_field(ScalarField.zeros(BicomplexGrid.regular(1, 1, 8, period=1.0)), field)
        cfg = self._file_scenario(tmp_path, field)
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: initial: cannot load") and "stored spacing" in err

    def test_initial_file_grid_mismatch_exit_two(self, tmp_path, capsys):
        # saved on 16^4 with period 2 pi, read on 8^4 with period pi: the
        # spacing matches and the counts do not
        field = tmp_path / "sixteen.bin"
        save_field(ScalarField.zeros(BicomplexGrid.regular(1, 1, 16)), field)
        p = tmp_path / "file.cfg"
        p.write_text("[grid]\nk = 1\nl = 1\nn = 8\nperiod = 3.141592653589793\n"
                     f"[initial]\nkind = file\nfile = {field}\n[run]\nt_end = 0.01\n")
        assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == ("error: initial: file grid does not match "
                                           "[grid] section\n")

    def test_const_forcing(self, tmp_path):
        # F = a on a flat background with zero data: u = -a t exactly
        text = open(scenario("flat_stationary.cfg")).read()
        old = "omega_minus = 1\n"
        assert old in text
        p = tmp_path / "const.cfg"
        p.write_text(text.replace(old, old + "forcing = const\nforcing_amplitude = 0.3\n"))
        out = tmp_path / "o"
        assert main(["run", str(p), "--out", str(out)]) == 0
        final = load_field(out / "final.bin").values
        assert np.all(final == final.flat[0])
        assert final.flat[0] == pytest.approx(-0.3 * 0.05, rel=1e-14)

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
        ("sin_forcing_barrier.cfg", "omega_minus = 1",
         "omega_minus = 1\nzeta_plus = -1e308\nzeta_minus = 1e308", 3),
        ("cosine_decay.cfg", "n = 16", "n = 16\nperiod = 1e-160", 2),
        ("cosine_decay.cfg", "n = 16", "n = 16\nperiod = 1e-170", 2),
    ], ids=["forcing_1e308", "zeta_plus_1e308", "zeta_minus_-1e308",
            "zeta_difference_overflow", "period_1e-160", "period_1e-170"])
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

    @pytest.mark.parametrize("name,old,new,extra,code", [
        ("flat_stationary.cfg", "t_end = 0.05\n", "", [], 2),
        ("flat_stationary.cfg", "k = 1\n", "", [], 2),
        ("flat_stationary.cfg", "seed = 0", "seed = -1", [], 2),
        ("flat_stationary.cfg", "seed = 0", "seed = 0", ["--seed", "-1"], 2),
        ("flat_stationary.cfg", "n = 8", "n = 0", [], 2),
        ("cosine_decay.cfg", "n = 16", "n = 16\nperiod = 1e308", [], 2),
        ("flat_stationary.cfg", "omega_minus = 1", "omega_minus = 1e-300", [], 3),
        ("finite_tau_star.cfg", "chi_plus = 2", "chi_plus = 1e300",
         ["--override-tau-star"], 3),
        ("finite_tau_star.cfg", "omega_plus = 1\nomega_minus = 1\nchi_plus = 2",
         "omega_plus = 1e-300\nomega_minus = 1\nchi_plus = -1e300", [], 3),
        # tau* = 5e-311 once overflowed in the whitening
        ("finite_tau_star.cfg", "omega_plus = 1\n", "omega_plus = 1e-310\n", [], 2),
        ("finite_tau_star.cfg", "omega_plus = 1\n", "omega_plus = 1e-310\n",
         ["--override-tau-star"], 3),
    ], ids=["no_t_end", "no_k", "negative_seed", "negative_seed_option", "zero_count",
            "period_1e308", "omega_minus_1e-300", "chi_plus_1e300",
            "omega_chi_ratio_overflow", "omega_plus_subnormal", "omega_plus_subnormal_override"])
    def test_mutated_scenario_typed_error(self, tmp_path, capsys, name, old, new, extra, code):
        # inputs that once ended in a traceback (or a float warning)
        text = open(scenario(name)).read()
        assert old in text
        p = tmp_path / "mutated.cfg"
        p.write_text(text.replace(old, new))
        assert main(["run", str(p), "--out", str(tmp_path / "o")] + extra) == code
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_check_slack_overflow_decided(self, tmp_path):
        # omega_plus = 1.7e308 and zeta_minus = 1: lhs = 1.7e308 e overflows,
        # and u_t = log(1.7e308) + 1 = 710.7 makes exp(u_t) overflow too.
        # Once exit 3; in the equation's log units both sides are finite
        text = open(scenario("flat_stationary.cfg")).read()
        old = "n = 8\n\n[background]\nomega_plus = 1\n"
        assert old in text
        p = tmp_path / "overflow.cfg"
        p.write_text(text.replace(old, "n = 4\n\n[background]\nomega_plus = 1.7e308\n"
                                       "zeta_minus = 1\n"))
        out = tmp_path / "o"
        assert main(["run", str(p), "--out", str(out)]) == 0
        summary = (out / "summary.txt").read_text().splitlines()
        assert "sub_check_ok = True (0 violations)" in summary
        assert "super_check_ok = True (0 violations)" in summary
        cfg = load_config(str(p))
        stack = np.stack([load_field(out / f).values for f in ("initial.bin", "final.bin")])
        times = np.array([0.0, cfg.t_end])
        assert abs(stack[1].max() / cfg.t_end - (np.log(1.7e308) + 1.0)) < 1e-9
        bg = cli._build_background(cfg)
        for side in ("above", "below"):
            assert log_space_violations(stack, times, bg, side) == {}

    def test_check_slack_overflow_decided_two_by_two(self, tmp_path):
        # k = l = 2, omega_plus = 1.3e154 and zeta_minus = 1: det omega_plus
        # = 1.69e308 stays finite, but lhs = det e overflows, and so does
        # exp(u_t) at u_t = log det + 1 = 710.7; the checks read the 2x2
        # determinants' logs
        text = open(scenario("flat_stationary.cfg")).read()
        old = "k = 1\nl = 1\nn = 8\n\n[background]\nomega_plus = 1\n"
        assert old in text
        p = tmp_path / "overflow.cfg"
        p.write_text(text.replace(old, "k = 2\nl = 2\nn = 4\n\n[background]\n"
                                       "omega_plus = 1.3e154\nzeta_minus = 1\n"))
        out = tmp_path / "o"
        assert main(["run", str(p), "--out", str(out)]) == 0
        summary = (out / "summary.txt").read_text().splitlines()
        assert "sub_check_ok = True (0 violations)" in summary
        assert "super_check_ok = True (0 violations)" in summary
        cfg = load_config(str(p))
        stack = np.stack([load_field(out / f).values for f in ("initial.bin", "final.bin")])
        times = np.array([0.0, cfg.t_end])
        assert abs(stack[1].max() / cfg.t_end - (np.log(1.3e154 ** 2) + 1.0)) < 1e-9
        bg = cli._build_background(cfg)
        sides = (("above", viscosity.subsolution_check),
                 ("below", viscosity.supersolution_check))
        for side, _ in sides:
            assert log_space_violations(stack, times, bg, side) == {}
        # a time slope raised or lowered by 1 at one point fails one side
        # there by about 1 in log units; the Hessian's change at its stencil
        # neighbours stays within the tolerance 0.5.  The checks find the
        # point of the slogdet reference, with its slack to the roundoff of
        # logs near 711
        found = []
        for bump in (1.0, -1.0):
            bumped = stack.copy()
            bumped[1][1, 2, 3, 0, 1, 2, 3, 0] += bump * cfg.t_end
            for side, check in sides:
                report = check(bumped, times, bg, tol=0.5)
                got = {(v.time_index, v.spatial_index): v.slack for v in report.violations}
                ref = log_space_violations(bumped, times, bg, side, tol=0.5)
                assert got.keys() == ref.keys()
                for key, slack in got.items():
                    assert slack == pytest.approx(ref[key], rel=1e-12, abs=1e-12)
                    assert slack == pytest.approx(-1.0, abs=0.1)
                found += [(bump, side, key[1]) for key in got]
        assert found == [(1.0, "above", (1, 2, 3, 0, 1, 2, 3, 0)),
                         (-1.0, "below", (1, 2, 3, 0, 1, 2, 3, 0))]

    def test_t_end_below_absolute_tolerance_is_reached(self, tmp_path):
        text = open(scenario("flat_stationary.cfg")).read()
        p = tmp_path / "tiny_t_end.cfg"
        p.write_text(text.replace("t_end = 0.05", "t_end = 1e-300"))
        out = tmp_path / "o"
        assert main(["run", str(p), "--out", str(out)]) == 0
        assert "t_final = 1e-300" in report(out)

    @pytest.mark.parametrize("cap", [1, 2])
    def test_step_cap_short_of_t_end_exits_one(self, tmp_path, monkeypatch, capsys, cap):
        # a run that stops short of t_end did not run the config: exit 1
        # even though its checks pass on what did run
        monkeypatch.setattr(flow, "_MAX_STEPS", cap)
        out = tmp_path / "o"
        assert main(["run", scenario("cosine_decay.cfg"), "--out", str(out)]) == 1
        summary = (out / "summary.txt").read_text().splitlines()
        stopped = [l for l in summary if l.startswith("t_end_reached")]
        assert len(stopped) == 1
        t = float(re.fullmatch(r"t_end_reached = False \(stopped at t=(.*)\)",
                               stopped[0]).group(1))
        assert 0.0 < t < 0.5
        # the monitor's last row is the state the run stopped at
        assert f"t_final = {t!r}" in report(out)
        assert "sub_check_ok = True (0 violations)" in summary
        assert summary[-1] == "checks_passed = False"
        assert capsys.readouterr().out.splitlines() == summary

    def test_lost_positivity_names_point_and_eigenvalue(self, tmp_path, capsys):
        # h ~ 4e-151 makes the initial cosine's Hessian ~1e298
        text = open(scenario("cosine_decay.cfg")).read()
        p = tmp_path / "tiny_period.cfg"
        p.write_text(text.replace("n = 16", "n = 16\nperiod = 1e-150"))
        assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert re.fullmatch(r"error: plus block lost positivity at point \(\d+, \d+, \d+, \d+\) "
                            r"\(eigenvalue -\d\.\d{3}e\+\d+\)\n", err)

    INDEFINITE_ERR = ("error: plus block lost positivity at point (0, 0, 0, 0) "
                      "(eigenvalue -9.744e-01)\n")

    @staticmethod
    def indefinite_config(tmp_path):
        # amplitude 8 makes the plus block about 1 - 2 cos x, indefinite at t = 0
        text = open(scenario("cosine_decay.cfg")).read()
        p = tmp_path / "indefinite.cfg"
        p.write_text(text.replace("amplitude = 1e-3", "amplitude = 8"))
        return p

    def test_inadmissible_initial_value_leaves_run_info(self, tmp_path, capsys):
        p = self.indefinite_config(tmp_path)
        out = tmp_path / "o"
        assert main(["run", str(p), "--out", str(out)]) == 3
        assert capsys.readouterr().err == self.INDEFINITE_ERR
        # the run directory explains the failure: today's keys, the phase
        # seconds up to it, and no other artifact
        assert os.listdir(out) == ["run_info.txt"]
        info = dict(line.split(" = ", 1)
                    for line in (out / "run_info.txt").read_text().splitlines())
        assert list(info) == ["twistedma_version", "numpy_version", "scipy_version",
                              "config_sha256", "seed", "flow_s", "checks_s",
                              "roundtrip_s", "artifacts_s"]
        assert info["config_sha256"] == hashlib.sha256(
            repr(load_config(str(p))).encode()).hexdigest()
        assert 0.0 < float(info["flow_s"]) < 60.0
        assert [float(info[k]) for k in ("checks_s", "roundtrip_s", "artifacts_s")] == [0.0] * 3

    @pytest.mark.parametrize("name,old,new,code,message", [
        ("cosine_decay.cfg", "omega_plus = 1\n", "omega_plus = -1\n", 3,
         "error: omega_0 plus block is not positive definite at point (0, 0, 0, 0) "
         "(eigenvalue -1.000e+00)\n"),
        ("finite_tau_star.cfg", "t_end = 0.1\n", "t_end = 0.6\n", 2,
         "error: t_end 0.6 reaches tau_star 0.5; pass --override-tau-star "
         "to probe the degeneration on purpose\n"),
        ("flat_stationary.cfg", "kind = zero\n", "kind = file\nfile = {absent}\n", 2,
         "error: initial: cannot load {absent}: "),
    ], ids=["omega0_indefinite", "tau_star_refused", "initial_file_absent"])
    def test_failure_before_the_flow_leaves_run_info(self, tmp_path, capsys, name, old,
                                                     new, code, message):
        # the background, the initial value and the tau* refusal fail before
        # any phase has begun: the directory still explains the run
        absent = tmp_path / "absent.bin"
        text = open(scenario(name)).read()
        assert old in text
        p = tmp_path / "early.cfg"
        p.write_text(text.replace(old, new.format(absent=absent)))
        out = tmp_path / "o"
        assert main(["run", str(p), "--out", str(out)]) == code
        assert capsys.readouterr().err.startswith(message.format(absent=absent))
        assert os.listdir(out) == ["run_info.txt"]
        info = dict(line.split(" = ", 1)
                    for line in (out / "run_info.txt").read_text().splitlines())
        assert [float(info[f"{phase}_s"]) for phase in
                ("flow", "checks", "roundtrip", "artifacts")] == [0.0] * 4

    def test_unwritable_run_info_keeps_the_error(self, tmp_path, monkeypatch, capsys):
        # the output directory is replaced by a file once the run has begun,
        # so run_info.txt cannot be written: the flow's error is still the
        # one reported, with its exit code and message
        p = self.indefinite_config(tmp_path)
        out = tmp_path / "o"
        real = cli._flow_and_checks

        def unwritable(*args):
            os.rmdir(out)
            out.write_text("")
            return real(*args)

        monkeypatch.setattr(cli, "_flow_and_checks", unwritable)
        assert main(["run", str(p), "--out", str(out)]) == 3
        assert capsys.readouterr().err == self.INDEFINITE_ERR
        assert out.read_text() == ""

    @pytest.mark.parametrize("edit,message", [
        (lambda t: t.replace("emit_every = 10", "emit_every = 0"),
         "run: emit_every must be >= 1"),
        *[(lambda t, v=v: t.replace("[checks]\n", f"[checks]\ntolerance = {v}\n"),
           "checks: tolerance must be finite and > 0") for v in ("0", "-1", "inf", "nan")],
        (lambda t: "".join(line for line in t.splitlines(True) if not line.startswith("[")),
         "unparseable config {path}: File contains no section headers."),
        (lambda t: t + "\n[run]\nt_end = 0.1\n",
         "unparseable config {path}: While reading from '{path}' [line 23]: "
         "section 'run' already exists"),
        # a .bin header stores each count as a uint16: refused before the
        # flow runs, not by save_field once it has
        (lambda t: t.replace("n = 8", "n = 65536 4 4 4").replace("t_end = 0.05", "t_end = 1e-300")
         .replace("viscosity = true", "viscosity = false"),
         "grid: a .bin header stores at most 65535 points per axis, "
         "got counts (65536, 4, 4, 4)")],
        ids=["emit_every_0", "tolerance_0", "tolerance_-1",
             "tolerance_inf", "tolerance_nan", "no_section_headers", "duplicate_run",
             "axis_beyond_the_header"])
    def test_config_error_exit_two(self, tmp_path, capsys, edit, message):
        p = tmp_path / "bad.cfg"
        p.write_text(edit(open(scenario("flat_stationary.cfg")).read()))
        assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message.format(path=p)}\n")
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key", ["viscosity", "roundtrip"])
    def test_check_flag_typo_exit_two(self, tmp_path, capsys, key):
        # a typo once read as false, skipped the check and exited 0
        p = tmp_path / "typo.cfg"
        p.write_text(open(scenario("flat_stationary.cfg")).read()
                     .replace("viscosity = true", f"{key} = ture"))
        assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "ture" in err
        assert not (tmp_path / "o").exists()

    def test_roundtrip_check_exit_zero(self, tmp_path, capsys):
        p = tmp_path / "roundtrip.cfg"
        p.write_text(open(scenario("cosine_decay.cfg")).read()
                     .replace("[checks]", "[checks]\nroundtrip = true"))
        out = tmp_path / "o"
        assert main(["run", str(p), "--out", str(out)]) == 0
        summary = (out / "summary.txt").read_text().splitlines()
        err = [float(l.split(" = ")[1]) for l in summary if l.startswith("roundtrip_error")]
        assert len(err) == 1 and 0.0 <= err[0] < 1e-8
        assert summary[-1] == "checks_passed = True"

    def test_barrier_violation_exit_four(self, tmp_path, monkeypatch, capsys):
        # a negative tolerance makes the first row's zero gaps a violation
        monkeypatch.setattr(flow, "_BARRIER_TOL_FACTOR", -1.0)
        code = main(["run", scenario("sin_forcing_barrier.cfg"), "--out", str(tmp_path / "o")])
        assert code == 4 == EXIT_CODES[BarrierViolation]
        err = capsys.readouterr().err
        assert err.startswith("error: barrier sandwich failed at t=0 ")

    def test_report_missing_dir_exit_one(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nothing")]) == 1

    @pytest.mark.parametrize("text,message", [
        ("t,x\n0.0,1.0\n", "unexpected monitor header ['t', 'x']"),
        (",".join(flow.MONITOR_HEADER) + "\n", "{path}: empty trajectory")],
        ids=["wrong_header", "header_only"])
    def test_report_malformed_monitor_exit_one(self, tmp_path, capsys, text, message):
        path = tmp_path / "monitor.csv"
        path.write_text("# written by hand\n" + text)
        assert main(["report", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message.format(path=path)}\n"
        assert captured.out == ""

    def test_restart_from_final_field(self, tmp_path, capsys):
        # a run's final.bin is a valid initial field: the restart starts
        # where the first run ended, bit for bit
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["run", scenario("cosine_decay.cfg"), "--out", str(first)]) == 0
        text = open(scenario("cosine_decay.cfg")).read()
        assert "kind = cosine\n" in text
        cfg = tmp_path / "restart.cfg"
        cfg.write_text(text.replace("kind = cosine\n",
                                    f"kind = file\nfile = {first / 'final.bin'}\n"))
        assert main(["run", str(cfg), "--out", str(second)]) == 0
        assert ((second / "initial.bin").read_bytes()
                == (first / "final.bin").read_bytes())
        rows = [cli._read_monitor(d / "monitor.csv") for d in (first, second)]
        columns = [flow.MONITOR_HEADER.index(name) for name in
                   ("sup_u", "inf_u", "plus_margin", "minus_margin")]
        assert rows[1][0, 0] == 0.0
        assert np.array_equal(rows[1][0, columns], rows[0][-1, columns])

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


# Values for every key of the shipped scenarios: ones that parse and run,
# ones that do not parse, and extremes.  Counts stay at 4 per axis or so
# (at most 4^8 points), and t_end and safety keep a run to a few hundred
# steps, so one example takes well under a second.  Every t_end that runs
# stays below the smallest tau* of ordinary values here (1/4), since an
# --override-tau-star run that approaches tau* on non-constant data takes
# hundreds of thousands of steps.
MUTATION_VALUES = {
    ("grid", "k"): ["1", "2", "0", "3", "-1", "1.5", "x", ""],
    ("grid", "l"): ["1", "2", "0", "3", "-1", "1.5", "x", ""],
    ("grid", "n"): ["4", "4 6 4 6", "4, 4, 4, 4", "3", "5", "0", "-4", "4.5", "x", ""],
    ("grid", "period"): ["1", "0.5", "1e308", "1e-150", "1e-170", "0", "-1",
                         "nan", "inf", "x"],
    ("background", "omega_plus"): ["1", "2", "0.5 2", "0", "-1", "1e-300", "1e300",
                                   "1.7e308", "1e-310", "5e-324", "nan", "x", ""],
    ("background", "omega_minus"): ["1", "3", "1 0.5", "0", "-2", "1e-300", "1e300",
                                    "1.7e308", "1e-310", "5e-324", "inf", "x"],
    ("background", "chi_plus"): ["0", "2", "-1", "1 -1", "1e300", "-1e300", "1.7e308",
                                 "1e-310", "5e-324", "nan", "x"],
    ("background", "chi_minus"): ["0", "-1", "1", "0.5 0.5", "1e300", "-1e300", "1.7e308",
                                  "1e-310", "5e-324", "x"],
    ("background", "zeta_plus"): ["0", "0.5", "-3", "1e308", "-1e308", "nan", "x"],
    ("background", "zeta_minus"): ["0", "-0.5", "2", "1e308", "-1e308", "inf", "x"],
    ("background", "forcing"): ["none", "sin", "const", "SIN", "saw", ""],
    ("background", "forcing_amplitude"): ["0.5", "-2", "1e308", "-1e308", "nan", "x"],
    ("background", "forcing_axis"): ["0", "1", "3", "4", "7", "8", "-1", "1.5", "x"],
    ("initial", "kind"): ["zero", "cosine", "file", "Cosine", "x", ""],
    ("initial", "amplitude"): ["1e-3", "0.5", "-1", "1e300", "1.7e308", "1e-310",
                               "5e-324", "nan", "x"],
    ("initial", "axis"): ["0", "3", "4", "7", "8", "-1", "x"],
    ("initial", "mode"): ["1", "2", "0", "-2", "1.5", "x"],
    ("initial", "file"): ["", "{field}", "{absent}"],
    ("run", "t_end"): ["0.01", "0.05", "0.2", "1e-300", "1e-14", "0", "-0.1",
                       "nan", "inf", "x", ""],
    ("run", "safety"): ["0.5", "1", "0.2", "0", "1.5", "-0.5", "nan", "x"],
    ("run", "emit_every"): ["1", "3", "10", "0", "-1", "1.5", "x"],
    ("run", "seed"): ["0", "7", "-1", "99999999999999999999", "1.5", "x"],
    ("checks", "viscosity"): ["true", "false", "yes", "0", "x"],
    ("checks", "roundtrip"): ["true", "false"],
    ("checks", "tolerance"): ["", "1e-300", "1e-6", "1", "1e308", "0", "-1",
                              "nan", "inf", "x"],
}

_MUTATION = st.one_of(
    st.tuples(st.just("set"), st.sampled_from(sorted(MUTATION_VALUES)))
    .flatmap(lambda t: st.tuples(st.just(t[0]), st.just(t[1]),
                                 st.sampled_from(MUTATION_VALUES[t[1]]))),
    st.tuples(st.just("drop"), st.sampled_from(sorted(MUTATION_VALUES)), st.none()),
    st.tuples(st.just("drop_section"),
              st.sampled_from(sorted({sec for sec, _ in MUTATION_VALUES})), st.none()),
    st.tuples(st.just("unknown_key"),
              st.sampled_from(sorted({sec for sec, _ in MUTATION_VALUES})),
              st.sampled_from(["1", "x", ""])),
)


def mutated_scenario(name, mutations, paths):
    """The shipped scenario on 4 points per axis with t_end = 0.05, with
    ``mutations`` applied in order; the text of the resulting INI file."""
    parser = configparser.ConfigParser()
    parser.read(scenario(name))
    parser["grid"]["n"] = "4"
    parser["run"]["t_end"] = "0.05"
    for op, target, value in mutations:
        if op == "set":
            section, key = target
            if not parser.has_section(section):
                parser.add_section(section)
            parser[section][key] = value.format(**paths)
        elif op == "drop":
            section, key = target
            if parser.has_section(section):
                parser.remove_option(section, key)
        elif op == "drop_section":
            parser.remove_section(target)
        elif parser.has_section(target):
            parser[target]["no_such_key"] = value
    text = io.StringIO()
    parser.write(text)
    return text.getvalue()


DOCUMENTED_EXIT_CODES = {0, 1} | set(EXIT_CODES.values())


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(SCENARIOS),
       mutations=st.lists(_MUTATION, min_size=1, max_size=3),
       override=st.booleans())
def test_mutated_scenarios_exit_with_documented_code(name, mutations, override):
    # every input either runs or fails with its typed error and documented
    # exit code: no traceback, and exit 0 only after reaching t_end
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"field": os.path.join(tmp, "field.bin"),
                 "absent": os.path.join(tmp, "absent.bin")}
        save_field(ScalarField.zeros(BicomplexGrid.regular(1, 1, 4)), paths["field"])
        cfg = os.path.join(tmp, "mutated.cfg")
        with open(cfg, "w") as fh:
            fh.write(mutated_scenario(name, mutations, paths))
        out = os.path.join(tmp, "out")
        argv = ["run", cfg, "--out", out] + (["--override-tau-star"] if override else [])
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        assert code in DOCUMENTED_EXIT_CODES
        assert "Traceback" not in stderr.getvalue()
        if code != 0:
            assert stderr.getvalue().startswith("error:") or code == 1
            return
        t_end = load_config(cfg).t_end
        t_final = float(dict(line.split(" = ", 1) for line in report(out))["t_final"])
        assert t_final == pytest.approx(t_end, rel=1e-12, abs=0.0)


# The API twin of the file mutations: fields of a shipped config replaced
# in code (``dataclasses.replace``) by floats where ints belong, bools and
# the float extremes, scalar or filling a diagonal.  The shipped grid is
# cut to 4 points per axis and t_end to 0.05, and the step cap to 200 steps,
# so that a t_end of 1e308 stops at the cap (exit 1) in well under a second.
API_VALUES = [1.0, 1.5, True, False, math.nan, math.inf, -math.inf, 1e308, 5e-324]
CONFIG_FIELDS = [f.name for f in dataclasses.fields(cli.ScenarioConfig)]


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(SCENARIOS + ["drift_k2l2.cfg"]),
       changes=st.lists(st.tuples(st.sampled_from(CONFIG_FIELDS),
                                  st.sampled_from(API_VALUES), st.booleans()),
                        min_size=1, max_size=2),
       override=st.booleans())
def test_api_mutated_configs_exit_with_documented_code(name, changes, override):
    cfg = load_config(scenario(name))
    cfg = replace(cfg, grid=BicomplexGrid.regular(cfg.grid.k, cfg.grid.l, 4), t_end=0.05)
    with tempfile.TemporaryDirectory() as tmp, \
            unittest.mock.patch.object(flow, "_MAX_STEPS", 200):
        try:
            for field, value, fill in changes:
                if fill and field.endswith("_diag"):
                    value = np.full(len(getattr(cfg, field)), value)
                cfg = replace(cfg, **{field: value})
            code, lines = run_scenario(cfg, tmp, override_tau_star=override)
        except TwistedMAError as exc:
            assert type(exc) in EXIT_CODES
            return
        assert code in (0, 1)
        if code == 0:
            t_final = float(dict(line.split(" = ", 1) for line in report(tmp))["t_final"])
            assert t_final == pytest.approx(cfg.t_end, rel=1e-12, abs=0.0)
