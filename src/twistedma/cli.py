"""Scenario runner and report emitter.

Configs are plain-text INI (key = value under [section] headers); see the
shipped files under ``scenarios/`` for the full key set (a key the parser
does not read is ignored).  All randomness (the roundtrip check's
potential, random probe fields) flows from the single ``seed`` key,
overridable with ``--seed``; identical configs and seeds produce
byte-identical CSV artifacts apart from comment lines prefixed "#".

Subcommands::

    run <config> [--out DIR] [--seed N] [--override-tau-star]
    report <dir>
    probe-localization --dim N --alphas LIST [--out DIR]

Exit codes (one fixed code per error family)::

    0   all enabled checks passed
    1   a check failed / missing artifact / the run stopped short of t_end
    2   ConfigError
    3   NotAdmissible
    4   BarrierViolation
    5   IncompatibleData
    6   NonzeroMeanObstruction
    7   NotReducible
    8   ConcavityViolated
    9   WindowTooSmall
    10  PreconditionFailed
    11  DegenerateFit
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import hashlib
import math
import os
import sys
import time
from dataclasses import dataclass, replace

import numpy as np
import scipy

from . import __version__
from .errors import (BarrierViolation, ConcavityViolated, ConfigError,
                     DegenerateFit, IncompatibleData, NonzeroMeanObstruction,
                     NotAdmissible, NotReducible, PreconditionFailed,
                     TwistedMAError, WindowTooSmall)
from .flow import MONITOR_HEADER, FlowState, _write_monitor, run as run_flow
from .forms import BackgroundData, flat_background
from .grid import (_MAX_COUNT, BicomplexGrid, HermitianMatrixField, ScalarField,
                   _read_lines, _write_lines, load_field, save_field)
from .localization import localization_gap_probe
from .potential import solve_square, square_operator
from .viscosity import trajectory_checks

__all__ = ["ScenarioConfig", "load_config", "run_scenario", "report",
           "main", "EXIT_CODES"]

EXIT_CODES = {
    ConfigError: 2,
    NotAdmissible: 3,
    BarrierViolation: 4,
    IncompatibleData: 5,
    NonzeroMeanObstruction: 6,
    NotReducible: 7,
    ConcavityViolated: 8,
    WindowTooSmall: 9,
    PreconditionFailed: 10,
    DegenerateFit: 11,
}

_EXIT_CHECK_FAILED = 1


@dataclass
class ScenarioConfig:
    """Parsed scenario: grid, background, initial data, run and check specs."""

    grid: BicomplexGrid
    omega_plus_diag: np.ndarray
    omega_minus_diag: np.ndarray
    chi_plus_diag: np.ndarray
    chi_minus_diag: np.ndarray
    zeta_plus: float
    zeta_minus: float
    forcing: str            # "none" | "sin" | "const"
    forcing_amplitude: float
    forcing_axis: int
    initial_kind: str       # "zero" | "cosine" | "file"
    initial_amplitude: float
    initial_axis: int
    initial_mode: int
    initial_file: str
    t_end: float
    safety: float
    emit_every: int
    seed: int
    check_viscosity: bool
    check_roundtrip: bool
    tolerance: float | None

    def __post_init__(self):
        self.validate()

    def validate(self):
        """Raise ConfigError on an unusable field: the one statement of a
        valid config (load_config only parses; run_scenario re-checks)."""
        # an absent tolerance is None: the check's own default
        reals = ("zeta_plus", "zeta_minus", "forcing_amplitude", "initial_amplitude",
                 "t_end", "safety") + ("tolerance",) * (self.tolerance is not None)
        for kinds, what, names in (
                ("iu", "an integer", ("forcing_axis", "initial_axis", "initial_mode",
                                      "emit_every", "seed")),
                ("iuf", "a real number", reals)):
            for name in names:
                value = getattr(self, name)
                # numpy's integer or real scalars: no bool, str or int beyond 64 bits
                if np.ndim(value) != 0 or np.asarray(value).dtype.kind not in kinds:
                    raise ConfigError(f"{name} must be {what}, not {value!r}")
        for name, kind, what in (
                ("grid", BicomplexGrid, "a BicomplexGrid"), ("forcing", str, "a string"),
                ("initial_kind", str, "a string"), ("initial_file", str, "a string"),
                ("check_viscosity", (bool, np.bool_), "a boolean"),
                ("check_roundtrip", (bool, np.bool_), "a boolean")):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise ConfigError(f"{name} must be {what}, not {value!r}")
        if max(self.grid.n_points) > _MAX_COUNT:
            raise ConfigError(f"grid: a .bin header stores at most {_MAX_COUNT} points "
                              f"per axis, got counts {self.grid.n_points}")
        if self.forcing not in ("none", "sin", "const"):
            raise ConfigError(f"background: unknown forcing {self.forcing!r}")
        if self.initial_kind not in ("zero", "cosine", "file"):
            raise ConfigError(f"initial: unknown kind {self.initial_kind!r}")
        if self.initial_kind == "file" and not self.initial_file:
            raise ConfigError("initial: kind=file needs a file path")
        if not all(0 <= axis < self.grid.real_dim
                   for axis in (self.forcing_axis, self.initial_axis)):
            raise ConfigError("axis index out of range for the grid")
        for name, m in (("omega_plus_diag", self.grid.k), ("omega_minus_diag", self.grid.l),
                        ("chi_plus_diag", self.grid.k), ("chi_minus_diag", self.grid.l)):
            diag = np.asarray(getattr(self, name))
            if diag.shape != (m,) or diag.dtype.kind not in "iuf":
                raise ConfigError(f"background: {name} must have {m} real diagonal entries")
        for name in ("t_end", "zeta_plus", "zeta_minus", "forcing_amplitude",
                     "initial_amplitude", "omega_plus_diag", "omega_minus_diag",
                     "chi_plus_diag", "chi_minus_diag"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ConfigError(f"{name} must be finite")
        if self.t_end <= 0:
            raise ConfigError("run: t_end must be > 0")
        if not (0 < self.safety <= 1):
            raise ConfigError("run: safety must be in (0, 1]")
        if self.emit_every < 1:
            raise ConfigError("run: emit_every must be >= 1")
        if self.tolerance is not None and not 0 < self.tolerance < math.inf:
            raise ConfigError("checks: tolerance must be finite and > 0")
        if self.seed < 0:
            raise ConfigError("run: seed must be >= 0")


def _diag(raw, m):
    """The diagonal entries; a single value stands for all m."""
    vals = np.array([float(v) for v in raw.replace(",", " ").split()])
    return np.repeat(vals, m) if len(vals) == 1 else vals


def load_config(path):
    """Parse an INI scenario file into a ScenarioConfig."""
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path):
            raise ConfigError(f"cannot read config {path}")
    except configparser.Error as exc:
        raise ConfigError(f"unparseable config {path}: {exc}") from exc
    try:
        g = parser["grid"]
        k = int(g["k"])
        l = int(g["l"])
        n_raw = g.get("n", "16")
        period = g.getfloat("period", fallback=2.0 * math.pi)
        counts = [int(v) for v in n_raw.replace(",", " ").split()]
        grid = BicomplexGrid.regular(k, l, counts[0] if len(counts) == 1
                                     else counts, period=period)

        # an absent section reads as the (usually empty) DEFAULT one
        section = lambda name: parser[name if parser.has_section(name) else "DEFAULT"]
        get = section("background").get
        omega_p = _diag(get("omega_plus", "1"), k)
        omega_m = _diag(get("omega_minus", "1"), l)
        chi_p = _diag(get("chi_plus", "0"), k)
        chi_m = _diag(get("chi_minus", "0"), l)
        zeta_p = float(get("zeta_plus", "0"))
        zeta_m = float(get("zeta_minus", "0"))
        forcing = get("forcing", "none").strip().lower()
        f_amp = float(get("forcing_amplitude", "0"))
        f_axis = int(get("forcing_axis", "0"))

        iget = section("initial").get
        kind = iget("kind", "zero").strip().lower()
        amp = float(iget("amplitude", "0"))
        axis = int(iget("axis", "0"))
        mode = int(iget("mode", "1"))
        ifile = iget("file", "")

        r = parser["run"]
        t_end = float(r["t_end"])
        safety = r.getfloat("safety", fallback=0.5)
        emit_every = r.getint("emit_every", fallback=10)
        seed = r.getint("seed", fallback=0)

        checks = section("checks")
        # ConfigParser.BOOLEAN_STATES, any case: 1/yes/true/on, 0/no/false/off
        viscosity = checks.getboolean("viscosity", fallback=True)
        roundtrip = checks.getboolean("roundtrip", fallback=False)
        tol_raw = checks.get("tolerance", "").strip()
        tol = float(tol_raw) if tol_raw else None
    except (KeyError, ValueError, configparser.Error) as exc:
        raise ConfigError(f"inconsistent config {path}: {exc}") from exc
    return ScenarioConfig(
        grid=grid, omega_plus_diag=omega_p, omega_minus_diag=omega_m,
        chi_plus_diag=chi_p, chi_minus_diag=chi_m,
        zeta_plus=zeta_p, zeta_minus=zeta_m,
        forcing=forcing, forcing_amplitude=f_amp, forcing_axis=f_axis,
        initial_kind=kind, initial_amplitude=amp, initial_axis=axis,
        initial_mode=mode, initial_file=ifile,
        t_end=t_end, safety=safety, emit_every=emit_every, seed=seed,
        check_viscosity=viscosity, check_roundtrip=roundtrip, tolerance=tol)


def _build_background(cfg):
    grid = cfg.grid
    const = lambda v: ScalarField(grid, np.full(grid.shape, v))
    f_fields = None
    if cfg.forcing == "sin":
        coords = grid.axis_coords(cfg.forcing_axis)
        shape = [1] * grid.real_dim
        shape[cfg.forcing_axis] = len(coords)
        vals = cfg.forcing_amplitude * np.sin(coords).reshape(shape)
        f_fields = [ScalarField(grid, np.broadcast_to(vals, grid.shape).copy())]
    elif cfg.forcing == "const":
        f_fields = [const(cfg.forcing_amplitude)]
    return BackgroundData(
        omega0_plus=HermitianMatrixField.constant(grid, "plus", np.diag(cfg.omega_plus_diag)),
        omega0_minus=HermitianMatrixField.constant(grid, "minus", np.diag(cfg.omega_minus_diag)),
        chi_plus=HermitianMatrixField.constant(grid, "plus", np.diag(cfg.chi_plus_diag)),
        chi_minus=HermitianMatrixField.constant(grid, "minus", np.diag(cfg.chi_minus_diag)),
        zeta_plus=const(cfg.zeta_plus),
        zeta_minus=const(cfg.zeta_minus),
        f_times=np.array([0.0]),
        f_fields=f_fields,
    )


def _build_initial(cfg):
    grid = cfg.grid
    if cfg.initial_kind == "zero":
        return ScalarField.zeros(grid)
    if cfg.initial_kind == "file":
        try:
            u = load_field(cfg.initial_file, spacing=grid.spacing)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"initial: cannot load {cfg.initial_file}: {exc}") from exc
        if u.grid != grid:
            raise ConfigError("initial: file grid does not match [grid] section")
        return u
    coords = grid.axis_coords(cfg.initial_axis)
    period = grid.period(cfg.initial_axis)
    shape = [1] * grid.real_dim
    shape[cfg.initial_axis] = len(coords)
    vals = cfg.initial_amplitude * np.cos(
        2.0 * np.pi * cfg.initial_mode * coords / period).reshape(shape)
    return ScalarField(grid, np.broadcast_to(vals, grid.shape).copy())


def _roundtrip_check(cfg, out):
    """Invert square(f) for a random zero-mean potential and report the error."""
    rng = np.random.default_rng(cfg.seed)
    grid = cfg.grid
    f = ScalarField(grid, rng.standard_normal(grid.shape))
    f = ScalarField(grid, f.values - f.values.mean())
    op, om = square_operator(f)
    dec = solve_square(op, om)
    err = float(np.abs(dec.f.values - f.values).max())
    out.append(f"roundtrip_error = {err!r}")
    return err < 1e-8 * (1.0 + np.abs(f.values).max())


class _PhaseClock(dict):
    """Wall seconds per phase of a run, accumulated by ``with clock(phase):``."""

    def __init__(self):
        super().__init__(dict.fromkeys(("flow", "checks", "roundtrip", "artifacts"), 0.0))

    @contextlib.contextmanager
    def __call__(self, phase):
        start = time.perf_counter()
        try:
            yield
        finally:
            self[phase] += time.perf_counter() - start


def _flow_and_checks(cfg, background, u0, out_dir, lines, clock):
    """Run the flow and the viscosity checks and write their artifacts;
    returns whether the run reached t_end and its checks passed.  The
    trajectory ends with this call, before the roundtrip check runs."""
    try:
        with clock("flow"):
            traj = run_flow(FlowState(0.0, u0, background), cfg.t_end, safety=cfg.safety,
                            emit_every=cfg.emit_every)
    except (NotAdmissible, BarrierViolation) as exc:
        # the rows emitted before the error explain how the flow got there
        if exc.rows:
            with clock("artifacts"):
                _write_monitor(os.path.join(out_dir, "monitor.csv"), exc.rows,
                               comment=f"written {time.strftime('%Y-%m-%dT%H:%M:%S')}")
        raise
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S")
    with clock("artifacts"):
        traj.write_monitor_csv(os.path.join(out_dir, "monitor.csv"),
                               comment=f"written {stamp}")
        save_field(u0, os.path.join(out_dir, "initial.bin"))
        save_field(traj.states[-1].u, os.path.join(out_dir, "final.bin"))
    lines.append(f"steps_emitted = {len(traj.rows)}")
    lines.append(f"barrier_A = {traj.barrier.A!r}")
    lines += [f"steps = {traj.steps}", f"rejected_trials = {traj.rejected_trials}",
              f"dt_min = {traj.dt_min!r}", f"dt_max = {traj.dt_max!r}"]

    ok = traj.t_end_reached    # False when the step cap stopped the run
    if not ok:
        lines.append(f"t_end_reached = False (stopped at t={traj.states[-1].t!r})")
    if cfg.check_viscosity and len(traj.states) >= 2:
        with clock("checks"):
            sub, sup = trajectory_checks(traj, tol=cfg.tolerance)
        with clock("artifacts"):
            sub.write_csv(os.path.join(out_dir, "violations_sub.csv"))
            sup.write_csv(os.path.join(out_dir, "violations_super.csv"))
        lines.append(f"sub_check_ok = {sub.ok} ({len(sub.violations)} violations)")
        lines.append(f"super_check_ok = {sup.ok} ({len(sup.violations)} violations)")
        ok = ok and sub.ok and sup.ok
    return ok


def _write_run_info(cfg, clock, out_dir):
    """``run_info.txt``: the versions, the sha256 of the config as run, its
    seed and the seconds of each phase, one ``key = value`` a line."""
    info = {"twistedma_version": __version__, "numpy_version": np.__version__,
            "scipy_version": scipy.__version__,
            "config_sha256": hashlib.sha256(repr(cfg).encode()).hexdigest(),
            "seed": cfg.seed}
    info.update((f"{phase}_s", repr(seconds)) for phase, seconds in clock.items())
    _write_lines(os.path.join(out_dir, "run_info.txt"),
                 (f"{key} = {value}" for key, value in info.items()))


def run_scenario(config, out_dir, seed=None, override_tau_star=False):
    """Execute the pipeline; returns (exit_code, summary_lines).

    Besides the artifacts, writes ``run_info.txt``, one ``key = value`` a
    line: the versions, the sha256 of the config as run, its seed, and
    the wall seconds of each phase (flow, checks, roundtrip, artifacts).
    A run that ends with an error once the out directory exists writes it
    too, with the seconds up to the error, before the error propagates.
    A flow that fails after its first row (``NotAdmissible`` or
    ``BarrierViolation``) also leaves ``monitor.csv`` with the rows it
    emitted before the error.
    """
    cfg = config if isinstance(config, ScenarioConfig) else load_config(config)
    cfg.validate()
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    os.makedirs(out_dir, exist_ok=True)
    clock = _PhaseClock()
    try:
        background = _build_background(cfg)
        u0 = _build_initial(cfg)
        tau = background.tau_star()
        lines = [f"tau_star = {tau!r}"]
        if math.isfinite(tau) and cfg.t_end >= tau and not override_tau_star:
            raise ConfigError(
                f"t_end {cfg.t_end} reaches tau_star {tau}; pass "
                f"--override-tau-star to probe the degeneration on purpose")
        ok = _flow_and_checks(cfg, background, u0, out_dir, lines, clock)
        if cfg.check_roundtrip:
            with clock("roundtrip"):
                ok = _roundtrip_check(cfg, lines) and ok
    except BaseException:
        # the error in flight is the one reported, even if this write fails
        with contextlib.suppress(OSError):
            _write_run_info(cfg, clock, out_dir)
        raise

    lines.append(f"checks_passed = {ok}")
    with clock("artifacts"):
        _write_lines(os.path.join(out_dir, "summary.txt"), lines)
    _write_run_info(cfg, clock, out_dir)
    return (0 if ok else _EXIT_CHECK_FAILED), lines


def _read_monitor(path):
    lines = _read_lines(path)
    if lines and tuple(lines[0].split(",")) != MONITOR_HEADER:
        raise ValueError(f"unexpected monitor header {lines[0].split(',')}")
    if len(lines) < 2:
        raise ValueError(f"{path}: empty trajectory")
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


def report(run_dir):
    """Summarize a run directory; returns the summary lines."""
    path = os.path.join(run_dir, "monitor.csv")
    if not os.path.exists(path):
        raise FileNotFoundError(f"no monitor.csv under {run_dir}")
    rows = _read_monitor(path)
    t = rows[:, 0]
    sup_u = rows[:, 1]
    lines = [f"emissions = {len(rows)}",
             f"t_final = {float(t[-1])!r}",
             f"sup_u_final = {float(sup_u[-1])!r}",
             f"worst_plus_margin = {float(np.nanmin(rows[:, 4]))!r}",
             f"worst_minus_margin = {float(np.nanmin(rows[:, 5]))!r}",
             f"min_barrier_gap_lo = {float(rows[:, 6].min())!r}",
             f"min_barrier_gap_hi = {float(rows[:, 7].min())!r}"]
    # exponential decay-rate fit of sup_u where it stays positive
    mask = (sup_u > 0) & (t > 0)
    if mask.sum() >= 2 and np.ptp(t[mask]) > 0:
        rate = -np.polyfit(t[mask], np.log(sup_u[mask]), 1)[0]
        lines.append(f"fitted_decay_rate = {float(rate)!r}")
    else:
        lines.append("fitted_decay_rate = nan")
    return lines


def _print_lines(lines):
    """Print to stdout; a reader that closed the pipe early is no error."""
    try:
        print("\n".join(lines), flush=True)
    except BrokenPipeError:
        # point stdout at devnull so that the flush at exit cannot raise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="twistedma",
        description="Desk-scale laboratory for the twisted parabolic "
                    "complex Monge-Ampere flow.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_run = subs.add_parser("run", help="execute a scenario config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default="out")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--override-tau-star", action="store_true")

    p_rep = subs.add_parser("report", help="summarize a run directory")
    p_rep.add_argument("dir")

    p_loc = subs.add_parser("probe-localization",
                            help="measure the penalization decay exponent")
    p_loc.add_argument("--dim", type=int, default=1)
    p_loc.add_argument("--alphas", default="1e1,1e2,1e3,1e4")
    p_loc.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            code, lines = run_scenario(args.config, args.out, seed=args.seed,
                                       override_tau_star=args.override_tau_star)
            _print_lines(lines)
            return code
        if args.command == "report":
            try:
                lines = report(args.dir)
            except (FileNotFoundError, ValueError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return _EXIT_CHECK_FAILED
            _print_lines(lines)
            return 0
        try:
            alphas = [float(v) for v in args.alphas.replace(",", " ").split()]
            result = localization_gap_probe(n=args.dim, alphas=alphas)
        except ValueError as exc:
            raise ConfigError(f"probe-localization: {exc}") from exc
        _print_lines(result._table_lines()
                     + [f"fitted_exponent = {result.fitted_exponent!r}",
                        f"reference_exponent = {result.reference_exponent!r}",
                        f"vacuous = {result.vacuous}"])
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            result.write_csv(os.path.join(args.out, "probe.csv"))
        return 0
    except TwistedMAError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODES.get(type(exc), _EXIT_CHECK_FAILED)


if __name__ == "__main__":
    sys.exit(main())
