"""The four benchmark workloads.

Each workload is a closed loop driven by one client: ``make_input(i)``
draws the i-th operation's inputs from the run seed, ``op(inp)`` is the
timed call into twistedma, and ``verify(inp, out)`` checks the result
against a reference that does not come from the code under test.  Index
0 is the untimed warm-up operation; timed operations use 1, 2, ...

Library calls go through module attributes (``flow.run``, not a name
imported here) so that the traced run's wrappers see them.
"""

from __future__ import annotations

import math
import os

import numpy as np

from twistedma import cli, flow, forms, grid, legendre, localization, potential


class Workload:
    name = ""

    def __init__(self, seed, workdir):
        self.seed = int(seed)
        self.workdir = workdir

    def rng(self, i):
        """Generator for operation i; identical for every run with this seed."""
        return np.random.default_rng([self.seed, i])

    def working_set_bytes(self):
        raise NotImplementedError

    def make_input(self, i):
        raise NotImplementedError

    def op(self, inp):
        raise NotImplementedError

    def verify(self, inp, out):
        """Return an empty string when the output is correct, else why not."""
        raise NotImplementedError


class FlowDecay(Workload):
    """flow.run on a flat background to t_end = 1/rate; the seeded cosine
    must decay at the discrete heat rate sin^2(h/2)/h^2."""

    name = "flow_decay"

    def __init__(self, seed, workdir, smoke=False):
        super().__init__(seed, workdir)
        n = 8 if smoke else 16
        self.grid = grid.BicomplexGrid.regular(1, 1, [n, 4, n, 4])
        self.background = forms.flat_background(self.grid)
        h = self.grid.spacing[0]
        self.rate = math.sin(0.5 * h) ** 2 / (h * h)
        self.t_end = 1.0 / self.rate

    def working_set_bytes(self):
        # u, rhs and the new u (real) plus both blocks, their Hessians and
        # the background slice (complex, m = 1): 3*8 + 6*16 bytes per point
        return self.grid.size * (3 * 8 + 6 * 16)

    def make_input(self, i):
        rng = self.rng(i)
        axis = int(rng.choice([0, 2]))
        amplitude = float(rng.uniform(5e-4, 2e-3))
        coords = self.grid.axis_coords(axis)
        shape = [1] * self.grid.real_dim
        shape[axis] = len(coords)
        vals = np.broadcast_to((amplitude * np.cos(coords)).reshape(shape),
                               self.grid.shape)
        return grid.ScalarField(self.grid, vals.copy())

    def op(self, u0):
        return flow.run(flow.FlowState(0.0, u0, self.background), self.t_end,
                        keep_states="none")

    def verify(self, u0, traj):
        rows = np.asarray(traj.rows, dtype=np.float64)
        if not np.all(np.isfinite(rows[:, :3])):
            return "non-finite monitor rows"
        mask = rows[:, 0] > 0
        fitted = -np.polyfit(rows[mask, 0], np.log(rows[mask, 1]), 1)[0]
        rel = abs(fitted - self.rate) / self.rate
        return "" if rel <= 0.05 else f"decay rate {fitted!r} vs {self.rate!r}"


class PotentialRoundtrip(Workload):
    """square_operator then solve_square on a seeded band-limited
    zero-mean field; the known input field is the reference."""

    name = "potential_roundtrip"
    TERMS = 6
    MAX_MODE = 2

    def __init__(self, seed, workdir, smoke=False):
        super().__init__(seed, workdir)
        self.grid = grid.BicomplexGrid.regular(1, 1, 8 if smoke else 32)

    def working_set_bytes(self):
        # about ten live complex arrays of the grid size inside solve_square
        return self.grid.size * 16 * 10

    def make_input(self, i):
        """Sum of cos(k.x + phase) terms with |k_a| <= 2, built as one
        (plus plane) x (minus plane) matrix product."""
        rng = self.rng(i)
        g = self.grid
        n0, n1, n2, n3 = g.shape
        x = [g.axis_coords(a) for a in range(4)]
        plus_cols, minus_cols = [], []
        for _ in range(self.TERMS):
            k = rng.integers(-self.MAX_MODE, self.MAX_MODE + 1, size=4)
            if not k.any():
                k[0] = 1
            amp = rng.standard_normal()
            tp = (k[0] * x[0][:, None] + k[1] * x[1][None, :]
                  + rng.uniform(0.0, 2.0 * np.pi)).ravel()
            tm = (k[2] * x[2][:, None] + k[3] * x[3][None, :]).ravel()
            # cos(tp + tm) = cos tp cos tm - sin tp sin tm
            plus_cols += [amp * np.cos(tp), -amp * np.sin(tp)]
            minus_cols += [np.cos(tm), np.sin(tm)]
        vals = (np.stack(plus_cols, axis=1) @ np.stack(minus_cols, axis=0))
        vals = vals.reshape(n0, n1, n2, n3)
        vals -= vals.mean()
        return grid.ScalarField(g, vals)

    def op(self, f):
        return potential.solve_square(*potential.square_operator(f))

    def verify(self, f, dec):
        err = float(np.abs(dec.f.values - f.values).max())
        return "" if err <= 1e-10 else f"roundtrip error {err!r}"


_SCENARIO = """\
[grid]
k = 2
l = 2
n = {n}

[background]
omega_plus = {omega_plus}
omega_minus = {omega_minus}
chi_plus = {chi_plus}
chi_minus = {chi_minus}
zeta_plus = {zeta_plus!r}
zeta_minus = {zeta_minus!r}
forcing = sin
forcing_amplitude = {forcing_amplitude!r}
forcing_axis = {forcing_axis}

[initial]
kind = cosine
amplitude = {amplitude!r}
axis = {axis}
mode = 1

[run]
t_end = {t_end!r}
safety = 0.5
emit_every = 2
seed = {seed}

[checks]
viscosity = true
roundtrip = true
jet_samples = 2
"""


class ScenarioDrift(Workload):
    """cli.run_scenario on a seeded INI config with a drifting background
    (chi != 0, tau* finite but beyond t_end), sin forcing and zeta != 0."""

    name = "scenario_drift"
    T_END = 0.2

    def __init__(self, seed, workdir, smoke=False):
        super().__init__(seed, workdir)
        self.n = 4
        self.points = self.n ** 8
        self.t_end = 0.1 if smoke else self.T_END
        self.config_path = os.path.join(workdir, "scenario.cfg")
        self.out_dir = os.path.join(workdir, "scenario_out")

    def working_set_bytes(self):
        # emitted u stack (at most 6 slices) plus, per jet perturbation, both
        # 2x2 complex blocks and their Hessians: 6*8 + 4*4*16 bytes per point
        return self.points * (6 * 8 + 4 * 4 * 16)

    def make_input(self, i):
        rng = self.rng(i)
        diag = lambda lo, hi: " ".join(repr(float(v))
                                       for v in rng.uniform(lo, hi, size=2))
        omega_plus, omega_minus = diag(0.8, 1.2), diag(0.8, 1.2)
        # whitened chi <= 1 / 0.8, so tau* >= 0.8 > 2 * t_end; the first
        # plus entry is positive so tau* is finite
        chi = rng.uniform(-1.0, 1.0, size=4)
        chi[0] = rng.uniform(0.3, 1.0)
        text = _SCENARIO.format(
            n=self.n, omega_plus=omega_plus, omega_minus=omega_minus,
            chi_plus=" ".join(repr(float(v)) for v in chi[:2]),
            chi_minus=" ".join(repr(float(v)) for v in chi[2:]),
            zeta_plus=float(rng.uniform(0.05, 0.2)) * float(rng.choice([-1, 1])),
            zeta_minus=float(rng.uniform(0.05, 0.2)) * float(rng.choice([-1, 1])),
            forcing_amplitude=float(rng.uniform(0.1, 0.5)),
            forcing_axis=int(rng.integers(0, 8)),
            amplitude=float(rng.uniform(0.02, 0.08)), axis=int(rng.integers(0, 8)),
            t_end=self.t_end, seed=int(rng.integers(0, 2**31)))
        with open(self.config_path, "w") as fh:
            fh.write(text)
        return self.config_path

    def op(self, config_path):
        return cli.run_scenario(config_path, self.out_dir)[0]

    def verify(self, config_path, code):
        if code != 0:
            return f"exit code {code}"
        final = grid.load_field(os.path.join(self.out_dir, "final.bin"))
        if final.values.size != self.points or not np.all(np.isfinite(final.values)):
            return "final.bin does not reload as a finite field of the grid"
        summary = dict(line.split(" = ", 1) for line in cli.report(self.out_dir))
        t_final = float(summary["t_final"])
        if int(summary["emissions"]) < 2 or abs(t_final - self.t_end) > 1e-9:
            return f"monitor.csv ends at t = {t_final!r}, not {self.t_end!r}"
        return ""


class WeakTheory(Workload):
    """legendre_roundtrip_error, transformed_residual on a manufactured
    trajectory, and one localization_gap_probe(n=1)."""

    name = "weak_theory"

    def __init__(self, seed, workdir, smoke=False):
        super().__init__(seed, workdir)
        self.shape = (8, 128) if smoke else (64, 1024)

    def working_set_bytes(self):
        # field, conjugate and roundtrip (float64) plus the probe's
        # 13^4-point search block of 4-vectors and objective values
        return 3 * 8 * self.shape[0] * self.shape[1] + 13 ** 4 * 8 * 5

    def make_input(self, i):
        rng = self.rng(i)
        nx, nm = self.shape
        xp = np.arange(nx) * 2.0 * np.pi / nx
        xm = np.arange(nm) * 2.0 * np.pi / nm
        a, c, b = rng.uniform(0.1, 0.3), rng.uniform(0.4, 0.6), rng.uniform(0.1, 0.3)
        # d2/dxm2 = -2c + b cos(xm) < 0 since b < 2c: strictly concave
        field = legendre.ReducedField(
            xp, xm, a * np.cos(xp)[:, None] - c * (xm[None, :] - np.pi) ** 2
            - b * np.cos(xm)[None, :])
        # manufactured u = r t + q cos(x+) - s (x- - pi)^2 with F chosen so
        # the reduced flow holds exactly in the continuum
        r, q, s = rng.uniform(0.05, 0.15), rng.uniform(0.02, 0.08), rng.uniform(0.4, 0.6)
        sxp = np.arange(16) * 2.0 * np.pi / 16
        sxm = np.arange(64) * 2.0 * np.pi / 64
        times = np.linspace(0.0, 0.03, 5)
        slices = [legendre.ReducedField(
            sxp, sxm, r * t + q * np.cos(sxp)[:, None] - s * (sxm[None, :] - np.pi) ** 2)
            for t in times]
        forcing = lambda x, t: np.log1p(-0.25 * q * np.cos(x)) - np.log1p(0.5 * s) - r
        base, ratio = 10.0 ** rng.uniform(0.7, 1.3), 10.0 ** rng.uniform(0.85, 1.15)
        alphas = tuple(base * ratio ** j for j in range(4))
        return {"field": field, "slices": slices, "times": times,
                "forcing": forcing, "alphas": alphas,
                "row": int(rng.integers(0, nx))}

    def op(self, inp):
        err = legendre.legendre_roundtrip_error(inp["field"])
        r_v, _ = legendre.transformed_residual(inp["slices"], inp["times"],
                                               F=inp["forcing"])
        probe = localization.localization_gap_probe(n=1, alphas=inp["alphas"])
        return err, r_v, probe

    def verify(self, inp, out):
        err, r_v, probe = out
        field = inp["field"]
        h = field.second_spacing()
        if not err <= h * h:
            return f"roundtrip error {err!r} above h^2 = {h * h!r}"
        r_u, _ = legendre.untransformed_residual(inp["slices"], inp["times"],
                                                 F=inp["forcing"])
        if not r_v <= 10.0 * r_u:
            return f"transformed residual {r_v!r} above 10x untransformed {r_u!r}"
        # one slice of the conjugate against the O(N M) brute-force maximum
        row = legendre.ReducedField(field.x_plus[inp["row"]:inp["row"] + 1],
                                    field.second, field.values[inp["row"]:inp["row"] + 1])
        conj = legendre.partial_legendre(row)
        brute = legendre.conjugate_slice_bruteforce(row.second, row.values[0], conj.second)
        dev = float(np.abs(conj.values[0] - brute).max())
        if dev > 1e-12 * (1.0 + float(np.abs(brute).max())):
            return f"conjugate slice differs from brute force by {dev!r}"
        margin = probe.reference_exponent - probe.fitted_exponent
        if probe.vacuous or not margin >= 1.0:
            return f"probe vacuous={probe.vacuous} margin={margin!r}"
        return ""


WORKLOADS = {cls.name: cls for cls in (FlowDecay, PotentialRoundtrip,
                                       ScenarioDrift, WeakTheory)}
