import unittest.mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twistedma import (BicomplexGrid, FlowState, HermitianMatrixField,
                       ScalarField, admissibility, background_at, barriers,
                       flat_background, run, stable_dt, step, twisted_rhs)
from twistedma import flow
from twistedma.errors import BarrierViolation, NotAdmissible
from twistedma.flow import MONITOR_HEADER
from twistedma.grid import hessian_block_values

from conftest import bandlimited_field, cos_axis_field


def independent_rhs_oracle(u, background, t=0.0):
    """Re-derive the right-hand side from scratch with numpy.linalg only."""
    grid = u.grid
    vals = u.values

    def d2(arr, a, b):
        ha, hb = grid.spacing[a], grid.spacing[b]
        if a == b:
            return (np.roll(arr, -1, a) - 2 * arr + np.roll(arr, 1, a)) / ha ** 2
        out = np.zeros_like(arr)
        for sa in (1, -1):
            for sb in (1, -1):
                out = out + sa * sb * np.roll(np.roll(arr, -sa, a), -sb, b)
        return out / (4 * ha * hb)

    def hess(block):
        axes = grid.block_axes(block)
        m = len(axes)
        H = np.zeros(grid.shape + (m, m), dtype=complex)
        for i, (xi, yi) in enumerate(axes):
            for j, (xj, yj) in enumerate(axes):
                re = d2(vals, xi, xj) + d2(vals, yi, yj)
                im = d2(vals, xi, yj) - d2(vals, yi, xj)
                H[..., i, j] = 0.25 * (re + 1j * im)
        return H

    plus = background.omega0_plus.values - t * background.chi_plus.values + hess("plus")
    minus = background.omega0_minus.values - t * background.chi_minus.values - hess("minus")
    return (np.log(np.linalg.det(plus).real) - np.log(np.linalg.det(minus).real)
            + background.zeta_minus.values - background.zeta_plus.values
            - background.F_at(t))


class TestTwistedRhs:
    def test_flat_zero(self, small_grid):
        bg = flat_background(small_grid)
        rhs = twisted_rhs(FlowState(0.0, ScalarField.zeros(small_grid), bg))
        assert np.abs(rhs.values).max() == 0.0

    def test_constant_forcing(self, small_grid):
        c = 0.7
        F = ScalarField(small_grid, np.full(small_grid.shape, c))
        bg = flat_background(small_grid, f_times=np.array([0.0]), f_fields=[F])
        rhs = twisted_rhs(FlowState(0.0, ScalarField.zeros(small_grid), bg))
        assert np.allclose(rhs.values, -c)

    def test_matches_independent_composition(self):
        g = BicomplexGrid.regular(1, 1, 16)
        bg = flat_background(g)
        u = cos_axis_field(g, 0, amplitude=0.01)
        rhs = twisted_rhs(FlowState(0.0, u, bg))
        oracle = independent_rhs_oracle(u, bg)
        assert np.abs(rhs.values - oracle).max() < 1e-12

    def test_not_admissible_raises(self):
        g = BicomplexGrid.regular(1, 1, 16)
        bg = flat_background(g)
        u = cos_axis_field(g, 0, amplitude=10.0)
        with pytest.raises(NotAdmissible) as exc:
            twisted_rhs(FlowState(0.0, u, bg))
        assert exc.value.block == "plus"
        assert exc.value.eigenvalue < 0

    def test_non_finite_rhs_names_its_point(self, small_grid):
        with np.errstate(over="ignore"):
            bg = flat_background(
                small_grid,
                zeta_plus=ScalarField(small_grid, np.full(small_grid.shape, -1e308)),
                zeta_minus=ScalarField(small_grid, np.full(small_grid.shape, 1e308)))
        with pytest.raises(NotAdmissible, match=r"rhs is not finite at point \(0, 0, 0, 0\)"):
            twisted_rhs(FlowState(0.0, ScalarField.zeros(small_grid), bg))

    @pytest.mark.parametrize("make,message", [
        (lambda g: FlowState(float("nan"), ScalarField.zeros(g), flat_background(g)),
         "flow time must be >= 0"),
        (lambda g: flow.BarrierPair(float("nan"), ScalarField.zeros(g)),
         "barrier slope must be >= 0"),
        (lambda g: background_at(flat_background(g), float("nan")),
         "background family is defined for t >= 0"),
        (lambda g: flat_background(g, f_times=np.array([0.0, np.nan]),
                                   f_fields=[ScalarField.zeros(g)] * 2),
         "F time knots must be strictly increasing")],
        ids=["state-time", "barrier-slope", "background-time", "f-knots"])
    def test_nan_time_slope_or_knot_is_refused(self, small_grid, make, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make(small_grid)

    def test_nan_margin_is_lost_positivity(self):
        # the Hessian of 1e308 cos(x0 + x2) overflows, and the closed-form
        # lambda_min is NaN: a lost block, as AdmissibilityReport reads it
        g = BicomplexGrid.regular(2, 2, 4)
        x = np.meshgrid(*(g.axis_coords(a) for a in range(g.real_dim)),
                        indexing="ij", sparse=True)
        u = ScalarField(g, np.broadcast_to(1e308 * np.cos(x[0] + x[2]), g.shape).copy())
        state = FlowState(0.0, u, flat_background(g))
        with pytest.raises(NotAdmissible) as exc:
            twisted_rhs(state)
        assert str(exc.value) == ("plus block lost positivity at point "
                                  "(0, 0, 0, 0, 0, 0, 0, 0) (eigenvalue nan)")
        assert exc.value.block == "plus"
        assert not admissibility(state).admissible


class TestAdmissibility:
    def test_flat_margins(self, small_grid):
        bg = flat_background(small_grid)
        rep = admissibility(FlowState(0.0, ScalarField.zeros(small_grid), bg))
        assert rep.plus_margin == pytest.approx(1.0)
        assert rep.minus_margin == pytest.approx(1.0)
        assert rep.admissible

    def test_large_cosine_negative_plus_margin(self):
        g = BicomplexGrid.regular(1, 1, 16)
        bg = flat_background(g)
        rep = admissibility(FlowState(0.0, cos_axis_field(g, 0, amplitude=10.0), bg))
        assert rep.plus_margin < 0
        assert not rep.admissible


class TestStableDt:
    def test_plug_in_formula(self):
        g = BicomplexGrid.regular(1, 1, 64)
        bg = flat_background(g)
        dt = stable_dt(FlowState(0.0, ScalarField.zeros(g), bg))
        h = 2 * np.pi / 64
        assert dt == pytest.approx(h * h / 16.0, rel=1e-12)

    def test_quarter_under_refinement(self):
        bg16 = flat_background(BicomplexGrid.regular(1, 1, 16))
        bg32 = flat_background(BicomplexGrid.regular(1, 1, 32))
        d16 = stable_dt(FlowState(0.0, ScalarField.zeros(bg16.grid), bg16))
        d32 = stable_dt(FlowState(0.0, ScalarField.zeros(bg32.grid), bg32))
        assert d32 == pytest.approx(d16 / 4.0, rel=1e-12)


class TestStep:
    def test_stationary_unchanged(self, small_grid):
        bg = flat_background(small_grid)
        st = FlowState(0.0, ScalarField.zeros(small_grid), bg)
        new = step(st, stable_dt(st))
        assert np.abs(new.u.values).max() == 0.0
        assert admissibility(new).admissible

    def test_cosine_decays(self):
        g = BicomplexGrid.regular(1, 1, 16)
        bg = flat_background(g)
        st = FlowState(0.0, cos_axis_field(g, 0, amplitude=1e-3), bg)
        new = step(st, stable_dt(st))
        assert np.abs(new.u.values).max() < 1e-3

    def test_richardson_second_order_in_dt(self):
        g = BicomplexGrid.regular(1, 1, 16)
        bg = flat_background(g)
        u0 = cos_axis_field(g, 0, amplitude=0.1)
        dt = stable_dt(FlowState(0.0, u0, bg))
        full = step(FlowState(0.0, u0, bg), dt)
        half = step(step(FlowState(0.0, u0, bg), dt / 2), dt / 2)
        diff = np.abs(full.u.values - half.u.values).max()
        # forward Euler: one-step splitting error is O(dt^2)
        assert 0 < diff < 10 * dt * dt

    def test_scheme_comparison_small_amplitude(self, rng):
        g = BicomplexGrid.regular(1, 1, 8)
        bg = flat_background(g)
        u = bandlimited_field(g, rng, amp=1e-4)
        v = ScalarField(g, u.values + 1e-4)
        dt = stable_dt(FlowState(0.0, u, bg))
        un = step(FlowState(0.0, u, bg), dt)
        vn = step(FlowState(0.0, v, bg), dt)
        assert (un.u.values - vn.u.values).max() <= 1e-10


def etd1_run(state, t_end):
    """ETD1 steps under run's rule before ETD2: dt = min(16 stable_dt, the
    remainder bound, the drift bound, t_end - t)."""
    n_steps = 0
    while state.t < t_end * (1.0 - 1e-14):
        dt = min(16.0 * stable_dt(state), flow._remainder_dt(state, 0.5),
                 flow._drift_dt(state, 0.5), t_end - state.t)
        state = step(state, dt)
        n_steps += 1
    return state, n_steps


def euler_run(state, t_end):
    """Forward Euler, the L = 0 case of the step, at the explicit bound."""
    n_steps = 0
    while state.t < t_end - 1e-14:
        dt = min(stable_dt(state), t_end - state.t)
        u = ScalarField(state.u.grid, state.u.values + dt * twisted_rhs(state).values)
        state = FlowState(state.t + dt, u, state.background)
        n_steps += 1
    return state, n_steps


class TestExponentialStep:
    @pytest.mark.parametrize("k,l", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_symbol_matches_lattice_trace(self, k, l, rng):
        n_axes = 2 * k + 2 * l
        g = BicomplexGrid(k, l, (6,) + (4,) * (n_axes - 1),
                          tuple(rng.uniform(0.3, 1.2, size=n_axes)))
        forms = {}
        for block, m in (("plus", k), ("minus", l)):
            B = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            forms[block] = B @ B.conj().T + 0.5 * np.eye(m)
        bg = flat_background(
            g, omega0_plus=HermitianMatrixField.constant(g, "plus", forms["plus"]),
            omega0_minus=HermitianMatrixField.constant(g, "minus", forms["minus"]))
        symbol = flow._linearization(FlowState(0.0, ScalarField.zeros(g), bg)).symbol
        u = rng.standard_normal(g.shape)
        spectral = np.fft.irfftn(symbol * np.fft.rfftn(u), s=g.shape,
                                 axes=range(n_axes))
        lattice = 0.0
        for block, omega in forms.items():
            A = np.linalg.inv(omega)
            lattice = lattice + np.einsum("ij,...ji->...", A,
                                          hessian_block_values(u, g, block))
        assert np.abs(lattice.imag).max() <= 1e-12
        assert np.abs(spectral - lattice.real).max() <= 1e-12

    def test_one_step_decays_cosine_by_exact_factor(self):
        g = BicomplexGrid.regular(1, 1, [16, 4, 16, 4])
        amp = 1e-8
        u0 = cos_axis_field(g, 0, amplitude=amp)
        state = FlowState(0.0, u0, flat_background(g))
        dt = 16.0 * stable_dt(state)
        h = g.spacing[0]
        rate = np.sin(0.5 * h) ** 2 / (h * h)
        new = step(state, dt)
        # forward Euler's factor 1 - rate dt misses by ~(rate dt)^2 / 2 amp
        assert np.abs(new.u.values - np.exp(-rate * dt) * u0.values).max() <= amp ** 2

    def test_emit_every_counts_explicit_steps(self, small_grid):
        state = FlowState(0.0, ScalarField.zeros(small_grid), flat_background(small_grid))
        explicit_dt = stable_dt(state)
        traj = run(state, 100 * explicit_dt, emit_every=32)
        # the zero field's ETD2 correction is 0, so after the first step of
        # 16 explicit steps each step doubles: 16, 16, 32, then the 36 left;
        # a row where the count crosses 32 and 64, and at t_end
        times = np.array(traj.rows)[:, 0] / explicit_dt
        assert np.allclose(times, [0, 32, 64, 100], rtol=1e-12)

    def test_remainder_bound_far_from_the_linearization(self):
        g = BicomplexGrid.regular(1, 1, 16)
        state = FlowState(0.0, cos_axis_field(g, 0, amplitude=2.0), flat_background(g))
        assert flow._remainder_dt(state, 0.5) < 16.0 * stable_dt(state)
        traj = run(state, 1.0, keep_states="none")
        euler, _ = euler_run(state, 1.0)
        assert np.abs(traj.states[-1].u.values - euler.u.values).max() <= 1e-2

    def test_remainder_bound_capped_by_explicit_stiffness(self):
        # omega_0+ = exp(2 cos x) strays far from its mean: ||A|| max|dev|
        # exceeds 1, and ||form^-1 - A|| <= max(1 / margin, ||A||) caps it
        g = BicomplexGrid.regular(1, 1, 8)
        omega = np.exp(2.0 * np.cos(g.axis_coords(0))).reshape(-1, 1, 1, 1, 1, 1)
        bg = flat_background(g, omega0_plus=HermitianMatrixField(
            g, "plus", np.broadcast_to(omega, g.shape + (1, 1))))
        state = FlowState(0.0, ScalarField.zeros(g), bg)
        assert flow._remainder_dt(state, 0.5) > stable_dt(state)


class TestExponentialMultistep:
    def test_error_quarters_when_dt_halves(self, monkeypatch):
        # every correction kept: fixed steps of ETD2 on a nonlinear cosine
        monkeypatch.setattr(flow, "_ETD2_TOL", np.inf)
        g = BicomplexGrid.regular(1, 1, [16, 4, 4, 4])
        state0 = FlowState(0.0, cos_axis_field(g, 0, amplitude=0.3), flat_background(g))

        def fixed(n):
            state = state0
            for _ in range(n):
                state = step(state, 0.4 / n, state._last_step)
            return state.u.values

        ref = fixed(256)
        errs = [np.abs(fixed(n) - ref).max() for n in (8, 16, 32)]
        assert all(3.5 <= a / b <= 4.5 for a, b in zip(errs, errs[1:]))

    def test_one_step_run_is_the_etd1_step(self):
        g = BicomplexGrid.regular(1, 1, 16)
        state0 = FlowState(0.0, cos_axis_field(g, 0, amplitude=0.05), flat_background(g))
        t_end = 0.5 * stable_dt(state0)
        traj = run(state0, t_end, keep_states="none")
        assert traj.steps == 1
        assert np.array_equal(traj.states[-1].u.values, step(state0, t_end).u.values)

    @pytest.mark.parametrize("amplitude,chi,t_end", [(2.0, 0.0, 0.2), (1e-2, 0.5, 0.5)])
    def test_run_steps_no_more_than_etd1(self, amplitude, chi, t_end):
        # amplitude 2: the remainder bound binds; chi = 0.5: a drifting background
        g = BicomplexGrid.regular(1, 1, 16)
        bg = flat_background(
            g, chi_plus=HermitianMatrixField.constant(g, "plus", chi * np.eye(1)),
            chi_minus=HermitianMatrixField.constant(g, "minus", -chi * np.eye(1)))
        state0 = FlowState(0.0, cos_axis_field(g, 0, amplitude=amplitude), bg)
        _, n_etd1 = etd1_run(state0, t_end)
        assert run(state0, t_end, keep_states="none").steps <= n_etd1


class TestBarriers:
    def test_stationary_zero_slope(self, small_grid):
        bg = flat_background(small_grid)
        bp = barriers(ScalarField.zeros(small_grid), bg)
        assert bp.A == 0.0
        assert np.array_equal(bp.lower(1.0), bp.upper(1.0))

    def test_constant_forcing_slope(self, small_grid):
        c = -0.4
        F = ScalarField(small_grid, np.full(small_grid.shape, c))
        bg = flat_background(small_grid, f_times=np.array([0.0]), f_fields=[F])
        bp = barriers(ScalarField.zeros(small_grid), bg)
        assert bp.A == pytest.approx(abs(c))

    def test_slope_equals_measured_rhs(self):
        g = BicomplexGrid.regular(1, 1, 16)
        bg = flat_background(g)
        u0 = cos_axis_field(g, 0, amplitude=0.01)
        bp = barriers(u0, bg)
        rhs = twisted_rhs(FlowState(0.0, u0, bg))
        assert bp.A == pytest.approx(np.abs(rhs.values).max())

    @pytest.mark.parametrize("chi", [0.0, 0.5])
    def test_run_barrier_is_barriers(self, chi):
        # run reads its slope from its own first state: the bits of barriers,
        # on a static background and on a drifting one
        g = BicomplexGrid.regular(1, 1, 8)
        F = ScalarField(g, 0.3 * np.sin(g.axis_coords(2)).reshape(1, 1, -1, 1)
                        * np.ones(g.shape))
        bg = flat_background(
            g, f_times=np.array([0.0]), f_fields=[F],
            chi_plus=HermitianMatrixField.constant(g, "plus", chi * np.eye(1)),
            chi_minus=HermitianMatrixField.constant(g, "minus", -chi * np.eye(1)))
        u0 = cos_axis_field(g, 0, amplitude=0.05)
        expected = barriers(u0, bg)
        traj = run(FlowState(0.0, u0, bg), 0.05, keep_states="none")
        assert expected.A > 0.0 and traj.barrier.A == expected.A
        assert np.array_equal(traj.barrier.u0.values, u0.values)


class TestRun:
    def test_stationary_trajectory_constant(self, small_grid):
        bg = flat_background(small_grid)
        traj = run(FlowState(0.0, ScalarField.zeros(small_grid), bg), 0.1)
        for st in traj.states:
            assert np.abs(st.u.values).max() <= 1e-14

    def test_monitor_csv_format(self, small_grid, tmp_path):
        bg = flat_background(small_grid)
        traj = run(FlowState(0.0, ScalarField.zeros(small_grid), bg), 0.05)
        path = tmp_path / "monitor.csv"
        traj.write_monitor_csv(path, comment="test stamp")
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "# test stamp"
        assert lines[1] == ",".join(MONITOR_HEADER)
        assert len(lines) == 2 + len(traj.rows)

    def test_perturbation_decays_monotonically(self):
        g = BicomplexGrid.regular(1, 1, 16)
        bg = flat_background(g)
        u0 = cos_axis_field(g, 0, amplitude=1e-3)
        traj = run(FlowState(0.0, u0, bg), 0.5, emit_every=5)
        sup = np.array(traj.rows)[:, 1]
        assert np.all(np.diff(sup) <= 1e-15)

    def test_barrier_gaps_recorded_nonnegative(self):
        g = BicomplexGrid.regular(1, 1, 16)
        F = ScalarField(g, 0.5 * np.sin(g.axis_coords(0)).reshape(-1, 1, 1, 1)
                        * np.ones(g.shape))
        bg = flat_background(g, f_times=np.array([0.0]), f_fields=[F])
        traj = run(FlowState(0.0, ScalarField.zeros(g), bg), 0.2, emit_every=5)
        rows = np.array(traj.rows)
        assert rows[:, 6].min() >= -1e-12
        assert rows[:, 7].min() >= -1e-12

    def test_ellipticity_persistence(self):
        g = BicomplexGrid.regular(1, 1, 16)
        bg = flat_background(g)
        u0 = cos_axis_field(g, 0, amplitude=0.2)
        traj = run(FlowState(0.0, u0, bg), 0.3, emit_every=5)
        rows = np.array(traj.rows)
        margins = np.concatenate([rows[1:, 4], rows[1:, 5]])
        initial = min(rows[0, 4], rows[0, 5])
        assert margins.min() >= 0.5 * initial

    @pytest.mark.parametrize("mode", ["all", "bogus"])
    def test_unknown_keep_states_rejected(self, small_grid, mode):
        state = FlowState(0.0, ScalarField.zeros(small_grid), flat_background(small_grid))
        with pytest.raises(ValueError, match="keep_states"):
            run(state, 0.01, keep_states=mode)

    def test_keep_states_none_keeps_final_only(self, small_grid):
        state = FlowState(0.0, ScalarField.zeros(small_grid), flat_background(small_grid))
        traj = run(state, 0.05, emit_every=1, keep_states="none")
        assert len(traj.states) == 1 and traj.states[0].t == traj.rows[-1][0]

    @pytest.mark.parametrize("keep", ["emitted", "none"])
    @pytest.mark.parametrize("k,l", [(1, 1), (2, 1)])
    def test_final_state_keeps_its_blocks(self, keep, k, l):
        # the final state carries the forms the flow built for it, bitwise
        # those of a fresh state; emitted copies carry none
        g = BicomplexGrid.regular(k, l, 4)
        bg = flat_background(g, chi_plus=HermitianMatrixField.constant(
            g, "plus", 0.3 * np.eye(k)))
        traj = run(FlowState(0.0, cos_axis_field(g, 1, amplitude=0.05), bg), 0.05,
                   emit_every=1, keep_states=keep)
        final = traj.states[-1]
        fresh = FlowState(final.t, final.u.copy(), bg)
        for kept, built in zip(final._blocks, flow.form_block_values(fresh)):
            assert kept.dtype == built.dtype and np.array_equal(kept, built)
        assert final._report == admissibility(fresh)
        assert final._slice is not None
        assert final._rhs is None and final._last_step is None
        assert all(s._blocks is None for s in traj.states[:-1])
        assert [s.t for s in traj.states] == ([r[0] for r in traj.rows] if keep == "emitted"
                                              else [traj.rows[-1][0]])

    def test_step_cap_short_of_t_end_recorded(self, monkeypatch):
        g = BicomplexGrid.regular(1, 1, 16)
        state = FlowState(0.0, cos_axis_field(g, 0, amplitude=1e-3), flat_background(g))
        assert run(state, 0.5, keep_states="none").t_end_reached
        monkeypatch.setattr(flow, "_MAX_STEPS", 2)
        traj = run(state, 0.5, keep_states="none")
        assert not traj.t_end_reached and 0.0 < traj.states[-1].t < 0.5
        assert traj.rows[-1][0] == traj.states[-1].t

    def test_finite_tau_star_scenario_completes(self):
        g = BicomplexGrid.regular(1, 1, 8)
        bg = flat_background(
            g,
            chi_plus=HermitianMatrixField.constant(g, "plus", 2 * np.eye(1)),
            chi_minus=HermitianMatrixField.constant(g, "minus", -np.eye(1)))
        tau = bg.tau_star()
        traj = run(FlowState(0.0, ScalarField.zeros(g), bg), 0.9 * tau,
                   emit_every=50)
        rows = np.array(traj.rows)
        assert rows[-1, 4] > 0 and rows[-1, 5] > 0

    def test_degeneration_collapses_the_step(self):
        # tau* = 1/2; the drift bound keeps each step within the plus margin,
        # so the run stops at tau* instead of stepping past it
        g = BicomplexGrid.regular(1, 1, 8)
        bg = flat_background(
            g,
            chi_plus=HermitianMatrixField.constant(g, "plus", 2 * np.eye(1)),
            chi_minus=HermitianMatrixField.constant(g, "minus", -np.eye(1)))
        with pytest.raises(NotAdmissible, match="step size collapsed at t=0.5") as exc:
            run(FlowState(0.0, ScalarField.zeros(g), bg), 10.0, keep_states="none")
        assert exc.value.block == "plus"
        assert 0.0 < exc.value.eigenvalue < 1e-9


def _bits(a):
    return a.dtype, a.shape, a.tobytes()


def _form_background(g, full, complex_one):
    """A drifting background whose omega_0 blocks are constant (broadcast)
    or vary along axis 0 (full); ``complex_one`` stores a 1x1 block as
    complex128."""
    def omega(block):
        m = g.block_dim(block)
        shape = g.shape if full else (1,) * g.real_dim
        x0 = (np.arange(shape[0]) * g.spacing[0]).reshape((-1,) + (1,) * (g.real_dim - 1))
        scale = np.broadcast_to(1.0 + 0.1 * np.cos(x0), shape)[..., None, None]
        unit = np.eye(m) + (0.1j * np.array([[0.0, 1.0], [-1.0, 0.0]]) if m == 2 else 0.0)
        values = scale * unit
        return HermitianMatrixField(g, block, values.astype(np.complex128) if complex_one
                                    else values)
    chi = lambda block: HermitianMatrixField.constant(g, block, 0.3 * np.eye(g.block_dim(block)))
    return flat_background(g, omega0_plus=omega("plus"), omega0_minus=omega("minus"),
                           chi_plus=chi("plus"), chi_minus=chi("minus"))


class TestInPlaceForms:
    @pytest.mark.parametrize("complex_one", [False, True])
    @pytest.mark.parametrize("full", [False, True])
    @pytest.mark.parametrize("k,l", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_forms_are_the_out_of_place_ones_bitwise(self, k, l, full, complex_one, rng):
        # omega+ + hess+ u and omega- - hess- u, built in the Hessian's buffer;
        # a complex 1x1 background over a real Hessian keeps the sum out of place
        g = BicomplexGrid.regular(k, l, 4)
        bg = _form_background(g, full, complex_one)
        u = bandlimited_field(g, rng, amp=0.05)
        for t in (0.0, 0.1):
            state = FlowState(t, u, bg)
            plus, minus = flow.form_block_values(state)
            slice_ = background_at(bg, t)
            ref_plus = slice_.omega_hat_plus.values + hessian_block_values(u.values, g, "plus")
            ref_minus = (slice_.omega_hat_minus.values
                         - hessian_block_values(u.values, g, "minus"))
            assert _bits(plus) == _bits(ref_plus) and _bits(minus) == _bits(ref_minus)
            for form, omega in ((plus, state._slice.omega_hat_plus.values),
                                (minus, state._slice.omega_hat_minus.values)):
                assert form.shape == g.shape + omega.shape[-2:]
                assert not np.shares_memory(form, omega)
                assert not np.shares_memory(form, u.values)

    def test_step_keeps_its_arguments_forms(self):
        g = BicomplexGrid.regular(2, 2, 4)
        state = FlowState(0.0, cos_axis_field(g, 2, amplitude=0.05),
                          _form_background(g, True, False))
        blocks = flow.form_block_values(state)
        copies = [b.copy() for b in blocks]
        new = step(state, stable_dt(state))
        assert state._blocks is blocks
        assert all(np.array_equal(b, c) for b, c in zip(blocks, copies))
        assert new._blocks is not None and new._blocks is not blocks

    def test_run_drops_the_forms_of_replaced_states(self, monkeypatch):
        # each state run hands to step has its rhs and L cached and no forms
        # (test_run_builds_each_state_once: none are built twice); the final
        # state keeps its own
        g = BicomplexGrid.regular(1, 1, 16)
        bg = flat_background(
            g, chi_plus=HermitianMatrixField.constant(g, "plus", 0.5 * np.eye(1)))
        seen, real_step = [], flow.step

        def spied(state, *args):
            seen.append((state._blocks, state._rhs, state._slice))
            return real_step(state, *args)
        monkeypatch.setattr(flow, "step", spied)
        traj = run(FlowState(0.0, cos_axis_field(g, 0, amplitude=1e-2), bg), 0.5)
        assert len(seen) == traj.steps >= 2
        assert all(blocks is None and rhs is not None and slice_ is not None
                   and slice_._linear is not None for blocks, rhs, slice_ in seen)
        assert traj.states[-1]._blocks is not None


class TestFailedRunRows:
    @pytest.mark.parametrize("error", [NotAdmissible, BarrierViolation])
    def test_error_carries_the_rows_emitted_before_it(self, monkeypatch, error):
        g = BicomplexGrid.regular(1, 1, 16)
        state0 = FlowState(0.0, cos_axis_field(g, 0, amplitude=1e-2), flat_background(g))
        full = run(state0, 0.5, emit_every=1)
        calls, real_step = [], flow.step

        def failing(*args):
            calls.append(None)
            if len(calls) == 3:
                raise error("injected after the second step")
            return real_step(*args)
        monkeypatch.setattr(flow, "step", failing)
        with pytest.raises(error, match="^injected after the second step$") as exc:
            run(state0, 0.5, emit_every=1)
        assert exc.value.rows == tuple(full.rows[:3])

    def test_failure_at_t0_carries_no_row(self, small_grid):
        u0 = cos_axis_field(small_grid, 0, amplitude=8.0)
        with pytest.raises(NotAdmissible) as exc:
            run(FlowState(0.0, u0, flat_background(small_grid)), 0.1)
        assert exc.value.rows == ()


class TestStateRecord:
    @staticmethod
    def _count(monkeypatch, name):
        calls = []
        real = getattr(flow, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(flow, name, counted)
        return calls

    def test_one_stencil_and_eigen_pass_per_state(self, monkeypatch):
        g = BicomplexGrid.regular(1, 1, [16, 4, 16, 4])
        state = FlowState(0.0, cos_axis_field(g, 0, amplitude=1e-3),
                          flat_background(g))
        hess = self._count(monkeypatch, "hessian_block_values")
        eig = self._count(monkeypatch, "_worst")
        dt = stable_dt(state)
        report = admissibility(state)
        twisted_rhs(state)
        assert (len(hess), len(eig)) == (2, 2)
        # a step reads the state's record and builds the new state's once
        new = step(state, dt)
        assert (len(hess), len(eig)) == (4, 4)
        stable_dt(new)
        admissibility(new)
        twisted_rhs(new)
        assert (len(hess), len(eig)) == (4, 4)
        assert admissibility(state) is report
        copy = new.copy()
        assert admissibility(copy) is admissibility(new)
        assert (len(hess), len(eig)) == (4, 4)

    def test_record_built_from_the_blocks_where_read(self, monkeypatch):
        g = BicomplexGrid.regular(2, 1, 4)
        state = FlowState(0.0, cos_axis_field(g, 0, amplitude=1e-3), flat_background(g))
        flow.form_block_values(state)
        assert state._report is None
        hess = self._count(monkeypatch, "hessian_block_values")
        eig = self._count(monkeypatch, "_worst")
        report = admissibility(state)
        assert (len(hess), len(eig)) == (0, 2)
        assert admissibility(state) is report and len(eig) == 2

    def test_step_from_built_state_costs_two_of_each(self, monkeypatch):
        g = BicomplexGrid.regular(1, 1, 8)
        state = FlowState(0.0, cos_axis_field(g, 0, amplitude=1e-3),
                          flat_background(g))
        dt = stable_dt(state)
        hess = self._count(monkeypatch, "hessian_block_values")
        eig = self._count(monkeypatch, "_worst")
        step(state, dt)
        assert (len(hess), len(eig)) == (2, 2)

    def test_run_computes_each_rhs_once(self, monkeypatch):
        # the barrier slope and the first step read the same t = 0 rhs
        g = BicomplexGrid.regular(1, 1, 16)
        state0 = FlowState(0.0, cos_axis_field(g, 0, amplitude=1e-2), flat_background(g))
        real, rhs_times = flow._finite, []

        def counted(grid, values, what, t):
            if what == "rhs":
                rhs_times.append(t)
            return real(grid, values, what, t)
        monkeypatch.setattr(flow, "_finite", counted)
        steps = self._count(monkeypatch, "step")
        traj = run(state0, 0.5)
        assert len(steps) >= 2
        assert rhs_times[0] == 0.0
        assert len(rhs_times) == len(set(rhs_times)) == len(steps)
        # a copy drops the cached rhs with the blocks
        assert all(s._rhs is None for s in traj.states)
        assert twisted_rhs(state0) is twisted_rhs(state0)
        assert state0.copy()._rhs is None

    def test_run_builds_each_state_once(self, monkeypatch):
        # on a drifting background every state built costs 2 Hessians and
        # 1 slice, the t = 0 state included: the barrier, the first row and
        # the first step read the same one
        g = BicomplexGrid.regular(1, 1, 16)
        bg = flat_background(
            g, chi_plus=HermitianMatrixField.constant(g, "plus", 0.5 * np.eye(1)),
            chi_minus=HermitianMatrixField.constant(g, "minus", -0.5 * np.eye(1)))
        hess = self._count(monkeypatch, "hessian_block_values")
        slices = self._count(monkeypatch, "background_at")
        steps = self._count(monkeypatch, "step")
        run(FlowState(0.0, cos_axis_field(g, 0, amplitude=1e-2), bg), 0.5)
        assert len(steps) >= 2
        assert (len(hess), len(slices)) == (2 * (1 + len(steps)), 1 + len(steps))

    def test_failed_correction_builds_nothing(self, monkeypatch):
        g = BicomplexGrid.regular(1, 1, 16)
        state0 = FlowState(0.0, cos_axis_field(g, 0, amplitude=1e-3), flat_background(g))
        cap = 16.0 * stable_dt(state0)
        state1 = step(state0, cap)
        twisted_rhs(state1)
        hess = self._count(monkeypatch, "hessian_block_values")
        states = self._count(monkeypatch, "FlowState")
        # four caps fail the bound: the step is ETD1 over one cap
        new = step(state1, 4.0 * cap, state1._last_step, cap)
        assert new._last_step.rejected and new._last_step.dt == cap
        assert (len(hess), len(states)) == (2, 1)
        assert twisted_rhs(state1) is state1._rhs
        assert np.array_equal(step(state1, cap).u.values, new.u.values)

    def test_run_with_rejections_builds_each_state_once(self, monkeypatch):
        # a tolerance the cap itself misses: every ETD2 trial fails
        monkeypatch.setattr(flow, "_ETD2_TOL", 1e-14)
        g = BicomplexGrid.regular(1, 1, 16)
        hess = self._count(monkeypatch, "hessian_block_values")
        steps = self._count(monkeypatch, "step")
        traj = run(FlowState(0.0, cos_axis_field(g, 0, amplitude=1e-2),
                             flat_background(g)), 0.5, keep_states="none")
        assert traj.rejected_trials == traj.steps - 1 >= 2
        assert len(hess) == 2 * (1 + len(steps))

    def test_record_matches_direct_eigenvalues(self, rng):
        g = BicomplexGrid.regular(2, 2, 4)
        u = bandlimited_field(g, rng, amp=0.05)
        state = FlowState(0.0, u, flat_background(g))
        plus, minus = flow.form_block_values(state)
        rep = admissibility(state)
        for block, margin, point in ((plus, rep.plus_margin, rep.plus_worst_point),
                                     (minus, rep.minus_margin, rep.minus_worst_point)):
            ev = np.linalg.eigvalsh(block)[..., 0]
            assert margin == pytest.approx(ev.min(), rel=1e-12)
            assert ev[point] == pytest.approx(ev.min(), rel=1e-12)

    def test_decay_run_reproduces_reference(self):
        # forward Euler driven from the flow's right-hand side; sup_u
        # recorded from the implementation that recomputed every
        # eigenvalue pass and built the stencil from np.roll
        g = BicomplexGrid.regular(1, 1, [16, 4, 16, 4])
        h = g.spacing[0]
        t_end = h * h / np.sin(0.5 * h) ** 2
        state, n_steps = euler_run(FlowState(0.0, cos_axis_field(g, 0, amplitude=1e-3),
                                             flat_background(g)), t_end)
        assert n_steps == 421
        assert float(state.u.values.max()) == pytest.approx(0.0003674112233761281,
                                                            rel=1e-12)

    def test_exponential_run_pinned(self):
        # the same decay in exponential Euler steps, capped at 16 explicit
        # steps each; 1e-3 exp(-1) = 3.6788e-4 on the linearization
        g = BicomplexGrid.regular(1, 1, [16, 4, 16, 4])
        h = g.spacing[0]
        t_end = h * h / np.sin(0.5 * h) ** 2
        state, n_steps = etd1_run(FlowState(0.0, cos_axis_field(g, 0, amplitude=1e-3),
                                            flat_background(g)), t_end)
        assert n_steps == 27
        assert float(state.u.values.max()) == pytest.approx(0.00036784778402433594,
                                                            rel=1e-12)

    def test_multistep_run_pinned(self, monkeypatch):
        # the same decay in run's ETD2 steps; a 2000-step ETD2 run gives
        # 3.6784896e-4, which this is 1.5e-6 off and the ETD1 pin 3.2e-6
        g = BicomplexGrid.regular(1, 1, [16, 4, 16, 4])
        h = g.spacing[0]
        t_end = h * h / np.sin(0.5 * h) ** 2
        steps = self._count(monkeypatch, "step")
        traj = run(FlowState(0.0, cos_axis_field(g, 0, amplitude=1e-3),
                             flat_background(g)), t_end, keep_states="none")
        assert len(steps) == traj.steps == 10 and traj.rejected_trials == 0
        assert traj.rows[-1][1] == pytest.approx(0.0003678495238662814, rel=1e-12)



# Discrete comparison principle: v0 = u0 + a bump of 1e-3 at one lattice
# point stays above u0's flow to t_end, within 1e-10 (1 + max|u|), a
# tolerance fixed before any draw was run.  In scope: k = l = 1 grids and
# diagonal k = l = 2 forms.  Off-diagonal forms (omega_0 = [[1, c], [c*, 1]],
# c != 0) are out of scope: there the centred mixed differences break
# monotonicity, and measured breaches reached 6.2e-6.
_COMPARISON_BUMP = 1e-3
_COMPARISON_TOL = 1e-10


def _ordered_pair(u0, point):
    bg = flat_background(u0.grid)
    v0 = u0.copy()
    v0.values[point] += _COMPARISON_BUMP
    return FlowState(0.0, u0, bg), FlowState(0.0, v0, bg)


def _order_gap(u, v, t_end):
    """(min(v - u), tolerance) of the two final states, as floats.  The
    caller asserts gap >= -tol: a failing report prints the arguments of
    the failing frame, and the states' arrays take seconds to print."""
    assert u.t == v.t == t_end
    gap = float((v.u.values - u.u.values).min())
    tol = _COMPARISON_TOL * (1.0 + float(np.abs(u.u.values).max()))
    return gap, tol


def _cosines(terms):
    g = BicomplexGrid.regular(1, 1, 8)
    u0 = ScalarField.zeros(g)
    for axis, amplitude in terms:
        u0.values += cos_axis_field(g, axis, amplitude).values
    return u0


_terms = st.lists(st.tuples(st.integers(0, 3), st.floats(-1.0, 1.0)),
                  min_size=1, max_size=3)
_point4 = st.tuples(*[st.integers(0, 7)] * 4)
_t_end = st.floats(0.05, 0.3)


# run's steps depend on the state, so the two runs take different steps
# and compare two discretizations: every breach seen had different step
# times, and order held to roundoff on the same steps (the test below)
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the step controller picks different steps for u and v")
@settings(max_examples=25, deadline=None)
@given(terms=_terms, point=_point4, t_end=_t_end)
@example(terms=[(2, 1.0)], point=(0, 0, 0, 0), t_end=0.25)
def test_comparison_principle_k1l1(terms, point, t_end):
    u, v = (run(s, t_end, keep_states="none").states[-1]
            for s in _ordered_pair(_cosines(terms), point))
    gap, tol = _order_gap(u, v, t_end)
    assert gap >= -tol


@settings(max_examples=25, deadline=None)
@given(terms=_terms, point=_point4, t_end=_t_end)
def test_comparison_principle_k1l1_on_the_same_steps(terms, point, t_end):
    # v takes the steps that run chose for u: the step map keeps order
    u, v = _ordered_pair(_cosines(terms), point)
    with unittest.mock.patch.object(flow, "step", wraps=flow.step) as spy:
        u = run(u, t_end, keep_states="none").states[-1]
    for call in spy.call_args_list:
        _, dt, _, fallback_dt = call.args
        v = flow.step(v, dt, v._last_step, fallback_dt)
    gap, tol = _order_gap(u, v, t_end)
    assert gap >= -tol


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), point=st.tuples(*[st.integers(0, 3)] * 8),
       t_end=_t_end)
def test_comparison_principle_diagonal_k2l2(seed, point, t_end):
    g = BicomplexGrid.regular(2, 2, 4)
    noise = np.random.default_rng(seed).standard_normal(g.shape)
    u, v = (run(s, t_end, keep_states="none").states[-1]
            for s in _ordered_pair(ScalarField(g, 0.05 * noise), point))
    gap, tol = _order_gap(u, v, t_end)
    assert gap >= -tol


# the eight draws of the test above that breached its tolerance in full
# tier-1 runs: u and v take the same single step (dt = t_end, below
# stable_dt), and min(v - u) is -3.43e-10, -1.58e-9, -1.26e-10, -3.62e-9,
# -7.88e-10, -1.95e-9, -2.20e-9 and -1.16e-9 against about -1.2e-10
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the one-step k = l = 2 scheme is not monotone even with "
                          "diagonal forms (ROADMAP item 1)")
@pytest.mark.parametrize("seed,point,t_end", [
    (396, (1, 1, 0, 1, 0, 1, 1, 3), 0.05078125),
    (241, (3, 3, 3, 2, 1, 1, 1, 0), 0.0546875),
    (108, (0, 0, 3, 0, 0, 0, 0, 2), 0.0546875),
    (87160144, (1, 2, 3, 3, 0, 1, 1, 1), 0.0546875),
    (18132, (1, 1, 1, 3, 0, 2, 0, 1), 0.0546875),
    (355036, (0, 0, 2, 3, 0, 3, 3, 3), 0.0625),
    (1093, (0, 1, 0, 0, 2, 1, 0, 1), 0.0625),
    (5369, (2, 0, 0, 0, 1, 0, 1, 0), 0.05078125),
])
def test_comparison_principle_diagonal_k2l2_breaches(seed, point, t_end):
    # the property test's own body, on one draw
    test_comparison_principle_diagonal_k2l2.hypothesis.inner_test(seed, point, t_end)
