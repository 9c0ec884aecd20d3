import numpy as np
import pytest

from twistedma import (BicomplexGrid, FlowState, ScalarField, barriers,
                       comparison_test, delta_lift, flat_background, run,
                       subsolution_check, sup_patch, supersolution_check,
                       touching_jets)
from twistedma.errors import PreconditionFailed, WindowTooSmall
from twistedma.viscosity import Violation, ViolationReport

from conftest import cos_axis_field


@pytest.fixture
def grid16():
    return BicomplexGrid.regular(1, 1, 16)


def static_stack(field, times):
    return np.stack([field.values for _ in times])


def sloped_stack(field, times, slope):
    return np.stack([field.values + slope * t for t in times])


class TestTouchingJets:
    def test_quadratic_base_jet_exact(self, grid16):
        g = grid16
        x = g.axis_coords(0)
        vals = np.broadcast_to((0.3 * x ** 2).reshape(-1, 1, 1, 1), g.shape)
        times = np.array([0.0, 0.1, 0.2])
        stack = np.stack([vals + 0.7 * t for t in times])
        jets = touching_jets(stack, times, g, (4, 0, 0, 0), 1, samples=0)
        assert len(jets) == 1
        jet = jets[0]
        assert jet.p_t == pytest.approx(0.7, abs=1e-12)
        assert jet.H_plus[0, 0].real == pytest.approx(0.15, abs=1e-12)
        assert np.abs(jet.H_minus).max() < 1e-13

    def test_samples_zero_only_base(self, grid16):
        times = np.array([0.0, 0.1])
        stack = np.zeros((2,) + grid16.shape)
        assert len(touching_jets(stack, times, grid16, (0, 0, 0, 0), 1,
                                 samples=0)) == 1

    def test_sine_accuracy(self):
        g = BicomplexGrid.regular(1, 1, 64)
        u = cos_axis_field(g, 0)
        dt = 1e-4
        times = np.array([0.0, dt])
        stack = np.stack([u.values, u.values * np.exp(-dt)])
        jets = touching_jets(stack, times, g, (0, 0, 0, 0), 1, samples=0)
        h = g.spacing[0]
        assert jets[0].H_plus[0, 0].real == pytest.approx(-0.25, abs=h * h)
        assert jets[0].p_t == pytest.approx(-1.0, abs=10 * dt)

    def test_perturbation_cone_direction(self, grid16):
        times = np.array([0.0, 0.1])
        stack = np.zeros((2,) + grid16.shape)
        above = touching_jets(stack, times, grid16, (0, 0, 0, 0), 1,
                              side="above", samples=4, seed=1)
        base = above[0]
        for jet in above[1:]:
            assert jet.p_t <= base.p_t
            assert jet.H_plus[0, 0].real >= base.H_plus[0, 0].real
            assert jet.H_minus[0, 0].real >= base.H_minus[0, 0].real
        below = touching_jets(stack, times, grid16, (0, 0, 0, 0), 1,
                              side="below", samples=4, seed=1)
        for jet in below[1:]:
            assert jet.p_t >= base.p_t
            assert jet.H_plus[0, 0].real <= base.H_plus[0, 0].real

    def test_window_too_small(self, grid16):
        times = np.array([0.0, 0.1])
        stack = np.zeros((2,) + grid16.shape)
        with pytest.raises(WindowTooSmall):
            touching_jets(stack, times, grid16, (0, 0, 0, 0), 0)


class TestSubSuperChecks:
    def test_zero_solution_passes_both(self, grid16):
        bg = flat_background(grid16)
        times = np.array([0.0, 0.01, 0.02])
        stack = np.zeros((3,) + grid16.shape)
        assert subsolution_check(stack, times, bg, samples=3).ok
        assert supersolution_check(stack, times, bg, samples=3).ok

    def test_lower_barrier_is_subsolution(self, grid16):
        bg = flat_background(grid16)
        u0 = cos_axis_field(grid16, 0, amplitude=0.2)
        bp = barriers(u0, bg)
        times = np.linspace(0.0, 0.1, 4)
        stack = np.stack([bp.lower(t) for t in times])
        assert subsolution_check(stack, times, bg, samples=3).ok

    def test_upper_barrier_is_supersolution(self, grid16):
        bg = flat_background(grid16)
        u0 = cos_axis_field(grid16, 0, amplitude=0.2)
        bp = barriers(u0, bg)
        times = np.linspace(0.0, 0.1, 4)
        stack = np.stack([bp.upper(t) for t in times])
        assert supersolution_check(stack, times, bg, samples=3).ok

    def test_reversed_slope_upper_barrier_violates(self, grid16):
        # growing where the equation forces decay: rhs(0) < 0 somewhere but
        # the candidate rises at rate +A
        F = ScalarField(grid16, np.full(grid16.shape, 0.5))
        bg = flat_background(grid16, f_times=np.array([0.0]), f_fields=[F])
        times = np.linspace(0.0, 0.1, 4)
        stack = np.stack([1.0 + 0.5 * t + np.zeros(grid16.shape) for t in times])
        rep = subsolution_check(stack, times, bg, samples=0, tol=0.1)
        assert not rep.ok
        assert rep.worst_slack < -0.1

    def test_growth_forcing_flags_static_supersolution(self, grid16):
        # F = -1 pushes the solution up; a static field is not a supersolution
        F = ScalarField(grid16, np.full(grid16.shape, -1.0))
        bg = flat_background(grid16, f_times=np.array([0.0]), f_fields=[F])
        times = np.linspace(0.0, 0.1, 4)
        stack = np.zeros((4,) + grid16.shape)
        assert not supersolution_check(stack, times, bg, samples=0, tol=0.1).ok

    def test_max_closure_subsolutions(self, grid16):
        bg = flat_background(grid16)
        times = np.linspace(0.0, 0.05, 3)
        u1 = sloped_stack(cos_axis_field(grid16, 0, 0.15), times, -1.0)
        u2 = sloped_stack(cos_axis_field(grid16, 2, 0.15, mode=2), times, -1.0)
        assert subsolution_check(u1, times, bg, samples=2).ok
        assert subsolution_check(u2, times, bg, samples=2).ok
        assert subsolution_check(np.maximum(u1, u2), times, bg, samples=2).ok

    def test_min_closure_supersolutions(self, grid16):
        bg = flat_background(grid16)
        times = np.linspace(0.0, 0.05, 3)
        v1 = sloped_stack(cos_axis_field(grid16, 0, 0.15), times, 1.0)
        v2 = sloped_stack(cos_axis_field(grid16, 2, 0.15, mode=2), times, 1.0)
        assert supersolution_check(v1, times, bg, samples=2).ok
        assert supersolution_check(v2, times, bg, samples=2).ok
        assert supersolution_check(np.minimum(v1, v2), times, bg, samples=2).ok

    def test_gating_asymmetry(self, grid16):
        # indefinite minus form: the sub check gates it away, the super
        # check sees its negative determinant
        bg = flat_background(grid16)
        times = np.linspace(0.0, 0.05, 3)
        u = sloped_stack(cos_axis_field(grid16, 2, 8.0), times, -2.0)
        assert subsolution_check(u, times, bg, samples=2, tol=0.0).ok
        assert not supersolution_check(u, times, bg, samples=0, tol=0.0).ok
        # dual: indefinite plus form
        v = sloped_stack(cos_axis_field(grid16, 0, -8.0), times, 2.0)
        assert supersolution_check(v, times, bg, samples=2, tol=0.0).ok
        assert not subsolution_check(v, times, bg, samples=0, tol=0.0).ok

    def test_violation_csv(self, grid16, tmp_path):
        F = ScalarField(grid16, np.full(grid16.shape, 0.5))
        bg = flat_background(grid16, f_times=np.array([0.0]), f_fields=[F])
        times = np.linspace(0.0, 0.1, 4)
        stack = np.stack([1.0 + 0.5 * t + np.zeros(grid16.shape) for t in times])
        rep = subsolution_check(stack, times, bg, samples=0, tol=0.1)
        path = tmp_path / "violations.csv"
        rep.write_csv(path, comment="c")
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "# c"
        assert lines[1] == "point,time_index,t,slack,side"
        assert len(lines) == 2 + len(rep.violations)
        # slacks sorted ascending (worst first)
        slacks = [v.slack for v in rep.violations]
        assert slacks == sorted(slacks)


    def test_report_keeps_its_worst_thousand(self):
        rep = ViolationReport(side="sub")
        rep.violations = [Violation((i,), 1, 0.1, float(-i), "sub") for i in range(1005)]
        rep.finalize()
        assert len(rep.violations) == 1000
        assert rep.worst_slack == -1004.0 == rep.violations[0].slack
        assert rep.violations[-1].slack == -5.0


class TestDeltaLift:
    def test_plain_value(self):
        stack = np.zeros((2, 4))
        times = np.array([0.0, 0.5])
        lifted = delta_lift(stack, times, 0.1, 1.0)
        assert lifted[1, 0] == pytest.approx(0.2)
        assert lifted[0, 0] == pytest.approx(0.1)

    def test_monotone_divergence(self):
        times = np.linspace(0.0, 0.99, 12)
        stack = np.zeros((12, 3))
        lifted = delta_lift(stack, times, 1e-2, 1.0)
        assert np.all(np.diff(lifted[:, 0]) > 0)
        assert lifted[-1, 0] > 0.5

    def test_preserves_supersolution(self, grid16):
        bg = flat_background(grid16)
        u0 = cos_axis_field(grid16, 0, amplitude=0.2)
        bp = barriers(u0, bg)
        times = np.linspace(0.0, 0.1, 4)
        stack = np.stack([bp.upper(t) for t in times])
        for delta in (1e-3, 1e-2, 1e-1):
            lifted = delta_lift(stack, times, delta, 1.0)
            assert supersolution_check(lifted, times, bg, samples=3).ok

    def test_domain_validation(self):
        stack = np.zeros((2, 3))
        times = np.array([0.0, 1.0])
        with pytest.raises(ValueError):
            delta_lift(stack, times, 0.1, 1.0)  # t reaches T
        with pytest.raises(ValueError):
            delta_lift(stack, np.array([0.0, 0.5]), -1.0, 1.0)


class TestComparison:
    def test_barrier_pair_holds(self, grid16):
        bg = flat_background(grid16)
        u0 = cos_axis_field(grid16, 0, amplitude=0.2)
        bp = barriers(u0, bg)
        times = np.linspace(0.0, 0.1, 4)
        sub = np.stack([bp.lower(t) for t in times])
        sup = np.stack([bp.upper(t) for t in times])
        verdict = comparison_test(sub, sup, times, bg, samples=2)
        assert verdict.holds
        assert all(excess <= 0 for _, excess in verdict.delta_trace)

    def test_swapped_pair_fails_precondition(self, grid16):
        bg = flat_background(grid16)
        u0 = cos_axis_field(grid16, 0, amplitude=0.2)
        bp = barriers(u0, bg)
        times = np.linspace(0.0, 0.1, 4)
        sub = np.stack([bp.lower(t) for t in times])
        sup = np.stack([bp.upper(t) for t in times])
        # lift the would-be subsolution well above the would-be super
        with pytest.raises(PreconditionFailed):
            comparison_test(sup + 5.0, sub, times, bg, samples=2)

    def test_trajectory_below_upper_barrier(self, grid16):
        bg = flat_background(grid16)
        u0 = cos_axis_field(grid16, 0, amplitude=0.2)
        traj = run(FlowState(0.0, u0, bg), 0.05, emit_every=5)
        times = np.array([s.t for s in traj.states])
        stack = np.stack([s.u.values for s in traj.states])
        sup = np.stack([traj.barrier.upper(t) for t in times])
        verdict = comparison_test(stack, sup, times, bg, samples=2)
        assert verdict.holds


class TestSupPatch:
    def test_phi_below_u_identity(self, grid16):
        u = np.zeros((2,) + grid16.shape)
        phi = u - 5.0
        out = sup_patch(u, phi, grid16, gamma=0.5, r=1.0, center=(np.pi,) * 4)
        assert np.array_equal(out, u)

    def test_patch_raises_candidate_and_stays_subsolution(self, grid16):
        bg = flat_background(grid16)
        times = np.linspace(0.0, 0.01, 3)
        u = np.zeros((3,) + grid16.shape)
        gamma, r = 0.1, 2.0
        # competitor with a strict negative time slope is a subsolution cap
        phi = np.stack([np.full(grid16.shape, -3 * gamma * t) for t in times])
        out = sup_patch(u, phi, grid16, gamma=gamma, r=r, center=(np.pi,) * 4)
        assert out.max() > 0
        assert np.array_equal(out[:, 0, 0, 0, 0], u[:, 0, 0, 0, 0])  # far field
        assert subsolution_check(out, times, bg, samples=2).ok

    def test_small_parameters_approach_plain_max(self, grid16):
        rng = np.random.default_rng(0)
        u = rng.standard_normal((1,) + grid16.shape)
        phi = rng.standard_normal((1,) + grid16.shape)
        gamma = 1e-9
        out = sup_patch(u, phi, grid16, gamma=gamma, r=1.0,
                        center=(np.pi,) * 4, delta=1e-9)
        dist2 = np.zeros(grid16.shape)
        for a in range(4):
            d = np.abs(grid16.axis_coords(a) - np.pi)
            d = np.minimum(d, 2 * np.pi - d)
            sh = [1] * 4
            sh[a] = len(d)
            dist2 = dist2 + (d ** 2).reshape(sh)
        inside = dist2 < 1.0
        target = np.where(inside, np.maximum(u, phi), u)
        assert np.abs(out - target).max() < 1e-7
