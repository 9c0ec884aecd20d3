import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twistedma import (BicomplexGrid, FlowState, HermitianMatrixField,
                       ScalarField, background_at, barriers, comparison_test,
                       delta_lift, flat_background, run, subsolution_check,
                       sup_patch, supersolution_check, touching_jet,
                       trajectory_checks)
from twistedma.errors import NotAdmissible, PreconditionFailed, WindowTooSmall
from twistedma.grid import det_plus, det_values, hessian_block_values
from twistedma import flow, viscosity
from twistedma.viscosity import Violation, ViolationReport

from conftest import (bandlimited_field, cos_axis_field, log_space_violations,
                      rescaled_sides, unbounded_below)


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
        jet = touching_jet(stack, times, g, (4, 0, 0, 0), 1)
        assert jet.p_t == pytest.approx(0.7, abs=1e-12)
        assert jet.H_plus[0, 0].real == pytest.approx(0.15, abs=1e-12)
        assert np.abs(jet.H_minus).max() < 1e-13

    def test_sine_accuracy(self):
        g = BicomplexGrid.regular(1, 1, 64)
        u = cos_axis_field(g, 0)
        dt = 1e-4
        times = np.array([0.0, dt])
        stack = np.stack([u.values, u.values * np.exp(-dt)])
        jet = touching_jet(stack, times, g, (0, 0, 0, 0), 1)
        h = g.spacing[0]
        assert jet.H_plus[0, 0].real == pytest.approx(-0.25, abs=h * h)
        assert jet.p_t == pytest.approx(-1.0, abs=10 * dt)

    def test_window_too_small(self, grid16):
        times = np.array([0.0, 0.1])
        stack = np.zeros((2,) + grid16.shape)
        with pytest.raises(WindowTooSmall):
            touching_jet(stack, times, grid16, (0, 0, 0, 0), 0)


class TestSubSuperChecks:
    def test_zero_solution_passes_both(self, grid16):
        bg = flat_background(grid16)
        times = np.array([0.0, 0.01, 0.02])
        stack = np.zeros((3,) + grid16.shape)
        assert subsolution_check(stack, times, bg).ok
        assert supersolution_check(stack, times, bg).ok

    def test_lower_barrier_is_subsolution(self, grid16):
        bg = flat_background(grid16)
        u0 = cos_axis_field(grid16, 0, amplitude=0.2)
        bp = barriers(u0, bg)
        times = np.linspace(0.0, 0.1, 4)
        stack = np.stack([bp.lower(t) for t in times])
        assert subsolution_check(stack, times, bg).ok

    def test_upper_barrier_is_supersolution(self, grid16):
        bg = flat_background(grid16)
        u0 = cos_axis_field(grid16, 0, amplitude=0.2)
        bp = barriers(u0, bg)
        times = np.linspace(0.0, 0.1, 4)
        stack = np.stack([bp.upper(t) for t in times])
        assert supersolution_check(stack, times, bg).ok

    def test_reversed_slope_upper_barrier_violates(self, grid16):
        # growing where the equation forces decay: rhs(0) < 0 somewhere but
        # the candidate rises at rate +A
        F = ScalarField(grid16, np.full(grid16.shape, 0.5))
        bg = flat_background(grid16, f_times=np.array([0.0]), f_fields=[F])
        times = np.linspace(0.0, 0.1, 4)
        stack = np.stack([1.0 + 0.5 * t + np.zeros(grid16.shape) for t in times])
        rep = subsolution_check(stack, times, bg, tol=0.1)
        assert not rep.ok
        assert rep.worst_slack < -0.1

    def test_growth_forcing_flags_static_supersolution(self, grid16):
        # F = -1 pushes the solution up; a static field is not a supersolution
        F = ScalarField(grid16, np.full(grid16.shape, -1.0))
        bg = flat_background(grid16, f_times=np.array([0.0]), f_fields=[F])
        times = np.linspace(0.0, 0.1, 4)
        stack = np.zeros((4,) + grid16.shape)
        assert not supersolution_check(stack, times, bg, tol=0.1).ok

    def test_max_closure_subsolutions(self, grid16):
        bg = flat_background(grid16)
        times = np.linspace(0.0, 0.05, 3)
        u1 = sloped_stack(cos_axis_field(grid16, 0, 0.15), times, -1.0)
        u2 = sloped_stack(cos_axis_field(grid16, 2, 0.15, mode=2), times, -1.0)
        assert subsolution_check(u1, times, bg).ok
        assert subsolution_check(u2, times, bg).ok
        assert subsolution_check(np.maximum(u1, u2), times, bg).ok

    def test_min_closure_supersolutions(self, grid16):
        bg = flat_background(grid16)
        times = np.linspace(0.0, 0.05, 3)
        v1 = sloped_stack(cos_axis_field(grid16, 0, 0.15), times, 1.0)
        v2 = sloped_stack(cos_axis_field(grid16, 2, 0.15, mode=2), times, 1.0)
        assert supersolution_check(v1, times, bg).ok
        assert supersolution_check(v2, times, bg).ok
        assert supersolution_check(np.minimum(v1, v2), times, bg).ok

    def test_gating_asymmetry(self, grid16):
        # indefinite minus form: the sub check gates it away, the super
        # check sees its negative determinant
        bg = flat_background(grid16)
        times = np.linspace(0.0, 0.05, 3)
        u = sloped_stack(cos_axis_field(grid16, 2, 8.0), times, -2.0)
        assert subsolution_check(u, times, bg, tol=0.0).ok
        assert not supersolution_check(u, times, bg, tol=0.0).ok
        # dual: indefinite plus form
        v = sloped_stack(cos_axis_field(grid16, 0, -8.0), times, 2.0)
        assert supersolution_check(v, times, bg, tol=0.0).ok
        assert not subsolution_check(v, times, bg, tol=0.0).ok

    def test_violation_csv(self, grid16, tmp_path):
        F = ScalarField(grid16, np.full(grid16.shape, 0.5))
        bg = flat_background(grid16, f_times=np.array([0.0]), f_fields=[F])
        times = np.linspace(0.0, 0.1, 4)
        stack = np.stack([1.0 + 0.5 * t + np.zeros(grid16.shape) for t in times])
        rep = subsolution_check(stack, times, bg, tol=0.1)
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

    def test_stack_checks_build_no_record(self, monkeypatch):
        # the checks read the forms only: no eigenvalue pass of the flow's
        g, stack, times, bg = check_case(1, 2)
        calls, real = [], flow._worst
        monkeypatch.setattr(flow, "_worst", lambda v: calls.append(v) or real(v))
        for check in (subsolution_check, supersolution_check):
            check(stack, times, bg)
        assert calls == []

    @pytest.mark.parametrize("check", [subsolution_check, supersolution_check])
    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_non_finite_slice_is_value_error(self, check, n):
        g, stack, times, bg = check_case(1, 1)
        stack[n, 0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            check(stack, times, bg)


class TestFloatRange:
    def test_default_tolerance_near_float_max(self, grid16):
        # |lhs| = 1.7e308 makes 10 (h^2 + dt) |lhs| overflow; the test runs
        # scaled by a power of two instead, and both checks pass
        big = HermitianMatrixField.constant(grid16, "plus", [[1.7e308]])
        bg = flat_background(grid16, omega0_plus=big)
        times = np.array([0.0, 0.01, 0.02])
        stack = static_stack(ScalarField.zeros(grid16), times)
        for check in (subsolution_check, supersolution_check):
            report = check(stack, times, bg)
            assert report.ok and report.n_points_checked == 2 * grid16.size

    def test_scaled_tolerance_is_the_plain_one(self, grid16, rng):
        # slacks within a few ulps of the plain tolerance decide alike
        h, dt = max(grid16.spacing), 0.37
        lhs = 10.0 ** rng.uniform(-3, 3, grid16.shape)
        rhs = 10.0 ** rng.uniform(-3, 3, grid16.shape)
        tol = 10.0 * (h * h + dt) * np.maximum(1.0, np.maximum(lhs, rhs))
        slack = -tol * (1.0 + rng.integers(-3, 4, grid16.shape) * 2.0 ** -52)
        got = viscosity._below_tol(slack, None, grid16, dt, lhs, rhs)
        assert np.array_equal(got, slack < -tol) and 0 < got.sum() < got.size

    def test_slack_beyond_float_range_is_decided(self, grid16, monkeypatch):
        # a time slope of 709.9 makes exp(u_t) overflow at every point; each
        # point is decided scaled by a power of two, as in log space (the
        # default tolerance, above 1 on this grid, passes both checks)
        times = np.array([0.0, 0.01])
        stack = sloped_stack(ScalarField.zeros(grid16), times, 709.9)
        bg = flat_background(grid16)
        scaled = rescaled_sides(monkeypatch)
        for tol in (None, 1.0):
            sup = supersolution_check(stack, times, bg, tol=tol)
            assert sup.ok and sup.n_points_checked == grid16.size
            assert log_space_violations(stack, times, bg, "below", tol) == {}
        assert subsolution_check(stack, times, bg).ok
        assert log_space_violations(stack, times, bg, "above") == {}
        sub = subsolution_check(stack, times, bg, tol=1.0)
        ref = log_space_violations(stack, times, bg, "above", 1.0)
        # the base jet's exp(u_t) overflows: every check took the scaled path
        assert scaled == [-1.0, -1.0, 1.0, 1.0]
        # every point fails; the report keeps a thousand of them
        assert len(ref) == grid16.size and len(sub.violations) == 1000
        assert {(v.time_index, v.spatial_index) for v in sub.violations} <= set(ref)
        # e^709.9 is beyond the float range, and so is every slack
        assert all(v.slack == -np.inf for v in sub.violations)
        assert min(ref.values()) > np.log(np.finfo(float).max)

    @pytest.mark.parametrize("slope,tol", [(720.0, None), (720.0, 1e300),
                                           (np.log(1.7e308) + 5.001, 1e300)])
    def test_scaled_decision_matches_log_space(self, slope, tol, monkeypatch):
        # lhs = 1.7e308 e^5 and rhs = e^slope det overflow on both sides:
        # the subsolution check fails where the log-space slack does, the
        # supersolution check holds, and a slack beyond the float range is
        # -inf.  A slope 1e-3 above log lhs leaves the base jet's slack
        # within the range
        g = BicomplexGrid.regular(1, 1, 4, period=1.0)
        bg = flat_background(g, zeta_minus=ScalarField(g, np.full(g.shape, 5.0)),
                             omega0_plus=HermitianMatrixField.constant(g, "plus", [[1.7e308]]))
        times = np.array([0.0, 0.01])
        stack = sloped_stack(cos_axis_field(g, 1, 1e-3), times, slope)
        log_max = np.log(np.finfo(float).max)
        refs = {}
        scaled = rescaled_sides(monkeypatch)
        for check, side in ((subsolution_check, "above"), (supersolution_check, "below")):
            report = check(stack, times, bg, tol=tol)
            ref = refs[side] = log_space_violations(stack, times, bg, side, tol)
            got = {(v.time_index, v.spatial_index): v.slack for v in report.violations}
            assert set(got) == set(ref)
            assert bool(ref) == (side == "above")
            for key, log_slack in ref.items():
                if log_slack > log_max + 1e-9:
                    assert got[key] == -np.inf
                else:
                    assert np.log(-got[key]) == pytest.approx(log_slack, rel=1e-12)
        assert (min(refs["above"].values()) < log_max) == (slope < 715.0)
        assert scaled == [1.0, -1.0]

    def test_undefined_decision_is_typed(self, grid16):
        # a slice of 1e308 cos x: its time slope and Hessian leave the float
        # range, and no scaling gives the slack a value
        times = np.array([0.0, 0.01])
        stack = np.stack([np.zeros(grid16.shape), cos_axis_field(grid16, 0, 1e308).values])
        with pytest.raises(NotAdmissible, match=r"^subsolution check slack is not "
                                                r"finite at point \(0, 0, 0, 0\), t=0\.01$"):
            subsolution_check(stack, times, flat_background(grid16))


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
            assert supersolution_check(lifted, times, bg).ok

    def test_domain_validation(self):
        stack = np.zeros((2, 3))
        times = np.array([0.0, 1.0])
        with pytest.raises(ValueError):
            delta_lift(stack, times, 0.1, 1.0)  # t reaches T
        with pytest.raises(ValueError):
            delta_lift(stack, np.array([0.0, 0.5]), -1.0, 1.0)


def _barrier_pair(grid):
    """(background, times, lower stack, upper stack) of a barrier pair."""
    bg = flat_background(grid)
    bp = barriers(cos_axis_field(grid, 0, amplitude=0.2), bg)
    times = np.linspace(0.0, 0.1, 4)
    return (bg, times, np.stack([bp.lower(t) for t in times]),
            np.stack([bp.upper(t) for t in times]))


@pytest.mark.parametrize("call", [
    lambda g, bg, t, sub, sup: delta_lift(sup, t, np.nan, 1.0),
    lambda g, bg, t, sub, sup: delta_lift(sup, t, np.inf, 1.0),
    lambda g, bg, t, sub, sup: delta_lift(sup, t, 0.1, np.nan),
    lambda g, bg, t, sub, sup: sup_patch(sub, sup, g, np.nan, 1.0, (0.0,) * 4),
    lambda g, bg, t, sub, sup: sup_patch(sub, sup, g, np.inf, 1.0, (0.0,) * 4),
    lambda g, bg, t, sub, sup: sup_patch(sub, sup, g, 0.1, np.nan, (0.0,) * 4),
    lambda g, bg, t, sub, sup: sup_patch(sub, sup, g, 0.1, 1.0, (0.0,) * 4, delta=np.nan),
    lambda g, bg, t, sub, sup: comparison_test(sub, sup, t, bg, T=np.nan),
    lambda g, bg, t, sub, sup: sup_patch(sub, sup, g, 0.1, 1.0, (0.0, np.nan, 0.0, 0.0)),
    lambda g, bg, t, sub, sup: subsolution_check(sub, t, bg, tol=np.nan),
    lambda g, bg, t, sub, sup: supersolution_check(sup, t, bg, tol=np.nan),
    lambda g, bg, t, sub, sup: subsolution_check(sub, np.where(t > 0.05, np.nan, t), bg),
], ids=["lift-delta-nan", "lift-delta-inf", "lift-T-nan", "patch-gamma-nan",
        "patch-gamma-inf", "patch-r-nan", "patch-delta-nan", "comparison-T-nan",
        "patch-center-nan", "sub-tol-nan", "super-tol-nan", "sub-times-nan"])
def test_public_inputs_fail_typed(grid16, call):
    # each input would otherwise give non-finite output or check less than asked
    bg, times, sub, sup = _barrier_pair(grid16)
    with pytest.raises(ValueError):
        call(grid16, bg, times, sub, sup)


@pytest.mark.parametrize("call,message", [
    (lambda g, bg, t, sub: subsolution_check(sub[:, ::2, ::2, ::2, ::2], t, bg),
     r"^stack slices must live on the background grid$")],
    ids=["stack-off-grid"])
def test_public_inputs_fail_with_message(grid16, call, message):
    bg, times, sub, _ = _barrier_pair(grid16)
    with pytest.raises(ValueError, match=message):
        call(grid16, bg, times, sub)


class TestComparison:
    def test_barrier_pair_holds(self, grid16):
        bg = flat_background(grid16)
        u0 = cos_axis_field(grid16, 0, amplitude=0.2)
        bp = barriers(u0, bg)
        times = np.linspace(0.0, 0.1, 4)
        sub = np.stack([bp.lower(t) for t in times])
        sup = np.stack([bp.upper(t) for t in times])
        verdict = comparison_test(sub, sup, times, bg)
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
            comparison_test(sup + 5.0, sub, times, bg)

    @pytest.mark.parametrize("sub_slope,sup_slope,message", [
        (1.0, 0.0, r"^candidate subsolution fails its check \(worst slack -1\.718e\+00\)$"),
        (0.0, -1.0, r"^candidate supersolution fails its check "
                    r"\(worst slack -6\.321e-01\)$"),
    ], ids=["sub", "super"])
    def test_failed_check_fails_precondition(self, sub_slope, sup_slope, message):
        # on a flat background u = t is a strict supersolution and -t a
        # strict subsolution, so each fails the check of the role it is
        # given, by e - 1 and 1 - 1/e
        g = BicomplexGrid.regular(1, 1, 8)
        times = np.array([0.0, 0.1, 0.2])
        ramp = times[:, None, None, None, None] * np.ones((1,) + g.shape)
        with pytest.raises(PreconditionFailed, match=message):
            comparison_test(sub_slope * ramp, sup_slope * ramp, times,
                            flat_background(g), tol=1e-6)

    def test_late_crossing_fails_with_first_violation(self):
        # both candidates pass their checks at tol = 10 (the subsolution's
        # slope is at most 1/2) and start ordered, but the subsolution ends
        # 50 above the supersolution
        g = BicomplexGrid.regular(1, 1, 4)
        times = np.array([0.0, 100.0, 200.0])
        sup = np.zeros((3,) + g.shape)
        sub = sup.copy()
        sub[2] = 50.0
        verdict = comparison_test(sub, sup, times, flat_background(g), tol=10.0)
        assert not verdict.holds
        assert verdict.max_excess == 50.0
        assert verdict.first_violation == ((0, 0, 0, 0), 200.0)
        assert all(excess > 0 for _, excess in verdict.delta_trace)

    def test_trajectory_below_upper_barrier(self, grid16):
        bg = flat_background(grid16)
        u0 = cos_axis_field(grid16, 0, amplitude=0.2)
        traj = run(FlowState(0.0, u0, bg), 0.05, emit_every=5)
        times = np.array([s.t for s in traj.states])
        stack = np.stack([s.u.values for s in traj.states])
        sup = np.stack([traj.barrier.upper(t) for t in times])
        verdict = comparison_test(stack, sup, times, bg)
        assert verdict.holds


class TestSupPatch:
    @pytest.mark.parametrize("n_coords", [1, 6])
    def test_center_needs_one_coordinate_per_axis(self, n_coords):
        g = BicomplexGrid.regular(1, 1, 8)
        u = np.zeros((1,) + g.shape)
        with pytest.raises(ValueError, match=rf"^center needs 4 coordinates, one per grid "
                                             rf"axis, got {n_coords}$"):
            sup_patch(u, u, g, 0.1, 1.0, (0.0,) * n_coords)

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
        assert subsolution_check(out, times, bg).ok

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


# ---------------------------------------------------------------------------
# the touching calculus written out point by point, the cone in closed form
# (conftest.unbounded_below): the reference the checks and touching_jet
# must reproduce bitwise

def reference_jet(stack, times, grid, idx, n):
    dt = times[n] - times[n - 1]
    hp = hessian_block_values(stack[n], grid, "plus")[idx]
    hm = hessian_block_values(stack[n], grid, "minus")[idx]
    p_t = (stack[n][idx] - stack[n - 1][idx]) / dt
    return float(p_t), hp, hm


def reference_check(stack, times, bg, tol, side):
    """A Violation for every bad point of every slice, then finalize."""
    grid = bg.grid
    report = ViolationReport(side="sub" if side == "above" else "super")
    exp_zp, exp_zm = np.exp(bg.zeta_plus.values), np.exp(bg.zeta_minus.values)
    for n in range(1, len(times)):
        t, dt = float(times[n]), float(times[n] - times[n - 1])
        sl, Fv = background_at(bg, t), bg.F_at(t)
        plus = sl.omega_hat_plus.values + hessian_block_values(stack[n], grid, "plus")
        minus = sl.omega_hat_minus.values - hessian_block_values(stack[n], grid, "minus")
        p_t = (stack[n] - stack[n - 1]) / dt
        if side == "above":
            lhs = det_values(plus) * exp_zm
            rhs = np.exp(p_t + Fv) * det_plus(minus) * exp_zp
            slack = lhs - rhs
        else:
            lhs = det_plus(plus) * exp_zm
            rhs = np.exp(p_t + Fv) * det_values(minus) * exp_zp
            slack = rhs - lhs
        if tol is None:
            h = max(grid.spacing)
            scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
            tol_arr = 10.0 * (h * h + dt) * scale
        else:
            tol_arr = tol
        unbounded = unbounded_below(plus, minus, side)
        below = (slack < -tol_arr) | unbounded
        slack = np.where(unbounded, -np.inf, slack)
        report.n_points_checked += slack.size
        for idx in zip(*np.nonzero(below)):
            report.violations.append(Violation(
                tuple(int(i) for i in idx), n, t, float(slack[idx]), report.side))
    return report.finalize()


def drifting_background(grid, rng):
    """Constant drifting blocks, random zeta fields and a two-knot F."""
    field = lambda amp: ScalarField(grid, amp * rng.standard_normal(grid.shape))
    const = HermitianMatrixField.constant
    return flat_background(
        grid, f_times=np.array([0.0, 0.2]), f_fields=[field(0.1), field(0.1)],
        zeta_plus=field(0.1), zeta_minus=field(0.1),
        omega0_plus=const(grid, "plus", np.diag(rng.uniform(1.0, 1.5, grid.k))),
        omega0_minus=const(grid, "minus", np.diag(rng.uniform(1.0, 1.5, grid.l))),
        chi_plus=const(grid, "plus", 0.3 * np.eye(grid.k)),
        chi_minus=const(grid, "minus", -0.2 * np.eye(grid.l)))


def check_case(k, l):
    """(grid, stack, times, background).  On 4^8 points the data are random
    on a sparse set of points and zero elsewhere, on a flat background, so
    that even at tol = 0 the bad points are a few thousand (the reference
    builds an object for each), with exact ties between the symmetric
    neighbours of each spike."""
    rng = np.random.default_rng(10 * k + l)
    # h = 1/4 and dt = 1/50 keep the default tolerance below the slack of
    # an indefinite ungated block
    g = BicomplexGrid.regular(k, l, 4, period=1.0)
    times = np.array([0.0, 0.02, 0.04, 0.06])
    stack = 0.3 * rng.standard_normal((len(times),) + g.shape)
    if (k, l) == (2, 2):
        stack = stack[:3] * (rng.random(g.shape) < 5e-4) * 10.0
        return g, stack, times[:3], flat_background(g)
    return g, stack, times, drifting_background(g, rng)


class TestAgainstReference:
    @pytest.mark.parametrize("k,l", [(1, 1), (1, 2), (2, 2)])
    def test_reports_bitwise(self, k, l):
        g, stack, times, bg = check_case(k, l)
        sizes = []
        for tol in (None, 1e-3, 0.0):
            for check, side in ((subsolution_check, "above"), (supersolution_check, "below")):
                got = check(stack, times, bg, tol=tol)
                ref = reference_check(stack, times, bg, tol, side)
                assert got.violations == ref.violations
                assert got.worst_slack == ref.worst_slack
                assert got.n_points_checked == ref.n_points_checked
                sizes.append(len(got.violations))
        # the report's cap binds wherever the slices hold more points than it
        assert all(sizes) and (1000 in sizes) == ((len(times) - 1) * g.size > 1000)

    @pytest.mark.parametrize("k,l", [(1, 1), (2, 2)])
    def test_touching_jets_bitwise(self, k, l):
        g, stack, times, _ = check_case(k, l)
        rng = np.random.default_rng(3)
        for n in (1, 2):
            idx = tuple(int(i) for i in rng.integers(0, 4, g.real_dim))
            jet = touching_jet(stack, times, g, idx, n)
            p_t, hp, hm = reference_jet(stack, times, g, idx, n)
            assert (jet.spatial_index, jet.time_index) == (idx, n)
            assert jet.p_t == p_t
            assert np.array_equal(jet.H_plus, hp)
            assert np.array_equal(jet.H_minus, hm)

    def test_jet_slack_is_the_checks_slack(self):
        # tol = -inf reports every point of the slice, 256 of them: the
        # slack at each is the base jet's, or -inf where the cone is
        # unbounded below (a negative minus form from below)
        g, stack, times, bg = check_case(1, 1)
        stack, times = stack[:2], times[:2]
        t = float(times[1])
        sl = background_at(bg, t)
        at = lambda values, idx: np.broadcast_to(
            values, g.shape + values.shape[g.real_dim:])[idx]
        unbounded = 0
        for check, side, sign, det_p, det_m in (
                (subsolution_check, "above", 1.0, det_values, det_plus),
                (supersolution_check, "below", -1.0, det_plus, det_values)):
            report = check(stack, times, bg, tol=-np.inf)
            assert len(report.violations) == g.size
            from_check = {v.spatial_index: v.slack for v in report.violations}
            for idx in np.ndindex(g.shape):
                jet = touching_jet(stack, times, g, idx, 1)
                zp, zm, F = (at(f, idx) for f in (bg.zeta_plus.values, bg.zeta_minus.values,
                                                  bg.F_at(t)))
                plus = at(sl.omega_hat_plus.values, idx) + jet.H_plus
                minus = at(sl.omega_hat_minus.values, idx) - jet.H_minus
                if side == "below" and minus[0, 0] < 0:
                    assert from_check[idx] == -np.inf
                    unbounded += 1
                    continue
                from_jet = sign * (det_p(plus) * np.exp(zm)
                                   - np.exp(jet.p_t + F) * det_m(minus) * np.exp(zp))
                # the check adds the Hessian to the form over the slice, the
                # jet at one point: the two round alike up to the last bits
                assert from_jet == pytest.approx(from_check[idx], rel=1e-12, abs=1e-14)
        assert 0 < unbounded < g.size


def cone_slack(side, plus, minus, p_t, F, zp, zm, P, Q, c):
    """The slack of the jet (p_t, plus, minus) + s (-c, P, -Q), s = +1 from
    above and -1 from below, with det+ gated on exact positive
    definiteness: the quantifier the checks decide, jet by jet."""
    s = 1.0 if side == "above" else -1.0
    ev_p, ev_m = np.linalg.eigvalsh(plus + s * P), np.linalg.eigvalsh(minus - s * Q)
    det_p, det_m = np.prod(ev_p), np.prod(ev_m)
    arg = p_t - s * c + F
    if side == "above":
        return det_p * np.exp(zm) - np.exp(arg) * (det_m if ev_m[0] > 0 else 0.0) * np.exp(zp)
    return np.exp(arg) * det_m * np.exp(zp) - (det_p if ev_p[0] > 0 else 0.0) * np.exp(zm)


def random_hermitian(rng, m, lo, hi):
    """A Hermitian m x m matrix with eigenvalues uniform in [lo, hi]."""
    if m == 1:
        return np.array([[rng.uniform(lo, hi)]])
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return (q * rng.uniform(lo, hi, 2)) @ q.conj().T


def random_psd(rng, m):
    """A PSD increment of magnitude log-uniform in [1e-6, 1e6], rank one
    or full, or zero."""
    if rng.random() < 0.1:
        return np.zeros((m, m))
    v = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)) if m == 2 else \
        rng.standard_normal((1, 1))
    if rng.random() < 0.5:
        v[:, 1:] = 0.0
    P = v @ v.conj().T
    return 10.0 ** rng.uniform(-6, 6) * P / np.abs(P).max()


def constant_case(k, l, plus, minus, p_t, F, zp, zm):
    """(stack, times, background) whose forms are ``plus`` and ``minus`` at
    every point (u is constant in space), with time slope p_t and constant
    F and zeta+-."""
    g = BicomplexGrid.regular(k, l, 4)
    const = HermitianMatrixField.constant
    field = lambda v: ScalarField(g, np.full(g.shape, v))
    bg = flat_background(g, f_times=np.array([0.0]), f_fields=[field(F)],
                         zeta_plus=field(zp), zeta_minus=field(zm),
                         omega0_plus=const(g, "plus", plus),
                         omega0_minus=const(g, "minus", minus))
    times = np.array([0.0, 0.5])
    return np.stack([np.full(g.shape, p_t * t) for t in times]), times, bg


class TestClosedForm:
    @settings(max_examples=40, deadline=None)
    @given(k=st.sampled_from([1, 2]), l=st.sampled_from([1, 2]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_no_jet_below_the_closed_form(self, k, l, seed):
        # positive definite forms: the checks' slack is the base jet's, and
        # no jet of the cone, however large its increments, has less
        rng = np.random.default_rng(seed)
        plus, minus = random_hermitian(rng, k, 0.1, 3.0), random_hermitian(rng, l, 0.1, 3.0)
        p_t, F, zp, zm = rng.uniform(-1.0, 1.0, 4)
        stack, times, bg = constant_case(k, l, plus, minus, p_t, F, zp, zm)
        for check, side in ((subsolution_check, "above"), (supersolution_check, "below")):
            closed = check(stack, times, bg, tol=-np.inf).worst_slack
            base = cone_slack(side, plus, minus, p_t, F, zp, zm, 0 * plus, 0 * minus, 0.0)
            scale = 1.0 + abs(np.linalg.det(plus)) * np.exp(zm) \
                + np.exp(p_t + F) * abs(np.linalg.det(minus)) * np.exp(zp)
            assert closed == pytest.approx(base, abs=1e-12 * scale)
            for _ in range(20):
                c = 0.0 if rng.random() < 0.1 else 10.0 ** rng.uniform(-6, 1.5)
                jet = cone_slack(side, plus, minus, p_t, F, zp, zm,
                                 random_psd(rng, k), random_psd(rng, l), c)
                assert jet >= closed - 1e-12 * scale

    @pytest.mark.parametrize("side", ["above", "below"])
    @pytest.mark.parametrize("definite", [False, True], ids=["indefinite", "negative"])
    def test_negative_eigenvalue_is_unbounded_below(self, side, definite):
        # a 2x2 ungated block with a negative eigenvalue l1: the jet adding
        # s v v* along the other eigenvector v makes det = l1 (l2 + s)
        rng = np.random.default_rng(7 + definite)
        ungated = random_hermitian(rng, 2, -2.0, -0.5) if definite else \
            random_hermitian(rng, 2, -2.0, 2.0)
        while not definite and np.linalg.eigvalsh(ungated)[1] <= 0:
            ungated = random_hermitian(rng, 2, -2.0, 2.0)
        gated = random_hermitian(rng, 2, 0.1, 3.0)
        plus, minus = (ungated, gated) if side == "above" else (gated, ungated)
        v = np.linalg.eigh(ungated)[1][:, 1:]
        slacks = []
        for s in 10.0 ** np.arange(0, 16, 3):
            P = s * (v @ v.conj().T)
            increments = (P, 0 * P) if side == "above" else (0 * P, P)
            slacks.append(cone_slack(side, plus, minus, 0.1, 0.2, 0.3, -0.1, *increments, 0.0))
        assert all(np.diff(slacks) < 0) and slacks[-1] < -1e12

    @staticmethod
    def point_slack(report, point):
        (slack,) = [v.slack for v in report.violations if v.spatial_index == point]
        return slack

    def test_negative_definite_plus_from_above_is_minus_inf(self):
        # plus = I + hess(8 sum cos) is about -3 I at the origin: det > 0,
        # so the base jet passes, but the cone is unbounded below there
        g = BicomplexGrid.regular(2, 1, 4)
        u = sum(cos_axis_field(g, a, 8.0).values for a in range(4))
        times = np.array([0.0, 0.01])
        stack = np.stack([u, u])
        bg = flat_background(g)
        origin = (0,) * g.real_dim
        jet = touching_jet(stack, times, g, origin, 1)
        plus, minus = np.eye(2) + jet.H_plus, np.eye(1) - jet.H_minus
        assert np.linalg.eigvalsh(plus)[1] < 0
        base = np.linalg.det(plus).real - np.exp(jet.p_t) * minus[0, 0]
        assert base > 0
        report = subsolution_check(stack, times, bg)
        assert self.point_slack(report, origin) == -np.inf

    def test_negative_one_by_one_plus_from_above_keeps_its_slack(self):
        # c does not multiply the plus side: the base jet's slack stands
        # (tol = -inf reports every point with its slack)
        g = BicomplexGrid.regular(1, 1, 4)
        u = cos_axis_field(g, 0, 8.0).values
        times = np.array([0.0, 0.01])
        stack = np.stack([u, u])
        origin = (0,) * g.real_dim
        jet = touching_jet(stack, times, g, origin, 1)
        plus = 1.0 + jet.H_plus[0, 0]
        assert plus < 0
        report = subsolution_check(stack, times, flat_background(g), tol=-np.inf)
        assert self.point_slack(report, origin) == pytest.approx(plus - 1.0, rel=1e-14)

    def test_negative_one_by_one_minus_from_below_is_minus_inf(self):
        # e^c multiplies the negative minus determinant: unbounded below
        g = BicomplexGrid.regular(1, 1, 4)
        u = cos_axis_field(g, 2, -8.0).values
        times = np.array([0.0, 0.01])
        stack = np.stack([u, u])
        origin = (0,) * g.real_dim
        jet = touching_jet(stack, times, g, origin, 1)
        assert 1.0 - jet.H_minus[0, 0] < 0
        report = supersolution_check(stack, times, flat_background(g))
        assert self.point_slack(report, origin) == -np.inf

    @pytest.mark.parametrize("k,l", [(1, 1), (1, 2)])
    def test_one_violation_per_point_and_slice(self, k, l):
        # a report lists a failing point of a slice once, with the cone's
        # infimum, not once per failing jet
        g, stack, times, bg = check_case(k, l)
        for check in (subsolution_check, supersolution_check):
            for tol in (-np.inf, 0.0):
                pairs = [(v.time_index, v.spatial_index)
                         for v in check(stack, times, bg, tol=tol).violations]
                assert pairs and len(set(pairs)) == len(pairs)


class TestTrajectoryChecks:
    @staticmethod
    def trajectory(k, l, drift):
        """A run of several emitted slices on 4^(2k + 2l) points."""
        rng = np.random.default_rng(100 + 10 * k + l + drift)
        g = BicomplexGrid.regular(k, l, 4, period=1.0)
        bg = drifting_background(g, rng) if drift else flat_background(g)
        u0 = bandlimited_field(g, rng, max_mode=1, amp=0.02)
        # several steps, fewer on the larger grids
        traj = run(FlowState(0.0, u0, bg), 0.02 * 4.0 ** (4 - k - l), emit_every=1)
        assert len(traj.states) >= 3
        return traj

    @pytest.mark.parametrize("drift", [False, True], ids=["static", "drifting"])
    @pytest.mark.parametrize("k,l", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_one_pass_is_the_stack_checks(self, k, l, drift):
        traj = self.trajectory(k, l, drift)
        bg = traj.states[0].background
        stack = np.stack([s.u.values for s in traj.states])
        times = np.array([s.t for s in traj.states])
        counts = []
        for tol in (None, 0.0):
            sub, sup = trajectory_checks(traj, tol=tol)
            refs = (subsolution_check(stack, times, bg, tol=tol),
                    supersolution_check(stack, times, bg, tol=tol))
            for got, ref in zip((sub, sup), refs):
                assert got.violations == ref.violations
                assert got.worst_slack == ref.worst_slack
                assert got.n_points_checked == ref.n_points_checked
                assert got.n_points_checked == (len(times) - 1) * bg.grid.size
                counts.append(len(got.violations))
        # the flow passes its default-tolerance checks; tol = 0 flags roundoff
        assert counts[:2] == [0, 0] and sum(counts[2:]) > 0

    def test_reads_the_final_blocks_and_keeps_the_rest_unbuilt(self, monkeypatch):
        traj = self.trajectory(1, 1, True)
        calls = []
        real = viscosity.form_block_values

        def counted(state):
            calls.append(state._blocks is not None)
            return real(state)
        monkeypatch.setattr(viscosity, "form_block_values", counted)
        trajectory_checks(traj)
        # one lookup per slice n >= 1: only the final one finds its blocks
        assert calls == [False] * (len(traj.states) - 2) + [True]
        assert all(s._blocks is None for s in traj.states[:-1])

    def test_needs_two_states(self):
        traj = run(FlowState(0.0, ScalarField.zeros(BicomplexGrid.regular(1, 1, 4)),
                             flat_background(BicomplexGrid.regular(1, 1, 4))),
                   0.1, keep_states="none")
        with pytest.raises(ValueError, match="at least two times"):
            trajectory_checks(traj)
