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

from conftest import bandlimited_field, cos_axis_field, log_dets, log_space_violations


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
        # omega_plus = 1.7e308 and u = 0: u_t = 0 falls short of log det
        # omega_plus by log(1.7e308), the residual the super check reports
        big = HermitianMatrixField.constant(grid16, "plus", [[1.7e308]])
        bg = flat_background(grid16, omega0_plus=big)
        times = np.array([0.0, 0.01, 0.02])
        stack = static_stack(ScalarField.zeros(grid16), times)
        sub = subsolution_check(stack, times, bg)
        sup = supersolution_check(stack, times, bg)
        assert sub.ok and sub.n_points_checked == sup.n_points_checked == 2 * grid16.size
        assert len(sup.violations) == 1000
        assert sup.worst_slack == pytest.approx(-np.log(1.7e308), rel=1e-15)
        assert all(v.slack == sup.worst_slack for v in sup.violations)

    @pytest.mark.parametrize("b", [1.3e154, 1.3e155, 1e300])
    def test_two_by_two_residual_near_float_max(self, b):
        # omega_plus = b I on k = l = 2, where det omega_plus = b^2 leaves the
        # float range from b = 1.3e155 on, and u = (log det omega_plus +
        # delta) t: the residual is delta, decided in the equation's log units
        g = BicomplexGrid.regular(2, 2, 4)
        bg = flat_background(g, omega0_plus=HermitianMatrixField.constant(g, "plus", b * np.eye(2)))
        times = np.array([0.0, 0.01, 0.02])
        for delta in (0.0, 1.0, -1.0):
            stack = sloped_stack(ScalarField.zeros(g), times, 2.0 * np.log(b) + delta)
            sub, sup = (check(stack, times, bg, tol=0.5)
                        for check in (subsolution_check, supersolution_check))
            # u_t above log det fails from above, below it from below
            failing = [r for r in (sub, sup) if not r.ok]
            assert [r.side for r in failing] == {0.0: [], 1.0: ["sub"], -1.0: ["super"]}[delta]
            for report in failing:
                assert report.worst_slack == pytest.approx(-1.0, abs=1e-9)
                assert len(report.violations) == 1000

    def test_slack_beyond_float_range_is_decided(self, grid16):
        # a time slope of 709.9 makes exp(u_t) overflow at every point; in
        # log units the slack is -709.9 from above and +709.9 from below
        times = np.array([0.0, 0.01])
        stack = sloped_stack(ScalarField.zeros(grid16), times, 709.9)
        bg = flat_background(grid16)
        for tol in (None, 1.0):
            sup = supersolution_check(stack, times, bg, tol=tol)
            assert sup.ok and sup.n_points_checked == grid16.size
            assert log_space_violations(stack, times, bg, "below", tol) == {}
            sub = subsolution_check(stack, times, bg, tol=tol)
            ref = log_space_violations(stack, times, bg, "above", tol)
            # every point fails; the report keeps a thousand of them
            assert len(ref) == grid16.size and len(sub.violations) == 1000
            assert {(v.time_index, v.spatial_index) for v in sub.violations} <= set(ref)
            assert all(v.slack == pytest.approx(-709.9, rel=1e-12) for v in sub.violations)

    @pytest.mark.parametrize("slope,tol", [(720.0, None), (720.0, 1e300),
                                           (np.log(1.7e308) + 5.001, 1e300)])
    def test_scaled_decision_matches_log_space(self, slope, tol):
        # log lhs = log(1.7e308) + 5 and e^slope are beyond the float range;
        # in log units the sub check's slack is log lhs - slope at every
        # point, and the super check's its negative.  Each check finds the
        # points of the log-space reference, at tol and at tol = 0, each
        # with its slack; a tolerance of 1e300 in log units passes both
        g = BicomplexGrid.regular(1, 1, 4, period=1.0)
        bg = flat_background(g, zeta_minus=ScalarField(g, np.full(g.shape, 5.0)),
                             omega0_plus=HermitianMatrixField.constant(g, "plus", [[1.7e308]]))
        times = np.array([0.0, 0.01])
        stack = sloped_stack(cos_axis_field(g, 1, 1e-3), times, slope)
        expected = np.log(1.7e308) + 5.0 - slope
        for check, side, sign in ((subsolution_check, "above", 1.0),
                                  (supersolution_check, "below", -1.0)):
            for level in (tol, 0.0):
                report = check(stack, times, bg, tol=level)
                ref = log_space_violations(stack, times, bg, side, level)
                got = {(v.time_index, v.spatial_index): v.slack for v in report.violations}
                assert set(got) == set(ref)
                assert bool(ref) == (side == "above" and level != 1e300)
                for key, slack in ref.items():
                    assert got[key] == pytest.approx(slack, rel=1e-12)
                    assert slack == pytest.approx(sign * expected, rel=1e-9)

    def test_undefined_decision_is_typed(self, grid16):
        # slices of 1e308 cos x, moving (the time slope leaves the float
        # range) or stationary (the time slope is 0): the Hessian leaves the
        # range, and neither side certifies the point
        times = np.array([0.0, 0.01])
        u = cos_axis_field(grid16, 0, 1e308).values
        for stack in (np.stack([np.zeros(grid16.shape), u]), np.stack([u, u])):
            for check, side in ((subsolution_check, "sub"), (supersolution_check, "super")):
                with pytest.raises(NotAdmissible, match=rf"^{side}solution check slack is not "
                                                        r"finite at point \(0, 0, 0, 0\), "
                                                        r"t=0\.01$"):
                    check(stack, times, flat_background(grid16))


class TestDetection:
    @pytest.mark.parametrize("n,s,fails", [(16, 5.0, True), (8, 100.0, True),
                                           (16, 0.5, False)])
    def test_default_tolerance_sees_the_residual(self, n, s, fails):
        # on a flat background u = s t is no subsolution and -s t no
        # supersolution: each fails its check by s in log units, which the
        # default tolerance 10 (h^2 + dt) (1.64 on 16^4, 6.27 on 8^4) sees
        g = BicomplexGrid.regular(1, 1, n)
        bg = flat_background(g)
        times = np.array([0.0, 0.01, 0.02])
        for check, sign in ((subsolution_check, 1.0), (supersolution_check, -1.0)):
            report = check(sloped_stack(ScalarField.zeros(g), times, sign * s), times, bg)
            assert report.ok != fails
            if fails:
                assert report.worst_slack == pytest.approx(-s, rel=1e-9)
            # the other role passes with slack +s
            assert check(sloped_stack(ScalarField.zeros(g), times, -sign * s), times, bg).ok


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
        (1.0, 0.0, r"^candidate subsolution fails its check \(worst slack -1\.000e\+00\)$"),
        (0.0, -1.0, r"^candidate supersolution fails its check "
                    r"\(worst slack -1\.000e\+00\)$"),
    ], ids=["sub", "super"])
    def test_failed_check_fails_precondition(self, sub_slope, sup_slope, message):
        # on a flat background u = t is a strict supersolution and -t a
        # strict subsolution, so each fails the check of the role it is
        # given, by its time slope 1 in log units
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
# the touching calculus written out point by point, in the equation's log
# units, the cone in closed form: the reference the checks and touching_jet
# must reproduce bitwise

def reference_jet(stack, times, grid, idx, n):
    dt = times[n] - times[n - 1]
    hp = hessian_block_values(stack[n], grid, "plus")[idx]
    hm = hessian_block_values(stack[n], grid, "minus")[idx]
    p_t = (stack[n][idx] - stack[n - 1][idx]) / dt
    return float(p_t), hp, hm


def closed_log_det(form, pd):
    """log det of stacked 1x1 or 2x2 Hermitian blocks where ``pd``, -inf
    elsewhere, as log a + log(d - |b| (|b| / a))."""
    a = form[..., 0, 0].real
    with np.errstate(invalid="ignore", divide="ignore"):
        log_det = np.log(a)
        if form.shape[-1] == 2:
            nb = np.abs(form[..., 0, 1])
            log_det = log_det + np.log(form[..., 1, 1].real - nb * (nb / a))
    return np.where(pd, log_det, -np.inf)


def reference_check(stack, times, bg, tol, side):
    """A Violation for every bad point of every slice, then finalize.  The
    slack is log det(plus) + zeta- - (p_t + F + zeta+ + log det(minus))
    from above and its negative from below, the block on the touching side
    gated (log 0 = -inf below the PD_GATE threshold), 0 where both sides are
    -inf, and -inf where the ungated block has a negative eigenvalue; the
    eigenvalues are eigvalsh's."""
    grid = bg.grid
    report = ViolationReport(side="sub" if side == "above" else "super")
    sign = 1.0 if side == "above" else -1.0
    zp, zm = bg.zeta_plus.values, bg.zeta_minus.values
    for n in range(1, len(times)):
        t, dt = float(times[n]), float(times[n] - times[n - 1])
        sl = background_at(bg, t)
        plus = sl.omega_hat_plus.values + hessian_block_values(stack[n], grid, "plus")
        minus = sl.omega_hat_minus.values - hessian_block_values(stack[n], grid, "minus")
        p_t = (stack[n] - stack[n - 1]) / dt
        (lo_p, _, pd_p), (lo_m, _, pd_m) = log_dets(plus), log_dets(minus)
        lhs = closed_log_det(plus, pd_p if side == "below" else lo_p > 0) + zm
        rhs = p_t + bg.F_at(t) + zp + closed_log_det(minus, pd_m if side == "above" else lo_m > 0)
        with np.errstate(invalid="ignore"):
            slack = sign * (lhs - rhs)
        slack = np.where((lhs == -np.inf) & (rhs == -np.inf), 0.0, slack)
        slack = np.where((lo_p if side == "above" else lo_m) < 0, -np.inf, slack)
        c = 10.0 * (max(grid.spacing) ** 2 + dt) if tol is None else tol
        report.n_points_checked += slack.size
        for idx in zip(*np.nonzero(slack < -c)):
            report.violations.append(Violation(
                tuple(int(i) for i in idx), n, t, float(slack[idx]), report.side))
    return report.finalize()


def exponentiated_violations(stack, times, bg, tol, side):
    """The (time_index, point) pairs that the exponentiated inequality
    det(plus) e^zeta- >= e^(p_t + F) det+(minus) e^zeta+ flags (its mirror
    from below), at tol or at the relative default 10 (h_max^2 + dt) max(1,
    |lhs|, |rhs|): the rule the checks applied before they read the
    equation in log units, with its cone (-inf where the ungated block has
    a negative eigenvalue, a 1x1 plus block from above aside)."""
    grid = bg.grid
    out = set()
    exp_zp, exp_zm = np.exp(bg.zeta_plus.values), np.exp(bg.zeta_minus.values)
    for n in range(1, len(times)):
        t, dt = float(times[n]), float(times[n] - times[n - 1])
        sl = background_at(bg, t)
        plus = sl.omega_hat_plus.values + hessian_block_values(stack[n], grid, "plus")
        minus = sl.omega_hat_minus.values - hessian_block_values(stack[n], grid, "minus")
        p_t = (stack[n] - stack[n - 1]) / dt
        if side == "above":
            lhs = det_values(plus) * exp_zm
            rhs = np.exp(p_t + bg.F_at(t)) * det_plus(minus) * exp_zp
            slack, ungated = lhs - rhs, plus
        else:
            lhs = det_plus(plus) * exp_zm
            rhs = np.exp(p_t + bg.F_at(t)) * det_values(minus) * exp_zp
            slack, ungated = rhs - lhs, minus
        if tol is None:
            scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
            tol_arr = 10.0 * (max(grid.spacing) ** 2 + dt) * scale
        else:
            tol_arr = tol
        unbounded = np.linalg.eigvalsh(ungated)[..., 0] < 0
        if side == "above" and ungated.shape[-1] == 1:
            unbounded[...] = False
        out |= {(n, tuple(int(i) for i in idx))
                for idx in zip(*np.nonzero((slack < -tol_arr) | unbounded))}
    return out


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
                # and to roundoff those of eigvalsh and slogdet, which the
                # report's worst thousand come first in
                logs = log_space_violations(stack, times, bg, side, tol)
                assert len(got.violations) == min(len(logs), 1000)
                for v in got.violations:
                    assert v.slack == pytest.approx(logs[(v.time_index, v.spatial_index)],
                                                    rel=1e-9, abs=1e-12)
        # the report's cap binds wherever the slices hold more points than it
        assert all(sizes) and (1000 in sizes) == ((len(times) - 1) * g.size > 1000)

    @pytest.mark.parametrize("k,l", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_log_units_keep_the_exponentiated_violations(self, k, l, monkeypatch):
        # the log slack has the sign of the exponentiated one, so at tol = 0
        # the violations are the same points; at the default tolerance every
        # point that the exponentiated test flags, lhs / rhs < 1 - c, has
        # log slack < log(1 - c) <= -c, and some more points fail
        monkeypatch.setattr(viscosity, "_VIOLATION_CAP", 10 ** 9)
        g, stack, times, bg = check_case(k, l)
        for check, side in ((subsolution_check, "above"), (supersolution_check, "below")):
            got = {tol: {(v.time_index, v.spatial_index)
                         for v in check(stack, times, bg, tol=tol).violations}
                   for tol in (0.0, None)}
            assert got[0.0] == exponentiated_violations(stack, times, bg, 0.0, side)
            assert got[None] > exponentiated_violations(stack, times, bg, None, side)

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
            # copies of the point's matrices, which keep no Hessian alive:
            # a 2x2 complex matrix holds 64 bytes, a real 1x1 one 8
            for got in (jet.H_plus, jet.H_minus):
                assert got.base is None and got.nbytes == (64 if k == 2 else 8)

    def test_jet_slack_is_the_checks_slack(self):
        # tol = -inf reports every point of the slice whose slack is below
        # +inf: the slack at each is the base jet's in log units, +inf where
        # only the gated block is -inf, or -inf where the ungated block has
        # a negative eigenvalue
        g, stack, times, bg = check_case(1, 1)
        stack, times = stack[:2], times[:2]
        t = float(times[1])
        sl = background_at(bg, t)
        at = lambda values, idx: np.broadcast_to(
            values, g.shape + values.shape[g.real_dim:])[idx]
        counts = {-np.inf: 0, np.inf: 0}
        for check, side in ((subsolution_check, "above"), (supersolution_check, "below")):
            report = check(stack, times, bg, tol=-np.inf)
            from_check = {v.spatial_index: v.slack for v in report.violations}
            for idx in np.ndindex(g.shape):
                jet = touching_jet(stack, times, g, idx, 1)
                zp, zm, F = (at(f, idx) for f in (bg.zeta_plus.values, bg.zeta_minus.values,
                                                  bg.F_at(t)))
                plus = at(sl.omega_hat_plus.values, idx) + jet.H_plus
                minus = at(sl.omega_hat_minus.values, idx) - jet.H_minus
                from_jet = cone_slack(side, plus, minus, jet.p_t, F, zp, zm,
                                      0 * plus, 0 * minus, 0.0)
                if np.isinf(from_jet):
                    counts[from_jet] += 1
                    assert from_check.get(idx, np.inf) == from_jet
                    continue
                # the check adds the Hessian to the form over the slice, the
                # jet at one point, and the logs differ from slogdet's
                assert from_jet == pytest.approx(from_check[idx], rel=1e-12, abs=1e-12)
        assert all(counts.values())


def cone_slack(side, plus, minus, p_t, F, zp, zm, P, Q, c):
    """The slack of the jet (p_t, plus, minus) + s (-c, P, -Q), s = +1 from
    above and -1 from below, in the equation's log units by eigvalsh, with
    det+ gated on exact positive definiteness: the quantifier the checks
    decide, jet by jet."""
    s = 1.0 if side == "above" else -1.0
    ev_p, ev_m = np.linalg.eigvalsh(plus + s * P), np.linalg.eigvalsh(minus - s * Q)
    if (ev_p if side == "above" else ev_m)[0] < 0:
        return -np.inf          # the ungated form is not semipositive
    with np.errstate(divide="ignore"):
        log_p, log_m = (np.sum(np.log(ev)) if ev[0] > 0 else -np.inf for ev in (ev_p, ev_m))
    lhs, rhs = log_p + zm, p_t - s * c + F + zp + log_m
    return 0.0 if lhs == rhs == -np.inf else s * (lhs - rhs)


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
            assert closed == pytest.approx(base, rel=1e-12, abs=1e-12)
            for _ in range(20):
                c = 0.0 if rng.random() < 0.1 else 10.0 ** rng.uniform(-6, 1.5)
                jet = cone_slack(side, plus, minus, p_t, F, zp, zm,
                                 random_psd(rng, k), random_psd(rng, l), c)
                assert jet >= closed - 1e-12

    @pytest.mark.parametrize("side", ["above", "below"])
    @pytest.mark.parametrize("definite", [False, True], ids=["indefinite", "negative"])
    def test_negative_eigenvalue_is_unbounded_below(self, side, definite):
        # a 2x2 ungated block with a negative eigenvalue l1: every jet of the
        # cone has no log det, and the jet adding s v v* along the other
        # eigenvector v drives the exponentiated slack to -inf, det = l1 (l2 + s)
        rng = np.random.default_rng(7 + definite)
        ungated = random_hermitian(rng, 2, -2.0, -0.5) if definite else \
            random_hermitian(rng, 2, -2.0, 2.0)
        while not definite and np.linalg.eigvalsh(ungated)[1] <= 0:
            ungated = random_hermitian(rng, 2, -2.0, 2.0)
        gated = random_hermitian(rng, 2, 0.1, 3.0)
        plus, minus = (ungated, gated) if side == "above" else (gated, ungated)
        v = np.linalg.eigh(ungated)[1][:, 1:]
        dets = []
        for s in 10.0 ** np.arange(0, 16, 3):
            P = s * (v @ v.conj().T)
            increments = (P, 0 * P) if side == "above" else (0 * P, P)
            assert cone_slack(side, plus, minus, 0.1, 0.2, 0.3, -0.1, *increments, 0.0) == -np.inf
            dets.append(np.linalg.det(ungated + P).real)
        assert all(np.diff(dets) < 0) and dets[-1] < -1e12

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

    def test_negative_one_by_one_plus_from_above_is_minus_inf(self):
        # a negative determinant has no log: like every ungated block with a
        # negative eigenvalue, the plus block from above fails at every
        # finite tolerance
        g = BicomplexGrid.regular(1, 1, 4)
        u = cos_axis_field(g, 0, 8.0).values
        times = np.array([0.0, 0.01])
        stack = np.stack([u, u])
        origin = (0,) * g.real_dim
        jet = touching_jet(stack, times, g, origin, 1)
        assert 1.0 + jet.H_plus[0, 0] < 0
        report = subsolution_check(stack, times, flat_background(g))
        assert self.point_slack(report, origin) == -np.inf

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
