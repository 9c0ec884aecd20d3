import numpy as np
import pytest

from twistedma import (BicomplexGrid, FlowState, HermitianMatrixField,
                       ScalarField, background_at, barriers, comparison_test,
                       delta_lift, flat_background, run, subsolution_check,
                       sup_patch, supersolution_check, touching_jets,
                       trajectory_checks)
from twistedma.errors import NotAdmissible, PreconditionFailed, WindowTooSmall
from twistedma.grid import det_plus, det_values, hessian_block_values
from twistedma import flow, viscosity
from twistedma.viscosity import Violation, ViolationReport

from conftest import bandlimited_field, cos_axis_field, log_space_violations


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

    def test_stack_checks_build_no_record(self, monkeypatch):
        # the checks read the forms only: no eigenvalue pass of the flow's
        g, stack, times, bg = check_case(1, 2)
        calls, real = [], flow._worst
        monkeypatch.setattr(flow, "_worst", lambda v: calls.append(v) or real(v))
        for check in (subsolution_check, supersolution_check):
            check(stack, times, bg, samples=1)
        assert calls == []

    @pytest.mark.parametrize("check", [subsolution_check, supersolution_check])
    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_non_finite_slice_is_value_error(self, check, n):
        g, stack, times, bg = check_case(1, 1)
        stack[n, 0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            check(stack, times, bg, samples=1)


class TestFloatRange:
    def test_default_tolerance_near_float_max(self, grid16):
        # |lhs| = 1.7e308 makes 10 (h^2 + dt) |lhs| overflow; the test runs
        # scaled by a power of two instead, and both checks pass
        big = HermitianMatrixField.constant(grid16, "plus", [[1.7e308]])
        bg = flat_background(grid16, omega0_plus=big)
        times = np.array([0.0, 0.01, 0.02])
        stack = static_stack(ScalarField.zeros(grid16), times)
        for check in (subsolution_check, supersolution_check):
            report = check(stack, times, bg, samples=2)
            assert report.ok and report.n_points_checked == 2 * 3 * grid16.size

    def test_scaled_tolerance_is_the_plain_one(self, grid16, rng):
        # slacks within a few ulps of the plain tolerance decide alike
        h, dt = max(grid16.spacing), 0.37
        lhs = 10.0 ** rng.uniform(-3, 3, grid16.shape)
        rhs = 10.0 ** rng.uniform(-3, 3, grid16.shape)
        tol = 10.0 * (h * h + dt) * np.maximum(1.0, np.maximum(lhs, rhs))
        slack = -tol * (1.0 + rng.integers(-3, 4, grid16.shape) * 2.0 ** -52)
        got = viscosity._below_tol(slack, None, grid16, dt, lhs, rhs)
        assert np.array_equal(got, slack < -tol) and 0 < got.sum() < got.size

    def test_slack_beyond_float_range_is_decided(self, grid16):
        # a time slope of 709.9 makes exp(u_t) overflow at every point; each
        # point is decided scaled by a power of two, as in log space (the
        # default tolerance, above 1 on this grid, passes both checks)
        times = np.array([0.0, 0.01])
        stack = sloped_stack(ScalarField.zeros(grid16), times, 709.9)
        bg = flat_background(grid16)
        for tol in (None, 1.0):
            sup = supersolution_check(stack, times, bg, tol=tol, samples=2, seed=1)
            assert sup.ok and sup.n_points_checked == 3 * grid16.size
            assert log_space_violations(stack, times, bg, "below", 2, 1, tol) == {}
        assert subsolution_check(stack, times, bg, samples=2).ok
        assert log_space_violations(stack, times, bg, "above", 2, 0) == {}
        sub = subsolution_check(stack, times, bg, tol=1.0, samples=2)
        ref = log_space_violations(stack, times, bg, "above", 2, 0, 1.0)
        # every point fails; the report keeps a thousand of them
        assert len(ref) == grid16.size and len(sub.violations) == 1000
        assert {(v.time_index, v.spatial_index) for v in sub.violations} <= set(ref)
        # e^709.9 is beyond the float range, and so is every slack
        assert all(v.slack == -np.inf for v in sub.violations)
        assert min(ref.values()) > np.log(np.finfo(float).max)

    @pytest.mark.parametrize("slope,tol", [(720.0, None), (720.0, 1e300),
                                           (np.log(1.7e308) + 5.001, 1e300)])
    def test_scaled_decision_matches_log_space(self, slope, tol):
        # lhs = 1.7e308 e^5 and rhs = e^(slope - c) det overflow on both
        # sides: the subsolution check fails where the log-space slack does,
        # the supersolution check holds, and a slack beyond the float range
        # is -inf.  A slope 1e-3 above log lhs leaves the base jet's slack
        # within the range
        g = BicomplexGrid.regular(1, 1, 4, period=1.0)
        bg = flat_background(g, zeta_minus=ScalarField(g, np.full(g.shape, 5.0)),
                             omega0_plus=HermitianMatrixField.constant(g, "plus", [[1.7e308]]))
        times = np.array([0.0, 0.01])
        stack = sloped_stack(cos_axis_field(g, 1, 1e-3), times, slope)
        log_max = np.log(np.finfo(float).max)
        refs = {}
        for check, side, seed in ((subsolution_check, "above", 3),
                                  (supersolution_check, "below", 4)):
            report = check(stack, times, bg, tol=tol, samples=2, seed=seed)
            ref = refs[side] = log_space_violations(stack, times, bg, side, 2, seed, tol)
            got = {}
            for v in report.violations:
                key = (v.time_index, v.spatial_index)
                got[key] = min(got.get(key, np.inf), v.slack)
            assert set(got) == set(ref)
            assert bool(ref) == (side == "above")
            for key, log_slack in ref.items():
                if log_slack > log_max + 1e-9:
                    assert got[key] == -np.inf
                else:
                    assert np.log(-got[key]) == pytest.approx(log_slack, rel=1e-12)
        assert (min(refs["above"].values()) < log_max) == (slope < 715.0)

    def test_undefined_decision_is_typed(self, grid16):
        # a slice of 1e308 cos x: its time slope and Hessian leave the float
        # range, and no scaling gives the slack a value
        times = np.array([0.0, 0.01])
        stack = np.stack([np.zeros(grid16.shape), cos_axis_field(grid16, 0, 1e308).values])
        with pytest.raises(NotAdmissible, match=r"^subsolution check slack is not "
                                                r"finite at point \(0, 0, 0, 0\), t=0\.01$"):
            subsolution_check(stack, times, flat_background(grid16), samples=2)


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
    lambda g, bg, t, sub, sup: comparison_test(sub, sup, t, bg, T=np.nan, samples=2),
    lambda g, bg, t, sub, sup: subsolution_check(sub, t, bg, samples=-1),
    lambda g, bg, t, sub, sup: supersolution_check(sup, t, bg, samples=-1),
    lambda g, bg, t, sub, sup: touching_jets(sub, t, g, (0,) * 4, 1, samples=-1),
    lambda g, bg, t, sub, sup: sup_patch(sub, sup, g, 0.1, 1.0, (0.0, np.nan, 0.0, 0.0)),
    lambda g, bg, t, sub, sup: subsolution_check(sub, t, bg, tol=np.nan, samples=2),
    lambda g, bg, t, sub, sup: supersolution_check(sup, t, bg, tol=np.nan, samples=2),
    lambda g, bg, t, sub, sup: subsolution_check(sub, np.where(t > 0.05, np.nan, t), bg),
    lambda g, bg, t, sub, sup: subsolution_check(sub, t, bg, samples=np.nan),
], ids=["lift-delta-nan", "lift-delta-inf", "lift-T-nan", "patch-gamma-nan",
        "patch-gamma-inf", "patch-r-nan", "patch-delta-nan", "comparison-T-nan",
        "sub-samples-negative", "super-samples-negative", "jets-samples-negative",
        "patch-center-nan", "sub-tol-nan", "super-tol-nan", "sub-times-nan",
        "sub-samples-nan"])
def test_public_inputs_fail_typed(grid16, call):
    # each input would otherwise give non-finite output or check less than asked
    bg, times, sub, sup = _barrier_pair(grid16)
    with pytest.raises(ValueError):
        call(grid16, bg, times, sub, sup)


@pytest.mark.parametrize("call,message", [
    (lambda g, bg, t, sub: touching_jets(sub, t, g, (0,) * 4, 1, side="left"),
     r"^side must be 'above' or 'below'$"),
    (lambda g, bg, t, sub: subsolution_check(sub[:, ::2, ::2, ::2, ::2], t, bg),
     r"^stack slices must live on the background grid$")],
    ids=["jets-side-left", "stack-off-grid"])
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
        verdict = comparison_test(sub, sup, times, flat_background(g), tol=10.0, samples=2)
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
        verdict = comparison_test(stack, sup, times, bg, samples=2)
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


# ---------------------------------------------------------------------------
# the touching calculus written out point by point and jet by jet, without
# the cone: the reference the checks and touching_jets must reproduce bitwise

def reference_perturbations(m_plus, m_minus, samples, rng):
    out = []
    for s in range(samples):
        rho = 10.0 ** rng.uniform(np.log10(1e-4), np.log10(1.0), size=3)
        mats = []
        for m, r in zip((m_plus, m_minus), rho[:2]):
            if s % 2 == 0:
                mats.append(r * np.eye(m, dtype=np.complex128))
            else:
                v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
                v /= np.linalg.norm(v)
                mats.append(r * np.outer(v, v.conj()))
        # a 1x1 increment is real: the imaginary part of r |v|^2 computed
        # in complex arithmetic is roundoff (an FMA leaves ~1e-18)
        mats = [P.real if P.shape == (1, 1) else P for P in mats]
        out.append((mats[0], mats[1], float(rho[2])))
    return out


def reference_jets(stack, times, grid, idx, n, side, samples, seed):
    dt = times[n] - times[n - 1]
    hp = hessian_block_values(stack[n], grid, "plus")[idx]
    hm = hessian_block_values(stack[n], grid, "minus")[idx]
    p_t = (stack[n][idx] - stack[n - 1][idx]) / dt
    sign = 1.0 if side == "above" else -1.0
    jets = [(float(p_t), hp, hm)]
    for P, Q, c in reference_perturbations(grid.k, grid.l, samples,
                                           np.random.default_rng(seed)):
        jets.append((float(p_t - sign * c), hp + sign * P, hm + sign * Q))
    return jets


def reference_check(stack, times, bg, tol, samples, seed, side):
    """A Violation for every bad point of every slice and jet, then finalize."""
    grid = bg.grid
    sign = 1.0 if side == "above" else -1.0
    perts = [(None, None, 0.0)] + reference_perturbations(
        grid.k, grid.l, samples, np.random.default_rng(seed))
    report = ViolationReport(side="sub" if side == "above" else "super")
    exp_zp, exp_zm = np.exp(bg.zeta_plus.values), np.exp(bg.zeta_minus.values)
    for n in range(1, len(times)):
        t, dt = float(times[n]), float(times[n] - times[n - 1])
        sl, Fv = background_at(bg, t), bg.F_at(t)
        hp = hessian_block_values(stack[n], grid, "plus")
        hm = hessian_block_values(stack[n], grid, "minus")
        p_t = (stack[n] - stack[n - 1]) / dt
        for P, Q, c in perts:
            plus = sl.omega_hat_plus.values + hp
            minus = sl.omega_hat_minus.values - hm
            slope = p_t - sign * c
            if P is not None:
                plus = plus + sign * P
                minus = minus - sign * Q
            if side == "above":
                lhs = det_values(plus) * exp_zm
                rhs = np.exp(slope + Fv) * det_plus(minus) * exp_zp
                slack = lhs - rhs
            else:
                lhs = det_plus(plus) * exp_zm
                rhs = np.exp(slope + Fv) * det_values(minus) * exp_zp
                slack = rhs - lhs
            if tol is None:
                h = max(grid.spacing)
                scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
                tol_arr = 10.0 * (h * h + dt) * scale
            else:
                tol_arr = tol
            report.n_points_checked += slack.size
            for idx in zip(*np.nonzero(slack < -tol_arr)):
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
            for samples in (0, 3):
                for check, side, seed in ((subsolution_check, "above", 5),
                                          (supersolution_check, "below", 6)):
                    got = check(stack, times, bg, tol=tol, samples=samples, seed=seed)
                    ref = reference_check(stack, times, bg, tol, samples, seed, side)
                    assert got.violations == ref.violations
                    assert got.worst_slack == ref.worst_slack
                    assert got.n_points_checked == ref.n_points_checked
                    sizes.append(len(got.violations))
        assert all(sizes) and 1000 in sizes

    @pytest.mark.parametrize("k,l", [(1, 1), (2, 2)])
    def test_touching_jets_bitwise(self, k, l):
        g, stack, times, _ = check_case(k, l)
        rng = np.random.default_rng(3)
        for side in ("above", "below"):
            for n in (1, 2):
                idx = tuple(int(i) for i in rng.integers(0, 4, g.real_dim))
                jets = touching_jets(stack, times, g, idx, n, side=side, seed=n)
                ref = reference_jets(stack, times, g, idx, n, side, 4, n)
                assert len(jets) == len(ref) == 5
                for jet, (p_t, hp, hm) in zip(jets, ref):
                    assert (jet.spatial_index, jet.time_index) == (idx, n)
                    assert jet.p_t == p_t
                    assert np.array_equal(jet.H_plus, hp)
                    assert np.array_equal(jet.H_minus, hm)

    def test_jet_slack_is_the_checks_slack(self):
        # tol = -inf reports every point of every jet: 256 points, one
        # slice and three jets stay below the report's cap
        g, stack, times, bg = check_case(1, 1)
        stack, times = stack[:2], times[:2]
        idx = tuple(int(i) for i in np.random.default_rng(4).integers(0, 4, 4))
        t = float(times[1])
        sl = background_at(bg, t)
        at = lambda values: np.broadcast_to(values, g.shape + values.shape[g.real_dim:])[idx]
        zp, zm, F = (at(f) for f in (bg.zeta_plus.values, bg.zeta_minus.values, bg.F_at(t)))
        for check, side, sign, det_p, det_m in (
                (subsolution_check, "above", 1.0, det_values, det_plus),
                (supersolution_check, "below", -1.0, det_plus, det_values)):
            report = check(stack, times, bg, tol=-np.inf, samples=2, seed=8)
            assert len(report.violations) == 3 * g.size
            from_check = sorted(v.slack for v in report.violations
                                if v.spatial_index == idx)
            from_jets = sorted(
                sign * (det_p(at(sl.omega_hat_plus.values) + jet.H_plus) * np.exp(zm)
                        - np.exp(jet.p_t + F)
                        * det_m(at(sl.omega_hat_minus.values) - jet.H_minus) * np.exp(zp))
                for jet in touching_jets(stack, times, g, idx, 1, side=side,
                                         samples=2, seed=8))
            # the check adds a jet's increments to the form, the jet to its
            # Hessian: the two orders round differently
            assert from_jets == pytest.approx(from_check, rel=1e-12, abs=1e-14)


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
            sub, sup = trajectory_checks(traj, tol=tol, samples=3, seed=7)
            refs = (subsolution_check(stack, times, bg, tol=tol, samples=3, seed=7),
                    supersolution_check(stack, times, bg, tol=tol, samples=3, seed=8))
            for got, ref in zip((sub, sup), refs):
                assert got.violations == ref.violations
                assert got.worst_slack == ref.worst_slack
                assert got.n_points_checked == ref.n_points_checked
                assert got.n_points_checked == 4 * (len(times) - 1) * bg.grid.size
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
        trajectory_checks(traj, samples=1)
        # one lookup per slice n >= 1: only the final one finds its blocks
        assert calls == [False] * (len(traj.states) - 2) + [True]
        assert all(s._blocks is None for s in traj.states[:-1])

    def test_needs_two_states(self):
        traj = run(FlowState(0.0, ScalarField.zeros(BicomplexGrid.regular(1, 1, 4)),
                             flat_background(BicomplexGrid.regular(1, 1, 4))),
                   0.1, keep_states="none")
        with pytest.raises(ValueError, match="at least two times"):
            trajectory_checks(traj)
