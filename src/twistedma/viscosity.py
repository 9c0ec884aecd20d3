"""Discrete jet-based sub/supersolution verification and the comparison
harness.

A jet is the second-order space-time Taylor data of a test function at a
touching point: time slope plus the two block Hessians.  The checkers are
sound detectors (any reported violation is real to stencil accuracy) but
only statistical verifiers of validity: the true quantifier ranges over
all smooth test functions, and we sample the admissible perturbation cone.

Touching calculus.  For a function touched from above at an interior time
(local maximum of u - phi over t <= t0), admissible test-jet perturbations
add PSD increments to *both* spatial Hessian blocks and decrease the time
slope; touching from below mirrors this.  The one-sided inequalities then
gate the determinant on exactly one block per side: the ungated block is
where the perturbation cone forces ellipticity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NotAdmissible, PreconditionFailed, WindowTooSmall
from .flow import FlowState, form_block_values
# the checks read background_at through form_block_values; the name stays
# bound here, where bench/test_bench.py checks the tracer's sibling imports
from .forms import background_at  # noqa: F401
from .grid import (ScalarField, _block_dtype, _entries, det_entries, det_plus_entries,
                   hessian_block_values, pd_gate_entries)

__all__ = [
    "Jet",
    "Violation",
    "ViolationReport",
    "touching_jets",
    "subsolution_check",
    "supersolution_check",
    "trajectory_checks",
    "delta_lift",
    "comparison_test",
    "ComparisonVerdict",
    "sup_patch",
]

_MAG_LO, _MAG_HI = 1e-4, 1.0
_VIOLATION_CAP = 1000                 # a report keeps its worst violations
_DELTA_GRID = (1e-3, 1e-2, 1e-1)      # lifts of the comparison trace
_LN2 = math.log(2.0)


@dataclass
class Jet:
    """Space-time second-order test data at one lattice point."""

    spatial_index: tuple
    time_index: int
    p_t: float
    H_plus: np.ndarray
    H_minus: np.ndarray


def _times(times, n_slices):
    times = np.asarray(times, dtype=np.float64)
    if n_slices != len(times) or len(times) < 2:
        raise ValueError("need one slice per time and at least two times")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    return times


def _stack(u_stack, times):
    u_stack = np.asarray(u_stack, dtype=np.float64)
    return u_stack, _times(times, u_stack.shape[0])


def _cone(grid, side, samples, seed):
    """(sign, increments) of the touching calculus for one side.

    sign is +1 from above and -1 from below.  The increments (dp_t, dH+,
    dH-) are the base jet's (zero) and one per sampled jet: sign * (-c, P+,
    P-) with P blocks PSD and c >= 0, magnitudes log-uniform in [1e-4, 1].
    A 1x1 increment is real, so that the jets of real blocks stay real.
    """
    if side not in ("above", "below"):
        raise ValueError("side must be 'above' or 'below'")
    sign = 1.0 if side == "above" else -1.0
    rng = np.random.default_rng(seed)
    cone = [(0.0, *(np.zeros((m, m), _block_dtype(m, 0.0)) for m in (grid.k, grid.l)))]
    for s in range(samples):
        rho = 10.0 ** rng.uniform(np.log10(_MAG_LO), np.log10(_MAG_HI), size=3)
        mats = []
        for m, r in zip((grid.k, grid.l), rho[:2]):
            if s % 2 == 0:
                mat = r * np.eye(m, dtype=np.complex128)
            else:
                v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
                v /= np.linalg.norm(v)
                mat = r * np.outer(v, v.conj())
            mats.append(mat.real if m == 1 else mat)
        cone.append((-sign * float(rho[2]), sign * mats[0], sign * mats[1]))
    return sign, cone


def touching_jets(u_stack, times, grid, spatial_index, time_index,
                  side="above", samples=4, seed=0):
    """Candidate jets of test functions touching u at one point.

    The base jet is the discrete Taylor data of slice ``time_index``: the
    time slope (backward, matching the parabolic arrow) and both block
    Hessians (central).  The other jets perturb it within the admissible
    cone for the requested side.
    """
    u_stack, times = _stack(u_stack, times)
    _, cone = _cone(grid, side, samples, seed)
    n = time_index
    if not (1 <= n < len(times)):
        raise WindowTooSmall("need a backward time neighbor for the jet")
    idx = tuple(spatial_index)
    p_t = ((u_stack[n] - u_stack[n - 1]) / (times[n] - times[n - 1]))[idx]
    hp, hm = (hessian_block_values(u_stack[n], grid, block)[idx]
              for block in ("plus", "minus"))
    return [Jet(idx, n, float(p_t + dp), hp + dhp, hm + dhm)
            for dp, dhp, dhm in cone]


@dataclass
class Violation:
    spatial_index: tuple
    time_index: int
    t: float
    slack: float
    side: str


@dataclass
class ViolationReport:
    side: str
    violations: list = field(default_factory=list)
    worst_slack: float = np.inf
    n_points_checked: int = 0

    @property
    def ok(self):
        return not self.violations

    def finalize(self):
        self.violations.sort(key=lambda v: v.slack)
        if self.violations:
            self.worst_slack = self.violations[0].slack
        del self.violations[_VIOLATION_CAP:]
        return self

    def write_csv(self, path, comment=None):
        with open(path, "w") as fh:
            if comment:
                fh.write(f"# {comment}\n")
            fh.write("point,time_index,t,slack,side\n")
            for v in self.violations:
                idx = ";".join(str(i) for i in v.spatial_index)
                fh.write(f"{idx},{v.time_index},{v.t!r},{v.slack!r},{v.side}\n")


def _default_tol(grid, dt):
    """The checks' default tolerance unit, 10 (h_max^2 + dt)."""
    h_max = max(grid.spacing)
    return 10.0 * (h_max * h_max + dt)


def _below_tol(slack, tol, grid, dt, lhs, rhs, e=None):
    """Mask of slack < -tol.  The default tol is c 2^f max(1, |lhs|, |rhs|)
    with c 2^f = 10 (h_max^2 + dt), f >= 0 and c < 1.  It is tested as
    slack 2^-f < -c max(...): powers of two scale exactly, so that is the
    same test, and it stays finite where the tolerance would overflow.
    With ``e`` (an integer per point), slack, lhs and rhs are the values
    scaled by 2^-e, and tol and the 1 of the max are scaled alike."""
    if tol is not None:
        return slack < -(tol if e is None else np.ldexp(tol, -e))
    factor = _default_tol(grid, dt)
    f = max(math.frexp(factor)[1], 0)
    one = 1.0 if e is None else np.ldexp(1.0, -e)
    scale = np.maximum(one, np.maximum(np.abs(lhs), np.abs(rhs)))
    return slack * 2.0 ** -f < -math.ldexp(factor, -f) * scale


def _jet_entries(entries, increment, op):
    """op(form, increment) entry by entry: entry (i, j) of a stacked form
    plus or minus a constant 2x2 (or 1x1) increment."""
    if len(entries) == 1:
        parts = (increment[0, 0].real,)
    else:
        parts = (increment[0, 0].real, increment[1, 1].real, increment[0, 1])
    return tuple(op(x, c) for x, c in zip(entries, parts))


def _scaled_det(entries, gated):
    """(det 2^-s, s) at some points: the entries scaled exactly by a
    power of two into [-1, 1] (s is that power for m = 1, twice it for
    m = 2); where ``gated``, zero unless the matrix is positive definite,
    as read on the entries themselves."""
    parts = entries[:1] if len(entries) == 1 else (*entries[:2], entries[2].real,
                                                   entries[2].imag)
    peak = np.abs(parts[0])
    for x in parts[1:]:
        peak = np.maximum(peak, np.abs(x))
    e = np.frexp(peak)[1]
    scaled = [np.ldexp(x, -e) for x in parts]
    if len(scaled) == 1:
        det, s = scaled[0], e
    else:
        a, d, br, bi = scaled
        det, s = a * d - (br * br + bi * bi), 2 * e
    if gated:
        det = np.where(pd_gate_entries(*entries), det, 0.0)
    return det, s


def _rescaled(sign, jet_p, jet_m, arg, zeta_p, zeta_m):
    """(lhs, rhs, slack, e) of jets at points where their plain evaluation
    is not finite, all three scaled by 2^-e with one integer e per point:
    the forms' determinants by ``_scaled_det`` and the exponentials by
    e^(x - k ln 2) = e^x 2^-k.  Each side is then at most 2 in magnitude,
    and a slack that is still not finite has no decision."""
    det_p, s_p = _scaled_det(jet_p, sign < 0)
    det_m, s_m = _scaled_det(jet_m, sign > 0)
    log_rhs = arg + zeta_p
    e = np.ceil(np.maximum(s_p + zeta_m / _LN2, s_m + log_rhs / _LN2))
    lhs = det_p * np.exp(zeta_m - (e - s_p) * _LN2)
    rhs = det_m * np.exp(log_rhs - (e - s_m) * _LN2)
    return lhs, rhs, sign * (lhs - rhs), e


def _check_slice(state, prev, dt, n, exp_z, sides, tol):
    """Check slice n, whose time step from the values ``prev`` is dt, for
    each side of ``sides``, (sign, cone, report) triples.

    The forms are the transient ``state``'s blocks, split once into
    contiguous entries; a jet adds its increments to them entry by entry.
    Where a slack is not finite, the point is decided on both sides
    scaled by a power of two (``_rescaled``), and its slack is that value
    scaled back, infinite where it leaves the float range; a point whose
    decision is undefined even so is NotAdmissible, since a check cannot
    certify it.
    """
    background, t = state.background, state.t
    grid = background.grid
    exp_zp, exp_zm = exp_z
    # a value beyond the float range is decided scaled, below
    with np.errstate(over="ignore", invalid="ignore"):
        # the time slope is backward, matching the parabolic arrow
        p_t = (state.u.values - prev) / dt
        Fv = background.F_at(t)
        plus, minus = (tuple(np.ascontiguousarray(x) for x in _entries(form))
                       for form in form_block_values(state))
        for sign, cone, report in sides:
            # the one-sided inequality gates the block the cone does not
            # force elliptic: the minus block from above, the plus block
            # from below
            det_p, det_m = ((det_entries, det_plus_entries) if sign > 0
                            else (det_plus_entries, det_entries))
            for dp, dhp, dhm in cone:
                jet_p = _jet_entries(plus, dhp, np.add)
                jet_m = _jet_entries(minus, dhm, np.subtract)
                arg = p_t + dp + Fv
                lhs = det_p(*jet_p) * exp_zm
                rhs = np.exp(arg) * det_m(*jet_m) * exp_zp
                slack = sign * (lhs - rhs)
                below = _below_tol(slack, tol, grid, dt, lhs, rhs)
                bad = ~np.isfinite(slack)
                if bad.any():
                    at = lambda x: np.broadcast_to(x, slack.shape)[bad]
                    lhs_s, rhs_s, slack_s, e = _rescaled(
                        sign, [at(x) for x in jet_p], [at(x) for x in jet_m], at(arg),
                        at(background.zeta_plus.values), at(background.zeta_minus.values))
                    undefined = ~np.isfinite(slack_s)
                    if undefined.any():
                        flat = np.flatnonzero(bad)[np.argmax(undefined)]
                        point = tuple(int(i) for i in np.unravel_index(flat, slack.shape))
                        raise NotAdmissible(f"{report.side}solution check slack is not "
                                            f"finite at point {point}, t={t:.6g}",
                                            point=point)
                    # |e| beyond 2^20 saturates ldexp as it is
                    e = np.clip(e, -2 ** 20, 2 ** 20).astype(np.int64)
                    below[bad] = _below_tol(slack_s, tol, grid, dt, lhs_s, rhs_s, e)
                    slack[bad] = np.ldexp(slack_s, e)
                report.n_points_checked += slack.size
                # only this jet's worst _VIOLATION_CAP can reach the report;
                # the stable sort keeps ties in lattice order
                bad = np.flatnonzero(below)
                worst = bad[np.argsort(slack.flat[bad], kind="stable")[:_VIOLATION_CAP]]
                points = np.transpose(np.unravel_index(worst, slack.shape)).tolist()
                report.violations += [
                    Violation(tuple(point), n, t, value, report.side)
                    for point, value in zip(points, slack.flat[worst].tolist())]


def _sides(grid, sides, samples, seed):
    """(sign, cone, report) per side; side i samples its cone with seed + i."""
    out = []
    for i, side in enumerate(sides):
        sign, cone = _cone(grid, side, samples, seed + i)
        out.append((sign, cone, ViolationReport(side="sub" if sign > 0 else "super")))
    return out


def _exp_z(background):
    with np.errstate(over="ignore"):
        return np.exp(background.zeta_plus.values), np.exp(background.zeta_minus.values)


def _run_check(u_stack, times, background, tol, samples, seed, side):
    u_stack, times = _stack(u_stack, times)
    grid = background.grid
    if u_stack.shape[1:] != grid.shape:
        raise ValueError("stack slices must live on the background grid")
    sides = _sides(grid, (side,), samples, seed)
    exp_z = _exp_z(background)
    for n in range(1, len(times)):
        state = FlowState(float(times[n]), ScalarField(grid, u_stack[n]), background)
        _check_slice(state, u_stack[n - 1], float(times[n] - times[n - 1]), n, exp_z,
                     sides, tol)
    return sides[0][2].finalize()


def subsolution_check(u_stack, times, background, tol=None, samples=4, seed=0):
    """Check the one-sided flow inequality against jets touching from above.

    The determinant is ungated on the plus block and positively gated on
    the minus block; violations are points where some admissible jet makes
    the inequality fail beyond tolerance.
    """
    return _run_check(u_stack, times, background, tol, samples, seed, "above")


def supersolution_check(v_stack, times, background, tol=None, samples=4, seed=0):
    """Dual check: jets touch from below, gating swaps blocks."""
    return _run_check(v_stack, times, background, tol, samples, seed, "below")


def trajectory_checks(traj, tol=None, samples=4, seed=0):
    """(sub report, super report) of a flow trajectory, in one pass per slice.

    Bitwise ``subsolution_check`` (with ``seed``) and ``supersolution_check``
    (with ``seed + 1``) on the stack of its states.  Each slice's forms
    are taken once, for both sides, from ``flow.form_block_values`` on a
    transient state: the final state's blocks, which ``run`` keeps, are
    read as they are, and no other slice's blocks outlive its check.
    """
    states = traj.states
    times = _times([s.t for s in states], len(states))
    background = states[0].background
    sides = _sides(background.grid, ("above", "below"), samples, seed)
    exp_z = _exp_z(background)
    for n in range(1, len(times)):
        s, prev = states[n], states[n - 1]
        state = FlowState(s.t, s.u, s.background, _blocks=s._blocks, _slice=s._slice,
                          _report=s._report)
        _check_slice(state, prev.u.values, float(times[n] - times[n - 1]), n, exp_z,
                     sides, tol)
    return tuple(report.finalize() for _, _, report in sides)


def delta_lift(v_stack, times, delta, T):
    """Pointwise v + delta / (T - t); diverges as t -> T from the left."""
    v_stack, times = _stack(v_stack, times)
    if delta <= 0:
        raise ValueError("delta must be > 0")
    if times[-1] >= T:
        raise ValueError("time range must stay strictly below T")
    lift = delta / (T - times)
    return v_stack + lift.reshape((-1,) + (1,) * (v_stack.ndim - 1))


@dataclass
class ComparisonVerdict:
    holds: bool
    max_excess: float
    first_violation: tuple | None
    delta_trace: list


def comparison_test(sub_stack, super_stack, times, background, T=None,
                    tol=None, samples=4, seed=0):
    """Ordered-at-zero verified sub/supersolutions stay ordered.

    Preconditions (checks pass, initial ordering) raise PreconditionFailed;
    the verdict carries the delta-lift diagnostic trace either way.
    """
    sub_stack, times = _stack(sub_stack, times)
    super_stack, _ = _stack(super_stack, times)
    if T is None:
        T = float(times[-1] + max(times[-1] - times[0], 1.0))
    dt = float(np.diff(times).max())
    tol_order = _default_tol(background.grid, dt) if tol is None else tol

    sub_report = subsolution_check(sub_stack, times, background, tol, samples, seed)
    if not sub_report.ok:
        raise PreconditionFailed(
            f"candidate subsolution fails its check "
            f"(worst slack {sub_report.worst_slack:.3e})")
    super_report = supersolution_check(super_stack, times, background, tol,
                                       samples, seed + 1)
    if not super_report.ok:
        raise PreconditionFailed(
            f"candidate supersolution fails its check "
            f"(worst slack {super_report.worst_slack:.3e})")
    init_gap = float((super_stack[0] - sub_stack[0]).min())
    if init_gap < -tol_order:
        raise PreconditionFailed(f"ordering fails at t=0 (gap {init_gap:.3e})")

    excess = sub_stack - super_stack
    max_excess = float(excess.max())
    delta_trace = []
    for delta in _DELTA_GRID:
        lifted = delta_lift(super_stack, times, delta, T)
        delta_trace.append((delta, float((sub_stack - lifted).max())))
    if max_excess <= tol_order:
        return ComparisonVerdict(True, max_excess, None, delta_trace)
    flat = int(np.argmax(excess))
    idx = np.unravel_index(flat, excess.shape)
    first = (tuple(int(i) for i in idx[1:]), float(times[idx[0]]))
    return ComparisonVerdict(False, max_excess, first, delta_trace)


def sup_patch(u_stack, phi_stack, grid, gamma, r, center, delta=None):
    """Patch a strict local competitor into a candidate solution.

    Inside the periodic ball of radius r around ``center`` take
    max(u, phi + delta - gamma |z - center|^2); outside keep u.  The
    default delta = gamma r^2 / 8 makes the patch drop below u near the
    ball's rim.
    """
    u_stack = np.asarray(u_stack, dtype=np.float64)
    phi_stack = np.asarray(phi_stack, dtype=np.float64)
    if gamma <= 0 or r <= 0:
        raise ValueError("gamma and r must be > 0")
    if delta is None:
        delta = gamma * r * r / 8.0
    dist2 = np.zeros(grid.shape)
    for a in range(grid.real_dim):
        coords = grid.axis_coords(a)
        period = grid.period(a)
        d = np.abs(coords - center[a])
        d = np.minimum(d, period - d)
        shape = [1] * grid.real_dim
        shape[a] = len(coords)
        dist2 = dist2 + (d ** 2).reshape(shape)
    inside = dist2 < r * r
    competitor = phi_stack + delta - gamma * dist2
    return np.where(inside, np.maximum(u_stack, competitor), u_stack)
