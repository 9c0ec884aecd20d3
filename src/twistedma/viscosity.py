"""Discrete jet-based sub/supersolution verification and the comparison
harness.

A jet is the second-order space-time Taylor data of a test function at a
touching point: time slope plus the two block Hessians.  The checks test
the flow's own equation, u_t = log det(plus) - log det(minus) + zeta- -
zeta+ - F, one-sided, in its log units: a slack is a residual of u_t.
They decide the inequality for every jet of the admissible cone at once,
in closed form: the infimum of the slack over the cone is the base jet's
slack, or -inf where the ungated test form is not semipositive
(``_check_slice`` states the proof).  A reported violation is real to
stencil accuracy, and a pass holds for every jet of the cone.

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
from .grid import (ScalarField, _eig_bounds_entries, _entries, _gate, _write_lines,
                   hessian_block_values)

__all__ = [
    "Jet",
    "Violation",
    "ViolationReport",
    "touching_jet",
    "subsolution_check",
    "supersolution_check",
    "trajectory_checks",
    "delta_lift",
    "comparison_test",
    "ComparisonVerdict",
    "sup_patch",
]

_VIOLATION_CAP = 1000                 # a report keeps its worst violations
_DELTA_GRID = (1e-3, 1e-2, 1e-1)      # lifts of the comparison trace


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
    if not np.all(np.diff(times) > 0):
        raise ValueError("times must be strictly increasing")
    return times


def _stack(u_stack, times):
    u_stack = np.asarray(u_stack, dtype=np.float64)
    return u_stack, _times(times, u_stack.shape[0])


def touching_jet(u_stack, times, grid, spatial_index, time_index):
    """The base jet of test functions touching u at one point: the discrete
    Taylor data of slice ``time_index``, the time slope (backward, matching
    the parabolic arrow) and both block Hessians (central).  The checks
    decide the cone of jets around it in closed form (``_check_slice``)."""
    u_stack, times = _stack(u_stack, times)
    n = time_index
    if not (1 <= n < len(times)):
        raise WindowTooSmall("need a backward time neighbor for the jet")
    idx = tuple(spatial_index)
    p_t = ((u_stack[n] - u_stack[n - 1]) / (times[n] - times[n - 1]))[idx]
    hp, hm = (hessian_block_values(u_stack[n], grid, block)[idx]
              for block in ("plus", "minus"))
    return Jet(idx, n, float(p_t), hp, hm)


@dataclass
class Violation:
    """A failing point of one slice.  ``slack`` is the cone's infimum in
    the equation's log units (-inf where the ungated form is not
    semipositive), as is the ``slack`` column of the violation CSVs."""

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
        _write_lines(path, ["point,time_index,t,slack,side"] + [
            ";".join(map(str, v.spatial_index)) + f",{v.time_index},{v.t!r},{v.slack!r},{v.side}"
            for v in self.violations], comment)


def _default_tol(grid, dt):
    """The default tolerance factor c = 10 (h_max^2 + dt): the checks read
    it in log units (a point fails below slack -c), ``comparison_test`` in
    units of u (an excess above c)."""
    h_max = max(grid.spacing)
    return 10.0 * (h_max * h_max + dt)


def _log_det(a, d=None, b=None):
    """log det [[a, b], [conj b, d]], or log a for m = 1, as log a + log(d -
    |b| (|b| / a)): finite for every finite positive definite block, since
    no product of two entries is formed, and -inf where rounding takes a
    nearly singular one's d - |b|^2 / a to 0 or below.  Off the positive
    definite blocks it is not read."""
    if d is None:
        return np.log(a)
    nb = np.abs(b)
    return np.log(a) + np.log(np.maximum(d - nb * (nb / a), 0.0))


def _check_slice(state, prev, dt, n, sides, tol):
    """Check slice n, whose time step from the values ``prev`` is dt, for
    each (sign, report) pair of ``sides``: +1 touches from above (the sub
    side), -1 from below (the super side).

    The check decides every jet of the cone at once, in the equation's
    log units.  With the forms plus = omega_hat+ + hess+ u and minus =
    omega_hat- - hess- u, and P+- PSD and c >= 0 unbounded, a jet's slack
    is, from above and from below,

        log det(plus + P+) + zeta- - (p_t - c + F + zeta+ + log det+(minus - P-)),
        p_t + c + F + zeta+ + log det(minus + P-) - (log det+(plus - P+) + zeta-),

    det+ being det gated to 0 off the positive definite blocks, and log 0
    = -inf.  On PSD blocks log det is monotone in the Loewner order (A >= 0
    gives det(A + P) >= det A; A - P > 0 gives det+(A - P) <= det+ A), and
    each slack rises with c.  So the infimum over the cone is the base
    jet's slack (P = 0, c = 0) where the ungated block (plus from above,
    minus from below) is PSD.  Where it has lambda_min < 0, 1x1 or 2x2 on
    either side, the slack is -inf, a violation at every finite tolerance:
    the test form is not semipositive, as the definition asks of it, and
    the inequality fails beyond any bound (a 2x2 block with eigenvalues
    l1 < 0 and l2, eigenvector v, has det(A + s v v*) = l1 (l2 + s)).
    Where both sides are -inf the inequality reads 0 >= 0: slack 0.

    lambda_min is read by ``_eig_bounds_entries``.  The gate
    (``grid._gate``) reads "positive definite" as lambda_min > 1e-12 (1 +
    |A|), |A| the trace norm.  Where A - P passes it and A does not, A is
    positive definite with log det+(A - P) <= log det A <= log(1e-12 (1 +
    |A|) |A|): the base jet's gated term is -inf where the cone's is at
    most that, so the closed form is exact up to the gate's own threshold.

    The forms are the transient ``state``'s blocks, whose entries are read
    as views, with no copy of a whole block, and one eigenvalue pass each
    for the gate and the -inf mask.  Where the time slope and both forms
    are finite, so is every log det of a positive definite block, and the
    slack is never NaN.  A point where one of them is not finite has no decision: it is
    NotAdmissible, since a check cannot certify it.
    """
    background, t = state.background, state.t
    zeta_p, zeta_m = background.zeta_plus.values, background.zeta_minus.values
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # the time slope is backward, matching the parabolic arrow
        arg = (state.u.values - prev) / dt + background.F_at(t)
        blocks = []
        for form in form_block_values(state):
            entries = _entries(form)
            lo, hi = _eig_bounds_entries(*entries)
            log_det = _log_det(*entries)
            blocks.append((lo, np.where(lo > 0.0, log_det, -np.inf),
                           np.where(_gate(lo, hi, len(entries) == 1), log_det, -np.inf)))
        (lo_p, log_p, gated_p), (lo_m, log_m, gated_m) = blocks
        undefined = ~(np.isfinite(arg) & np.isfinite(lo_p) & np.isfinite(lo_m))
        if undefined.any():
            point = tuple(int(i) for i in np.unravel_index(int(np.argmax(undefined)),
                                                           undefined.shape))
            raise NotAdmissible(f"{sides[0][1].side}solution check slack is not "
                                f"finite at point {point}, t={t:.6g}", point=point)
        for sign, report in sides:
            # the one-sided inequality gates the block the cone does not
            # force elliptic: the minus block from above, the plus block
            # from below; the cone is unbounded below where the ungated
            # block has lambda_min < 0
            if sign > 0:
                lhs, rhs, unbounded = log_p + zeta_m, arg + zeta_p + gated_m, lo_p < 0.0
            else:
                lhs, rhs, unbounded = gated_p + zeta_m, arg + zeta_p + log_m, lo_m < 0.0
            slack = sign * (lhs - rhs)
            slack[(lhs == -np.inf) & (rhs == -np.inf)] = 0.0
            slack[unbounded] = -np.inf
            report.n_points_checked += slack.size
            # only this slice's worst _VIOLATION_CAP can reach the report;
            # the stable sort keeps ties in lattice order
            bad = np.flatnonzero(slack < -(_default_tol(background.grid, dt)
                                           if tol is None else tol))
            worst = bad[np.argsort(slack.flat[bad], kind="stable")[:_VIOLATION_CAP]]
            points = np.transpose(np.unravel_index(worst, slack.shape)).tolist()
            report.violations += [
                Violation(tuple(point), n, t, value, report.side)
                for point, value in zip(points, slack.flat[worst].tolist())]


def _check(states, signs, tol):
    """The finalized report of each side of ``signs`` (+1 the sub side, -1
    the super side) over the slices n >= 1 of ``states``.  A slice is
    checked on a transient state: blocks built for it do not outlive it."""
    if tol is not None and math.isnan(tol):
        raise ValueError("tol must not be NaN")
    times = _times([s.t for s in states], len(states))
    sides = [(sign, ViolationReport(side="sub" if sign > 0 else "super")) for sign in signs]
    for n, (prev, s) in enumerate(zip(states, states[1:]), 1):
        _check_slice(FlowState(s.t, s.u, s.background, _blocks=s._blocks), prev.u.values,
                     float(times[n] - times[n - 1]), n, sides, tol)
    return tuple(report.finalize() for _, report in sides)


def _stack_check(u_stack, times, background, tol, sign):
    u_stack, times = _stack(u_stack, times)
    grid = background.grid
    if u_stack.shape[1:] != grid.shape:
        raise ValueError("stack slices must live on the background grid")
    states = [FlowState(float(t), ScalarField(grid, u), background)
              for t, u in zip(times, u_stack)]
    return _check(states, (sign,), tol)[0]


def subsolution_check(u_stack, times, background, tol=None):
    """Check the one-sided flow inequality against every jet touching from
    above.

    The determinant is ungated on the plus block and positively gated on
    the minus block; violations are points where some admissible jet makes
    the inequality fail by more than ``tol`` in the equation's log units
    (default 10 (h_max^2 + dt)), each with the infimum of the slack over
    the jets.
    """
    return _stack_check(u_stack, times, background, tol, 1.0)


def supersolution_check(v_stack, times, background, tol=None):
    """Dual check: jets touch from below, gating swaps blocks."""
    return _stack_check(v_stack, times, background, tol, -1.0)


def trajectory_checks(traj, tol=None):
    """(sub report, super report) of a flow trajectory, in one pass per slice.

    Bitwise ``subsolution_check`` and ``supersolution_check`` on the stack
    of its states, through the same loop: each slice's forms are built
    once for both sides, and the final state's blocks, which ``run``
    keeps, are read as they are.
    """
    return _check(traj.states, (1.0, -1.0), tol)


def delta_lift(v_stack, times, delta, T):
    """Pointwise v + delta / (T - t); diverges as t -> T from the left."""
    v_stack, times = _stack(v_stack, times)
    if not 0 < delta < math.inf:
        raise ValueError("delta must be finite and > 0")
    if not times[-1] < T:
        raise ValueError("time range must stay strictly below T")
    lift = delta / (T - times)
    return v_stack + lift.reshape((-1,) + (1,) * (v_stack.ndim - 1))


@dataclass
class ComparisonVerdict:
    holds: bool
    max_excess: float
    first_violation: tuple | None
    delta_trace: list


def comparison_test(sub_stack, super_stack, times, background, T=None, tol=None):
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

    sub_report = subsolution_check(sub_stack, times, background, tol)
    if not sub_report.ok:
        raise PreconditionFailed(
            f"candidate subsolution fails its check "
            f"(worst slack {sub_report.worst_slack:.3e})")
    super_report = supersolution_check(super_stack, times, background, tol)
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
    ball's rim.  ``center`` has one coordinate per grid axis (ValueError).
    """
    u_stack = np.asarray(u_stack, dtype=np.float64)
    phi_stack = np.asarray(phi_stack, dtype=np.float64)
    if delta is None:
        delta = gamma * r * r / 8.0
    if not (0 < gamma < math.inf and r > 0 and math.isfinite(delta)
            and np.all(np.isfinite(center))):
        raise ValueError("gamma and r must be > 0, gamma, delta and center finite")
    if len(center) != grid.real_dim:
        raise ValueError(f"center needs {grid.real_dim} coordinates, one per grid "
                         f"axis, got {len(center)}")
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
