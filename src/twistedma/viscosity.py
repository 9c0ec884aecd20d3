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

from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionFailed, WindowTooSmall
from .forms import background_at
from .grid import det_plus, det_values, hessian_block_values

__all__ = [
    "Jet",
    "Violation",
    "ViolationReport",
    "touching_jets",
    "subsolution_check",
    "supersolution_check",
    "delta_lift",
    "comparison_test",
    "ComparisonVerdict",
    "sup_patch",
]

_MAG_LO, _MAG_HI = 1e-4, 1.0
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


def _stack(u_stack, times):
    u_stack = np.asarray(u_stack, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    if u_stack.shape[0] != len(times) or len(times) < 2:
        raise ValueError("need one slice per time and at least two times")
    dts = np.diff(times)
    if np.any(dts <= 0):
        raise ValueError("times must be strictly increasing")
    return u_stack, times


def _cone(grid, side, samples, seed):
    """(sign, increments) of the touching calculus for one side.

    sign is +1 from above and -1 from below.  The increments (dp_t, dH+,
    dH-) are the base jet's (zero) and one per sampled jet: sign * (-c, P+,
    P-) with P blocks PSD and c >= 0, magnitudes log-uniform in [1e-4, 1].
    """
    if side not in ("above", "below"):
        raise ValueError("side must be 'above' or 'below'")
    sign = 1.0 if side == "above" else -1.0
    rng = np.random.default_rng(seed)
    cone = [(0.0, np.zeros((grid.k,) * 2, complex), np.zeros((grid.l,) * 2, complex))]
    for s in range(samples):
        rho = 10.0 ** rng.uniform(np.log10(_MAG_LO), np.log10(_MAG_HI), size=3)
        mats = []
        for m, r in zip((grid.k, grid.l), rho[:2]):
            if s % 2 == 0:
                mats.append(r * np.eye(m, dtype=np.complex128))
            else:
                v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
                v /= np.linalg.norm(v)
                mats.append(r * np.outer(v, v.conj()))
        cone.append((-sign * float(rho[2]), sign * mats[0], sign * mats[1]))
    return sign, cone


def _slice_jet(u_stack, times, grid, n):
    """Base jet of slice n on the lattice: the time slope (backward,
    matching the parabolic arrow) and both block Hessians (central)."""
    p_t = (u_stack[n] - u_stack[n - 1]) / (times[n] - times[n - 1])
    return (p_t, hessian_block_values(u_stack[n], grid, "plus"),
            hessian_block_values(u_stack[n], grid, "minus"))


def touching_jets(u_stack, times, grid, spatial_index, time_index,
                  side="above", samples=4, seed=0):
    """Candidate jets of test functions touching u at one point.

    The base jet is the discrete Taylor data of ``_slice_jet``; additional
    jets perturb it within the admissible cone for the requested side.
    """
    u_stack, times = _stack(u_stack, times)
    _, cone = _cone(grid, side, samples, seed)
    if not (1 <= time_index < len(times)):
        raise WindowTooSmall("need a backward time neighbor for the jet")
    idx = tuple(spatial_index)
    p_t, hp, hm = (a[idx] for a in _slice_jet(u_stack, times, grid, time_index))
    return [Jet(idx, time_index, float(p_t + dp), hp + dhp, hm + dhm)
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


def _default_tol(grid, dt, lhs, rhs):
    h_max = max(grid.spacing)
    scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    return 10.0 * (h_max * h_max + dt) * scale


def _run_check(u_stack, times, background, tol, samples, seed, side):
    u_stack, times = _stack(u_stack, times)
    grid = background.grid
    if u_stack.shape[1:] != grid.shape:
        raise ValueError("stack slices must live on the background grid")
    sign, cone = _cone(grid, side, samples, seed)
    # the one-sided inequality gates the block the cone does not force
    # elliptic: the minus block from above, the plus block from below
    det_p, det_m = (det_values, det_plus) if sign > 0 else (det_plus, det_values)

    report = ViolationReport(side="sub" if sign > 0 else "super")
    exp_zp = np.exp(background.zeta_plus.values)
    exp_zm = np.exp(background.zeta_minus.values)
    for n in range(1, len(times)):
        t = float(times[n])
        dt = float(times[n] - times[n - 1])
        bg = background_at(background, t)
        Fv = background.F_at(t)
        p_t, hp, hm = _slice_jet(u_stack, times, grid, n)
        plus = bg.omega_hat_plus.values + hp
        minus = bg.omega_hat_minus.values - hm
        for dp, dhp, dhm in cone:
            lhs = det_p(plus + dhp) * exp_zm
            rhs = np.exp(p_t + dp + Fv) * det_m(minus - dhm) * exp_zp
            slack = sign * (lhs - rhs)
            tol_arr = _default_tol(grid, dt, lhs, rhs) if tol is None else tol
            report.n_points_checked += slack.size
            # only this jet's worst _VIOLATION_CAP can reach the report;
            # the stable sort keeps ties in lattice order
            bad = np.flatnonzero(slack < -tol_arr)
            worst = bad[np.argsort(slack.flat[bad], kind="stable")[:_VIOLATION_CAP]]
            points = np.transpose(np.unravel_index(worst, slack.shape)).tolist()
            report.violations += [Violation(tuple(point), n, t, value, report.side)
                                  for point, value in zip(points, slack.flat[worst].tolist())]
    return report.finalize()


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
    grid = background.grid
    h_max = max(grid.spacing)
    dt = float(np.diff(times).max())
    tol_order = 10.0 * (h_max * h_max + dt) if tol is None else tol

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
