"""Exponential Euler time stepping of the twisted Monge-Ampere flow.

The evolved quantities are the two ellipticity blocks

    plus form  = omega_hat_plus(t)  + hess_plus(u)
    minus form = omega_hat_minus(t) - hess_minus(u)

and the right-hand side is

    u_t = log det(plus form) - log det(minus form)
          + zeta_minus - zeta_plus - F(x, t).

Positivity of *both* blocks is the admissibility condition; breakdown is
recorded and stopped on, never projected away, since the degenerations
are exactly what the surrounding theory is about.

A step is exponential Euler (ETD1) on the constant-coefficient
linearization L du = tr(A+ hess+ du) + tr(A- hess- du), with
A = (spatial mean of omega_hat(t))^-1 per block:

    u+ = u + dt phi_1(dt L) rhs(u),    phi_1(z) = (e^z - 1) / z,

applied with the exact stencil symbol of L on the rfftn half spectrum.
L is integrated exactly and the remainder rhs - L u explicitly, so the
step is bounded by the stiffness of form^-1 - A rather than of form^-1
(and by an accuracy cap of ``_ETD_STEP_FACTOR`` explicit steps).
Forward Euler is the case L = 0, and ``stable_dt`` stays its bound: the
unit in which ``run``'s ``emit_every`` counts.  For k = l = 1 the kernel
of phi_1(dt L) is non-negative; for k, l >= 2 the centred mixed
differences break that, as they do for forward Euler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.fft

from .errors import BarrierViolation, NotAdmissible
from .forms import background_at
from .grid import (ScalarField, det_values, hessian_block_values,
                   hessian_symbols, min_eig_values)

__all__ = [
    "FlowState",
    "BarrierPair",
    "Trajectory",
    "twisted_rhs",
    "admissibility",
    "stable_dt",
    "step",
    "barriers",
    "run",
    "MONITOR_HEADER",
]

MONITOR_HEADER = ("t", "sup_u", "inf_u", "rhs_sup", "plus_margin",
                  "minus_margin", "barrier_gap_lo", "barrier_gap_hi")
_BARRIER_TOL_FACTOR = 10.0     # fatal sandwich gap, in units of dt * A
_ETD_STEP_FACTOR = 16.0         # run's accuracy cap, in explicit steps
_MAX_STEPS = 10_000_000         # run stops here short of t_end


@dataclass
class FlowState:
    t: float
    u: ScalarField
    background: object
    monitors: dict = field(default_factory=dict)
    _blocks: tuple = field(default=None, repr=False, compare=False)
    _slice: object = field(default=None, repr=False, compare=False)
    _report: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.t < 0:
            raise ValueError("flow time must be >= 0")

    def copy(self):
        # the record is a few scalars; the blocks and the background slice
        # are not kept, so that a trajectory does not hold every emitted
        # state's blocks alive
        return FlowState(self.t, self.u.copy(), self.background, dict(self.monitors),
                         _report=self._report)


@dataclass(frozen=True)
class AdmissibilityReport:
    plus_margin: float
    minus_margin: float
    plus_worst_point: tuple
    minus_worst_point: tuple

    @property
    def admissible(self):
        return self.plus_margin > 0.0 and self.minus_margin > 0.0


def _worst(values):
    """(lambda_min, worst point) of a stacked block: one eigenvalue pass."""
    ev = min_eig_values(values)
    point = np.unravel_index(int(np.argmin(ev)), ev.shape)
    return float(ev[point]), point


def form_block_values(state):
    """(plus form, minus form) raw matrix arrays at the state's time.

    Cached on the state, and built together with the state's record (its
    AdmissibilityReport: each block's lambda_min and worst point): u and
    background are treated as immutable once the state exists, so both
    are computed at most once per state.
    """
    if state._blocks is None:
        bg = state._slice = background_at(state.background, state.t)
        grid = state.u.grid
        plus = bg.omega_hat_plus.values + hessian_block_values(state.u.values, grid, "plus")
        minus = bg.omega_hat_minus.values - hessian_block_values(state.u.values, grid, "minus")
        state._blocks = (plus, minus)
        if state._report is None:
            (p_margin, p_point), (m_margin, m_point) = _worst(plus), _worst(minus)
            state._report = AdmissibilityReport(p_margin, m_margin, p_point, m_point)
    return state._blocks


def admissibility(state):
    """Worst-point eigenvalue margins of the two ellipticity blocks."""
    if state._report is None:
        form_block_values(state)
    return state._report


def _require_admissible(state):
    """The state's record; NotAdmissible at the worst point of a lost block."""
    report = admissibility(state)
    for block, margin, point in (
            ("plus", report.plus_margin, report.plus_worst_point),
            ("minus", report.minus_margin, report.minus_worst_point)):
        if margin <= 0.0:
            raise NotAdmissible(f"{block} block lost positivity",
                                point=point, eigenvalue=margin, block=block)
    return report


def _finite(grid, values, what, t):
    """ScalarField of ``values``; NotAdmissible at the first non-finite point."""
    finite = np.isfinite(values)
    if not finite.all():
        point = tuple(int(i) for i in np.unravel_index(int(np.argmin(finite)), finite.shape))
        raise NotAdmissible(f"{what} is not finite at point {point}, t={t:.6g}", point=point)
    return ScalarField(grid, values)


def twisted_rhs(state):
    """Pointwise u_t of the flow; raises NotAdmissible on block breakdown
    or a non-finite value."""
    plus, minus = form_block_values(state)
    _require_admissible(state)
    vals = (np.log(det_values(plus)) - np.log(det_values(minus))
            + state.background.source_at(state.t))
    return _finite(state.u.grid, vals, "rhs", state.t)


def _parabolic_bound(grid, safety, stiffness):
    """safety / sum_blocks [2 * (real block dim) / h_min^2 * stiffness],
    stiffness being (plus, minus) bounds on the coefficient norms."""
    total = 0.0
    for block, weight in zip(("plus", "minus"), stiffness):
        axes = [a for pair in grid.block_axes(block) for a in pair]
        h_min = min(grid.spacing[a] for a in axes)
        total += 2.0 * len(axes) / (h_min * h_min) * weight
    return safety / total if total > 0.0 else math.inf


def stable_dt(state, safety=0.5):
    """Parabolic step bound for the frozen-coefficient linearization.

    The linearized operator is trace((form)^-1 hess(du)) per block, so the
    bound is safety / sum_blocks [2 * (real block dim) / h_min^2
    * lambda_max(form^-1)]: the explicit (forward Euler) bound.
    """
    report = _require_admissible(state)
    return _parabolic_bound(state.u.grid, safety,
                            (1.0 / report.plus_margin, 1.0 / report.minus_margin))


@dataclass(frozen=True)
class _Linearization:
    """L du = tr(A+ hess+ du) + tr(A- hess- du) at one background slice."""

    mean_forms: tuple    # (mean omega_hat+, mean omega_hat-) = (A+^-1, A-^-1)
    norms: tuple         # (||A+||_F, ||A-||_F)
    symbol: np.ndarray   # real symbol of L on the rfftn half spectrum (<= 0)


def _linearization(state):
    """The state's slice's L, built on first use and cached on the slice."""
    form_block_values(state)
    bg = state._slice
    if bg._linear is None:
        grid = state.u.grid
        ax = tuple(range(grid.real_dim))
        means, norms, symbol = [], [], 0.0
        for omega, sym in zip((bg.omega_hat_plus, bg.omega_hat_minus),
                              hessian_symbols(grid)):
            mean = omega.values.mean(axis=ax)
            # adj / det (m <= 2) keeps LAPACK, and the memory its first
            # call maps, off the flow's path
            adj = (np.eye(1) if len(mean) == 1 else
                   np.array([[mean[1, 1], -mean[0, 1]], [-mean[1, 0], mean[0, 0]]]))
            A = adj / det_values(mean)
            means.append(mean)
            norms.append(float(np.linalg.norm(A)))
            # tr(A H) = sum_ij A_ji H_ij; the pair (i, j), (j, i) with
            # H_ij = re + i im contributes 2 Re(A_ji (re + i im))
            for (i, j), (re, im) in sym.items():
                if i == j:
                    symbol = symbol + A[i, i].real * re
                else:
                    symbol = symbol + 2.0 * (A[j, i].real * re - A[j, i].imag * im)
        bg._linear = _Linearization(tuple(means), tuple(norms), symbol)
    return bg._linear


def _remainder_dt(state, safety):
    """Step bound for the explicit remainder rhs - L u.

    Its linearization is tr((form^-1 - A) hess du) per block, so this is
    ``stable_dt``'s formula with ||form^-1 - A||_2 in place of 1 / margin,
    bounded above by ||A||_F max ||form - A^-1||_F / lambda_min(form) and,
    both matrices being positive definite, by max(1 / margin, ||A||_F):
    the step is never much shorter than ``stable_dt``.
    """
    report = _require_admissible(state)
    lin = _linearization(state)
    stiffness = []
    for values, mean, norm, margin in zip(form_block_values(state), lin.mean_forms,
                                          lin.norms, (report.plus_margin,
                                                      report.minus_margin)):
        dev = np.square(np.abs(values - mean)).sum(axis=(-2, -1)).max()
        stiffness.append(min(norm * math.sqrt(float(dev)), max(1.0, norm * margin))
                         / margin)
    return _parabolic_bound(state.u.grid, safety, stiffness)


def _drift_dt(state, safety):
    """Step bound for the background drift d omega_hat / dt = -chi.

    A step moves each block's lambda_min by at most dt max ||chi||_F, so
    this keeps that within safety * margin: approaching tau* the step
    collapses instead of stepping past the degeneration.
    """
    report = admissibility(state)
    return min((safety * margin / norm if norm > 0.0 else math.inf)
               for margin, norm in zip((report.plus_margin, report.minus_margin),
                                       state.background.chi_norms))


def _set_monitors(state, rhs_sup):
    """The state's monitor record: its margins, sup/inf u and rhs_sup."""
    report = admissibility(state)
    state.monitors = {"plus_margin": report.plus_margin,
                      "minus_margin": report.minus_margin,
                      "sup_u": float(state.u.values.max()),
                      "inf_u": float(state.u.values.min()),
                      "rhs_sup": rhs_sup,
                      "admissible": report.admissible}
    return state


def step(state, dt):
    """One exponential Euler step; monitors updated, breakdown recorded."""
    rhs = twisted_rhs(state)
    grid = state.u.grid
    symbol = _linearization(state).symbol
    # dt phi_1(dt L) = expm1(dt L) / L, which is dt on the zero mode
    gain = np.divide(np.expm1(dt * symbol), symbol,
                     out=np.full(symbol.shape, float(dt)), where=symbol != 0.0)
    # an rhs near the float range overflows inside the transforms; the
    # new u is checked for it instead
    with np.errstate(over="ignore", invalid="ignore"):
        spectrum = scipy.fft.rfftn(rhs.values)
        spectrum *= gain
        values = state.u.values + scipy.fft.irfftn(spectrum, s=grid.shape)
    new_u = _finite(grid, values, "u", state.t + dt)
    return _set_monitors(FlowState(state.t + dt, new_u, state.background),
                         float(np.abs(rhs.values).max()))


@dataclass
class BarrierPair:
    """Affine-in-time sandwich u0 -+ t*A around the flow."""

    A: float
    u0: ScalarField

    def __post_init__(self):
        if self.A < 0:
            raise ValueError("barrier slope must be >= 0")

    def lower(self, t):
        return self.u0.values - t * self.A

    def upper(self, t):
        return self.u0.values + t * self.A


def barriers(u0, background):
    """Barrier slope A = sup |rhs| at t = 0."""
    rhs = twisted_rhs(FlowState(0.0, u0, background))
    return BarrierPair(float(np.abs(rhs.values).max()), u0.copy())


@dataclass
class Trajectory:
    rows: list
    states: list
    barrier: BarrierPair

    def write_monitor_csv(self, path, comment=None):
        with open(path, "w") as fh:
            if comment:
                fh.write(f"# {comment}\n")
            fh.write(",".join(MONITOR_HEADER) + "\n")
            for row in self.rows:
                fh.write(",".join(repr(v) for v in row) + "\n")


def run(state0, t_end, safety=0.5, emit_every=10, keep_states="emitted"):
    """Step to t_end, emitting monitor rows and enforcing the barrier sandwich.

    Each step takes dt = min(_ETD_STEP_FACTOR * stable_dt, the remainder
    bound, the background drift bound, t_end - t).  ``emit_every`` counts
    explicit steps: elapsed time is accumulated in units of the state's
    ``stable_dt``, and a row is emitted when that count crosses a multiple
    of ``emit_every`` and at t_end.  A sandwich failure beyond
    tol = _BARRIER_TOL_FACTOR * min(dt, stable_dt) * A indicates a scheme
    bug and is fatal.  The affine sandwich is a theorem only for
    time-independent backgrounds (chi = 0 and a single F knot); on
    drifting backgrounds the gaps are still recorded but not enforced.
    ``keep_states``: "emitted" | "none" (the final state is always kept).
    """
    if keep_states not in ("emitted", "none"):
        raise ValueError(f"keep_states must be 'emitted' or 'none', got {keep_states!r}")
    background = state0.background
    barrier = barriers(state0.u, background)
    enforce_barrier = background.chi_is_zero and len(background.f_times) == 1
    state = state0.copy()
    rows = []
    states = []
    n_step = 0
    explicit_steps = 0.0
    tol_dt = 0.0

    def emit():
        gap_lo = float((state.u.values - barrier.lower(state.t)).min())
        gap_hi = float((barrier.upper(state.t) - state.u.values).min())
        tol = _BARRIER_TOL_FACTOR * max(tol_dt, 1e-300) * barrier.A
        if enforce_barrier and (gap_lo < -tol or gap_hi < -tol):
            raise BarrierViolation(
                f"barrier sandwich failed at t={state.t:.6g} "
                f"(gap_lo={gap_lo:.3e}, gap_hi={gap_hi:.3e}, tol={tol:.3e})")
        rows.append((state.t, *(state.monitors[key] for key in MONITOR_HEADER[1:6]),
                     gap_lo, gap_hi))
        if keep_states == "emitted":
            states.append(state.copy())

    _set_monitors(state, math.nan)
    emit()
    while state.t < t_end - 1e-14 and n_step < _MAX_STEPS:
        explicit_dt = stable_dt(state, safety)
        dt = min(_ETD_STEP_FACTOR * explicit_dt, _remainder_dt(state, safety),
                 _drift_dt(state, safety), t_end - state.t)
        if dt < 1e-12 * max(t_end, 1.0):
            # the step bounds collapsed: an ellipticity block is
            # degenerating and the flow cannot advance past this time
            rep = admissibility(state)
            block = "plus" if rep.plus_margin <= rep.minus_margin else "minus"
            raise NotAdmissible(
                f"step size collapsed at t={state.t:.6g}: "
                f"{block} block is degenerating",
                point=(rep.plus_worst_point if block == "plus"
                       else rep.minus_worst_point),
                eigenvalue=min(rep.plus_margin, rep.minus_margin),
                block=block)
        state = step(state, dt)
        n_step += 1
        tol_dt = min(dt, explicit_dt)
        before, explicit_steps = explicit_steps, explicit_steps + dt / explicit_dt
        if (explicit_steps // emit_every > before // emit_every
                or state.t >= t_end - 1e-14):
            emit()
    if keep_states == "none" or not states or states[-1].t != state.t:
        states.append(state.copy())
    return Trajectory(rows=rows, states=states, barrier=barrier)
