"""Explicit monotone time stepping of the twisted Monge-Ampere flow.

The evolved quantities are the two ellipticity blocks

    plus form  = omega_hat_plus(t)  + hess_plus(u)
    minus form = omega_hat_minus(t) - hess_minus(u)

and the right-hand side is

    u_t = log det(plus form) - log det(minus form)
          + zeta_minus - zeta_plus - F(x, t).

Positivity of *both* blocks is the admissibility condition; breakdown is
recorded and stopped on, never projected away, since the degenerations
are exactly what the surrounding theory is about.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BarrierViolation, NotAdmissible
from .forms import background_at
from .grid import ScalarField, det_values, hessian_block_values, min_eig_values

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
_MAX_STEPS = 10_000_000         # run stops here short of t_end


@dataclass
class FlowState:
    t: float
    u: ScalarField
    background: object
    monitors: dict = field(default_factory=dict)
    _blocks: tuple = field(default=None, repr=False, compare=False)
    _report: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.t < 0:
            raise ValueError("flow time must be >= 0")

    def copy(self):
        # the record is a few scalars; the blocks are not kept, so that a
        # trajectory does not hold every emitted state's blocks alive
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
        bg = background_at(state.background, state.t)
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


def twisted_rhs(state, freeze_F_at=None):
    """Pointwise u_t of the flow; raises NotAdmissible on block breakdown.

    ``freeze_F_at`` evaluates F at a fixed time instead of state.t (used
    by the barrier construction).
    """
    plus, minus = form_block_values(state)
    _require_admissible(state)
    bg = state.background
    t_F = state.t if freeze_F_at is None else freeze_F_at
    vals = (np.log(det_values(plus)) - np.log(det_values(minus))
            + bg.zeta_minus.values - bg.zeta_plus.values - bg.F_at(t_F))
    return ScalarField(state.u.grid, vals)


def stable_dt(state, safety=0.5):
    """Parabolic step bound for the frozen-coefficient linearization.

    The linearized operator is trace((form)^-1 hess(du)) per block, so the
    bound is safety / sum_blocks [2 * (real block dim) / h_min^2
    * lambda_max(form^-1)].
    """
    report = _require_admissible(state)
    grid = state.u.grid
    total = 0.0
    for block, margin in (("plus", report.plus_margin), ("minus", report.minus_margin)):
        axes = [a for pair in grid.block_axes(block) for a in pair]
        h_min = min(grid.spacing[a] for a in axes)
        total += 2.0 * len(axes) / (h_min * h_min) * (1.0 / margin)
    return safety / total


def step(state, dt):
    """One forward Euler step; monitors updated, breakdown recorded."""
    rhs = twisted_rhs(state, None)
    new_u = ScalarField(state.u.grid, state.u.values + dt * rhs.values)
    new = FlowState(state.t + dt, new_u, state.background)
    report = admissibility(new)
    new.monitors = {
        "plus_margin": report.plus_margin,
        "minus_margin": report.minus_margin,
        "sup_u": float(new_u.values.max()),
        "inf_u": float(new_u.values.min()),
        "rhs_sup": float(np.abs(rhs.values).max()),
        "admissible": report.admissible,
    }
    return new


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
    """Barrier slope A = sup |rhs| at t = 0 with F frozen there."""
    state = FlowState(0.0, u0, background)
    rhs = twisted_rhs(state, freeze_F_at=0.0)
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

    A sandwich failure beyond tol = _BARRIER_TOL_FACTOR * dt * A indicates a
    scheme bug and is fatal.  The affine sandwich is a theorem only for
    time-independent backgrounds (chi = 0 and a single F knot); on drifting
    backgrounds the gaps are still recorded but not enforced.
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
    dt = 0.0

    def emit():
        rep = state.monitors or {}
        gap_lo = float((state.u.values - barrier.lower(state.t)).min())
        gap_hi = float((barrier.upper(state.t) - state.u.values).min())
        tol = _BARRIER_TOL_FACTOR * max(dt, 1e-300) * barrier.A
        if enforce_barrier and (gap_lo < -tol or gap_hi < -tol):
            raise BarrierViolation(
                f"barrier sandwich failed at t={state.t:.6g} "
                f"(gap_lo={gap_lo:.3e}, gap_hi={gap_hi:.3e}, tol={tol:.3e})")
        rows.append((state.t,
                     rep.get("sup_u", float(state.u.values.max())),
                     rep.get("inf_u", float(state.u.values.min())),
                     rep.get("rhs_sup", math.nan),
                     rep.get("plus_margin", math.nan),
                     rep.get("minus_margin", math.nan),
                     gap_lo, gap_hi))
        if keep_states == "emitted":
            states.append(state.copy())

    report0 = admissibility(state)
    state.monitors = {"plus_margin": report0.plus_margin,
                      "minus_margin": report0.minus_margin,
                      "sup_u": float(state.u.values.max()),
                      "inf_u": float(state.u.values.min()),
                      "rhs_sup": math.nan,
                      "admissible": report0.admissible}
    emit()
    while state.t < t_end - 1e-14 and n_step < _MAX_STEPS:
        dt = min(stable_dt(state, safety), t_end - state.t)
        if dt < 1e-12 * max(t_end, 1.0):
            # the parabolic step bound collapsed: an ellipticity block is
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
        if n_step % emit_every == 0 or state.t >= t_end - 1e-14:
            emit()
    if keep_states == "none" or not states or states[-1].t != state.t:
        states.append(state.copy())
    return Trajectory(rows=rows, states=states, barrier=barrier)
