"""Exponential time stepping of the twisted Monge-Ampere flow.

The evolved quantities are the two ellipticity blocks

    plus form  = omega_hat_plus(t)  + hess_plus(u)
    minus form = omega_hat_minus(t) - hess_minus(u)

and the right-hand side is

    u_t = log det(plus form) - log det(minus form)
          + zeta_minus - zeta_plus - F(x, t).

Positivity of *both* blocks is the admissibility condition; breakdown is
recorded and stopped on, never projected away, since the degenerations
are exactly what the surrounding theory is about.

Steps are exponential on the constant-coefficient linearization
L du = tr(A+ hess+ du) + tr(A- hess- du), with A = (spatial mean of
omega_hat(t))^-1 per block, applied with the exact stencil symbol of L on
the rfftn half spectrum.  L is integrated exactly and the remainder
N = rhs - L u explicitly, so the step is bounded by the stiffness of
form^-1 - A rather than of form^-1.  A first step is exponential Euler
(ETD1):

    u+ = u + dt phi_1(dt L) rhs(u),    phi_1(z) = (e^z - 1) / z.

A later step adds the multistep ETD2 correction (Cox & Matthews, J.
Comput. Phys. 176, 2002) from the previous step's rhs and update spectra,

    dt^2 / dt_prev phi_2(dt L) (N - N_prev),    phi_2(z) = (e^z - 1 - z) / z^2,

whose spectral l1 bound is the embedded estimate of ETD1's local error
(Whalen, Brio & Moloney, J. Comput. Phys. 280, 2015): the correction is
kept only when that bound is within _ETD2_TOL, and ``run`` grows dt from
it.  The ETD1 step of at most ``_ETD_STEP_FACTOR`` explicit steps stays
the floor of every step and its fallback.  Forward Euler is the case
L = 0, and ``stable_dt`` stays its bound: the unit in which ``run``'s
``emit_every`` counts.  For k = l = 1 the kernel of phi_1(dt L) is
non-negative; for k, l >= 2 the centred mixed differences break that, as
they do for forward Euler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BarrierViolation, NotAdmissible
from .forms import background_at
from .grid import (ScalarField, _block_mean, _finite, _l1_bound, _worst, _write_lines,
                   det_values, hessian_block_values)
from .potential import _grid_symbols, _irfftn, _rfftn

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
_ETD_STEP_FACTOR = 16.0         # run's ETD1 cap, every step's floor; explicit steps
_ETD2_TOL = 1.5e-9              # run's ETD2 correction, relative to 1 + max|u|
_MAX_STEPS = 10_000_000         # run stops here short of t_end


@dataclass
class FlowState:
    t: float
    u: ScalarField
    background: object
    _blocks: tuple = field(default=None, repr=False, compare=False)
    _slice: object = field(default=None, repr=False, compare=False)
    _report: object = field(default=None, repr=False, compare=False)
    _rhs: object = field(default=None, repr=False, compare=False)
    _last_step: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not self.t >= 0:
            raise ValueError("flow time must be >= 0")

    def copy(self):
        # the report is a few scalars and is kept; the blocks, the background
        # slice, the rhs and the last step's spectra are not, so that a
        # trajectory does not hold every emitted state's lattice arrays alive
        return FlowState(self.t, self.u.copy(), self.background, _report=self._report)


@dataclass(frozen=True)
class AdmissibilityReport:
    plus_margin: float
    minus_margin: float
    plus_worst_point: tuple
    minus_worst_point: tuple

    @property
    def admissible(self):
        return self.plus_margin > 0.0 and self.minus_margin > 0.0


def form_block_values(state):
    """(plus form, minus form) raw matrix arrays at the state's time.

    Each form is built in its Hessian's buffer: omega_hat+ + hess+ u and
    omega_hat- - hess- u, bitwise the out-of-place sum and difference (a
    complex 1x1 background over a real Hessian, which the buffer cannot
    hold, keeps them out of place).  Cached on the state with its
    background slice: u and background are treated as immutable once the
    state exists, so the blocks are built at most once per state.
    """
    if state._blocks is None:
        bg = state._slice = background_at(state.background, state.t)
        forms = []
        # a Hessian beyond the float range is left to the record and to the
        # rhs's typed non-finite error
        with np.errstate(over="ignore", invalid="ignore"):
            for omega, block, op in ((bg.omega_hat_plus.values, "plus", np.add),
                                     (bg.omega_hat_minus.values, "minus", np.subtract)):
                hess = hessian_block_values(state.u.values, state.u.grid, block)
                forms.append(op(omega, hess, out=hess if np.result_type(omega, hess)
                                == hess.dtype else None))
        state._blocks = tuple(forms)
    return state._blocks


def admissibility(state):
    """The state's record: each block's lambda_min and worst point, built
    from its blocks on first use and cached on the state."""
    if state._report is None:
        (p_margin, p_point), (m_margin, m_point) = map(_worst, form_block_values(state))
        state._report = AdmissibilityReport(p_margin, m_margin, p_point, m_point)
    return state._report


def _require_admissible(state):
    """The state's record; NotAdmissible at the worst point of a lost block,
    whose lambda_min is not positive (NaN included)."""
    report = admissibility(state)
    for block, margin, point in (
            ("plus", report.plus_margin, report.plus_worst_point),
            ("minus", report.minus_margin, report.minus_worst_point)):
        if not margin > 0.0:
            raise NotAdmissible(
                f"{block} block lost positivity at point "
                f"{tuple(int(i) for i in point)} (eigenvalue {margin:.3e})",
                point=point, eigenvalue=margin, block=block)
    return report


def twisted_rhs(state):
    """Pointwise u_t of the flow; raises NotAdmissible on block breakdown
    or a non-finite value.  Cached on the state, like its blocks."""
    if state._rhs is None:
        plus, minus = form_block_values(state)
        _require_admissible(state)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            vals = (np.log(det_values(plus)) - np.log(det_values(minus))
                    + state.background.source_at(state.t))
        state._rhs = _finite(state.u.grid, vals, "rhs", state.t)
    return state._rhs


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
    """The state's slice's L, built on first use and cached on the slice;
    the slice is the one its forms were built on."""
    if state._slice is None:
        form_block_values(state)
    bg = state._slice
    if bg._linear is None:
        grid = state.u.grid
        means, norms, symbol = [], [], 0.0
        # an A beyond the float range is inf or nan, and the step collapses
        # on stable_dt before the symbol is used
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for omega, sym in zip((bg.omega_hat_plus, bg.omega_hat_minus),
                                  _grid_symbols(grid)):
                mean = _block_mean(omega.values)
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
        # ||form - mean||_F^2 entry by entry, in the order of a sum over the
        # matrix axes; beyond the float range: inf, and the min keeps the
        # other bound
        m = len(mean)
        with np.errstate(over="ignore"):
            dev = sum(np.square(np.abs(values[..., i, j] - mean[i, j]))
                      for i in range(m) for j in range(m)).max()
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


@dataclass(frozen=True)
class _StepRecord:
    """What a step leaves for the next one and for ``run``'s rows and statistics."""

    dt: float                # the step taken
    rhs_sup: float           # max |rhs| of the state it stepped from
    rhs_hat: np.ndarray      # half spectrum of the rhs it read
    update_hat: np.ndarray   # half spectrum of u+ - u
    err: float               # l1 bound on the kept ETD2 correction; inf if none
    tol: float               # the bound err was held to
    rejected: bool           # an ETD2 correction was tried and failed it


def _phi1_gain(dt, symbol):
    """dt phi_1(dt L) = expm1(dt L) / L, which is dt on the zero mode."""
    return np.divide(np.expm1(dt * symbol), symbol,
                     out=np.full(symbol.shape, float(dt)), where=symbol != 0.0)


def _phi2_gain(dt, symbol, gain):
    """dt^2 phi_2(dt L) = (dt phi_1(dt L) - dt) / L, phi_2(z) = (e^z - 1 - z) / z^2,
    from ``gain`` = dt phi_1(dt L); its Taylor series 1/2 + z/6 + z^2/24
    where |z| < 1e-3, the quotient cancelling there."""
    z = dt * symbol
    series = dt * dt * (0.5 + z * (1.0 / 6.0 + z / 24.0))
    return np.divide(gain - dt, symbol, out=series, where=np.abs(z) >= 1e-3)


def _scaled(dt, err, tol):
    """dt times 2^(k/4), k the largest integer in [-4, 4] with
    err 2^(k/2) <= 0.8 tol, ETD1's local error growing as dt^2.  The factor
    is one of nine constants, so a last-bit change in err moves dt only
    where it crosses a threshold."""
    k = 4
    while k > -4 and not err * 2.0 ** (k / 2) <= 0.8 * tol:
        k -= 1
    return dt * 2.0 ** (k / 4)


def step(state, dt, prev=None, fallback_dt=None):
    """One exponential step; the new state's record built, breakdown recorded.

    Without ``prev`` the step is ETD1.  ``prev`` is the ``_last_step`` of
    the step that made ``state``; with it the multistep ETD2 correction
    dt^2 / dt_prev phi_2(dt L) (N - N_prev), N = rhs - L u, is added when
    its spectral l1 bound (a bound on its max norm, and the estimate of
    ETD1's local error) is at most _ETD2_TOL (1 + max|u|).  Otherwise the
    step is ETD1 over ``fallback_dt`` (default dt).  The new state's
    ``_last_step`` (a ``_StepRecord``) is the next step's ``prev``.
    """
    rhs = twisted_rhs(state)
    grid = state.u.grid
    symbol = _linearization(state).symbol
    err, tol, rejected = math.inf, math.nan, False
    # an rhs near the float range overflows inside the transforms; the
    # new u is checked for it instead
    with np.errstate(over="ignore", invalid="ignore"):
        rhs_hat = _rfftn(rhs.values)
        gain = _phi1_gain(dt, symbol)
        update = rhs_hat * gain
        if prev is not None:
            # both N against this step's L: N - N_prev = rhs - rhs_prev - L (u - u_prev)
            dn_hat = rhs_hat - prev.rhs_hat - symbol * prev.update_hat
            corr = _phi2_gain(dt, symbol, gain) / prev.dt * dn_hat
            tol = _ETD2_TOL * (1.0 + float(np.abs(state.u.values).max()))
            err = _l1_bound((corr,), grid.shape)
            if err <= tol:
                update += corr
            else:
                err, rejected = math.inf, True
                if fallback_dt is not None and fallback_dt != dt:
                    dt = fallback_dt
                    update = rhs_hat * _phi1_gain(dt, symbol)
        values = state.u.values + _irfftn(update, grid.shape)
    new_u = _finite(grid, values, "u", state.t + dt)
    new = FlowState(state.t + dt, new_u, state.background)
    admissibility(new)    # its record, which run's bounds and row read
    new._last_step = _StepRecord(dt, float(np.abs(rhs.values).max()), rhs_hat, update,
                                 err, tol, rejected)
    return new


@dataclass
class BarrierPair:
    """Affine-in-time sandwich u0 -+ t*A around the flow."""

    A: float
    u0: ScalarField

    def __post_init__(self):
        if not self.A >= 0:
            raise ValueError("barrier slope must be >= 0")

    def lower(self, t):
        return self.u0.values - t * self.A

    def upper(self, t):
        return self.u0.values + t * self.A


def _barrier(state):
    """The sandwich around the state's u: slope A = sup |rhs| of the state."""
    return BarrierPair(float(np.abs(twisted_rhs(state).values).max()), state.u.copy())


def barriers(u0, background):
    """Barrier slope A = sup |rhs| at t = 0."""
    return _barrier(FlowState(0.0, u0, background))


@dataclass
class Trajectory:
    rows: list
    states: list
    barrier: BarrierPair
    t_end_reached: bool = True    # False when _MAX_STEPS stopped the run
    steps: int = 0                # accepted steps
    rejected_trials: int = 0      # trials whose ETD2 correction failed its bound
    dt_min: float = math.nan      # over the accepted steps
    dt_max: float = math.nan

    def write_monitor_csv(self, path, comment=None):
        _write_monitor(path, self.rows, comment)


def _write_monitor(path, rows, comment=None):
    """``monitor.csv``: the ``MONITOR_HEADER`` line and one line per row."""
    _write_lines(path, [",".join(MONITOR_HEADER)]
                 + [",".join(map(repr, row)) for row in rows], comment)


def run(state0, t_end, safety=0.5, emit_every=10, keep_states="emitted"):
    """Step to t_end, emitting monitor rows and enforcing the barrier sandwich.

    The first step is ETD1 with dt = min(_ETD_STEP_FACTOR * stable_dt, the
    remainder bound, the background drift bound, t_end - t): the state's
    ETD1 dt.  Each later step hands ``step`` the previous step's record,
    which makes it ETD2, and tries the same min with the accuracy cap
    _ETD_STEP_FACTOR * stable_dt raised to the grown step: the last dt
    rescaled by its error estimate (``_scaled``: at most doubled, and
    halved after a failed correction).  A step whose correction fails is
    the ETD1 step over the ETD1 dt, so no step is shorter than the ETD1 dt
    of its state.  ``emit_every`` counts explicit steps: elapsed
    time is accumulated in units of the state's ``stable_dt``, and a row is
    emitted when that count crosses a multiple of ``emit_every``, at t_end
    and at _MAX_STEPS.  A sandwich failure beyond
    tol = _BARRIER_TOL_FACTOR * min(dt, stable_dt) * A indicates a scheme
    bug and is fatal.  The affine sandwich is a theorem only for
    time-independent backgrounds (chi = 0 and a single F knot); on
    drifting backgrounds the gaps are still recorded but not enforced.
    ``keep_states``: "emitted" | "none" (the final state is always kept,
    with its blocks, background slice and record; emitted copies without).
    Only one state holds its forms at a time: a state's go once its rhs
    and L are cached, before ``step`` builds the next state's.  A
    ``NotAdmissible`` or ``BarrierViolation`` raised after the first row
    carries the rows emitted before it in its ``rows``.
    """
    if keep_states not in ("emitted", "none"):
        raise ValueError(f"keep_states must be 'emitted' or 'none', got {keep_states!r}")
    state = state0.copy()
    barrier = _barrier(state)
    enforce_barrier = state.background.chi_is_zero and len(state.background.f_times) == 1
    rows = []
    states = []
    n_step = rejected = 0
    dt_min, dt_max = math.inf, 0.0
    explicit_steps = 0.0
    tol_dt = 0.0
    record = None
    grown = 0.0

    def emit():
        gap_lo = float((state.u.values - barrier.lower(state.t)).min())
        gap_hi = float((barrier.upper(state.t) - state.u.values).min())
        tol = _BARRIER_TOL_FACTOR * max(tol_dt, 1e-300) * barrier.A
        if enforce_barrier and (gap_lo < -tol or gap_hi < -tol):
            raise BarrierViolation(
                f"barrier sandwich failed at t={state.t:.6g} "
                f"(gap_lo={gap_lo:.3e}, gap_hi={gap_hi:.3e}, tol={tol:.3e})")
        report = admissibility(state)
        rhs_sup = math.nan if state._last_step is None else state._last_step.rhs_sup
        rows.append((state.t, float(state.u.values.max()), float(state.u.values.min()),
                     rhs_sup, report.plus_margin, report.minus_margin, gap_lo, gap_hi))
        if keep_states == "emitted":
            states.append(state.copy())

    try:
        emit()
        # relative, so that a t_end below the tolerance is still reached
        t_stop = t_end * (1.0 - 1e-14)
        while state.t < t_stop and n_step < _MAX_STEPS:
            explicit_dt = stable_dt(state, safety)
            cap = _ETD_STEP_FACTOR * explicit_dt
            limit = min(_remainder_dt(state, safety), _drift_dt(state, safety))
            bound = min(cap, limit)
            if bound < 1e-12 * max(t_end, 1.0):
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
            left = t_end - state.t
            # step reads the replaced state's cached rhs and L, not its forms,
            # which go before the next state's are built
            twisted_rhs(state)
            state._blocks = None
            state = step(state, min(max(cap, grown), limit, left), record,
                         min(bound, left))
            record = state._last_step
            dt = record.dt
            grown = _scaled(dt, record.err, record.tol)
            n_step += 1
            rejected += record.rejected
            dt_min, dt_max = min(dt_min, dt), max(dt_max, dt)
            tol_dt = min(dt, explicit_dt)
            before, explicit_steps = explicit_steps, explicit_steps + dt / explicit_dt
            if (explicit_steps // emit_every > before // emit_every
                    or state.t >= t_stop or n_step == _MAX_STEPS):
                emit()
    except (NotAdmissible, BarrierViolation) as exc:
        # the rows emitted so far explain the failed run
        exc.rows = tuple(rows)
        raise
    # the final state keeps its forms, slice and record, which the viscosity
    # checks read, but not its rhs and step spectra; it replaces its emitted copy
    if states and states[-1].t == state.t:
        states.pop()
    state._rhs = state._last_step = None
    states.append(state)
    return Trajectory(rows=rows, states=states, barrier=barrier,
                      t_end_reached=state.t >= t_stop, steps=n_step,
                      rejected_trials=rejected, dt_min=dt_min if n_step else math.nan,
                      dt_max=dt_max if n_step else math.nan)
