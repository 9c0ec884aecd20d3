import numpy as np
import pytest

from twistedma import BicomplexGrid, ScalarField


def bandlimited_field(grid, rng, max_mode=2, n_terms=6, amp=1.0):
    """Random zero-mean field built from a few separable cosine modes."""
    vals = np.zeros(grid.shape)
    for _ in range(n_terms):
        ks = rng.integers(-max_mode, max_mode + 1, size=grid.real_dim)
        arg = rng.uniform(0.0, 2.0 * np.pi)
        for a, kk in enumerate(ks):
            sh = [1] * grid.real_dim
            sh[a] = grid.shape[a]
            arg = arg + kk * grid.axis_coords(a).reshape(sh)
        vals = vals + amp * rng.standard_normal() * np.cos(arg)
    vals = np.ascontiguousarray(np.broadcast_to(vals, grid.shape)).copy()
    vals -= vals.mean()
    return ScalarField(grid, vals)


def cos_axis_field(grid, axis, amplitude=1.0, mode=1):
    """amplitude * cos(mode * coordinate) along one axis."""
    coords = grid.axis_coords(axis)
    sh = [1] * grid.real_dim
    sh[axis] = len(coords)
    vals = amplitude * np.cos(mode * coords).reshape(sh)
    return ScalarField(grid, np.broadcast_to(vals, grid.shape).copy())


@pytest.fixture
def small_grid():
    return BicomplexGrid.regular(1, 1, 8)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def log_dets(mat):
    """(lambda_min, log det, positive definite by the PD_GATE threshold) of
    stacked 1x1 or 2x2 Hermitian matrices, by eigvalsh and slogdet: finite
    for every finite positive definite matrix, without scaling."""
    from twistedma.grid import PD_GATE

    ev = np.linalg.eigvalsh(mat)
    sign, log_det = np.linalg.slogdet(mat)
    log_det = np.where(sign.real > 0, log_det, -np.inf)
    # the trace norm in long double, so that it stays finite near the float maximum
    norm = np.abs(ev.astype(np.longdouble)).sum(axis=-1)
    return ev[..., 0], log_det, ev[..., 0] > PD_GATE * (1 + norm)


def log_space_violations(stack, times, background, side, tol=None):
    """{(time_index, point): slack} of the points where a one-sided check
    fails beyond tol (default 10 (h_max^2 + dt)), the slack in the
    equation's log units: log det(plus) + zeta- - (p_t + F + zeta+ + log
    det(minus)) from above, its negative from below, the block on the
    touching side gated (log 0 = -inf off positive definite blocks), 0
    where both sides are -inf, and -inf where the ungated block has a
    negative eigenvalue.  A reference for the checks, by eigvalsh and
    slogdet."""
    from twistedma import background_at
    from twistedma.grid import hessian_block_values

    grid = background.grid
    sign = 1.0 if side == "above" else -1.0
    zp, zm = background.zeta_plus.values, background.zeta_minus.values
    out = {}
    for n in range(1, len(times)):
        t, dt = float(times[n]), float(times[n] - times[n - 1])
        sl = background_at(background, t)
        plus = sl.omega_hat_plus.values + hessian_block_values(stack[n], grid, "plus")
        minus = sl.omega_hat_minus.values - hessian_block_values(stack[n], grid, "minus")
        p_t = (stack[n] - stack[n - 1]) / dt
        (lo_p, log_p, pd_p), (lo_m, log_m, pd_m) = log_dets(plus), log_dets(minus)
        if side == "above":
            log_m, unbounded = np.where(pd_m, log_m, -np.inf), lo_p < 0
        else:
            log_p, unbounded = np.where(pd_p, log_p, -np.inf), lo_m < 0
        lhs, rhs = log_p + zm, p_t + background.F_at(t) + zp + log_m
        with np.errstate(invalid="ignore"):
            slack = sign * (lhs - rhs)
        slack = np.where((lhs == -np.inf) & (rhs == -np.inf), 0.0, slack)
        slack = np.where(unbounded, -np.inf, slack)
        c = 10.0 * (max(grid.spacing) ** 2 + dt) if tol is None else tol
        for point in zip(*np.nonzero(slack < -c)):
            out[(n, tuple(int(i) for i in point))] = float(slack[point])
    return out
