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


def log_space_violations(stack, times, background, side, samples, seed, tol=None):
    """{(time_index, point): log|slack|} of the points where a one-sided
    check fails beyond tol (the worst jet's slack), decided in log space: a reference for the
    checks where exp and det leave the float range.  k = l = 1 only; the
    jets come from the checks' own cone."""
    from twistedma import background_at
    from twistedma.grid import PD_GATE, hessian_block_values
    from twistedma.viscosity import _cone

    grid = background.grid
    assert (grid.k, grid.l) == (1, 1)
    sign, cone = _cone(grid, side, samples, seed)
    gate = lambda x: np.where(x > PD_GATE * (1.0 + np.abs(x)), x, 0.0)
    zp, zm = background.zeta_plus.values, background.zeta_minus.values
    out = {}
    for n in range(1, len(times)):
        t, dt = float(times[n]), float(times[n] - times[n - 1])
        sl = background_at(background, t)
        plus = sl.omega_hat_plus.values[..., 0, 0] + hessian_block_values(
            stack[n], grid, "plus")[..., 0, 0]
        minus = sl.omega_hat_minus.values[..., 0, 0] - hessian_block_values(
            stack[n], grid, "minus")[..., 0, 0]
        p_t = (stack[n] - stack[n - 1]) / dt
        for dp, dhp, dhm in cone:
            det_p, det_m = plus + dhp[0, 0], minus - dhm[0, 0]
            det_p, det_m = (det_p, gate(det_m)) if sign > 0 else (gate(det_p), det_m)
            with np.errstate(divide="ignore"):
                log_l = np.log(np.abs(det_p)) + zm
                log_r = p_t + dp + background.F_at(t) + np.log(np.abs(det_m)) + zp
            # slack e^-M, M = max(log|lhs|, log|rhs|, 0)
            top = np.maximum(np.maximum(log_l, log_r), 0.0)
            slack = sign * (np.sign(det_p) * np.exp(log_l - top)
                            - np.sign(det_m) * np.exp(log_r - top))
            if tol is None:
                below = slack < -10.0 * (max(grid.spacing) ** 2 + dt)
            else:
                below = slack < -tol * np.exp(-top)
            with np.errstate(divide="ignore"):
                log_slack = np.log(np.abs(slack)) + top
            for point in zip(*np.nonzero(below)):
                key = (n, tuple(int(i) for i in point))
                out[key] = max(out.get(key, -np.inf), float(log_slack[point]))
    return out
