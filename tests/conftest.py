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


def _long_det(mat, gated):
    """det of stacked 1x1 or 2x2 Hermitian matrices, formed in long double,
    where products of entries near the float maximum stay finite; where
    ``gated``, zero unless lambda_min > PD_GATE (1 + trace norm)."""
    from twistedma.grid import PD_GATE

    a = mat[..., 0, 0].real.astype(np.longdouble)
    if mat.shape[-1] == 1:
        det, lo, norm = a, a, np.abs(a)
    else:
        d = mat[..., 1, 1].real.astype(np.longdouble)
        b2 = (mat[..., 0, 1].real.astype(np.longdouble) ** 2
              + mat[..., 0, 1].imag.astype(np.longdouble) ** 2)
        det = a * d - b2
        half, disc = (a + d) / 2, np.sqrt(((a - d) / 2) ** 2 + b2)
        lo, norm = half - disc, np.abs(half - disc) + np.abs(half + disc)
    return np.where(lo > PD_GATE * (1 + norm), det, 0) if gated else det


def rescaled_sides(monkeypatch):
    """The list to which each call of the checks' scaled path appends its
    sign: +1 on the sub side, -1 on the super side."""
    from twistedma import viscosity

    sides, real = [], viscosity._rescaled
    monkeypatch.setattr(viscosity, "_rescaled", lambda sign, *args: (
        sides.append(sign) or real(sign, *args)))
    return sides


def unbounded_below(plus, minus, side):
    """Mask of the points where the touching cone drives the slack to -inf:
    the ungated block (plus from above, minus from below) has a negative
    eigenvalue, a 1x1 plus block from above aside."""
    ungated = plus if side == "above" else minus
    if side == "above" and ungated.shape[-1] == 1:
        return np.zeros(ungated.shape[:-2], dtype=bool)
    return np.linalg.eigvalsh(ungated)[..., 0] < 0


def log_space_violations(stack, times, background, side, tol=None):
    """{(time_index, point): log|slack|} of the points where a one-sided
    check fails beyond tol, decided in log space with the determinants in
    long double: a reference for the checks where exp and det leave the
    float range.  The slack is the cone's infimum in closed form: the base
    jet's, or -inf (log|slack| = inf) where ``unbounded_below``."""
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
        det_p, det_m = _long_det(plus, sign < 0), _long_det(minus, sign > 0)
        with np.errstate(divide="ignore"):
            log_l = np.log(np.abs(det_p)) + zm
            log_r = p_t + background.F_at(t) + np.log(np.abs(det_m)) + zp
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
        unbounded = unbounded_below(plus, minus, side)
        below |= unbounded
        log_slack = np.where(unbounded, np.inf, log_slack)
        for point in zip(*np.nonzero(below)):
            out[(n, tuple(int(i) for i in point))] = float(log_slack[point])
    return out
