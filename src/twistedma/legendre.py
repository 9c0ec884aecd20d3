"""Partial Legendre transform in the minus variable and the conjugation
check against the real parabolic Monge-Ampere structure.

Works on the imaginary-translation-invariant reduction of a k = l = 1
grid: two real coordinates (x_plus, x_minus).  The transform conjugates
the minus variable only,

    v(x_plus, p, t) = max over x_minus of [ u - p * x_minus ],

which takes strictly concave-in-x_minus data to convex-in-p data and obeys
the envelope identities du/dx_minus = p, dv/dp = -x_minus,
d2v/dp2 = -1 / d2u/dx_minus2.

Conjugated equation.  For the reduced flow on the identity background,

    u_t = log(1 + u_pp'/4) - log(1 - u_mm/4) - F(x_plus, t)

(u_pp' the plus-plus second derivative, u_mm the minus one), pushing the
envelope identities through the chain rule gives

    v_t = log(1 + (v_xx - v_xp^2 / v_pp) / 4)
          - log(1 + 1 / (4 v_pp)) - F(x_plus, t).

This functional is validated on manufactured solutions in the test suite
and frozen here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConcavityViolated, NotReducible
from .grid import ScalarField, _centred, _same_axis

__all__ = [
    "ReducedField",
    "reduce_field",
    "lift_field",
    "partial_legendre",
    "inverse_partial_legendre",
    "conjugate_slice_bruteforce",
    "legendre_roundtrip_error",
    "transformed_residual",
    "untransformed_residual",
]

_MIN_MARGIN = 1e-10     # strict concavity in x_minus that partial_legendre needs


def _increasing(values, name):
    values = np.asarray(values, dtype=np.float64)
    if (values.ndim != 1 or len(values) < 2 or not np.all(np.isfinite(values))
            or np.any(np.diff(values) <= 0)):
        raise ValueError(f"{name} must be a 1-D, finite, strictly increasing "
                         f"array of at least 2 points")
    return values


@dataclass
class ReducedField:
    """2D field u(x_plus, second) with x_plus periodic.

    ``second`` is the minus coordinate for primal fields and the momentum
    for conjugates; ``range_clipped`` records a momentum grid that failed
    to cover the full gradient range (reported, not fatal).
    """

    x_plus: np.ndarray
    second: np.ndarray
    values: np.ndarray
    conjugate: bool = False
    range_clipped: bool = field(default=False, compare=False)

    def __post_init__(self):
        self.x_plus = np.asarray(self.x_plus, dtype=np.float64)
        self.second = _increasing(self.second, "second coordinate")
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (len(self.x_plus), len(self.second)):
            raise ValueError("values must be (len(x_plus), len(second))")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("reduced field contains non-finite values")

    def second_spacing(self):
        return float(self.second[1] - self.second[0])

    def concavity_margin(self):
        """m > 0 iff strictly concave in the second variable (interior)."""
        v = self.values
        if v.shape[1] < 3:
            raise ConcavityViolated("need at least 3 samples to test concavity")
        h = self.second_spacing()
        return float(-_same_axis(v, 1, 1.0 / (h * h))[:, 1:-1].max())


def reduce_field(u, tol=1e-12):
    """Restrict a y-invariant k = l = 1 field to its (x_plus, x_minus) plane."""
    grid = u.grid
    if grid.k != 1 or grid.l != 1:
        raise NotReducible("reduction is defined for k = l = 1 grids")
    span = max(float(np.ptp(u.values, axis=1).max()),
               float(np.ptp(u.values, axis=3).max()))
    if not span <= tol * (1.0 + np.abs(u.values).max()):
        raise NotReducible(f"field varies along imaginary axes (span {span:.3e})")
    return ReducedField(grid.axis_coords(0), grid.axis_coords(2),
                        u.values[:, 0, :, 0].copy())


def lift_field(rf, grid):
    """Inverse of reduce_field onto a matching k = l = 1 grid."""
    if grid.k != 1 or grid.l != 1:
        raise NotReducible("lift targets k = l = 1 grids")
    if rf.values.shape != (grid.n_points[0], grid.n_points[2]):
        raise ValueError("reduced shape does not match the grid")
    vals = np.broadcast_to(rf.values[:, None, :, None], grid.shape)
    return ScalarField(grid, vals.copy())


def _hull(xs, fs):
    """Indices of the lower convex hull vertices of (xs, fs), xs increasing."""
    hull = []
    for i in range(len(xs)):
        while len(hull) >= 2:
            i0, i1 = hull[-2], hull[-1]
            # keep only convex turns of the lower hull
            if ((fs[i1] - fs[i0]) * (xs[i] - xs[i1])
                    >= (fs[i] - fs[i1]) * (xs[i1] - xs[i0])):
                hull.pop()
            else:
                break
        hull.append(i)
    return hull


def _lower_envelopes(xs, fs, qs):
    """min_i (q * xs[i] + fs[r, i]) for every row r of fs and each q in the
    sorted array qs.  Only lower-hull vertices can attain the minimum, and
    the optimal one is the number of hull slopes <= -q.  A row on which the
    hull scan's test never fires on a consecutive triple keeps every sample
    as a vertex and skips the scan (tested for all rows at once)."""
    df, dx = np.diff(fs, axis=1), np.diff(xs)
    general = (df[:, :-1] * dx[1:] >= df[:, 1:] * dx[:-1]).any(axis=1)
    out = np.empty((len(fs), len(qs)))
    for r in range(len(fs)):
        hull = _hull(xs, fs[r]) if general[r] else slice(None)
        hx, hf = xs[hull], fs[r, hull]
        j = np.searchsorted(np.diff(hf) / np.diff(hx), -qs, side="right")
        out[r] = qs * hx[j] + hf[j]
    return out


def conjugate_slice_bruteforce(xs, us, ps):
    """Naive O(N M) oracle for max_x (u - p x)."""
    return (us[None, :] - np.outer(ps, xs)).max(axis=1)


def _gradient_range(rf):
    g = np.gradient(rf.values, rf.second, axis=1, edge_order=2)
    return float(g.min()), float(g.max())


def partial_legendre(rf, p_grid=None):
    """Conjugate the minus variable; output is convex in the momentum."""
    if rf.conjugate:
        raise ValueError("input is already a conjugate field")
    margin = rf.concavity_margin()
    if margin <= _MIN_MARGIN:
        raise ConcavityViolated(
            f"need strict concavity in x_minus (margin {margin:.3e})")
    gmin, gmax = _gradient_range(rf)
    clipped = False
    if p_grid is None:
        p_grid = np.linspace(gmin, gmax, len(rf.second))
    else:
        p_grid = _increasing(p_grid, "p_grid")
        clipped = p_grid[0] > gmin or p_grid[-1] < gmax
    # max_x(u - p x) = -min_x(p x - u)
    out = -_lower_envelopes(rf.second, -rf.values, p_grid)
    return ReducedField(rf.x_plus, p_grid, out, conjugate=True,
                        range_clipped=clipped)


def inverse_partial_legendre(vf, x_grid=None):
    """Recover the primal field: u(x) = min_p (v + p x)."""
    if not vf.conjugate:
        raise ValueError("input is not a conjugate field")
    if x_grid is None:
        gmin, gmax = _gradient_range(vf)
        # dv/dp = -x_minus, so the recoverable x range is -grad reversed
        x_grid = np.linspace(-gmax, -gmin, len(vf.second))
    else:
        x_grid = _increasing(x_grid, "x_grid")
    out = _lower_envelopes(vf.second, vf.values, x_grid)
    return ReducedField(vf.x_plus, x_grid, out, conjugate=False)


def legendre_roundtrip_error(rf, trim=None):
    """max |u - L^{-1}(L(u))| over interior minus points."""
    nx = len(rf.second)
    if trim is None:
        trim = max(2, nx // 16)
    if not 0 <= 2 * trim < nx:
        raise ValueError(f"trim {trim} leaves no interior of {nx} points")
    vf = partial_legendre(rf)
    back = inverse_partial_legendre(vf, x_grid=rf.second)
    err = np.abs(back.values - rf.values)[:, trim:nx - trim]
    return float(err.max())


def _check_slices(u_slices, times):
    times = np.asarray(times, dtype=np.float64)
    if len(u_slices) != len(times) or len(times) < 3:
        raise ValueError("need one slice per time and at least three times")
    dts = np.diff(times)
    if not np.allclose(dts, dts[0]):
        raise ValueError("uniform time spacing required")
    base = u_slices[0]
    for s in u_slices[1:]:
        if not (np.array_equal(s.x_plus, base.x_plus)
                and np.array_equal(s.second, base.second)):
            raise ValueError("slices must share coordinates")
    return times, float(dts[0]), float(base.x_plus[1] - base.x_plus[0])


def _residual(slices, times, dt, F, interior_rhs):
    """(max |residual|, stack) of w_t - rhs at the interior times: w_t by
    centred difference, trimmed to the interior second-axis points, and
    ``interior_rhs(w)`` already trimmed, F subtracted."""
    res = []
    for n in range(1, len(times) - 1):
        w_t = (slices[n + 1].values - slices[n - 1].values) / (2.0 * dt)
        rhs = interior_rhs(slices[n].values)
        if F is not None:
            rhs = rhs - F(slices[n].x_plus[:, None], times[n])
        res.append(w_t[:, 1:-1] - rhs)
    res = np.stack(res)
    return float(np.abs(res).max()), res


def untransformed_residual(u_slices, times, F=None):
    """Discrete residual of the reduced flow on the identity background.

    Returns (max_residual, stack of interior-time residual arrays).
    Spatial interior in x_minus (wrapped stencil ends dropped); x_plus periodic.
    """
    times, dt, hx = _check_slices(u_slices, times)
    hm = u_slices[0].second_spacing()

    def rhs(u):
        u_xx = _same_axis(u, 0, 1.0 / (hx * hx))[:, 1:-1]
        u_mm = _same_axis(u, 1, 1.0 / (hm * hm))[:, 1:-1]
        return np.log1p(0.25 * u_xx) - np.log1p(-0.25 * u_mm)
    return _residual(u_slices, times, dt, F, rhs)


def transformed_residual(u_slices, times, F=None, p_grid=None):
    """Residual of the frozen conjugated equation along the transform of u.

    The slices are conjugated on a shared momentum grid (intersection of
    per-slice gradient ranges unless given); derivatives are central, with
    the momentum treated as non-periodic interior.
    """
    times, dt, hx = _check_slices(u_slices, times)
    if p_grid is None:
        los, his = zip(*(_gradient_range(s) for s in u_slices))
        p_grid = np.linspace(max(los), min(his), len(u_slices[0].second))
    v_slices = [partial_legendre(s, p_grid=p_grid) for s in u_slices]
    hp = float(p_grid[1] - p_grid[0])

    def rhs(v):
        v_xx = _same_axis(v, 0, 1.0 / (hx * hx))[:, 1:-1]
        v_xp = _centred(_centred(v, 1, 0.5 / hp), 0, 0.5 / hx)[:, 1:-1]
        v_pp = _same_axis(v, 1, 1.0 / (hp * hp))[:, 1:-1]
        if v_pp.min() <= 0:
            raise ConcavityViolated("conjugate lost convexity in momentum")
        return np.log1p(0.25 * (v_xx - v_xp ** 2 / v_pp)) - np.log1p(0.25 / v_pp)
    return _residual(v_slices, times, dt, F, rhs)
