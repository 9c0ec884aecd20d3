"""Numerical probe of the variable-doubling localization gap.

The doubled-variable comparison argument penalizes with a cutoff phi3 that
vanishes on part of the diagonal and is large far out, and needs the
Hessian of phi3 to decay like d(x_a, y_a)^(2n) along the penalized
maximizers.  That decay only follows if the maximizers themselves sit in
the zero set of phi3; the construction below drives them to a diagonal
point where phi3 stays strictly positive, and the measured decay exponent
collapses accordingly.

Fixed published construction (reproducibility over generality): smooth
bump-based phi2, squared-distance-to-zero-set phi3 with a C^2 radial ramp,
a single Gaussian bump as the subsolution model and zero as the
supersolution model.  Everything lives on a flat torus of period 8 per
real coordinate (each factor has dimension 2n).
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFit
from .grid import _write_lines

__all__ = ["ProbeResult", "localization_gap_probe"]

_PERIOD = 8.0
_ETA = 0.5
_C_BIG = 0.5
_BETA = 60.0
_BUMP_AMP = 2.0
_BUMP_WIDTH2 = 0.0225  # (0.15)^2
_BUMP_OFFSET = 0.2
_NEWTON_STEP = 1e-4     # Newton's finite-difference step
_NEWTON_TOL = 1e-10     # Newton stops once a step moves less than this
_NEWTON_MAX_ITER = 50


def _minimg(v):
    return (v + 0.5 * _PERIOD) % _PERIOD - 0.5 * _PERIOD


def _r2(x):
    return (_minimg(x) ** 2).sum(axis=-1)


def _zero_set_radius():
    """Radius below which the diagonal lies in {phi2 <= -eta}, where
    phi2(x, y) = -2 + 13 (S(|x| - 1) + S(|y| - 1)) with the ramp
    S(s) = 3s^2 - 2s^3 on [0, 1]; phi2 enters the probe only here."""
    target = (2.0 - _ETA) / 26.0
    # the root in [0, 1] of the ramp 3s^2 - 2s^3 = target, in closed form
    s0 = 0.5 - math.sin(math.asin(1.0 - 2.0 * target) / 3.0)
    return 1.0 + s0


@dataclass
class ProbeResult:
    alphas: np.ndarray
    distances: np.ndarray
    hessian_norms: np.ndarray
    fitted_exponent: float
    reference_exponent: float
    vacuous: bool
    maximizers: list

    def _table_lines(self):
        """The header and one row per alpha, as the CSV and stdout print them."""
        return ["alpha,distance,hessian_norm"] + [
            f"{float(a)!r},{float(d)!r},{float(h)!r}"
            for a, d, h in zip(self.alphas, self.distances, self.hessian_norms)]

    def write_csv(self, path, comment=None):
        _write_lines(path, self._table_lines(), comment,
                     footer=f"fitted_exponent={self.fitted_exponent!r} "
                            f"reference_exponent={self.reference_exponent!r} "
                            f"vacuous={self.vacuous}")


def _construction(n):
    """(x_hat, r_zero): the subsolution bump's centre and the zero-set radius."""
    x_hat = np.zeros(2 * n)
    r_zero = _zero_set_radius()
    x_hat[0] = r_zero + _BUMP_OFFSET
    return x_hat, r_zero


def _squares(z, x_hat):
    """d(x, y)^2, the squared radius of the midpoint and |x - x_hat|^2 at
    the points z = (x, y): the three squared distances of the objective."""
    dim = z.shape[-1] // 2
    x, y = z[..., :dim], z[..., dim:]
    diff = _minimg(y - x)
    return (diff ** 2).sum(axis=-1), _r2(x + 0.5 * diff), _r2(x - x_hat)


def _phi3(d2, mid2, r_zero, scale):
    """The cutoff: scale (d^2 + beta max(|mid| - r_zero, 0)^3)."""
    ramp = np.maximum(np.sqrt(mid2) - r_zero, 0.0) ** 3
    return scale * (d2 + _BETA * ramp)


def _combine(d2, mid2, bump2, alpha, r_zero, scale):
    """The penalized objective w_sub - phi3 - alpha d^2 / 2 from its three
    squared distances; the supersolution model is 0."""
    w_sub = _BUMP_AMP * np.exp(-bump2 / _BUMP_WIDTH2)
    return w_sub - _phi3(d2, mid2, r_zero, scale) - 0.5 * alpha * d2


def _objective_slabs(axes, x_hat, r_zero, alpha, phi3_scale, chunk=200_000):
    """Yield (offset, values) of ``_combine`` on the tensor grid of axes
    (x_0 .. x_{dim-1}, y_0 .. y_{dim-1}) in C order, in slabs of at most
    chunk values along the leading axes.  Each squared distance sums over
    c tables on one (x_c, y_c) pair, in ``_squares``' order, so only the
    combination runs at full size."""
    dim = len(axes) // 2
    shape = tuple(len(a) for a in axes)
    d2_t, mid_t, bump_t = [], [], []
    for c in range(dim):
        pair = [1] * (2 * dim)
        pair[c], pair[dim + c] = shape[c], shape[dim + c]
        x, y = axes[c][:, None], axes[dim + c][None, :]
        diff = _minimg(y - x)
        d2_t.append((diff ** 2).reshape(pair))
        mid_t.append((_minimg(x + 0.5 * diff) ** 2).reshape(pair))
        bump = _minimg(axes[c] - x_hat[c]) ** 2
        bump_t.append(bump.reshape(pair[:dim] + [1] * dim))
    lead = next(k for k in range(1, 2 * dim + 1)
                if math.prod(shape[k:]) <= chunk)
    size, rows = math.prod(shape[lead:]), np.arange(math.prod(shape[:lead]))
    for start in range(0, len(rows), chunk // size):
        idx = np.unravel_index(rows[start:start + chunk // size], shape[:lead])
        # every table at this slab's leading indices, summed over c
        squares = (
            sum(t[tuple(i if m > 1 else 0 for i, m in zip(idx, t.shape))]
                for t in tables) for tables in (d2_t, mid_t, bump_t))
        yield start * size, _combine(*squares, alpha, r_zero, phi3_scale).ravel()


def _grid_maximize(slabs, center, half_width, n_levels=14, pts=13):
    """Nested grid search; each level's box is wide enough (two cells of
    the previous level) to contain the previous argmax's true neighborhood.
    The first maximum in the C order of ``slabs(axes)`` wins."""
    best = np.asarray(center, dtype=np.float64)
    hw = half_width
    for _ in range(n_levels):
        axes = [np.linspace(b - hw, b + hw, pts) for b in best]
        best_val = -np.inf
        for offset, vals in slabs(axes):
            j = int(np.argmax(vals))
            if vals[j] > best_val:
                best_val = float(vals[j])
                idx = np.unravel_index(offset + j, [pts] * len(axes))
                best = np.array([a[i] for a, i in zip(axes, idx)])
        hw = 2.0 * (2.0 * hw / (pts - 1))
        if hw < 1e-7:
            break
    return best


@functools.lru_cache(maxsize=None)
def _stencil(dim, step):
    """The central-difference offsets: 0, +-step e_i, then +-step e_i
    +-step e_j for i < j in the sign orders ++, +-, -+, --."""
    e = np.eye(dim) * step
    i, j = np.triu_indices(dim, 1)
    offsets = np.concatenate([np.zeros((1, dim)), e, -e, e[i] + e[j],
                              e[i] - e[j], -e[i] + e[j], -e[i] - e[j]])
    for a in (offsets, i, j):
        a.flags.writeable = False  # shared by every caller
    return offsets, i, j


def _fd_derivatives(f, z, step):
    """Value, gradient and Hessian of f at z by central differences, from
    one call of f on the 1 + 2d + 2d(d - 1) stencil points."""
    dim = len(z)
    offsets, i, j = _stencil(dim, step)
    vals = f(z + offsets)
    f0, plus, minus = vals[0], vals[1:1 + dim], vals[1 + dim:1 + 2 * dim]
    pp, pm, mp, mm = vals[1 + 2 * dim:].reshape(4, len(i))
    H = np.diag((plus - 2.0 * f0 + minus) / (step * step))
    H[i, j] = H[j, i] = (pp - pm - mp + mm) / (4 * step * step)
    return f0, (plus - minus) / (2.0 * step), H


def _negative_definite(H):
    """Whether -H is symmetric positive definite (a Cholesky pass)."""
    if not np.all(np.isfinite(H)):
        return False
    try:
        np.linalg.cholesky(-H)
    except np.linalg.LinAlgError:
        return False
    return True


def _newton_maximize(f, z):
    """Line-search Newton ascent from z on finite-difference derivatives,
    or None when it fails: a Hessian at z that is not negative definite, a
    non-finite value, or _NEWTON_MAX_ITER iterates without stopping.  An
    iterate is accepted only where the Hessian is negative definite and f
    has not fallen by more than roundoff; otherwise the step is halved.
    Stops once a step, accepted or halved, moves every coordinate by less
    than _NEWTON_TOL."""
    f0, grad, H = _fd_derivatives(f, z, _NEWTON_STEP)
    if not (np.isfinite(f0) and _negative_definite(H)):
        return None
    for _ in range(_NEWTON_MAX_ITER):
        dz = np.linalg.solve(-H, grad)
        slack = 8.0 * np.finfo(np.float64).eps * max(1.0, abs(f0))
        while True:
            trial = z + dz
            f1, grad1, H1 = _fd_derivatives(f, trial, _NEWTON_STEP)
            if f1 >= f0 - slack and _negative_definite(H1):
                break
            dz = 0.5 * dz
            if np.abs(dz).max() < _NEWTON_TOL:
                return z
        z, f0, grad, H = trial, f1, grad1, H1
        if np.abs(dz).max() < _NEWTON_TOL:
            return z
    return None


def localization_gap_probe(n=1, alphas=(1e1, 1e2, 1e3, 1e4), phi3_scale=1.0,
                           search_points=13, search_levels=1):
    """Fit the decay exponent of ||D^2 phi3|| against d(x_a, y_a).

    search_levels counts the nested grid levels of search_points^(4n)
    points run per penalization strength; safeguarded Newton on the
    pointwise objective then polishes their argmax.  Where Newton fails,
    the full nested search of max(search_levels, 14) levels is used.

    Returns the fitted exponent next to the claimed reference 2n; the
    shipped construction makes the fit collapse well below the reference.
    With phi3_scale = 0 the Hessian vanishes identically and the probe
    reports the vacuous case instead of fitting.
    """
    integer = lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool)
    if not (integer(n) and integer(search_points) and integer(search_levels)
            and n >= 1 and search_points >= 2 and search_levels >= 1):
        raise ValueError("need integers n >= 1, search_points >= 2 and "
                         "search_levels >= 1")
    if not (isinstance(phi3_scale, numbers.Real) and not isinstance(phi3_scale, bool)
            and math.isfinite(phi3_scale) and phi3_scale >= 0):
        raise ValueError("phi3_scale must be a finite real number >= 0")
    alphas = np.asarray(sorted(float(a) for a in alphas))
    if not np.all(np.isfinite(alphas) & (alphas > 0)):
        raise ValueError("penalization strengths must be finite and > 0")
    if len(alphas) < 2 and phi3_scale != 0.0:
        raise ValueError("need at least two penalization strengths")
    x_hat, r_zero = _construction(n)
    dim = 2 * n
    distances = []
    norms = []
    maximizers = []
    center = np.concatenate([x_hat, x_hat])
    half_width = 2.0
    for alpha in alphas:
        slabs = lambda axes, a=alpha: _objective_slabs(axes, x_hat, r_zero, a,
                                                       phi3_scale)
        z_star = _newton_maximize(
            lambda z, a=alpha: _combine(*_squares(z, x_hat), a, r_zero, phi3_scale),
            _grid_maximize(slabs, center, half_width, n_levels=search_levels,
                           pts=search_points))
        if z_star is None:
            # the full nested search, which repeats the levels run above
            z_star = _grid_maximize(slabs, center, half_width,
                                    n_levels=max(search_levels, 14),
                                    pts=search_points)
        d = float(np.sqrt(_squares(z_star, x_hat)[0]))
        distances.append(d)
        H = _fd_derivatives(
            lambda z: _phi3(*_squares(z, x_hat)[:2], r_zero, phi3_scale),
            z_star, 1e-3)[2]
        norms.append(float(np.linalg.norm(H, 2)))
        maximizers.append((z_star[:dim].copy(), z_star[dim:].copy()))
        # warm-start the next (larger) alpha near the current maximizer
        center = z_star
        half_width = max(4.0 * d, 0.05)

    distances = np.asarray(distances)
    norms = np.asarray(norms)
    if phi3_scale == 0.0 or norms.max() < 1e-10:
        return ProbeResult(alphas, distances, norms, float("nan"),
                           2.0 * n, True, maximizers)
    if distances.min() < 1e-8 or np.ptp(np.log(distances)) < 1e-6:
        raise DegenerateFit("penalized maximizers collapsed before the "
                            "alpha range was exhausted")
    slope = float(np.polyfit(np.log(distances), np.log(norms), 1)[0])
    return ProbeResult(alphas, distances, norms, slope, 2.0 * n, False,
                       maximizers)
