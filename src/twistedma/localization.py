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

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFit

__all__ = ["ProbeResult", "localization_gap_probe"]

_PERIOD = 8.0
_ETA = 0.5
_C_BIG = 0.5
_BETA = 60.0
_BUMP_AMP = 2.0
_BUMP_WIDTH2 = 0.0225  # (0.15)^2
_BUMP_OFFSET = 0.2


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

    def write_csv(self, path, comment=None):
        with open(path, "w") as fh:
            if comment:
                fh.write(f"# {comment}\n")
            fh.write("alpha,distance,hessian_norm\n")
            for a, d, h in zip(self.alphas, self.distances, self.hessian_norms):
                fh.write(f"{float(a)!r},{float(d)!r},{float(h)!r}\n")
            fh.write(f"# fitted_exponent={self.fitted_exponent!r} "
                     f"reference_exponent={self.reference_exponent!r} "
                     f"vacuous={self.vacuous}\n")


def _construction(n, phi3_scale):
    dim = 2 * n
    r_zero = _zero_set_radius()
    x_hat = np.zeros(dim)
    x_hat[0] = r_zero + _BUMP_OFFSET

    def phi3(x, y):
        diff = _minimg(np.asarray(y) - np.asarray(x))
        d2 = (diff ** 2).sum(axis=-1)
        mid = np.asarray(x) + 0.5 * diff
        rm = np.sqrt(_r2(mid))
        ramp = np.maximum(rm - r_zero, 0.0) ** 3
        return phi3_scale * (d2 + _BETA * ramp)

    def w_sub(x):
        return _BUMP_AMP * np.exp(-_r2(np.asarray(x) - x_hat) / _BUMP_WIDTH2)

    def w_super(y):
        return np.zeros(np.asarray(y).shape[:-1])

    return phi3, w_sub, w_super, x_hat, r_zero


def _objective_slabs(axes, x_hat, r_zero, alpha, phi3_scale, chunk=200_000):
    """Yield (offset, values) of w_sub - w_super - phi3 - alpha d^2 / 2 on
    the tensor grid of axes (x_0 .. x_{dim-1}, y_0 .. y_{dim-1}) in C order,
    in slabs of at most chunk values along the leading axes.  Each term sums
    over c tables on one (x_c, y_c) pair, in the pointwise code's order, so
    only the combination runs at full size.  The supersolution model is 0."""
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
        d2, mid2, bump2 = (
            sum(t[tuple(i if m > 1 else 0 for i, m in zip(idx, t.shape))]
                for t in tables) for tables in (d2_t, mid_t, bump_t))
        ramp = np.maximum(np.sqrt(mid2) - r_zero, 0.0) ** 3
        phi3 = phi3_scale * (d2 + _BETA * ramp)
        w_sub = _BUMP_AMP * np.exp(-bump2 / _BUMP_WIDTH2)
        yield start * size, (w_sub - phi3 - 0.5 * alpha * d2).ravel()


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


def _fd_hessian_norm(f, z, step=1e-3):
    dim = len(z)
    H = np.empty((dim, dim))
    e = np.eye(dim) * step
    f0 = f(z[None])[0]
    for i in range(dim):
        H[i, i] = (f(z[None] + e[i][None])[0] - 2.0 * f0
                   + f(z[None] - e[i][None])[0]) / (step * step)
        for j in range(i + 1, dim):
            val = (f(z[None] + e[i][None] + e[j][None])[0]
                   - f(z[None] + e[i][None] - e[j][None])[0]
                   - f(z[None] - e[i][None] + e[j][None])[0]
                   + f(z[None] - e[i][None] - e[j][None])[0]) / (4 * step * step)
            H[i, j] = H[j, i] = val
    return float(np.linalg.norm(H, 2))


def localization_gap_probe(n=1, alphas=(1e1, 1e2, 1e3, 1e4), phi3_scale=1.0,
                           search_points=13, search_levels=14):
    """Fit the decay exponent of ||D^2 phi3|| against d(x_a, y_a).

    Returns the fitted exponent next to the claimed reference 2n; the
    shipped construction makes the fit collapse well below the reference.
    With phi3_scale = 0 the Hessian vanishes identically and the probe
    reports the vacuous case instead of fitting.
    """
    if (not isinstance(n, numbers.Integral) or n < 1 or search_points < 2
            or search_levels < 1):
        raise ValueError("need an integer n >= 1, search_points >= 2 and "
                         "search_levels >= 1")
    alphas = np.asarray(sorted(float(a) for a in alphas))
    if not np.all(np.isfinite(alphas) & (alphas > 0)):
        raise ValueError("penalization strengths must be finite and > 0")
    if len(alphas) < 2 and phi3_scale != 0.0:
        raise ValueError("need at least two penalization strengths")
    phi3, _, _, x_hat, r_zero = _construction(n, phi3_scale)
    dim = 2 * n

    def split(z):
        return z[..., :dim], z[..., dim:]

    def phi3_doubled(z):
        x, y = split(z)
        return phi3(x, y)

    distances = []
    norms = []
    maximizers = []
    center = np.concatenate([x_hat, x_hat])
    half_width = 2.0
    for alpha in alphas:
        z_star = _grid_maximize(
            lambda axes, a=alpha: _objective_slabs(axes, x_hat, r_zero, a,
                                                   phi3_scale),
            center, half_width, n_levels=search_levels, pts=search_points)
        x_a, y_a = split(z_star)
        d = float(np.sqrt((_minimg(y_a - x_a) ** 2).sum()))
        distances.append(d)
        norms.append(_fd_hessian_norm(phi3_doubled, z_star))
        maximizers.append((x_a.copy(), y_a.copy()))
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
