"""Constructive inversion of the mixed-signature potential operator
square(f) = i(d+ dbar+ - d- dbar-) f on the periodic lattice.

The inversion works in frequency space: every discrete stencil is a
convolution, so each Fourier mode decouples.  A mode carrying a nonzero
plus-block frequency takes the plus form's least-squares estimate of
hat(f), every other mode the minus form's.  The data are accepted when
square(f) reproduces both blocks to the tolerance: on the modes where
both blocks apply, that is the agreement of the two answers (the
discrete shadow of the slice-correction bookkeeping in the analytic
construction).  Periodic harmonics are constants, so fixing the grid
mean of f to zero is a complete gauge.

Every stencil symbol is real and even, so the solver works on the
``rfftn`` half spectrum of real data.  A complex matrix entry is carried
as the half spectra of its real and imaginary parts, and a complex symbol
as its real and imaginary parts.  Only the entries with i <= j are read:
entry (j, i) is taken to be the conjugate of entry (i, j), so the blocks
must be Hermitian.

Every lattice quantity, the certificate's exact residuals and the cross
condition of ``compatibility_residual``, is read by the one block
stencil (``grid.hessian_block_values``).  The spectral symbols serve only
the inversion and the flow's step.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import scipy.fft

from .errors import IncompatibleData, NonzeroMeanObstruction
from .grid import (ScalarField, _block_slabs, _block_stencil, _l1_bound,
                   _require_hermitian, _slabs, hermitian_hessian, hessian_block_values,
                   hessian_symbols)

__all__ = [
    "SquareDecomposition",
    "square_operator",
    "solve_square",
    "compatibility_residual",
    "fgk_residual",
]

_symbol_cache = {}
_dense_cache = {}


class SquareDecomposition:
    """The zero-mean potential ``f`` with square(f) = (omega_plus, omega_minus).

    ``residual_plus`` and ``residual_minus`` are the max norms of
    ``square_operator(f)`` minus each block, over every (i, j) and (j, i)
    entry: they certify the lattice ``f`` that is returned, and they are
    what ``solve_square``'s tolerance bounds (its l1 bounds where those
    suffice, these exact values otherwise, read once).  The
    decomposition holds f and the two input blocks, and no spectrum; the
    first read of either residual applies the block stencil to f slab by
    slab (``grid._block_slabs``), with no transform, and computes both.
    The blocks are read then, not copied when solving.
    """

    kernel_note = ("zero grid mean; periodic harmonics are constants, "
                   "so the gauge is complete")

    def __init__(self, f, omega_plus, omega_minus):
        self.f = f
        self._blocks = omega_plus, omega_minus

    @functools.cached_property
    def _residuals(self):
        f, grid = self.f.values, self.f.grid
        residuals = []
        # the minus block stores -hess_minus f: |-h - w| is |h + w| exactly
        for omega, diff in zip(self._blocks, (np.subtract, np.add)):
            w = omega.values
            residuals.append(float(np.max([
                np.abs(diff(_block_stencil(np.ascontiguousarray(f[s]), grid, omega.block),
                            w if len(w) == 1 else w[s])).max()
                for s in _block_slabs(f, grid, omega.block)])))
        return tuple(residuals)

    @property
    def residual_plus(self):
        return self._residuals[0]

    @property
    def residual_minus(self):
        return self._residuals[1]


def square_operator(f):
    """Blocks of square(f): (hess_plus f, -hess_minus f).

    The minus block is stored so that its positivity means the potential
    is plurisuperharmonic relative to background in the minus variables.
    """
    plus, minus = hermitian_hessian(f, "plus"), hermitian_hessian(f, "minus")
    np.negative(minus.values, out=minus.values)
    return plus, minus


def _grid_symbols(grid):
    """``grid.hessian_symbols(grid)``, cached by (k, l, counts, spacings):
    (sym_plus, sym_minus), each a dict {(i, j): (re, im)} over i <= j of
    real symbols on the ``rfftn`` half spectrum."""
    key = (grid.k, grid.l, grid.n_points, grid.spacing)
    if key not in _symbol_cache:
        _symbol_cache[key] = hessian_symbols(grid)
    return _symbol_cache[key]


def _dft(n):
    """The n-point DFT matrix exp(-2 pi i jk / n), indexed by jk mod n into
    pocketfft's twiddles: exactly symmetric, and exact at the quarter turns."""
    k = np.arange(n)
    return np.fft.fft((k == 1).astype(float))[np.outer(k, k) % n]


def _dense_plan(shape):
    """The matrices of the dense transform pair on ``shape``, built once per
    shape, or None where ``scipy.fft`` is faster.

    A pair of axes (x_c, y_c) merges into one axis of P = n_x n_y points,
    on which the pair's 2-D DFT is one product by kron(F, F).  A dense
    pass costs about P complex multiply-adds per point, against a few
    passes of pocketfft per axis, so it is taken on a grid of at least
    three pairs of at most 64 points whose leading sizes plus half the
    last one stay within 32 per pair (the crossover table in CHANGES.md).
    The last pair's half spectrum kron(F, F[:h]) is applied to the real
    values as one real matrix whose columns interleave re and im, so that
    the product is a complex128 view; its inverse, which takes the real
    part and so counts every mode of the last axis but 0 and n/2 twice,
    is the real matrix of (re, im) rows.
    """
    if shape not in _dense_cache:
        sizes = [a * b for a, b in zip(shape[::2], shape[1::2])]
        plan = None
        if (len(sizes) >= 3 and max(sizes) <= 64
                and sum(sizes[:-1]) + sizes[-1] / 2 <= 32 * len(sizes)):
            (n1, n2), h = shape[-2:], shape[-1] // 2 + 1
            weight = np.full(h, 2.0 / n2)
            weight[0] = 1.0 / n2
            if n2 % 2 == 0:
                weight[-1] = 1.0 / n2
            fwd = np.kron(_dft(n1), _dft(n2)[:h])                          # (n1 h, n1 n2)
            inv = np.kron(_dft(n1).conj() / n1, _dft(n2)[:h].conj().T * weight)
            fwd_real = np.empty((n1 * n2, 2 * n1 * h))
            fwd_real[:, 0::2], fwd_real[:, 1::2] = fwd.real.T, fwd.imag.T
            inv_real = np.empty((2 * n1 * h, n1 * n2))
            inv_real[0::2], inv_real[1::2] = inv.real.T, -inv.imag.T
            lead = [np.kron(_dft(a), _dft(b)) for a, b in zip(shape[:-2:2], shape[1:-2:2])]
            plan = (fwd_real, inv_real, lead, [m.conj() / len(m) for m in lead])
        _dense_cache[shape] = plan
    return _dense_cache[shape]


def _lead_pairs(spec, mats):
    """Each leading pair's matrix (symmetric) on the first axis of ``spec``,
    which then moves to the end: (P0, ..., L) in, (L, P0, ...) out."""
    for m in mats:
        spec = spec.reshape(len(m), -1).T @ m
    return spec


def _rfftn(values):
    """``scipy.fft.rfftn(values)``: the same half spectrum, by dense pair
    products on the grids of ``_dense_plan``."""
    plan = _dense_plan(values.shape)
    if plan is None:
        return scipy.fft.rfftn(values)
    fwd, _, lead, _ = plan
    # non-finite values propagate silently, as in pocketfft
    with np.errstate(over="ignore", invalid="ignore"):
        spec = np.ascontiguousarray(values, dtype=np.float64).reshape(-1, len(fwd)) @ fwd
        spec = _lead_pairs(spec.view(np.complex128), lead)
    half = values.shape[:-1] + (values.shape[-1] // 2 + 1,)
    return np.ascontiguousarray(spec.reshape(fwd.shape[1] // 2, -1).T).reshape(half)


def _irfftn(spectrum, shape, consume=False):
    """``scipy.fft.irfftn(spectrum, s=shape)``, with its semantics (the
    imaginary part of the self-conjugate planes is ignored), by dense pair
    products on the grids of ``_dense_plan``.

    Off the dense plan the passes and the factor of ``irfftn`` are made
    one by one: the leading axes, then the last axis, then pocketfft's own
    factor, 1/N rounded from long double, so the bits are the same.  With
    ``consume`` the leading axes are transformed in the buffer of
    ``spectrum``, which is overwritten, where the multi-axis ``irfftn``
    allocates a workspace of its size whatever its ``overwrite_x``.
    """
    plan = _dense_plan(shape)
    if plan is None:
        # ifftn copies a non-contiguous input: use the array it returns
        lead = scipy.fft.ifftn(spectrum, axes=range(len(shape) - 1),
                               overwrite_x=consume, norm="forward")
        out = scipy.fft.irfft(lead, n=shape[-1], norm="forward")
        out *= np.float64(1 / np.longdouble(out.size))
        return out
    _, inv, _, lead = plan
    with np.errstate(over="ignore", invalid="ignore"):
        spec = _lead_pairs(np.ascontiguousarray(spectrum, dtype=np.complex128), lead)
        spec = np.ascontiguousarray(spec.reshape(len(inv) // 2, -1).T)
        return (spec.view(np.float64).reshape(-1, len(inv)) @ inv).reshape(shape)


def _upper_entries(omega):
    """{(i, j): omega[..., i, j]} for i <= j, a diagonal entry's real part
    only: the entries of a Hermitian block that are read."""
    m = omega.values.shape[-1]
    return {(i, j): omega.values[..., i, j].real if i == j else omega.values[..., i, j]
            for i in range(m) for j in range(i, m)}


def _entry_spectra(omega):
    """{(i, j): (rfftn of Re omega_ij, rfftn of Im omega_ij)} over
    ``_upper_entries``; a diagonal entry's imaginary part is None."""
    shape = omega.grid.shape
    return {(i, j): (_rfftn(np.broadcast_to(w.real, shape)),
                     None if i == j else _rfftn(np.broadcast_to(w.imag, shape)))
            for (i, j), w in _upper_entries(omega).items()}


def _times(sym, hat):
    """(re, im) of sym * hat for a symbol pair (re, im), None being zero,
    and the half spectrum ``hat`` of a real field."""
    r, i = sym
    return r * hat, None if i is None else i * hat


def _plus(x, y):
    """Sum of two (re, im) pairs, added into x's parts; None is zero."""
    return tuple(u if v is None else v if u is None else np.add(u, v, out=u)
                 for u, v in zip(x, y))


def _cut(pairs, index):
    """{(i, j): (re, im)} at ``index``, as views: a slab of the first axis,
    where a part of length 1 (a broadcast symbol) is passed through uncut,
    or a point of the leading axes."""
    return {ij: tuple(x if x is None or (len(x) == 1 and isinstance(index, slice))
                      else x[index] for x in pair)
            for ij, pair in pairs.items()}


def _check_blocks(omega_plus, omega_minus):
    """The blocks' scale max(max |values|, 1), after checking that they
    are a plus and a minus block on one grid, finite and Hermitian
    (ValueError)."""
    if (omega_plus.block, omega_minus.block) != ("plus", "minus"):
        raise ValueError(f"blocks must be (plus, minus), got "
                         f"({omega_plus.block}, {omega_minus.block})")
    if omega_minus.grid != omega_plus.grid:
        raise ValueError("blocks must share one grid")
    return float(np.max([_require_hermitian(omega_plus.values, "plus"),
                         _require_hermitian(omega_minus.values, "minus"), 1.0]))


@np.errstate(over="ignore", invalid="ignore")
def compatibility_residual(omega_plus, omega_minus):
    """Max norm of the cross condition, over every tuple (a, b, c, d) of
    hess_minus(omega_plus[a, b])[c, d] + hess_plus(omega_minus[c, d])[a, b]:
    zero to roundoff for formally generalized Kahler blocks.  Read on the
    lattice by the one block stencil (``grid.hessian_block_values``), from
    the entries that the solver reads (``_upper_entries``), entry (j, i)
    being the conjugate of (i, j).
    Tuple (b, a, d, c) is the conjugate of (a, b, c, d), so only a <= b is
    evaluated: the plus Hessians of the minus entries are held, and one
    minus Hessian is built at a time.  A diagnostic of the data:
    ``solve_square`` does not read it, since square(f) = omega to its
    tolerance implies the cross condition to that tolerance times the
    stencils' size.  The blocks are checked as by ``solve_square``
    (ValueError); a stencil that overflows on finite blocks near the
    float maximum makes an inf or NaN, which propagates silently into the
    value."""
    _check_blocks(omega_plus, omega_minus)
    grid = omega_plus.grid
    held = {cd: hessian_block_values(w, grid, "plus")
            for cd, w in _upper_entries(omega_minus).items()}
    maxima = [0.0]
    for (a, b), w in _upper_entries(omega_plus).items():
        minus = hessian_block_values(w, grid, "minus")
        for c in range(grid.l):
            for d in range(grid.l):
                plus = held[c, d][..., a, b] if c <= d else held[d, c][..., b, a].conj()
                maxima.append(np.abs(minus[..., c, d] + plus).max())
    return float(np.max(maxima))


fgk_residual = compatibility_residual


def _estimate_weights(sym, sign):
    """{(i, j): (w re, w im)}, the weights of one block's least-squares
    mode estimate of hat(f): sum over i <= j of the weights times the
    entry spectra (``_estimate``).

    Per mode, the estimate is sum_ij conj(s_ij) hat(omega_ij) / sum_ij
    |s_ij|^2 with the symbols scaled by ``sign``.  The pair (i, j), (j, i)
    with s = R + iI and hat(omega) = A + iB contributes 2(RA + IB) above
    and 2(R^2 + I^2) below.  The weights are zero where the denominator
    vanishes, which is exactly where the block frequency is zero.

    The sums run on the symbols times c, the power of two that brings
    their largest magnitude into [1/2, 1), and the weights are scaled back
    by c: exact, so the weights are the unscaled ones wherever those are
    representable, and |s_ij|^2 neither underflows nor overflows on grids
    whose spacings are far from 1.
    """
    top = max(float(np.abs(x).max()) for pair in sym.values() for x in pair if x is not None)
    c = math.ldexp(1.0, -math.frexp(top)[1])
    sym = {ij: tuple(None if x is None else c * x for x in pair) for ij, pair in sym.items()}
    den = 0.0
    for (i, j), (r, im) in sym.items():
        den = den + (r * r if i == j else 2.0 * (r * r + im * im))
    inv = np.divide(sign, den, out=np.zeros_like(den), where=den > 0.0)
    return {(i, j): tuple(None if x is None else (inv if i == j else 2.0 * inv) * x * c
                          for x in (r, im))
            for (i, j), (r, im) in sym.items()}


def _estimate(hats, weights):
    """sum over the entries of weights times entry spectra, in entry
    order, each entry's (re, im) pair summed first."""
    est = None
    for ij, (a, b) in hats.items():
        wr, wi = weights[ij]
        term = a * wr
        if b is not None:
            term += b * wi
        est = term if est is None else np.add(est, term, out=est)
    return est


@np.errstate(over="ignore", invalid="ignore")
def _residual_pass(hat_p, hat_m, sym_plus, sym_minus, grid):
    """(hat(f), [plus bound, minus bound]) in one pass over the half
    spectrum, slab by slab along its first axis (``grid._slabs``).

    hat(f) is the plus estimate, and the minus estimate on the slice where
    the plus frequency is zero, the plus-invisible modes.  Each block's
    bound is the max over its entries (i <= j) of ``grid._l1_bound`` of the
    residual spectrum, r_plus = hat(omega_plus) - s_plus hat(f) and
    r_minus = hat(omega_minus) + s_minus hat(f) (the minus block stores
    -hess_minus f), summed over the slabs: it bounds the max norm of
    square(f) - omega on that block.  The residuals are built in the entry
    spectra, which the pass consumes, and hat(f) is written into the plus
    (0, 0) entry's buffer.  An entry spectrum that overflowed makes a NaN
    or inf bound.
    """
    weights_p, weights_m = _estimate_weights(sym_plus, 1.0), _estimate_weights(sym_minus, -1.0)
    zero_p = (0,) * (2 * grid.k)                 # in the first slab
    f_hat = hat_p[0, 0][0]
    sums = dict.fromkeys(hat_p, 0.0), dict.fromkeys(hat_m, 0.0)
    for slab in _slabs(len(f_hat), f_hat.size):
        hp, hm, sp, sm = (_cut(pairs, slab) for pairs in (hat_p, hat_m, sym_plus, sym_minus))
        est = _estimate(hp, _cut(weights_p, slab))
        if slab.start == 0:
            est[zero_p] = _estimate(_cut(hm, zero_p), _cut(weights_m, zero_p))
        for total, hats, sym, f_part in ((sums[0], hp, sp, -est), (sums[1], hm, sm, est)):
            for ij, pair in hats.items():
                total[ij] += _l1_bound(_plus(pair, _times(sym[ij], f_part)), grid.shape)
        f_hat[slab] = est
    return f_hat, [max(total.values()) for total in sums]


def solve_square(omega_plus, omega_minus, tol_compat=1e-8):
    """Invert square(f) = omega for the zero-mean potential f.

    f is the least-squares solution mode by mode: each block's estimate
    of hat(f), the plus one wherever the plus frequency is nonzero.  It is
    returned when square(f) = omega to ``tol_compat`` times the blocks'
    scale max(max |omega|, 1), in max norm on each block: that one
    certificate covers the cross condition, each block's content where its
    symbols vanish, the two estimates' agreement where both blocks'
    frequencies are nonzero, and each block's closedness in its own
    variables.  A block passes on its spectral l1 bound
    (``_residual_pass``); otherwise the solve decides on the exact lattice
    residuals (``SquareDecomposition._residuals``, which are then cached)
    and raises IncompatibleData naming the first block beyond the
    tolerance, with its exact residual.  A non-finite bound or f raises
    IncompatibleData at once.  NonzeroMeanObstruction is raised first when
    a block mean is not representable (constants are class data, not
    potential data).

    The symbols are the exact Fourier multipliers of the stencils, so the
    spectral evaluations agree with the direct ones to roundoff.  Only
    the entries with i <= j of each block are read, so a block that is
    not Hermitian raises ValueError, as do blocks that are not a plus and
    a minus block on one grid.

    The solver holds the half spectra of the entries and no full-size
    temporary beside them: the estimates, the residuals and their bounds
    are made slab by slab, hat(f) is written into the plus (0, 0) entry's
    spectrum, and f's inverse transform works in hat(f)'s buffer.
    """
    scale = _check_blocks(omega_plus, omega_minus)
    grid = omega_plus.grid
    tol = tol_compat * scale

    hat_p = _entry_spectra(omega_plus)
    hat_m = _entry_spectra(omega_minus)
    # the zero mode of each entry (i, j) and (j, i) is N times its mean; one
    # that overflowed is left to the residual bound, which it makes non-finite
    zero = (0,) * grid.real_dim
    mean = np.max([abs(a[zero] + s * (0.0 if b is None else b[zero]))
                   for hats in (hat_p, hat_m) for a, b in hats.values() for s in (1j, -1j)])
    if mean > tol * grid.size and np.isfinite(mean):
        raise NonzeroMeanObstruction(
            "block mean is not in the image of the potential operator; "
            "handle constants as the class representative")

    f_hat, bounds = _residual_pass(hat_p, hat_m, *_grid_symbols(grid), grid)
    del hat_p, hat_m
    names = "plus", "minus"
    for name, bound in zip(names, bounds):
        if not np.isfinite(bound):
            raise IncompatibleData(_refusal(name, bound, tol))
    values = _irfftn(f_hat, grid.shape, consume=True)
    try:
        f = ScalarField(grid, values)
    except ValueError:                           # a transform that overflowed
        raise IncompatibleData("potential is not finite: its inverse transform "
                               "overflowed") from None
    dec = SquareDecomposition(f, omega_plus, omega_minus)
    if max(bounds) > tol:
        for name, residual in zip(names, dec._residuals):
            if not residual <= tol:
                raise IncompatibleData(_refusal(name, residual, tol))
    return dec


def _refusal(name, residual, tol):
    return f"{name} block residual {residual:.3e} exceeds tolerance {tol:.3e}"
