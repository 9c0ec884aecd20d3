"""Constructive inversion of the mixed-signature potential operator
square(f) = i(d+ dbar+ - d- dbar-) f on the periodic lattice.

The inversion works in frequency space: every discrete stencil is a
convolution, so each Fourier mode decouples.  Modes carrying a nonzero
plus-block frequency are determined by the plus form, modes carrying a
nonzero minus-block frequency by the minus form; where both apply the two
answers must agree (the discrete shadow of the slice-correction
bookkeeping in the analytic construction).  Periodic harmonics are
constants, so fixing the grid mean of f to zero is a complete gauge.

Every stencil symbol is real and even, so the solver works on the
``rfftn`` half spectrum of real data.  A complex matrix entry is carried
as the half spectra of its real and imaginary parts, and a complex symbol
as its real and imaginary parts.  Only the entries with i <= j are read:
entry (j, i) is taken to be the conjugate of entry (i, j), so the blocks
must be Hermitian.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .errors import IncompatibleData, NonzeroMeanObstruction
from .forms import fgk_residual
from .grid import (HermitianMatrixField, ScalarField, _require_hermitian,
                   hermitian_hessian, hessian_symbols)

__all__ = [
    "SquareDecomposition",
    "square_operator",
    "solve_square",
    "compatibility_residual",
]

_symbol_cache = {}

#: max norm of the fourth-order cross condition the inversion needs
compatibility_residual = fgk_residual


@dataclass
class SquareDecomposition:
    f: ScalarField
    residual_plus: float
    residual_minus: float
    kernel_note: str

    def __post_init__(self):
        if self.residual_plus < 0 or self.residual_minus < 0:
            raise ValueError("residuals are max norms, must be >= 0")


def square_operator(f):
    """Blocks of square(f): (hess_plus f, -hess_minus f).

    The minus block is stored so that its positivity means the potential
    is plurisuperharmonic relative to background in the minus variables.
    """
    plus = hermitian_hessian(f, "plus")
    minus_vals = -hermitian_hessian(f, "minus").values
    return plus, HermitianMatrixField(f.grid, "minus", minus_vals, check=False)


def _grid_symbols(grid):
    """``grid.hessian_symbols(grid)``, cached by (k, l, counts, spacings):
    (sym_plus, sym_minus), each a dict {(i, j): (re, im)} over i <= j of
    real symbols on the ``rfftn`` half spectrum."""
    key = (grid.k, grid.l, grid.n_points, grid.spacing)
    if key not in _symbol_cache:
        _symbol_cache[key] = hessian_symbols(grid)
    return _symbol_cache[key]


def _entry_spectra(omega):
    """(rfftn of Re omega_ij, rfftn of Im omega_ij) for every i <= j.

    The diagonal of a Hermitian block is real, so its imaginary part is
    not transformed (None).
    """
    m = omega.values.shape[-1]
    out = {}
    for i in range(m):
        for j in range(i, m):
            entry = np.broadcast_to(omega.values[..., i, j], omega.grid.shape)
            out[i, j] = (scipy.fft.rfftn(entry.real),
                         None if i == j else scipy.fft.rfftn(entry.imag))
    return out


def _entry(pairs, i, j):
    """Entry (i, j) of a Hermitian matrix stored as {(i, j): (re, im)}
    over i <= j; entry (j, i) is the conjugate."""
    if i <= j:
        return pairs[i, j]
    re, im = pairs[j, i]
    return re, (None if im is None else -im)


def _times(sym, hat):
    """(re, im) of sym * hat for pairs (re, im) of real parts; None is zero.

    (R + iI)(A + iB) = (RA - IB) + i(IA + RB), and every product with a
    zero factor is skipped.
    """
    (r, i), (a, b) = sym, hat
    re = r * a
    im = None if i is None else i * a
    if b is not None:
        if i is not None:
            re -= i * b
        im = r * b if im is None else im + r * b
    return re, im


def _plus(x, y):
    """Sum of two (re, im) pairs; None is zero."""
    return tuple(u if v is None else v if u is None else u + v
                 for u, v in zip(x, y))


def _block_estimate(hats, sym, sign):
    """Least-squares mode estimate of hat(f) from one block.

    Per mode, sum_ij conj(s_ij) hat(omega_ij) / sum_ij |s_ij|^2 with the
    symbols scaled by ``sign``.  The pair (i, j), (j, i) with s = R + iI
    and hat(omega) = A + iB contributes 2(RA + IB) above and 2(R^2 + I^2)
    below.  The estimate is zero where the denominator vanishes, which is
    exactly where the block frequency is zero.
    """
    den = 0.0
    for (i, j), (r, im) in sym.items():
        den = den + (r * r if i == j else 2.0 * (r * r + im * im))
    inv = np.divide(sign, den, out=np.zeros_like(den), where=den > 0.0)
    est = None
    for (i, j), (r, im) in sym.items():
        a, b = hats[i, j]
        w = inv if i == j else 2.0 * inv
        term = (w * r) * a
        if b is not None:
            term += (w * im) * b
        if est is None:
            est = term
        else:
            est += term
    return est


def _zero_block_content(hats, index):
    """Per-mode max over all (i, j) of |hat(omega_ij)| on ``index``.

    On the half spectrum the pair (i, j), (j, i) contributes |A + iB| and
    |A - iB|, which covers the mirrored modes of the full spectrum.
    """
    content = 0.0
    for a, b in hats.values():
        a = a[index]
        if b is None:
            c = np.abs(a)
        else:
            b = 1j * b[index]
            c = np.maximum(np.abs(a + b), np.abs(a - b))
        content = np.maximum(content, c)
    return content


def solve_square(omega_plus, omega_minus, tol_compat=1e-8):
    """Invert square(f) = omega for the zero-mean potential f.

    Raises IncompatibleData when the cross condition or the overlap
    consistency fails, NonzeroMeanObstruction when a block mean is not
    representable (constants are class data, not potential data).

    All checks run in frequency space; the symbols are the exact Fourier
    multipliers of the stencils, so the spectral evaluations agree with
    the direct ones to roundoff.  Only the entries with i <= j of each
    block are read, so a block that is not Hermitian raises ValueError.
    """
    grid = omega_plus.grid
    if omega_minus.grid != grid:
        raise ValueError("blocks must share one grid")
    scale = max(_require_hermitian(omega_plus.values, omega_plus.block),
                _require_hermitian(omega_minus.values, omega_minus.block), 1.0)

    def to_lattice(pair):
        """The lattice field whose real and imaginary parts have the half
        spectra ``pair`` (a None part is zero)."""
        re, im = (None if p is None else scipy.fft.irfftn(p, s=grid.shape)
                  for p in pair)
        return re if im is None else re + 1j * im

    sym_plus, sym_minus = _grid_symbols(grid)
    hat_p = _entry_spectra(omega_plus)
    hat_m = _entry_spectra(omega_minus)

    # cross condition hess_minus(w+[a,b])[c,d] + hess_plus(w-[c,d])[a,b],
    # spectrally; tuple (b, a, d, c) is the conjugate of (a, b, c, d), so
    # only the smaller of the two is evaluated
    compat = 0.0
    for a, b, c, d in itertools.product(range(grid.k), range(grid.k),
                                        range(grid.l), range(grid.l)):
        if (a, b, c, d) > (b, a, d, c):
            continue
        r_hat = _plus(_times(_entry(sym_minus, c, d), _entry(hat_p, a, b)),
                      _times(_entry(sym_plus, a, b), _entry(hat_m, c, d)))
        compat = max(compat, float(np.abs(to_lattice(r_hat)).max()))
    if compat > tol_compat * scale:
        raise IncompatibleData(
            f"cross compatibility residual {compat:.3e} exceeds tolerance "
            f"{tol_compat * scale:.3e}")

    npts = grid.size
    mean_tol = tol_compat * scale * npts
    n_plus = 2 * grid.k
    zero_p = (0,) * n_plus                       # plus frequency zero
    zero_m = (slice(None),) * n_plus + (0,) * (grid.real_dim - n_plus)
    content_p = _zero_block_content(hat_p, zero_p)
    content_m = _zero_block_content(hat_m, zero_m)
    # the zero mode is the first element of either slice
    if content_p.flat[0] > mean_tol or content_m.flat[0] > mean_tol:
        raise NonzeroMeanObstruction(
            "block mean is not in the image of the potential operator; "
            "handle constants as the class representative")

    # plus form content on modes invisible to the plus stencil (and dually)
    stray = max(float(content_p.max()), float(content_m.max()))
    if stray > mean_tol:
        raise IncompatibleData(
            "block data varies across slices where its stencil has no reach "
            f"(stray content {stray / npts:.3e} per point)")

    # the minus block stores -hess_minus f, so negate its symbols
    f_hat = _block_estimate(hat_p, sym_plus, 1.0)
    est_m = _block_estimate(hat_m, sym_minus, -1.0)
    del hat_p, hat_m
    # plus-invisible modes come from the minus form; both vanish at zero
    f_hat[zero_p] = est_m[zero_p]
    # overlap frequencies (both blocks nonzero) must agree
    est_m -= f_hat
    est_m[zero_m] = 0.0
    mismatch = float(np.abs(est_m).max()) / npts
    del est_m
    if mismatch > tol_compat * scale:
        raise IncompatibleData(
            f"plus/minus determinations disagree on overlap frequencies "
            f"({mismatch:.3e} per point)")

    f = ScalarField(grid, to_lattice((f_hat, None)))

    # residuals of the re-applied operator, spectrally (exact symbols),
    # against both the (i, j) and the (j, i) stored entries
    residuals = []
    for omega, sym, hat in ((omega_plus, sym_plus, f_hat),
                            (omega_minus, sym_minus, -f_hat)):
        res = 0.0
        for (i, j), s in sym.items():
            back = to_lattice(_times(s, (hat, None)))
            res = max(res, float(np.abs(back - omega.values[..., i, j]).max()))
            if i != j:
                res = max(res, float(np.abs(
                    back.conj() - omega.values[..., j, i]).max()))
        residuals.append(res)
    return SquareDecomposition(
        f=f,
        residual_plus=residuals[0],
        residual_minus=residuals[1],
        kernel_note=("zero grid mean; periodic harmonics are constants, "
                     "so the gauge is complete"),
    )
