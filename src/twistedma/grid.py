"""Periodic bicomplex lattices, fields on them, and split Hessian stencils.

A grid factors the flat torus into a "plus" block of k complex dimensions
and a "minus" block of l complex dimensions (2k + 2l real axes in total).
Axis layout is row-major with the plus block first; within each complex
dimension the real axis precedes the imaginary one:

    axis 2i     -> Re z_+^i        (i = 0..k-1)
    axis 2i+1   -> Im z_+^i
    axis 2k+2j  -> Re z_-^j        (j = 0..l-1)
    axis 2k+2j+1-> Im z_-^j

All stencils are second-order central differences with periodic wrap, so
their restriction to quadratics is exact; the jet-based viscosity checkers
rely on this.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import NotAdmissible

__all__ = [
    "BicomplexGrid",
    "ScalarField",
    "HermitianMatrixField",
    "hermitian_hessian",
    "det_plus",
    "min_eigenvalue",
    "save_field",
    "load_field",
    "export_csv",
]

#: scale-aware positive-definiteness gate (relative to 1 + trace norm)
PD_GATE = 1e-12

#: points per slab of ``hessian_block_values`` (see its docstring) and of
#: the potential solver's spectral passes; chosen from a sweep of slab
#: sizes on 32^4 and 4^8 grids recorded in CHANGES.md
_SLAB_POINTS = 2 ** 14


def _slabs(n, size):
    """Slices of an axis of length n of an array of ``size`` points, each
    holding about ``_SLAB_POINTS`` points (at least one index)."""
    width = max(1, _SLAB_POINTS * n // size)
    return [slice(start, start + width) for start in range(0, n, width)]


_MAGIC = b"TMAF"
_VERSION = 2
#: the most points per axis a header stores: each count is a uint16
_MAX_COUNT = 0xFFFF


@dataclass(frozen=True)
class BicomplexGrid:
    """Periodic rectangular lattice split into plus/minus complex blocks."""

    k: int
    l: int
    n_points: tuple[int, ...]
    spacing: tuple[float, ...]

    def __post_init__(self):
        dims = np.asarray((self.k, self.l))
        if not (dims.dtype.kind in "iuf" and np.all(np.isin(dims, (1, 2)))):
            raise ValueError("block dimensions k, l must be 1 or 2 (desk scale), "
                             f"got k={self.k!r}, l={self.l!r}")
        counts, spacing = tuple(self.n_points), tuple(map(float, self.spacing))
        n_axes = 2 * self.k + 2 * self.l
        if len(counts) != n_axes or len(spacing) != n_axes:
            raise ValueError(f"expected {n_axes} axes, got "
                             f"{len(counts)} counts / {len(spacing)} spacings")
        arr = np.asarray(counts)
        if not (arr.dtype.kind in "iuf"
                and np.all(np.isfinite(arr) & (arr >= 4) & (arr % 2 == 0))):
            raise ValueError(f"every axis needs an even integer count >= 4, got {counts}")
        counts = tuple(int(n) for n in arr)
        # the stencils divide by h^2, and coordinates stay far from overflow
        if not all(0 < h and 0 < h * h < np.inf and 1.0 / (h * h) < np.inf
                   for h in spacing):
            raise ValueError(f"spacings must be positive with finite h^2 and 1/h^2, got {spacing}")
        # ints and tuples keep the grid hashable, its shape a tuple and its
        # block axes valid indices
        object.__setattr__(self, "k", int(self.k))
        object.__setattr__(self, "l", int(self.l))
        object.__setattr__(self, "n_points", counts)
        object.__setattr__(self, "spacing", spacing)

    @classmethod
    def regular(cls, k, l, n, period=2.0 * np.pi):
        """Grid with ``n`` points and the given period on every axis."""
        n = (n,) * (2 * k + 2 * l) if np.isscalar(n) else tuple(n)
        # the constructor checks the counts, a zero one too
        return cls(k, l, n, tuple(period / v if v else period for v in n))

    @property
    def shape(self):
        return self.n_points

    @property
    def size(self):
        return int(np.prod(self.n_points))

    @property
    def real_dim(self):
        return 2 * self.k + 2 * self.l

    def block_dim(self, block):
        return self.k if block == "plus" else self.l

    def block_axes(self, block):
        """(real_axis, imag_axis) pairs of the chosen block's complex dims."""
        if block == "plus":
            return [(2 * i, 2 * i + 1) for i in range(self.k)]
        if block == "minus":
            return [(2 * self.k + 2 * j, 2 * self.k + 2 * j + 1) for j in range(self.l)]
        raise ValueError(f"unknown block {block!r}")

    def axis_coords(self, axis):
        return np.arange(self.n_points[axis]) * self.spacing[axis]

    def period(self, axis):
        return self.n_points[axis] * self.spacing[axis]


@dataclass
class ScalarField:
    """One real value per lattice point (value semantics)."""

    grid: BicomplexGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != self.grid.shape:
            raise ValueError(f"values shape {self.values.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("scalar field contains non-finite values")

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros(grid.shape))

    def copy(self):
        return ScalarField(self.grid, self.values.copy())

    def mean(self):
        return float(self.values.mean())


def _finite(grid, values, what, t):
    """ScalarField of ``values``; NotAdmissible at the first non-finite point."""
    finite = np.isfinite(values)
    if not finite.all():
        point = tuple(int(i) for i in np.unravel_index(int(np.argmin(finite)), finite.shape))
        raise NotAdmissible(f"{what} is not finite at point {point}, t={t:.6g}", point=point)
    return ScalarField(grid, values)


def _block_dtype(m, values):
    """float64 for a real 1x1 block, which is a real number; complex128
    for a complex one and for every m = 2 block."""
    return np.float64 if m == 1 and not np.iscomplexobj(values) else np.complex128


def _require_hermitian(values, block):
    """max |values|, after checking that it is finite and that every entry
    (j, i) is the conjugate of (i, j) to within 1e-12 (1 + max |values|);
    ValueError otherwise.  On the diagonal the deviation is 2 |Im v_ii|,
    read without a temporary.  A real 1x1 block is Hermitian by type, and
    its peak is read as max(max v, -min v), without a |values| array; a
    complex block's entry by entry, with one entry's |v_ij| at a time.  A
    NaN anywhere makes the peak NaN."""
    m = values.shape[-1]
    real = m == 1 and not np.iscomplexobj(values)
    peak = float(np.maximum(values.max(), -values.min()) if real
                 else np.max([np.abs(values[..., i, j]).max()
                              for i in range(m) for j in range(m)]))
    if not np.isfinite(peak):
        raise ValueError(f"{block} block is not finite (max |value| {peak})")
    if real:
        return peak
    for i, j in itertools.combinations_with_replacement(range(m), 2):
        if i == j:
            im = values[..., i, i].imag
            dev = 2.0 * max(im.max(), -im.min())
        else:
            dev = np.abs(values[..., i, j] - values[..., j, i].conj()).max()
        if dev > 1e-12 * (1.0 + peak):
            raise ValueError(f"{block} block is not Hermitian at entry "
                             f"({i}, {j}) (deviation {dev:.3e})")
    return peak


@dataclass
class HermitianMatrixField:
    """One small Hermitian matrix per lattice point for one block: ``values`` has
    shape ``grid.shape + (m, m)`` or, if constant in space, ``(1,) * real_dim + (m, m)``.

    A real m = 1 block is stored as float64; a complex m = 1 block and
    every m = 2 block as complex128.
    """

    grid: BicomplexGrid
    block: str
    values: np.ndarray
    check: bool = field(default=True, repr=False)

    def __post_init__(self):
        m = self.grid.block_dim(self.block)
        self.values = np.asarray(self.values, dtype=_block_dtype(m, self.values))
        full, const = self.grid.shape + (m, m), (1,) * self.grid.real_dim + (m, m)
        if self.values.shape not in (full, const):
            raise ValueError(f"values shape {self.values.shape} is neither {full} nor {const}")
        if self.check:
            _require_hermitian(self.values, self.block)

    @classmethod
    def constant(cls, grid, block, matrix):
        m = grid.block_dim(block)
        matrix = np.array(matrix, dtype=_block_dtype(m, matrix))
        return cls(grid, block, matrix.reshape((1,) * grid.real_dim + (m, m)))

    @classmethod
    def zeros(cls, grid, block):
        return cls.constant(grid, block, np.zeros((grid.block_dim(block),) * 2))


# ---------------------------------------------------------------------------
# stencils

_TERMS = {}


def _hessian_terms(grid, block):
    """The one statement of the block Hessian: ((i, j), terms), i <= j.

    Entry (i, j) is 1/4 [(D_{x_i x_j} + D_{y_i y_j}) + i (D_{x_i y_j} - D_{y_i x_j})]
    and entry (j, i) its conjugate.  A term (part, a, b, w) adds w * D_ab to
    the real (0) or imaginary (1) part; terms sharing the axis a are
    adjacent.  The lattice stencil and the spectral symbols are generated
    from this table, cached by (k, l, block) since it ignores the spacing.
    """
    key = (grid.k, grid.l, block)
    if key not in _TERMS:
        axes = grid.block_axes(block)
        table = []
        for i, (xi, yi) in enumerate(axes):
            for j, (xj, yj) in enumerate(axes[i:], i):
                terms = ((0, xi, xj, 0.25), (1, xi, yj, 0.25),
                         (0, yi, yj, 0.25), (1, yi, xj, -0.25))
                table.append(((i, j), terms[::2] if i == j else terms))
        _TERMS[key] = tuple(table)
    return _TERMS[key]


def _symbol(theta, spacing, a, b):
    """Fourier symbol of D_ab, theta[a] being the angles of axis a.  On the
    lattice D_aa is ``_same_axis`` / h_a^2, D_ab ``_centred`` along a and b / (4 h_a h_b)."""
    if a == b:
        return -4.0 * np.sin(theta[a] / 2.0) ** 2 / (spacing[a] * spacing[a])
    return -np.sin(theta[a]) * np.sin(theta[b]) / (spacing[a] * spacing[b])


def hessian_symbols(grid):
    """Per-entry Fourier symbols of the two block Hessian stencils.

    Returns (sym_plus, sym_minus), each a dict {(i, j): (re, im)} over
    i <= j, summed over the ``_hessian_terms`` table.  Entry (i, j) of
    ``hermitian_hessian(., block)`` has the symbol re + 1j*im and entry
    (j, i) has re - 1j*im, so that
    hat(hess u)[xi]_{ij} = sym[xi]_{ij} * hat(u)[xi].  re and im are real
    float64 arrays on the ``rfftn`` half spectrum (every symbol is real
    and even), kept in broadcastable form (length 1 on the axes of the
    other block); im is None on the diagonal.
    """
    # broadcastable angles per axis; the last axis is halved
    *lead, last = grid.n_points
    theta = np.meshgrid(*(2.0 * np.pi * np.fft.fftfreq(n) for n in lead),
                        2.0 * np.pi * np.fft.rfftfreq(last), indexing="ij", sparse=True)
    out = []
    for block in ("plus", "minus"):
        sym = {}
        for ij, terms in _hessian_terms(grid, block):
            parts = [None, None]
            for part, a, b, w in terms:
                s = w * _symbol(theta, grid.spacing, a, b)
                parts[part] = s if parts[part] is None else parts[part] + s
            sym[ij] = tuple(parts)
        out.append(sym)
    return tuple(out)


def _l1_bound(pair, shape):
    """(1/N) sum over the full spectrum of |Re-part spectrum| + |Im-part
    spectrum|, which bounds the max norm of the lattice field whose real
    and imaginary parts have the ``rfftn`` half spectra ``pair`` (a None
    part is zero; a real field passes its one spectrum).  On the half
    spectrum a mode counts twice, except the last axis' index 0 and, for
    an even count, n/2: 2 sum |p| - sum |p[..., 0]| - sum |p[..., n/2]|,
    each a whole-array sum."""
    total = 0.0
    for p in pair:
        if p is not None:
            a = np.abs(p)
            total += float(2.0 * a.sum() - a[..., 0].sum()
                           - (a[..., -1].sum() if shape[-1] % 2 == 0 else 0.0))
    return total / np.prod(shape)


def _shift(values, axis, step):
    """Periodic shift: out[..., i, ...] = values[..., i + step, ...], step = +-1."""
    cut, lead = step % values.shape[axis], (slice(None),) * (axis % values.ndim)
    return np.concatenate((values[lead + (slice(cut, None),)],
                           values[lead + (slice(None, cut),)]), axis=axis)


def _same_axis(values, axis, scale):
    """scale * (S+ v + S- v - 2 v) along one periodic axis (three-point)."""
    d = _shift(values, axis, 1)
    d += _shift(values, axis, -1)
    d -= values
    d -= values
    d *= scale
    return d


def _centred(values, axis, scale=None):
    """scale * (S+ v - S- v) along one periodic axis (unscaled if None)."""
    d = _shift(values, axis, 1)
    d -= _shift(values, axis, -1)
    if scale is not None:
        d *= scale
    return d


def _block_stencil(values, grid, block):
    """The ``_hessian_terms`` loop on real ``values``: the whole grid, or a
    slab of it along axes the block's stencil does not couple.  The
    output is sized from ``values``."""
    h, m = grid.spacing, grid.block_dim(block)
    if m > 1:
        out = np.empty(values.shape + (m, m), dtype=np.complex128)
    for (i, j), terms in _hessian_terms(grid, block):
        parts, c_axis = [None, None], None
        for part, a, b, w in terms:
            if a == b:
                d = _same_axis(values, a, w / (h[a] * h[a]))
            else:
                if a != c_axis:
                    c, c_axis = _centred(values, a), a
                d = _centred(c, b, 0.25 * w / (h[a] * h[b]))
            acc = parts[part]
            parts[part] = d if acc is None else np.add(acc, d, out=acc)
        re, im = parts
        if m == 1:
            # the one real entry is the output
            return re[..., None, None]
        out[..., i, j].real = re
        out[..., i, j].imag = 0.0 if im is None else im
        if i != j:
            out[..., j, i].real = re
            np.negative(im, out=out[..., j, i].imag)
    return out


def _block_slabs(values, grid, block):
    """Index tuples of the slabs of real ``values`` that the block's
    stencil is applied to one by one: ``_slabs`` along the other block's
    first axis, which the stencil never couples."""
    axis = grid.block_axes("minus" if block == "plus" else "plus")[0][0]
    return [(slice(None),) * axis + (cut,)
            for cut in _slabs(values.shape[axis], values.size)]


def hessian_block_values(values, grid, block):
    """Raw (shape + (m, m)) array of the discrete i del delbar Hessian.

    Evaluates the ``_hessian_terms`` table one entry at a time: each part
    accumulates in place, the centred difference along a is taken once
    per entry and shifted along b for each mixed D_ab, and the weights are
    folded into the stencil scales.  Entry (j, i) of real values is the
    exact conjugate of (i, j); complex values are stencilled part by part.
    The output has ``HermitianMatrixField``'s dtype: float64 for real
    values and m = 1, complex128 otherwise.

    An array of more than ``_SLAB_POINTS`` points is evaluated slab by
    slab (``_block_slabs``), which keeps the passes of each entry in
    cache.  Every point gets the same operations in the same order, so
    the output is bitwise that of one whole pass.
    """
    if np.iscomplexobj(values):
        out = hessian_block_values(values.real, grid, block).astype(np.complex128, copy=False)
        out += 1j * hessian_block_values(values.imag, grid, block)
        return out
    if values.size <= _SLAB_POINTS:
        return _block_stencil(values, grid, block)
    m = grid.block_dim(block)
    out = np.empty(values.shape + (m, m), dtype=_block_dtype(m, values))
    for slab in _block_slabs(values, grid, block):
        out[slab] = _block_stencil(np.ascontiguousarray(values[slab]), grid, block)
    return out


def hermitian_hessian(u, block):
    """Discrete block complex Hessian of a scalar field (the entries are
    stated in ``_hessian_terms``); Hermitian by construction."""
    if not isinstance(u, ScalarField):
        raise TypeError("hermitian_hessian expects a ScalarField")
    vals = hessian_block_values(u.values, u.grid, block)
    return HermitianMatrixField(u.grid, block, vals, check=False)


# ---------------------------------------------------------------------------
# pointwise Hermitian matrix kernels: closed forms for m in {1, 2}, the
# only block sizes a grid allows

def _half_disc(a, d, b2):
    """(a + d) / 2 and sqrt(((a - d) / 2)^2 + b2): the eigenvalues of
    [[a, b], [conj b, d]], b2 = |b|^2, are half -+ disc."""
    half = 0.5 * (a + d)
    disc = np.sqrt(np.maximum(0.25 * (a - d) ** 2 + b2, 0.0))
    return half, disc


def _entries(values):
    """The entries of stacked Hermitian matrices, as views: (a,) for 1x1
    and (a, d, b) for 2x2, a and d the real diagonal and b the complex
    entry (0, 1).  The ``*_entries`` kernels take them, so that a caller
    can add a constant increment entry by entry instead of copying the
    stack: entry (i, j) of ``values + inc`` is ``values[..., i, j] + inc[i, j]``."""
    if values.shape[-1] == 1:
        return (values[..., 0, 0].real,)
    return values[..., 0, 0].real, values[..., 1, 1].real, values[..., 0, 1]


def _eig_bounds_entries(a, d=None, b=None):
    """(min, max) eigenvalues of [[a, b], [conj b, d]], or of a for m = 1.

    Where the 2x2 closed form overflows on finite entries, those matrices
    are scaled exactly by a power of two into [-1, 1], and the eigenvalue
    that cancels in half -+ disc is det / the other one: finite wherever
    it fits the float range, and positive for a positive definite matrix
    such as diag(1, 3e154).  Every other matrix keeps the closed form.
    """
    if d is None:
        return a, a
    with np.errstate(over="ignore", invalid="ignore"):
        half, disc = _half_disc(a, d, np.abs(b) ** 2)
        lo, hi = half - disc, half + disc
        bad = ~(np.isfinite(lo) & np.isfinite(hi))
    if bad.any():
        a, d, br, bi = (x[bad] for x in (a, d, b.real, b.imag))
        peak = np.maximum(np.maximum(np.abs(a), np.abs(d)),
                          np.maximum(np.abs(br), np.abs(bi)))
        keep = np.isfinite(peak)
        bad[bad] = keep
        e = np.frexp(peak[keep])[1]
        a, d, br, bi = (np.ldexp(x[keep], -e) for x in (a, d, br, bi))
        b2 = br * br + bi * bi
        half, disc = _half_disc(a, d, b2)
        # |big| = |half| + disc > 0: an overflowed matrix is not zero
        big = np.where(half < 0.0, half - disc, half + disc)
        small = (a * d - b2) / big
        with np.errstate(over="ignore"):
            lo[bad] = np.ldexp(np.where(half < 0.0, big, small), e)
            hi[bad] = np.ldexp(np.where(half < 0.0, small, big), e)
    return lo, hi


def _eig_bounds(values):
    """(min, max) eigenvalue arrays for stacked 1x1 or 2x2 Hermitian matrices."""
    return _eig_bounds_entries(*_entries(values))


def min_eig_values(values):
    return _eig_bounds(values)[0]


def _worst(values):
    """(lambda_min, worst point) of a stacked block: one eigenvalue pass;
    a NaN eigenvalue is the worst point."""
    ev = min_eig_values(values)
    point = np.unravel_index(int(np.argmin(ev)), ev.shape)
    return float(ev[point]), point


def det_entries(a, d=None, b=None):
    """det [[a, b], [conj b, d]] = a d - |b|^2, or a for m = 1."""
    return a if d is None else a * d - np.abs(b) ** 2


def det_values(values):
    return det_entries(*_entries(values))


def _gate(lo, hi, one_by_one):
    """lambda_min > 1e-12 (1 + trace norm), from the eigenvalue bounds.

    Both sides are halved, exactly, so that the trace norm of a matrix
    near the float maximum such as diag(1e308, 1e308) stays finite."""
    half = 0.5 * np.abs(lo) if one_by_one else 0.5 * np.abs(lo) + 0.5 * np.abs(hi)
    return 0.5 * lo > PD_GATE * (0.5 + half)


def pd_gate_entries(a, d=None, b=None):
    return _gate(*_eig_bounds_entries(a, d, b), d is None)


def pd_gate(values):
    """Scale-aware positive-definiteness mask: lambda_min > 1e-12 (1 + tr-norm)."""
    return _gate(*_eig_bounds(values), values.shape[-1] == 1)


def det_plus_entries(a, d=None, b=None):
    """det_entries gated to zero unless the matrix is positive definite;
    inf where a positive definite determinant leaves the float range."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(pd_gate_entries(a, d, b), det_entries(a, d, b), 0.0)


def det_plus(matrix):
    """det(H) gated to zero unless H is positive definite.

    Accepts a single matrix or a stacked (..., m, m) array, m in {1, 2}
    (ValueError otherwise); returns a scalar or an array of the leading shape.
    """
    values = np.asarray(matrix, dtype=np.complex128 if np.iscomplexobj(matrix) else np.float64)
    if values.shape[-2:] not in ((1, 1), (2, 2)):
        raise ValueError(f"det_plus takes 1x1 or 2x2 matrices, got shape {values.shape}")
    single = values.ndim == 2
    if single:
        values = values[None]
    out = det_plus_entries(*_entries(values))
    return float(out[0]) if single else out


def min_eigenvalue(H):
    """Pointwise smallest eigenvalue of a Hermitian matrix field."""
    return ScalarField(H.grid, np.broadcast_to(min_eig_values(H.values), H.grid.shape))


# ---------------------------------------------------------------------------
# serialization: 32-byte header, then (from version 2) one little-endian
# float64 spacing per axis, then the flat little-endian float64 payload

def save_field(f, path):
    grid = f.grid
    if max(grid.n_points) > _MAX_COUNT:
        raise ValueError(f"{path}: a header stores at most {_MAX_COUNT} points per "
                         f"axis, got counts {grid.n_points}")
    header = _MAGIC + struct.pack("<HHH", _VERSION, grid.k, grid.l)
    header += struct.pack(f"<{grid.real_dim}H", *grid.n_points)
    header = header.ljust(32, b"\x00")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(struct.pack(f"<{grid.real_dim}d", *grid.spacing))
        fh.write(f.values.astype("<f8").tobytes(order="C"))


def load_field(path, spacing=None):
    """Load a scalar field.

    A version 2 file stores its spacings, and a ``spacing`` that differs
    from them is a ValueError.  A version 1 file stores none: the default
    reconstructs a 2*pi-periodic axis for every count, matching
    ``BicomplexGrid.regular``.
    """
    with open(path, "rb") as fh:
        header = fh.read(32)
        payload = fh.read()
    if len(header) < 32:
        raise ValueError(f"{path}: header has {len(header)} bytes, expected 32")
    if header[:4] != _MAGIC:
        raise ValueError(f"{path}: bad magic {header[:4]!r}")
    version, k, l = struct.unpack("<HHH", header[4:10])
    if version not in (1, _VERSION):
        raise ValueError(f"{path}: unsupported version {version}")
    n_axes = 2 * k + 2 * l
    if 10 + 2 * n_axes > len(header):
        raise ValueError(f"{path}: block dimensions k={k}, l={l} do not fit the header")
    counts = struct.unpack(f"<{n_axes}H", header[10:10 + 2 * n_axes])
    if version == _VERSION:
        if len(payload) < 8 * n_axes:
            raise ValueError(f"{path}: header has {32 + len(payload)} bytes, expected "
                             f"{32 + 8 * n_axes} with the {n_axes} spacings")
        stored = struct.unpack(f"<{n_axes}d", payload[:8 * n_axes])
        payload = payload[8 * n_axes:]
        if spacing is not None and tuple(map(float, spacing)) != stored:
            raise ValueError(f"{path}: stored spacing {stored} differs from "
                             f"the requested {tuple(spacing)}")
        spacing = stored
    expected = 8 * int(np.prod(counts))
    if len(payload) != expected:
        raise ValueError(f"{path}: payload has {len(payload)} bytes, "
                         f"expected {expected} for counts {counts}")
    if spacing is None:
        spacing = tuple(2.0 * np.pi / n for n in counts)
    grid = BicomplexGrid(k, l, counts, tuple(spacing))
    values = np.frombuffer(payload, dtype="<f8").reshape(counts)
    return ScalarField(grid, values.copy())


def export_csv(f, path):
    """Plain-text export: one line per point, axis indices then the value."""
    _write_lines(path, (",".join(map(str, idx)) + f",{float(f.values[idx])!r}"
                        for idx in np.ndindex(f.grid.shape)))


def _write_lines(path, lines, comment=None, footer=None):
    """A text artifact: ``lines`` after a "# comment" and before a "# footer", if given."""
    with open(path, "w") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.writelines(f"{line}\n" for line in lines)
        if footer:
            fh.write(f"# {footer}\n")


def _read_lines(path):
    """The stripped lines of a text artifact, less blank and "#" lines."""
    with open(path) as fh:
        return [line for line in map(str.strip, fh) if line and not line.startswith("#")]
