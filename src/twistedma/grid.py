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

_MAGIC = b"TMAF"
_VERSION = 1


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
        # the stencils divide by h^2
        if not all(0 < h < np.inf and 0 < h * h and 1.0 / (h * h) < np.inf
                   for h in spacing):
            raise ValueError(f"spacings must be positive with a finite 1/h^2, got {spacing}")
        # ints and tuples keep the grid hashable, its shape a tuple and its
        # block axes valid indices
        object.__setattr__(self, "k", int(self.k))
        object.__setattr__(self, "l", int(self.l))
        object.__setattr__(self, "n_points", counts)
        object.__setattr__(self, "spacing", spacing)

    @classmethod
    def regular(cls, k, l, n, period=2.0 * np.pi):
        """Grid with ``n`` points and the given period on every axis."""
        n_axes = 2 * k + 2 * l
        if np.isscalar(n):
            n = (int(n),) * n_axes
        else:
            n = tuple(int(v) for v in n)
        spacing = tuple(period / v for v in n)
        return cls(k, l, n, spacing)

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


def _require_hermitian(values, block):
    """max |values|, after checking that every entry (j, i) is the conjugate
    of (i, j) to within 1e-12 (1 + max |values|); ValueError otherwise.  On
    the diagonal the deviation is 2 |Im v_ii|, read without a temporary."""
    peak = float(np.abs(values).max())
    for i, j in itertools.combinations_with_replacement(range(values.shape[-1]), 2):
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
    shape ``grid.shape + (m, m)`` or, if constant in space, ``(1,) * real_dim + (m, m)``."""

    grid: BicomplexGrid
    block: str
    values: np.ndarray
    check: bool = field(default=True, repr=False)

    def __post_init__(self):
        m = self.grid.block_dim(self.block)
        self.values = np.asarray(self.values, dtype=np.complex128)
        full, const = self.grid.shape + (m, m), (1,) * self.grid.real_dim + (m, m)
        if self.values.shape not in (full, const):
            raise ValueError(f"values shape {self.values.shape} is neither {full} nor {const}")
        if self.check:
            _require_hermitian(self.values, self.block)

    @classmethod
    def constant(cls, grid, block, matrix):
        m = grid.block_dim(block)
        matrix = np.array(matrix, dtype=np.complex128)
        return cls(grid, block, matrix.reshape((1,) * grid.real_dim + (m, m)))

    @classmethod
    def zeros(cls, grid, block):
        return cls.constant(grid, block, np.zeros((grid.block_dim(block),) * 2))

    def copy(self):
        return HermitianMatrixField(self.grid, self.block, self.values.copy(), check=False)


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


def hessian_block_values(values, grid, block):
    """Raw (shape + (m, m)) array of the discrete i del delbar Hessian.

    Evaluates the ``_hessian_terms`` table one entry at a time: each part
    accumulates in place, the centred difference along a is taken once
    per entry and shifted along b for each mixed D_ab, and the weights are
    folded into the stencil scales.  Entry (j, i) of real values is the
    exact conjugate of (i, j); complex values are stencilled part by part.
    """
    if np.iscomplexobj(values):
        out = hessian_block_values(values.real, grid, block)
        out += 1j * hessian_block_values(values.imag, grid, block)
        return out
    h, m = grid.spacing, grid.block_dim(block)
    out = np.empty(grid.shape + (m, m), dtype=np.complex128)
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
        out[..., i, j].real = re
        out[..., i, j].imag = 0.0 if im is None else im
        if i != j:
            out[..., j, i].real = re
            np.negative(im, out=out[..., j, i].imag)
    return out


def hermitian_hessian(u, block):
    """Discrete block complex Hessian of a scalar field (the entries are
    stated in ``_hessian_terms``); Hermitian by construction."""
    if not isinstance(u, ScalarField):
        raise TypeError("hermitian_hessian expects a ScalarField")
    vals = hessian_block_values(u.values, u.grid, block)
    return HermitianMatrixField(u.grid, block, vals, check=False)


# ---------------------------------------------------------------------------
# pointwise Hermitian matrix kernels (m = 1, 2 closed form)

def _eig_bounds(values):
    """(min, max) eigenvalue arrays for stacked Hermitian matrices."""
    m = values.shape[-1]
    if m == 1:
        ev = values[..., 0, 0].real
        return ev, ev
    if m == 2:
        a = values[..., 0, 0].real
        d = values[..., 1, 1].real
        b2 = np.abs(values[..., 0, 1]) ** 2
        half = 0.5 * (a + d)
        disc = np.sqrt(np.maximum(0.25 * (a - d) ** 2 + b2, 0.0))
        return half - disc, half + disc
    ev = np.linalg.eigvalsh(values)
    return ev[..., 0], ev[..., -1]


def min_eig_values(values):
    return _eig_bounds(values)[0]


def det_values(values):
    m = values.shape[-1]
    if m == 1:
        return values[..., 0, 0].real
    if m == 2:
        return (values[..., 0, 0].real * values[..., 1, 1].real
                - np.abs(values[..., 0, 1]) ** 2)
    return np.linalg.det(values).real


def trace_norm_values(values):
    lo, hi = _eig_bounds(values)
    if values.shape[-1] == 1:
        return np.abs(lo)
    if values.shape[-1] == 2:
        return np.abs(lo) + np.abs(hi)
    return np.abs(np.linalg.eigvalsh(values)).sum(axis=-1)


def pd_gate(values):
    """Scale-aware positive-definiteness mask: lambda_min > 1e-12 (1 + tr-norm)."""
    return min_eig_values(values) > PD_GATE * (1.0 + trace_norm_values(values))


def det_plus(matrix):
    """det(H) gated to zero unless H is positive definite.

    Accepts a single matrix or a stacked (..., m, m) array; returns a
    scalar or an array of the leading shape.
    """
    values = np.asarray(matrix, dtype=np.complex128)
    single = values.ndim == 2
    if single:
        values = values[None]
    out = np.where(pd_gate(values), det_values(values), 0.0)
    return float(out[0]) if single else out


def min_eigenvalue(H):
    """Pointwise smallest eigenvalue of a Hermitian matrix field."""
    return ScalarField(H.grid, np.broadcast_to(min_eig_values(H.values), H.grid.shape))


# ---------------------------------------------------------------------------
# serialization: 32-byte header + flat little-endian float64 payload

def save_field(f, path):
    grid = f.grid
    header = _MAGIC + struct.pack("<HHH", _VERSION, grid.k, grid.l)
    header += struct.pack(f"<{grid.real_dim}H", *grid.n_points)
    header = header.ljust(32, b"\x00")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(f.values.astype("<f8").tobytes(order="C"))


def load_field(path, spacing=None):
    """Load a scalar field.

    The on-disk format carries no spacing; the default reconstructs a
    2*pi-periodic axis for every count, matching ``BicomplexGrid.regular``.
    """
    with open(path, "rb") as fh:
        header = fh.read(32)
        payload = fh.read()
    if len(header) < 32:
        raise ValueError(f"{path}: header has {len(header)} bytes, expected 32")
    if header[:4] != _MAGIC:
        raise ValueError(f"{path}: bad magic {header[:4]!r}")
    version, k, l = struct.unpack("<HHH", header[4:10])
    if version != _VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    n_axes = 2 * k + 2 * l
    if 10 + 2 * n_axes > len(header):
        raise ValueError(f"{path}: block dimensions k={k}, l={l} do not fit the header")
    counts = struct.unpack(f"<{n_axes}H", header[10:10 + 2 * n_axes])
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
    grid = f.grid
    with open(path, "w") as fh:
        for idx in np.ndindex(grid.shape):
            fh.write(",".join(str(i) for i in idx))
            fh.write(f",{float(f.values[idx])!r}\n")
