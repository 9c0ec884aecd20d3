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
        if not (1 <= self.k <= 2 and 1 <= self.l <= 2):
            raise ValueError("block dimensions k, l must be 1 or 2 (desk scale)")
        n_axes = 2 * self.k + 2 * self.l
        if len(self.n_points) != n_axes or len(self.spacing) != n_axes:
            raise ValueError(f"expected {n_axes} axes, got "
                             f"{len(self.n_points)} counts / {len(self.spacing)} spacings")
        for n in self.n_points:
            if n < 4 or n % 2:
                raise ValueError("every axis needs an even count >= 4")
        if not all(0 < h < np.inf for h in self.spacing):
            raise ValueError("spacings must be finite and positive")

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

    @classmethod
    def from_function(cls, grid, fn):
        """Sample ``fn(*coords)`` on the lattice (coords broadcast via ogrid)."""
        coords = np.meshgrid(*[grid.axis_coords(a) for a in range(grid.real_dim)],
                             indexing="ij", sparse=True)
        return cls(grid, np.broadcast_to(fn(*coords), grid.shape).astype(np.float64))

    def copy(self):
        return ScalarField(self.grid, self.values.copy())

    def mean(self):
        return float(self.values.mean())


@dataclass
class HermitianMatrixField:
    """One small Hermitian matrix per lattice point for one block."""

    grid: BicomplexGrid
    block: str
    values: np.ndarray
    check: bool = field(default=True, repr=False)

    def __post_init__(self):
        m = self.grid.block_dim(self.block)
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape != self.grid.shape + (m, m):
            raise ValueError(f"values shape {self.values.shape} != {self.grid.shape + (m, m)}")
        if self.check:
            dev = np.abs(self.values - np.conj(np.swapaxes(self.values, -1, -2))).max()
            if dev > 1e-12 * (1.0 + np.abs(self.values).max()):
                raise ValueError(f"field is not Hermitian (deviation {dev:.3e})")

    @classmethod
    def constant(cls, grid, block, matrix):
        m = grid.block_dim(block)
        matrix = np.asarray(matrix, dtype=np.complex128).reshape(m, m)
        return cls(grid, block, np.broadcast_to(matrix, grid.shape + (m, m)).copy())

    @classmethod
    def zeros(cls, grid, block):
        m = grid.block_dim(block)
        return cls(grid, block, np.zeros(grid.shape + (m, m), dtype=np.complex128), check=False)

    def copy(self):
        return HermitianMatrixField(self.grid, self.block, self.values.copy(), check=False)


# ---------------------------------------------------------------------------
# stencils

def _shift(values, axis, step):
    """Periodic shift: out[..., i, ...] = values[..., i + step, ...], step = +-1."""
    n = values.shape[axis]
    cut = step % n
    head = [slice(None)] * values.ndim
    tail = [slice(None)] * values.ndim
    head[axis] = slice(cut, None)
    tail[axis] = slice(None, cut)
    return np.concatenate((values[tuple(head)], values[tuple(tail)]), axis=axis)


def _same_axis(values, axis, scale):
    """scale * (S+ v + S- v - 2 v) along one axis (the three-point stencil)."""
    d = _shift(values, axis, 1)
    d += _shift(values, axis, -1)
    d -= values
    d -= values
    d *= scale
    return d


def _cross(centred, axis, scale):
    """scale * (S+ c - S- c) along ``axis`` of a centred difference c along
    another axis: the four-point cross stencil, exact on quadratics."""
    d = _shift(centred, axis, 1)
    d -= _shift(centred, axis, -1)
    d *= scale
    return d


def hessian_block_values(values, grid, block):
    """Raw (shape + (m, m)) array of the discrete i del delbar Hessian.

    Entry (i, j) is 1/4 [(D_{x_i x_j} + D_{y_i y_j}) + i (D_{x_i y_j} - D_{y_i x_j})]
    with periodic central second differences.  Each shift is one
    np.concatenate copy; the three-point stencils accumulate in place, each
    mixed difference shifts a centred difference (S+ - S-) v along its
    second axis, and the 1/4 is folded into the stencil weights, so an
    entry needs only a few grid-sized temporaries.  For real values entry
    (j, i) is written as the exact conjugate of (i, j); complex values are
    stencilled part by part.
    """
    if np.iscomplexobj(values):
        out = hessian_block_values(values.real, grid, block)
        out += 1j * hessian_block_values(values.imag, grid, block)
        return out
    axes = grid.block_axes(block)
    m = len(axes)
    h = grid.spacing
    out = np.empty(grid.shape + (m, m), dtype=np.complex128)
    for i, (xi, yi) in enumerate(axes):
        re = _same_axis(values, xi, 0.25 / (h[xi] * h[xi]))
        re += _same_axis(values, yi, 0.25 / (h[yi] * h[yi]))
        entry = out[..., i, i]
        entry.real = re
        entry.imag = 0.0
        for j in range(i + 1, m):
            xj, yj = axes[j]
            c = _shift(values, xi, 1)
            c -= _shift(values, xi, -1)
            re = _cross(c, xj, 0.0625 / (h[xi] * h[xj]))
            im = _cross(c, yj, 0.0625 / (h[xi] * h[yj]))
            c = _shift(values, yi, 1)
            c -= _shift(values, yi, -1)
            re += _cross(c, yj, 0.0625 / (h[yi] * h[yj]))
            im -= _cross(c, xj, 0.0625 / (h[yi] * h[xj]))
            upper, lower = out[..., i, j], out[..., j, i]
            upper.real = re
            upper.imag = im
            lower.real = re
            np.negative(im, out=lower.imag)
    return out


def hermitian_hessian(u, block):
    """Discrete realization of the block complex Hessian of a scalar field.

    Entry (i, j) at each point is
    1/4 [ (D_{x_i x_j} + D_{y_i y_j}) u + i (D_{x_i y_j} - D_{y_i x_j}) u ]
    restricted to the chosen block's axes; Hermitian by construction.
    """
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


def max_eig_values(values):
    return _eig_bounds(values)[1]


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
    return ScalarField(H.grid, min_eig_values(H.values))


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
