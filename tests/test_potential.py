import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from twistedma import (BicomplexGrid, HermitianMatrixField, ScalarField,
                       compatibility_residual, fgk_residual, solve_square,
                       square_operator)
from twistedma import grid as grid_module
from twistedma import potential
from twistedma.errors import IncompatibleData, NonzeroMeanObstruction
from twistedma.grid import hermitian_hessian
from twistedma.potential import _grid_symbols

from conftest import bandlimited_field, cos_axis_field


class TestSquareOperator:
    def test_zero(self, small_grid):
        op, om = square_operator(ScalarField.zeros(small_grid))
        assert np.abs(op.values).max() == 0.0
        assert np.abs(om.values).max() == 0.0

    def test_cosine_signs(self):
        g = BicomplexGrid.regular(1, 1, 64)
        f = ScalarField(g, cos_axis_field(g, 0).values + cos_axis_field(g, 2).values)
        op, om = square_operator(f)
        h = g.spacing[0]
        # oracle: plus block -cos(x+)/4, minus block +cos(x-)/4
        got_p = op.values[..., 0, 0].real[:, 0, 0, 0]
        got_m = om.values[..., 0, 0].real[0, 0, :, 0]
        assert np.abs(got_p + 0.25 * np.cos(g.axis_coords(0))).max() <= h * h
        assert np.abs(got_m - 0.25 * np.cos(g.axis_coords(2))).max() <= h * h

    def test_split_quadratic_constant_blocks(self):
        g = BicomplexGrid.regular(1, 1, 16)
        a, b = 0.7, 0.3
        x0, y0 = g.axis_coords(0), g.axis_coords(1)
        x1, y1 = g.axis_coords(2), g.axis_coords(3)
        vals = (a * (x0[:, None, None, None] ** 2 + y0[None, :, None, None] ** 2)
                - b * (x1[None, None, :, None] ** 2 + y1[None, None, None, :] ** 2))
        f = ScalarField(g, vals)
        op, om = square_operator(f)
        sl = (slice(2, -2),) * 4
        assert np.abs(op.values[sl + (0, 0)].real - a).max() < 1e-12
        assert np.abs(om.values[sl + (0, 0)].real - b).max() < 1e-12

    def test_zero_block_means(self, rng):
        g = BicomplexGrid.regular(1, 1, 8)
        op, om = square_operator(bandlimited_field(g, rng))
        ax = tuple(range(g.real_dim))
        assert np.abs(op.values.mean(axis=ax)).max() < 1e-12
        assert np.abs(om.values.mean(axis=ax)).max() < 1e-12


class TestSolveSquare:
    def test_roundtrip_random(self, rng):
        g = BicomplexGrid.regular(1, 1, 16)
        for _ in range(5):
            f = bandlimited_field(g, rng)
            dec = solve_square(*square_operator(f))
            assert np.abs(dec.f.values - f.values).max() <= 1e-10
            assert dec.residual_plus <= 1e-12
            assert dec.residual_minus <= 1e-12
            assert abs(dec.f.mean()) < 1e-13

    def test_roundtrip_two_by_two_blocks(self, rng):
        g = BicomplexGrid.regular(2, 2, 6)
        f = bandlimited_field(g, rng)
        dec = solve_square(*square_operator(f))
        assert np.abs(dec.f.values - f.values).max() <= 1e-10

    def test_zero_data(self, small_grid):
        op = HermitianMatrixField.zeros(small_grid, "plus")
        om = HermitianMatrixField.zeros(small_grid, "minus")
        dec = solve_square(op, om)
        assert np.abs(dec.f.values).max() == 0.0
        assert "zero" in dec.kernel_note

    def test_constant_block_obstruction(self, small_grid):
        op = HermitianMatrixField.constant(small_grid, "plus", np.eye(1))
        om = HermitianMatrixField.zeros(small_grid, "minus")
        with pytest.raises(NonzeroMeanObstruction):
            solve_square(op, om)

    def test_incompatible_data(self):
        g = BicomplexGrid.regular(1, 1, 16)
        vals = 0.25 * cos_axis_field(g, 2).values[..., None, None].astype(complex)
        op = HermitianMatrixField(g, "plus", vals, check=False)
        om = HermitianMatrixField.zeros(g, "minus")
        with pytest.raises(IncompatibleData):
            solve_square(op, om)

    def test_linearity_of_solve(self, rng):
        g = BicomplexGrid.regular(1, 1, 8)
        f = bandlimited_field(g, rng)
        gfield = bandlimited_field(g, rng)
        op_f, om_f = square_operator(f)
        op_g, om_g = square_operator(gfield)
        summed = solve_square(
            HermitianMatrixField(g, "plus", op_f.values + op_g.values, check=False),
            HermitianMatrixField(g, "minus", om_f.values + om_g.values, check=False))
        base = solve_square(op_f, om_f)
        assert np.abs(summed.f.values - (base.f.values + gfield.values)).max() <= 1e-10


# grids on both sides of the transform rule: (shape, dense path taken)
TRANSFORM_SHAPES = [((4,) * 4, False), ((16, 4, 16, 4), False), ((8, 8, 8, 8, 4, 4), False),
                    ((4, 4, 8, 8, 8, 8), False),
                    ((4,) * 6, True), ((8, 4) * 3, True), ((6,) * 6, True),
                    ((4,) * 4 + (8, 8), True), ((4,) * 8, True)]


class TestTransformPair:
    """``potential._rfftn`` / ``_irfftn`` against ``scipy.fft`` on either
    side of the dense rule: the same half spectrum and inverse to roundoff."""

    @staticmethod
    def values(shape, kind, rng):
        """Real lattice values: random, a broadcast constant block entry, or
        the strided real or imaginary part of a stacked complex entry."""
        if kind == "constant":
            return np.broadcast_to(rng.standard_normal((1,) * len(shape)), shape)
        if kind == "random":
            return rng.standard_normal(shape)
        stack = rng.standard_normal(shape + (2, 2)) + 1j * rng.standard_normal(shape + (2, 2))
        return stack[..., 0, 1].real if kind == "real part" else stack[..., 0, 1].imag

    @settings(max_examples=40, deadline=None)
    @given(case=st.sampled_from(TRANSFORM_SHAPES),
           kind=st.sampled_from(["random", "constant", "real part", "imaginary part"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_agrees_with_scipy(self, case, kind, seed):
        shape, dense = case
        assert (potential._dense_plan(shape) is not None) == dense
        rng = np.random.default_rng(seed)
        x = self.values(shape, kind, rng)
        eps = 64 * np.finfo(float).eps
        spec, ref = potential._rfftn(x), scipy.fft.rfftn(x)
        assert spec.shape == ref.shape and spec.dtype == ref.dtype
        assert np.abs(spec - ref).max() <= eps * np.abs(x).sum()
        back = potential._irfftn(spec, shape)
        assert back.shape == shape and back.dtype == np.float64
        assert np.abs(back - x).max() <= eps * np.abs(x).max()
        # the inverse ignores the imaginary part of the self-conjugate
        # planes (the last axis' index 0 and n/2), as pocketfft does
        spec = ref.copy()
        spec[..., 0] += 1j * rng.standard_normal(spec.shape[:-1])
        spec[..., -1] += 1j * rng.standard_normal(spec.shape[:-1])
        ref = scipy.fft.irfftn(spec, s=shape)
        assert np.abs(potential._irfftn(spec, shape) - ref).max() <= (
            eps * 2.0 * np.abs(spec).sum() / x.size)


@st.composite
def inverse_shapes(draw):
    """A grid shape of 4, 6 or 8 axes of 1 to 9 points, 20,000 points at
    most.  Half of the shapes have one coordinate pair of more than 64
    points, so that ``scipy.fft`` runs whatever the axis count; most other
    shapes of three or more pairs take the dense plan."""
    n_axes = draw(st.sampled_from([4, 6, 8]))
    shape = list(draw(st.sampled_from([(8, 9), (9, 8), (9, 9)]))) if draw(st.booleans()) else []
    budget = 20000 // math.prod(shape)
    while len(shape) < n_axes:
        shape.append(draw(st.integers(1, min(9, budget))))
        budget //= shape[-1]
    pairs = draw(st.permutations([shape[a:a + 2] for a in range(0, n_axes, 2)]))
    return tuple(itertools.chain(*pairs))


class TestInversePasses:
    """``potential._irfftn``, consuming its input or not, has the bits of
    ``scipy.fft.irfftn`` off the dense plan and of the dense inverse on it."""

    @settings(max_examples=100, deadline=None)
    @given(shape=st.one_of(inverse_shapes(),
                           st.sampled_from([s for s, dense in TRANSFORM_SHAPES if dense])),
           contiguous=st.booleans(), consume=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_bitwise_irfftn(self, shape, contiguous, consume, seed):
        rng = np.random.default_rng(seed)
        half = shape[:-1] + (shape[-1] // 2 + 1, 2)
        # any complex half spectrum, self-conjugate planes included, as one
        # plane of a stack when it is not contiguous
        spec = (rng.standard_normal(half) + 1j * rng.standard_normal(half))[..., 0]
        if contiguous:
            spec = np.ascontiguousarray(spec)
        if potential._dense_plan(shape) is None:
            ref = scipy.fft.irfftn(spec, s=shape)
        else:
            ref = potential._irfftn(spec, shape)
        before = spec.copy()
        got = potential._irfftn(spec, shape, consume=consume)
        assert got.shape == shape and got.dtype == np.float64
        assert got.tobytes() == ref.tobytes()
        if not consume:
            assert spec.tobytes() == before.tobytes()


class TestHalfSpectrum:
    """k = l = 2 blocks: off-diagonal entries carry real and imaginary parts."""

    grid = BicomplexGrid.regular(2, 2, 4)

    def test_symbols_real_on_half_spectrum(self, rng):
        g = self.grid
        half = g.shape[:-1] + (g.shape[-1] // 2 + 1,)
        u = bandlimited_field(g, rng)
        u_hat = scipy.fft.rfftn(u.values)
        for block, sym in zip(("plus", "minus"), _grid_symbols(g)):
            m = g.block_dim(block)
            assert sorted(sym) == [(i, j) for i in range(m) for j in range(i, m)]
            direct = hermitian_hessian(u, block).values
            for (i, j), (re, im) in sym.items():
                assert (im is None) == (i == j)
                for part in (re,) if im is None else (re, im):
                    assert part.dtype == np.float64
                    assert np.broadcast_shapes(part.shape, half) == half
                back = scipy.fft.irfftn(re * u_hat, s=g.shape).astype(complex)
                if im is not None:
                    back += 1j * scipy.fft.irfftn(im * u_hat, s=g.shape)
                assert np.abs(back - direct[..., i, j]).max() <= 1e-12
                assert np.abs(back.conj() - direct[..., j, i]).max() <= 1e-12

    def test_imaginary_off_diagonal_incompatibility(self, rng):
        g = self.grid
        op, om = square_operator(bandlimited_field(g, rng))
        # purely imaginary, Hermitian, varying along a minus axis only
        bump = 0.1j * cos_axis_field(g, 4).values
        vals = op.values.copy()
        vals[..., 0, 1] += bump
        vals[..., 1, 0] -= bump
        with pytest.raises(IncompatibleData, match=r"^plus block residual 1\.000e-01 exceeds"):
            solve_square(HermitianMatrixField(g, "plus", vals, check=False), om)

    @pytest.mark.parametrize("c", [0.3, 0.2j, 0.3 - 0.2j])
    def test_constant_off_diagonal_obstruction(self, c):
        g = self.grid
        op = HermitianMatrixField.constant(
            g, "plus", np.array([[0.0, c], [np.conj(c), 0.0]]))
        om = HermitianMatrixField.zeros(g, "minus")
        with pytest.raises(NonzeroMeanObstruction):
            solve_square(op, om)

    def test_residuals_match_direct_evaluation(self, rng):
        g = self.grid
        op, om = square_operator(bandlimited_field(g, rng))
        # plus: a Hermitian perturbation outside the image of square;
        # minus: a real Hermitian off-diagonal perturbation along a plus axis
        p_vals = op.values.copy()
        bump = 1e-3j * cos_axis_field(g, 4).values
        p_vals[..., 0, 1] += bump
        p_vals[..., 1, 0] -= bump
        m_vals = om.values.copy()
        m_vals[..., 0, 1] += 1e-3 * cos_axis_field(g, 0).values
        m_vals[..., 1, 0] += 1e-3 * cos_axis_field(g, 0).values
        dec = solve_square(HermitianMatrixField(g, "plus", p_vals, check=False),
                           HermitianMatrixField(g, "minus", m_vals, check=False),
                           tol_compat=1.0)
        back_p, back_m = square_operator(dec.f)
        direct_p = float(np.abs(back_p.values - p_vals).max())
        direct_m = float(np.abs(back_m.values - m_vals).max())
        assert min(direct_p, direct_m) > 1e-4
        assert (dec.residual_plus, dec.residual_minus) == (direct_p, direct_m)


def closed_form_symbols(grid):
    """The symbols as first written: per-axis angles and the closed-form
    second-difference symbols, combined with the 1/4 and sign pattern."""
    n_axes = grid.real_dim
    theta = []
    for a in range(n_axes):
        n = grid.n_points[a]
        freq = np.fft.rfftfreq(n) if a == n_axes - 1 else np.fft.fftfreq(n)
        shape = [1] * n_axes
        shape[a] = len(freq)
        theta.append((2.0 * np.pi * freq).reshape(shape))

    def d2_symbol(a, b):
        ha, hb = grid.spacing[a], grid.spacing[b]
        if a == b:
            return -4.0 * np.sin(theta[a] / 2.0) ** 2 / (ha * ha)
        return -np.sin(theta[a]) * np.sin(theta[b]) / (ha * hb)

    out = []
    for block in ("plus", "minus"):
        axes = grid.block_axes(block)
        sym = {}
        for i, (xi, yi) in enumerate(axes):
            for j in range(i, len(axes)):
                xj, yj = axes[j]
                re = 0.25 * (d2_symbol(xi, xj) + d2_symbol(yi, yj))
                im = None if i == j else 0.25 * (d2_symbol(xi, yj) - d2_symbol(yi, xj))
                sym[i, j] = (re, im)
        out.append(sym)
    return out


class TestStencilTable:
    @pytest.mark.parametrize("k,l,seed", [(1, 1, 0), (1, 2, 1), (2, 1, 2), (2, 2, 3)])
    def test_symbols_equal_closed_form(self, k, l, seed):
        rng = np.random.default_rng(seed)
        n_axes = 2 * k + 2 * l
        counts = tuple(int(c) for c in rng.choice([4, 6, 8], size=n_axes))
        spacing = tuple(float(h) for h in rng.uniform(0.2, 1.5, size=n_axes))
        for g in (BicomplexGrid(k, l, counts, spacing), BicomplexGrid.regular(k, l, 4)):
            for got, ref in zip(_grid_symbols(g), closed_form_symbols(g)):
                assert sorted(got) == sorted(ref)
                for ij, (re, im) in ref.items():
                    assert np.array_equal(got[ij][0], re)
                    assert re.shape == got[ij][0].shape
                    if im is None:
                        assert got[ij][1] is None
                    else:
                        assert np.array_equal(got[ij][1], im)
                        assert im.shape == got[ij][1].shape

    def test_rejects_non_hermitian_before_transforms(self, rng, monkeypatch):
        g = BicomplexGrid.regular(2, 2, 4)
        op, om = square_operator(bandlimited_field(g, rng))
        # the (1, 0) entry alone perturbed: the solver reads only (0, 1)
        m_vals = om.values.copy()
        m_vals[..., 1, 0] += 1e-3 * cos_axis_field(g, 0).values

        def no_transform(omega):
            raise AssertionError("spectra built before the Hermitian check")

        monkeypatch.setattr(potential, "_entry_spectra", no_transform)
        with pytest.raises(ValueError, match=r"minus block is not Hermitian at "
                                             r"entry \(0, 1\) \(deviation 1\.000e-03\)"):
            solve_square(op, HermitianMatrixField(g, "minus", m_vals, check=False),
                         tol_compat=1.0)

    def test_diagonal_must_be_real(self, small_grid, rng):
        op, om = square_operator(bandlimited_field(small_grid, rng))
        peak = float(np.abs(op.values).max())
        # a real 1x1 block is float64: a complex one keeps the full check
        vals = op.values.astype(complex)
        vals[1, 2, 3, 0, 0, 0] += 1e-6j
        with pytest.raises(ValueError, match=r"plus block is not Hermitian at entry \(0, 0\)"):
            solve_square(HermitianMatrixField(small_grid, "plus", vals, check=False), om)
        # within HermitianMatrixField's tolerance 1e-12 (1 + max |v|) it runs
        vals = op.values.astype(complex)
        vals[1, 2, 3, 0, 0, 0] += 0.4e-12j * (1.0 + peak)
        solve_square(HermitianMatrixField(small_grid, "plus", vals, check=False), om)


def lattice(pair, shape):
    """The lattice field whose real and imaginary parts have the half
    spectra ``pair`` (a None part is zero), as the solver first wrote it,
    on the solver's own inverse transform."""
    re, im = (None if p is None else potential._irfftn(p, shape) for p in pair)
    return re if im is None else re + 1j * im


def reference_cross_residual(hat_p, hat_m, sym_plus, sym_minus, grid):
    """The cross condition by its spectral loop as first written: an exact
    inverse transform of every tuple's whole field."""
    compat = 0.0
    for a, b, c, d in itertools.product(range(grid.k), range(grid.k),
                                        range(grid.l), range(grid.l)):
        if (a, b, c, d) > (b, a, d, c):
            continue
        compat = max(compat, float(np.abs(lattice(
            cross_spectrum(hat_p, hat_m, sym_plus, sym_minus, (a, b, c, d)),
            grid.shape)).max()))
    return compat


def hermitian_entry(pairs, i, j):
    """Entry (i, j) of a Hermitian matrix stored as {(i, j): (re, im)}
    over i <= j; entry (j, i) is the conjugate.  None is zero."""
    if i <= j:
        return pairs[i, j]
    re, im = pairs[j, i]
    return re, (None if im is None else -im)


def complex_times(sym, hat):
    """(re, im) of (R + iI)(A + iB) = (RA - IB) + i(IA + RB) for pairs
    (R, I), (A, B) of real parts; None is zero."""
    (r, i), (a, b) = sym, hat
    re = r * a
    im = None if i is None else i * a
    if b is not None:
        if i is not None:
            re = re - i * b
        im = r * b if im is None else im + r * b
    return re, im


def cross_spectrum(hat_p, hat_m, sym_plus, sym_minus, abcd):
    """Half spectra of hess_minus(w+[a,b])[c,d] + hess_plus(w-[c,d])[a,b]."""
    a, b, c, d = abcd
    e, t = hermitian_entry, complex_times
    return tuple(x if y is None else y if x is None else x + y
                 for x, y in zip(t(e(sym_minus, c, d), e(hat_p, a, b)),
                                 t(e(sym_plus, a, b), e(hat_m, c, d))))


def lattice_residuals(f, blocks):
    """[max |square_operator(f) block - block|] over both blocks, on the
    whole lattice at once."""
    return [float(np.abs(back.values - omega.values).max())
            for back, omega in zip(square_operator(f), blocks)]


def block_grid(k, l):
    return BicomplexGrid.regular(k, l, 4 if k + l == 4 else 6)


def mixed_pattern(grid, rng, n_modes=4):
    """Plus (0, 0) entry sum_m cos(a_m.x+ + phi_m) cos(b_m.x-), every a_m and
    b_m nonzero: no stray content, and a cross residual whose l1 bound
    exceeds its max norm because the phases differ."""
    x = np.meshgrid(*(grid.axis_coords(i) for i in range(grid.real_dim)),
                    indexing="ij", sparse=True)
    n_plus = 2 * grid.k
    vals = np.zeros(grid.shape + (grid.k, grid.k), complex)
    for _ in range(n_modes):
        a = rng.integers(1, 3, size=n_plus)
        b = rng.integers(1, 3, size=grid.real_dim - n_plus)
        vals[..., 0, 0] += (np.cos(sum(ai * xi for ai, xi in zip(a, x[:n_plus]))
                                   + rng.uniform(0.0, 2.0 * np.pi))
                            * np.cos(sum(bi * xi for bi, xi in zip(b, x[n_plus:]))))
    return vals


KL = [(1, 1), (1, 2), (2, 1), (2, 2)]


def reference_f_hat(hat_p, hat_m, sym_plus, sym_minus, grid):
    """hat(f) as first built: each block's whole-array least-squares
    estimate, the minus one on the slice where the plus frequency is zero."""
    def estimate(hats, sym, sign):
        den = 0.0
        for (i, j), (r, im) in sym.items():
            den = den + (r * r if i == j else 2.0 * (r * r + im * im))
        inv = np.divide(sign, den, out=np.zeros_like(den), where=den > 0.0)
        est = None
        for (i, j), (r, im) in sym.items():
            (a, b), w = hats[i, j], (inv if i == j else 2.0 * inv)
            term = a * (w * r) if b is None else a * (w * r) + b * (w * im)
            est = term if est is None else est + term
        return est
    f_hat = estimate(hat_p, sym_plus, 1.0)
    zero_p = (0,) * (2 * grid.k)
    f_hat[zero_p] = estimate(hat_m, sym_minus, -1.0)[zero_p]
    return f_hat


def residual_pass(blocks):
    """``potential._residual_pass`` on fresh entry spectra of ``blocks``."""
    g = blocks[0].grid
    return potential._residual_pass(*(potential._entry_spectra(b) for b in blocks),
                                    *_grid_symbols(g), g)


def square_scale(blocks):
    """The solver's scale max(max |omega|, 1)."""
    return max([float(np.abs(b.values).max()) for b in blocks] + [1.0])


def counted(monkeypatch, *names):
    """{name: calls} of the potential module's functions ``names``."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(potential, name)

        def wrapper(*a, real=real, name=name, **kw):
            calls[name] += 1
            return real(*a, **kw)
        monkeypatch.setattr(potential, name, wrapper)
    return calls


def refusal(name, residual, tol):
    return f"{name} block residual {residual:.3e} exceeds tolerance {tol:.3e}"


def cos_plus(g, amplitude, axis):
    """``amplitude`` cos of ``axis`` on the plus (0, 0) entry; the minus
    block zero."""
    vals = np.zeros(g.shape + (g.k, g.k))
    vals[..., 0, 0] = amplitude * cos_axis_field(g, axis).values
    return HermitianMatrixField(g, "plus", vals), HermitianMatrixField.zeros(g, "minus")


def bumped_square(k, l, kind):
    """Square data with the plus block moved off the image: by a purely
    imaginary Hermitian off-diagonal entry along a minus axis, or by
    1e-3 times a mixed pattern."""
    g = block_grid(k, l)
    rng = np.random.default_rng(k + 2 * l)
    op, om = square_operator(bandlimited_field(g, rng))
    if kind == "imaginary":
        bump = 0.1j * cos_axis_field(g, 2 * k).values
        vals = op.values.copy()
        vals[..., 0, 1] += bump
        vals[..., 1, 0] -= bump
    else:
        vals = op.values + 1e-3 * mixed_pattern(g, rng)
    return HermitianMatrixField(g, "plus", vals, check=False), om


def overlap_mismatch(c):
    """The square data of cos(x0 + x1 + x2 + x3) on 16^4, with c 1e-8
    cos x0 cos x2 added to the minus block: on the four overlap modes the
    two blocks' estimates of hat(f) disagree."""
    g = BicomplexGrid.regular(1, 1, 16)
    x = np.meshgrid(*(g.axis_coords(i) for i in range(4)), indexing="ij", sparse=True)
    op, om = square_operator(ScalarField(g, np.broadcast_to(np.cos(x[0] + x[1] + x[2] + x[3]),
                                                            g.shape).copy()))
    bump = (np.cos(x[0]) * np.cos(x[2]))[..., None, None]
    return op, HermitianMatrixField(g, "minus", om.values + c * 1e-8 * bump)


def not_closed(k, l, block, axis):
    """Entry (1, 1) of ``block`` = cos of its own first axis, everything
    else zero: the cross condition holds to roundoff, but no square(f)
    has entry (0, 0) zero with it."""
    g = BicomplexGrid.regular(k, l, 6)
    m = g.block_dim(block)
    vals = np.zeros(g.shape + (m, m))
    vals[..., 1, 1] = cos_axis_field(g, axis).values
    blocks = {"plus": HermitianMatrixField.zeros(g, "plus"),
              "minus": HermitianMatrixField.zeros(g, "minus")}
    blocks[block] = HermitianMatrixField(g, block, vals)
    return blocks["plus"], blocks["minus"]


#: the incompatible block pairs that the earlier reads (cross condition,
#: stray content, overlap mismatch, closedness) refused, by name
REFUSED = {
    "cos-x2-16": lambda: cos_plus(BicomplexGrid.regular(1, 1, 16), 0.25, 2),
    "stray-3e-08": lambda: cos_plus(BicomplexGrid.regular(1, 1, 16), 3e-8, 2),
    "stray-5e-08": lambda: cos_plus(BicomplexGrid.regular(1, 1, 16), 5e-8, 2),
    "overlap-2": lambda: overlap_mismatch(2),
    "overlap-6": lambda: overlap_mismatch(6),
    "imaginary-k2-l2": lambda: bumped_square(2, 2, "imaginary"),
    "imaginary-k2-l1": lambda: bumped_square(2, 1, "imaginary"),
    **{f"cos-minus-axis-k{k}-l{l}": lambda k=k, l=l: cos_plus(block_grid(k, l), 0.25, 2 * k)
       for k, l in KL},
    **{f"mixed-k{k}-l{l}": lambda k=k, l=l: bumped_square(k, l, "mixed") for k, l in KL},
    **{f"not-closed-k{k}-l{l}-{b}": lambda k=k, l=l, b=b, a=a: not_closed(k, l, b, a)
       for k, l, b, a in [(2, 1, "plus", 0), (2, 2, "plus", 0), (1, 2, "minus", 2)]},
}


class TestCrossCertificate:
    """Data that meet the cross condition pass the residual certificate:
    the solve returns the same f as a solve that checks nothing."""

    @pytest.mark.parametrize("k,l", KL)
    def test_compatible_data_same_f(self, k, l):
        g = block_grid(k, l)
        blocks = square_operator(bandlimited_field(g, np.random.default_rng(k + 2 * l)))
        cross = reference_cross_residual(*(potential._entry_spectra(b) for b in blocks),
                                         *_grid_symbols(g), g)
        assert cross <= 1e-13
        got = solve_square(*blocks)
        ref = solve_square(*blocks, tol_compat=np.inf)
        assert got.f.values.tobytes() == ref.f.values.tobytes()
        assert (got.residual_plus, got.residual_minus) == (ref.residual_plus,
                                                           ref.residual_minus)


class TestResidualCertificate:
    """One certificate decides every solve: square(f) = omega to the
    tolerance in max norm on each block, for the f that is returned; an
    l1 bound of the residual spectra where it suffices, the exact lattice
    residuals otherwise."""

    @pytest.mark.parametrize("k,l", KL)
    def test_f_hat_has_the_bits_of_the_whole_array_estimates(self, k, l):
        g = block_grid(k, l)
        rng = np.random.default_rng(k + 2 * l)
        for blocks in (square_operator(bandlimited_field(g, rng)),
                       (random_hermitian(g, "plus", rng), random_hermitian(g, "minus", rng))):
            ref = reference_f_hat(*(potential._entry_spectra(b) for b in blocks),
                                  *_grid_symbols(g), g)
            assert residual_pass(blocks)[0].tobytes() == ref.tobytes()

    @pytest.mark.parametrize("k,l", KL)
    def test_bound_dominates_exact_residual(self, k, l):
        # random Hermitian blocks: complex off-diagonal entries where m = 2
        g = block_grid(k, l)
        rng = np.random.default_rng(10 * k + l)
        blocks = random_hermitian(g, "plus", rng), random_hermitian(g, "minus", rng)
        f_hat, bounds = residual_pass(blocks)
        exact = lattice_residuals(ScalarField(g, potential._irfftn(f_hat, g.shape)), blocks)
        for bound, value in zip(bounds, exact):
            assert bound >= value > 0.0

    @pytest.mark.parametrize("k,l,n", [(1, 1, 16), (1, 1, 32), (2, 2, 4), (1, 2, 8)])
    def test_slab_sums_match_whole_array(self, k, l, n):
        # the bounds summed slab by slab against grid._l1_bound of each
        # entry's whole residual spectrum, on random Hermitian blocks
        g = BicomplexGrid.regular(k, l, n)
        rng = np.random.default_rng(n + k)
        blocks = [random_hermitian(g, b, rng) for b in ("plus", "minus")]
        f_hat, bounds = residual_pass(blocks)
        assert len(grid_module._slabs(len(f_hat), f_hat.size)) > 1
        whole = [max(grid_module._l1_bound(potential._plus(
                         pair, potential._times(sym[ij], sign * f_hat)), g.shape)
                     for ij, pair in potential._entry_spectra(b).items())
                 for b, sym, sign in zip(blocks, _grid_symbols(g), (-1.0, 1.0))]
        assert bounds == pytest.approx(whole, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("k,l", KL)
    @pytest.mark.parametrize("factor", [0.99, 1.01])
    def test_near_tolerance(self, k, l, factor, monkeypatch):
        # square data plus eps times a mixed plus pattern, eps chosen so
        # that the exact residual sits 1% below or above the tolerance: the
        # residual is linear in eps, so the pattern's own gives eps
        g = block_grid(k, l)
        rng = np.random.default_rng(k + 2 * l)
        op, om = square_operator(bandlimited_field(g, rng))
        pattern = mixed_pattern(g, rng)
        alone = solve_square(HermitianMatrixField(g, "plus", pattern, check=False),
                             HermitianMatrixField.zeros(g, "minus"), tol_compat=np.inf)
        rho = max(alone.residual_plus, alone.residual_minus)
        eps = factor * 1e-8 * square_scale((op, om)) / rho
        blocks = HermitianMatrixField(g, "plus", op.values + eps * pattern, check=False), om
        tol = 1e-8 * square_scale(blocks)
        assert max(residual_pass(blocks)[1]) > tol
        ref = solve_square(*blocks, tol_compat=np.inf)
        exact = ref.residual_plus, ref.residual_minus
        # the bound failed, so the solve read the exact residuals on f
        with monkeypatch.context() as mp:
            calls = counted(mp, "_irfftn", "_block_stencil")
            try:
                got = solve_square(*blocks)
            except IncompatibleData as exc:
                got = exc
        assert calls["_irfftn"] == 1 and calls["_block_stencil"] > 0
        if factor < 1.0:
            assert max(exact) <= tol
            assert got.f.values.tobytes() == ref.f.values.tobytes()
            assert (got.residual_plus, got.residual_minus) == exact
        else:
            name, value = next((n, v) for n, v in zip(("plus", "minus"), exact) if v > tol)
            assert isinstance(got, IncompatibleData) and str(got) == refusal(name, value, tol)

    @pytest.mark.parametrize("case", sorted(REFUSED))
    def test_earlier_refusals_still_refused(self, case):
        # every block pair that the cross, stray, overlap and closedness
        # reads refused is refused, naming the first block beyond the
        # tolerance with its exact residual
        blocks = REFUSED[case]()
        tol = 1e-8 * square_scale(blocks)
        dec = solve_square(*blocks, tol_compat=np.inf)
        exact = dec.residual_plus, dec.residual_minus
        name, value = next((n, v) for n, v in zip(("plus", "minus"), exact) if v > tol)
        with pytest.raises(IncompatibleData) as info:
            solve_square(*blocks)
        assert str(info.value) == refusal(name, value, tol)


class TestResidualsOnRead:
    def perturbed(self, g, rng):
        """test_residuals_match_direct_evaluation's data where k = l = 2,
        else square data plus a mixed plus pattern and a minus entry along
        a plus axis."""
        op, om = square_operator(bandlimited_field(g, rng))
        p_vals = op.values + 1e-3 * mixed_pattern(g, rng)
        m_vals = om.values.copy()
        m_vals[..., 0, 0] += 1e-3 * cos_axis_field(g, 0).values
        if g.k == g.l == 2:
            p_vals = op.values.copy()
            bump = 1e-3j * cos_axis_field(g, 4).values
            p_vals[..., 0, 1] += bump
            p_vals[..., 1, 0] -= bump
            m_vals = om.values.copy()
            m_vals[..., 0, 1] += 1e-3 * cos_axis_field(g, 0).values
            m_vals[..., 1, 0] += 1e-3 * cos_axis_field(g, 0).values
        return (HermitianMatrixField(g, "plus", p_vals, check=False),
                HermitianMatrixField(g, "minus", m_vals, check=False))

    @pytest.mark.parametrize("k,l", KL)
    def test_equal_to_lattice_reference(self, k, l):
        g = block_grid(k, l)
        rng = np.random.default_rng(k + 2 * l)
        for blocks, tol in ((square_operator(bandlimited_field(g, rng)), 1e-8),
                            (self.perturbed(g, rng), 1.0)):
            dec = solve_square(*blocks, tol_compat=tol)
            ref = lattice_residuals(dec.f, blocks)
            assert [dec.residual_plus, dec.residual_minus] == ref
            if tol == 1.0:
                assert max(ref) > 1e-4

    @pytest.mark.parametrize("k,l", KL)
    def test_zero_blocks_read_zero(self, k, l):
        g = block_grid(k, l)
        dec = solve_square(HermitianMatrixField.zeros(g, "plus"),
                           HermitianMatrixField.zeros(g, "minus"))
        assert (dec.residual_plus, dec.residual_minus) == (0.0, 0.0)

    def test_read_makes_no_transform(self, monkeypatch, rng):
        g = BicomplexGrid.regular(1, 1, 8)
        calls = counted(monkeypatch, "_rfftn", "_irfftn")
        dec = solve_square(*square_operator(bandlimited_field(g, rng)))
        assert calls["_irfftn"] == 1
        solved = dict(calls)
        dec.residual_plus, dec.residual_minus
        assert calls == solved


class TestCompatibilityResidual:
    def test_square_data(self, rng):
        g = BicomplexGrid.regular(1, 1, 16)
        op, om = square_operator(bandlimited_field(g, rng))
        assert compatibility_residual(op, om) <= 1e-10

    def test_constants(self, small_grid):
        op = HermitianMatrixField.constant(small_grid, "plus", np.eye(1))
        om = HermitianMatrixField.constant(small_grid, "minus", np.eye(1))
        assert compatibility_residual(op, om) == 0.0

    def test_one_definition(self):
        assert compatibility_residual is fgk_residual

    def test_non_gk_positive(self):
        g = BicomplexGrid.regular(1, 1, 16)
        vals = 0.25 * cos_axis_field(g, 2).values[..., None, None].astype(complex)
        op = HermitianMatrixField(g, "plus", vals, check=False)
        om = HermitianMatrixField.zeros(g, "minus")
        assert compatibility_residual(op, om) > 1e-3


def random_hermitian(grid, block, rng):
    """A + A^H for white complex noise A: exactly Hermitian, not FGK."""
    m = grid.block_dim(block)
    a = rng.standard_normal(grid.shape + (m, m)) + 1j * rng.standard_normal(grid.shape + (m, m))
    return HermitianMatrixField(grid, block, a + a.conj().swapaxes(-1, -2))


def _blocks_on_two_grids(k, l):
    g, h = BicomplexGrid.regular(k, l, 4), BicomplexGrid.regular(k, l, 6)
    return HermitianMatrixField.zeros(g, "plus"), HermitianMatrixField.zeros(h, "minus")


def _square_blocks(k, l):
    return square_operator(bandlimited_field(BicomplexGrid.regular(k, l, 4),
                                             np.random.default_rng(1)))


def _non_finite_blocks(k, l, value, block):
    """Square blocks with ``value`` in one diagonal entry of ``block``,
    which so stays Hermitian."""
    blocks = dict(zip(("plus", "minus"), _square_blocks(k, l)))
    vals = blocks[block].values.copy()
    vals[(1, 2, 3) + (0,) * (vals.ndim - 3)] = value
    blocks[block] = HermitianMatrixField(blocks[block].grid, block, vals, check=False)
    return blocks["plus"], blocks["minus"]


_NON_FINITE = [(k, l, v, b) for k, l in KL for v in ("nan", "inf") for b in ("plus", "minus")]


@pytest.mark.parametrize("call", [solve_square, compatibility_residual],
                         ids=["solve", "compatibility"])
@pytest.mark.parametrize("blocks,message", [
    (lambda: _square_blocks(1, 2)[::-1], r"^blocks must be \(plus, minus\), got \(minus, plus\)$"),
    (lambda: _square_blocks(1, 1)[::-1], r"^blocks must be \(plus, minus\), got \(minus, plus\)$"),
    (lambda: _square_blocks(1, 1)[:1] * 2, r"^blocks must be \(plus, minus\), got \(plus, plus\)$"),
    (lambda: _blocks_on_two_grids(1, 1), r"^blocks must share one grid$"),
    (lambda: _blocks_on_two_grids(2, 1), r"^blocks must share one grid$"),
] + [(lambda k=k, l=l, v=v, b=b: _non_finite_blocks(k, l, float(v), b),
      rf"^{b} block is not finite \(max \|value\| {v}\)$") for k, l, v, b in _NON_FINITE],
    ids=["swapped-k1-l2", "swapped-k1-l1", "two-plus", "two-grids", "two-grids-k2-l1"]
    + [f"{b}-{v}-k{k}-l{l}" for k, l, v, b in _NON_FINITE])
def test_blocks_fail_typed(call, blocks, message):
    # a wrong block or grid is a ValueError, never a KeyError, numpy's
    # broadcast error or a number computed with the other block's symbols;
    # a NaN or inf entry is one that names its block, raised before any
    # transform, never a compatible residual or ScalarField's error
    with pytest.raises(ValueError, match=message):
        call(*blocks())


class TestCompatibilityResidualReference:
    """The lattice residual against the spectral loop it replaced."""

    @staticmethod
    def reference(blocks):
        g = blocks[0].grid
        return reference_cross_residual(*(potential._entry_spectra(b) for b in blocks),
                                        *_grid_symbols(g), g)

    @pytest.mark.parametrize("k,l", KL)
    def test_gk_data_at_roundoff(self, k, l):
        g = block_grid(k, l)
        blocks = square_operator(bandlimited_field(g, np.random.default_rng(k + 3 * l)))
        assert compatibility_residual(*blocks) <= 1e-13
        assert self.reference(blocks) <= 1e-13

    @pytest.mark.parametrize("k,l", KL)
    def test_non_gk_data_agrees(self, k, l):
        # random Hermitian blocks: complex off-diagonal entries where m = 2
        g = block_grid(k, l)
        rng = np.random.default_rng(10 * k + l)
        blocks = random_hermitian(g, "plus", rng), random_hermitian(g, "minus", rng)
        got, ref = compatibility_residual(*blocks), self.reference(blocks)
        assert ref > 1.0
        assert got == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("k,l", KL)
    def test_whole_field_loop_agrees(self, k, l):
        # the lattice read against the loop as first written, on square and
        # on random Hermitian blocks of other draws: the two round apart, so
        # square data agree at roundoff and non-square data to 1e-13
        g = block_grid(k, l)
        rng = np.random.default_rng(20 * k + l)
        square = square_operator(bandlimited_field(g, rng))
        assert compatibility_residual(*square) <= 1e-13
        assert self.reference(square) <= 1e-13
        blocks = random_hermitian(g, "plus", rng), random_hermitian(g, "minus", rng)
        got, ref = compatibility_residual(*blocks), self.reference(blocks)
        assert ref > 1.0
        assert got == pytest.approx(ref, rel=1e-13)

    def test_diagonal_read_by_its_real_part(self, rng):
        # an imaginary diagonal part within the Hermitian tolerance is not
        # read, as by the solver: read, it would move the residual of
        # square data by about 1e-14
        g = block_grid(2, 2)
        op, om = square_operator(bandlimited_field(g, rng))
        vals = om.values.copy()
        vals[..., 1, 1] += 1e-13j * cos_axis_field(g, 0).values
        shifted = HermitianMatrixField(g, "minus", vals)
        assert compatibility_residual(op, shifted) == compatibility_residual(op, om) <= 1e-15

    @pytest.mark.parametrize("block", ["plus", "minus"])
    def test_non_hermitian_block_named(self, block, rng):
        g = block_grid(2, 2)
        blocks = {b: random_hermitian(g, b, rng) for b in ("plus", "minus")}
        vals = blocks[block].values.copy()
        vals[0, 1, 2, 3, 0, 0, 1, 0, 1, 0] += 1e-3
        blocks[block] = HermitianMatrixField(g, block, vals, check=False)
        with pytest.raises(ValueError, match=rf"^{block} block is not Hermitian "
                                             r"at entry \(0, 1\) \(deviation 1\.000e-03\)$"):
            compatibility_residual(blocks["plus"], blocks["minus"])


class TestRealBlockRoundtrip:
    """k = l = 1 blocks are real numbers; the roundtrip is pinned bitwise
    and its memory is bounded in lattice fields and half spectra."""

    grid = BicomplexGrid.regular(1, 1, 16)

    def field(self):
        return bandlimited_field(self.grid, np.random.default_rng(2024))

    # sha256 of f.values, recorded while the blocks were stored as
    # complex128; the transforms are scipy.fft's pocketfft, whose rounding
    # another FFT build may not share.  The residuals are read on f by the
    # lattice stencil, + - and * only
    PINNED_F = "dea445cdec1ff15825942e191486f36877a2c1b339890e7d6cc0cedb6bd5875d"
    PINNED_RESIDUALS = (7.993605777301127e-15, 1.1546319456101628e-14)

    def test_pinned_bitwise(self):
        dec = solve_square(*square_operator(self.field()))
        assert hashlib.sha256(dec.f.values.tobytes()).hexdigest() == self.PINNED_F
        assert (dec.residual_plus, dec.residual_minus) == self.PINNED_RESIDUALS

    def test_traced_memory(self):
        # (grid, bounds in half spectra on the solver's peak above its
        # inputs and on the first residual read's peak above what the
        # decomposition holds): no spectral pass makes a full-size temporary
        # beside the entry spectra, one per real part, which the solver owns
        for g, solve_bound, read_bound in ((self.grid, 4.5, 1.3),
                                           (BicomplexGrid.regular(1, 1, 32), 2.3, 0.3),
                                           (BicomplexGrid.regular(2, 2, 4), 11.0, 4.5)):
            f = bandlimited_field(g, np.random.default_rng(2024))
            solve_square(*square_operator(f))            # symbols cached
            half_bytes = 16 * g.size // g.shape[-1] * (g.shape[-1] // 2 + 1)
            tracemalloc.start()
            try:
                blocks = square_operator(f)
                held = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                dec = solve_square(*blocks)
                kept, peak = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                dec.residual_plus, dec.residual_minus
                read_peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert dec.f.values.dtype == np.float64
            if g.k == g.l == 1:
                # two float64 lattice fields, one per block
                assert held <= 2.1 * 8 * g.size
            # the decomposition holds f and the blocks, and no half spectrum
            assert kept <= 1.05 * (held + dec.f.values.nbytes)
            assert peak - held <= solve_bound * half_bytes
            # the read applies the stencil to f slab by slab
            assert read_peak - kept <= read_bound * half_bytes


@pytest.mark.parametrize("k,l,n", [(1, 1, 8), (2, 2, 4)])
def test_overflowing_spectra_fail_every_certificate(k, l, n):
    # finite blocks whose entry spectra overflow: the residual bound is
    # not finite, so it certifies nothing and the solve is refused.  The
    # cross condition, read on the lattice, is finite and at roundoff
    g = BicomplexGrid.regular(k, l, n)
    op, om = square_operator(bandlimited_field(g, np.random.default_rng(7)))
    op, om = (HermitianMatrixField(g, b.block, 1e306 * b.values) for b in (op, om))
    scale = max(float(np.abs(b.values).max()) for b in (op, om))
    cross = compatibility_residual(op, om)
    assert math.isfinite(cross) and cross <= 1e-13 * scale
    with pytest.raises(IncompatibleData, match=r"^plus block residual (nan|inf) "
                                               r"exceeds tolerance \d\.\d{3}e\+\d+$"):
        solve_square(op, om)


@pytest.mark.parametrize("k,l,n", [(1, 1, 8), (2, 2, 4)])
def test_overflowed_mean_is_incompatible(k, l, n):
    # at 1e307 the plus (0, 0) entry's zero mode overflows to NaN: no mean
    # is read, and the residual bound, which carries it, refuses the solve
    g = BicomplexGrid.regular(k, l, n)
    op, om = square_operator(bandlimited_field(g, np.random.default_rng(7)))
    vals = op.values.copy()
    vals[..., 0, 0] += 0.1 * cos_axis_field(g, 2 * k).values
    op = HermitianMatrixField(g, "plus", 1e307 * vals, check=False)
    om = HermitianMatrixField(g, "minus", 1e307 * om.values, check=False)
    assert not np.isfinite(potential._entry_spectra(op)[0, 0][0].flat[0])
    with pytest.raises(IncompatibleData, match=r"^plus block residual nan exceeds"):
        solve_square(op, om)


def test_overflowing_potential_is_incompatible():
    # the plus block of f = A cos(2 pi j0 / 8) on 8^4 with h = 1e75: its
    # spectrum, the residual bounds and f (A = 5.9e304) are finite, but
    # hat(f) = 1.2e308 at modes +-1, whose sum overflows in the unscaled
    # inverse transform
    g = BicomplexGrid(1, 1, (8,) * 4, (1e75,) * 4)
    amplitude = 1.2e308 / (g.size / 2)
    symbol = math.sin(math.pi / 8) ** 2 / g.spacing[0] ** 2
    wave = np.cos(2 * np.pi * np.arange(8) / 8).reshape(-1, 1, 1, 1, 1, 1)
    plus = np.broadcast_to(-symbol * amplitude * wave, g.shape + (1, 1)).copy()
    with pytest.raises(IncompatibleData, match=r"^potential is not finite: its inverse "
                                               r"transform overflowed$"):
        solve_square(HermitianMatrixField(g, "plus", plus), HermitianMatrixField.zeros(g, "minus"))


@pytest.mark.parametrize("h,amplitude", [(1e100, 1e200), (1e-150, 1e-300), (1e77, 1e154)])
def test_exact_square_data_at_extreme_spacings(h, amplitude):
    # f = A cos(2 pi j0 / 8) on 8^4 with spacing h: the symbols are about
    # 1/h^2, so the unscaled sum of their squares underflows (h >= 1e77) or
    # overflows (h = 1e-150) and zeroed the weights, which refused the data
    g = BicomplexGrid(1, 1, (8,) * 4, (h,) * 4)
    wave = np.cos(2 * np.pi * np.arange(8) / 8).reshape(-1, 1, 1, 1)
    f = ScalarField(g, np.broadcast_to(amplitude * wave, g.shape).copy())
    dec = solve_square(*square_operator(f))
    assert np.abs(dec.f.values - f.values).max() <= 1e-15 * amplitude
    assert max(dec.residual_plus, dec.residual_minus) <= 1e-15


class TestMovedAcceptance:
    """Where the one certificate moved the accepted set, on 16^4 with
    k = l = 1 (scale 1, tolerance 1e-8)."""

    grid = BicomplexGrid.regular(1, 1, 16)

    def test_plus_block_along_a_minus_axis(self):
        # eps cos x_2 on the plus block: no f reaches it, so f = 0 and the
        # plus residual is eps.  The stray read accepted eps up to 2e-8
        # (content eps / 2 per point) and refused 3e-8
        for eps in (1e-8, 1.5e-8, 3e-8):
            blocks = cos_plus(self.grid, eps, 2)
            if eps == 1e-8:
                dec = solve_square(*blocks)
                assert not dec.f.values.any()
                assert (dec.residual_plus, dec.residual_minus) == (1e-8, 0.0)
                continue
            with pytest.raises(IncompatibleData, match=rf"^{refusal('plus', eps, 1e-8)}$"):
                solve_square(*blocks)

    def test_minus_block_at_the_plus_nyquist_mode(self):
        # delta (-1)^j along plus axis 0 on the minus block: no f reaches
        # it, so f = 0 and the minus residual is delta.  The cross read
        # refused delta = 5e-9: its cross residual is delta / h^2
        g = self.grid
        alt = np.broadcast_to((-1.0) ** np.arange(16).reshape(-1, 1, 1, 1), g.shape)
        blocks = (HermitianMatrixField.zeros(g, "plus"),
                  HermitianMatrixField(g, "minus", 5e-9 * alt[..., None, None]))
        assert compatibility_residual(*blocks) == pytest.approx(5e-9 / g.spacing[0] ** 2)
        dec = solve_square(*blocks)
        assert not dec.f.values.any()
        assert (dec.residual_plus, dec.residual_minus) == (0.0, 5e-9)
