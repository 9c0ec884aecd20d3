import hashlib
import itertools
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistedma import (BicomplexGrid, CohomologyClassRep, FlowState, HermitianMatrixField,
                       ScalarField, chi_from_weights, det_plus, export_csv, flat_background,
                       hermitian_hessian, load_field, min_eigenvalue, save_field,
                       solve_square, square_operator)
from twistedma import flow
from twistedma import grid as grid_module
from twistedma.flow import form_block_values
from twistedma.grid import (PD_GATE, _eig_bounds, _hessian_terms, det_values,
                            hessian_block_values, min_eig_values, pd_gate)

from conftest import bandlimited_field, cos_axis_field


def sigma(h):
    """Exact symbol factor of the 3-point second difference on cos."""
    return 4.0 * np.sin(h / 2.0) ** 2 / (h * h)


class TestGridConstruction:
    def test_regular_spacing(self):
        g = BicomplexGrid.regular(1, 1, 64)
        assert g.real_dim == 4
        assert np.allclose(g.spacing, 2 * np.pi / 64)
        assert g.shape == (64,) * 4

    def test_block_axes(self):
        g = BicomplexGrid.regular(2, 1, 8)
        assert g.block_axes("plus") == [(0, 1), (2, 3)]
        assert g.block_axes("minus") == [(4, 5)]

    @pytest.mark.parametrize("k,l", [(0, 1), (3, 1), (1, 0), (1, 3)])
    def test_desk_scale_blocks_only(self, k, l):
        n_axes = max(2 * k + 2 * l, 4)
        with pytest.raises(ValueError):
            BicomplexGrid(k, l, (8,) * n_axes, (1.0,) * n_axes)

    def test_odd_or_tiny_axis_rejected(self):
        with pytest.raises(ValueError):
            BicomplexGrid(1, 1, (8, 8, 7, 8), (1.0,) * 4)
        with pytest.raises(ValueError):
            BicomplexGrid(1, 1, (8, 8, 2, 8), (1.0,) * 4)

    def test_list_fields_stored_as_tuples(self):
        g = BicomplexGrid(1, 1, [4] * 4, [1.0] * 4)
        assert g.n_points == (4,) * 4 and g.spacing == (1.0,) * 4
        assert g == BicomplexGrid(1, 1, (4,) * 4, (1.0,) * 4)
        assert hash(g) == hash(BicomplexGrid(1, 1, (4,) * 4, (1.0,) * 4))
        assert hessian_block_values(np.ones(g.shape), g, "plus").shape == (4,) * 4 + (1, 1)
        # a grid built from lists keys the symbol cache and runs the solver
        u = ScalarField(g, np.cos(g.axis_coords(0))[:, None, None, None] * np.ones(g.shape))
        assert np.isfinite(solve_square(*square_operator(u)).residual_plus)

    @pytest.mark.parametrize("h", [0.0, -1.0, np.inf, np.nan, 1e-162, 1e-170])
    def test_spacing_needs_finite_inverse_square(self, h):
        with pytest.raises(ValueError, match="spacings"):
            BicomplexGrid(1, 1, (4,) * 4, (1.0, h, 1.0, 1.0))

    @pytest.mark.parametrize("h", [1e155, 1e300])
    def test_spacing_needs_finite_square(self, h):
        # a period near the float range would overflow the coordinates
        with pytest.raises(ValueError, match="finite h\\^2 and 1/h\\^2"):
            BicomplexGrid(1, 1, (4,) * 4, (1.0, h, 1.0, 1.0))

    @pytest.mark.parametrize("n", [0, 4.5, (4, 0, 4, 4)])
    def test_regular_leaves_counts_to_the_constructor(self, n):
        # a zero count is a ValueError, not a ZeroDivisionError, and a
        # non-integral count is rejected rather than truncated
        with pytest.raises(ValueError, match="integer count"):
            BicomplexGrid.regular(1, 1, n)

    @pytest.mark.parametrize("count", [4.5, "4", 6.25])
    def test_non_integral_count_rejected(self, count):
        with pytest.raises(ValueError, match="integer count"):
            BicomplexGrid(1, 1, (8, 8, count, 8), (1.0,) * 4)

    def test_integral_float_count_normalised(self):
        g = BicomplexGrid(1, 1, (8.0, 8, 8, 8), (1.0,) * 4)
        assert g.n_points == (8,) * 4 and all(type(n) is int for n in g.n_points)

    @pytest.mark.parametrize("k,l", [(1.5, 1), (1, "1"), (float("nan"), 1)])
    def test_non_integral_block_dims_rejected(self, k, l):
        with pytest.raises(ValueError, match="block dimensions"):
            BicomplexGrid(k, l, (4,) * 4, (1.0,) * 4)

    def test_integral_float_block_dims_normalised(self):
        g = BicomplexGrid(1.0, np.int64(1), (4,) * 4, (1.0,) * 4)
        assert (g.k, g.l) == (1, 1) and type(g.k) is int and type(g.l) is int
        assert g == BicomplexGrid(1, 1, (4,) * 4, (1.0,) * 4)
        assert g.block_axes("plus") == [(0, 1)] and g.block_axes("minus") == [(2, 3)]


@pytest.mark.parametrize("call,error,message", [
    (lambda: BicomplexGrid(1, 1, (8,) * 3, (1.0,) * 3), ValueError,
     r"^expected 4 axes, got 3 counts / 3 spacings$"),
    (lambda: BicomplexGrid.regular(1, 1, 8).block_axes("x"), ValueError,
     r"^unknown block 'x'$"),
    (lambda: ScalarField(BicomplexGrid.regular(1, 1, 4), np.zeros((4, 4, 4))), ValueError,
     r"^values shape \(4, 4, 4\) != grid shape \(4, 4, 4, 4\)$"),
    (lambda: hermitian_hessian(np.zeros((4,) * 4), "plus"), TypeError,
     r"^hermitian_hessian expects a ScalarField$"),
], ids=["three_counts", "unknown_block", "field_shape", "hessian_of_array"])
def test_inputs_fail_typed(call, error, message):
    with pytest.raises(error, match=message):
        call()


class TestHermitianHessian:
    def test_zero_field(self, small_grid):
        H = hermitian_hessian(ScalarField.zeros(small_grid), "plus")
        assert np.abs(H.values).max() == 0.0

    def test_cosine_second_derivative(self):
        g = BicomplexGrid.regular(1, 1, 64)
        u = cos_axis_field(g, 0)
        H = hermitian_hessian(u, "plus")
        exact = -0.25 * np.cos(g.axis_coords(0))
        got = H.values[..., 0, 0].real[:, 0, 0, 0]
        h = g.spacing[0]
        assert np.abs(got - exact).max() <= h * h

    def test_quadratic_exact(self):
        g = BicomplexGrid.regular(1, 1, 16)
        x = g.axis_coords(0)
        vals = np.broadcast_to((x ** 2).reshape(-1, 1, 1, 1), g.shape).copy()
        u = ScalarField(g, vals)
        H = hermitian_hessian(u, "plus")
        # exact at points whose stencil avoids the periodic seam
        interior = H.values[2:-2, :, :, :, 0, 0].real
        assert np.abs(interior - 0.5).max() < 1e-12

    def test_minus_block_ignores_plus_axes(self, small_grid):
        u = cos_axis_field(small_grid, 0)
        H = hermitian_hessian(u, "minus")
        assert np.abs(H.values).max() < 1e-14

    @given(a=st.floats(-3, 3), b=st.floats(-3, 3))
    @settings(max_examples=20, deadline=None)
    def test_linearity(self, a, b):
        g = BicomplexGrid.regular(1, 1, 8)
        rng = np.random.default_rng(7)
        u = bandlimited_field(g, rng)
        v = bandlimited_field(g, rng)
        lhs = hermitian_hessian(ScalarField(g, a * u.values + b * v.values), "plus").values
        rhs = (a * hermitian_hessian(u, "plus").values
               + b * hermitian_hessian(v, "plus").values)
        scale = 1.0 + np.abs(rhs).max()
        assert np.abs(lhs - rhs).max() <= 1e-12 * scale

    def test_hermitian_by_construction(self, rng):
        g = BicomplexGrid.regular(2, 1, 8)
        u = bandlimited_field(g, rng)
        H = hermitian_hessian(u, "plus").values
        assert np.abs(H - np.conj(np.swapaxes(H, -1, -2))).max() < 1e-13


def roll_second_diff(v, a, b, ha, hb):
    """Reference central second difference built from np.roll shifts."""
    if a == b:
        return (np.roll(v, -1, a) - 2.0 * v + np.roll(v, 1, a)) / (ha * ha)
    out = np.zeros_like(v)
    for sa in (1, -1):
        for sb in (1, -1):
            out += sa * sb * np.roll(np.roll(v, -sa, a), -sb, b)
    return out / (4.0 * ha * hb)


def roll_hessian(v, grid, block):
    axes = grid.block_axes(block)
    h = grid.spacing
    m = len(axes)
    out = np.empty(grid.shape + (m, m), dtype=np.complex128)
    for i, (xi, yi) in enumerate(axes):
        for j, (xj, yj) in enumerate(axes):
            re = (roll_second_diff(v, xi, xj, h[xi], h[xj])
                  + roll_second_diff(v, yi, yj, h[yi], h[yj]))
            im = (roll_second_diff(v, xi, yj, h[xi], h[yj])
                  - roll_second_diff(v, yi, xj, h[yi], h[xj]))
            out[..., i, j] = 0.25 * (re + 1j * im)
    return out


class TestStencil:
    @pytest.mark.parametrize("k,l", [(1, 1), (1, 2), (2, 2)])
    def test_matches_roll_reference(self, k, l, rng):
        n_axes = 2 * k + 2 * l
        counts = tuple(int(c) for c in rng.choice([4, 6, 8], size=n_axes))
        spacing = tuple(float(h) for h in rng.uniform(0.2, 1.5, size=n_axes))
        g = BicomplexGrid(k, l, counts, spacing)
        v = rng.standard_normal(g.shape)
        for block in ("plus", "minus"):
            got = hessian_block_values(v, g, block)
            ref = roll_hessian(v, g, block)
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
            m = g.block_dim(block)
            for i in range(m):
                assert np.array_equal(got[..., i, i].imag, np.zeros(g.shape))
                for j in range(i + 1, m):
                    assert np.array_equal(got[..., j, i], np.conj(got[..., i, j]))

    def test_complex_values_stencilled_linearly(self, rng):
        g = BicomplexGrid.regular(2, 2, 4)
        vr, vi = rng.standard_normal(g.shape), rng.standard_normal(g.shape)
        for block in ("plus", "minus"):
            got = hessian_block_values(vr + 1j * vi, g, block)
            ref = roll_hessian(vr, g, block) + 1j * roll_hessian(vi, g, block)
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


    # sha256 of hessian_block_values(...).tobytes() on the seeded inputs of
    # pinned_input, recorded from the stencil before the table existed
    # ((2, 1): from the whole-array stencil before slabs existed); the
    # stencil is built from +, - and * only, so the bytes do not depend on
    # the platform.  A real m = 1 output is float64 and is hashed as the
    # complex128 array it was recorded as
    PINNED = {
        (1, 1): "9536b3614016d583e5cb30df0212b991265ef1d6aa86d36278a3b58809edeff9",
        (1, 2): "aa09a855e84e3d6f150ae0fc022d72ed76ce9ac388c8023102ca8777ac65202f",
        (2, 1): "0a640f1b8b873804185efd661b2ec5367c8d6b96ecf38e1c4147db1a699abb6a",
        (2, 2): "ad410e4349af9c8a447ea2b6df42b4b768be478cfee756323056ca3c9ff5ada1",
    }

    # _SLAB_POINTS as a function of the grid size: one whole-array pass
    # (the unsuffixed ids); one index per slab; and 3/4 of the points,
    # which on counts (6, 4, ...) cuts the minus block's 6 indices into
    # slabs of 4 and 2 and the plus block's 4 into 3 and 1
    SLABS = {"whole": lambda size: size, "one_index": lambda size: 1,
             "short_last": lambda size: 3 * size // 4}

    @pytest.mark.parametrize("k,l,slab", [
        pytest.param(k, l, slab, id=f"{k}-{l}" + ("" if slab == "whole" else f"-{slab}"))
        for (k, l), slab in itertools.product(sorted(PINNED), SLABS)])
    def test_pinned_bitwise(self, k, l, slab, monkeypatch):
        rng = np.random.default_rng(40 + 10 * k + l)
        n_axes = 2 * k + 2 * l
        counts = (6,) + (4,) * (n_axes - 1)
        spacing = tuple(float(s) for s in rng.uniform(0.2, 1.5, size=n_axes))
        g = BicomplexGrid(k, l, counts, spacing)
        monkeypatch.setattr(grid_module, "_SLAB_POINTS", self.SLABS[slab](g.size))
        real = rng.standard_normal(counts)
        cplx = rng.standard_normal(counts) + 1j * rng.standard_normal(counts)
        sha = hashlib.sha256()
        for values in (real, cplx):
            for block in ("plus", "minus"):
                out = hessian_block_values(values, g, block)
                real_block = g.block_dim(block) == 1 and not np.iscomplexobj(values)
                assert out.dtype == (np.float64 if real_block else np.complex128)
                sha.update(out.astype(np.complex128).tobytes())
        assert sha.hexdigest() == self.PINNED[k, l]

    def test_slabs_match_whole_array_on_32_4(self, monkeypatch):
        g = BicomplexGrid.regular(1, 1, 32)
        f = ScalarField(g, np.random.default_rng(7).standard_normal(g.shape))
        assert g.size > grid_module._SLAB_POINTS
        slabbed = square_operator(f)
        monkeypatch.setattr(grid_module, "_SLAB_POINTS", g.size)
        whole = square_operator(f)
        for got, ref in zip(slabbed, whole):
            assert got.values.dtype == ref.values.dtype
            assert np.array_equal(got.values, ref.values)

    @pytest.mark.parametrize("block", ["plus", "minus"])
    def test_slabs_bound_the_peak_memory(self, block):
        # a whole-array pass peaks at 3x its output on 32^4: the output
        # and two shifted copies of the input
        g = BicomplexGrid.regular(1, 1, 32)
        values = np.random.default_rng(8).standard_normal(g.shape)
        tracemalloc.start()
        try:
            out = hessian_block_values(values, g, block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * out.nbytes

    @pytest.mark.parametrize("block", ["plus", "minus"])
    def test_no_slab_output_outlives_its_write(self, block):
        # above its output, the slab loop peaks as one slab's stencil does
        # with its own output: a slab's output kept while the next one is
        # computed would add a slab's size
        g = BicomplexGrid.regular(2, 2, 4)
        values = np.random.default_rng(9).standard_normal(g.shape)
        slabs = grid_module._block_slabs(values, g, block)
        assert len(slabs) > 1
        peaks = []
        for run in (lambda: grid_module._block_stencil(
                        np.ascontiguousarray(values[slabs[0]]), g, block),
                    lambda: hessian_block_values(values, g, block)):
            tracemalloc.start()
            try:
                out = run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        slab_peak, loop_peak = peaks
        assert loop_peak - out.nbytes <= slab_peak + out.nbytes // len(slabs) // 2

    def test_table_shared_across_spacings(self):
        a = BicomplexGrid.regular(2, 1, 4)
        b = BicomplexGrid(2, 1, (4, 6, 8, 4, 4, 6), (0.3, 0.7, 1.1, 0.2, 0.5, 0.9))
        for block in ("plus", "minus"):
            assert _hessian_terms(a, block) is _hessian_terms(b, block)
        table = dict(_hessian_terms(a, "plus"))
        assert sorted(table) == [(0, 0), (0, 1), (1, 1)]
        assert table[0, 0] == ((0, 0, 0, 0.25), (0, 1, 1, 0.25))
        assert table[0, 1] == ((0, 0, 2, 0.25), (1, 0, 3, 0.25),
                               (0, 1, 3, 0.25), (1, 1, 2, -0.25))


class TestPeriodicShift:
    """``grid._shift`` (a flat copy offset by one plane, then the wrapped
    plane) is the copy ``np.roll`` makes, byte for byte, on every axis and
    both steps."""

    @staticmethod
    def entry_plane(shape):
        # the strided real part of one entry of an entry-major m = 2 block
        rng = np.random.default_rng(11)
        block = grid_module._block_empty(shape, 2, np.complex128)
        block[...] = rng.standard_normal(shape + (2, 2)) + 1j * rng.standard_normal(shape + (2, 2))
        plane = block[..., 0, 1].real
        assert not plane.flags.c_contiguous
        return plane

    @pytest.mark.parametrize("values", [
        pytest.param(lambda rng: rng.standard_normal((4,) * 8), id="4^8"),
        pytest.param(lambda rng: rng.standard_normal((16, 4, 16, 4)), id="16-4-16-4"),
        pytest.param(lambda rng: rng.standard_normal((32, 32, 1, 32)), id="plus-slab-32^4"),
        pytest.param(lambda rng: rng.standard_normal((64, 1024)), id="legendre-field"),
        pytest.param(lambda rng: rng.standard_normal((1, 1024)), id="legendre-row"),
        pytest.param(lambda rng: TestPeriodicShift.entry_plane((16, 4, 16, 4)),
                     id="entry-plane")])
    def test_equals_roll(self, values, rng):
        v = values(rng)
        before = v.copy()
        for axis in range(-v.ndim, v.ndim):
            for step in (1, -1):
                got = grid_module._shift(v, axis, step)
                ref = np.roll(v, -step, axis)
                assert got.shape == ref.shape and got.dtype == ref.dtype
                assert got.flags.c_contiguous
                assert got.tobytes() == ref.tobytes(), (axis, step)
        assert v.tobytes() == before.tobytes()


class TestEntryMajorBlocks:
    """Computed blocks are stored entry by entry: each ``values[..., i, j]``
    of an m = 2 block is one contiguous plane, and the values are bitwise
    those of the C-order blocks stored before."""

    # sha256 of each output's dtype, shape and C-order bytes on the inputs
    # of test_bitwise_and_entry_major, recorded from the C-order stencil.
    # "whole" is one whole-array pass on 4 points per axis (on 4^8 with
    # _SLAB_POINTS raised to its size), "slabs" a grid above _SLAB_POINTS;
    # on 4^8 the two are one grid and one input, so one hash
    PINNED = {
        (1, 1, "whole"): "03b061f2d274c0686325fc7d6cc3a87fd551ce75c56a83a4b4fb19d7f36d9b0a",
        (1, 1, "slabs"): "5dcba77dbab4d333630053466944453838c2b273cb609e53968cd8c364912f8e",
        (1, 2, "whole"): "8285d55f78bca6e8ea902164b2b228bdcd8a5c6e29262f210140708cc1fa89f3",
        (1, 2, "slabs"): "f01e1596e3a4fb607d4cce047dbb99a54c2595a6c16b0eed8ce18d206cb85d68",
        (2, 1, "whole"): "e733f48217cc5e89e15d78a9c6f34937dd930ce1010358f2f8ad37256663e50d",
        (2, 1, "slabs"): "d4eadc3173b5900ce7b8d8761cbc40ba9f7972194ca9a1c1a431fd75d1b1077c",
        (2, 2, "whole"): "18ee76f7395806c6eeece62d07a171c5de0b0917c7b7226a0372ca8d78754e50",
        (2, 2, "slabs"): "18ee76f7395806c6eeece62d07a171c5de0b0917c7b7226a0372ca8d78754e50",
    }
    # points per axis of the "slabs" grids
    SLAB_N = {(1, 1): 16, (1, 2): 8, (2, 1): 8, (2, 2): 4}

    @staticmethod
    def assert_entry_major(values):
        m = values.shape[-1]
        for i, j in itertools.product(range(m), repeat=2):
            assert values[..., i, j].flags.c_contiguous, (i, j)

    @pytest.mark.parametrize("k,l,path", sorted(PINNED))
    def test_bitwise_and_entry_major(self, k, l, path, monkeypatch):
        g = BicomplexGrid.regular(k, l, 4 if path == "whole" else self.SLAB_N[k, l])
        if path == "whole":
            monkeypatch.setattr(grid_module, "_SLAB_POINTS",
                                max(grid_module._SLAB_POINTS, g.size))
        assert (g.size > grid_module._SLAB_POINTS) == (path == "slabs")
        rng = np.random.default_rng([k, l, g.size])
        real = rng.standard_normal(g.shape)
        cplx = real + 1j * rng.standard_normal(g.shape)
        sha = hashlib.sha256()
        for values in (real, cplx):
            for block in ("plus", "minus"):
                out = hessian_block_values(values, g, block)
                m = g.block_dim(block)
                assert out.shape == g.shape + (m, m)
                assert out.dtype == (np.float64 if m == 1 and values is real
                                     else np.complex128)
                self.assert_entry_major(out)
                sha.update(f"{out.dtype.str}{out.shape}".encode())
                sha.update(np.ascontiguousarray(out).tobytes())
        assert sha.hexdigest() == self.PINNED[k, l, path]

    def test_flow_forms_stay_entry_major(self):
        # the forms are built in their Hessians' buffers
        g = BicomplexGrid.regular(2, 2, 4)
        bg = flat_background(g, chi_plus=HermitianMatrixField.constant(
            g, "plus", np.diag([0.6, -0.4])))
        u = cos_axis_field(g, 2, amplitude=0.05)
        for form in form_block_values(FlowState(0.1, u, bg)):
            self.assert_entry_major(form)

    def test_block_means_do_not_depend_on_the_layout(self):
        # the class means and the flow's mean forms of an entry-major chi
        # are bitwise those of its C-order copy
        g = BicomplexGrid.regular(2, 2, 4)
        rng = np.random.default_rng(12)
        chi = chi_from_weights(*(ScalarField(g, 0.1 * rng.standard_normal(g.shape))
                                 for _ in range(2)))
        self.assert_entry_major(chi[0].values)
        c_order = [HermitianMatrixField(g, c.block, np.ascontiguousarray(c.values),
                                        check=False) for c in chi]
        assert not c_order[0].values[..., 0, 1].flags.c_contiguous
        u = cos_axis_field(g, 2, amplitude=0.05)
        seen = []
        for plus, minus in (chi, c_order):
            rep = CohomologyClassRep.of(plus, minus)
            lin = flow._linearization(FlowState(
                0.05, u, flat_background(g, chi_plus=plus, chi_minus=minus)))
            seen.append([rep.mean_plus, rep.mean_minus, *lin.mean_forms, lin.symbol])
        for got, ref in zip(*seen):
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("block", ["plus", "minus"])
    def test_slabs_write_in_place(self, block):
        # 4^8 k = l = 2: a slab's block built and then copied in would add
        # a quarter of the output: the peak was 1.50 and 1.47 times it
        # when each slab's block was copied in
        g = BicomplexGrid.regular(2, 2, 4)
        values = np.random.default_rng(13).standard_normal(g.shape)
        hessian_block_values(values, g, block)
        tracemalloc.start()
        try:
            out = hessian_block_values(values, g, block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.35 * out.nbytes

    @pytest.mark.parametrize("block", ["plus", "minus"])
    def test_complex_values_peak(self, block):
        # i H(imag) is written into the output part by part, so the
        # imaginary part's Hessian is the one other full-size block alive
        # (2.25 times the output on 4^8 k = l = 2); a product 1j * H(imag)
        # would make a third (3.0 times)
        g = BicomplexGrid.regular(2, 2, 4)
        rng = np.random.default_rng(14)
        values = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        ref = (hessian_block_values(values.real, g, block)
               + 1j * hessian_block_values(values.imag, g, block))
        tracemalloc.start()
        try:
            out = hessian_block_values(values, g, block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * out.nbytes
        # the same values as the product, on data without signed zeros or
        # non-finite entries
        assert np.array_equal(out, ref)


class TestHermitianMatrixFieldShape:
    @pytest.mark.parametrize("k,l", [(1, 1), (2, 1), (1, 2), (2, 2)])
    def test_constant_and_zeros_store_one_matrix(self, k, l):
        g = BicomplexGrid.regular(k, l, 4)
        for block, m in (("plus", k), ("minus", l)):
            M = np.eye(m) + 0.5j * (np.eye(m, k=1) - np.eye(m, k=-1))
            H = HermitianMatrixField.constant(g, block, M)
            assert H.values.shape == (1,) * g.real_dim + (m, m)
            assert np.array_equal(H.values.reshape(m, m), M)
            Z = HermitianMatrixField.zeros(g, block)
            assert Z.values.shape == (1,) * g.real_dim + (m, m)
            assert not Z.values.any()

    def test_full_shape_accepted(self, small_grid):
        vals = np.ones(small_grid.shape + (1, 1))
        assert HermitianMatrixField(small_grid, "plus", vals).values.shape == vals.shape

    @pytest.mark.parametrize("lead", [(), (1,), (8, 1, 1, 1), (1, 1, 1, 1, 1), (8, 8, 8, 4)])
    def test_other_shapes_rejected(self, small_grid, lead):
        with pytest.raises(ValueError, match="values shape"):
            HermitianMatrixField(small_grid, "plus", np.ones(lead + (1, 1)))

    @pytest.mark.parametrize("k,value", [(1, np.nan), (1, -np.inf), (1, complex(0.0, np.nan)),
                                         (2, np.inf), (2, complex(1.0, np.nan))])
    def test_non_finite_rejected(self, k, value):
        # a NaN passes every comparison of the Hermitian test: the peak
        # is checked first
        g = BicomplexGrid.regular(k, 1, 4)
        dtype = complex if k == 2 or isinstance(value, complex) else float
        vals = np.zeros(g.shape + (k, k), dtype=dtype)
        vals[(1, 2, 3) + (0,) * (vals.ndim - 3)] = value
        with pytest.raises(ValueError, match=r"^plus block is not finite \(max \|value\| (nan|inf)\)$"):
            HermitianMatrixField(g, "plus", vals)

    def test_constant_does_not_alias_its_input(self, small_grid):
        M = np.eye(1, dtype=complex)
        H = HermitianMatrixField.constant(small_grid, "plus", M)
        M[0, 0] = -1.0
        assert H.values.ravel()[0] == 1.0


class TestRealBlockStorage:
    @pytest.mark.parametrize("k,l", [(1, 1), (2, 1), (1, 2), (2, 2)])
    def test_real_one_by_one_blocks_are_float64(self, k, l, rng):
        g = BicomplexGrid.regular(k, l, 4)
        f = bandlimited_field(g, rng)
        squares = dict(zip(("plus", "minus"), square_operator(f)))
        for block, m in (("plus", k), ("minus", l)):
            want = np.float64 if m == 1 else np.complex128
            for values in (HermitianMatrixField.constant(g, block, np.eye(m)).values,
                           HermitianMatrixField.zeros(g, block).values,
                           hessian_block_values(f.values, g, block),
                           hermitian_hessian(f, block).values,
                           squares[block].values):
                assert values.dtype == want

    def test_complex_one_by_one_block_stays_complex(self, small_grid, rng):
        g = small_grid
        M = np.eye(1, dtype=complex)
        assert HermitianMatrixField.constant(g, "plus", M).values.dtype == np.complex128
        z = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        out = hessian_block_values(z, g, "plus")
        assert out.dtype == np.complex128
        assert np.array_equal(out.real, hessian_block_values(z.real, g, "plus"))
        # and keeps the full check: its diagonal must be real
        vals = np.ones(g.shape + (1, 1), dtype=complex)
        HermitianMatrixField(g, "plus", vals)
        vals[1, 2, 3, 0, 0, 0] += 1e-6j
        with pytest.raises(ValueError, match=r"plus block is not Hermitian at entry \(0, 0\)"):
            HermitianMatrixField(g, "plus", vals)

    def test_real_kernels_match_complex_storage(self, rng):
        # the closed forms read .real: a float64 block gives the bits its
        # complex128 copy gives
        g = BicomplexGrid.regular(1, 1, 8)
        vals = hessian_block_values(bandlimited_field(g, rng).values, g, "plus") + 0.5
        for kernel in (det_values, min_eig_values, pd_gate, det_plus):
            assert np.array_equal(kernel(vals), kernel(vals.astype(complex)))


class TestDetPlus:
    def test_identity(self):
        assert det_plus(np.eye(2)) == 1.0

    def test_indefinite_gates_to_zero(self):
        assert det_plus(np.diag([2.0, -1.0])) == 0.0

    def test_positive_diag(self):
        assert det_plus(np.diag([2.0, 3.0])) == pytest.approx(6.0)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_near_float_maximum(self, dtype):
        # a positive definite determinant beyond the float range is inf; an
        # indefinite or singular one is gated out, both without a warning
        for matrix, expected in (([[1e308, 0.0], [0.0, 1e308]], np.inf),
                                 ([[1e308, 0.0], [0.0, -1e308]], 0.0),
                                 ([[1e308, 1e308], [1e308, 1e308]], 0.0)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert det_plus(np.array(matrix, dtype=dtype)) == expected

    @pytest.mark.parametrize("shape", [(3, 3), (5, 3, 3), (2, 1), (2,), ()])
    def test_rejects_blocks_a_grid_cannot_have(self, shape):
        # the closed forms cover m in {1, 2}, the only block sizes of a grid
        with pytest.raises(ValueError, match="1x1 or 2x2"):
            det_plus(np.ones(shape))

    @given(st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_nonnegative_and_monotone(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        H = A + A.conj().T
        assert det_plus(H) >= 0.0
        # PSD increment on a PD base never lowers det_plus
        base = H + (abs(min_eig_values(H[None])[0]) + 1.0) * np.eye(2)
        B = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        psd = B @ B.conj().T
        assert det_plus(base + psd) >= det_plus(base) - 1e-12

    def test_gate_matches_min_eigenvalue(self, rng):
        for _ in range(50):
            A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            H = A + A.conj().T
            lo = min_eig_values(H[None])[0]
            if lo > 1e-6:
                assert det_plus(H) == pytest.approx(det_values(H[None])[0])
            elif lo < -1e-6:
                assert det_plus(H) == 0.0


class TestMinEigenvalue:
    def test_identity_field(self, small_grid):
        H = HermitianMatrixField.constant(small_grid, "plus", np.eye(1))
        assert np.all(min_eigenvalue(H).values == 1.0)

    def test_constant_indefinite(self):
        g = BicomplexGrid.regular(2, 1, 8)
        H = HermitianMatrixField.constant(g, "plus", np.diag([3.0, -2.0]))
        assert np.all(min_eigenvalue(H).values == pytest.approx(-2.0))

    def test_against_characteristic_polynomial_oracle(self, rng):
        # independent oracle: roots of det(H - x I) via numpy.roots
        for _ in range(50):
            A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            H = A + A.conj().T
            tr = H[0, 0].real + H[1, 1].real
            det = H[0, 0].real * H[1, 1].real - abs(H[0, 1]) ** 2
            roots = np.roots([1.0, -tr, det])
            assert min_eig_values(H[None])[0] == pytest.approx(
                roots.real.min(), abs=1e-10)


class TestEigBoundsRange:
    # the closed form's (a + d) / 2 and (a - d)^2 / 4 overflow here
    REAL = [([[1.0, 0.0], [0.0, 3e154]], 1.0, 3e154),
            ([[3e154, 0.0], [0.0, 1.0]], 1.0, 3e154),
            ([[1.7e308, 0.0], [0.0, 1.7e308]], 1.7e308, 1.7e308),
            ([[-1.7e308, 0.0], [0.0, -1.0]], -1.7e308, -1.0),
            ([[0.0, 1e200], [1e200, 0.0]], -1e200, 1e200)]
    # [[1, i], [-i, 2]] has the eigenvalues (3 -+ sqrt 5) / 2
    COMPLEX = [([[1e300, 1e300j], [-1e300j, 2e300]], 0.38196601125010515e300,
                2.618033988749895e300)]

    @pytest.mark.parametrize("matrix,lo,hi,dtype",
                             [case + (np.float64,) for case in REAL]
                             + [case + (np.complex128,) for case in REAL + COMPLEX])
    def test_finite_where_the_closed_form_overflows(self, matrix, lo, hi, dtype):
        got_lo, got_hi = _eig_bounds(np.array(matrix, dtype=dtype)[None])
        assert got_lo[0] == pytest.approx(lo, rel=1e-14)
        assert got_hi[0] == pytest.approx(hi, rel=1e-14)

    def test_closed_form_bits_kept_below_overflow(self, rng):
        # the closed form, written out: the bits of every matrix it does
        # not overflow on, next to one it does
        A = rng.standard_normal((200, 2, 2)) + 1j * rng.standard_normal((200, 2, 2))
        values = (A + A.conj().transpose(0, 2, 1)) * np.logspace(-150, 150, 200)[:, None, None]
        values[17] = np.diag([1.0, 3e154])
        a, d = values[..., 0, 0].real, values[..., 1, 1].real
        half = 0.5 * (a + d)
        with np.errstate(over="ignore"):
            disc = np.sqrt(np.maximum(0.25 * (a - d) ** 2 + np.abs(values[..., 0, 1]) ** 2, 0.0))
        lo, hi = _eig_bounds(values)
        kept = np.arange(200) != 17
        assert np.array_equal(lo[kept], (half - disc)[kept])
        assert np.array_equal(hi[kept], (half + disc)[kept])
        assert (lo[17], hi[17]) == (1.0, 3e154)

    def test_background_accepts_wide_positive_block(self):
        g = BicomplexGrid.regular(2, 1, 4)
        bg = flat_background(g, omega0_plus=HermitianMatrixField.constant(
            g, "plus", np.diag([1.0, 3e154])))
        assert min_eig_values(bg.omega0_plus.values).min() == 1.0


class TestEntryKernels:
    # the float-extreme matrices of TestEigBoundsRange, indefinite ones,
    # and an increment added entry by entry as the viscosity jets add it
    MATRICES = [case[0] for case in TestEigBoundsRange.REAL + TestEigBoundsRange.COMPLEX] + [
        [[2.0, 1.0 - 1.0j], [1.0 + 1.0j, -3.0]], [[1e-300, 0.0], [0.0, 1e-300]],
        [[0.0, 0.0], [0.0, 0.0]]]

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_entries_give_the_stacked_bits(self, rng, m, sign):
        if m == 2:
            values = np.array(self.MATRICES, dtype=np.complex128)
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            inc = sign * 0.37 * np.outer(v, v.conj())
            parts = (inc[0, 0].real, inc[1, 1].real, inc[0, 1])
        else:
            values = np.array([[[x]] for x in (1.7e308, -1.7e308, 5e-324, 0.0, -2.0, 3.0)])
            inc = sign * np.array([[0.37]])
            parts = (inc[0, 0],)
        entries = tuple(np.ascontiguousarray(x) + c
                        for x, c in zip(grid_module._entries(values), parts))
        stacked = values + inc
        with np.errstate(over="ignore", invalid="ignore"):
            pairs = [(grid_module.det_entries(*entries), det_values(stacked)),
                     (grid_module.pd_gate_entries(*entries), pd_gate(stacked)),
                     (grid_module.det_plus_entries(*entries), det_plus(stacked))]
            pairs += list(zip(grid_module._eig_bounds_entries(*entries), _eig_bounds(stacked)))
        for got, want in pairs:
            assert got.dtype == want.dtype
            assert np.array_equal(got, want, equal_nan=True)
        # the extremes keep the overflow-safe branch: diag(1, 3e154) is
        # positive definite with lambda_min 1
        if m == 2:
            assert grid_module._eig_bounds_entries(*grid_module._entries(values))[0][0] == 1.0


class TestSerialization:
    def test_roundtrip(self, small_grid, rng, tmp_path):
        u = bandlimited_field(small_grid, rng)
        path = tmp_path / "field.bin"
        save_field(u, path)
        back = load_field(path)
        assert back.grid == small_grid
        assert np.array_equal(back.values, u.values)

    def test_header_magic(self, small_grid, tmp_path):
        save_field(ScalarField.zeros(small_grid), tmp_path / "f.bin")
        raw = (tmp_path / "f.bin").read_bytes()
        assert raw[:4] == b"TMAF"
        assert len(raw) == 32 + 8 * small_grid.real_dim + 8 * small_grid.size

    def test_axis_beyond_the_header_rejected_before_writing(self, tmp_path):
        g = BicomplexGrid.regular(1, 1, (65536, 4, 4, 4))
        path = tmp_path / "long.bin"
        with pytest.raises(ValueError, match=r"stores at most 65535 points per axis, "
                                             r"got counts \(65536, 4, 4, 4\)$"):
            save_field(ScalarField.zeros(g), path)
        assert not path.exists()

    def test_bad_magic_rejected(self, tmp_path):
        (tmp_path / "junk.bin").write_bytes(b"XXXX" + b"\x00" * 60)
        with pytest.raises(ValueError):
            load_field(tmp_path / "junk.bin")

    @pytest.mark.parametrize("cut", [1, 8, 8 * 7])
    def test_truncated_payload_rejected(self, small_grid, tmp_path, cut):
        path = tmp_path / "f.bin"
        save_field(ScalarField.zeros(small_grid), path)
        path.write_bytes(path.read_bytes()[:-cut])
        expected = 8 * small_grid.size
        with pytest.raises(ValueError, match=f"{expected - cut} bytes, expected {expected}"):
            load_field(path)

    @pytest.mark.parametrize("header", [
        b"TMAF\x01\x00",                                   # cut inside the header
        (b"TMAF" + struct.pack("<HHH", 1, 9, 9)).ljust(32, b"\x00"),  # k, l too large
    ])
    def test_bad_header_rejected(self, tmp_path, header):
        (tmp_path / "f.bin").write_bytes(header)
        with pytest.raises(ValueError, match="header"):
            load_field(tmp_path / "f.bin")

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "v3.bin"
        path.write_bytes((b"TMAF" + struct.pack("<HHH", 3, 1, 1)).ljust(32, b"\x00"))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: unsupported version 3$"):
            load_field(path)

    def test_period_one_roundtrip_keeps_spacing(self, rng, tmp_path):
        g = BicomplexGrid.regular(1, 2, 4, period=1.0)
        u = bandlimited_field(g, rng)
        path = tmp_path / "f.bin"
        save_field(u, path)
        back = load_field(path)
        assert back.grid == g and back.grid.spacing == (0.25,) * 6
        assert np.array_equal(back.values, u.values)
        assert load_field(path, spacing=g.spacing).grid == g
        with pytest.raises(ValueError, match="stored spacing .* differs from the requested"):
            load_field(path, spacing=BicomplexGrid.regular(1, 2, 4).spacing)

    def test_version_one_still_read(self, tmp_path):
        # a hand-written version 1 file: header, payload, no spacings
        counts = (4, 6, 4, 4)
        values = np.arange(float(np.prod(counts))).reshape(counts)
        header = (b"TMAF" + struct.pack("<HHH", 1, 1, 1)
                  + struct.pack("<4H", *counts)).ljust(32, b"\x00")
        path = tmp_path / "v1.bin"
        path.write_bytes(header + values.astype("<f8").tobytes())
        back = load_field(path)
        assert back.grid == BicomplexGrid(1, 1, counts, [2.0 * np.pi / n for n in counts])
        assert np.array_equal(back.values, values)
        assert load_field(path, spacing=[0.5] * 4).grid.spacing == (0.5,) * 4

    @pytest.mark.parametrize("keep", [32, 33, 32 + 8 * 3])
    def test_truncated_spacings_rejected(self, small_grid, tmp_path, keep):
        path = tmp_path / "f.bin"
        save_field(ScalarField.zeros(small_grid), path)
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(ValueError, match=f"header has {keep} bytes, expected 64 "
                                             "with the 4 spacings"):
            load_field(path)

    def test_csv_export(self, small_grid, tmp_path):
        export_csv(ScalarField.zeros(small_grid), tmp_path / "f.csv")
        lines = (tmp_path / "f.csv").read_text().strip().split("\n")
        assert len(lines) == small_grid.size
        assert lines[0] == "0,0,0,0,0.0"


class TestPdGate:
    def test_scale_aware(self):
        tiny = np.array([[[1e-20 + 0j]]])
        assert not pd_gate(tiny)[0]
        assert pd_gate(np.array([[[1.0 + 0j]]]))[0]

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_near_float_maximum(self, dtype):
        # the trace norm 2e308 of diag(1e308, 1e308) is beyond the float
        # range; the gate decides it without overflowing
        for diag, expected in (((1e308, 1e308), True), ((1e308, -1e308), False)):
            values = np.diag(diag).astype(dtype)[None]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert pd_gate(values)[0] == expected
                assert grid_module.pd_gate_entries(*grid_module._entries(values))[0] == expected

    @staticmethod
    def two_pass_gate(values):
        """The gate as two eigenvalue passes: lambda_min, then the trace norm."""
        lo = _eig_bounds(values)[0]
        ev_lo, ev_hi = _eig_bounds(values)
        norm = np.abs(ev_lo) if values.shape[-1] == 1 else np.abs(ev_lo) + np.abs(ev_hi)
        return lo > PD_GATE * (1.0 + norm)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_one_pass_matches_two_pass(self, rng, monkeypatch, m, dtype):
        # lambda_min within a factor 2 of the gate 1e-12 (1 + trace norm) on
        # either side, with lambda_max spread over [0.1, 10]
        n = 2000
        hi = rng.uniform(0.1, 10.0, n) if m == 2 else np.zeros(n)
        lo = rng.uniform(0.5, 1.5, n) * PD_GATE * (1.0 + np.abs(hi))
        q = rng.standard_normal((n, m, m))
        if dtype is np.complex128:
            q = q + 1j * rng.standard_normal((n, m, m))
        q, _ = np.linalg.qr(q)
        ev = np.stack([lo, hi], axis=-1)[:, :m]
        values = (q * ev[:, None, :]) @ q.conj().transpose(0, 2, 1)
        if dtype is np.float64:
            values = values.real
        expected = self.two_pass_gate(values)
        assert 0 < expected.sum() < n
        calls = []
        real = grid_module._eig_bounds

        def counted(v):
            calls.append(v.shape)
            return real(v)
        monkeypatch.setattr(grid_module, "_eig_bounds", counted)
        assert np.array_equal(pd_gate(values), expected)
        assert len(calls) == 1
