import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistedma import (BicomplexGrid, HermitianMatrixField, ScalarField,
                       det_plus, export_csv, hermitian_hessian, load_field,
                       min_eigenvalue, save_field, solve_square, square_operator)
from twistedma.grid import (_hessian_terms, det_values, hessian_block_values,
                            min_eig_values, pd_gate)

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
    # pinned_input, recorded from the stencil before the table existed; the
    # stencil is built from +, - and * only, so the bytes do not depend on
    # the platform
    PINNED = {
        (1, 1): "9536b3614016d583e5cb30df0212b991265ef1d6aa86d36278a3b58809edeff9",
        (1, 2): "aa09a855e84e3d6f150ae0fc022d72ed76ce9ac388c8023102ca8777ac65202f",
        (2, 2): "ad410e4349af9c8a447ea2b6df42b4b768be478cfee756323056ca3c9ff5ada1",
    }

    @pytest.mark.parametrize("k,l", sorted(PINNED))
    def test_pinned_bitwise(self, k, l):
        rng = np.random.default_rng(40 + 10 * k + l)
        n_axes = 2 * k + 2 * l
        counts = (6,) + (4,) * (n_axes - 1)
        spacing = tuple(float(s) for s in rng.uniform(0.2, 1.5, size=n_axes))
        g = BicomplexGrid(k, l, counts, spacing)
        real = rng.standard_normal(counts)
        cplx = rng.standard_normal(counts) + 1j * rng.standard_normal(counts)
        sha = hashlib.sha256()
        for values in (real, cplx):
            for block in ("plus", "minus"):
                sha.update(hessian_block_values(values, g, block).tobytes())
        assert sha.hexdigest() == self.PINNED[k, l]

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

    def test_constant_does_not_alias_its_input(self, small_grid):
        M = np.eye(1, dtype=complex)
        H = HermitianMatrixField.constant(small_grid, "plus", M)
        M[0, 0] = -1.0
        assert H.values.ravel()[0] == 1.0


class TestDetPlus:
    def test_identity(self):
        assert det_plus(np.eye(2)) == 1.0

    def test_indefinite_gates_to_zero(self):
        assert det_plus(np.diag([2.0, -1.0])) == 0.0

    def test_positive_diag(self):
        assert det_plus(np.diag([2.0, 3.0])) == pytest.approx(6.0)

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
        assert len(raw) == 32 + 8 * small_grid.size

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
