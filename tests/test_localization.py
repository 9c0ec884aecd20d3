import numpy as np
import pytest

from twistedma import localization_gap_probe
from twistedma.errors import DegenerateFit
from twistedma.localization import _negative_definite


@pytest.fixture(scope="module")
def default_probe():
    return localization_gap_probe()


class TestDefaultProbe:
    def test_exponent_collapses_below_reference(self, default_probe):
        # the published comparison argument needs decay at the reference
        # rate 2n = 2; the shipped construction measures far less
        assert default_probe.reference_exponent == 2.0
        assert not default_probe.vacuous
        assert abs(default_probe.fitted_exponent) < 1.0

    def test_distances_decrease_with_alpha(self, default_probe):
        assert np.all(np.diff(default_probe.distances) <= 0)
        assert default_probe.distances[-1] < 0.01 * default_probe.distances[0]

    def test_hessian_norms_stay_order_one(self, default_probe):
        # decay at the reference rate would drive these to ~0 with distance
        assert default_probe.hessian_norms.min() > 1.0

    def test_maximizers_returned(self, default_probe):
        assert len(default_probe.maximizers) == len(default_probe.alphas)
        x, y = default_probe.maximizers[-1]
        assert x.shape == (2,) and y.shape == (2,)

    def test_csv_output(self, default_probe, tmp_path):
        path = tmp_path / "probe.csv"
        default_probe.write_csv(path, comment="stamp")
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "# stamp"
        assert lines[1] == "alpha,distance,hessian_norm"
        assert len(lines) == 3 + len(default_probe.alphas)
        assert lines[-1].startswith("# fitted_exponent=")
        assert "np.float64" not in path.read_text()


class TestEdgeCases:
    def test_vacuous_at_zero_scale(self):
        res = localization_gap_probe(alphas=(1e1, 1e2), phi3_scale=0.0,
                                     search_levels=6)
        assert res.vacuous
        assert np.isnan(res.fitted_exponent)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            localization_gap_probe(n=0)

    def test_rejects_single_alpha(self):
        with pytest.raises(ValueError):
            localization_gap_probe(alphas=(10.0,))

    def test_collapsed_maximizers_typed(self):
        # a 4-point search finds the same maximizer at every alpha
        with pytest.raises(DegenerateFit, match="^penalized maximizers collapsed before "
                                                "the alpha range was exhausted$"):
            localization_gap_probe(search_points=4)


def test_zero_set_radius_solves_the_ramp():
    # closed-form root of 3s^2 - 2s^3 = (2 - eta) / 26 on [0, 1]
    from twistedma.localization import _ETA, _zero_set_radius
    s = _zero_set_radius() - 1.0
    assert 0.0 < s < 1.0
    assert abs(3 * s * s - 2 * s ** 3 - (2.0 - _ETA) / 26.0) <= 1e-15


# the values of the 14-level nested grid search that Newton replaced
_GRID_SEARCH_PINNED = dict(
    distances=[0.11753264551787801, 0.02295611988695123,
               0.002556929007261566, 0.0002586964659254676],
    hessian_norms=[22.533124093830626, 29.033575677725466,
                   30.37000862238237, 30.519024687911127],
    fitted_exponent=-0.044104094021357385)


def test_default_probe_pinned(default_probe):
    # one grid level, then safeguarded Newton
    assert default_probe.distances.tolist() == [
        0.11753275547715436, 0.02295610921179847,
        0.002556933957688745, 0.00025867355387099167]
    assert default_probe.hessian_norms.tolist() == [
        22.533119553143354, 29.0335720018603,
        30.370004783675242, 30.519027046954637]
    assert default_probe.fitted_exponent == -0.044103323887256934


class TestTensorSearch:
    @staticmethod
    def pointwise(n, axes, alpha):
        from twistedma.localization import _combine, _construction, _squares
        x_hat, r_zero = _construction(n)
        z = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")],
                     axis=-1)
        return _combine(*_squares(z, x_hat), alpha, r_zero, 1.0)

    @staticmethod
    def slabs(n, axes, alpha, **kw):
        from twistedma.localization import _construction, _objective_slabs
        x_hat, r_zero = _construction(n)
        return list(_objective_slabs(axes, x_hat, r_zero, alpha, 1.0, **kw))

    def test_n1_bitwise(self, rng):
        for _ in range(5):
            axes = [np.linspace(c - h, c + h, 13) for c, h in
                    zip(rng.uniform(-4, 4, 4), rng.uniform(1e-3, 3, 4))]
            alpha = 10.0 ** rng.uniform(0, 4)
            (offset, vals), = self.slabs(1, axes, alpha)
            assert offset == 0
            assert np.array_equal(vals, self.pointwise(1, axes, alpha))

    def test_n2_in_slabs(self, rng):
        axes = [np.linspace(c - 1.5, c + 1.5, 3) for c in rng.uniform(-1, 1, 8)]
        slabs = self.slabs(2, axes, 30.0, chunk=500)
        assert len(slabs) > 1 and max(len(v) for _, v in slabs) <= 500
        assert [o for o, _ in slabs] == list(
            np.cumsum([0] + [len(v) for _, v in slabs[:-1]]))
        vals = np.concatenate([v for _, v in slabs])
        np.testing.assert_allclose(vals, self.pointwise(2, axes, 30.0),
                                   rtol=1e-15, atol=0)

    def test_slab_size_does_not_move_the_maximizer(self):
        from twistedma.localization import (_construction, _grid_maximize,
                                            _objective_slabs)
        x_hat, r_zero = _construction(2)
        found = [_grid_maximize(
            lambda axes, chunk=chunk: _objective_slabs(
                axes, x_hat, r_zero, 30.0, 1.0, chunk=chunk),
            np.concatenate([x_hat, x_hat]), 2.0, n_levels=3, pts=3)
            for chunk in (500, 200_000)]
        assert np.array_equal(found[0], found[1])

    def test_slabs_choose_the_first_maximum(self):
        # a constant objective ties everywhere: the first grid point wins
        # across slabs, as with a single slab
        from twistedma.localization import _grid_maximize

        def flat(axes, chunk):
            for offset in range(0, 3 ** 4, chunk):
                yield offset, np.zeros(min(chunk, 3 ** 4 - offset))

        for chunk in (7, 81):
            best = _grid_maximize(lambda axes: flat(axes, chunk), np.zeros(4),
                                  1.0, n_levels=1, pts=3)
            assert best.tolist() == [-1.0] * 4


@pytest.mark.parametrize("kwargs", [
    dict(n=0), dict(n=1.5), dict(n=True), dict(alphas=(1e1, float("nan"))),
    dict(alphas=(1e1, float("inf"))), dict(alphas=(0.0, 1e1)),
    dict(alphas=(-1.0, 1e1)), dict(search_points=1), dict(search_levels=0),
    dict(search_points=2.5), dict(search_levels=1.5),
    dict(phi3_scale=float("nan")), dict(phi3_scale=-1.0)],
    ids=["n0", "n_float", "n_bool", "alpha_nan", "alpha_inf", "alpha_zero",
         "alpha_negative", "one_point", "no_levels", "points_float",
         "levels_float", "scale_nan", "scale_negative"])
def test_rejects_bad_arguments(kwargs):
    # the argument check's own ValueError, not a LinAlgError from the fit
    with pytest.raises(ValueError) as exc:
        localization_gap_probe(**kwargs)
    assert type(exc.value) is ValueError


class TestNewtonSearch:
    LADDERS = [(1e1, 1e2, 1e3, 1e4), (5.0, 20.0, 80.0),
               (7.3, 13.1, 23.5, 42.2), (3e2, 3e3, 3e4)]

    @staticmethod
    def objective(alpha):
        from twistedma.localization import _combine, _construction, _squares
        x_hat, r_zero = _construction(1)
        return lambda z: _combine(*_squares(z, x_hat), alpha, r_zero, 1.0)

    @staticmethod
    def grid_search(alphas):
        """The 14-level nested search with the probe's warm starts."""
        from twistedma.localization import (_construction, _grid_maximize,
                                            _minimg, _objective_slabs)
        x_hat, r_zero = _construction(1)
        center, half_width, found = np.concatenate([x_hat, x_hat]), 2.0, []
        for alpha in sorted(alphas):
            z = _grid_maximize(
                lambda axes: _objective_slabs(axes, x_hat, r_zero, alpha, 1.0),
                center, half_width, n_levels=14)
            found.append(z)
            d = float(np.sqrt((_minimg(z[2:] - z[:2]) ** 2).sum()))
            center, half_width = z, max(4.0 * d, 0.05)
        return found

    @pytest.mark.parametrize("alphas", LADDERS, ids=str)
    def test_newton_beats_the_nested_grid(self, alphas):
        res = localization_gap_probe(alphas=alphas)
        for alpha, (x, y), z_grid in zip(res.alphas, res.maximizers,
                                         self.grid_search(alphas)):
            f, z = self.objective(alpha), np.concatenate([x, y])
            best = f(z[None])[0]
            assert best >= f(z_grid[None])[0] - 1e-13
            axes = [np.linspace(c - 1e-6, c + 1e-6, 9) for c in z]
            around = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")],
                              axis=-1)
            assert f(around).max() <= best

    @pytest.mark.parametrize("alphas", LADDERS, ids=str)
    def test_failed_newton_falls_back_to_the_nested_grid(self, alphas,
                                                          monkeypatch):
        from twistedma import localization
        monkeypatch.setattr(localization, "_newton_maximize",
                            lambda f, z: None)
        res = localization_gap_probe(alphas=alphas)
        for (x, y), z_grid in zip(res.maximizers, self.grid_search(alphas)):
            assert np.array_equal(np.concatenate([x, y]), z_grid)

    def test_failed_newton_gives_the_grid_search_values(self, monkeypatch):
        from twistedma import localization
        monkeypatch.setattr(localization, "_newton_maximize",
                            lambda f, z: None)
        res = localization_gap_probe()
        assert res.distances.tolist() == _GRID_SEARCH_PINNED["distances"]
        assert res.hessian_norms.tolist() == _GRID_SEARCH_PINNED["hessian_norms"]
        assert res.fitted_exponent == _GRID_SEARCH_PINNED["fitted_exponent"]

    def test_newton_refuses_a_saddle(self):
        from twistedma.localization import _newton_maximize
        f = lambda z: -(z[..., 0] - 1.0) ** 2 + z[..., 1] ** 2
        assert _newton_maximize(f, np.zeros(2)) is None

    def test_newton_finds_a_concave_maximum(self):
        from twistedma.localization import _newton_maximize
        f = lambda z: -np.cosh(z[..., 0] - 0.3) - (z[..., 1] + 0.2) ** 2
        z = _newton_maximize(f, np.zeros(2))
        np.testing.assert_allclose(z, [0.3, -0.2], rtol=0, atol=1e-9)

    def test_fd_derivatives_of_a_quadratic(self, rng):
        from twistedma.localization import _fd_derivatives
        A = rng.standard_normal((4, 4))
        A = A + A.T
        b, z = rng.standard_normal(4), rng.standard_normal(4)
        f = lambda p: 0.5 * np.einsum("...i,ij,...j->...", p, A, p) + p @ b
        f0, grad, H = _fd_derivatives(f, z, 1e-3)
        assert f0 == pytest.approx(0.5 * z @ A @ z + z @ b, rel=1e-14)
        np.testing.assert_allclose(grad, A @ z + b, rtol=0, atol=1e-9)
        np.testing.assert_allclose(H, A, rtol=0, atol=1e-6)


def test_nan_hessian_is_not_negative_definite():
    # a Cholesky pass need not raise on a NaN: the finite test decides
    assert _negative_definite(-np.eye(2))
    assert not _negative_definite(np.array([[-1.0, 0.0], [0.0, np.nan]]))
