import numpy as np
import pytest

from twistedma import localization_gap_probe


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


def test_zero_set_radius_solves_the_ramp():
    # closed-form root of 3s^2 - 2s^3 = (2 - eta) / 26 on [0, 1]
    from twistedma.localization import _ETA, _zero_set_radius
    s = _zero_set_radius() - 1.0
    assert 0.0 < s < 1.0
    assert abs(3 * s * s - 2 * s ** 3 - (2.0 - _ETA) / 26.0) <= 1e-15


def test_default_probe_pinned(default_probe):
    # the values of the point-list grid search this search replaced
    assert default_probe.distances.tolist() == [
        0.11753264551787801, 0.02295611988695123,
        0.002556929007261566, 0.0002586964659254676]
    assert default_probe.hessian_norms.tolist() == [
        22.533124093830626, 29.033575677725466,
        30.37000862238237, 30.519024687911127]
    assert default_probe.fitted_exponent == -0.044104094021357385


class TestTensorSearch:
    @staticmethod
    def pointwise(n, axes, alpha):
        from twistedma.localization import _construction, _minimg
        phi3, w_sub, w_super, _, _ = _construction(n, 1.0)
        z = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")],
                     axis=-1)
        x, y = z[:, :2 * n], z[:, 2 * n:]
        d2 = (_minimg(y - x) ** 2).sum(axis=-1)
        return w_sub(x) - w_super(y) - phi3(x, y) - 0.5 * alpha * d2

    @staticmethod
    def slabs(n, axes, alpha, **kw):
        from twistedma.localization import _construction, _objective_slabs
        _, _, _, x_hat, r_zero = _construction(n, 1.0)
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
        _, _, _, x_hat, r_zero = _construction(2, 1.0)
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
    dict(n=0), dict(n=1.5), dict(alphas=(1e1, float("nan"))),
    dict(alphas=(1e1, float("inf"))), dict(alphas=(0.0, 1e1)),
    dict(alphas=(-1.0, 1e1)), dict(search_points=1), dict(search_levels=0)],
    ids=["n0", "n_float", "alpha_nan", "alpha_inf", "alpha_zero",
         "alpha_negative", "one_point", "no_levels"])
def test_rejects_bad_arguments(kwargs):
    with pytest.raises(ValueError):
        localization_gap_probe(**kwargs)
