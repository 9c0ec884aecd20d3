"""A space-constant block stored as one matrix (broadcast shape) behaves
like the same block copied to every lattice point (full shape): bitwise
wherever the mean of the copies is exact."""

import numpy as np
import pytest

from twistedma import (BicomplexGrid, FlowState, HermitianMatrixField,
                       background_at, fgk_residual, flat_background,
                       min_eigenvalue, positivity_check, run, solve_square,
                       subsolution_check, supersolution_check)
from twistedma.errors import NonzeroMeanObstruction

from conftest import cos_axis_field


def materialise(H):
    m = H.values.shape[-1]
    full = np.broadcast_to(H.values, H.grid.shape + (m, m)).copy()
    return HermitianMatrixField(H.grid, H.block, full)


def dyadic_hermitian(m, diag, off):
    # dyadic entries keep the mean of the materialised copies exact, so the
    # flow's linearization, and with it the final u, can be compared bitwise
    M = np.diag(np.asarray(diag[:m], dtype=complex))
    if m == 2:
        M[0, 1], M[1, 0] = off, np.conj(off)
    return M


def violations(report):
    return [(v.spatial_index, v.time_index, v.t, v.slack) for v in report.violations]


@pytest.mark.parametrize("k,l", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_broadcast_and_full_blocks_agree(k, l):
    g = BicomplexGrid.regular(k, l, 4)
    const = HermitianMatrixField.constant
    blocks = dict(
        omega0_plus=const(g, "plus", dyadic_hermitian(k, (1.5, 1.25), 0.25 + 0.125j)),
        omega0_minus=const(g, "minus", dyadic_hermitian(l, (1.25, 2.0), -0.25j)),
        chi_plus=const(g, "plus", dyadic_hermitian(k, (0.5, 0.25), 0.125)),
        chi_minus=const(g, "minus", dyadic_hermitian(l, (-0.25, 0.5), 0.125j)))
    u0 = cos_axis_field(g, 0, amplitude=0.05)
    full = lambda H: np.broadcast_to(H.values, g.shape + H.values.shape[-2:])
    results = []
    for make in (lambda H: H, materialise):
        fields = {name: make(H) for name, H in blocks.items()}
        bg = flat_background(g, **fields)
        sl = background_at(bg, 0.05)
        with pytest.raises(NonzeroMeanObstruction):
            solve_square(fields["omega0_plus"], fields["omega0_minus"])
        static = flat_background(g, omega0_plus=fields["omega0_plus"],
                                 omega0_minus=fields["omega0_minus"])
        results.append(dict(
            bg=bg,
            fgk=fgk_residual(fields["omega0_plus"], fields["omega0_minus"]),
            positive=positivity_check(sl.omega_hat_plus, sl.omega_hat_minus),
            min_eig=min_eigenvalue(fields["omega0_plus"]).values,
            slice=(full(sl.omega_hat_plus), full(sl.omega_hat_minus)),
            u_static=run(FlowState(0.0, u0, static), 2.0).states[-1].u.values,
            traj=run(FlowState(0.0, u0, bg), 2.0, emit_every=1)))
    broadcast, materialised = results
    assert broadcast["fgk"] == materialised["fgk"] == 0.0
    assert broadcast["positive"] == materialised["positive"]
    assert np.array_equal(broadcast["min_eig"], materialised["min_eig"])
    for a, b in zip(broadcast["slice"], materialised["slice"]):
        assert np.array_equal(a, b)
    assert np.array_equal(broadcast["u_static"], materialised["u_static"])
    # a materialised omega_hat(t) = omega_0 - t chi is averaged over its
    # points for the flow's linearization, so off the dyadic t = 0 slice its
    # mean, and the flow with it, may differ in the last bits
    u, u_full = (r["traj"].states[-1].u.values for r in results)
    assert np.abs(u - u_full).max() <= 8 * np.finfo(float).eps * np.abs(u).max()

    # both checks on one stack: the flow violates the sub test at tol 1e-3,
    # and so does the super test once the slope is lowered by 1
    stack = np.stack([s.u.values for s in broadcast["traj"].states])
    times = np.array([s.t for s in broadcast["traj"].states])
    lowered = stack - times.reshape((-1,) + (1,) * g.real_dim)
    for check, data, seed in ((subsolution_check, stack, 3),
                              (supersolution_check, lowered, 4)):
        got = [violations(check(data, times, r["bg"], tol=1e-3, samples=1, seed=seed))
               for r in results]
        assert got[0] and got[0] == got[1]
