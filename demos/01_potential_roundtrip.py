"""Potentials and the mixed-signature operator.

Every formally compatible pair of form blocks on the flat periodic domain
comes from a single scalar potential: the plus block is the plus-variable
Hessian of f and the minus block is minus the minus-variable Hessian.
This script applies the operator to a random band-limited potential,
inverts it spectrally, and shows the roundtrip is exact to roundoff --
plus what goes wrong when the data is not actually compatible.
"""

import numpy as np

from twistedma import (BicomplexGrid, HermitianMatrixField, ScalarField,
                       compatibility_residual, solve_square, square_operator)
from twistedma.errors import IncompatibleData

rng = np.random.default_rng(0)
grid = BicomplexGrid.regular(1, 1, 32)
print(f"grid: {grid.shape}, one complex dim per block")

# a random smooth zero-mean potential
vals = np.zeros(grid.shape)
for _ in range(6):
    modes = rng.integers(-2, 3, size=4)
    phase = rng.uniform(0, 2 * np.pi)
    coords = [grid.axis_coords(a) for a in range(4)]
    arg = sum(m * c.reshape([-1 if i == a else 1 for i in range(4)])
              for a, (m, c) in enumerate(zip(modes, coords)))
    vals += rng.normal() * np.cos(arg + phase)
f = ScalarField(grid, vals - vals.mean())

omega_plus, omega_minus = square_operator(f)
print(f"compatibility residual of the image: "
      f"{compatibility_residual(omega_plus, omega_minus):.2e}")

dec = solve_square(omega_plus, omega_minus)
err = np.abs(dec.f.values - f.values).max()
print(f"roundtrip error after inversion: {err:.2e}")
# computed on this first read: the block stencil applied to the lattice f
print(f"re-applied residuals: plus {dec.residual_plus:.2e}, "
      f"minus {dec.residual_minus:.2e}")
print(f"kernel note: {dec.kernel_note}")

# data that no potential can produce: a plus block varying in a minus
# coordinate, where the plus stencil has no reach, so square(f) misses it
# by its full size and the plus residual exceeds the tolerance (it also
# violates the cross-derivative compatibility system)
bad = 0.25 * np.cos(grid.axis_coords(2)).reshape(1, 1, -1, 1)
bad = np.broadcast_to(bad, grid.shape)[..., None, None].astype(complex)
try:
    solve_square(HermitianMatrixField(grid, "plus", bad.copy(), check=False),
                 HermitianMatrixField.zeros(grid, "minus"))
except IncompatibleData as exc:
    print(f"incompatible data correctly rejected: {exc}")
