"""Running the flow: heat-like decay and the affine barrier sandwich.

Near the flat background the twisted flow linearizes to a heat equation,
so a small cosine perturbation must decay at the discrete heat rate of
the 3-point stencil, sin^2(h/2)/h^2.  Independently of any linearization,
the solution is trapped for all time between u0 -+ t*A with
A = sup |rhs at t=0|.  This script measures both facts on one run.
"""

import numpy as np

from twistedma import (BicomplexGrid, FlowState, ScalarField, flat_background,
                       run, stable_dt)

grid = BicomplexGrid.regular(1, 1, 16)
background = flat_background(grid)

amp = 1e-3
x = grid.axis_coords(0)
u0 = ScalarField(grid, np.broadcast_to(
    amp * np.cos(x).reshape(-1, 1, 1, 1), grid.shape).copy())

state0 = FlowState(0.0, u0, background)
dt = stable_dt(state0)
print(f"explicit step bound: {dt:.5f} (h^2/16 = {grid.spacing[0]**2 / 16:.5f})")

h = grid.spacing[0]
rate = np.sin(0.5 * h) ** 2 / h ** 2
traj = run(state0, 1.0 / rate, emit_every=20)
rows = np.array(traj.rows)
mask = rows[:, 0] > 0
fitted = -np.polyfit(rows[mask, 0], np.log(rows[mask, 1]), 1)[0]
print(f"decay rate: fitted {fitted:.6f}, stencil prediction {rate:.6f}")
print(f"{traj.steps} exponential steps of {traj.dt_min / dt:.1f} to "
      f"{traj.dt_max / dt:.1f} explicit steps, {traj.rejected_trials} rejected trials")

print(f"barrier slope A = {traj.barrier.A:.3e} "
      f"(zero forcing, tiny data -> tiny slope)")
print(f"worst sandwich gaps over the run: "
      f"lo {rows[:, 6].min():.2e}, hi {rows[:, 7].min():.2e} (>= 0 means inside)")

# a forced run has a genuinely two-sided sandwich
F = ScalarField(grid, np.broadcast_to(
    0.5 * np.sin(x).reshape(-1, 1, 1, 1), grid.shape).copy())
forced = flat_background(grid, f_times=np.array([0.0]), f_fields=[F])
traj = run(FlowState(0.0, ScalarField.zeros(grid), forced), 0.2, emit_every=5)
rows = np.array(traj.rows)
print(f"sin-forced run: A = {traj.barrier.A:.3f}, final sup u = "
      f"{rows[-1, 1]:.4f}, barrier ceiling {0.2 * traj.barrier.A:.4f}")
