"""Weak solutions: one-sided gating, closure under max/min, comparison.

The sub- and supersolution inequalities each gate exactly one determinant
block through its positive part, so a candidate with an indefinite block
can pass one check and fail the other -- the asymmetry is the point, and
this script exhibits it with explicit candidates.  It then verifies the
two structural facts the weak theory runs on: the max of subsolutions is
a subsolution (dually for min), and an ordered sub/super pair stays
ordered, robustly under the 1/(T - t) lift of the supersolution.  Each
check decides every touching jet at once, in closed form, in the
equation's log units.
"""

import numpy as np

from twistedma import (BicomplexGrid, FlowState, ScalarField, comparison_test,
                       delta_lift, flat_background, run, subsolution_check,
                       supersolution_check)

grid = BicomplexGrid.regular(1, 1, 16)
background = flat_background(grid)
times = np.linspace(0.0, 0.05, 3)


def cosine(axis, amplitude, mode=1):
    c = grid.axis_coords(axis)
    shape = [1] * 4
    shape[axis] = len(c)
    vals = amplitude * np.cos(mode * c).reshape(shape)
    return np.broadcast_to(vals, grid.shape).copy()


# indefinite minus block: gated away on the sub side, fatal on the super side
u = np.stack([cosine(2, 8.0) - 2.0 * t for t in times])
sub = subsolution_check(u, times, background, tol=0.0)
sup = supersolution_check(u, times, background, tol=0.0)
print(f"large minus-cosine, slope -2:  sub ok = {sub.ok}, super ok = {sup.ok}")
print(f"  (super check worst slack {sup.worst_slack:.3f}: the ungated minus "
      f"block has a negative eigenvalue there, so the test form is not "
      f"semipositive)")

# a slack is a residual of u_t in the equation's log units: on the flat
# background u = 5 t rises 5 faster than the equation allows
ramp = np.stack([np.full(grid.shape, 5.0 * t) for t in times])
sub = subsolution_check(ramp, times, background)
print(f"u = 5 t:  sub ok = {sub.ok}, worst slack {sub.worst_slack:.3f} "
      f"(default tolerance 10 (h^2 + dt) in log units)")

# closure: the pointwise max of two verified subsolutions passes too
u1 = np.stack([cosine(0, 0.15) - t for t in times])
u2 = np.stack([cosine(2, 0.15, mode=2) - t for t in times])
both = [subsolution_check(s, times, background).ok
        for s in (u1, u2, np.maximum(u1, u2))]
print(f"sub, sub, max-of-subs pass: {both}")

# comparison: an actual trajectory stays below its upper barrier
u0 = ScalarField(grid, cosine(0, 0.2))
traj = run(FlowState(0.0, u0, background), 0.05, emit_every=5)
tt = np.array([s.t for s in traj.states])
stack = np.stack([s.u.values for s in traj.states])
upper = np.stack([traj.barrier.upper(t) for t in tt])
verdict = comparison_test(stack, upper, tt, background)
print(f"trajectory <= upper barrier: holds = {verdict.holds}, "
      f"worst lifted excess {max(e for _, e in verdict.delta_trace):.3e}")

for delta in (1e-3, 1e-2, 1e-1):
    lifted = delta_lift(upper, tt, delta, 1.0)
    ok = supersolution_check(lifted, tt, background).ok
    print(f"delta-lift {delta:.0e}: still a supersolution = {ok}")
