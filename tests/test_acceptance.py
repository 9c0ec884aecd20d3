"""Acceptance gate: one test per published criterion, each printing a
single PASS line with the measured numbers at the stated tolerance."""

import math
import time

import numpy as np
import pytest

from twistedma import (BicomplexGrid, FlowState, ScalarField, barriers,
                       comparison_test, delta_lift, flat_background,
                       localization_gap_probe, max_existence_time, run,
                       solve_square, square_operator, stable_dt,
                       subsolution_check, supersolution_check)
from twistedma.forms import CohomologyClassRep
from twistedma.grid import hessian_block_values, min_eig_values
from twistedma.legendre import (ReducedField, legendre_roundtrip_error,
                                transformed_residual, untransformed_residual)

from conftest import bandlimited_field, cos_axis_field
from test_forms import bisect_tau_star


def _sigma(h):
    return 4.0 * np.sin(0.5 * h) ** 2 / (h * h)


def test_criterion_01_potential_roundtrip():
    g = BicomplexGrid.regular(1, 1, 32)
    rng = np.random.default_rng(2024)
    fields = [bandlimited_field(g, rng) for _ in range(20)]
    start = time.perf_counter()
    worst = 0.0
    for f in fields:
        dec = solve_square(*square_operator(f))
        worst = max(worst, float(np.abs(dec.f.values - f.values).max()))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed <= 10.0
    print(f"criterion 1 PASS: 20 potential roundtrips on 32^4, "
          f"max error {worst:.3e} <= 1e-10, {elapsed:.2f}s <= 10s")


def test_criterion_02_max_existence_time():
    rep0 = CohomologyClassRep(np.array([[1.0]]), np.array([[1.0]]))
    chi = CohomologyClassRep(np.array([[2.0]]), np.array([[-1.0]]))
    closed = max_existence_time(rep0, chi)
    assert closed == 0.5
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        mats = []
        for _ in range(2):
            A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            mats.append(A @ A.conj().T + 0.1 * np.eye(2))
        rep = CohomologyClassRep(*mats)
        chis = []
        for _ in range(2):
            B = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            chis.append(B + B.conj().T)
        ch = CohomologyClassRep(*chis)
        tau = max_existence_time(rep, ch)
        oracle = bisect_tau_star(rep, ch)
        if math.isinf(tau) or math.isinf(oracle):
            assert tau == oracle
        else:
            err = abs(tau - oracle) / max(1.0, tau)
            assert err <= 1e-9
            worst = max(worst, err)
    print(f"criterion 2 PASS: closed form 0.5 exact; 50 random models vs "
          f"bisection oracle, worst rel err {worst:.3e} <= 1e-9")


def test_criterion_03_stationary_flow():
    g = BicomplexGrid.regular(1, 1, 8)
    bg = flat_background(g)
    state = FlowState(0.0, ScalarField.zeros(g), bg)
    dt = stable_dt(state)
    from twistedma import step
    for _ in range(1000):
        state = step(state, dt)
    sup = float(np.abs(state.u.values).max())
    assert sup <= 1e-12
    print(f"criterion 3 PASS: 1000 stationary steps, sup|u| = {sup:.3e} <= 1e-12")


def test_criterion_04_linearized_decay():
    n = 64
    g = BicomplexGrid.regular(1, 1, [n, 4, n, 4])
    bg = flat_background(g)
    u0 = cos_axis_field(g, 0, amplitude=1e-3)
    h = g.spacing[0]
    rate_exact = np.sin(0.5 * h) ** 2 / (h * h)
    t_end = 1.0 / rate_exact
    start = time.perf_counter()
    traj = run(FlowState(0.0, u0, bg), t_end, emit_every=200,
               keep_states="none")
    elapsed = time.perf_counter() - start
    rows = np.array(traj.rows)
    mask = rows[:, 0] > 0
    fitted = -np.polyfit(rows[mask, 0], np.log(rows[mask, 1]), 1)[0]
    rel = abs(fitted - rate_exact) / rate_exact
    assert rel <= 0.05
    assert elapsed <= 60.0
    print(f"criterion 4 PASS: 64-point cosine decay rate {fitted:.6f} vs "
          f"{rate_exact:.6f} (rel err {rel:.2e} <= 5%), {elapsed:.1f}s <= 60s")


def test_criterion_05_barrier_sandwich():
    g = BicomplexGrid.regular(1, 1, 16)
    coords = g.axis_coords(0)
    F = ScalarField(g, np.broadcast_to(
        0.5 * np.sin(coords).reshape(-1, 1, 1, 1), g.shape).copy())
    bg = flat_background(g, f_times=np.array([0.0]), f_fields=[F])
    u0 = ScalarField.zeros(g)
    state0 = FlowState(0.0, u0, bg)
    dt = stable_dt(state0)
    traj = run(state0, 0.2, emit_every=5)
    A = traj.barrier.A
    tol = 10.0 * dt * A
    rows = np.array(traj.rows)
    worst = float(min(rows[:, 6].min(), rows[:, 7].min()))
    assert worst >= -tol
    print(f"criterion 5 PASS: sin-forcing run stays in the u0 -+ tA sandwich, "
          f"worst gap {worst:.3e} >= -{tol:.3e} (A = {A:.3f})")


def test_criterion_06_sub_super_closure():
    g = BicomplexGrid.regular(1, 1, 16)
    bg = flat_background(g)
    times = np.linspace(0.0, 0.05, 3)
    rng = np.random.default_rng(99)
    for _ in range(20):
        a = bandlimited_field(g, rng, amp=0.05)
        b = bandlimited_field(g, rng, amp=0.05)
        subs = [np.stack([f.values - t for t in times]) for f in (a, b)]
        for s in subs + [np.maximum(*subs)]:
            assert subsolution_check(s, times, bg).ok
        sups = [np.stack([f.values + t for t in times]) for f in (a, b)]
        for s in sups + [np.minimum(*sups)]:
            assert supersolution_check(s, times, bg).ok
    print("criterion 6 PASS: 20 random pairs, max of subsolutions and min of "
          "supersolutions pass the respective checks at the same tolerance")


def test_criterion_07_gating_and_psh_selection():
    # gating asymmetry: an indefinite block is discarded on exactly one side
    g16 = BicomplexGrid.regular(1, 1, 16)
    bg16 = flat_background(g16)
    times = np.linspace(0.0, 0.05, 3)
    u = np.stack([cos_axis_field(g16, 2, 8.0).values - 2.0 * t for t in times])
    assert subsolution_check(u, times, bg16, tol=0.0).ok
    assert not supersolution_check(u, times, bg16, tol=0.0).ok
    v = np.stack([cos_axis_field(g16, 0, -8.0).values + 2.0 * t for t in times])
    assert supersolution_check(v, times, bg16, tol=0.0).ok
    assert not subsolution_check(v, times, bg16, tol=0.0).ok

    # selection: a tol=0 subsolution keeps a positive plus-block margin that
    # shrinks with the grid (continuum limit is degenerate-plurisubharmonic)
    margins = {}
    for n in (32, 64):
        g = BicomplexGrid.regular(1, 1, [n, 4, n, 4])
        bg = flat_background(g)
        u0 = cos_axis_field(g, 0, amplitude=4.0)
        stack = np.stack([u0.values - 9.0 * t for t in times])
        assert subsolution_check(stack, times, bg, tol=0.0).ok
        plus = bg.omega0_plus.values + hessian_block_values(u0.values, g, "plus")
        margins[n] = float(min_eig_values(plus).min())
    assert margins[32] > 0 and margins[64] > 0
    assert margins[64] <= 0.5 * margins[32]
    print(f"criterion 7 PASS: gating applied per side as prescribed; tol=0 "
          f"subsolution plus margins {margins[32]:.3e} -> {margins[64]:.3e} "
          f"(at least halving 32 -> 64)")


def test_criterion_08_comparison_and_delta_lift():
    g = BicomplexGrid.regular(1, 1, 16)
    bg = flat_background(g)
    u0 = cos_axis_field(g, 0, amplitude=0.2)
    traj = run(FlowState(0.0, u0, bg), 0.05, emit_every=5)
    times = np.array([s.t for s in traj.states])
    stack = np.stack([s.u.values for s in traj.states])
    upper = np.stack([traj.barrier.upper(t) for t in times])
    verdict = comparison_test(stack, upper, times, bg)
    assert verdict.holds
    for delta in (1e-3, 1e-2, 1e-1):
        lifted = delta_lift(upper, times, delta, 1.0)
        assert supersolution_check(lifted, times, bg).ok
    print("criterion 8 PASS: trajectory vs upper barrier comparison holds; "
          "delta-lift preserves supersolution status for delta in "
          "{1e-3, 1e-2, 1e-1}")


def _concave_reduced(n):
    xp = np.arange(8) * 2 * np.pi / 8
    xm = np.arange(n) * 2 * np.pi / n
    vals = (0.2 * np.cos(xp)[:, None] - 0.5 * (xm[None, :] - np.pi) ** 2
            - 0.3 * np.cos(xm)[None, :])
    return ReducedField(xp, xm, vals)


def test_criterion_09_legendre_study():
    ns = np.array([32, 64, 128])
    errs = np.array([legendre_roundtrip_error(_concave_reduced(n)) for n in ns])
    order = float(-np.polyfit(np.log(ns), np.log(errs), 1)[0])
    assert order >= 1.8

    # manufactured solution: u = a t + b(x+) - c (x- - pi)^2 with F chosen
    # so the flow equation holds exactly in the continuum
    a_rate, b_amp, c = 0.1, 0.05, 0.5
    xp = np.arange(16) * 2 * np.pi / 16
    xm = np.arange(64) * 2 * np.pi / 64
    times = np.linspace(0.0, 0.03, 5)
    slices = [ReducedField(xp, xm,
                           a_rate * t + b_amp * np.cos(xp)[:, None]
                           - c * (xm[None, :] - np.pi) ** 2)
              for t in times]
    F = lambda x, t: (np.log1p(-0.25 * b_amp * np.cos(x))
                      - np.log1p(0.5 * c) - a_rate)
    r_u, _ = untransformed_residual(slices, times, F=F)
    r_v, _ = transformed_residual(slices, times, F=F)
    assert r_v <= 10.0 * r_u
    print(f"criterion 9 PASS: roundtrip order {order:.2f} >= 1.8 over "
          f"n = 32/64/128; transformed residual {r_v:.3e} <= 10x "
          f"untransformed {r_u:.3e}")


def test_criterion_10_localization_probe(tmp_path):
    res = localization_gap_probe(n=1, alphas=(1e1, 1e2, 1e3, 1e4))
    res.write_csv(tmp_path / "probe.csv")
    table = (tmp_path / "probe.csv").read_text().strip().split("\n")
    assert len([l for l in table if not l.startswith("#")]) == 5  # header + 4
    margin = res.reference_exponent - res.fitted_exponent
    assert not res.vacuous
    assert margin >= 1.0  # documented margin: fitted exponent is below 2n - 1
    print(f"criterion 10 PASS: fitted decay exponent "
          f"{res.fitted_exponent:.3f} vs reference 2n = "
          f"{res.reference_exponent:.0f} (margin {margin:.2f} >= 1.0), "
          f"table emitted with {len(res.alphas)} rows")
