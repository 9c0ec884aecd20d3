"""Self-tests of the benchmark's own arithmetic and tracing.

    python3 -m pytest bench
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from run import tail  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402


def test_self_time_subtracts_union_of_direct_children():
    # parent [0, 10]; children [1, 3] and [2, 5] overlap, [7, 8] apart;
    # the grandchild [1.5, 2] counts against its own parent only
    names = ["p", "c1", "c2", "c3", "g"]
    starts = [0.0, 1.0, 2.0, 7.0, 1.5]
    ends = [10.0, 3.0, 5.0, 8.0, 2.0]
    parents = [-1, 0, 0, 0, 1]
    out = self_times(names, starts, ends, parents)
    assert out == [10.0 - 5.0, 2.0 - 0.5, 3.0, 1.0, 0.5]


def test_self_time_clips_children_to_parent():
    out = self_times(["p", "c"], [0.0, -1.0], [2.0, 1.0], [-1, 0])
    assert out[0] == 1.0


def test_tail_leaves_ten_samples_beyond():
    samples = list(range(1, 101))
    value, pct = tail(samples[::-1])
    assert (value, pct) == (90, 90.0)
    assert sum(s > value for s in samples) == 10
    value, pct = tail(list(range(11)))
    assert value == 0 and abs(pct - 100.0 / 11.0) < 1e-12


def test_tail_without_ten_beyond_is_the_maximum():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_wrapper_records_nested_spans_and_counters():
    tracer = Tracer()
    inner = tracer.wrap("m.inner", lambda x: x + 1,
                        post=lambda s, a, k, r: tracer._add("m.calls", 1))
    outer = tracer.wrap("m.outer", lambda x: inner(inner(x)))
    assert outer(1) == 3                      # inactive: no spans
    assert len(tracer.starts) == 0
    tracer.active, tracer.op_id = True, 7
    assert outer(1) == 3
    names = [tracer.names[i] for i in tracer.span_name]
    assert names == ["m.outer", "m.inner", "m.inner"]
    assert list(tracer.parents) == [-1, 0, 0]
    assert list(tracer.ops) == [7, 7, 7]
    assert tracer.counters["m.calls"] == 2
    selfs = self_times(names, tracer.starts, tracer.ends, tracer.parents)
    assert all(s >= 0.0 for s in selfs)


def test_install_covers_sibling_imports_and_restores():
    import numpy as np
    from twistedma import flow, forms, grid, potential, viscosity

    original = grid.hessian_block_values
    tracer = Tracer()
    tracer.install()
    try:
        assert flow.hessian_block_values.__wrapped__ is original
        assert viscosity.background_at is forms.background_at
        assert hasattr(viscosity.background_at, "__wrapped__")
        g = grid.BicomplexGrid.regular(1, 1, 8)
        f = grid.ScalarField(g, np.cos(g.axis_coords(0)).reshape(-1, 1, 1, 1)
                             * np.ones(g.shape))
        f = grid.ScalarField(g, f.values - f.values.mean())
        tracer.active = True
        potential.solve_square(*potential.square_operator(f))
        state = flow.FlowState(0.0, f, forms.flat_background(g))
        flow.step(state, 1e-3)
        tracer.active = False
    finally:
        tracer.uninstall()
    assert flow.hessian_block_values is original
    names = {tracer.names[i] for i in tracer.span_name}
    assert {"potential.fft", "potential.solve_square", "flow.step",
            "flow.form_block_values", "grid.hessian_block_values",
            "forms.background_at"} <= names
    metrics = tracer.layer_metrics(1)
    assert metrics["potential.fft_points"] > 0
    assert metrics["grid.hessian_bytes"] > 0
    assert not tracer.missing


def test_smoke_runs_every_workload_once():
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count(": ok") == 4
