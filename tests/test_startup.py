import ctypes
import os
import platform
import subprocess
import sys
import warnings
from types import SimpleNamespace

import pytest

import twistedma

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def _run_fresh(code):
    """stdout of ``code`` run in a new interpreter that imports src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_leaves_heavy_scipy_modules_unloaded():
    # scipy.fft is the only scipy part on the import path; the others add
    # most of a second to every start-up
    code = ("import sys, twistedma; "
            "print(sorted(m for m in ('scipy.linalg', 'scipy.optimize') "
            "if m in sys.modules))")
    assert _run_fresh(code).strip() == "[]"


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the allocation policy is glibc's mallopt")
def test_freed_arrays_stay_mapped():
    # glibc's default thresholds unmap the solve's 4 MiB blocks and half
    # spectra when they are freed, and every call faults them in again:
    # 3,553 minor faults per call before the policy
    code = """if True:
        import resource
        import numpy as np
        from twistedma import BicomplexGrid, ScalarField, solve_square, square_operator
        grid = BicomplexGrid.regular(2, 2, 4)
        vals = np.zeros(grid.shape)
        for a in range(grid.real_dim):
            sh = [1] * grid.real_dim
            sh[a] = grid.shape[a]
            vals = vals + np.cos(grid.axis_coords(a) + 0.3 * a).reshape(sh) / (a + 1)
        f = ScalarField(grid, vals - vals.mean())
        solve_square(*square_operator(f))
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(5):
            solve_square(*square_operator(f))
        print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5)
    """
    assert float(_run_fresh(code)) < 350


class _Mallopt:
    def __init__(self, result):
        self.result, self.calls = result, []

    def __call__(self, param, value):
        self.calls.append((param, value))
        return self.result


def _cdll_raising(*args):
    raise OSError("no C library")


def _apply_policy(monkeypatch, cdll):
    """Apply the policy with ``ctypes.CDLL`` replaced by ``cdll`` and
    every warning an error."""
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        twistedma._keep_freed_arrays_mapped()


class TestAllocationPolicyGuards:
    """The policy sets both thresholds or neither, and where the C library
    cannot set them it raises nothing and warns of nothing."""

    @pytest.mark.parametrize("cdll", [_cdll_raising, lambda *a: SimpleNamespace()],
                             ids=["no_libc", "no_mallopt"])
    def test_silent_without_mallopt(self, monkeypatch, cdll):
        _apply_policy(monkeypatch, cdll)

    def test_refused_threshold_sets_neither(self, monkeypatch):
        # one fixed threshold alone would turn glibc's dynamic rule off
        mallopt = _Mallopt(0)
        _apply_policy(monkeypatch, lambda *a: SimpleNamespace(mallopt=mallopt))
        assert mallopt.calls == [(-3, 32 << 20)]

    def test_accepted_threshold_sets_both(self, monkeypatch):
        mallopt = _Mallopt(1)
        _apply_policy(monkeypatch, lambda *a: SimpleNamespace(mallopt=mallopt))
        assert mallopt.calls == [(-3, 32 << 20), (-1, 128 << 20)]
        assert mallopt.argtypes == (ctypes.c_int, ctypes.c_int)
