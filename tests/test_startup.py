import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def test_import_leaves_heavy_scipy_modules_unloaded():
    # scipy.fft is the only scipy part on the import path; the others add
    # most of a second to every start-up
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(SRC), env.get("PYTHONPATH")) if p)
    code = ("import sys, twistedma; "
            "print(sorted(m for m in ('scipy.linalg', 'scipy.optimize') "
            "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
