"""One benchmark process: set up one workload, then run its closed loop.

Started by run.py, never imported.  Modes:

  setup   imports, seeded inputs and one untimed warm-up operation, then exit
  timed   setup, then operations back to back for --seconds, tracing off
  traced  setup, an untraced phase of about --seconds / 2, then the same
          operations again with every layer wrapped (see tracing.py)

The last line of standard output is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

_GLIBC_SC_LEVEL3_CACHE_SIZE = 194


def llc_bytes():
    """Last-level cache size from glibc's sysconf; 0 when unknown."""
    try:
        if os.confstr("CS_GNU_LIBC_VERSION"):
            return max(os.sysconf(_GLIBC_SC_LEVEL3_CACHE_SIZE), 0)
    except (ValueError, OSError):
        pass
    return 0


def calibrate():
    """Median time of three runs of a fixed kernel: a pure-Python loop, small
    numpy operations and a 128x128 FFT, none of it twistedma code.

    The kernel tracks the speed the host gives this process at the moment;
    on a shared machine that speed moves by tens of percent within minutes.
    Never change the kernel: every recorded figure is scaled by its time.
    """
    import numpy as np
    a = np.linspace(-1.0, 1.0, 4096)
    b = np.outer(a[:128], a[:128])
    times = []
    for _ in range(3):
        start = time.perf_counter()
        s = 0
        for i in range(20000):
            s += i * i
        x = a
        for _ in range(40):
            x = np.roll(x, 1) * 0.5 + a
        np.fft.fft2(b)
        times.append(time.perf_counter() - start)
    return sorted(times)[1]


def run_op(wl, i, tracer=None):
    """Run and verify operation i.

    Returns (latency_s, kernel_s, error or ""), where kernel_s is the
    calibration kernel's time measured just before the operation.
    """
    inp = wl.make_input(i)
    kernel = calibrate()
    if tracer is not None:
        tracer.op_id = i
        tracer.active = True
    start = time.perf_counter()
    try:
        out = wl.op(inp)
    except Exception as exc:  # counted as a failed operation, never retried
        latency = time.perf_counter() - start
        traceback.print_exc()
        return latency, kernel, f"op {i} raised {exc!r}"
    finally:
        if tracer is not None:
            tracer.active = False
    latency = time.perf_counter() - start
    try:
        err = wl.verify(inp, out)
    except Exception as exc:
        traceback.print_exc()
        err = f"verify raised {exc!r}"
    return latency, kernel, (f"op {i}: {err}" if err else "")


def closed_loop(wl, seconds=None, count=None, tracer=None):
    """Operations 1, 2, ... back to back until ``seconds`` have passed, or
    exactly ``count`` of them."""
    latencies, kernels, errors = [], [], []
    begin = time.perf_counter()
    i = 1
    while (i <= count) if count is not None else (time.perf_counter() - begin < seconds):
        latency, kernel, err = run_op(wl, i, tracer)
        latencies.append(latency)
        kernels.append(kernel)
        if err:
            errors.append(err)
        i += 1
    return latencies, kernels, errors


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() just before this process was started")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--spans", default=None, help="CSV path for the traced spans")
    args = ap.parse_args()

    import numpy as np
    import scipy
    import scipy.fft

    import twistedma
    if not os.path.abspath(twistedma.__file__).startswith(SRC + os.sep):
        sys.exit(f"twistedma imported from {twistedma.__file__}, not {SRC}")
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.workdir, smoke=args.smoke)
    threads = int(os.environ.get("OMP_NUM_THREADS", "1"))
    result = {}
    with scipy.fft.set_workers(threads):
        warm_latency, _, warm_err = run_op(wl, 0)
        result["setup_s"] = time.monotonic() - args.t0
        result["setup_kernel_s"] = calibrate()
        result["warmup_s"] = warm_latency
        result["errors"] = [warm_err] if warm_err else []
        result["attempted"] = 1
        if args.mode == "timed":
            latencies, kernels, errors = closed_loop(wl, args.seconds)
            result["latencies"], result["kernels"] = latencies, kernels
        elif args.mode == "traced":
            from tracing import Tracer
            plain, plain_k, errors = closed_loop(wl, args.seconds / 2.0)
            tracer = Tracer()
            tracer.install()
            traced, traced_k, traced_errors = closed_loop(wl, count=len(plain),
                                                          tracer=tracer)
            tracer.uninstall()
            errors += traced_errors
            result["latencies"] = plain + traced
            layer = tracer.layer_metrics(len(traced))
            # compare the phases in kernel units, so host speed drift between
            # them does not read as tracing overhead
            layer["trace.overhead_frac"] = (
                sum(t / k for t, k in zip(traced, traced_k))
                / sum(t / k for t, k in zip(plain, plain_k)) - 1.0)
            result["layer"] = layer
            result["spans"] = len(tracer.starts)
            result["missing_hooks"] = sorted(tracer.missing)
            if args.spans:
                tracer.write(args.spans)
        else:
            errors = []
        result["failed_timed"] = len(errors)
        result["errors"] += errors
        result["attempted"] += len(result.get("latencies", ()))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = {
        "nproc": len(os.sched_getaffinity(0)),
        "llc_bytes": llc_bytes(),
        "working_set_bytes": wl.working_set_bytes(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "scipy_fft_workers": threads,
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_THREADS")},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
