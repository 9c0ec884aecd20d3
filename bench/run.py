#!/usr/bin/env python3
"""twistedma benchmark: four seeded closed-loop workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
is a separate run that wraps every layer and reports the per-layer metrics;
``--smoke`` runs every workload once at a tiny size, untimed.  Every
workload runs in fresh processes started from here (see worker.py), with
the BLAS/OpenMP pools and scipy.fft pinned to one thread.  Durations are
reported at reference speed (scaled by a calibration kernel timed before
each operation).  The last line of standard output is one JSON object;
see bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

from tracing import per_layer_metric_units  # noqa: E402

WORKLOAD_NAMES = ("flow_decay", "potential_roundtrip", "scenario_drift", "weak_theory")
# set-up is measured this many times per run (fresh processes) and the median kept
SETUPS = 5
# the loop has one client and its hot paths (elementwise numpy, pocketfft)
# are single-threaded, so idle pool threads would only add noise
THREADS = 1
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# durations are reported at the host speed where worker.calibrate() takes
# this long (about its time on the machine the bounds were set on)
REFERENCE_KERNEL_S = 3.0e-3
# every process of one invocation must be done by then
DEADLINE_S = 170.0
TAIL_SAMPLES_BEYOND = 10


class BenchError(Exception):
    pass


def tail(samples):
    """(value, percentile) at the highest percentile that still has at
    least ten samples beyond it.

    With n sorted samples that is the (n - 10)-th smallest, which sits at
    percentile 100 (n - 10) / n.  Fewer than 11 samples leave no such
    percentile; the maximum is returned with percentile 100, and the
    report prints the sample count beside it.
    """
    s = sorted(samples)
    n = len(s)
    if n <= TAIL_SAMPLES_BEYOND:
        return s[-1], 100.0
    return s[n - TAIL_SAMPLES_BEYOND - 1], 100.0 * (n - TAIL_SAMPLES_BEYOND) / n


def spawn(mode, args, workdir, deadline, extra=()):
    """Run worker.py in a fresh process; return its JSON result."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.update({v: str(THREADS) for v in _THREAD_VARS})
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--workdir", workdir,
           "--t0", repr(t0), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker for {args.workload} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker for {args.workload} exited "
                         f"with code {proc.returncode}")
    return json.loads(lines[-1])


def print_env(env, workload):
    ws, llc = env["working_set_bytes"], env["llc_bytes"]
    share = f"{ws / llc:.3f} of LLC" if llc else "LLC size unknown"
    print(f"env: nproc={env['nproc']} llc_bytes={llc} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} "
          f"scipy_fft_workers={env['scipy_fft_workers']} "
          + " ".join(f"{k}={v}" for k, v in env["thread_env"].items()))
    print(f"working set (computed) of {workload}: {ws} bytes = {share}")


def timed(args, workdir, deadline):
    setups = [spawn("setup", args, workdir, deadline) for _ in range(SETUPS - 1)]
    main = spawn("timed", args, workdir, deadline)
    runs = setups + [main]
    raw = main["latencies"]
    lat = [t * REFERENCE_KERNEL_S / k for t, k in zip(raw, main["kernels"])]
    setup = [r["setup_s"] * REFERENCE_KERNEL_S / r["setup_kernel_s"] for r in runs]
    errors = [e for r in runs for e in r["errors"]]
    attempted = sum(r["attempted"] for r in runs)
    p_value, pct = tail(lat)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": ((len(lat) - main["failed_timed"]) / sum(lat), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "op_tail_ms": (1e3 * p_value, "ms"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
    }
    print_env(main["env"], args.workload)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(f"op_tail_ms is the p{pct:.1f} latency of {len(lat)} timed operations")
    print(f"times above are at reference speed: each duration x "
          f"{1e3 * REFERENCE_KERNEL_S:g} ms / calibration kernel time "
          f"(median kernel {1e3 * statistics.median(main['kernels']):.3f} ms)")
    print(f"wall-clock: op_p50_ms = {1e3 * statistics.median(raw)!r} ms, "
          f"setup_s = {statistics.median(r['setup_s'] for r in runs)!r} s")
    print(f"setup_s samples: {[round(v, 4) for v in setup]}")
    print(f"error_rate = {len(errors) / attempted!r} ({len(errors)} of {attempted} "
          f"operations, warm-ups included)")
    return metrics, attempted, errors


def traced(args, workdir, deadline):
    spans_path = os.path.join(ROOT, ".bench_out", f"spans-{args.workload}.csv")
    res = spawn("traced", args, workdir, deadline, extra=("--spans", spans_path))
    print_env(res["env"], args.workload)
    units = per_layer_metric_units()
    metrics = {name: (res["layer"][name], unit) for name, unit in units.items()}
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    n = len(res["latencies"]) // 2
    print(f"{res['spans']} spans over {n} traced operations written to {spans_path}")
    if res["missing_hooks"]:
        print(f"warning: hooks missing or failing: {'; '.join(res['missing_hooks'])}")
    return metrics, res["attempted"], res["errors"]


def smoke(deadline):
    ok = True
    for name in WORKLOAD_NAMES:
        args = argparse.Namespace(workload=name, seed=0, seconds=0)
        workdir = os.path.join(ROOT, ".bench_out", f"smoke-{name}-{os.getpid()}")
        os.makedirs(workdir, exist_ok=True)
        try:
            res = spawn("setup", args, workdir, deadline, extra=("--smoke",))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        status = "ok" if not res["errors"] else "FAILED " + "; ".join(res["errors"])
        ok = ok and not res["errors"]
        print(f"smoke {name}: {status} (operation {res['warmup_s']:.3f} s, "
              f"set-up {res['setup_s']:.3f} s)")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload once at a tiny size and exit")
    args = ap.parse_args()
    # turn SIGTERM into SystemExit so subprocess.run kills and reaps a worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "twistedma", "__init__.py")):
        print(f"error: no twistedma sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.smoke:
        try:
            return 0 if smoke(deadline) else 1
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    if args.workload is None or args.seconds < 1:
        ap.error("--workload and --seconds >= 1 are required")

    workdir = os.path.join(ROOT, ".bench_out", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        measure = traced if args.trace else timed
        metrics, attempted, errors = measure(args, workdir, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for err in errors:
        print(f"failed: {err}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
