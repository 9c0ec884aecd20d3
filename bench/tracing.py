"""Out-of-process tracing of the twistedma layers.

``Tracer.install`` replaces every public module-level function of the
layer modules, in every twistedma namespace that binds it (so
``twistedma.flow.hessian_block_values`` is covered as well as
``twistedma.grid.hessian_block_values``), with a wrapper that records a
span: (name, start, end, parent span, op id).  The ``scipy.fft`` calls
made through ``twistedma.potential`` and the ``write_*`` artifact methods
of layer classes are wrapped the same way.  Nothing under ``src/`` is
edited; ``uninstall`` restores the originals.

Spans live in flat arrays while the run lasts and are written out once at
the end.  Counters of computed work are taken at the same boundaries by
small hooks.  ``layer_metrics`` turns spans and counters into the
per-layer metrics of BENCHMARK.json, per traced operation.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time
import types
from array import array
from collections import defaultdict

LAYERS = ("grid", "forms", "potential", "flow", "viscosity", "legendre",
          "localization", "cli")

_FFT_NAMES = frozenset({"fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
                        "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
                        "hfft", "ihfft", "hfftn", "ihfftn"})
_FFT_SPAN = "potential.fft"

# span names that make up each timed per-layer metric (self time)
SELF_TIME_GROUPS = {
    "grid.hessian_s": ("grid.second_diff", "grid.hessian_block_values",
                       "grid.hermitian_hessian"),
    "grid.pointwise_s": ("grid.min_eig_values", "grid.max_eig_values",
                         "grid.det_values", "grid.trace_norm_values",
                         "grid.pd_gate", "grid.det_plus", "grid.min_eigenvalue"),
    "grid.io_s": ("grid.save_field", "grid.load_field", "grid.export_csv"),
    "forms.background_at_s": ("forms.background_at",),
    "forms.tau_star_s": ("forms.max_existence_time",),
    "potential.solve_s": ("potential.solve_square", "potential._grid_symbols"),
    "potential.square_operator_s": ("potential.square_operator",),
    "potential.fft_s": (_FFT_SPAN,),
    "flow.step_s": ("flow.step",),
    "flow.rhs_s": ("flow.twisted_rhs",),
    "flow.admissibility_s": ("flow.admissibility",),
    "flow.stable_dt_s": ("flow.stable_dt",),
    "viscosity.check_s": ("viscosity.subsolution_check",
                          "viscosity.supersolution_check"),
    "legendre.transform_s": ("legendre.partial_legendre",
                             "legendre.inverse_partial_legendre",
                             "legendre.legendre_roundtrip_error"),
    "legendre.residual_s": ("legendre.transformed_residual",
                            "legendre.untransformed_residual"),
    "localization.probe_s": ("localization.localization_gap_probe",),
    "cli.scenario_s": ("cli.run_scenario", "cli.load_config"),
}

# per-op call counts: metric -> span names counted
CALL_COUNTS = {
    "grid.hessian_calls": ("grid.hessian_block_values",),
    "grid.pointwise_calls": SELF_TIME_GROUPS["grid.pointwise_s"],
    "forms.background_at_calls": ("forms.background_at",),
    "potential.solves": ("potential.solve_square",),
    "potential.fft_calls": (_FFT_SPAN,),
    "flow.runs": ("flow.run",),
    "flow.steps": ("flow.step",),
    "flow.form_blocks_calls": ("flow.form_block_values",),
    "viscosity.checks": SELF_TIME_GROUPS["viscosity.check_s"],
    "legendre.transforms": ("legendre.partial_legendre",
                            "legendre.inverse_partial_legendre"),
    "localization.probes": ("localization.localization_gap_probe",),
    "cli.scenarios": ("cli.run_scenario",),
}

# computed-work counters, reported per op under their own names
COUNTERS = ("grid.hessian_bytes", "grid.io_bytes", "potential.fft_points",
            "viscosity.points_checked", "viscosity.violations",
            "legendre.rows", "localization.objective_points",
            "cli.artifact_bytes")

# (hit counter, lookup counter) pairs reported as hit ratios
RATIOS = {
    "potential.symbol_cache_hit_ratio": ("potential.symbol_cache_hits",
                                         "potential.symbol_cache_lookups"),
    "flow.form_blocks_hit_ratio": ("flow.form_blocks_hits",
                                   "flow.form_blocks_lookups"),
}

# artifact writers whose inclusive time under a cli span is cli.artifact_write_s
ARTIFACT_WRITERS = ("grid.save_field", "grid.export_csv",
                    "flow.Trajectory.write_monitor_csv",
                    "viscosity.ViolationReport.write_csv",
                    "localization.ProbeResult.write_csv")


def per_layer_metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s/op"
    for name in CALL_COUNTS:
        units[name] = "count/op"
    for name in SELF_TIME_GROUPS:
        units[name] = "s/op"
    units["cli.artifact_write_s"] = "s/op"
    for name in COUNTERS:
        units[name] = "bytes/op" if name.endswith("_bytes") else "count/op"
    for name in RATIOS:
        units[name] = "ratio"
    units["trace.overhead_frac"] = "ratio"
    return units


def self_times(names, starts, ends, parents):
    """Per-span self time: duration minus the part of it covered by the
    union of its direct children's intervals."""
    children = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append((starts[i], ends[i]))
    out = []
    for i in range(len(names)):
        lo, hi = starts[i], ends[i]
        covered = 0.0
        cur_lo = cur_hi = None
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, lo), min(b, hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((hi - lo) - covered)
    return out


def _bound(fn):
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        b = sig.bind(*args, **kwargs)
        b.apply_defaults()
        return b.arguments
    return bind


def _file_size(path):
    return os.path.getsize(path) if os.path.exists(path) else 0


def _dir_size(path):
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self):
        self.name_ids = {}
        self.names = []
        self.span_name = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.ops = array("q")
        self.stack = []
        self.op_id = -1
        self.active = False
        self.counters = defaultdict(float)
        self._restore = []
        self._wrappers = {}
        self.missing = set()

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, pre=None, post=None):
        """Span-recording wrapper around fn.  ``pre(args, kwargs)`` runs
        before the call, ``post(state, args, kwargs, result)`` after it; both
        only while the tracer is active."""
        name_id = self.name_ids.setdefault(name, len(self.name_ids))
        if name_id == len(self.names):
            self.names.append(name)
        clock = time.perf_counter

        def hook(h, *a):
            # a hook that no longer fits the program must not fail the op
            try:
                return h(*a)
            except Exception as exc:
                self.missing.add(f"{name} hook: {exc!r}")
                return None

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            state = hook(pre, args, kwargs) if pre else None
            idx = len(self.starts)
            self.span_name.append(name_id)
            self.parents.append(self.stack[-1] if self.stack else -1)
            self.ops.append(self.op_id)
            self.ends.append(0.0)
            self.stack.append(idx)
            self.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = clock()
                self.stack.pop()
            if post:
                hook(post, state, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _patch(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap the layer modules' public functions everywhere they are bound."""
        import twistedma
        modules = {layer: importlib.import_module(f"twistedma.{layer}")
                   for layer in LAYERS}
        hooks = self._hooks(modules)
        namespaces = [twistedma, *modules.values()]
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (isinstance(obj, types.FunctionType)
                        and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    self._wrappers[obj] = self.wrap(f"{layer}.{attr}", obj,
                                                    *hooks.get(f"{layer}.{attr}", ()))
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if meth.startswith("write_") and isinstance(fn, types.FunctionType):
                            self._patch(obj, meth, self.wrap(
                                f"{layer}.{obj.__name__}.{meth}", fn))
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if isinstance(obj, types.FunctionType) and obj in self._wrappers:
                    self._patch(ns, attr, self._wrappers[obj])
        self._install_private(modules["potential"], "_grid_symbols",
                              hooks["potential._grid_symbols"])
        self._install_fft(modules["potential"])

    def _install_private(self, mod, attr, hook):
        fn = getattr(mod, attr, None)
        if not isinstance(fn, types.FunctionType):
            self.missing.add(f"{mod.__name__}.{attr}")
            return
        self._patch(mod, attr, self.wrap(f"{mod.__name__.split('.')[-1]}.{attr}",
                                         fn, *hook))

    def _install_fft(self, mod):
        """Route the module's scipy.fft / numpy.fft transforms through spans."""
        post = (None, lambda s, a, k, r: self._add("potential.fft_points",
                                                   getattr(a[0], "size", 0)))
        found = False
        for attr, obj in list(vars(mod).items()):
            if (callable(obj) and getattr(obj, "__name__", "") in _FFT_NAMES
                    and getattr(obj, "__module__", "").startswith(("scipy.fft", "numpy.fft"))):
                self._patch(mod, attr, self.wrap(_FFT_SPAN, obj, *post))
                found = True
        scipy_mod = vars(mod).get("scipy")
        if isinstance(scipy_mod, types.ModuleType):
            real_fft = scipy_mod.fft
            wrapped = {n: self.wrap(_FFT_SPAN, getattr(real_fft, n), *post)
                       for n in _FFT_NAMES if hasattr(real_fft, n)}

            class _Fft:
                def __getattr__(self, n):
                    return wrapped.get(n) or getattr(real_fft, n)

            fft_shim = _Fft()

            class _Scipy:
                def __getattr__(self, n):
                    return fft_shim if n == "fft" else getattr(scipy_mod, n)

            self._patch(mod, "scipy", _Scipy())
            found = True
        if not found:
            self.missing.add(f"{mod.__name__} FFT calls")

    def uninstall(self):
        for owner, attr, old in reversed(self._restore):
            setattr(owner, attr, old)
        self._restore.clear()
        self.active = False

    def _add(self, counter, value):
        self.counters[counter] += value

    # -- computed-work hooks ---------------------------------------------

    def _hooks(self, modules):
        add = self._add
        pot = modules["potential"]

        def hessian_post(state, args, kwargs, result):
            values = args[0] if args else kwargs["values"]
            add("grid.hessian_bytes", values.nbytes + result.nbytes)

        def form_blocks_pre(args, kwargs):
            state = args[0] if args else kwargs["state"]
            add("flow.form_blocks_lookups", 1)
            add("flow.form_blocks_hits", getattr(state, "_blocks", None) is not None)

        def cache_pre(args, kwargs):
            return len(getattr(pot, "_symbol_cache", ()))

        def cache_post(before, args, kwargs, result):
            add("potential.symbol_cache_lookups", 1)
            add("potential.symbol_cache_hits",
                len(getattr(pot, "_symbol_cache", ())) == before)

        def check_post(state, args, kwargs, report):
            add("viscosity.points_checked", report.n_points_checked)
            add("viscosity.violations", len(report.violations))

        def path_hook(fn, key, when):
            bind = _bound(fn)

            def pre(args, kwargs):
                path = bind(args, kwargs)[key]
                if when == "pre":
                    add("grid.io_bytes", _file_size(path))
                return path

            def post(path, args, kwargs, result):
                if when == "post":
                    add("grid.io_bytes", _file_size(path))
            return pre, post

        def rows_pre_for(fn):
            bind = _bound(fn)

            def pre(args, kwargs):
                field = next(iter(bind(args, kwargs).values()))
                add("legendre.rows", len(field.x_plus))
            return pre

        def probe_pre_for(fn):
            bind = _bound(fn)

            def pre(args, kwargs):
                a = bind(args, kwargs)
                add("localization.objective_points",
                    a["search_points"] ** (4 * a["n"]) * a["search_levels"]
                    * len(a["alphas"]))
            return pre

        def scenario_hook(fn):
            bind = _bound(fn)

            def pre(args, kwargs):
                return bind(args, kwargs)["out_dir"]

            def post(out_dir, args, kwargs, result):
                add("cli.artifact_bytes", _dir_size(out_dir))
            return pre, post

        g, lg = modules["grid"], modules["legendre"]
        loc, cli = modules["localization"], modules["cli"]
        hooks = {
            "grid.hessian_block_values": (None, hessian_post),
            "grid.save_field": path_hook(g.save_field, "path", "post"),
            "grid.export_csv": path_hook(g.export_csv, "path", "post"),
            "grid.load_field": path_hook(g.load_field, "path", "pre"),
            "flow.form_block_values": (form_blocks_pre, None),
            "potential._grid_symbols": (cache_pre, cache_post),
            "viscosity.subsolution_check": (None, check_post),
            "viscosity.supersolution_check": (None, check_post),
            "legendre.partial_legendre": (rows_pre_for(lg.partial_legendre), None),
            "legendre.inverse_partial_legendre":
                (rows_pre_for(lg.inverse_partial_legendre), None),
            "localization.localization_gap_probe":
                (probe_pre_for(loc.localization_gap_probe), None),
            "cli.run_scenario": scenario_hook(cli.run_scenario),
        }
        return hooks

    # -- results -----------------------------------------------------------

    def write(self, path):
        """Write every span as CSV: name,start,end,parent,op."""
        with open(path, "w") as fh:
            fh.write("name,start,end,parent,op\n")
            for i in range(len(self.starts)):
                fh.write(f"{self.names[self.span_name[i]]},{self.starts[i]!r},"
                         f"{self.ends[i]!r},{self.parents[i]},{self.ops[i]}\n")

    def layer_metrics(self, n_ops):
        """Per-layer metrics per traced operation (without trace.overhead_frac)."""
        names = [self.names[i] for i in self.span_name]
        selfs = self_times(names, self.starts, self.ends, self.parents)
        self_by_name = defaultdict(float)
        calls = defaultdict(int)
        for name, s in zip(names, selfs):
            self_by_name[name] += s
            calls[name] += 1
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(s for name, s in self_by_name.items()
                                         if name.startswith(layer + "."))
        for metric, group in CALL_COUNTS.items():
            out[metric] = sum(calls[name] for name in group)
        for metric, group in SELF_TIME_GROUPS.items():
            out[metric] = sum(self_by_name[name] for name in group)
        out["cli.artifact_write_s"] = self._artifact_write_time(names)
        for name in COUNTERS:
            out[name] = self.counters[name]
        out = {k: v / n_ops for k, v in out.items()}
        for metric, (hits, lookups) in RATIOS.items():
            total = self.counters[lookups]
            out[metric] = self.counters[hits] / total if total else 0.0
        return out

    def _artifact_write_time(self, names):
        """Inclusive time of artifact writers that run under a cli span."""
        total = 0.0
        for i, name in enumerate(names):
            if name not in ARTIFACT_WRITERS:
                continue
            p = self.parents[i]
            while p >= 0 and not names[p].startswith("cli."):
                p = self.parents[p]
            if p >= 0:
                total += self.ends[i] - self.starts[i]
        return total
