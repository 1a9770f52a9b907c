"""Per-layer tracing of phdelay from outside the package.

``Tracer.install()`` replaces every public function of the traced phdelay
modules with a timing wrapper, in every phdelay module namespace that binds
the function (``certify`` imports ``is_psd`` by name, so patching only
``phdelay.linalg`` would miss its calls).  It also wraps ``numpy.linalg``'s
``eigh``/``eigvalsh``, ``svd``, ``solve`` and ``norm(., 2)`` (an svd), but
records those only when a phdelay span is open, i.e. when phdelay reached
them.  Spans (name, start, end, parent, op id) stay in memory until
``write_spans``.  A span's self time is its duration minus the durations
of its direct children; the program is single-threaded, so children never
overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time

import numpy as np

#: traced modules, by short name
MODULES = ("linalg", "systems", "certify", "composition", "standard",
           "simulation", "certificates", "cli")

#: the per-layer metrics the traced run reports, with their units; the
#: same list is in BENCHMARK.json ("per_layer").
FUNCTIONS = {
    "linalg": ("is_psd", "require_symmetric", "kernel_basis", "image_basis",
               "numerical_rank", "intersection_trivial", "subspace_contained",
               "whitening_basis", "spectral_norm",
               "lapack_eigh", "lapack_svd", "lapack_solve"),
    "systems": ("validate", "read_system", "write_system", "delay_ph_to_general"),
    "certify": ("construct_theta", "certify_delay_ph", "check_necessary"),
    "composition": ("interconnect", "certify_interconnection", "feedback_gain_bound",
                    "check_feedback_conditions", "close_delayed_feedback"),
    "standard": ("certify_ph", "check_minimality"),
    "simulation": ("monitor_dissipation", "evaluate_hamiltonian", "integrate_dde",
                   "simulate_delay_ph", "export_trajectory_csv"),
    "certificates": ("to_dict",),
    "cli": ("main",),
}
#: entry points whose inclusive time (``.total_s``, children included) is
#: reported as well, so a layer whose cost sits in its callees still shows
INCLUSIVE = ("certify.construct_theta", "certify.certify_delay_ph",
             "certify.check_necessary", "composition.certify_interconnection",
             "composition.feedback_gain_bound", "standard.certify_ph",
             "simulation.monitor_dissipation", "simulation.integrate_dde",
             "simulation.export_trajectory_csv", "cli.main")
EXTRA_METRICS = tuple((f"{name}.total_s", "s") for name in INCLUSIVE) + (
    ("linalg.lapack_n3", "count"),
    ("certify.construct_theta.success_ratio", "1"),
    ("simulation.integrate_dde.steps", "count"),
    ("simulation.export_trajectory_csv.bytes", "bytes"),
    ("cli.import_s", "s"),
    ("cli.spawn_s", "s"),
) + tuple((f"{module}.self_s", "s") for module in MODULES) + (
    ("trace.op_wall_s", "s"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.traced_ops_per_s", "1/s"),
    ("trace.overhead_ratio", "1"),
)


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for module, names in FUNCTIONS.items():
        for fn in names:
            units[f"{module}.{fn}.calls"] = "count"
            units[f"{module}.{fn}.self_s"] = "s"
    units.update(EXTRA_METRICS)
    return units


def _lapack_order(shape, kind):
    """Order-cubed work estimate of one LAPACK call on a matrix of ``shape``."""
    rows, cols = shape[-2], shape[-1]
    if kind == "lapack_svd":
        return rows * cols * min(rows, cols)
    return cols ** 3


class Tracer:
    def __init__(self):
        self.spans = []          # (name, start, end, parent index, op id)
        self.stats = {}          # name -> [calls, self seconds, total seconds]
        self.counters = {"linalg.lapack_n3": 0, "construct_theta.success": 0,
                         "simulation.integrate_dde.steps": 0,
                         "simulation.export_trajectory_csv.bytes": 0}
        self.op_id = -1
        self._stack = []         # open span indices
        self._child = []         # child time accumulated per open span
        self._restore = []       # (namespace, attribute, original)

    # -- spans ------------------------------------------------------------

    def _span(self, name, fn, args, kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(idx)
        self._child.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            child = self._child.pop()
            if self._child:
                self._child[-1] += end - start
            stat = self.stats.setdefault(name, [0, 0.0, 0.0])
            stat[0] += 1
            stat[1] += end - start - child
            stat[2] += end - start
            self.spans[idx] = (name, start, end, parent, self.op_id)

    def _wrap(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = tracer._span(name, fn, args, kwargs)
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def _wrap_lapack(self, name, fn, is_matrix_2norm=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._stack or (is_matrix_2norm and not is_matrix_2norm(args, kwargs)):
                return fn(*args, **kwargs)
            tracer.counters["linalg.lapack_n3"] += _lapack_order(
                np.shape(args[0]), name.rsplit(".", 1)[-1])
            return tracer._span(name, fn, args, kwargs)

        return wrapper

    # -- hooks for the counted outcomes ----------------------------------

    def _after_construct(self, result, _args, _kwargs):
        self.counters["construct_theta.success"] += bool(result.success)

    def _after_integrate(self, result, _args, _kwargs):
        self.counters["simulation.integrate_dde.steps"] += result.times.size - 1

    def _after_export(self, _result, args, kwargs):
        path = kwargs.get("path", args[1] if len(args) > 1 else None)
        self.counters["simulation.export_trajectory_csv.bytes"] += os.path.getsize(path)

    # -- install / uninstall ----------------------------------------------

    def install(self):
        package = importlib.import_module("phdelay")
        modules = {m: importlib.import_module(f"phdelay.{m}") for m in MODULES}
        after = {"construct_theta": self._after_construct,
                 "integrate_dde": self._after_integrate,
                 "export_trajectory_csv": self._after_export}
        originals = {}
        for short, module in modules.items():
            for fn_name in FUNCTIONS[short]:
                fn = getattr(module, fn_name, None)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    originals[id(fn)] = (fn, self._wrap(f"{short}.{fn_name}", fn,
                                                        after.get(fn_name)))
        namespaces = [package, *modules.values()]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    self._patch(ns, attr, originals[id(value)][1])
        cert_cls = modules["certificates"].Certificate
        self._patch(cert_cls, "to_dict",
                    self._wrap("certificates.to_dict", cert_cls.to_dict))

        def matrix_2norm(args, kwargs):
            ord_ = kwargs.get("ord", args[1] if len(args) > 1 else None)
            return ord_ == 2 and np.ndim(args[0]) == 2

        la = np.linalg
        for attr, name, test in (("eigh", "lapack_eigh", None),
                                 ("eigvalsh", "lapack_eigh", None),
                                 ("svd", "lapack_svd", None),
                                 ("norm", "lapack_svd", matrix_2norm),
                                 ("solve", "lapack_solve", None)):
            self._patch(la, attr, self._wrap_lapack(f"linalg.{name}", getattr(la, attr), test))

    def _patch(self, namespace, attr, value):
        self._restore.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def uninstall(self):
        while self._restore:
            namespace, attr, original = self._restore.pop()
            setattr(namespace, attr, original)

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        """Calls, self time and counters over everything traced so far."""
        out = {}
        module_self = dict.fromkeys(MODULES, 0.0)
        for module, names in FUNCTIONS.items():
            for fn in names:
                calls, self_s, _ = self.stats.get(f"{module}.{fn}", (0, 0.0, 0.0))
                out[f"{module}.{fn}.calls"] = calls
                out[f"{module}.{fn}.self_s"] = self_s
                module_self[module] += self_s
        for name in INCLUSIVE:
            out[f"{name}.total_s"] = self.stats.get(name, (0, 0.0, 0.0))[2]
        out["linalg.lapack_n3"] = self.counters["linalg.lapack_n3"]
        calls = out["certify.construct_theta.calls"]
        out["certify.construct_theta.success_ratio"] = (
            self.counters["construct_theta.success"] / calls if calls else 0.0)
        out["simulation.integrate_dde.steps"] = self.counters["simulation.integrate_dde.steps"]
        out["simulation.export_trajectory_csv.bytes"] = (
            self.counters["simulation.export_trajectory_csv.bytes"])
        for module, self_s in module_self.items():
            out[f"{module}.self_s"] = self_s
        return out

    def write_spans(self, path):
        """Write the recorded spans as JSON lines: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
