"""Span tracer that wraps fracpot's public functions at module boundaries.

fracpot modules import each other's functions by name (`from .x import y`),
so a function is wrapped wherever a fracpot module holds a reference to it:
in its defining module and in every calling module.  A layer whose module or
function no longer exists is skipped and its metrics are absent from the
report; nothing crashes.

Spans (name, start, end, parent, run id) stay in memory until `write_spans`.
`install` / `uninstall` put the wrappers in and take them out again, so an
untraced pass runs the original functions.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time
import tracemalloc

import numpy as np

LAYERS = (
    "cli.load_config",
    "experiments.make_observation",
    "experiments.relative_error",
    "inverse.reconstruct",
    "inverse.compute_psi_h",
    "forward.solve_forward",
    "fem.assemble_operators",
    "fem.assemble_load",
    "fem.mass_matrix",
    "fem.interpolate_nodal",
    "cq.cq_weights",
    "cq.discrete_caputo",
    "sparselin.solve_spd",
)

SOLVE = "sparselin.solve_spd"
FORWARD = "forward.solve_forward"
LOAD = "fem.assemble_load"
RECONSTRUCT = "inverse.reconstruct"


def _load_layer(name: str):
    module_name, func_name = name.rsplit(".", 1)
    try:
        module = importlib.import_module(f"fracpot.{module_name}")
    except ModuleNotFoundError:
        return None
    return getattr(module, func_name, None)


def _fracpot_modules():
    package = importlib.import_module("fracpot")
    for info in pkgutil.iter_modules(package.__path__):
        importlib.import_module(f"fracpot.{info.name}")
    return [m for n, m in list(sys.modules.items()) if n == "fracpot" or n.startswith("fracpot.")]


class Tracer:
    """Wraps every found layer; records spans and per-layer counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, run id]
        self.run_id = "setup"
        self.originals: dict = {}  # layer name -> unwrapped function, in LAYERS order
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.cg_iterations = 0
        self.unconverged = 0
        self.time_steps = 0
        self.alloc_peak_bytes = None
        self.forward_problems: dict = {}  # (n_nodes, num_steps) -> first call's arguments
        self.load_calls = 0
        self.load_problems: set = set()
        self.contraction_ratios: list[float] = []

    def install(self) -> None:
        if self._patches:
            return
        modules = _fracpot_modules()
        self.originals = {}
        for name in LAYERS:
            original = _load_layer(name)
            if original is None:
                continue
            self.originals[name] = original
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    @property
    def present(self) -> list[str]:
        return list(self.originals)

    @property
    def absent(self) -> list[str]:
        """Layers that no longer exist in fracpot; their metrics are not reported."""
        return [name for name in LAYERS if name not in self.present]

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = [name, 0.0, 0.0, parent, tracer.run_id]
            tracer.spans.append(span)
            tracer._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            tracer._observe(name, args, kwargs, result)
            return result

        return wrapper

    def _observe(self, name, args, kwargs, result) -> None:
        if name == SOLVE:
            report = result[1]
            self.cg_iterations += int(report.iterations)
            self.unconverged += int(not report.converged)
        elif name == FORWARD:
            spec = args[0] if args else kwargs["spec"]
            self.time_steps += int(spec.num_steps)
            self.forward_problems.setdefault((spec.mesh.n_nodes, spec.num_steps), (args, kwargs))
        elif name == LOAD:
            mesh = args[0] if args else kwargs["mesh"]
            f = args[1] if len(args) > 1 else kwargs["f"]
            self.load_calls += 1
            self.load_problems.add((mesh.dim, mesh.bounds, mesh.cells_per_axis, str(f)))
        elif name == RECONSTRUCT:
            inc = np.asarray(result.increments, dtype=float)
            if inc.size >= 2:
                with np.errstate(divide="ignore", invalid="ignore"):
                    ratios = inc[1:] / inc[:-1]
                self.contraction_ratios.extend(float(r) for r in ratios if np.isfinite(r))

    def measure_memory(self) -> None:
        """Peak traced allocation of one forward march per distinct problem size.

        Runs after the timed spans, on the unwrapped solver, because
        tracemalloc slows numpy's small temporaries several-fold.
        """
        if FORWARD not in self.present:
            return
        solve = self.originals[FORWARD]
        self.alloc_peak_bytes = 0
        for args, kwargs in self.forward_problems.values():
            tracemalloc.start()
            try:
                solve(*args, **kwargs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            self.alloc_peak_bytes = max(self.alloc_peak_bytes, peak)

    def layer_metrics(self) -> dict:
        """calls / total_s / self_s per present layer, plus layer counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        durations: dict = {name: [] for name in self.present}
        self_time = dict.fromkeys(self.present, 0.0)
        for (name, start, end, _, _), children in zip(self.spans, child_time):
            durations[name].append(end - start)
            self_time[name] += end - start - children
        out: dict = {}
        for name in self.present:
            out[f"{name}.calls"] = (len(durations[name]), "count")
            out[f"{name}.total_s"] = (sum(durations[name]), "s")
            out[f"{name}.self_s"] = (self_time[name], "s")
        if SOLVE in self.present:
            times_us = np.asarray(durations[SOLVE]) * 1e6
            if times_us.size:
                out[f"{SOLVE}.p50_us"] = (float(np.percentile(times_us, 50)), "us")
                out[f"{SOLVE}.p99_us"] = (float(np.percentile(times_us, 99)), "us")
            out["sparselin.cg_iterations"] = (self.cg_iterations, "count")
            out["sparselin.unconverged"] = (self.unconverged, "count")
        if FORWARD in self.present:
            out["forward.time_steps"] = (self.time_steps, "count")
            if self.alloc_peak_bytes is not None:
                out["forward.alloc_peak_mb"] = (self.alloc_peak_bytes / 2**20, "MB")
        if LOAD in self.present and self.load_calls:
            out[f"{LOAD}.useful_frac"] = (len(self.load_problems) / self.load_calls, "ratio")
        if RECONSTRUCT in self.present and self.contraction_ratios:
            out["inverse.contraction_median"] = (float(np.median(self.contraction_ratios)), "ratio")
        return out

    def top_level_time(self, run_id) -> float:
        """Summed duration of the spans of one run that have no parent."""
        return sum(end - start for _, start, end, parent, run in self.spans
                   if parent is None and run == run_id)

    def write_spans(self, path) -> None:
        with open(path, "w") as handle:
            for name, start, end, parent, run in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "run": run}) + "\n")
