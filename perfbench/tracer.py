"""Per-module spans for the traced benchmark run, recorded from outside gnla.

``install`` replaces public functions of the gnla modules with timing wrappers.
A function bound elsewhere by ``from .x import y`` has one binding per importing
module; every binding that refers to the original function object is replaced,
so calls through any of them are seen. Dataclass construction is timed through
``__post_init__`` on the class.

Spans stay in memory (name, parent, start, end) and are written out by
``write_spans`` after the run. A span's self time is its duration minus the
durations of the wrapped spans nested directly inside it.
"""

from __future__ import annotations

import functools
import os
import sys
import time

import numpy as np

# (module, attribute) of every wrapped function; the span name is
# "<module>.<attribute>" unless a labeller below refines it.
TARGETS = {
    "sparse": ["from_coo", "transpose", "spmv_csr", "spmm_csr",
               "read_matrix_market", "write_matrix_market"],
    "graph_net": ["apply_layer", "aggregate_incoming", "matrix_to_graph"],
    "kernels": ["gnn_spmv", "gnn_weighted_norm", "gnn_jacobi", "gnn_chebyshev",
                "gnn_power_method", "weighted_norm_reference", "jacobi_reference",
                "chebyshev_reference", "power_method_reference"],
    "amg": ["soc_classic", "soc_sa", "cf_split_greedy", "direct_interpolation",
            "two_level_solve"],
    "autodiff": ["backward", "gather", "matmul", "concat", "segment_sum",
                 "segment_min", "segment_max", "relu", "csr_matmat"],
    "nn": ["diffusion_model_forward", "jacobi_model_forward", "adam_step",
           "save_checkpoint", "load_checkpoint"],
    "fem": ["jacobi_instance", "diffusion_instance", "assemble_laplace_dirichlet",
            "assemble_diffusion_periodic", "sine_mode_basis", "diffusion_graph",
            "write_instance", "read_instance", "element_stiffness"],
    "train": ["omega_co", "eval_jacobi", "compare_methods", "jacobi_probe_loss",
              "diffusion_loss", "freq_sweep_eval", "stencil_probe", "train_jacobi",
              "train_diffusion"],
    "cli": ["main", "load_dataset"],
}

# constructors timed through the dataclass __post_init__ hook
CLASSES = {"sparse": ["SparseMatrixCSR"], "graph_net": ["AttributedGraph"]}

# spans whose durations are kept for percentiles
PERCENTILES = ("autodiff.backward", "nn.diffusion_model_forward.taped",
               "nn.diffusion_model_forward.plain", "nn.jacobi_model_forward.taped",
               "nn.jacobi_model_forward.plain")


def _tape_arg(args, kwargs):
    return args[2] if len(args) > 2 else kwargs.get("tape")


def _csr_bytes(A, k: int) -> int:
    """Bytes an SpMV/SpMM must touch, computed from nnz, n and k (not measured):
    values and column indices once, k gathered operands per entry, the row
    pointer, and n*k outputs, all 8-byte words."""
    return 8 * (A.nnz * (2 + k) + (A.n + 1) + A.n * k)


class Tracer:
    """Span recorder; one per traced process."""

    def __init__(self):
        self.spans: list[tuple[str, int, float, float]] = []
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.top_s: dict[str, float] = {}      # inclusive time of outermost spans
        self.durations: dict[str, list] = {name: [] for name in PERCENTILES}
        self.counters: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self.covered_s = 0.0                   # outermost spans inside timed phases
        self.timed = False                     # set by the workload around phases
        self._stack: list[list] = []           # [name, start, child_time, span_id]
        self._active: dict[str, int] = {}

    # -- span bookkeeping -------------------------------------------------

    def enter(self, name: str) -> None:
        if name == "sparse.spmv_csr" and self._active.get("train.omega_co"):
            self.count("train.omega_co.spmv_calls")   # power-iteration work
        self._active[name] = self._active.get(name, 0) + 1
        self._stack.append([name, time.perf_counter(), 0.0, len(self.spans)])
        self.spans.append((name, self._stack[-2][3] if len(self._stack) > 1 else -1,
                           0.0, 0.0))

    def exit(self) -> None:
        end = time.perf_counter()
        name, start, child, span_id = self._stack.pop()
        dur = end - start
        self._active[name] -= 1
        self.spans[span_id] = (name, self.spans[span_id][1], start, end)
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
        if name in self.durations:
            self.durations[name].append(dur)
        if self._stack:
            self._stack[-1][2] += dur
        else:
            self.top_s[name] = self.top_s.get(name, 0.0) + dur
            if self.timed:
                self.covered_s += dur

    def count(self, counter: str, amount: float = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def peak(self, counter: str, value: float) -> None:
        self.maxima[counter] = max(self.maxima.get(counter, value), value)

    # -- wrappers ---------------------------------------------------------

    def wrap(self, name: str, fn, label=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(label(args, kwargs) if label else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _after_hooks(self):
        def tape_size(args, kwargs, result):
            nodes = args[0].nodes
            self.peak("autodiff.tape_nodes", len(nodes))
            self.peak("autodiff.tape_mb", sum(n.value.nbytes for n in nodes) / 1e6)

        def nonzero(args, kwargs, result):
            if result != 0:
                self.count("cli.main.nonzero_exits")

        return {
            "sparse.spmv_csr": lambda a, k, r: self.count(
                "sparse.spmv_csr.bytes_computed", _csr_bytes(a[0], 1)),
            "sparse.spmm_csr": lambda a, k, r: self.count(
                "sparse.spmm_csr.bytes_computed", _csr_bytes(a[0], np.shape(a[1])[1])),
            "sparse.write_matrix_market": lambda a, k, r: self.count(
                "sparse.write_matrix_market.bytes", os.path.getsize(a[0])),
            "fem.assemble_laplace_dirichlet": lambda a, k, r: self.count(
                "fem.elements_assembled", len(a[0].elements)),
            "autodiff.backward": tape_size,
            "cli.main": nonzero,
        }

    def install(self) -> None:
        """Wrap every target in every loaded gnla module that binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "gnla" or n.startswith("gnla."))]
        def by_tape(name):   # model forwards split into taped and plain calls
            return lambda a, k: f"{name}.{'plain' if _tape_arg(a, k) is None else 'taped'}"

        labels = {
            "nn.diffusion_model_forward": by_tape("nn.diffusion_model_forward"),
            "nn.jacobi_model_forward": by_tape("nn.jacobi_model_forward"),
            "cli.main": lambda a, k: f"cli.main.{(a[0] if a else k['argv'])[0]}",
        }
        hooks = self._after_hooks()
        for modname, names in TARGETS.items():
            home = sys.modules[f"gnla.{modname}"]
            for fname in names:
                name = f"{modname}.{fname}"
                original = getattr(home, fname)
                wrapper = self.wrap(name, original, labels.get(name), hooks.get(name))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
        for modname, classes in CLASSES.items():
            home = sys.modules[f"gnla.{modname}"]
            for cname in classes:
                cls = getattr(home, cname)
                cls.__post_init__ = self.wrap(f"{modname}.{cname}", cls.__post_init__)

    # -- results ----------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("span,parent,name,start_s,end_s\n")
            origin = self.spans[0][2] if self.spans else 0.0
            for k, (name, parent, start, end) in enumerate(self.spans):
                fh.write(f"{k},{parent},{name},{start - origin:.9f},{end - origin:.9f}\n")

    def summary(self, rounds: int) -> dict:
        """Per-round span statistics keyed by per-layer metric name."""
        out = {}
        for name, calls in self.calls.items():
            out[f"{name}.calls"] = calls / rounds
            out[f"{name}.self_s"] = self.self_s[name] / rounds
        for name, durs in self.durations.items():
            if durs:
                out[f"{name}.p50_ms"] = 1e3 * float(np.percentile(durs, 50))
                out[f"{name}.p90_ms"] = 1e3 * float(np.percentile(durs, 90))
        for name, value in self.counters.items():
            out[name] = value / rounds
        out.update(self.maxima)
        paired = ("weighted_norm", "jacobi", "chebyshev", "power_method")
        gn = sum(self.top_s.get(f"kernels.gnn_{k}", 0.0) for k in paired)
        ref = sum(self.top_s.get(f"kernels.{k}_reference", 0.0) for k in paired)
        if ref > 0:
            out["kernels.gn_over_ref"] = gn / ref
        elements = self.counters.get("fem.elements_assembled", 0)
        if elements:
            out["fem.stiffness_reuse"] = 1.0 - self.calls.get(
                "fem.element_stiffness", 0) / elements
        return out
