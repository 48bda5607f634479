"""Per-layer spans around the calls that cross between mflil modules.

The layers are mflil's modules. Each wrapped function is replaced, for the
length of one traced op, under every module that binds its name, so calls
from inside its own module are caught as well as calls from other modules.
Spans (layer, parent span, start, end) are kept in memory and written out at
the end of the run. A layer's self time is its span time minus the part of
that interval its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import itertools
import statistics
import sys
import threading
import time

# metric prefix, defining module, attribute
LAYERS = (
    ("cli.main", "mflil.cli", "main"),
    ("models.path_rng", "mflil.models", "path_rng"),
    ("lil.run_ensemble", "mflil.lil", "run_ensemble"),
    ("lil.lil_convention", "mflil.lil", "lil_convention"),
    ("lil.kstest", "scipy.stats", "kstest"),  # called by lil through its scipy.stats binding
    ("gauges.gauge_test", "mflil.gauges", "gauge_test"),
    ("gauges.log_gauge_from_u", "mflil.gauges", "log_gauge_from_u"),
    ("spectrum.tau_scale_free", "mflil.spectrum", "tau_scale_free"),
    ("spectrum.dimension", "mflil.spectrum", "dimension"),
    ("spectrum.sigma2_scale_free", "mflil.spectrum", "sigma2_scale_free"),
    ("spectrum.perron_root", "mflil.spectrum", "perron_root"),
    ("spectrum.tau_implicit_selfsimilar", "mflil.spectrum", "tau_implicit_selfsimilar"),
    ("qb.qb_constant", "mflil.qb", "qb_constant"),
    ("qb.dichotomy_classify", "mflil.qb", "dichotomy_classify"),
    ("report.build_oracles", "mflil.report", "build_oracles"),
    ("report.verify_records", "mflil.report", "verify_records"),
)
# ensemble entry points whose (N, checkpoints) arguments give the work counts
WORK_LAYERS = ("lil.run_ensemble", "gauges.gauge_test")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (op, span id, parent id, layer index, start ns, end ns)
        self.absent: set[str] = set()
        self.work: dict[int, list[int]] = {}  # op -> [paths, path-levels]
        self._ids = itertools.count()
        self._local = threading.local()
        self._main: list[int] = []
        self._patches: list[tuple] = []
        self._op = -1

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: int, fn):
        tracer = self
        name = LAYERS[layer][0]
        sig = None
        if name in WORK_LAYERS:
            try:
                sig = inspect.signature(fn)
            except (TypeError, ValueError):
                sig = None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else (tracer._main[-1] if tracer._main else -1)
            sid = next(tracer._ids)
            if sig is not None:
                tracer._count_work(sig, args, kwargs)
            stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append((tracer._op, sid, parent, layer, t0, t1))
        return traced

    def _count_work(self, sig, args, kwargs) -> None:
        try:
            bound = sig.bind(*args, **kwargs)
            n_paths = int(bound.arguments["N"])
            n_max = max(int(c) for c in bound.arguments["checkpoints"])
        except (TypeError, KeyError, ValueError):
            self.absent.update(("lil.paths", "lil.levels"))
            return
        counts = self.work.setdefault(self._op, [0, 0])
        counts[0] += n_paths
        counts[1] += n_paths * n_max

    def install(self, op: int) -> None:
        """Wrap every layer function under every module that binds it."""
        self._op = op
        self.work.setdefault(op, [0, 0])
        self._main = self._stack()
        for layer, (name, modname, attr) in enumerate(LAYERS):
            try:
                home = importlib.import_module(modname)
            except ImportError:
                self.absent.add(name)
                continue
            orig = getattr(home, attr, None)
            if orig is None or not callable(orig):
                self.absent.add(name)
                continue
            wrapper = self._wrap(layer, orig)
            for mod in list(sys.modules.values()):
                modname_ = getattr(mod, "__name__", "")
                if mod is not home and modname_ != "mflil" and not modname_.startswith("mflil."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, orig))

    def uninstall(self) -> None:
        for mod, key, orig in reversed(self._patches):
            setattr(mod, key, orig)
        self._patches.clear()

    def op_metrics(self) -> dict[int, dict[str, float]]:
        """calls, span seconds and self seconds of every layer, per traced op."""
        by_op: dict[int, list[tuple]] = {}
        for span in self.spans:
            by_op.setdefault(span[0], []).append(span)
        out = {}
        for op, spans in by_op.items():
            children: dict[int, list[tuple[int, int]]] = {}
            for _, _, parent, _, t0, t1 in spans:
                children.setdefault(parent, []).append((t0, t1))
            m: dict[str, float] = {}
            for name, _, _ in LAYERS:
                m[f"{name}.calls"] = 0
                m[f"{name}.s"] = 0.0
                m[f"{name}.self_s"] = 0.0
            for _, sid, _, layer, t0, t1 in spans:
                name = LAYERS[layer][0]
                covered = _covered(children.get(sid, ()), t0, t1)
                m[f"{name}.calls"] += 1
                m[f"{name}.s"] += (t1 - t0) / 1e9
                m[f"{name}.self_s"] += (t1 - t0 - covered) / 1e9
            paths, levels = self.work.get(op, (0, 0))
            m["lil.paths"], m["lil.levels"] = paths, levels
            out[op] = m
        return out

    def medians(self) -> dict[str, float]:
        """Median over traced ops of each per-op layer metric."""
        per_op = list(self.op_metrics().values())
        keys = set().union(*per_op) if per_op else set()
        return {k: statistics.median(m.get(k, 0) for m in per_op) for k in keys}

    def is_absent(self, metric: str) -> bool:
        return metric in self.absent or any(metric.startswith(name + ".") for name in self.absent)

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("op,span,parent,layer,start_ns,end_ns\n")
            for op, sid, parent, layer, t0, t1 in sorted(self.spans, key=lambda s: s[1]):
                fh.write(f"{op},{sid},{parent},{LAYERS[layer][0]},{t0},{t1}\n")


def _covered(intervals, lo: int, hi: int) -> int:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, end = 0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total
