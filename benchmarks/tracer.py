"""Span tracing of skg from outside the package.

The tracer wraps public skg functions by name. Every module of the
package that imported the function under that name gets the wrapper, so
calls made through ``from .graph_data import pairwise_stats`` are seen
too. A span records (name, start, end, parent); spans live in memory and
are written out when the benchmark ends. A counter function per target
derives work counts (pairs scanned, FLOPs, probes, ...) from the call's
arguments and result at the same boundary. A target a later version
renames or removes is reported absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

import numpy as np

SWEEP = "harness.sweep"


def _rows(x) -> int:
    return int(np.shape(x)[0])


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_pairwise(args, kwargs, result):
    n = _rows(_arg(args, kwargs, 0, "vectors"))
    return {"graph_data.pairwise_stats.pairs": n * (n - 1) // 2}


def _count_adjacency(args, kwargs, result):
    rows, cols = np.shape(result)
    return {"graph_data.build_adjacency_vectors.calls": 1,
            "graph_data.build_adjacency_vectors.cells": rows * cols}


def _count_feature_matrix(args, kwargs, result):
    bank = _arg(args, kwargs, 0, "bank")
    rows = _rows(result)
    return {"rff.feature_matrix.rows": rows,
            "rff.feature_matrix.flops": 2 * rows * bank.input_dim * bank.n_features}


def _count_train(args, kwargs, result):
    return {"model.train.steps": int(result.duration)}


def _count_probes(args, kwargs, result):
    steps = _rows(_arg(args, kwargs, 0, "train_features"))
    probes = _rows(_arg(args, kwargs, 1, "probe_features"))
    return {"weights.probe_weight_traces.probes": probes,
            "weights.probe_weight_traces.recursion_flops": probes * steps * steps,
            "weights.probe_weight_traces.dense_bytes": 8 * steps * steps}


def _count_edges(args, kwargs, result):
    return {"graph_data.edges_ingested": int(result.num_edges)}


def _count_run_once(args, kwargs, result):
    return {"harness.run_once.calls": 1}


# (module, attribute path, counter). Attribute paths with a dot name a
# method on a class of that module.
TARGETS = (
    ("cli", "main", None),
    ("cli", "cmd_select", None),
    ("cli", "cmd_train", None),
    ("cli", "cmd_predict", None),
    ("cli", "cmd_sweep", None),
    ("cli", "cmd_analyze", None),
    ("graph_data", "load_dataset", None),
    ("graph_data", "load_graph", _count_edges),
    ("graph_data", "load_values", None),
    ("graph_data", "build_adjacency_vectors", _count_adjacency),
    ("graph_data", "pairwise_stats", _count_pairwise),
    ("rff", "sample_bank", None),
    ("rff", "feature_matrix", _count_feature_matrix),
    ("model", "SkgModel.train", _count_train),
    ("model", "SkgModel.predict_batch", None),
    ("model", "load_model", None),
    ("model", "save_model", None),
    ("weights", "probe_weight_traces", _count_probes),
    ("weights", "refined_noise_from_traces", None),
    ("weights", "noise_up_theoretical", None),
    ("variance", "select", None),
    ("harness", "resolve_sigma_sq", None),
    ("harness", "run_once", _count_run_once),
    ("harness", "sweep", None),
    ("harness", "export_scatter", None),
    ("harness", "export_bf_trace", None),
)

MODULES = ("graph_data", "rff", "model", "weights", "variance", "harness", "cli")


class Tracer:
    """Records spans and counts while ``active``; a no-op pass-through otherwise."""

    def __init__(self):
        self.active = False
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.counter_errors: Counter = Counter()
        self.op_id = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._sweep_keys: set = set()

    # -- installation -------------------------------------------------
    def install(self) -> None:
        """Wrap every target found in the loaded skg package."""
        for module_name, attr_path, counter in TARGETS:
            name = f"{module_name}.{attr_path.rsplit('.', 1)[-1]}"
            try:
                module = importlib.import_module(f"skg.{module_name}")
                owner = module
                *parents, attr = attr_path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{module_name}.{attr_path}")
                continue
            wrapper = self._wrap(name, original, counter)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded is None or not (loaded_name == "skg" or loaded_name.startswith("skg.")):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, key, original, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            record = [name, time.perf_counter(), None, parent, tracer.op_id]
            tracer.spans.append(record)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                tracer._count(name, counter, args, kwargs, result)
            return result

        return traced

    def _count(self, name, counter, args, kwargs, result) -> None:
        try:
            counts = counter(args, kwargs, result)
            if name == "graph_data.build_adjacency_vectors" and self._inside(SWEEP):
                # distinct (node set, referencing set) builds inside one sweep
                sampled = _arg(args, kwargs, 1, "sampled")
                referencing = _arg(args, kwargs, 2, "referencing")
                self._sweep_keys.add(hash((tuple(sampled), tuple(referencing))))
                counts[f"{SWEEP}.adjacency_builds"] = 1
        except (AttributeError, IndexError, KeyError, TypeError, ValueError):
            self.counter_errors[name] += 1
            return
        self.counts.update(counts)

    def _inside(self, name) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    # -- per-iteration summaries --------------------------------------
    def mark(self) -> int:
        """Start a new summary window; returns the first span index of it."""
        self.counts = Counter()
        self._sweep_keys = set()
        return len(self.spans)

    def summarize(self, first: int) -> dict:
        """Inclusive and self seconds per span name, self seconds per module and
        per op, over spans recorded since ``first``; plus the window's counts."""
        spans = self.spans[first:]
        child_time = defaultdict(float)
        for name, start, end, parent, _ in spans:
            if parent >= first:
                child_time[parent] += end - start
        inclusive, self_time, modules = defaultdict(float), defaultdict(float), defaultdict(float)
        by_op: dict = defaultdict(lambda: defaultdict(float))
        for index, (name, start, end, parent, op) in enumerate(spans, start=first):
            own = (end - start) - child_time[index]
            inclusive[name] += end - start
            self_time[name] += own
            modules[name.split(".", 1)[0]] += own
            by_op[str(op)][name] += own
        counts = dict(self.counts)
        builds = counts.get(f"{SWEEP}.adjacency_builds", 0)
        counts[f"{SWEEP}.adjacency_reuse"] = len(self._sweep_keys) / builds if builds else 0.0
        return {"inclusive": dict(inclusive), "self": dict(self_time), "modules": dict(modules),
                "self_by_op": {op: dict(names) for op, names in by_op.items()},
                "counts": counts}

    def export(self) -> dict:
        """All spans, times relative to the first, for writing out at the end."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return {
            "fields": ["name", "start_s", "end_s", "parent", "op"],
            "spans": [[name, start - t0, end - t0, parent, op]
                      for name, start, end, parent, op in self.spans],
            "absent": self.absent,
            "counter_errors": dict(self.counter_errors),
        }
