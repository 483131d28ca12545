"""Spans and counters around calls into tulink, recorded from outside the package.

The tracer rebinds each named function of a tulink module, in every tulink
module that holds a reference to it, to a wrapper that records one span:
name, start, end and the index of the enclosing span. ``Tracer.remove``
restores the originals. Spans stay in memory; ``summarize`` turns them into
call counts, total time and self time (the span's duration minus the time
its child spans cover) per name.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# Wrapped functions per module. "Tape.backward" names a method.
TARGETS = {
    "mobility": ("parse_dataset", "build_grid_map", "build_grid_sequences",
                 "load_grid_map", "load_sequences", "load_split"),
    "graphs": ("build_local_graph", "build_grid_incidence", "build_global_graph",
               "symmetric_normalize", "load_local_graph", "load_global_graph"),
    "model": ("gcn_forward", "encode_locations", "self_attention_stack",
              "global_attention", "forward_batch", "model_loss"),
    "tensor": ("matmul", "spmm", "sparsemax", "Tape.backward"),
    "train": ("adam_step", "predict_logits"),
    "metrics": ("compute_report", "export_embeddings"),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0.0)
        self._open.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _end(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        index = self._begin(name)
        try:
            yield
        finally:
            self._end(index)

    def _wrap(self, name: str, fn, probe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(index)
            if probe is not None:
                probe(self.counts, args, result)
            return result
        return traced

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Wrap every function in TARGETS wherever tulink refers to it."""
        import tulink.tensor

        modules = [m for key, m in sys.modules.items()
                   if (key == "tulink" or key.startswith("tulink.")) and m is not None]
        for module_name, functions in TARGETS.items():
            module = sys.modules[f"tulink.{module_name}"]
            for fn_name in functions:
                name = f"{module_name}.{fn_name.split('.')[-1]}"
                if fn_name == "Tape.backward":
                    original = tulink.tensor.Tape.backward
                    self._patch(tulink.tensor.Tape, "backward",
                                self._wrap(name, original, _count_tape_ops))
                    continue
                original = getattr(module, fn_name)
                probe = _count_support if fn_name == "sparsemax" else None
                wrapped = self._wrap(name, original, probe)
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._patch(holder, attr, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- summary -----------------------------------------------------------

    def summarize(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        if self._open:
            raise RuntimeError("summarize called with spans still open")
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        child_time = [0.0] * len(durations)
        for duration, parent in zip(durations, self.parents):
            if parent >= 0:
                child_time[parent] += duration
        out: dict[str, dict[str, float]] = {}
        for name, duration, covered in zip(self.names, durations, child_time):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - covered
        return out


def _count_tape_ops(counts, args, result) -> None:
    counts["tape_ops"] += len(args[0])


def _count_support(counts, args, result) -> None:
    values = result.values
    counts["sparsemax_nonzero"] += int((values != 0.0).sum())
    counts["sparsemax_outputs"] += values.size
