"""Timing spans recorded from outside the program, around its public functions.

The traced run replaces selected module attributes of polarnet with wrappers
that open a span on entry and close it on exit. Spans live in memory and are
written out when the run ends. Nothing here changes what the wrapped
functions compute.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass

# (module, attribute, span name). The span name's first part is the layer.
# Wrapping a module attribute intercepts the calls made through that
# module's namespace: every public function ``polarnet.cli`` calls except
# the domination serialisers, whose time stays in the command's own self
# time; the rewire that ``polarnet.synth.generate`` calls; and the subgraph
# that in-group domination builds.
TARGETS = (
    ("polarnet.cli", "ingest_edge_list", "graph.ingest"),
    ("polarnet.cli", "build_directed_graph", "graph.build_directed"),
    ("polarnet.cli", "underlying_undirected", "graph.underlying_undirected"),
    ("polarnet.cli", "slice_windows", "graph.slice_windows"),
    ("polarnet.cli", "exclude_interval", "graph.exclude_interval"),
    ("polarnet.cli", "induced_subgraph", "graph.induced_subgraph"),
    ("polarnet.domination", "induced_subgraph", "graph.induced_subgraph"),
    ("polarnet.cli", "detect_communities", "community.detect"),
    ("polarnet.cli", "relabel_by_size", "community.relabel"),
    ("polarnet.cli", "save_partition", "community.save_partition"),
    ("polarnet.cli", "load_partition", "community.load_partition"),
    ("polarnet.cli", "modularity", "polarization.modularity"),
    ("polarnet.cli", "window_series", "polarization.window_series"),
    ("polarnet.cli", "write_report_csv", "polarization.write_report"),
    ("polarnet.cli", "write_report_json", "polarization.write_report"),
    ("polarnet.cli", "greedy_pdds", "domination.solve"),
    ("polarnet.cli", "in_group_domination", "domination.solve"),
    ("polarnet.cli", "network_domination_by_group", "domination.solve"),
    ("polarnet.cli", "coverage_curve", "domination.solve"),
    ("polarnet.cli", "group_spreaders", "domination.group_spreaders"),
    ("polarnet.cli", "generate", "synth.generate"),
    ("polarnet.synth", "configuration_rewire", "synth.rewire"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Recorder.spans
    run: int  # ordinal of the pass the span belongs to


class Recorder:
    """Nested spans of one process, kept in memory in the order they open."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent, self.run))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced


class Installed:
    """Wrappers placed on every target present; ``absent`` names the rest."""

    def __init__(self, recorder: Recorder) -> None:
        self._originals = []
        self.absent = []
        for module_name, attr, span_name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._originals.append((module, attr, original))
            setattr(module, attr, recorder.wrap(span_name, original))

    def remove(self) -> None:
        for module, attr, original in self._originals:
            setattr(module, attr, original)
        self._originals = []


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if span.parent is not None:
            children.setdefault(span.parent, []).append(i)
    result = []
    for i, span in enumerate(spans):
        intervals = sorted(
            (max(spans[c].start, span.start), min(spans[c].end, span.end))
            for c in children.get(i, ())
        )
        covered = 0.0
        cursor = span.start
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append(span.end - span.start - covered)
    return result
