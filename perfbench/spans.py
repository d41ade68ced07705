"""Spans recorded around the package's public functions, and self time.

The benchmark wraps module attributes from its own files; no file under
``src/`` knows about it. Calls inside the package go through module
globals or attributes (``ad.matmul``, ``md.encoder_forward``), so one
wrapper on the attribute sees every call. Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field


def covered(lo: int, hi: int, intervals: list[tuple[int, int]]) -> int:
    """Length of [lo, hi) covered by the union of ``intervals``."""
    total = 0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(starts: list[int], ends: list[int], parents: list[int]) -> list[int]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for i, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append((starts[i], ends[i]))
    return [
        (ends[i] - starts[i]) - covered(starts[i], ends[i], children.get(i, []))
        for i in range(len(starts))
    ]


@dataclass
class Target:
    """One wrapped attribute: ``owner.attr`` reported as ``name``."""

    owner: object
    attr: str
    name: str
    probe: object = None  # probe(tracer, args, result), runs after the call


@dataclass
class RepSummary:
    """What one repetition's spans add up to, per span name."""

    wall_ns: int
    calls: Counter = field(default_factory=Counter)
    self_ns: Counter = field(default_factory=Counter)
    total_ns: Counter = field(default_factory=Counter)
    counts: Counter = field(default_factory=Counter)


class Tracer:
    """Records (name, start, end, parent) for every call of each target."""

    ROOT = "bench.repetition"

    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()  # probe counters, reset per repetition
        self.seen: defaultdict = defaultdict(set)  # probe sets, counted by size per repetition
        self.open: Counter = Counter()  # span names currently on the stack
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _begin(self, name: str) -> int:
        index = len(self.starts)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(index)
        self.open[name] += 1
        self.starts.append(time.perf_counter_ns())
        return index

    def _end(self, index: int) -> None:
        self.ends[index] = time.perf_counter_ns()
        self._stack.pop()
        self.open[self.names[index]] -= 1

    def _wrap(self, fn, name: str, probe):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._end(index)
            if probe is not None:
                probe(tracer, args, result)
            return result

        return traced

    def install(self) -> None:
        for t in self.targets:
            original = getattr(t.owner, t.attr)
            self._originals.append((t.owner, t.attr, original))
            setattr(t.owner, t.attr, self._wrap(original, t.name, t.probe))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def repetition(self, body):
        """Run ``body()`` under one root span; return (result, RepSummary)."""
        first = len(self.starts)
        self.counts = Counter()
        self.seen = defaultdict(set)
        root = self._begin(self.ROOT)
        try:
            result = body()
        finally:
            self._end(root)
        return result, self.summarize(first, len(self.starts))

    def summarize(self, lo: int, hi: int) -> RepSummary:
        """Per-name calls, self and inclusive time of spans ``lo:hi``."""
        parents = [p - lo if p >= lo else -1 for p in self.parents[lo:hi]]
        own = self_times(self.starts[lo:hi], self.ends[lo:hi], parents)
        summary = RepSummary(wall_ns=self.ends[lo] - self.starts[lo], counts=Counter(self.counts))
        summary.counts.update({key: len(values) for key, values in self.seen.items()})
        for offset, name in enumerate(self.names[lo:hi]):
            summary.calls[name] += 1
            summary.self_ns[name] += own[offset]
            summary.total_ns[name] += self.ends[lo + offset] - self.starts[lo + offset]
        return summary

    def write(self, path) -> None:
        """One JSON line per span: name, start and end in ns from the first span, parent index."""
        origin = self.starts[0] if self.starts else 0
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent in zip(self.names, self.starts, self.ends, self.parents):
                handle.write(json.dumps([name, start - origin, end - origin, parent]) + "\n")
