"""Span tracer that times ttdbeam's layers from outside.

Wrappers replace a function at the module (or class) attribute its caller
looks up, record one span per call (name, start, end, parent) in memory,
and are removed again when the traced region ends, so untraced rounds run
the program's own functions with nothing in between.  Spans nest by call
order, which is exact for the one-worker traced run.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

# (owner, attribute, span name).  The owner is the module or class whose
# attribute the calling code reads at call time.
TARGETS = (
    ("ttdbeam.dictionary", "_build_one", "dictionary.entry"),
    ("ttdbeam.dictionary", "jpta_approx", "solvers.fit"),
    ("ttdbeam.dictionary", "fold_delay_periods", "solvers.fold"),
    ("ttdbeam.hdb", "scale_shift", "rescale"),
    ("ttdbeam.hdb", "synthesize", "hdb.synthesize"),
    ("ttdbeam.hdb", "generator_set", "hdb.plan"),
    ("ttdbeam.hdb", "constant_direction_config", "hdb.const"),
    ("ttdbeam.dictionary:GeneratorDictionary", "lookup", "hdb.lookup"),
    ("ttdbeam.core:ArrayConfig", "__add__", "hdb.sum"),
    ("ttdbeam.solvers", "jpta_approx", "solvers.direct_fit"),
    ("ttdbeam.solvers", "ideal_split_precoder", "splitbeam.target"),
    ("ttdbeam.evaluation", "gain_at_directions", "core.gain"),
    ("ttdbeam.evaluation", "expand_directions", "splitbeam.expand"),
)

# Spans each phase must contain; a name with no span there means the
# program no longer calls that function on the phase's path.
EXPECTED = {
    "build": ("dictionary.entry", "solvers.fit", "solvers.fold", "rescale"),
    "synth": ("hdb.synthesize", "hdb.plan", "hdb.const", "hdb.lookup", "rescale", "hdb.sum"),
    "direct": ("solvers.direct_fit", "splitbeam.target"),
    "eval": ("hdb.synthesize", "core.gain", "splitbeam.expand"),
}


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Collects spans as (id, parent id or -1, name, start ns, end ns)."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = (sid, parent, name, start, end)

    def wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, name, start, end)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore the originals."""
        saved = []
        try:
            for path, attr, name in TARGETS:
                owner = _owner(path)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for sid, parent, name, start, end in self.spans:
                fh.write(f"{sid},{parent},{name},{start},{end}\n")


class SpanTable:
    """Durations and self times of recorded spans, grouped by the phase span they fall under.

    A phase span is a root span named ``phase.<phase>``.
    """

    def __init__(self, spans) -> None:
        n = len(spans)
        self.name = [s[2] for s in spans]
        self.dur = [s[4] - s[3] for s in spans]
        child = [0] * n
        self.phase = [""] * n
        for sid, parent, name, _, _ in spans:
            if parent < 0:
                self.phase[sid] = name.removeprefix("phase.")
            else:
                child[parent] += self.dur[sid]
                self.phase[sid] = self.phase[parent]
        self.self_time = [d - c for d, c in zip(self.dur, child)]
        self.overlapping = sum(1 for t in self.self_time if t < 0)  # children outlasting a parent
        self.by = defaultdict(list)  # (phase, name) -> span ids
        for sid in range(n):
            self.by[(self.phase[sid], self.name[sid])].append(sid)

    def count(self, phase: str, name: str) -> int:
        return len(self.by[(phase, name)])

    def total_ns(self, phase: str, name: str) -> int:
        return sum(self.dur[i] for i in self.by[(phase, name)])

    def mean_ns(self, phase: str, name: str) -> float:
        ids = self.by[(phase, name)]
        return sum(self.dur[i] for i in ids) / len(ids) if ids else 0.0

    def mean_self_ns(self, phase: str, name: str) -> float:
        ids = self.by[(phase, name)]
        return sum(self.self_time[i] for i in ids) / len(ids) if ids else 0.0

    def durations_ns(self, phase: str, name: str) -> list[int]:
        return [self.dur[i] for i in self.by[(phase, name)]]

    def self_sum_gap_ns(self, phase: str) -> int:
        """Phase span time minus the sum of self times of every span in the phase (0 when spans nest)."""
        roots = self.by[(phase, f"phase.{phase}")]
        in_phase = [i for i in range(len(self.name)) if self.phase[i] == phase]
        return sum(self.dur[i] for i in roots) - sum(self.self_time[i] for i in in_phase)

    def dead(self) -> list[str]:
        return [f"{phase}:{name}" for phase, names in EXPECTED.items()
                if self.by[(phase, f"phase.{phase}")]
                for name in names if not self.by[(phase, name)]]
