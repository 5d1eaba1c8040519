"""Spans around the library's public functions, installed from outside.

Nothing in ``src/`` knows about tracing.  ``Tracer.install`` replaces each
function in ``TRACED`` by a wrapper in every ``causalnets`` namespace that
holds it, because modules import some of them by name (``explore_reachable``
in ``distributability`` and ``equivalence``) and look others up in their own
globals (``canonicalize`` from ``visible_pomset``).  A span records its name,
start, end, parent span and job; spans stay in memory until the run ends.

A span runs from just before the call to just after it.  The wrapper's own
work around that (opening and closing the span, counting the result) is
timed too and kept apart from every layer, as the tracer's own time, so
that the layers' self times plus the tracer's time add up to the time of
the outermost calls.
"""

from __future__ import annotations

import gzip
import sys
import time
from collections import Counter

TRACED = (
    ("model", "parse_net"),
    ("model", "check_contact_free"),
    ("semantics", "explore_reachable"),
    ("semantics", "check_cycle_dependency"),
    ("distributability", "check_distributed"),
    ("distributability", "concurrency_relation"),
    ("distributability", "find_pure_m"),
    ("unfolding", "enumerate_processes"),
    ("unfolding", "visible_pomset"),
    ("unfolding", "canonicalize"),
    ("equivalence", "bounded_observation"),
    ("equivalence", "compare"),
    ("equivalence", "find_local_deadlock"),
    ("cli", "main"),
)
LAYERS = tuple(f"{module}.{name}" for module, name in TRACED)

NAME, START, END, PARENT, JOB, CHILDREN, OWN = range(7)


class Tracer:
    OWN = "trace"  # the key of the tracer's own time in ``self_ms``

    def __init__(self):
        # [name, start, end, parent, job, time in child wrappers, wrapper's own time]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = ""
        self.counts: Counter = Counter()
        self.job_nodes: list[int] = []  # explore_reachable node counts in the current job
        self.job_pomsets: set = set()  # distinct canonicalize results in the current job
        self._installed: list[tuple] = []

    def start_job(self, job_id: str):
        self.job = job_id
        self.job_nodes = []
        self.job_pomsets = set()

    def end_job(self):
        self.counts["unfolding.canonicalize.distinct"] += len(self.job_pomsets)

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "causalnets" or name.startswith("causalnets.")]
        for module, name in TRACED:
            original = getattr(sys.modules[f"causalnets.{module}"], name)
            wrapper = self._wrap(f"{module}.{name}", original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._installed.append((m, key, original))

    def uninstall(self):
        for m, key, original in reversed(self._installed):
            setattr(m, key, original)
        self._installed.clear()

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        count = getattr(self, "_count_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            entered = clock()
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, self.job, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            returned = False
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                span[END] = clock()
                stack.pop()
                if returned and count is not None:
                    count(result)
                left = clock()
                span[OWN] = span[START] - entered + left - span[END]
                if parent >= 0:
                    spans[parent][CHILDREN] += left - entered
            return result

        return wrapper

    def _count_semantics_explore_reachable(self, graph):
        self.counts["semantics.explore_reachable.nodes"] += len(graph.nodes)
        self.counts["semantics.explore_reachable.edges"] += len(graph.edges)
        self.job_nodes.append(len(graph.nodes))

    def _count_unfolding_enumerate_processes(self, entries):
        self.counts["unfolding.enumerate_processes.processes"] += len(entries)
        self.counts["unfolding.enumerate_processes.saturated"] += sum(e.saturated for e in entries)

    def _count_unfolding_canonicalize(self, pomset):
        self.counts["unfolding.canonicalize.calls"] += 1
        self.job_pomsets.add(pomset)

    def self_ms(self, first: int, last: int) -> dict[str, dict[str, float]]:
        """Self time per job and layer over spans[first:last], in ms: each
        span's duration minus the time its child wrappers take; the
        wrappers' own time under the key ``OWN``."""
        out: dict[str, dict[str, float]] = {}
        for span in self.spans[first:last]:
            layers = out.setdefault(span[JOB], {})
            layers[span[NAME]] = layers.get(span[NAME], 0.0) + (
                span[END] - span[START] - span[CHILDREN]) * 1e3
            layers[self.OWN] = layers.get(self.OWN, 0.0) + span[OWN] * 1e3
        return out

    def write(self, path):
        """All spans as gzipped TSV: name, start and end in microseconds,
        parent row, job."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            f.write("name\tstart_us\tend_us\tparent\tjob\n")
            t0 = self.spans[0][START] if self.spans else 0.0
            for s in self.spans:
                f.write(f"{s[NAME]}\t{(s[START] - t0) * 1e6:.1f}\t{(s[END] - t0) * 1e6:.1f}"
                        f"\t{s[PARENT]}\t{s[JOB]}\n")
