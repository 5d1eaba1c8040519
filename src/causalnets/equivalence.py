"""Bounded completed-pomset comparison and local-deadlock detection.

Two nets are compared through the visible pomsets of their processes up to
a visible-event bound: pomsets of quiescent (maximal) processes must match,
as must the pomsets of still-running processes holding exactly the bounded
number of visible events, and neither net may diverge where the other does
not.  Verdicts are always relative to the bound.
"""

from __future__ import annotations

from typing import NamedTuple

from .model import DEFAULT_STATE_LIMIT, TAU, LabelledNet
from .semantics import explore_reachable
from .unfolding import Pomset, _observe

__all__ = (
    "BoundedObservation", "EquivalenceVerdict", "LocalDeadlockWitness", "Witness",
    "bounded_observation", "compare", "find_local_deadlock",
)


class BoundedObservation(NamedTuple):
    """What a net shows at visible-event bound ``bound``.

    ``complete`` holds pomsets of maximal processes (at most ``bound``
    visible events); ``partial`` holds pomsets of non-maximal processes with
    exactly ``bound`` visible events; ``divergent`` reports whether a cycle
    of invisible firings is reachable within the bound, or under an event
    limit whether the limit cut off some branch instead of quiescence.
    """

    complete: frozenset[Pomset]
    partial: frozenset[Pomset]
    bound: int
    divergent: bool


class Witness(NamedTuple):
    """A pomset present on one side only (``side`` is ``left`` or ``right``),
    in the named category.  For a divergence mismatch the pomset is empty and
    ``side`` names the diverging net."""

    pomset: Pomset
    side: str
    kind: str


class EquivalenceVerdict(NamedTuple):
    equivalent: bool
    bound: int
    witness: Witness | None = None


class LocalDeadlockWitness(NamedTuple):
    """A hidden step that permanently disabled a visible label.

    After firing ``trace`` from the initial marking the net sits at
    ``marking``; the trace's last transition is invisible, ``dead_label``
    was enabled immediately before it, no marking reachable from ``marking``
    enables it again, and every label in ``live_labels`` still is enabled
    somewhere reachable."""

    trace: tuple[str, ...]
    marking: frozenset[str]
    dead_label: str
    live_labels: frozenset[str]


def bounded_observation(
    net: LabelledNet, k: int, event_limit: int | None = None
) -> BoundedObservation:
    """Collect the complete and partial pomsets of a net at bound ``k``,
    from a search over states that builds no process: all of its finitely
    many states, or with an ``event_limit`` those within that many events."""
    pomsets, divergent = _observe(net, k, event_limit)
    return BoundedObservation(pomsets(True), pomsets(False), k, divergent)


def compare(
    net_a: LabelledNet, net_b: LabelledNet, k: int, event_limit: int | None = None
) -> EquivalenceVerdict:
    """Compare two nets' bounded observations.

    The verdict is equivalent-at-bound when the complete sets, the partial
    sets, and the divergence flags (exact with no ``event_limit``) coincide;
    otherwise the witness comes from the first differing category (complete
    before partial before divergence) and is the least differing pomset.
    Both searches run first, ``net_a``'s first; the partial pomsets are
    built only when the complete sets agree.
    """
    pomsets_a, divergent_a = _observe(net_a, k, event_limit)
    pomsets_b, divergent_b = _observe(net_b, k, event_limit)
    for kind, maximal in (("complete", True), ("partial", False)):
        left, right = pomsets_a(maximal), pomsets_b(maximal)
        if left != right:
            pomset = min(left ^ right)
            side = "left" if pomset in left else "right"
            return EquivalenceVerdict(False, k, Witness(pomset, side, kind))
    if divergent_a != divergent_b:
        side = "left" if divergent_a else "right"
        return EquivalenceVerdict(False, k, Witness(Pomset((), ()), side, "divergence"))
    return EquivalenceVerdict(True, k)


def find_local_deadlock(
    net: LabelledNet, state_limit: int = DEFAULT_STATE_LIMIT
) -> list[LocalDeadlockWitness]:
    """Find hidden steps after which a previously enabled visible label can
    never fire again while some other visible label still can.

    Works on the interleaving graph of plain markings, one edge per enabled
    transition: a label is live from a marking when some reachable marking
    enables a transition carrying it.  Only invisible firings count as
    disabling steps; losing an action to a visible alternative is ordinary
    conflict resolution, not a deadlock.
    """
    graph = explore_reachable(net, False, state_limit, steps=False)
    n = len(graph.nodes)
    predecessors: list[list[int]] = [[] for _ in range(n)]
    enabled_labels: list[set[str]] = [set() for _ in range(n)]
    # The first edge into a node is the one that discovered it: a BFS tree.
    parent: list[tuple[int, str] | None] = [None] * n
    for e in graph.edges:  # in BFS order, each node's in sorted transition order
        (t,) = e.step
        predecessors[e.target].append(e.source)
        if net.labelling[t] != TAU:
            enabled_labels[e.source].add(net.labelling[t])
        if e.target and parent[e.target] is None:
            parent[e.target] = (e.source, t)
    live = _live_labels(predecessors, enabled_labels)

    def trace_to(i: int) -> tuple[str, ...]:
        steps: list[str] = []
        while parent[i] is not None:
            i, t = parent[i]
            steps.append(t)
        return tuple(reversed(steps))

    # Each (marking, dead label) keeps the witness with the least
    # (len(trace), trace), where the trace is trace_to(i) + (t,).  BFS
    # numbers nodes by depth, and within one depth in the order of their
    # traces, so the first edge in (i, t) order is that witness.
    best: dict[tuple[int, str], tuple[int, str]] = {}
    for e in graph.edges:
        (t,), i, j = e.step, e.source, e.target
        if net.labelling[t] == TAU and live[j]:
            for x in enabled_labels[i] - live[j]:
                best.setdefault((j, x), (i, t))
    witnesses = [
        LocalDeadlockWitness(
            trace=trace_to(i) + (t,), marking=graph.nodes[j], dead_label=x, live_labels=live[j]
        )
        for (j, x), (i, t) in best.items()
    ]
    return sorted(witnesses, key=lambda w: (len(w.trace), w.trace, w.dead_label))


def _live_labels(
    predecessors: list[list[int]], enabled_labels: list[set[str]]
) -> list[frozenset[str]]:
    """For every node, the labels enabled at some node reachable from it:
    one backward search per label from the nodes that enable it."""
    live: list[set[str]] = [set() for _ in predecessors]
    for x in set().union(*enabled_labels):
        stack = [i for i, labels in enumerate(enabled_labels) if x in labels]
        for i in stack:
            live[i].add(x)
        while stack:
            for i in predecessors[stack.pop()]:
                if x not in live[i]:
                    live[i].add(x)
                    stack.append(i)
    return [frozenset(labels) for labels in live]
