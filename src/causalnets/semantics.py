"""Dependency-marking execution and reachability analysis.

A step is a nonempty set of transitions that are simultaneously enabled and
pairwise independent (disjoint presets and postsets).  Firing a step moves
tokens and extends each produced token's dependency set with the visible
label of its producing transition and with the dependencies of every token
that transition consumed; the invisible label is never recorded.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, combinations, product
from typing import Iterable, Sequence

from .model import (
    DEFAULT_STATE_LIMIT,
    TAU,
    DepToken,
    DependencyMarking,
    LabelledNet,
    NetError,
    UnknownElementError,
    _enabled,
    initial_dependency_marking,
)

DEFAULT_CYCLE_LIMIT = 10**4

Step = frozenset  # nonempty frozenset of transition ids


class NotEnabledError(NetError):
    """Raised when firing a step that is not enabled."""


class NotACycleError(NetError):
    """Raised when a marking/step sequence does not return to its start."""


class TruncatedGraphError(NetError):
    """Raised when an analysis needs a complete graph but got a partial one."""


class LimitExceededError(NetError):
    """Raised when exploration hits its state limit."""


def _as_step(net: LabelledNet, step: Iterable[str]) -> frozenset[str]:
    G = frozenset(step)
    if not G:
        raise ValueError("a step must contain at least one transition")
    unknown = G - net.transitions
    if unknown:
        raise UnknownElementError(f"unknown transitions in step: {sorted(unknown)}")
    return G


def _independent(net: LabelledNet, t: str, u: str) -> bool:
    return not (net._preset[t] & net._preset[u]) and not (net._postset[t] & net._postset[u])


def step_enabled(net: LabelledNet, marking: DependencyMarking, step: Iterable[str]) -> bool:
    """True when every member can fire from ``marking`` and no two conflict."""
    return plain_enabled(net, marking.places, step)


def fire_step(net: LabelledNet, marking: DependencyMarking, step: Iterable[str]) -> DependencyMarking:
    """Fire an enabled step, propagating token dependencies.

    Every token produced by a transition ``t`` depends on ``t``'s own label
    (unless invisible) plus everything the tokens consumed by ``t`` depended
    on.  Tokens on untouched places carry over unchanged.
    """
    G = _as_step(net, step)
    if not step_enabled(net, marking, G):
        raise NotEnabledError(f"step {sorted(G)} is not enabled")
    return _fire(net, marking, G)


def _fire(net: LabelledNet, marking: DependencyMarking, G: Iterable[str]) -> DependencyMarking:
    pre_g = frozenset(chain.from_iterable(net._preset[t] for t in G))
    tokens = {tok for tok in marking.tokens if tok.place not in pre_g}
    for t in G:
        pre = net._preset[t]
        deps = frozenset({net.labelling[t]} - {TAU})
        for tok in marking.tokens:
            if tok.place in pre:
                deps |= tok.deps
        for s in net._postset[t]:
            tokens.add(DepToken(s, deps))
    return DependencyMarking(frozenset(tokens))


def labelled_step(
    net: LabelledNet, marking: DependencyMarking, labels: Iterable[str]
) -> set[DependencyMarking]:
    """All successors under some step whose label multiset equals ``labels``."""
    want = Counter(labels)
    if not want:
        raise ValueError("label multiset must be nonempty")
    if TAU in want:
        raise ValueError("labelled steps range over visible labels only")
    pools = []
    for lab, count in sorted(want.items()):
        candidates = sorted(t for t in net.transitions if net.labelling[t] == lab)
        if len(candidates) < count:
            return set()
        pools.append(list(combinations(candidates, count)))
    out: set[DependencyMarking] = set()
    for pick in product(*pools):
        G = frozenset(chain.from_iterable(pick))
        if step_enabled(net, marking, G):
            out.add(fire_step(net, marking, G))
    return out


def _tau_closure(net: LabelledNet, markings: Iterable[DependencyMarking]) -> set[DependencyMarking]:
    taus = sorted(t for t in net.transitions if net.labelling[t] == TAU)
    seen = set(markings)
    stack = list(seen)
    while stack:
        m = stack.pop()
        for t in taus:
            g = frozenset((t,))
            if step_enabled(net, m, g):
                m2 = fire_step(net, m, g)
                if m2 not in seen:
                    seen.add(m2)
                    stack.append(m2)
    return seen


def weak_step(
    net: LabelledNet, marking: DependencyMarking, sigma: Sequence[str]
) -> set[DependencyMarking]:
    """Markings reachable by firing ``sigma`` with invisible steps in between.

    Each element of ``sigma`` is performed as a singleton visible step;
    arbitrary invisible steps may occur before, between, and after them.
    An empty ``sigma`` yields the invisible-step closure of ``marking``.
    """
    current = _tau_closure(net, {marking})
    for a in sigma:
        if a == TAU:
            raise ValueError("sequences range over visible labels only")
        step_results: set[DependencyMarking] = set()
        for m in current:
            step_results |= labelled_step(net, m, (a,))
        current = _tau_closure(net, step_results)
    return current


# --- plain-marking helpers (first projection of the token game) -------------


def plain_enabled(net: LabelledNet, marking: frozenset[str], step: Iterable[str]) -> bool:
    """True when every member can fire from the plain ``marking`` and no two conflict."""
    G = _as_step(net, step)
    return all(_enabled(net, marking, t) for t in G) and all(
        _independent(net, t, u) for t, u in combinations(sorted(G), 2)
    )


def plain_fire(net: LabelledNet, marking: frozenset[str], step: Iterable[str]) -> frozenset[str]:
    G = _as_step(net, step)
    if not plain_enabled(net, marking, G):
        raise NotEnabledError(f"step {sorted(G)} is not enabled")
    pre_g = frozenset(chain.from_iterable(net._preset[t] for t in G))
    post_g = frozenset(chain.from_iterable(net._postset[t] for t in G))
    return (marking - pre_g) | post_g


def enabled_steps(net: LabelledNet, marking) -> list[frozenset[str]]:
    """All enabled steps at ``marking``, in lexicographic order.

    Accepts a DependencyMarking or a plain marking.  Each step is a set of
    individually enabled, pairwise independent transitions; every nonempty
    subset of an enabled step is itself listed.
    """
    places = marking.places if isinstance(marking, DependencyMarking) else marking
    singles = [t for t in sorted(net.transitions) if _enabled(net, places, t)]
    out: list[frozenset[str]] = []

    def grow(prefix: list[str], rest: list[str]):
        for i, t in enumerate(rest):
            if all(_independent(net, t, u) for u in prefix):
                prefix.append(t)
                out.append(frozenset(prefix))
                grow(prefix, rest[i + 1:])
                prefix.pop()

    grow([], singles)
    return out


# --- reachability graphs -----------------------------------------------------


def state_bound(net: LabelledNet) -> int:
    """Upper bound on distinct dependency markings of a 1-safe net.

    Each place holds no token or one token depending on any subset of the
    visible labels, so the count is (2^|labels| + 1)^|places|.
    """
    return (2 ** len(net.visible_labels) + 1) ** len(net.places)


@dataclass(frozen=True, slots=True)
class ReachEdge:
    source: int
    step: frozenset[str]
    labels: tuple[str, ...]
    target: int


@dataclass
class ReachGraph:
    """Breadth-first closure of the initial marking.

    Nodes are dependency markings, or plain markings when built with
    ``dependency=False``.  Built with ``steps=True`` the edges record every
    enabled step, so the graph also carries the step-concurrency
    information; built with ``steps=False`` they record the interleavings:
    one edge per enabled transition.
    """

    dependency: bool
    nodes: list
    edges: list[ReachEdge]
    state_bound: int
    limit_exceeded: bool
    index: dict = field(repr=False)

    @property
    def root(self):
        return self.nodes[0]

    @property
    def bound_respected(self) -> bool:
        return len(self.nodes) <= self.state_bound

    def to_text(self) -> str:
        lines = []
        for i, node in enumerate(self.nodes):
            body = node.text() if self.dependency else " ; ".join(sorted(node))
            lines.append(f"node {i}: {body}" if body else f"node {i}:")
        for e in sorted(self.edges, key=lambda e: (e.source, e.target, tuple(sorted(e.step)))):
            ids = ",".join(sorted(e.step))
            labs = ",".join(e.labels)
            lines.append(f"edge {e.source} -[{ids}|{{{labs}}}]-> {e.target}")
        return "\n".join(lines) + "\n"


def explore_reachable(
    net: LabelledNet,
    dependency: bool = True,
    state_limit: int = DEFAULT_STATE_LIMIT,
    steps: bool = True,
) -> ReachGraph:
    """Build the reachability graph from the initial (dependency) marking.

    With ``steps`` every enabled step becomes an edge: up to 2^n - 1 edges
    at a node enabling n independent transitions.  Without it only the
    singleton steps do, taken in sorted transition order; every step can be
    fired as an interleaving of its members, so the same nodes are reached,
    numbered in the interleaving BFS order.

    Exploration stops once ``state_limit`` nodes exist; the partial graph is
    returned with ``limit_exceeded`` set, and edges into undiscovered nodes
    are dropped.
    """
    if state_limit < 1:
        raise ValueError("state_limit must be at least 1")
    pre, post = net._preset, net._postset
    root = initial_dependency_marking(net) if dependency else net.initial_marking
    nodes = [root]
    index = {root: 0}
    edges: list[ReachEdge] = []
    limit_exceeded = False

    def add_edge(i: int, g: frozenset[str], labels: tuple[str, ...], m2):
        nonlocal limit_exceeded
        j = index.get(m2)
        if j is None:
            if len(nodes) >= state_limit:
                limit_exceeded = True
                return
            j = len(nodes)
            nodes.append(m2)
            index[m2] = j
        edges.append(ReachEdge(i, g, labels, j))

    order = sorted(net.transitions)
    single = {t: (frozenset((t,)), (net.labelling[t],)) for t in order}
    for i, m in enumerate(nodes):  # the BFS queue: nodes are appended in discovery order
        places = m.places if dependency else m
        if not steps:
            for t in order:
                if _enabled(net, places, t):
                    g, labels = single[t]
                    add_edge(i, g, labels, _fire(net, m, g) if dependency else (m - pre[t]) | post[t])
        else:
            # Fire and record one step at a time rather than collecting the
            # successors first: a node of loops(12) enables 4095 steps.
            for g in enabled_steps(net, places):
                labels = tuple(sorted(net.labelling[t] for t in g))
                add_edge(i, g, labels, _fire(net, m, g) if dependency else m.difference(
                    *(pre[t] for t in g)).union(*(post[t] for t in g)))
    return ReachGraph(
        dependency=dependency,
        nodes=nodes,
        edges=edges,
        state_bound=state_bound(net),
        limit_exceeded=limit_exceeded,
        index=index,
    )


# --- cycle dependency property ----------------------------------------------


@dataclass(frozen=True)
class CycleViolation:
    """A transition on a reach-graph cycle whose produced tokens' dependency
    set differs from the dependencies of the tokens it consumed."""

    cycle: tuple[int, ...]
    transition: str


@dataclass(frozen=True)
class DependencyClass:
    """Transitions of a cycle grouped by the exact dependency set of the
    tokens they produced (or consumed, for transitions producing none)."""

    label_set: frozenset[str]
    transitions: frozenset[str]


def _simple_cycles(adjacency: dict[int, set[int]], n: int, limit: int) -> list[list[int]]:
    """Simple cycles as index lists whose first entry is the smallest node.

    Enumeration stops after ``limit`` cycles.
    """
    cycles: list[list[int]] = []
    for root in range(n):
        stack: list[tuple[list[int], set[int]]] = [([root], {root})]
        while stack:
            path, on_path = stack.pop()
            for nxt in sorted(adjacency.get(path[-1], ()), reverse=True):
                if nxt == root:
                    cycles.append(list(path))
                    if len(cycles) >= limit:
                        return cycles
                elif nxt > root and nxt not in on_path:
                    stack.append((path + [nxt], on_path | {nxt}))
    return cycles


def _firing_dep_sets(
    net: LabelledNet, marking: DependencyMarking, t: str
) -> tuple[list[frozenset[str]], frozenset[str] | None]:
    """Dependency sets of the tokens ``t`` consumes at ``marking`` and of the
    tokens it produces (None when the postset is empty)."""
    pre = net._preset[t]
    consumed = [tok.deps for tok in marking.tokens if tok.place in pre]
    if not net._postset[t]:
        return consumed, None
    produced = frozenset({net.labelling[t]} - {TAU}).union(*consumed) if consumed else frozenset(
        {net.labelling[t]} - {TAU}
    )
    return consumed, produced


def check_cycle_dependency(
    net: LabelledNet, graph: ReachGraph, cycle_limit: int = DEFAULT_CYCLE_LIMIT
) -> list[CycleViolation]:
    """Check every simple cycle of a dependency reach graph.

    On a cycle, a transition that produces tokens must produce them with
    exactly the dependency set carried by each token it consumed; for
    1-safe nets the returned list is empty.
    """
    if not graph.dependency:
        raise ValueError("a dependency reach graph is required")
    if graph.limit_exceeded:
        raise TruncatedGraphError("reach graph was truncated by its state limit")
    adjacency: dict[int, set[int]] = {}
    steps_between: dict[tuple[int, int], set[frozenset[str]]] = {}
    for e in graph.edges:
        adjacency.setdefault(e.source, set()).add(e.target)
        steps_between.setdefault((e.source, e.target), set()).add(e.step)
    violations: set[CycleViolation] = set()
    for cycle in _simple_cycles(adjacency, len(graph.nodes), cycle_limit):
        for k, i in enumerate(cycle):
            j = cycle[(k + 1) % len(cycle)]
            marking = graph.nodes[i]
            for step in steps_between[(i, j)]:
                for t in sorted(step):
                    consumed, produced = _firing_dep_sets(net, marking, t)
                    if produced is None:
                        continue
                    if any(deps != produced for deps in consumed):
                        violations.add(CycleViolation(tuple(cycle), t))
    return sorted(violations, key=lambda v: (v.cycle, v.transition))


def dependency_classes(
    net: LabelledNet, cycle: Sequence[tuple[DependencyMarking, Iterable[str]]]
) -> frozenset[DependencyClass]:
    """Group the transitions fired along a cycle by produced dependency set.

    ``cycle`` is a sequence of (marking, step) pairs where each step leads
    to the next pair's marking and the last step returns to the first.
    """
    items = [(m, _as_step(net, g)) for m, g in cycle]
    if not items:
        raise NotACycleError("empty sequence")
    for k, (m, g) in enumerate(items):
        try:
            successor = fire_step(net, m, g)
        except NotEnabledError as exc:
            raise NotACycleError(str(exc)) from exc
        expected = items[(k + 1) % len(items)][0]
        if successor != expected:
            raise NotACycleError(f"step {sorted(g)} does not lead to the next marking")
    groups: dict[frozenset[str], set[str]] = {}
    for m, g in items:
        for t in sorted(g):
            consumed, produced = _firing_dep_sets(net, m, t)
            if produced is None:
                produced = frozenset().union(*consumed) if consumed else frozenset()
            groups.setdefault(produced, set()).add(t)
    return frozenset(
        DependencyClass(label_set, frozenset(ts)) for label_set, ts in groups.items()
    )
