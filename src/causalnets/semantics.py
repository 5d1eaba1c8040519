"""Dependency-marking execution and reachability analysis.

A step is a nonempty set of transitions that are simultaneously enabled and
pairwise independent (disjoint presets and postsets).  Firing a step moves
tokens and extends each produced token's dependency set with the visible
label of its producing transition and with the dependencies of every token
that transition consumed; the invisible label is never recorded.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from itertools import chain, combinations, product
from typing import Iterable, Mapping, Sequence, TypeVar

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

T = TypeVar("T")


class NotEnabledError(NetError):
    """Raised when firing a step that is not enabled."""


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
    G = _as_step(net, step)
    return all(_enabled(net, marking.places, t) for t in G) and all(
        _independent(net, t, u) for t, u in combinations(sorted(G), 2)
    )


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


def _effect(
    net: LabelledNet, at: Mapping[str, DepToken], t: str
) -> tuple[frozenset[DepToken], frozenset[DepToken]]:
    """The tokens ``t`` takes from a marking whose token on each place is
    ``at[place]``, and the tokens it puts: one per postset place, depending
    on ``t``'s visible label and on everything the taken tokens depend on."""
    took = frozenset(at[p] for p in net._preset[t])
    deps = frozenset({net.labelling[t]} - {TAU}).union(*(tok.deps for tok in took))
    return took, frozenset(DepToken(s, deps) for s in net._postset[t])


def _fire(net: LabelledNet, marking: DependencyMarking, G: Iterable[str]) -> DependencyMarking:
    # The members are enabled and independent, so none takes what another puts.
    at = {tok.place: tok for tok in marking.tokens}
    tokens = marking.tokens
    for t in G:
        took, put = _effect(net, at, t)
        tokens = (tokens - took) | put
    return DependencyMarking(tokens)


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

    def fields(self) -> tuple[list[str], list[tuple[int, str, str, int]]]:
        """The node bodies by index and the edges as (source, step ids,
        labels, target) in output order, as ``to_text`` and the CLI's TSV
        rows print them."""
        if self.dependency:
            bodies = [node.text() for node in self.nodes]
        else:
            bodies = [" ; ".join(sorted(node)) for node in self.nodes]
        rows = sorted((e.source, e.target, sorted(e.step), e.labels) for e in self.edges)
        return bodies, [(s, ",".join(ids), ",".join(labs), t) for s, t, ids, labs in rows]

    def to_text(self) -> str:
        bodies, edges = self.fields()
        lines = [f"node {i}: {body}" if body else f"node {i}:" for i, body in enumerate(bodies)]
        lines += [f"edge {s} -[{ids}|{{{labs}}}]-> {t}" for s, ids, labs, t in edges]
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
    pre, post, label = net._preset, net._postset, net.labelling
    root = initial_dependency_marking(net) if dependency else net.initial_marking
    nodes = [root]
    # Successors are looked up by their token set; a DependencyMarking, and
    # with it the one-token-per-place check, is built only for a new node.
    seen = {root.tokens if dependency else root: 0}
    edges: list[ReachEdge] = []
    limit_exceeded = False

    def add_edge(i: int, g: frozenset[str], labels: tuple[str, ...], after: frozenset):
        nonlocal limit_exceeded
        j = seen.get(after)
        if j is None:
            if len(nodes) >= state_limit:
                limit_exceeded = True
                return
            j = seen[after] = len(nodes)
            nodes.append(DependencyMarking(after) if dependency else after)
        edges.append(ReachEdge(i, g, labels, j))

    order = sorted(net.transitions)
    single = {t: (frozenset((t,)), (label[t],)) for t in order}
    # The transitions after t in sorted order that are independent of t;
    # independence depends on the net alone.
    later = {
        t: frozenset(u for u in order[k + 1:] if _independent(net, t, u))
        for k, t in enumerate(order)
    } if steps else {}
    # What each enabled transition takes from a node and puts back (refilled
    # per node in dependency mode).  A step's members are independent and
    # enabled, so no member's postset meets another's preset: the step's
    # successor is the node less all taken plus all put tokens.
    effect = {} if dependency else {t: (pre[t], post[t]) for t in order}

    # The steps at node i in lexicographic order, recorded one at a time
    # rather than collected first: a node of loops(12) enables 4095 steps.
    def grow(i: int, members: list[str], labels: list[str], before: frozenset,
             candidates: list[str]):
        for k, t in enumerate(candidates):
            took, put = effect[t]
            after = (before - took) | put
            members.append(t)
            labels.append(label[t])
            add_edge(i, frozenset(members), tuple(sorted(labels)), after)
            independent = later[t]
            grow(i, members, labels, after, [u for u in candidates[k + 1:] if u in independent])
            members.pop()
            labels.pop()

    for i, m in enumerate(nodes):  # the BFS queue: nodes are appended in discovery order
        places = m.places if dependency else m
        tokens = m.tokens if dependency else m
        enabled = [t for t in order if _enabled(net, places, t)]
        if dependency:
            at = {tok.place: tok for tok in tokens}
            for t in enabled:
                effect[t] = _effect(net, at, t)
        if steps:
            grow(i, [], [], tokens, enabled)
        else:
            for t in enabled:
                took, put = effect[t]
                add_edge(i, *single[t], (tokens - took) | put)
    return ReachGraph(
        dependency=dependency,
        nodes=nodes,
        edges=edges,
        state_bound=state_bound(net),
        limit_exceeded=limit_exceeded,
        index=dict(zip(nodes, range(len(nodes)))) if dependency else seen,
    )


def _interleavings(net: LabelledNet, state_limit: int) -> ReachGraph:
    """The complete interleaving graph of plain markings, or
    LimitExceededError when it has more than ``state_limit`` nodes."""
    graph = explore_reachable(net, dependency=False, state_limit=state_limit, steps=False)
    if graph.limit_exceeded:
        raise LimitExceededError(f"more than {state_limit} reachable markings")
    return graph


# --- cycle dependency property ----------------------------------------------


@dataclass(frozen=True)
class CycleViolation:
    """A transition fired on a reach-graph cycle whose produced tokens'
    dependency set differs from the dependencies of a token it consumed.

    ``cycle`` lists distinct node indices; ``cycle[0] -> cycle[1]`` (a
    self-loop when ``cycle`` has one node) is the edge whose step contains
    ``transition``, and the remaining nodes lead back to ``cycle[0]`` along
    a shortest path.
    """

    cycle: tuple[int, ...]
    transition: str


def _shortest_path(adjacency: Mapping[T, Iterable[T]], start: T, goal: T) -> tuple[T, ...] | None:
    """A shortest path from ``start`` to ``goal``, both included, following
    neighbours in sorted order; None when ``goal`` is unreachable."""
    parent: dict = {start: None}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        if x == goal:
            path = [x]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            return tuple(reversed(path))
        for y in sorted(adjacency.get(x, ())):
            if y not in parent:
                parent[y] = x
                queue.append(y)
    return None


def check_cycle_dependency(net: LabelledNet, graph: ReachGraph) -> list[CycleViolation]:
    """Check every edge of a dependency reach graph that lies on a cycle.

    On a cycle, a transition that produces tokens must produce them with
    exactly the dependency set carried by each token it consumed.  The
    check is exact: an edge lies on a cycle exactly when its source is
    reachable from its target, so each edge is tested once and only an
    edge with a violating transition pays for one breadth-first search
    back to its source.  One violation is reported per edge and
    transition; for 1-safe nets the returned list is empty.
    """
    if not graph.dependency:
        raise ValueError("a dependency reach graph is required")
    if graph.limit_exceeded:
        raise TruncatedGraphError("reach graph was truncated by its state limit")
    adjacency: dict[int, set[int]] = {}
    for e in graph.edges:
        adjacency.setdefault(e.source, set()).add(e.target)
    violations: set[CycleViolation] = set()
    for e in graph.edges:
        at = {tok.place: tok for tok in graph.nodes[e.source].tokens}
        bad = []
        for t in sorted(e.step):
            took, put = _effect(net, at, t)
            if any(a.deps != b.deps for a in took for b in put):
                bad.append(t)
        if bad and (back := _shortest_path(adjacency, e.target, e.source)) is not None:
            violations.update(CycleViolation((e.source, *back[:-1]), t) for t in bad)
    return sorted(violations, key=lambda v: (v.cycle, v.transition))

