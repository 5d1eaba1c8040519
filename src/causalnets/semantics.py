"""Dependency-marking execution and reachability analysis.

A step is a nonempty set of transitions that are simultaneously enabled and
pairwise independent (disjoint presets and postsets).  Firing a step moves
tokens and extends each produced token's dependency set with the visible
label of its producing transition and with the dependencies of every token
that transition consumed; the invisible label is never recorded.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from itertools import chain, combinations, product
from typing import Iterable, Mapping, NamedTuple, Sequence, TypeVar

from .model import (
    DEFAULT_STATE_LIMIT,
    TAU,
    DependencyMarking,
    LabelledNet,
    NetError,
    UnknownElementError,
)

__all__ = (
    "CycleViolation", "LimitExceededError", "NotEnabledError", "ReachEdge", "ReachGraph",
    "check_cycle_dependency", "explore_reachable", "fire_step", "labelled_step", "state_bound",
    "step_enabled", "weak_step",
)

T = TypeVar("T")


class NotEnabledError(NetError):
    """Raised when firing a step that is not enabled."""


class LimitExceededError(NetError):
    """Raised when an analysis passes its state or process limit; the
    message names the limit."""


def _as_step(net: LabelledNet, step: Iterable[str]) -> frozenset[str]:
    G = frozenset(step)
    if not G:
        raise ValueError("a step must contain at least one transition")
    unknown = G - net.transitions
    if unknown:
        raise UnknownElementError(f"unknown transitions in step: {sorted(unknown)}")
    return G


def _enabled(table, code: int, G: frozenset[str]) -> bool:
    """Whether every member of ``G`` may fire at ``code`` and no two conflict."""
    fireable = {t for t, contact, _ in table.covered(code) if not contact}
    return G <= fireable and all(u in table.later[t] for t, u in combinations(sorted(G), 2))


def _after(table, code: int, G: Iterable[str]) -> int:
    """The code after firing the enabled step ``G`` at ``code``."""
    for t in G:  # the members are independent, so none takes what another puts
        took, put = table.effect(code, t)
        code = code - took | put
    return code


def _labelled(table, code: int, want: Mapping[str, int]) -> set[int]:
    """The codes after each step enabled at ``code`` whose label multiset is ``want``."""
    fireable = [t for t, contact, _ in table.covered(code) if not contact]
    pools = [combinations([t for t in fireable if table.labelling[t] == lab], count)
             for lab, count in want.items()]
    steps = (sorted(chain.from_iterable(pick)) for pick in product(*pools))
    return {_after(table, code, G) for G in steps
            if all(u in table.later[t] for t, u in combinations(G, 2))}


def step_enabled(net: LabelledNet, marking: DependencyMarking, step: Iterable[str]) -> bool:
    """True when every member can fire from ``marking`` and no two conflict."""
    G = _as_step(net, step)
    return _enabled(net._table, net._table.encode(marking), G)


def fire_step(net: LabelledNet, marking: DependencyMarking, step: Iterable[str]) -> DependencyMarking:
    """Fire an enabled step, propagating token dependencies.

    Every token produced by a transition ``t`` depends on ``t``'s own label
    (unless invisible) plus everything the tokens consumed by ``t`` depended
    on.  Tokens on untouched places carry over unchanged.
    """
    G = _as_step(net, step)
    table = net._table
    code = table.encode(marking)
    if not _enabled(table, code, G):
        raise NotEnabledError(f"step {sorted(G)} is not enabled")
    return table.decode(_after(table, code, G))


def labelled_step(
    net: LabelledNet, marking: DependencyMarking, labels: Iterable[str]
) -> set[DependencyMarking]:
    """All successors under some step whose label multiset equals ``labels``."""
    want = Counter(labels)
    if not want:
        raise ValueError("label multiset must be nonempty")
    if TAU in want:
        raise ValueError("labelled steps range over visible labels only")
    table = net._table
    return {table.decode(code) for code in _labelled(table, table.encode(marking), want)}


def weak_step(
    net: LabelledNet, marking: DependencyMarking, sigma: Sequence[str]
) -> set[DependencyMarking]:
    """Markings reachable by firing ``sigma`` with invisible steps in between.

    Each element of ``sigma`` is performed as a singleton visible step;
    arbitrary invisible steps may occur before, between, and after them.
    An empty ``sigma`` yields the invisible-step closure of ``marking``.
    """
    table = net._table

    def closed(codes: set[int]) -> set[int]:
        """``codes`` and every code invisible steps reach from them."""
        stack = list(codes)
        while stack:
            new = _labelled(table, stack.pop(), {TAU: 1}) - codes
            codes |= new
            stack += new
        return codes

    current = closed({table.encode(marking)})
    for a in sigma:
        if a == TAU:
            raise ValueError("sequences range over visible labels only")
        current = closed({after for code in current for after in _labelled(table, code, {a: 1})})
    return {table.decode(code) for code in current}


# --- reachability graphs -----------------------------------------------------


def state_bound(net: LabelledNet) -> int:
    """Upper bound on distinct dependency markings of a 1-safe net.

    Each place holds no token or one token depending on any subset of the
    visible labels, so the count is (2^|labels| + 1)^|places|.
    """
    return (2 ** len(net.visible_labels) + 1) ** len(net.places)


class ReachEdge(NamedTuple):
    """Firing ``step``, its transitions as a sorted tuple, leads from ``source`` to ``target``."""

    source: int
    step: tuple[str, ...]
    target: int


class ReachGraph(NamedTuple):
    """Breadth-first closure of the initial marking.

    Nodes are dependency markings, or plain markings when built with
    ``dependency=False``.  Built with ``steps=True`` the edges record every
    enabled step, so the graph also carries the step-concurrency
    information; built with ``steps=False`` they record the interleavings:
    one edge per enabled transition.  ``labelling`` is the net's, read for
    the labels of an edge's step.  Its fields cannot be reassigned.
    """

    dependency: bool
    nodes: list
    edges: list[ReachEdge]
    state_bound: int
    limit_exceeded: bool
    labelling: Mapping[str, str]

    @property
    def root(self):
        return self.nodes[0]

    @property
    def bound_respected(self) -> bool:
        return len(self.nodes) <= self.state_bound

    def fields(self) -> tuple[list[str], list[tuple[int, str, str, int]]]:
        """The node bodies by index and the edges as (source, step ids,
        sorted labels, target) in output order, as ``to_text`` and the CLI's
        TSV rows print them."""
        if self.dependency:
            bodies = [node.text() for node in self.nodes]
        else:
            bodies = [" ; ".join(sorted(node)) for node in self.nodes]
        # Each distinct step's sorted labels are built once, keyed by its ids:
        # a string keeps its hash, so a new step is hashed once, not twice.
        labelling, shown, rows = self.labelling, {}, []
        for i, j, g in sorted((e.source, e.target, e.step) for e in self.edges):
            ids = ",".join(g)
            if (labels := shown.get(ids)) is None:
                labels = shown[ids] = ",".join(sorted([labelling[t] for t in g]))
            rows.append((i, ids, labels, j))
        return bodies, rows

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

    With ``steps`` every step ``fire_step`` accepts becomes an edge: up to
    2^n - 1 edges at a node enabling n independent transitions.  Once
    ``state_limit`` nodes exist, edges into new nodes are dropped and the
    partial graph is returned with ``limit_exceeded`` set.

    Without ``steps`` this is the interleaving search: each transition whose
    preset a node covers, in sorted order, is a singleton-step edge; every
    step fires as an interleaving of its members, so the same nodes are
    reached, in BFS order.  It stops with ContactError at the first
    transition in contact, or with LimitExceededError at the first node past
    ``state_limit``.
    """
    if state_limit < 1:
        raise ValueError("state_limit must be at least 1")
    table = net._table
    # Nodes are dependency codes or place masks, the root's alike, until decoded at the end.
    root = table.mask(net.initial_marking)
    nodes = [root]
    seen = {root: 0}
    edges: list[ReachEdge] = []
    get, append = seen.get, edges.append
    new_edge = partial(tuple.__new__, ReachEdge)  # skips the named tuple's Python-level __new__
    limit_exceeded = False

    def add_node(after: int) -> int | None:
        nonlocal limit_exceeded
        if len(nodes) >= state_limit:
            if not steps:
                raise LimitExceededError(f"state limit {state_limit} exceeded")
            limit_exceeded = True
            return None
        j = seen[after] = len(nodes)
        nodes.append(after)
        return j

    later = table.later if steps else {}
    # What each enabled transition takes and puts: fixed place masks, or per node
    # ``table.effect``'s.  A step's members are independent and enabled, so none puts
    # on another's preset: the successor is the node less all taken plus all put.
    effect = {t: move[2:4] for t, move in table.moves.items()}

    # The steps at node i, as sorted tuples in lexicographic order, recorded
    # one at a time rather than collected first: loops(12) has 4095 at a node.
    def grow(i: int, g: tuple[str, ...], before: int, candidates: list[str]):
        last = len(candidates) - 1
        for k, t in enumerate(candidates):
            took, put = effect[t]
            after = before - took | put
            step = g + (t,)
            j = get(after)
            if j is None:
                j = add_node(after)
            if j is not None:
                append(new_edge((i, step, j)))
            if k < last and (rest := [*filter(later[t].__contains__, candidates[k + 1:])]):
                grow(i, step, after, rest)

    for i, code in enumerate(nodes):  # the BFS queue: nodes are appended in discovery order
        covered = table.covered(code)
        if dependency:
            effect = {t: table.effect(code, t) for t, contact, _ in covered if not contact}
        if steps:
            grow(i, (), code, [t for t, contact, _ in covered if not contact])
            continue
        for t, contact, _ in covered:
            if contact:
                raise table.contact(t, contact, code)
            took, put = effect[t]
            after = code - took | put
            j = get(after)
            append(new_edge((i, (t,), add_node(after) if j is None else j)))
    nodes = [table.decode(m) if dependency else table.marking(m) for m in nodes]
    return ReachGraph(
        dependency=dependency,
        nodes=nodes,
        edges=edges,
        state_bound=state_bound(net),
        limit_exceeded=limit_exceeded,
        labelling=net.labelling,
    )


# --- cycle dependency property ----------------------------------------------


class CycleViolation(NamedTuple):
    """A transition fired on a reach-graph cycle whose produced tokens'
    dependency set differs from the dependencies of a token it consumed.

    ``cycle`` lists distinct node indices; ``cycle[0] -> cycle[1]`` (a
    self-loop when ``cycle`` has one node) is the edge whose step contains
    ``transition``, and the remaining nodes lead back to ``cycle[0]`` along
    a shortest path.
    """

    cycle: tuple[int, ...]
    transition: str


def _bfs_tree(adjacency: Mapping[T, Iterable[T]], start: T) -> dict[T, T | None]:
    """The breadth-first tree from ``start``, following neighbours in sorted
    order: each node reachable from ``start`` mapped to its parent, and
    ``start`` to None."""
    parent: dict = {start: None}
    queue = [start]
    for x in queue:  # the BFS queue: nodes are appended in discovery order
        for y in sorted(adjacency.get(x, ())):
            if y not in parent:
                parent[y] = x
                queue.append(y)
    return parent


def _path(tree: Mapping[T, T | None], goal: T) -> tuple[T, ...]:
    """The path in ``tree`` from its root to ``goal``, both included: a
    shortest one from the root."""
    path = [goal]
    while (x := tree[path[-1]]) is not None:
        path.append(x)
    return tuple(reversed(path))


def check_cycle_dependency(net: LabelledNet, graph: ReachGraph) -> list[CycleViolation]:
    """Check every edge of a dependency reach graph that lies on a cycle.

    On a cycle, a transition that produces tokens must produce them with
    exactly the dependency set carried by each token it consumed.  The
    check is exact: an edge lies on a cycle exactly when its source is
    reachable from its target.  Each (node, transition) is tested once,
    however many steps contain it, and each target of an edge with a
    violating transition pays for one breadth-first search, whose tree
    gives the path back to every such edge's source.  One violation is
    reported per edge and transition; for 1-safe nets the returned list is
    empty.  A partial graph raises LimitExceededError.
    """
    if not graph.dependency:
        raise ValueError("a dependency reach graph is required")
    if graph.limit_exceeded:
        raise LimitExceededError("state limit exceeded; the reach graph is partial")
    adjacency: dict[int, set[int]] = {}
    for e in graph.edges:
        adjacency.setdefault(e.source, set()).add(e.target)
    table, nodes, codes = net._table, graph.nodes, {}  # codes: source -> its code, once needed
    flagged: dict[tuple[int, str], bool] = {}  # (node, transition) -> violates
    bad: dict[int, set[tuple[int, str]]] = {}  # target -> (source, violating transition)
    for e in graph.edges:
        for t in e.step:
            if (e.source, t) not in flagged:
                flagged[e.source, t] = not table.keeps(t, nodes, e.source, codes)
            if flagged[e.source, t]:
                bad.setdefault(e.target, set()).add((e.source, t))
    violations = []
    for target, firings in bad.items():
        tree = _bfs_tree(adjacency, target)
        violations += [CycleViolation((source, *_path(tree, source)[:-1]), t)
                       for source, t in firings if source in tree]
    return sorted(violations, key=lambda v: (v.cycle, v.transition))

