"""Shared oracles and random generators for the test suite.

The oracles here are deliberately independent re-implementations working
on raw tuples/sets, so they can cross-check the library without sharing
its code paths.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, permutations, product
from typing import Iterable, NamedTuple, Sequence

import causalnets as cn
from causalnets.model import DepToken, DependencyMarking
from causalnets.unfolding import Pomset, _bits

TAU = "tau"


# --- scalable nets ------------------------------------------------------------


def loops(n, label=None):
    """n independent self-loops: one marking, 2^n - 1 steps.  Invisible, or
    all labelled ``label``: then the processes are n chains of equal events."""
    ps, ts = ([f"{x}{i:02d}" for i in range(n)] for x in "pt")
    return cn.make_net(ps, ts, list(zip(ps, ts)) + list(zip(ts, ps)), ps,
                       {t: label for t in ts} if label else None)


def chain(n):
    """n invisible transitions in a line, p0 -> t0 -> p1 -> ... -> p<n>: no
    cycle, and every run ends after n events."""
    ps, ts = [f"p{i}" for i in range(n + 1)], [f"t{i}" for i in range(n)]
    return cn.make_net(ps, ts, list(zip(ps, ts)) + list(zip(ts, ps[1:])), ps[:1])


def chains(m):
    """m disjoint lines of two transitions, all labelled ``a``: the pomsets
    are up to m two-event chains, so many events share a colour."""
    ps = [f"{x}{i}" for i in range(m) for x in "pqr"]
    ts = [f"{x}{i}" for i in range(m) for x in "xy"]
    arcs = [arc for i in range(m) for arc in (
        (f"p{i}", f"x{i}"), (f"x{i}", f"q{i}"), (f"q{i}", f"y{i}"), (f"y{i}", f"r{i}"))]
    return cn.make_net(ps, ts, arcs, [f"p{i}" for i in range(m)], dict.fromkeys(ts, "a"))


def rings(k):
    """k independent rings of three invisible transitions."""
    ps = [f"r{j}_{i}" for j in range(k) for i in range(3)]
    ts = [f"u{j}_{i}" for j in range(k) for i in range(3)]
    arcs = [(f"r{j}_{i}", f"u{j}_{i}") for j in range(k) for i in range(3)]
    arcs += [(f"u{j}_{i}", f"r{j}_{(i + 1) % 3}") for j in range(k) for i in range(3)]
    return cn.make_net(ps, ts, arcs, [f"r{j}_0" for j in range(k)])


# --- direct transcription of the dependency-step rule ------------------------


def _pre(net, x):
    return {y for (y, z) in net.flow if z == x}


def _post(net, x):
    return {y for (z, y) in net.flow if z == x}


def oracle_step_enabled(net, tokens, step) -> bool:
    pr1 = {p for (p, _) in tokens}
    for t in step:
        if not _pre(net, t) <= pr1:
            return False
        if (pr1 - _pre(net, t)) & _post(net, t):
            return False
    for t in step:
        for u in step:
            if t == u:
                continue
            if _pre(net, t) & _pre(net, u):
                return False
            if _post(net, t) & _post(net, u):
                return False
    return True


def oracle_fire(net, tokens, step) -> set:
    pre_g = set()
    for t in step:
        pre_g |= _pre(net, t)
    out = {(p, deps) for (p, deps) in tokens if p not in pre_g}
    for t in step:
        deps = set()
        for (p, dd) in tokens:
            if p in _pre(net, t):
                deps |= set(dd)
        if net.labelling[t] != TAU:
            deps.add(net.labelling[t])
        for s in _post(net, t):
            out.add((s, frozenset(deps)))
    return out


def tokens_of(marking: DependencyMarking) -> set:
    return {(tok.place, tok.deps) for tok in marking.tokens}


def marking_of(tokens) -> DependencyMarking:
    return DependencyMarking(frozenset(DepToken(p, frozenset(d)) for p, d in tokens))


def deps_at(marking: DependencyMarking, place: str) -> frozenset[str] | None:
    """The dependencies of the token on ``place``; None when it holds none."""
    return next((tok.deps for tok in marking.tokens if tok.place == place), None)


def net_end(net: cn.LabelledNet) -> frozenset[str]:
    """Places without outgoing arcs."""
    return frozenset(s for s in net.places if not _post(net, s))


# --- brute-force isomorphism of labelled partial orders ----------------------


class NamedOrder(NamedTuple):
    """A labelled partial order on named vertices: ``labels`` maps each
    vertex to its label, ``below`` holds the strict, transitively closed
    precedence pairs.  Not validated; ``cn.canonicalize`` checks the order."""

    vertices: tuple
    labels: dict
    below: frozenset


def index_form(o: NamedOrder) -> tuple[list, list[tuple[int, int]]]:
    """The labels and order pairs of ``o``, its vertices numbered in listed order."""
    vertices, labels, below = o
    index = {v: i for i, v in enumerate(vertices)}
    return [labels[v] for v in vertices], [(index[u], index[v]) for u, v in below]


def canonical(o: NamedOrder) -> cn.Pomset:
    """``cn.canonicalize`` of ``o``, its vertices numbered in listed order."""
    return cn.canonicalize(*index_form(o))


def exhaustive_canonicalize(labels: Sequence[str], order: Iterable[tuple[int, int]]) -> Pomset:
    """Exact canonical form by colour refinement with individualisation,
    every leaf tried: ``cn.canonicalize`` with no automorphism pruning, the
    reference its pruned search must agree with.

    Vertex ``i`` has label ``labels[i]``; ``order`` holds the strict,
    transitively closed precedence pairs ``(u, v)`` of vertex indices, the
    form a Pomset prints.  Raises ValueError when it is not such an order.

    Vertices are iteratively partitioned by label, in/out degree, and
    neighbour colours; remaining symmetric vertices are broken by trying
    each member of the first ambiguous class and keeping the least
    resulting encoding.  Vertices with identical neighbourhoods are
    interchangeable and tried once.
    """
    n = len(labels)
    order = list(order)
    below = [0] * n  # below[v]: mask of the u with (u, v) in order
    above = [0] * n
    for u, v in order:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise ValueError(f"order pair ({u}, {v}) must be two distinct indices below {n}")
        below[v] |= 1 << u
        above[u] |= 1 << v
    for u, v in order:
        if below[u] & ~below[v]:
            raise ValueError("order must be transitively closed and acyclic")

    def dense(keys: list) -> list[int]:
        rank = {k: r for r, k in enumerate(sorted(set(keys)))}
        return [rank[k] for k in keys]

    # longest-chain depth leads the initial colouring, so the canonical
    # numbering is always a linear extension of the order; every pair into
    # u comes from a vertex of lower in-degree, so depth[u] is final first
    indeg = [m.bit_count() for m in below]
    depth = [0] * n
    for u, v in sorted(order, key=lambda pair: indeg[pair[0]]):
        if depth[u] >= depth[v]:
            depth[v] = depth[u] + 1
    initial = dense([(depth[i], labels[i], indeg[i], above[i].bit_count()) for i in range(n)])
    pred = [list(_bits(m)) for m in below]
    succ = [list(_bits(m)) for m in above]

    def refine(colors: list[int]) -> list[int]:
        while True:
            keys = [
                (colors[i],
                 tuple(sorted(colors[j] for j in pred[i])),
                 tuple(sorted(colors[j] for j in succ[i])))
                for i in range(n)
            ]
            new = dense(keys)
            if new == colors:
                return colors
            colors = new

    def encode(colors: list[int]):
        ranked = sorted(range(n), key=colors.__getitem__)
        position = dict(zip(ranked, range(n)))
        labs = tuple(labels[i] for i in ranked)
        pairs = tuple(sorted((position[u], position[v]) for u in range(n) for v in succ[u]))
        return labs, pairs

    best = None

    def search(colors: list[int]):
        nonlocal best
        colors = refine(colors)
        classes: dict[int, list[int]] = {}
        for i, c in enumerate(colors):
            classes.setdefault(c, []).append(i)
        target = next((classes[c] for c in sorted(classes) if len(classes[c]) > 1), None)
        if target is None:
            enc = encode(colors)
            if best is None or enc < best:
                best = enc
            return
        tried = set()
        for v in target:
            twin = (below[v], above[v])
            if twin in tried:
                continue
            tried.add(twin)
            branch = list(colors)
            branch[v] = n
            search(branch)

    search(initial)
    labs, pairs = best
    return Pomset(labels=labs, order=pairs)


def visible_index_form(process: cn.Process) -> tuple[tuple[str, ...], frozenset]:
    """The labels of the process's visible events in ascending prefix order
    and the order pairs between their indices, read from ``prefix.past``."""
    prefix = process.prefix
    visible = list(_bits(process.config & prefix.visible))
    index = {e: i for i, e in enumerate(visible)}
    labels = tuple(prefix.net.labelling[prefix.trans[e]] for e in visible)
    pairs = frozenset((index[u], index[v]) for v in visible for u in visible
                      if prefix.past[v] >> u & 1)
    return labels, pairs


def discrete_colouring(labels, pairs) -> bool:
    """Whether the initial colouring (longest-chain depth, label, in-degree,
    out-degree) of the order gives every vertex its own colour."""
    below = [{u for u, w in pairs if w == v} for v in range(len(labels))]

    def depth(v):
        return max((depth(u) + 1 for u in below[v]), default=0)

    colours = {(depth(v), labels[v], len(below[v]), sum(u == v for u, _ in pairs))
               for v in range(len(labels))}
    return len(colours) == len(labels)


def brute_force_iso(o1: NamedOrder, o2: NamedOrder) -> bool:
    if len(o1.vertices) != len(o2.vertices):
        return False
    by_label1: dict = {}
    by_label2: dict = {}
    for v in o1.vertices:
        by_label1.setdefault(o1.labels[v], []).append(v)
    for v in o2.vertices:
        by_label2.setdefault(o2.labels[v], []).append(v)
    if {k: len(v) for k, v in by_label1.items()} != {k: len(v) for k, v in by_label2.items()}:
        return False
    labels = sorted(by_label1)
    below1, below2 = set(o1.below), set(o2.below)
    for pick in product(*(permutations(by_label2[lab]) for lab in labels)):
        phi = {}
        for lab, perm in zip(labels, pick):
            phi.update(zip(by_label1[lab], perm))
        if all(
            ((u, v) in below1) == ((phi[u], phi[v]) in below2)
            for u in o1.vertices
            for v in o1.vertices
        ):
            return True
    return False


def random_lpo(rng: random.Random, max_n=8, labels=("a", "b", "c")) -> NamedOrder:
    n = rng.randint(0, max_n)
    verts = tuple(f"v{i}" for i in range(n))
    labs = {v: rng.choice(labels) for v in verts}
    below = set()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.3:
                below.add((verts[i], verts[j]))
    changed = True
    while changed:
        changed = False
        for (u, v) in list(below):
            for (x, y) in list(below):
                if v == x and (u, y) not in below:
                    below.add((u, y))
                    changed = True
    return NamedOrder(verts, labs, frozenset(below))


def shuffled_copy(rng: random.Random, o: NamedOrder) -> NamedOrder:
    names = [f"w{i}" for i in range(len(o.vertices))]
    rng.shuffle(names)
    phi = dict(zip(o.vertices, names))
    return NamedOrder(
        tuple(sorted(names)),
        {phi[v]: o.labels[v] for v in o.vertices},
        frozenset((phi[u], phi[v]) for (u, v) in o.below),
    )


# --- random nets --------------------------------------------------------------


def random_net(
    rng: random.Random, max_places=4, max_transitions=4, labels=("a", "b", "c"), tau_prob=0.35
) -> cn.LabelledNet:
    n_p = rng.randint(1, max_places)
    n_t = rng.randint(1, max_transitions)
    places = [f"p{i}" for i in range(n_p)]
    transitions = [f"t{i}" for i in range(n_t)]
    flow = set()
    labelling = {}
    for t in transitions:
        for s in rng.sample(places, rng.randint(1, min(2, n_p))):
            flow.add((s, t))
        for s in rng.sample(places, rng.randint(0, min(2, n_p))):
            flow.add((t, s))
        labelling[t] = TAU if rng.random() < tau_prob else rng.choice(labels)
    marking = [p for p in places if rng.random() < 0.6]
    return cn.make_net(places, transitions, flow, marking, labelling)


def random_contact_free_nets(seed: int, count: int, **kwargs) -> list[cn.LabelledNet]:
    rng = random.Random(seed)
    out: list[cn.LabelledNet] = []
    while len(out) < count:
        net = random_net(rng, **kwargs)
        if cn.check_contact_free(net, 10**4).ok:
            out.append(net)
    return out


def random_tractable_nets(
    seed: int, count: int, k=3, event_limit=12, process_cap=1500, **kwargs
) -> list[cn.LabelledNet]:
    """Seeded contact-free nets whose process spaces (and those of all their
    refinements) stay below ``process_cap`` at the given bound.

    Invisible transitions chained through shared places can yield process
    counts exponential in the event budget; such nets are rejected so that
    corpus-wide observation checks stay at desk scale.
    """
    rng = random.Random(seed)
    out: list[cn.LabelledNet] = []
    while len(out) < count:
        net = random_net(rng, **kwargs)
        if not cn.check_contact_free(net, 10**4).ok:
            continue
        try:
            cn.enumerate_processes(net, k, event_limit, process_limit=process_cap)
            for t in sorted(net.transitions):
                refined, _ = cn.refine_transition(net, t)
                cn.enumerate_processes(refined, k, event_limit, process_limit=process_cap)
        except cn.LimitExceededError:
            continue
        out.append(net)
    return out


def random_dep_marking(rng: random.Random, net: cn.LabelledNet) -> DependencyMarking:
    labels = sorted(net.visible_labels)
    tokens = set()
    for p in sorted(net.places):
        if rng.random() < 0.7:
            deps = frozenset(lab for lab in labels if rng.random() < 0.4)
            tokens.add((p, deps))
    return marking_of(tokens)


# --- brute-force behavioural oracles ------------------------------------------


def enabled_steps(net: cn.LabelledNet, marking) -> list[frozenset[str]]:
    """Every enabled step at a DependencyMarking or a plain marking: the
    nonempty subsets of the transitions, in sorted-tuple order, that pass
    ``oracle_step_enabled``."""
    places = marking.places if isinstance(marking, DependencyMarking) else marking
    tokens = {(p, frozenset()) for p in places}
    order = sorted(net.transitions)
    subsets = sorted(g for r in range(1, len(order) + 1) for g in combinations(order, r))
    return [frozenset(g) for g in subsets if oracle_step_enabled(net, tokens, g)]


def brute_force_step_graph(net: cn.LabelledNet, dependency: bool, limit: int):
    """The step reachability graph, firing every step ``enabled_steps``
    lists at every node with ``oracle_fire``.

    Subsets are tried in sorted-tuple order and nodes numbered in BFS order;
    once ``limit`` nodes exist, edges into new nodes are dropped.  Returns
    ``(nodes, edges, limit_exceeded)``: nodes are token sets, or place sets
    when not ``dependency``; edges are (source, step, labels, target).
    """
    root = frozenset((p, frozenset()) for p in net.initial_marking)
    nodes = [root if dependency else frozenset(net.initial_marking)]
    index = {nodes[0]: 0}
    edges = []
    exceeded = False
    for i, m in enumerate(nodes):
        tokens = m if dependency else {(p, frozenset()) for p in m}
        for step in enabled_steps(net, frozenset(p for p, _ in tokens)):
            after = frozenset(oracle_fire(net, tokens, step))
            if not dependency:
                after = frozenset(p for p, _ in after)
            if after not in index:
                if len(nodes) >= limit:
                    exceeded = True
                    continue
                index[after] = len(nodes)
                nodes.append(after)
            labels = tuple(sorted(net.labelling[t] for t in step))
            edges.append((i, step, labels, index[after]))
    return nodes, edges, exceeded


def _fires(net, m, t) -> bool:
    """The refusing firing rule at the plain marking ``m``, read from ``net.flow``."""
    return _pre(net, t) <= m and not ((m - _pre(net, t)) & _post(net, t))


def reachable_depths(net: cn.LabelledNet) -> dict[frozenset, int]:
    """The plain markings reachable with the refusing firing rule, grown one
    firing at a time: each mapped to the length of its shortest firing
    sequence."""
    depth = {frozenset(net.initial_marking): 0}
    level = list(depth)
    while level:
        following = []
        for m in level:
            for t in net.transitions:
                m2 = frozenset((m - _pre(net, t)) | _post(net, t))
                if _fires(net, m, t) and m2 not in depth:
                    depth[m2] = depth[m] + 1
                    following.append(m2)
        level = following
    return depth


def brute_force_contact_free(net: cn.LabelledNet):
    """Explicit reachable marking sets, searched for a contact."""
    reachable = set(reachable_depths(net))
    for m in reachable:
        for t in sorted(net.transitions):
            if _pre(net, t) <= m and (m - _pre(net, t)) & _post(net, t):
                return False, reachable
    return True, reachable


def oracle_concurrency_pairs(net: cn.LabelledNet) -> frozenset[frozenset[str]]:
    """Distinct t and u with disjoint presets and disjoint postsets that are
    both enabled at one reachable marking."""
    reachable = reachable_depths(net)
    return frozenset(
        frozenset((t, u)) for t, u in combinations(sorted(net.transitions), 2)
        if not (_pre(net, t) & _pre(net, u) or _post(net, t) & _post(net, u))
        and any(_fires(net, m, t) and _fires(net, m, u) for m in reachable)
    )


def oracle_pure_m(net: cn.LabelledNet) -> dict[tuple[str, str, str], int]:
    """The pure M triples in sorted order, each mapped to the least BFS depth
    of a reachable marking covering its joint preset: ``left < right`` share
    a preset place with ``middle`` and none with each other."""
    depth = reachable_depths(net)
    pre = {t: _pre(net, t) for t in net.transitions}
    out = {}
    for left, middle, right in permutations(sorted(net.transitions), 3):
        if left < right and pre[left] & pre[middle] and pre[middle] & pre[right] and not (
                pre[left] & pre[right]):
            need = pre[left] | pre[middle] | pre[right]
            covering = [d for m, d in depth.items() if need <= m]
            if covering:
                out[left, middle, right] = min(covering)
    return dict(sorted(out.items()))


def all_partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in all_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def brute_force_distributable(net: cn.LabelledNet) -> bool:
    pairs = oracle_concurrency_pairs(net)
    elements = sorted(net.places | net.transitions)
    for part in all_partitions(elements):
        loc = {x: i for i, block in enumerate(part) for x in block}
        if any(loc[t] != loc[s] for t in net.transitions for s in _pre(net, t)):
            continue
        if any(loc[t] == loc[u] for pair in pairs for t, u in [tuple(pair)]):
            continue
        return True
    return False


def brute_force_processes(net: cn.LabelledNet, k: int, event_limit: int) -> list[dict]:
    """Processes with at most ``k`` visible and ``event_limit`` events, from
    firing sequences alone.

    An event is named by its transition and, per input place, the event
    that produced the token it consumes there (None for an initial token);
    an input-less event by its transition and the number of its earlier
    occurrences.  A firing sequence collapses to the set of its event names,
    which also fixes the tokens it leaves, so each set is extended once.
    Returns, per process, its event and visible counts, ``maximal`` (no
    transition enabled at the end), ``saturated`` (an extension within the
    visible bound was cut by ``event_limit``), the sorted transitions, and
    the visible order as ``(vertices, labels, below)``.
    """
    pre = {t: _pre(net, t) for t in net.transitions}
    post = {t: _post(net, t) for t in net.transitions}

    def visible(name):
        return net.labelling[name[0]] != TAU

    tokens_of: dict[frozenset, dict] = {}  # event set -> place -> producer name
    stack = [(frozenset(), {p: None for p in net.initial_marking})]
    while stack:
        events, tokens = stack.pop()
        if events in tokens_of:
            continue
        tokens_of[events] = tokens
        if len(events) >= event_limit:
            continue
        seen_visible = sum(map(visible, events))
        for t in net.transitions:
            if not pre[t] <= tokens.keys() or (net.labelling[t] != TAU and seen_visible >= k):
                continue
            if pre[t]:
                name = (t, frozenset((p, tokens[p]) for p in pre[t]))
            else:
                name = (t, sum(1 for e in events if e[0] == t))
            after = {p: x for p, x in tokens.items() if p not in pre[t]}
            after.update((s, name) for s in post[t])
            stack.append((events | {name}, after))

    pasts: dict = {}

    def past(name) -> set:
        if name not in pasts:
            pasts[name] = set()
            if isinstance(name[1], frozenset):
                for _, producer in name[1]:
                    if producer is not None:
                        pasts[name] |= {producer} | past(producer)
        return pasts[name]

    processes = []
    for events, tokens in tokens_of.items():
        n_visible = sum(map(visible, events))
        enabled = [t for t in net.transitions if pre[t] <= tokens.keys()]
        shown = [e for e in events if visible(e)]
        processes.append({
            "events": len(events),
            "visible": n_visible,
            "maximal": not enabled,
            "saturated": len(events) >= event_limit and any(
                net.labelling[t] == TAU or n_visible < k for t in enabled
            ),
            "transitions": tuple(sorted(e[0] for e in events)),
            "lpo": (
                tuple(shown),
                {e: net.labelling[e[0]] for e in shown},
                {(u, v) for v in shown for u in past(v) if visible(u)},
            ),
        })
    return processes


def brute_force_divergent(net: cn.LabelledNet, k: int) -> bool:
    """Whether a plain marking reachable with at most ``k`` visible firings
    lies on a cycle of invisible firings.  Transitions fire one at a time
    with ``oracle_fire``, where ``oracle_step_enabled`` allows them."""
    moves: dict = {}  # marking -> [(visible, marking after)], one per firing

    def successors(m):
        if m not in moves:
            tokens = {(p, frozenset()) for p in m}
            moves[m] = [(net.labelling[t] != TAU,
                         frozenset(p for p, _ in oracle_fire(net, tokens, (t,))))
                        for t in sorted(net.transitions)
                        if oracle_step_enabled(net, tokens, (t,))]
        return moves[m]

    reached = {(frozenset(net.initial_marking), 0)}
    stack = list(reached)
    while stack:
        m, fired = stack.pop()  # fired: the visible firings so far
        for visible, after in successors(m):
            state = (after, fired + visible)
            if state[1] <= k and state not in reached:
                reached.add(state)
                stack.append(state)
    for start in {m for m, _ in reached}:
        found = set()
        stack = [start]
        while stack:
            for visible, after in successors(stack.pop()):
                if visible or after in found:
                    continue
                if after == start:
                    return True
                found.add(after)
                stack.append(after)
    return False


def simple_cycles(graph: cn.ReachGraph):
    """Every simple cycle of a reach graph, with no cap, as a tuple of node
    indices that starts at the cycle's smallest node (a generator)."""
    succ: dict = {}
    for e in graph.edges:
        succ.setdefault(e.source, set()).add(e.target)
    for root in range(len(graph.nodes)):
        stack = [(root,)]
        while stack:
            path = stack.pop()
            for nxt in succ.get(path[-1], ()):
                if nxt == root:
                    yield path
                elif nxt > root and nxt not in path:
                    stack.append(path + (nxt,))


def brute_force_cycle_violations(net: cn.LabelledNet, graph: cn.ReachGraph) -> set:
    """``(source, target, transition)`` for every edge on some simple cycle
    whose step holds a transition that produces tokens with a dependency set
    other than that of a token it consumes, recomputed from the tokens."""
    on_cycle = set()
    for cycle in simple_cycles(graph):
        on_cycle.update(zip(cycle, cycle[1:] + cycle[:1]))
    out = set()
    for e in graph.edges:
        if (e.source, e.target) not in on_cycle:
            continue
        tokens = tokens_of(graph.nodes[e.source])
        for t in e.step:
            if not _post(net, t):
                continue
            consumed = [set(deps) for (p, deps) in tokens if p in _pre(net, t)]
            produced = set().union(*consumed)
            if net.labelling[t] != TAU:
                produced.add(net.labelling[t])
            if any(deps != produced for deps in consumed):
                out.add((e.source, e.target, t))
    return out


class NotACycleError(cn.NetError):
    """Raised when a marking/step sequence does not return to its start."""


@dataclass(frozen=True)
class DependencyClass:
    """Transitions of a cycle grouped by the exact dependency set of the
    tokens they produced (or consumed, for transitions producing none)."""

    label_set: frozenset[str]
    transitions: frozenset[str]


def dependency_classes(net: cn.LabelledNet, cycle) -> frozenset[DependencyClass]:
    """Group the transitions fired along a cycle by produced dependency set.

    ``cycle`` is a sequence of (marking, step) pairs where each step leads
    to the next pair's marking and the last step returns to the first.
    """
    items = [(m, frozenset(g)) for m, g in cycle]
    if not items:
        raise NotACycleError("empty sequence")
    for k, (m, g) in enumerate(items):
        try:
            successor = cn.fire_step(net, m, g)
        except cn.NotEnabledError as exc:
            raise NotACycleError(str(exc)) from exc
        if successor != items[(k + 1) % len(items)][0]:
            raise NotACycleError(f"step {sorted(g)} does not lead to the next marking")
    groups: dict[frozenset[str], set[str]] = {}
    for m, g in items:
        for t in g:
            produced = set().union(*(deps for (p, deps) in tokens_of(m) if p in _pre(net, t)))
            if _post(net, t) and net.labelling[t] != TAU:
                produced.add(net.labelling[t])
            groups.setdefault(frozenset(produced), set()).add(t)
    return frozenset(DependencyClass(labels, frozenset(ts)) for labels, ts in groups.items())


# --- distribution/chain validity ----------------------------------------------


def assert_valid_distribution(net: cn.LabelledNet, verdict) -> None:
    dist = verdict.distribution
    assert dist is not None and verdict.chain is None
    loc = dist.location_of
    assert set(loc) == set(net.places | net.transitions)
    for t in net.transitions:
        for s in cn.preset(net, t):
            assert loc[t] == loc[s]
    for pair in cn.concurrency_relation(net).pairs:
        t, u = tuple(pair)
        assert loc[t] != loc[u]


def assert_valid_chain(net: cn.LabelledNet, verdict) -> None:
    chain = verdict.chain
    assert chain is not None and verdict.distribution is None
    assert frozenset((chain[0], chain[-1])) in cn.concurrency_relation(net).pairs
    for a, b in zip(chain, chain[1:]):
        assert cn.preset(net, a) & cn.preset(net, b)


# --- plain token game and the occurrence-net view of a process --------------


def plain_enabled(net: cn.LabelledNet, marking: frozenset, step) -> bool:
    """True when every member of ``step`` can fire from the plain ``marking``
    without putting a second token on a place, and no two members share an
    input or an output place."""
    step = sorted(step)
    pre, post = net._preset, net._postset
    return all(pre[t] <= marking and not (marking - pre[t]) & post[t] for t in step) and all(
        not (pre[t] & pre[u]) and not (post[t] & post[u]) for t, u in combinations(step, 2)
    )


def plain_fire(net: cn.LabelledNet, marking: frozenset, step) -> frozenset:
    if not plain_enabled(net, marking, step):
        raise cn.NotEnabledError(f"step {sorted(step)} is not enabled")
    consumed = set().union(*(net._preset[t] for t in step))
    produced = set().union(*(net._postset[t] for t in step))
    return (marking - consumed) | produced


def _replay(process: cn.Process) -> tuple[list[tuple], dict[int, list[tuple]]]:
    """The process's conditions, each a pair (producer event or None, place),
    and per event the conditions it consumes.  The events are replayed in
    ascending prefix order, a causal order, from the initial conditions:
    each consumes the condition on every place of its preset.  ValueError
    when one finds a preset place empty or a postset place full."""
    net = process.prefix.net
    cut = {place: (None, place) for place in sorted(net.initial_marking)}
    conds = list(cut.values())
    consumed = {}
    for e in _bits(process.config):
        t = process.prefix.trans[e]
        if not net._preset[t] <= cut.keys() or (cut.keys() - net._preset[t]) & net._postset[t]:
            raise ValueError(f"event e{e + 1} ({t}) cannot fire at its cut")
        consumed[e] = [cut.pop(place) for place in sorted(net._preset[t])]
        for place in sorted(net._postset[t]):
            cut[place] = (e, place)
            conds.append((e, place))
    return conds, consumed


# Events ``e<i>`` are named after their prefix ids, conditions ``c<i>_<place>``
# after their producer ``e<i>`` (``c0_<place>`` for an initial one) and place.


def _cond(c: tuple) -> str:
    e, place = c
    return f"c{0 if e is None else e + 1}_{place}"


def conditions(process: cn.Process) -> tuple[str, ...]:
    return tuple(map(_cond, _replay(process)[0]))


def events(process: cn.Process) -> tuple[str, ...]:
    """Event names in creation order, which is a causal order."""
    return tuple(f"e{e + 1}" for e in _bits(process.config))


def event_trans(process: cn.Process) -> dict[str, str]:
    return {f"e{e + 1}": process.prefix.trans[e] for e in _bits(process.config)}


def producer(process: cn.Process) -> dict:
    return {_cond(c): None if c[0] is None else f"e{c[0] + 1}" for c in _replay(process)[0]}


def fold(process: cn.Process) -> dict[str, str]:
    """Conditions to the places and events to the transitions they fold onto."""
    merged = {_cond(c): c[1] for c in _replay(process)[0]}
    merged.update(event_trans(process))
    return merged


def occ_net(process: cn.Process) -> cn.LabelledNet:
    """The process as an occurrence net labelled like the original net."""
    conds, consumed = _replay(process)
    flow = {(_cond(c), f"e{e + 1}") for e, taken in consumed.items() for c in taken}
    flow.update((f"e{c[0] + 1}", _cond(c)) for c in conds if c[0] is not None)
    trans = event_trans(process)
    return cn.LabelledNet(
        places=frozenset(map(_cond, conds)),
        transitions=frozenset(trans),
        flow=frozenset(flow),
        initial_marking=frozenset(_cond(c) for c in conds if c[0] is None),
        labelling={e: process.prefix.net.labelling[t] for e, t in trans.items()},
    )


def validate_process(net: cn.LabelledNet, process: cn.Process) -> None:
    """Check that the process is an occurrence net folding onto ``net``, and
    that its prefix keeps each event's causal past: the events before the
    conditions it consumes, and their producers."""
    validate_occurrence_net(net, occ_net(process), fold(process))
    past: dict[int, int] = {}
    for e, taken in _replay(process)[1].items():  # ascending, producers first
        past[e] = 0
        for u, _ in taken:
            if u is not None:
                past[e] |= past[u] | 1 << u
        if past[e] != process.prefix.past[e]:
            raise ValueError(f"event e{e + 1} has the wrong past")


def validate_occurrence_net(net: cn.LabelledNet, occ: cn.LabelledNet, folding: dict) -> None:
    """Check every occurrence-net clause of ``occ`` and every clause of its
    folding onto ``net``; raise ValueError if any fails."""
    for c in occ.places:
        if len(occ._preset[c]) > 1 or len(occ._postset[c]) > 1:
            raise ValueError(f"condition {c} is branching")
        if (c in occ.initial_marking) != (not occ._preset[c]):
            raise ValueError(f"condition {c} must be initial iff it has no producer")
    # acyclicity by Kahn's algorithm: a cycle keeps its nodes' in-degrees
    # above zero, so they are never removed
    indegree = {x: len(occ._preset[x]) for x in occ.places | occ.transitions}
    ready = [x for x, d in indegree.items() if d == 0]
    removed = 0
    while ready:
        x = ready.pop()
        removed += 1
        for y in occ._postset[x]:
            indegree[y] -= 1
            if indegree[y] == 0:
                ready.append(y)
    if removed != len(indegree):
        raise ValueError("occurrence net has a cycle")
    for c in occ.places:
        if folding[c] not in net.places:
            raise ValueError(f"condition {c} folds outside the net's places")
    for e in occ.transitions:
        if folding[e] not in net.transitions:
            raise ValueError(f"event {e} folds outside the net's transitions")
        if occ.labelling[e] != net.labelling[folding[e]]:
            raise ValueError(f"event {e} disagrees with its transition's label")
        for kind, conds, reference in (
            ("preset", occ._preset[e], net._preset[folding[e]]),
            ("postset", occ._postset[e], net._postset[folding[e]]),
        ):
            folded = [folding[c] for c in conds]
            if len(set(folded)) != len(folded) or set(folded) != reference:
                raise ValueError(f"event {e} {kind} does not match transition {folding[e]}")
    initial_folds = [folding[c] for c in occ.initial_marking]
    if len(set(initial_folds)) != len(initial_folds):
        raise ValueError("folding is not injective on the initial conditions")
    if set(initial_folds) != set(net.initial_marking):
        raise ValueError("initial conditions do not match the initial marking")


# --- bounded observation through processes ------------------------------------


def process_observation(net: cn.LabelledNet, k: int, event_limit: int | None = None,
                        process_limit: int | None = None) -> cn.BoundedObservation:
    """``bounded_observation`` from every process: ``enumerate_processes``
    builds each one and ``visible_pomsets`` reads its visible set."""
    entries = cn.enumerate_processes(net, k, event_limit, process_limit)
    shown = [e for e in entries if e.maximal or e.process.visible_count == k]
    complete: set = set()
    partial: set = set()
    for entry, pomset in zip(shown, cn.visible_pomsets(e.process for e in shown)):
        (complete if entry.maximal else partial).add(pomset)
    divergent = any(e.saturated for e in entries)
    return cn.BoundedObservation(frozenset(complete), frozenset(partial), k, divergent)


def eager_compare(obs_a: cn.BoundedObservation,
                  obs_b: cn.BoundedObservation) -> cn.EquivalenceVerdict:
    """``compare``'s documented rule on two whole observations at one bound:
    the first differing category, complete before partial before divergence,
    and in it the least pomset on one side only."""
    for kind in ("complete", "partial"):
        left, right = getattr(obs_a, kind), getattr(obs_b, kind)
        if left != right:
            pomset = min(left ^ right)
            side = "left" if pomset in left else "right"
            return cn.EquivalenceVerdict(False, obs_a.bound, cn.Witness(pomset, side, kind))
    if obs_a.divergent != obs_b.divergent:
        side = "left" if obs_a.divergent else "right"
        return cn.EquivalenceVerdict(False, obs_a.bound,
                                     cn.Witness(cn.Pomset((), ()), side, "divergence"))
    return cn.EquivalenceVerdict(True, obs_a.bound)


# --- misc ----------------------------------------------------------------------


def process_of_run(net: cn.LabelledNet, transitions) -> cn.Process:
    process = cn.initial_process(net)
    for t in transitions:
        process = cn.extend_process(net, process, t)
        assert process is not None, f"run blocked at {t}"
    return process


def lpo_from(labels, order) -> NamedOrder:
    """A NamedOrder from explicit labels and index pairs, closed transitively."""
    verts = tuple(f"x{i}" for i in range(len(labels)))
    closed = set((verts[u], verts[v]) for u, v in order)
    changed = True
    while changed:
        changed = False
        for (u, v) in list(closed):
            for (x, y) in list(closed):
                if v == x and (u, y) not in closed:
                    closed.add((u, y))
                    changed = True
    return NamedOrder(verts, dict(zip(verts, labels)), frozenset(closed))


def pomset(labels, order) -> cn.Pomset:
    """Canonical pomset from explicit labels and index pairs."""
    return canonical(lpo_from(labels, order))


def ac_ordered_pairs(p: cn.Pomset):
    """Index pairs of p ordering an a-event against a c-event (either way)."""
    return [
        (u, v) for (u, v) in p.order if {p.labels[u], p.labels[v]} == {"a", "c"}
    ]
