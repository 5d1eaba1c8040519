"""Shared oracles and random generators for the test suite.

The oracles here are deliberately independent re-implementations working
on raw tuples/sets, so they can cross-check the library without sharing
its code paths.
"""

from __future__ import annotations

import random
from itertools import permutations, product

import causalnets as cn
from causalnets.model import DepToken, DependencyMarking

TAU = "tau"


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


# --- brute-force LPO isomorphism ---------------------------------------------


def brute_force_iso(o1: cn.LPO, o2: cn.LPO) -> bool:
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


def random_lpo(rng: random.Random, max_n=8, labels=("a", "b", "c")) -> cn.LPO:
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
    return cn.LPO(verts, labs, frozenset(below))


def shuffled_copy(rng: random.Random, o: cn.LPO) -> cn.LPO:
    names = [f"w{i}" for i in range(len(o.vertices))]
    rng.shuffle(names)
    phi = dict(zip(o.vertices, names))
    return cn.LPO(
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


def brute_force_contact_free(net: cn.LabelledNet):
    """Fixpoint over explicit marking sets with the refusing firing rule."""
    reachable = {frozenset(net.initial_marking)}
    changed = True
    while changed:
        changed = False
        for m in list(reachable):
            for t in net.transitions:
                if _pre(net, t) <= m and not ((m - _pre(net, t)) & _post(net, t)):
                    m2 = frozenset((m - _pre(net, t)) | _post(net, t))
                    if m2 not in reachable:
                        reachable.add(m2)
                        changed = True
    for m in reachable:
        for t in sorted(net.transitions):
            if _pre(net, t) <= m and (m - _pre(net, t)) & _post(net, t):
                return False, reachable
    return True, reachable


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
    conc = cn.concurrency_relation(net)
    elements = sorted(net.places | net.transitions)
    for part in all_partitions(elements):
        loc = {x: i for i, block in enumerate(part) for x in block}
        if any(loc[t] != loc[s] for t in net.transitions for s in cn.preset(net, t)):
            continue
        if any(loc[t] == loc[u] for pair in conc.pairs for t, u in [tuple(pair)]):
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
    the visible LPO as ``(vertices, labels, below)``.
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


# --- misc ----------------------------------------------------------------------


def process_of_run(net: cn.LabelledNet, transitions) -> cn.Process:
    process = cn.initial_process(net)
    for t in transitions:
        process = cn.extend_process(net, process, t)
        assert process is not None, f"run blocked at {t}"
    return process


def lpo_from(labels, order) -> cn.LPO:
    """LPO from explicit labels and index pairs, closed transitively."""
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
    return cn.LPO(verts, dict(zip(verts, labels)), frozenset(closed))


def pomset(labels, order) -> cn.Pomset:
    """Canonical pomset from explicit labels and index pairs."""
    return cn.canonicalize(lpo_from(labels, order))


def ac_ordered_pairs(p: cn.Pomset):
    """Index pairs of p ordering an a-event against a c-event (either way)."""
    return [
        (u, v) for (u, v) in p.order if {p.labels[u], p.labels[v]} == {"a", "c"}
    ]
