"""Differential tests for the two successor relations of explore_reachable.

The step graph must equal the one built by trying every subset of
transitions with the oracle firing rule, node for node and edge for edge.
On a contact-free net the interleaving graph (``steps=False``) must reach
exactly the markings of the step graph and carry exactly its singleton
edges.  The interleaving search must stop where the contact search written
with its own inline firing rule stops: at the first contact or the first
marking past the limit.  ``check_contact_free``, a reading of that search,
and the marking verdicts built on it must decide as that search does.
"""

import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import causalnets as cn

from helpers import brute_force_step_graph, random_contact_free_nets, random_net, tokens_of


def old_contact_search(net, state_limit):
    """The contact-freeness search as it was written before it shared the
    enabledness predicate: the first contact, or the first marking past the
    limit, in BFS order over sorted transitions decides."""
    order = sorted(net.transitions)
    seen = {net.initial_marking}
    queue = deque([net.initial_marking])
    while queue:
        m = queue.popleft()
        for t in order:
            pre = cn.preset(net, t)
            if not pre <= m:
                continue
            post = cn.postset(net, t)
            if (m - pre) & post:
                return cn.ContactVerdict("violation", marking=m, transition=t)
            m2 = (m - pre) | post
            if m2 not in seen:
                if len(seen) >= state_limit:
                    return cn.ContactVerdict("limit_exceeded")
                seen.add(m2)
                queue.append(m2)
    return cn.ContactVerdict("contact_free")


def contact_verdict(net, state_limit):
    """``check_contact_free``, with its LimitExceededError read as the
    ContactVerdict ``old_contact_search`` returns for it."""
    try:
        return cn.check_contact_free(net, state_limit)
    except cn.LimitExceededError:
        return cn.ContactVerdict("limit_exceeded")


def corpus():
    rng = random.Random(4471)
    drawn = [random_net(rng, max_places=5, max_transitions=5, tau_prob=0.5) for _ in range(40)]
    return (
        [cn.builtin(name) for name in cn.BUILTIN_NAMES]
        + random_contact_free_nets(seed=11, count=25, max_places=5, max_transitions=5)
        + [net for net in drawn if not cn.check_contact_free(net).ok]
    )


NETS = corpus()

# t would put a second token on q; the blocking rule leaves t disabled
ITEM10 = cn.parse_net(
    "place p *\nplace q *\nplace r *\ntrans t : a\ntrans u : b\n"
    "arc p -> t\narc t -> q\narc r -> u\n"
)
CONTACT_NETS = [net for net in NETS if not cn.check_contact_free(net).ok] + [ITEM10]


def labelled_edges(net, graph):
    return {
        (graph.nodes[e.source], e.step, tuple(sorted(net.labelling[t] for t in e.step)),
         graph.nodes[e.target])
        for e in graph.edges
    }


def interleaving_search(net, limit, dependency=False):
    """The graph ``explore_reachable(steps=False)`` returns, or its refusal
    as the ContactVerdict it stands for."""
    try:
        return cn.explore_reachable(net, dependency, limit, steps=False)
    except cn.ContactError as exc:
        return cn.ContactVerdict("violation", marking=exc.marking, transition=exc.transition)
    except cn.LimitExceededError:
        return cn.ContactVerdict("limit_exceeded")


def test_corpus_has_both_kinds():
    assert sum(not cn.check_contact_free(net).ok for net in NETS) >= 10


def test_step_graph_matches_brute_force():
    rng = random.Random(8)
    for net in NETS:
        for dependency in (False, True):
            reachable = len(brute_force_step_graph(net, dependency, 10**6)[0])
            for limit in sorted({1, reachable, reachable + 1, rng.randint(1, reachable + 1)}):
                nodes, edges, exceeded = brute_force_step_graph(net, dependency, limit)
                graph = cn.explore_reachable(net, dependency=dependency, state_limit=limit)
                assert [frozenset(tokens_of(m)) if dependency else m for m in graph.nodes] == nodes
                assert [
                    (e.source, frozenset(e.step), tuple(sorted(net.labelling[t] for t in e.step)),
                     e.target)
                    for e in graph.edges
                ] == edges
                assert all(
                    type(e.step) is tuple and all(t < u for t, u in zip(e.step, e.step[1:]))
                    for e in graph.edges
                )
                assert graph.limit_exceeded == exceeded == (reachable > limit)


def test_same_nodes_and_singleton_edges():
    for net in NETS:
        verdict = cn.check_contact_free(net)
        for dependency in (False, True):
            steps = cn.explore_reachable(net, dependency=dependency)
            single = interleaving_search(net, 10**6, dependency)
            if not verdict.ok:
                assert single == verdict
                continue
            assert single.nodes[0] == steps.nodes[0]
            assert set(single.nodes) == set(steps.nodes)
            assert labelled_edges(net, single) == {
                edge for edge in labelled_edges(net, steps) if len(edge[1]) == 1
            }


def test_interleaving_nodes_in_bfs_order():
    for net in NETS:
        verdict = cn.check_contact_free(net)
        if not verdict.ok:
            assert interleaving_search(net, 10**6) == verdict
            continue
        graph = cn.explore_reachable(net, dependency=False, steps=False)
        first_seen = [0]
        for e in graph.edges:
            if e.target >= len(first_seen):
                assert e.target == len(first_seen)
                first_seen.append(e.source)
        assert first_seen == sorted(first_seen)
        assert [e.source for e in graph.edges] == sorted(e.source for e in graph.edges)
        for i in range(len(graph.nodes)):
            ts = [next(iter(e.step)) for e in graph.edges if e.source == i]
            assert ts == sorted(ts)


def test_limit_agrees_at_random_limits():
    rng = random.Random(5)
    for net in NETS:
        reachable = len(cn.explore_reachable(net, dependency=False).nodes)
        for limit in {1, reachable, reachable + 1, rng.randint(1, reachable + 1)}:
            steps = cn.explore_reachable(net, dependency=False, state_limit=limit)
            single = interleaving_search(net, limit)
            assert steps.limit_exceeded == (reachable > limit)
            assert len(steps.nodes) == min(limit, reachable)
            if not cn.check_contact_free(net).ok:
                assert single == old_contact_search(net, limit)
            elif reachable > limit:
                assert single == cn.ContactVerdict("limit_exceeded")
            else:
                assert len(single.nodes) == reachable


def test_interleaving_search_stops_where_old_search_does():
    for net in NETS + [ITEM10]:
        reachable = len(cn.explore_reachable(net, dependency=False).nodes)
        for limit in range(1, reachable + 2):
            old = old_contact_search(net, limit)
            single = interleaving_search(net, limit)
            if old.ok:
                assert type(single) is cn.ReachGraph and len(single.nodes) == reachable
            else:
                assert single == old


def test_contact_error_keeps_the_place():
    # t would put a second token on r and on s: the interleaving search, in
    # either mode, and a process extension name the least place in contact
    net = cn.make_net(["p", "q", "r", "s"], ["t"],
                      [("p", "t"), ("t", "q"), ("t", "r"), ("t", "s")], ["p", "r", "s"])
    for refuse in (lambda: cn.explore_reachable(net, False, steps=False),
                   lambda: cn.explore_reachable(net, True, steps=False),
                   lambda: cn.extend_process(net, cn.initial_process(net), "t")):
        with pytest.raises(cn.ContactError, match="place r$") as refusal:
            refuse()
        assert (refusal.value.transition, refusal.value.place) == ("t", "r")
        assert refusal.value.marking == {"p", "r", "s"}


def test_marking_verdicts_refuse_contact():
    verdicts = (cn.concurrency_relation, cn.check_distributed, cn.find_pure_m,
                cn.find_local_deadlock)
    assert len(CONTACT_NETS) > 10
    for net in CONTACT_NETS:
        violation = cn.check_contact_free(net)
        assert violation.status == "violation"
        for verdict in verdicts:
            with pytest.raises(cn.ContactError) as refusal:
                verdict(net)
            assert (refusal.value.transition, refusal.value.marking) == (
                violation.transition, violation.marking)


def test_contact_verdict_matches_old_search():
    for net in NETS:
        reachable = len(cn.explore_reachable(net, dependency=False).nodes)
        for limit in range(1, reachable + 2):
            assert contact_verdict(net, limit) == old_contact_search(net, limit)


def test_violation_before_limit_takes_precedence():
    # t0 moves the token from p to q, t1 is in contact from the start: at
    # the root t0 comes first and needs a new marking, so the limit wins.
    net = cn.make_net(
        places=["p", "q", "r"], transitions=["t0", "t1"],
        flow=[("p", "t0"), ("t0", "q"), ("p", "t1"), ("t1", "r")],
        initial_marking=["p", "r"],
    )
    with pytest.raises(cn.LimitExceededError, match=r"^state limit 1 exceeded$"):
        cn.check_contact_free(net, 1)
    assert cn.check_contact_free(net, 2).status == "violation"
    renamed = cn.make_net(
        places=["p", "q", "r"], transitions=["t1", "t0"],
        flow=[("p", "t1"), ("t1", "q"), ("p", "t0"), ("t0", "r")],
        initial_marking=["p", "r"],
    )
    verdict = cn.check_contact_free(renamed, 1)
    assert (verdict.status, verdict.transition) == ("violation", "t0")
    for n in (net, renamed):
        for limit in (1, 2, 3):
            assert contact_verdict(n, limit) == old_contact_search(n, limit)


@given(st.integers(0, 10**6), st.integers(1, 40))
@settings(max_examples=40, deadline=None)
def test_contact_verdict_matches_old_search_on_draws(seed, limit):
    net = random_net(random.Random(seed), max_places=6, max_transitions=6, tau_prob=0.5)
    assert contact_verdict(net, limit) == old_contact_search(net, limit)
