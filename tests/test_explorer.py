"""Differential tests for the two successor relations of explore_reachable.

The step graph must equal the one built by trying every subset of
transitions with the oracle firing rule, node for node and edge for edge.
The interleaving graph (``steps=False``) must reach exactly the markings of
the step graph, carry exactly its singleton edges, cut off at the same
state limits.  ``check_contact_free``, which now tests firings with the
shared enabledness predicate, must still decide as the search written with
its own inline firing rule.
"""

import random
from collections import deque

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


def corpus():
    rng = random.Random(4471)
    drawn = [random_net(rng, max_places=5, max_transitions=5, tau_prob=0.5) for _ in range(40)]
    return (
        [cn.builtin(name) for name in cn.BUILTIN_NAMES]
        + random_contact_free_nets(seed=11, count=25, max_places=5, max_transitions=5)
        + [net for net in drawn if not cn.check_contact_free(net).ok]
    )


NETS = corpus()


def labelled_edges(graph):
    return {
        (graph.nodes[e.source], e.step, e.labels, graph.nodes[e.target]) for e in graph.edges
    }


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
                    (e.source, frozenset(e.step), e.labels, e.target) for e in graph.edges
                ] == edges
                assert all(
                    type(e.step) is tuple and all(t < u for t, u in zip(e.step, e.step[1:]))
                    for e in graph.edges
                )
                assert graph.limit_exceeded == exceeded == (reachable > limit)


def test_same_nodes_and_singleton_edges():
    for net in NETS:
        for dependency in (False, True):
            steps = cn.explore_reachable(net, dependency=dependency)
            single = cn.explore_reachable(net, dependency=dependency, steps=False)
            assert single.nodes[0] == steps.nodes[0]
            assert set(single.nodes) == set(steps.nodes)
            assert labelled_edges(single) == {
                edge for edge in labelled_edges(steps) if len(edge[1]) == 1
            }


def test_interleaving_nodes_in_bfs_order():
    for net in NETS:
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
            single = cn.explore_reachable(net, dependency=False, state_limit=limit, steps=False)
            assert steps.limit_exceeded == single.limit_exceeded == (reachable > limit)
            assert len(single.nodes) == min(limit, reachable)


def test_contact_verdict_matches_old_search():
    for net in NETS:
        reachable = len(cn.explore_reachable(net, dependency=False).nodes)
        for limit in range(1, reachable + 2):
            assert cn.check_contact_free(net, limit) == old_contact_search(net, limit)


def test_violation_before_limit_takes_precedence():
    # t0 moves the token from p to q, t1 is in contact from the start: at
    # the root t0 comes first and needs a new marking, so the limit wins.
    net = cn.make_net(
        places=["p", "q", "r"], transitions=["t0", "t1"],
        flow=[("p", "t0"), ("t0", "q"), ("p", "t1"), ("t1", "r")],
        initial_marking=["p", "r"],
    )
    assert cn.check_contact_free(net, 1).status == "limit_exceeded"
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
            assert cn.check_contact_free(n, limit) == old_contact_search(n, limit)


@given(st.integers(0, 10**6), st.integers(1, 40))
@settings(max_examples=40, deadline=None)
def test_contact_verdict_matches_old_search_on_draws(seed, limit):
    net = random_net(random.Random(seed), max_places=6, max_transitions=6, tau_prob=0.5)
    assert cn.check_contact_free(net, limit) == old_contact_search(net, limit)
