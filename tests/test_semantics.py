"""Dependency-step execution, reachability graphs, cycle dependency checks."""

import random
import re
from collections import deque
from itertools import combinations, product

import pytest

import causalnets as cn
from causalnets.model import DepToken, DependencyMarking

from helpers import (
    DependencyClass,
    NotACycleError,
    _post,
    _pre,
    brute_force_cycle_violations,
    dependency_classes,
    deps_at,
    enabled_steps,
    marking_of,
    oracle_fire,
    oracle_step_enabled,
    plain_enabled,
    plain_fire,
    random_contact_free_nets,
    random_dep_marking,
    random_net,
    tokens_of,
)


def per_edge_cycle_search(net, graph):
    """``check_cycle_dependency`` as it was written with one breadth-first
    search per edge with a violating transition, from the edge's target and
    stopping at its source; a transition violates when some dependency set
    it takes differs from one it puts, both read off ``oracle_fire``."""
    adjacency = {}
    for e in graph.edges:
        adjacency.setdefault(e.source, set()).add(e.target)

    def shortest_path(start, goal):
        parent = {start: None}
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

    violations = set()
    for e in graph.edges:
        tokens = tokens_of(graph.nodes[e.source])
        bad = []
        for t in e.step:
            # the token-level transcription of the firing rule, not the library's
            took = {deps for p, deps in tokens if p in _pre(net, t)}
            put = {deps for p, deps in oracle_fire(net, tokens, {t}) if p in _post(net, t)}
            if any(a != b for a, b in product(took, put)):
                bad.append(t)
        if bad and (back := shortest_path(e.target, e.source)) is not None:
            violations.update(cn.CycleViolation((e.source, *back[:-1]), t) for t in bad)
    return sorted(violations, key=lambda v: (v.cycle, v.transition))


def fig2():
    return cn.builtin("repeated_pure_m")


def dm(*tokens):
    return DependencyMarking(frozenset(DepToken(p, frozenset(deps)) for p, deps in tokens))


M0 = dm(("p", ""), ("q", ""))


class TestStepEnabled:
    def test_parallel_outer_pair(self):
        assert cn.step_enabled(fig2(), M0, {"a", "c"})

    def test_shared_preplace_blocks(self):
        assert not cn.step_enabled(fig2(), M0, {"a", "b"})

    def test_missing_token_blocks(self):
        assert not cn.step_enabled(fig2(), dm(("p", "a")), {"b"})

    def test_empty_step_rejected(self):
        with pytest.raises(ValueError):
            cn.step_enabled(fig2(), M0, set())

    def test_unknown_transition(self):
        with pytest.raises(cn.UnknownElementError):
            cn.step_enabled(fig2(), M0, {"zz"})


class TestFireStep:
    def test_self_loop_records_dependency(self):
        assert cn.fire_step(fig2(), M0, {"a"}) == dm(("p", "a"), ("q", ""))

    def test_sink_transition_empties_marking(self):
        out = cn.fire_step(fig2(), dm(("p", "a"), ("q", "c")), {"b"})
        assert out == dm()

    def test_invisible_label_unions_without_itself(self):
        refined, _ = cn.refine_transition(fig2(), "b")
        out = cn.fire_step(refined, dm(("p", "a"), ("q", "c")), {"tau_b"})
        assert out == dm(("s_b", "ac"))

    def test_not_enabled_raises(self):
        with pytest.raises(cn.NotEnabledError):
            cn.fire_step(fig2(), dm(("p", "")), {"b"})


class TestLabelledStep:
    def test_pair_step(self):
        assert cn.labelled_step(fig2(), M0, ["a", "c"]) == {dm(("p", "a"), ("q", "c"))}
        # a and b can each fire, but they share the place p
        assert cn.labelled_step(fig2(), M0, ["a", "b"]) == set()

    def test_multiset_needs_distinct_transitions(self):
        assert cn.labelled_step(fig2(), M0, ["b", "b"]) == set()

    def test_deadlocking_initial_a(self):
        net = cn.builtin("deadlocking")
        out = cn.labelled_step(net, cn.initial_dependency_marking(net), ["a"])
        assert out == {dm(("pa", "a"), ("qc", ""))}

    def test_empty_multiset_rejected(self):
        with pytest.raises(ValueError):
            cn.labelled_step(fig2(), M0, [])

    def test_contact_is_no_step(self):
        # t would put a second token on q, u takes it first: only u, then t
        net = cn.make_net(["p", "q"], ["t", "u"], [("p", "t"), ("t", "q"), ("q", "u")],
                          ["p", "q"], {"t": "a", "u": "b"})
        m = dm(("p", ""), ("q", ""))
        assert cn.labelled_step(net, m, ["a"]) == set()
        assert cn.labelled_step(net, m, ["b"]) == {dm(("p", ""))}
        assert cn.weak_step(net, m, ["a"]) == set()
        invisible = cn.make_net(net.places, net.transitions, net.flow, net.initial_marking)
        assert cn.weak_step(invisible, m, []) == {m, dm(("p", "")), dm(("q", "")), dm()}

    def test_tau_rejected(self):
        with pytest.raises(ValueError, match="^labelled steps range over visible labels only$"):
            cn.labelled_step(fig2(), M0, ["a", cn.TAU])


class TestWeakStep:
    def test_hidden_prefix_found(self):
        net = cn.builtin("centralised")
        assert cn.weak_step(net, cn.initial_dependency_marking(net), ["a"])

    def test_closure_of_tau_free_net_is_identity(self):
        assert cn.weak_step(fig2(), M0, []) == {M0}

    def test_nothing_after_sink(self):
        assert cn.weak_step(fig2(), M0, ["b", "a"]) == set()

    def test_tau_rejected(self):
        # each element is tested, whether or not a marking is left to step from
        for sigma in (["a", cn.TAU], ["b", "a", cn.TAU]):
            with pytest.raises(ValueError, match="^sequences range over visible labels only$"):
                cn.weak_step(fig2(), M0, sigma)
        # a string is a sequence of one-letter labels, none of them tau
        assert cn.weak_step(fig2(), M0, cn.TAU) == set()


class TestUnknownMarkingElements:
    """A marking naming a place or a dependency label the net lacks is
    refused with UnknownElementError, which names them."""

    CALLS = {
        "step_enabled": lambda net, m: cn.step_enabled(net, m, {"a"}),
        "fire_step": lambda net, m: cn.fire_step(net, m, {"a"}),
        "weak_step": lambda net, m: cn.weak_step(net, m, ["a"]),
        # the marking is refused before a tau element of the sequence
        "weak_step_tau": lambda net, m: cn.weak_step(net, m, [cn.TAU]),
        "labelled_step": lambda net, m: cn.labelled_step(net, m, ["a"]),
        "labelled_step_no_transition": lambda net, m: cn.labelled_step(net, m, ["zz"]),
        "labelled_step_too_many": lambda net, m: cn.labelled_step(net, m, ["a"] * 4),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    @pytest.mark.parametrize("marking, message", [
        (dm(("p", ""), ("zz", "")), "unknown places ['zz'] or labels [] in marking"),
        (dm(("p", "x"), ("q", "")), "unknown places [] or labels ['x'] in marking"),
        (dm(("p", ""), ("q", ("tau",))), "unknown places [] or labels ['tau'] in marking"),
    ], ids=["place", "label", "tau"])
    def test_named(self, call, marking, message):
        with pytest.raises(cn.UnknownElementError, match=f"^{re.escape(message)}$"):
            self.CALLS[call](fig2(), marking)


def centralised_m0():
    net = cn.builtin("centralised")
    return net, cn.initial_dependency_marking(net)


class TestCodesAtTheBoundary:
    """Each step function encodes its marking once, fires on codes and
    decodes only the markings it returns."""

    CALLS = {  # name: (call, markings returned)
        "step_enabled": (lambda: cn.step_enabled(fig2(), M0, {"a", "c"}), 0),
        "fire_step": (lambda: cn.fire_step(fig2(), M0, {"a", "c"}), 1),
        "labelled_step": (lambda: cn.labelled_step(fig2(), M0, ["a", "c"]), 1),
        "labelled_step_none": (lambda: cn.labelled_step(fig2(), M0, ["b", "b"]), 0),
        "weak_step": (lambda: cn.weak_step(fig2(), M0, ["a", "c", "b"]), 1),
        "weak_step_closure": (lambda: cn.weak_step(*centralised_m0(), []), 5),
        "weak_step_hidden": (lambda: cn.weak_step(*centralised_m0(), ["a"]), 6),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_one_encode_and_one_decode_per_result(self, monkeypatch, name):
        call, returned = self.CALLS[name]
        counts = {"encode": 0, "decode": 0}
        for method in counts:
            def counted(table, value, method=method, original=getattr(cn.model._Table, method)):
                counts[method] += 1
                return original(table, value)
            monkeypatch.setattr(cn.model._Table, method, counted)
        result = call()
        if isinstance(result, set):
            assert len(result) == returned
        assert counts == {"encode": 1, "decode": returned}


class TestExploreReachable:
    def test_dependency_nodes_exactly(self):
        graph = cn.explore_reachable(fig2(), dependency=True)
        assert set(graph.nodes) == {
            dm(("p", ""), ("q", "")),
            dm(("p", "a"), ("q", "")),
            dm(("p", ""), ("q", "c")),
            dm(("p", "a"), ("q", "c")),
            dm(),
        }
        assert graph.root == M0
        assert not graph.limit_exceeded

    def test_state_bound_formula(self):
        graph = cn.explore_reachable(fig2(), dependency=True)
        assert graph.state_bound == (2**3 + 1) ** 2 == 81
        assert graph.bound_respected

    def test_plain_nodes(self):
        graph = cn.explore_reachable(fig2(), dependency=False)
        assert set(graph.nodes) == {frozenset({"p", "q"}), frozenset()}

    def test_soft_limit(self):
        graph = cn.explore_reachable(fig2(), dependency=True, state_limit=2)
        assert graph.limit_exceeded
        assert len(graph.nodes) == 2

    def test_enabled_steps_listing(self):
        assert enabled_steps(fig2(), M0) == [
            frozenset({"a"}),
            frozenset({"a", "c"}),
            frozenset({"b"}),
            frozenset({"c"}),
        ]

    def test_dump_format(self):
        text = cn.explore_reachable(fig2(), dependency=True).to_text()
        assert text.splitlines()[0] == "node 0: p {} ; q {}"
        assert "edge 0 -[a,c|{a,c}]-> " in text
        assert "node 3:" in text or "node 4:" in text  # the empty marking line

    def test_every_enabled_step_becomes_an_edge(self):
        graph = cn.explore_reachable(fig2(), dependency=False)
        start = graph.nodes.index(frozenset({"p", "q"}))
        steps = {e.step for e in graph.edges if e.source == start}
        assert steps == {("a",), ("b",), ("c",), ("a", "c")}
        assert len(graph.edges) == 4  # the empty marking has no successors

    def test_enabled_steps_accepts_plain_markings(self):
        assert enabled_steps(fig2(), frozenset({"p", "q"})) == enabled_steps(fig2(), M0)
        assert enabled_steps(fig2(), frozenset()) == []


class TestCycleDependency:
    def test_fig2_no_violations(self):
        graph = cn.explore_reachable(fig2(), dependency=True)
        assert cn.check_cycle_dependency(fig2(), graph) == []

    def test_deadlocking_no_violations(self):
        net = cn.builtin("deadlocking")
        graph = cn.explore_reachable(net, dependency=True)
        assert cn.check_cycle_dependency(net, graph) == []

    def test_invisible_self_loop(self):
        net = cn.make_net(
            places=["p"], transitions=["t"], flow=[("p", "t"), ("t", "p")],
            initial_marking=["p"],
        )
        graph = cn.explore_reachable(net, dependency=True)
        assert cn.check_cycle_dependency(net, graph) == []

    def test_truncated_graph_rejected(self):
        graph = cn.explore_reachable(fig2(), dependency=True, state_limit=2)
        with pytest.raises(cn.LimitExceededError, match="partial"):
            cn.check_cycle_dependency(fig2(), graph)

    def test_plain_graph_rejected(self):
        graph = cn.explore_reachable(fig2(), dependency=False)
        with pytest.raises(ValueError):
            cn.check_cycle_dependency(fig2(), graph)

    def test_random_corpus_clean(self):
        for net in random_contact_free_nets(seed=7, count=25):
            graph = cn.explore_reachable(net, dependency=True, state_limit=10**4)
            assert not graph.limit_exceeded
            assert cn.check_cycle_dependency(net, graph) == []

    def test_matches_uncapped_oracle_on_random_nets(self):
        # random_net draws may have contact, the only source of violations
        rng = random.Random(2)
        violating = 0
        for _ in range(3000):
            net = random_net(rng)
            graph = cn.explore_reachable(net, dependency=True, state_limit=10**4)
            assert not graph.limit_exceeded
            found = cn.check_cycle_dependency(net, graph)
            edges = {(e.source, e.target): set() for e in graph.edges}
            for e in graph.edges:
                edges[e.source, e.target].update(e.step)
            for v in found:
                assert len(set(v.cycle)) == len(v.cycle)
                hops = list(zip(v.cycle, v.cycle[1:] + v.cycle[:1]))
                assert all(hop in edges for hop in hops)
                assert v.transition in edges[hops[0]]
            assert {
                (v.cycle[0], v.cycle[1 % len(v.cycle)], v.transition) for v in found
            } == brute_force_cycle_violations(net, graph)
            violating += bool(found)
        assert violating >= 10

    def test_effect_once_per_node_and_transition(self, monkeypatch):
        # Four independent visible self-loops: 16 dependency markings, each
        # enabling all four transitions in 15 steps, so 240 step edges.
        ps, ts = ["p0", "p1", "p2", "p3"], ["a", "b", "c", "d"]
        net = cn.make_net(ps, ts, list(zip(ps, ts)) + list(zip(ts, ps)), ps,
                          {t: t for t in ts})
        graph = cn.explore_reachable(net, dependency=True)
        assert (len(graph.nodes), len(graph.edges)) == (16, 240)
        calls = []
        effect = cn.model._Table.effect

        def counted(table, code, t):
            calls.append((code, t))
            return effect(table, code, t)

        monkeypatch.setattr(cn.model._Table, "effect", counted)
        assert cn.check_cycle_dependency(net, graph) == []
        assert 0 < len(calls) == len(set(calls)) <= 16 * 4

    def test_witnesses_match_per_edge_search(self):
        # the draws of test_matches_uncapped_oracle_on_random_nets, whose
        # oracle checks only each witness's first hop
        rng = random.Random(2)
        longer = 0
        for _ in range(3000):
            net = random_net(rng)
            graph = cn.explore_reachable(net, dependency=True, state_limit=10**4)
            found = cn.check_cycle_dependency(net, graph)
            assert found == per_edge_cycle_search(net, graph)
            longer += any(len(v.cycle) > 2 for v in found)
        assert longer >= 5

    def test_one_search_per_target(self, monkeypatch):
        # Four visible one-shot transitions: every firing is flagged, since
        # its token gains its label, and none lies on a cycle; 65 step edges
        # lead to 15 distinct targets.
        ps, qs, ts = (["p0", "p1", "p2", "p3"], ["q0", "q1", "q2", "q3"], ["a", "b", "c", "d"])
        net = cn.make_net(ps + qs, ts, list(zip(ps, ts)) + list(zip(ts, qs)), ps,
                          {t: t for t in ts})
        graph = cn.explore_reachable(net, dependency=True)
        assert (len(graph.nodes), len(graph.edges)) == (16, 65)
        starts = []
        bfs_tree = cn.semantics._bfs_tree

        def counted(adjacency, start):
            starts.append(start)
            return bfs_tree(adjacency, start)

        monkeypatch.setattr(cn.semantics, "_bfs_tree", counted)
        assert cn.check_cycle_dependency(net, graph) == []
        assert sorted(starts) == sorted({e.target for e in graph.edges})

    def test_exact_past_ten_thousand_simple_cycles(self):
        # Nodes 0..7 form a complete digraph with 13,699 simple cycles
        # through node 0 and no violation; the cycle 8 -> 9 -> 8, whose
        # first step fires two violating transitions, comes after them, past
        # where a capped cycle enumeration stops.
        net = cn.make_net(
            places=["p", "q"], transitions=["a", "b", "u", "v"],
            flow=[("p", "a"), ("a", "p"), ("p", "u"), ("u", "p"),
                  ("q", "b"), ("b", "q"), ("q", "v"), ("v", "q")],
            initial_marking=["p", "q"], labelling={"a": "a", "b": "b"},
        )
        nodes = [dm(("p", "".join(deps))) for n in range(4) for deps in combinations("abc", n)]
        nodes += [dm(("p", ""), ("q", "")), dm(("p", "a"), ("q", "b"))]
        u = ("u",)
        edges = [cn.ReachEdge(i, u, j) for i in range(8) for j in range(8) if i != j]
        edges += [cn.ReachEdge(8, ("a", "b"), 9), cn.ReachEdge(9, ("u", "v"), 8)]
        graph = cn.ReachGraph(
            dependency=True, nodes=nodes, edges=edges, state_bound=cn.state_bound(net),
            limit_exceeded=False, labelling=net.labelling,
        )
        assert cn.check_cycle_dependency(net, graph) == [
            cn.CycleViolation((8, 9), "a"), cn.CycleViolation((8, 9), "b")
        ]
        assert brute_force_cycle_violations(net, graph) == {(8, 9, "a"), (8, 9, "b")}


class TestDependencyClasses:
    def test_outer_loop_classes(self):
        m = dm(("p", "a"), ("q", "c"))
        classes = dependency_classes(fig2(), [(m, {"a"}), (m, {"c"})])
        assert classes == {
            DependencyClass(frozenset("a"), frozenset("a")),
            DependencyClass(frozenset("c"), frozenset("c")),
        }

    def test_invisible_cycle_single_empty_class(self):
        net = cn.make_net(
            places=["p"], transitions=["t"], flow=[("p", "t"), ("t", "p")],
            initial_marking=["p"],
        )
        m = dm(("p", ""))
        classes = dependency_classes(net, [(m, {"t"})])
        assert classes == {DependencyClass(frozenset(), frozenset("t"))}

    def test_centralised_lock_cycle(self):
        # The only tau_a.a.tau_c.c cycles live where the lock has already
        # tainted both sides, so every firing lands in a class whose label
        # set covers its own side's label.
        net = cn.builtin("centralised")
        graph = cn.explore_reachable(net, dependency=True)
        cycle = None
        for m in graph.nodes:
            seq, cur, ok = [], m, True
            for t in ["tau_a", "a", "tau_c", "c"]:
                if not cn.step_enabled(net, cur, {t}):
                    ok = False
                    break
                seq.append((cur, frozenset({t})))
                cur = cn.fire_step(net, cur, {t})
            if ok and cur == m:
                cycle = seq
                break
        assert cycle is not None
        classes = dependency_classes(net, cycle)
        by_transition = {t: c.label_set for c in classes for t in c.transitions}
        assert "a" in by_transition["a"] and "a" in by_transition["tau_a"]
        assert "c" in by_transition["c"] and "c" in by_transition["tau_c"]

    def test_not_a_cycle(self):
        with pytest.raises(NotACycleError):
            dependency_classes(fig2(), [(M0, {"a"})])
        with pytest.raises(NotACycleError):
            dependency_classes(fig2(), [])


# --- randomized invariants ------------------------------------------------------


def test_step_rule_matches_direct_transcription():
    rng = random.Random(99)
    enabled_seen = 0
    for _ in range(400):
        net = random_net(rng)
        marking = random_dep_marking(rng, net)
        step = frozenset(rng.sample(sorted(net.transitions), rng.randint(1, min(3, len(net.transitions)))))
        expected = oracle_step_enabled(net, tokens_of(marking), step)
        assert cn.step_enabled(net, marking, step) == expected
        if expected:
            enabled_seen += 1
            got = cn.fire_step(net, marking, step)
            want = oracle_fire(net, tokens_of(marking), step)
            try:
                assert tokens_of(got) == want
            except ValueError:
                pytest.fail("library rejected a firing the rule allows")
        else:
            with pytest.raises(cn.NotEnabledError):
                cn.fire_step(net, marking, step)
    assert enabled_seen >= 40


def test_pr1_consistency_with_plain_token_game():
    rng = random.Random(5)
    for net in random_contact_free_nets(seed=5, count=20):
        graph = cn.explore_reachable(net, dependency=True, state_limit=10**4)
        for m in graph.nodes[:20]:
            for g in enabled_steps(net, m):
                assert cn.fire_step(net, m, g).places == plain_fire(net, m.places, g)


def test_monotone_dependencies():
    for net in random_contact_free_nets(seed=11, count=20):
        graph = cn.explore_reachable(net, dependency=True, state_limit=10**4)
        for m in graph.nodes[:20]:
            for g in enabled_steps(net, m):
                out = cn.fire_step(net, m, g)
                for t in g:
                    consumed = [tok.deps for tok in m.tokens if tok.place in cn.preset(net, t)]
                    lab = net.labelling[t]
                    for s in cn.postset(net, t):
                        deps = deps_at(out, s)
                        assert all(deps >= c for c in consumed)
                        if lab != cn.TAU:
                            assert lab in deps


def test_exploration_respects_safety_and_bound():
    # node identity is value equality; DependencyMarking construction would
    # raise if a firing ever put two tokens on one place
    for net in random_contact_free_nets(seed=13, count=30):
        graph = cn.explore_reachable(net, dependency=True, state_limit=10**4)
        assert not graph.limit_exceeded
        assert len(graph.nodes) <= cn.state_bound(net)
        assert graph.bound_respected


def test_subset_step_closure():
    from itertools import chain, combinations

    for net in random_contact_free_nets(seed=17, count=15):
        graph = cn.explore_reachable(net, dependency=True, state_limit=10**4)
        for m in graph.nodes[:10]:
            for g in enabled_steps(net, m):
                subsets = chain.from_iterable(
                    combinations(sorted(g), k) for k in range(1, len(g) + 1)
                )
                for sub in subsets:
                    assert cn.step_enabled(net, m, frozenset(sub))


def test_plain_helpers_match_projection():
    net = fig2()
    assert plain_enabled(net, frozenset({"p", "q"}), {"a", "c"})
    assert plain_fire(net, frozenset({"p", "q"}), {"b"}) == frozenset()
