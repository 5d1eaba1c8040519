"""Dependency-step execution, reachability graphs, cycle dependency checks."""

import random
from itertools import combinations

import pytest

import causalnets as cn
from causalnets.model import DepToken, DependencyMarking

from helpers import (
    DependencyClass,
    NotACycleError,
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

    def test_multiset_needs_distinct_transitions(self):
        assert cn.labelled_step(fig2(), M0, ["b", "b"]) == set()

    def test_deadlocking_initial_a(self):
        net = cn.builtin("deadlocking")
        out = cn.labelled_step(net, cn.initial_dependency_marking(net), ["a"])
        assert out == {dm(("pa", "a"), ("qc", ""))}

    def test_empty_multiset_rejected(self):
        with pytest.raises(ValueError):
            cn.labelled_step(fig2(), M0, [])


class TestWeakStep:
    def test_hidden_prefix_found(self):
        net = cn.builtin("centralised")
        assert cn.weak_step(net, cn.initial_dependency_marking(net), ["a"])

    def test_closure_of_tau_free_net_is_identity(self):
        assert cn.weak_step(fig2(), M0, []) == {M0}

    def test_nothing_after_sink(self):
        assert cn.weak_step(fig2(), M0, ["b", "a"]) == set()


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
        start = graph.index[frozenset({"p", "q"})]
        steps = {e.step for e in graph.edges if e.source == start}
        assert steps == {
            frozenset({"a"}), frozenset({"b"}), frozenset({"c"}), frozenset({"a", "c"})
        }
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
        with pytest.raises(cn.TruncatedGraphError):
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
                edges[e.source, e.target] |= e.step
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
        u = frozenset({"u"})
        edges = [cn.ReachEdge(i, u, ("tau",), j) for i in range(8) for j in range(8) if i != j]
        edges += [
            cn.ReachEdge(8, frozenset({"a", "b"}), ("a", "b"), 9),
            cn.ReachEdge(9, frozenset({"u", "v"}), ("tau", "tau"), 8),
        ]
        graph = cn.ReachGraph(
            dependency=True, nodes=nodes, edges=edges, state_bound=cn.state_bound(net),
            limit_exceeded=False, index={m: i for i, m in enumerate(nodes)},
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
