"""Process enumeration, maximality, canonical pomsets."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import causalnets as cn

from helpers import (
    brute_force_iso,
    brute_force_processes,
    lpo_from,
    pomset,
    process_of_run,
    random_contact_free_nets,
    random_lpo,
    random_tractable_nets,
    shuffled_copy,
)


def fig2():
    return cn.builtin("repeated_pure_m")


class TestInitialProcess:
    def test_two_initial_conditions(self):
        p = cn.initial_process(fig2())
        assert len(p.conditions) == 2
        assert sorted(p.fold[c] for c in p.conditions) == ["p", "q"]
        assert p.events == ()
        assert p.occ_net.initial_marking == frozenset(p.conditions)

    def test_empty_marking(self):
        p = cn.initial_process(cn.make_net(places=["p"]))
        assert p.conditions == () and p.events == ()

    def test_centralised_initial(self):
        p = cn.initial_process(cn.builtin("centralised"))
        assert sorted(p.fold[c] for c in p.conditions) == ["lock", "px2", "qy2"]


class TestExtendProcess:
    def test_extend_by_self_loop(self):
        p = cn.extend_process(fig2(), cn.initial_process(fig2()), "a")
        assert p is not None
        (event,) = p.events
        assert p.fold[event] == "a"
        fresh = [c for c in p.conditions if p.producer[c] == event]
        assert [p.fold[c] for c in fresh] == ["p"]
        cn.validate_process(fig2(), p)

    def test_sink_consumes_everything_once(self):
        p = process_of_run(fig2(), ["b"])
        assert cn.extend_process(fig2(), p, "b") is None

    def test_unavailable_preset(self):
        p = cn.initial_process(cn.builtin("centralised"))
        assert cn.extend_process(cn.builtin("centralised"), p, "a") is None

    def test_unknown_transition(self):
        with pytest.raises(cn.UnknownElementError):
            cn.extend_process(fig2(), cn.initial_process(fig2()), "zz")


class TestContact:
    def contact_net(self):
        # r stays marked, so firing u after t puts a second token on r
        return cn.make_net(
            places=["p", "q", "r"], transitions=["t", "u"],
            flow=[("p", "t"), ("t", "q"), ("q", "u"), ("u", "r")],
            initial_marking=["p", "r"], labelling={"t": "a", "u": "b"},
        )

    def test_extension_raises_naming_transition_and_place(self):
        net = self.contact_net()
        p = cn.extend_process(net, cn.initial_process(net), "t")
        with pytest.raises(cn.NetError, match="transition u .* place r"):
            cn.extend_process(net, p, "u")

    def test_enumeration_raises_within_the_bound_only(self):
        net = self.contact_net()
        assert len(cn.enumerate_processes(net, 1)) == 2
        with pytest.raises(cn.NetError, match="transition u .* place r"):
            cn.enumerate_processes(net, 2)
        with pytest.raises(cn.NetError):
            cn.bounded_observation(net, 2)

    def test_self_loop_is_not_contact(self):
        net = cn.make_net(
            places=["p"], transitions=["t"], flow=[("p", "t"), ("t", "p")],
            initial_marking=["p"], labelling={"t": "a"},
        )
        assert len(cn.enumerate_processes(net, 3)) == 4


class TestIsMaximal:
    def test_full_run_is_maximal(self):
        assert cn.is_maximal(fig2(), process_of_run(fig2(), ["a", "c", "b"]))

    def test_open_run_is_not(self):
        assert not cn.is_maximal(fig2(), process_of_run(fig2(), ["a", "c"]))

    def test_empty_net(self):
        net = cn.make_net()
        assert cn.is_maximal(net, cn.initial_process(net))


class TestEnumerateProcesses:
    def test_bound_two_summary(self):
        entries = cn.enumerate_processes(fig2(), 2)
        maximal = {cn.visible_pomset(e.process) for e in entries if e.maximal}
        assert maximal == {
            pomset("b", []),
            pomset("ab", [(0, 1)]),
            pomset("cb", [(0, 1)]),
        }
        others = {cn.visible_pomset(e.process) for e in entries if not e.maximal}
        assert pomset("ac", []) in others
        assert not any(e.saturated for e in entries)

    def test_interleavings_collapse(self):
        entries = cn.enumerate_processes(fig2(), 2)
        # initial, a, c, b, ac, aa, cc, ab, cb: a.c and c.a appear once
        assert len(entries) == 9
        keys = [e.process.key for e in entries]
        assert len(set(keys)) == len(keys)

    def test_bound_zero(self):
        entries = cn.enumerate_processes(fig2(), 0)
        assert len(entries) == 1
        assert not entries[0].maximal
        assert entries[0].process.events == ()

    def test_deadlocking_bound_one(self):
        net = cn.builtin("deadlocking")
        entries = cn.enumerate_processes(net, 1)
        folded_runs = {frozenset(e.process.event_trans.values()) for e in entries}
        assert frozenset({"tau1", "c"}) in folded_runs
        # the silent commit on both sides followed by b is quiescent already
        maximal = {cn.visible_pomset(e.process) for e in entries if e.maximal}
        assert maximal == {pomset("b", [])}

    def test_saturation_on_invisible_loop(self):
        net = cn.make_net(
            places=["p"], transitions=["t"], flow=[("p", "t"), ("t", "p")],
            initial_marking=["p"],
        )
        entries = cn.enumerate_processes(net, 0, event_limit=5)
        assert any(e.saturated for e in entries)
        assert max(e.process.event_count for e in entries) == 5

    def test_all_enumerated_processes_valid(self):
        for net in (fig2(), cn.builtin("centralised"), cn.builtin("deadlocking")):
            for e in cn.enumerate_processes(net, 2):
                cn.validate_process(net, e.process)


class TestRunCorrespondence:
    def _firing_sequences(self, net, length):
        from causalnets.semantics import plain_enabled, plain_fire

        runs = [((), frozenset(net.initial_marking))]
        for _ in range(length):
            nxt = []
            for seq, m in runs:
                for t in sorted(net.transitions):
                    if plain_enabled(net, m, (t,)):
                        nxt.append((seq + (t,), plain_fire(net, m, (t,))))
            runs = nxt
            yield from runs

    def test_every_sequence_has_a_process_and_back(self):
        net = fig2()
        entries = cn.enumerate_processes(net, 3)
        keys = {e.process.key for e in entries}
        for seq, _ in self._firing_sequences(net, 3):
            process = process_of_run(net, seq)
            assert process.key in keys
        # and each process linearises to a firing sequence of the net
        from causalnets.semantics import plain_enabled, plain_fire

        for e in entries:
            process = e.process
            m = frozenset(net.initial_marking)
            for event in process.events:  # creation order is causal order
                t = process.fold[event]
                assert plain_enabled(net, m, (t,))
                m = plain_fire(net, m, (t,))
            assert m == process.end_marking()


def _library_processes(net, k, event_limit):
    return Counter(
        (e.process.event_count, e.process.visible_count, e.maximal, e.saturated,
         tuple(sorted(e.process.event_trans.values())), cn.visible_pomset(e.process))
        for e in cn.enumerate_processes(net, k, event_limit)
    )


def _oracle_pomset(process):
    return cn.canonicalize(cn.LPO(*process["lpo"]))


def _oracle_processes(processes):
    return Counter(
        (p["events"], p["visible"], p["maximal"], p["saturated"], p["transitions"],
         _oracle_pomset(p))
        for p in processes
    )


def _oracle_observation(processes, k):
    return cn.BoundedObservation(
        complete=frozenset(_oracle_pomset(p) for p in processes if p["maximal"]),
        partial=frozenset(
            _oracle_pomset(p) for p in processes if not p["maximal"] and p["visible"] == k
        ),
        bound=k,
        divergent=any(p["saturated"] for p in processes),
    )


class TestAgainstBruteForce:
    def check(self, net, k, event_limit):
        processes = brute_force_processes(net, k, event_limit)
        assert _library_processes(net, k, event_limit) == _oracle_processes(processes)
        assert cn.bounded_observation(net, k, event_limit) == _oracle_observation(processes, k)

    def test_bundled_nets(self):
        for name in cn.BUILTIN_NAMES:
            for k in range(4):
                self.check(cn.builtin(name), k, 10 * k + 50)

    def test_input_less_transitions(self):
        # g and s touch no place (with an output place a second firing would
        # be contact); their occurrences are numbered per transition
        net = cn.make_net(
            places=["p", "r"], transitions=["g", "s", "t"], flow=[("p", "t"), ("t", "r")],
            initial_marking=["p"], labelling={"g": "a", "s": "b"},
        )
        for k in range(4):
            self.check(net, k, 8)

    def test_seeded_random_nets_and_refinements(self):
        nets = random_tractable_nets(seed=8086, count=40, max_places=5, max_transitions=5)
        nets += [cn.refine_transition(net, t)[0] for net in nets for t in sorted(net.transitions)]
        diverging = sum(any(p["saturated"] for p in brute_force_processes(net, 3, 12))
                        for net in nets)
        assert 0 < diverging < len(nets)
        for net in nets:
            self.check(net, 3, 12)


class TestVisiblePomset:
    def test_full_run_pomset(self):
        p = cn.visible_pomset(process_of_run(fig2(), ["a", "c", "b"]))
        assert p == pomset("acb", [(0, 2), (1, 2)])
        assert len(p) == 3

    def test_refined_run_has_equal_pomset(self):
        refined, _ = cn.refine_transition(fig2(), "b")
        q = cn.visible_pomset(process_of_run(refined, ["a", "c", "tau_b", "b"]))
        assert q == pomset("acb", [(0, 2), (1, 2)])

    def test_invisible_only_process_is_empty(self):
        net = cn.make_net(
            places=["p", "q"], transitions=["t"], flow=[("p", "t"), ("t", "q")],
            initial_marking=["p"],
        )
        p = cn.visible_pomset(process_of_run(net, ["t"]))
        assert p == cn.Pomset((), ())

    def test_no_outer_ordering_in_counterexample(self):
        for e in cn.enumerate_processes(fig2(), 3):
            p = cn.visible_pomset(e.process)
            for u, v in p.order:
                assert {p.labels[u], p.labels[v]} != {"a", "c"}


class TestCanonicalize:
    def test_renamed_copies_equal(self):
        o1 = cn.LPO(("x", "y"), {"x": "a", "y": "b"}, frozenset({("x", "y")}))
        o2 = cn.LPO(("u", "v"), {"v": "a", "u": "b"}, frozenset({("v", "u")}))
        assert cn.canonicalize(o1) == cn.canonicalize(o2)

    def test_order_differs(self):
        chain = cn.LPO(("x", "y"), {"x": "a", "y": "b"}, frozenset({("x", "y")}))
        anti = cn.LPO(("x", "y"), {"x": "a", "y": "b"}, frozenset())
        assert cn.canonicalize(chain) != cn.canonicalize(anti)

    def test_text_block(self):
        p = pomset("acb", [(0, 2), (1, 2)])
        assert p.text() == "events: e1:a e2:c e3:b\norder: e1<e3 e2<e3\n"
        assert cn.Pomset((), ()).text() == "events:\norder:\n"

    def test_direction_is_not_lost(self):
        down = pomset("ab", [(0, 1)])
        up = pomset("ba", [(0, 1)])
        assert down != up

    def test_validation(self):
        with pytest.raises(ValueError):
            cn.LPO(("x",), {"x": "a"}, frozenset({("x", "x")}))
        with pytest.raises(ValueError):  # not transitively closed
            cn.LPO(
                ("x", "y", "z"),
                {"x": "a", "y": "a", "z": "a"},
                frozenset({("x", "y"), ("y", "z")}),
            )

    def test_heavily_symmetric_orders(self):
        import random

        rng = random.Random(5)
        anti = lpo_from("aaaaaaaa", [])
        assert cn.canonicalize(anti) == cn.canonicalize(shuffled_copy(rng, anti))
        # crown: top i above every bottom except i, all labels equal
        crown = lpo_from(
            "aaaaaaaa", [(t, 4 + b) for t in range(4) for b in range(4) if t != b]
        )
        shuffled = shuffled_copy(rng, crown)
        assert cn.canonicalize(crown) == cn.canonicalize(shuffled)
        assert brute_force_iso(crown, shuffled)
        complete = lpo_from(
            "aaaaaaaa", [(t, 4 + b) for t in range(4) for b in range(4)]
        )
        assert cn.canonicalize(crown) != cn.canonicalize(complete)
        assert not brute_force_iso(crown, complete)
        two_chains = lpo_from("aaaa", [(0, 1), (2, 3)])
        one_chain = lpo_from("aaaa", [(0, 1), (1, 2)])
        assert cn.canonicalize(two_chains) != cn.canonicalize(one_chain)

    def test_matches_brute_force_on_seeded_corpus(self):
        rng = random.Random(2718)
        agreements = {True: 0, False: 0}
        for i in range(160):
            o1 = random_lpo(rng, max_n=6)
            o2 = shuffled_copy(rng, o1) if i % 2 == 0 else random_lpo(rng, max_n=6)
            same = cn.canonicalize(o1) == cn.canonicalize(o2)
            assert same == brute_force_iso(o1, o2)
            agreements[same] += 1
        assert agreements[True] >= 40 and agreements[False] >= 40


@st.composite
def lpos(draw):
    n = draw(st.integers(min_value=0, max_value=7))
    verts = tuple(f"v{i}" for i in range(n))
    labels = {v: draw(st.sampled_from(["a", "b"])) for v in verts}
    below = set()
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                below.add((verts[i], verts[j]))
    changed = True
    while changed:
        changed = False
        for (u, v) in list(below):
            for (x, y) in list(below):
                if v == x and (u, y) not in below:
                    below.add((u, y))
                    changed = True
    return cn.LPO(verts, labels, frozenset(below))


@given(lpos(), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_canonical_form_is_invariant_under_renaming(o, rng):
    assert cn.canonicalize(o) == cn.canonicalize(shuffled_copy(rng, o))


@given(lpos(), lpos())
@settings(max_examples=80, deadline=None)
def test_canonical_equality_is_isomorphism(o1, o2):
    assert (cn.canonicalize(o1) == cn.canonicalize(o2)) == brute_force_iso(o1, o2)


def test_refinement_preserves_pomsets_everywhere():
    for t in sorted(fig2().transitions):
        refined, _ = cn.refine_transition(fig2(), t)
        original = {
            cn.visible_pomset(e.process) for e in cn.enumerate_processes(fig2(), 3)
        }
        after = {
            cn.visible_pomset(e.process) for e in cn.enumerate_processes(refined, 3)
        }
        assert original == after


def test_random_processes_validate():
    rng = random.Random(31337)
    for net in random_contact_free_nets(seed=31337, count=10):
        for e in cn.enumerate_processes(net, 2, event_limit=20):
            cn.validate_process(net, e.process)
