"""Concurrency relation, distributability verdicts, pure-M detection."""

import pytest

import causalnets as cn

from helpers import (
    assert_valid_chain,
    assert_valid_distribution,
    brute_force_distributable,
    oracle_concurrency_pairs,
    oracle_pure_m,
    random_contact_free_nets,
    reachable_depths,
)

ORACLE_NETS = (
    [cn.builtin(name) for name in cn.BUILTIN_NAMES]
    + random_contact_free_nets(seed=29, count=150)
    + random_contact_free_nets(seed=30, count=400, max_places=5, max_transitions=7)
)


class TestConcurrencyRelation:
    def test_repeated_pure_m(self):
        rel = cn.concurrency_relation(cn.builtin("repeated_pure_m"))
        assert rel.pairs == {frozenset({"a", "c"})}
        assert ("a", "c") in rel

    def test_pure_m(self):
        rel = cn.concurrency_relation(cn.builtin("pure_m"))
        assert rel.pairs == {frozenset({"a", "c"})}

    def test_sequential_chain_net(self):
        net = cn.make_net(
            places=["p", "q"],
            transitions=["t", "u"],
            flow=[("p", "t"), ("t", "q"), ("q", "u")],
            initial_marking=["p"],
            labelling={"t": "a", "u": "b"},
        )
        assert cn.concurrency_relation(net).pairs == frozenset()

    def test_matches_oracle(self):
        assert [net for net in ORACLE_NETS
                if cn.concurrency_relation(net).pairs != oracle_concurrency_pairs(net)] == []
        # the four bundled nets and 5 + 14 seeded draws have concurrent pairs
        assert sum(bool(oracle_concurrency_pairs(net)) for net in ORACLE_NETS) >= 23


class TestCheckDistributed:
    def test_repeated_pure_m_chain(self):
        verdict = cn.check_distributed(cn.builtin("repeated_pure_m"))
        assert not verdict.distributed
        assert verdict.chain == ("a", "b", "c")
        assert verdict.concurrent_endpoints == ("a", "c")
        assert_valid_chain(cn.builtin("repeated_pure_m"), verdict)

    def test_pure_m_chain(self):
        net = cn.builtin("pure_m")
        verdict = cn.check_distributed(net)
        assert verdict.chain == ("a", "b", "c")
        assert_valid_chain(net, verdict)

    def test_centralised_distribution(self):
        net = cn.builtin("centralised")
        verdict = cn.check_distributed(net)
        assert verdict.distributed
        assert verdict.concurrent_endpoints is None
        assert_valid_distribution(net, verdict)
        groups = {frozenset(m) for m in verdict.distribution.locations().values()}
        assert frozenset({"tau_a", "tau_b", "tau_c", "px2", "qy2", "lock"}) in groups
        assert frozenset({"a", "pa"}) in groups
        assert frozenset({"b", "pb"}) in groups
        assert frozenset({"c", "qc"}) in groups

    def test_deadlocking_distribution(self):
        net = cn.builtin("deadlocking")
        verdict = cn.check_distributed(net)
        assert verdict.distributed
        assert_valid_distribution(net, verdict)
        groups = {frozenset(m) for m in verdict.distribution.locations().values()}
        assert groups == {
            frozenset({"pa", "a", "tau1"}),
            frozenset({"pb", "qb", "b"}),
            frozenset({"qc", "tau2", "c"}),
        }

    def test_verdict_matches_partition_search(self):
        mismatch = []
        for net in random_contact_free_nets(seed=23, count=40):
            verdict = cn.check_distributed(net)
            if verdict.distributed:
                assert_valid_distribution(net, verdict)
            else:
                assert_valid_chain(net, verdict)
            if verdict.distributed != brute_force_distributable(net):
                mismatch.append(net)
        assert mismatch == []


class TestFindPureM:
    def test_pure_m(self):
        out = cn.find_pure_m(cn.builtin("pure_m"))
        assert out == [cn.PureMWitness("a", "b", "c", frozenset({"p", "q"}))]

    def test_repeated_pure_m(self):
        out = cn.find_pure_m(cn.builtin("repeated_pure_m"))
        assert out == [cn.PureMWitness("a", "b", "c", frozenset({"p", "q"}))]

    def test_deadlocking_has_none(self):
        assert cn.find_pure_m(cn.builtin("deadlocking")) == []

    def test_centralised_has_none(self):
        assert cn.find_pure_m(cn.builtin("centralised")) == []

    def test_witness_marking_covers_presets(self):
        for w in cn.find_pure_m(cn.builtin("repeated_pure_m")):
            net = cn.builtin("repeated_pure_m")
            need = cn.preset(net, w.left) | cn.preset(net, w.middle) | cn.preset(net, w.right)
            assert need <= w.marking

    def test_matches_oracle(self):
        with_triples = 0
        for net in ORACLE_NETS:
            want = oracle_pure_m(net)
            witnesses = cn.find_pure_m(net)
            assert [(w.left, w.middle, w.right) for w in witnesses] == list(want)
            depth = reachable_depths(net)
            for w in witnesses:
                need = cn.preset(net, w.left) | cn.preset(net, w.middle) | cn.preset(net, w.right)
                assert w.marking in depth and need <= w.marking
                assert depth[w.marking] == want[w.left, w.middle, w.right]
            with_triples += bool(want)
        # pure_m, repeated_pure_m and 2 + 7 seeded draws have triples
        assert with_triples >= 11

    def test_pure_m_implies_chain(self):
        found_some = 0
        for net in random_contact_free_nets(seed=29, count=150):
            if cn.find_pure_m(net, state_limit=10**4):
                found_some += 1
                verdict = cn.check_distributed(net, state_limit=10**4)
                assert not verdict.distributed
        assert found_some >= 2  # the corpus covers the non-vacuous case

    def test_witness_marking_is_first_in_interleaving_order(self):
        # Both {p0,p1,p2} and {p0,p2} cover the presets of (t0, t1, t3);
        # the former is reached by a shorter firing sequence.
        net = cn.parse_net(
            "place p0 *\nplace p1 *\nplace p2 *\ntrans t0\ntrans t1\ntrans t2\ntrans t3\n"
            + "".join(f"arc {a} -> {b}\n" for a, b in (
                ("p0", "t0"), ("p0", "t1"), ("p1", "t2"), ("p2", "t1"), ("p2", "t2"),
                ("p2", "t3"), ("t2", "p2"), ("t3", "p2"),
            ))
        )
        assert cn.check_contact_free(net).ok
        reachable = set(cn.explore_reachable(net, dependency=False).nodes)
        assert frozenset({"p0", "p2"}) in reachable
        witnesses = cn.find_pure_m(net)
        for w in witnesses:
            assert w.marking in reachable
            assert cn.preset(net, w.left) | cn.preset(net, w.middle) | cn.preset(net, w.right) <= w.marking
        assert [(w.left, w.middle, w.right, w.marking) for w in witnesses] == [
            ("t0", "t1", "t2", frozenset({"p0", "p1", "p2"})),
            ("t0", "t1", "t3", frozenset({"p0", "p1", "p2"})),
        ]

    def test_contact_is_refused_at_the_first_contact(self):
        # {p0,p1,p2,p3,p4} covers the presets of (t4, t2, t5), but t2 would
        # put a second token on p3 there.
        net = cn.parse_net(
            "place p0 *\nplace p1\nplace p2 *\nplace p3 *\nplace p4\nplace p5 *\n"
            "trans t0 : b\ntrans t1 : a\ntrans t2\ntrans t3\ntrans t4 : a\ntrans t5 : b\n"
            + "".join(f"arc {a} -> {b}\n" for a, b in (
                ("p0", "t4"), ("p1", "t2"), ("p1", "t4"), ("p2", "t2"), ("p2", "t5"),
                ("p3", "t0"), ("p3", "t3"), ("p4", "t5"), ("p5", "t1"), ("p5", "t3"),
                ("t1", "p1"), ("t1", "p4"), ("t2", "p2"), ("t2", "p3"), ("t3", "p5"),
                ("t4", "p0"), ("t4", "p4"), ("t5", "p1"), ("t5", "p4"),
            ))
        )
        with pytest.raises(cn.ContactError) as refusal:
            cn.find_pure_m(net)
        assert str(refusal.value) == "contact: transition t2 puts a second token on place p3"
        assert (refusal.value.transition, refusal.value.place, refusal.value.marking) == (
            "t2", "p3", frozenset({"p0", "p1", "p2", "p3", "p4"}))
