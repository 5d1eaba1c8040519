"""Bounded observations, comparison verdicts, local deadlocks."""

import random
from collections import Counter

import pytest

import causalnets as cn

from causalnets.equivalence import _live_labels

from helpers import (
    ac_ordered_pairs,
    eager_compare,
    plain_enabled,
    plain_fire,
    pomset,
    process_observation,
    random_net,
    random_tractable_nets,
    rings,
)
from test_acceptance import CORPUS_EVENT_LIMIT, _corpus


def fig(name):
    return cn.builtin(name)


class TestBoundedObservation:
    def test_counterexample_at_two(self):
        obs = cn.bounded_observation(fig("repeated_pure_m"), 2)
        assert obs.complete == {
            pomset("b", []),
            pomset("ab", [(0, 1)]),
            pomset("cb", [(0, 1)]),
        }
        assert obs.partial == {
            pomset("ac", []),
            pomset("aa", [(0, 1)]),
            pomset("cc", [(0, 1)]),
        }
        assert obs.bound == 2
        assert not obs.divergent

    def test_empty_net(self):
        for k in (0, 1, 3):
            obs = cn.bounded_observation(cn.make_net(), k)
            assert obs.complete == {cn.Pomset((), ())}
            assert obs.partial == frozenset() or k == 0
        # at k=0 the empty pomset is both complete and would be partial only
        # for non-maximal processes, of which there are none
        assert cn.bounded_observation(cn.make_net(), 0).partial == frozenset()

    def test_centralised_at_one(self):
        obs = cn.bounded_observation(fig("centralised"), 1)
        assert obs.complete == {pomset("b", [])}
        assert not obs.divergent

    def test_divergence_flag(self):
        looping = cn.make_net(
            places=["p", "r"], transitions=["t", "v"],
            flow=[("p", "t"), ("t", "p"), ("r", "v")],
            initial_marking=["p", "r"], labelling={"v": "a"},
        )
        obs = cn.bounded_observation(looping, 1, event_limit=6)
        assert obs.divergent


class TestAgainstProcesses:
    """The search over states against every process of the unfolding."""

    LIMITS = (None, 0, 2, 5, 12)

    @staticmethod
    def outcome(observe, net, k, event_limit):
        try:
            return observe(net, k, event_limit)
        except cn.ContactError as exc:
            return str(exc), exc.transition, exc.place, exc.marking

    def agree(self, net, bounds=range(4)):
        """The cases compared, and how many of them met contact; a case whose
        processes pass the process limit is skipped."""
        cases = contacts = 0
        for event_limit in self.LIMITS:
            for k in bounds:
                try:
                    want = self.outcome(
                        lambda *a: process_observation(*a, process_limit=200), net, k, event_limit)
                except cn.LimitExceededError:
                    continue
                assert self.outcome(cn.bounded_observation, net, k, event_limit) == want, (
                    cn.serialize_net(net), k, event_limit)
                cases += 1
                contacts += not isinstance(want, cn.BoundedObservation)
        return cases, contacts

    def test_seeded_random_nets(self):
        rng = random.Random(2710)
        totals = [self.agree(random_net(rng, max_places=5, max_transitions=5, tau_prob=0.5))
                  for _ in range(600)]
        # cases compared and cases ending in contact, over 600 draws
        assert [sum(column) for column in zip(*totals)] == [11745, 2748]

    def test_input_less_transitions(self):
        nets = [
            # visible t fills p and u empties it; from k=2 on, t meets its own
            # token on p before u takes it
            cn.make_net(["p"], ["t", "u"], [("t", "p"), ("p", "u")], [], {"t": "a"}),
            cn.make_net(["p"], ["t", "u"], [("t", "p"), ("p", "u")], [], {"t": "a", "u": "b"}),
            # g, h and s touch no place: concurrent a-events without causes
            cn.make_net(["p", "r"], ["g", "h", "s", "t"], [("p", "t"), ("t", "r")], ["p"],
                        {"g": "a", "h": "a", "s": "b"}),
            # beside an invisible self-loop, which diverges
            cn.make_net(["p"], ["g", "t"], [("p", "t"), ("t", "p")], ["p"], {"g": "a"}),
        ]
        assert [self.agree(net, range(5)) for net in nets] == [(25, 12), (25, 12), (25, 0), (22, 0)]

    def test_builds_no_process(self, monkeypatch):
        calls = Counter()

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in ("enumerate_processes", "visible_pomsets"):
            original = getattr(cn.unfolding, name)
            for module in (cn, cn.unfolding, cn.equivalence):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted(name, original))
        monkeypatch.setattr(cn.unfolding.Process, "__init__",
                            counted("Process", cn.unfolding.Process.__init__))
        for name in cn.BUILTIN_NAMES:
            cn.bounded_observation(fig(name), 3)
        cn.compare(fig("repeated_pure_m"), fig("centralised"), 4)
        assert calls == Counter()
        process_observation(fig("pure_m"), 2)  # the counters see the process path
        assert set(calls) == {"enumerate_processes", "visible_pomsets", "Process"}


class TestCompare:
    def test_reflexive(self):
        verdict = cn.compare(fig("repeated_pure_m"), fig("repeated_pure_m"), 6)
        assert verdict.equivalent and verdict.witness is None

    def test_refinement_equivalent(self):
        refined, _ = cn.refine_transition(fig("repeated_pure_m"), "b")
        assert cn.compare(fig("repeated_pure_m"), refined, 6).equivalent

    def test_counterexample_vs_centralised(self):
        verdict = cn.compare(fig("repeated_pure_m"), fig("centralised"), 4)
        assert not verdict.equivalent
        w = verdict.witness
        assert w.side == "right"
        assert ac_ordered_pairs(w.pomset), "witness must order an a against a c"

    def test_symmetry_of_verdict(self):
        a, b = fig("repeated_pure_m"), fig("centralised")
        left = cn.compare(a, b, 3)
        right = cn.compare(b, a, 3)
        assert left.equivalent == right.equivalent
        assert left.witness.pomset == right.witness.pomset
        assert {left.witness.side, right.witness.side} == {"left", "right"}

    def test_monotone_refutation(self):
        a, b = fig("repeated_pure_m"), fig("centralised")
        refuted_at = [
            k for k in range(0, 6)
            if not cn.compare(a, b, k).equivalent
            and cn.compare(a, b, k).witness.kind == "complete"
        ]
        assert refuted_at, "expected a complete-set refutation at some bound"
        for k in refuted_at:
            later = cn.compare(a, b, k + 1)
            assert not later.equivalent

    def test_divergence_witness(self):
        # both nets show complete = {} and partial = {empty} at bound 0; only
        # the invisible loop diverges, so that is the first differing category
        looping = cn.make_net(
            places=["p"], transitions=["t"], flow=[("p", "t"), ("t", "p")],
            initial_marking=["p"],
        )
        spinning = cn.make_net(
            places=["p"], transitions=["v"], flow=[("p", "v"), ("v", "p")],
            initial_marking=["p"], labelling={"v": "a"},
        )
        verdict = cn.compare(looping, spinning, 0, event_limit=5)
        assert not verdict.equivalent
        assert verdict.witness.kind == "divergence"
        assert verdict.witness.side == "left"

    def test_refinement_suite_on_random_corpus(self):
        for net in random_tractable_nets(seed=2024, count=30):
            base = cn.bounded_observation(net, 3, event_limit=12)
            for t in sorted(net.transitions):
                refined, _ = cn.refine_transition(net, t)
                after = cn.bounded_observation(refined, 3, event_limit=12)
                assert base.complete == after.complete
                assert base.partial == after.partial
                assert base.divergent == after.divergent


class TestCompareOnDemand:
    """``compare`` builds a category's pomsets only when the categories
    before it agree; the verdict stays the rule applied to whole
    observations."""

    @staticmethod
    def agree(pairs, bounds, event_limit=None) -> Counter:
        """The verdicts of the pairs of nets at every bound, counted by witness
        kind (``None`` when equivalent), each checked against
        ``eager_compare``."""
        observed = {}

        def observation(net, k):
            key = (id(net), k)
            if key not in observed:
                observed[key] = cn.bounded_observation(net, k, event_limit)
            return observed[key]

        kinds = Counter()
        for net_a, net_b in pairs:
            for k in bounds:
                verdict = cn.compare(net_a, net_b, k, event_limit)
                assert verdict == eager_compare(observation(net_a, k), observation(net_b, k)), (
                    cn.serialize_net(net_a), cn.serialize_net(net_b), k, event_limit)
                kinds[verdict.witness and verdict.witness.kind] += 1
        return kinds

    def test_bundled_pairs(self):
        nets = [fig(name) for name in cn.BUILTIN_NAMES]
        assert self.agree([(a, b) for a in nets for b in nets], range(7)) == {
            None: 62, "complete": 42, "partial": 8}

    def test_corpus_against_refinements(self):
        corpus = _corpus()
        pairs = [(net, cn.refine_transition(net, t)[0])
                 for net in corpus for t in sorted(net.transitions)]
        assert len(pairs) == 237
        for event_limit in (None, CORPUS_EVENT_LIMIT):
            assert self.agree(pairs, range(4), event_limit) == {None: 4 * 237}

    def test_rings_at_event_limits(self):
        ring, others = rings(3), [cn.make_net(), fig("pure_m")]
        pairs = [(ring, ring)] + [(ring, net) for net in others] + [(net, ring) for net in others]
        for limit in (20, 25, 30):
            assert self.agree(pairs, range(3), limit) == {None: 3, "complete": 10, "divergence": 2}

    @pytest.fixture
    def built(self, monkeypatch) -> list:
        """The visible set of each ``unfolding._pomset`` call, in call order."""
        calls = []
        pomset = cn.unfolding._pomset

        def spy(vset, *args):
            calls.append(vset)
            return pomset(vset, *args)

        monkeypatch.setattr(cn.unfolding, "_pomset", spy)
        return calls

    def test_partial_pomsets_only_when_the_complete_sets_agree(self, built):
        # the witness is complete at k=4, so only the complete sets are built
        a, b = fig("repeated_pure_m"), fig("centralised")
        assert cn.compare(a, b, 4).witness.kind == "complete"
        assert len(built) == 22
        built.clear()
        cn.bounded_observation(a, 4)
        cn.bounded_observation(b, 4)
        assert len(built) == 55
        # an equivalent pair builds both categories of both sides
        refined, _ = cn.refine_transition(a, "b")
        built.clear()
        obs = cn.bounded_observation(a, 4)
        alone = len(built)
        assert obs.complete and obs.partial
        built.clear()
        assert cn.compare(a, refined, 4).equivalent
        assert len(built) == 2 * alone

    @staticmethod
    def contact_nets():
        # u puts a second token on the marked r after t; the input-less v
        # puts one on the marked s at once
        contact_a = cn.make_net(
            places=["p", "q", "r"], transitions=["t", "u"],
            flow=[("p", "t"), ("t", "q"), ("q", "u"), ("u", "r")],
            initial_marking=["p", "r"], labelling={"t": "a", "u": "b"},
        )
        contact_b = cn.make_net(["s", "x"], ["v", "w"], [("x", "w"), ("w", "s"), ("v", "s")],
                                ["s", "x"], {"w": "c"})
        return contact_a, contact_b

    def test_first_contact_error_is_net_a_s(self):
        contact_a, contact_b = self.contact_nets()
        ok = fig("centralised")
        raised = []
        for net_a, net_b in ((contact_a, ok), (ok, contact_a), (contact_a, contact_b),
                             (contact_b, contact_a)):
            with pytest.raises(cn.ContactError) as refusal:
                cn.compare(net_a, net_b, 2)
            raised.append((refusal.value.transition, refusal.value.place, refusal.value.marking))
        assert raised == [("u", "r", {"q", "r"})] * 3 + [("v", "s", {"s", "x"})]


class TestLocalDeadlock:
    def test_deadlocking_witnesses(self):
        wits = cn.find_local_deadlock(fig("deadlocking"))
        assert wits[0] == cn.LocalDeadlockWitness(
            trace=("tau1",),
            marking=frozenset({"pb", "qc"}),
            dead_label="a",
            live_labels=frozenset({"b", "c"}),
        )
        assert {(w.dead_label, w.trace) for w in wits} == {
            ("a", ("tau1",)),
            ("c", ("tau2",)),
            ("c", ("tau1", "tau2")),
            ("a", ("tau2", "tau1")),
        }

    def test_clean_nets_have_none(self):
        for name in ("pure_m", "repeated_pure_m", "centralised"):
            assert cn.find_local_deadlock(fig(name)) == []

    def test_witness_conditions_hold(self):
        net = fig("deadlocking")
        for w in cn.find_local_deadlock(net):
            m = frozenset(net.initial_marking)
            for t in w.trace:
                assert plain_enabled(net, m, (t,))
                m = plain_fire(net, m, (t,))
            assert m == w.marking
            assert net.labelling[w.trace[-1]] == cn.TAU
            # dead label never enabled in the forward closure of the marking
            seen, stack = {m}, [m]
            dead_seen, live_seen = False, set()
            while stack:
                cur = stack.pop()
                for t in net.transitions:
                    if plain_enabled(net, cur, (t,)):
                        if net.labelling[t] == w.dead_label:
                            dead_seen = True
                        elif net.labelling[t] != cn.TAU:
                            live_seen.add(net.labelling[t])
                        nxt = plain_fire(net, cur, (t,))
                        if nxt not in seen:
                            seen.add(nxt)
                            stack.append(nxt)
            assert not dead_seen
            assert live_seen == set(w.live_labels)

    def test_limit(self):
        with pytest.raises(cn.LimitExceededError):
            cn.find_local_deadlock(fig("deadlocking"), state_limit=1)

    def test_each_witness_has_the_least_trace(self):
        # Among all invisible firings into the witness marking from a marking
        # enabling the dead label, each after the least (length, sequence)
        # firing sequence to its source, the witness has the least trace.
        import random

        rng = random.Random(1)
        compared = 0
        for _ in range(10_000):  # few contact-free draws offer a choice; ~2 s
            net = random_net(rng, max_places=6, max_transitions=8, tau_prob=0.5)
            order = sorted(net.transitions)
            moves = {}  # marking -> [(t, successor)] over the enabled transitions
            least = {net.initial_marking: ()}
            level = [net.initial_marking]
            while level:
                found = {}
                for m in level:
                    moves[m] = [(t, plain_fire(net, m, (t,)))
                                for t in order if plain_enabled(net, m, (t,))]
                    for t, m2 in moves[m]:
                        trace = least[m] + (t,)
                        if m2 not in least and (m2 not in found or trace < found[m2]):
                            found[m2] = trace
                least.update(found)
                level = sorted(found, key=found.get)
            if any(net._preset[t] <= m and not plain_enabled(net, m, (t,))
                   for m in moves for t in order):  # a reachable contact
                with pytest.raises(cn.ContactError):
                    cn.find_local_deadlock(net)
                continue
            for w in cn.find_local_deadlock(net):
                candidates = [
                    least[m] + (t,)
                    for m, out in moves.items()
                    if any(net.labelling[u] == w.dead_label for u, _ in out)
                    for t, m2 in out
                    if m2 == w.marking and net.labelling[t] == cn.TAU
                ]
                compared += len(candidates) > 1
                assert w.trace == min(candidates, key=lambda trace: (len(trace), trace))
        assert compared >= 5


def test_live_labels_match_per_node_search():
    import random

    rng = random.Random(1108)
    checked = 0
    while checked < 150:
        net = random_net(rng, max_places=6, max_transitions=6, tau_prob=0.5)
        try:
            graph = cn.explore_reachable(net, dependency=False, steps=False)
        except cn.ContactError:
            continue
        checked += 1
        successors = [[] for _ in graph.nodes]
        predecessors = [[] for _ in graph.nodes]
        enabled = [set() for _ in graph.nodes]
        for e in graph.edges:
            successors[e.source].append(e.target)
            predecessors[e.target].append(e.source)
            enabled[e.source] |= {net.labelling[t] for t in e.step} - {cn.TAU}
        live = _live_labels(predecessors, [frozenset(x) for x in enabled])
        for i in range(len(graph.nodes)):
            seen, stack, acc = {i}, [i], set()
            while stack:
                j = stack.pop()
                acc |= enabled[j]
                for k in successors[j]:
                    if k not in seen:
                        seen.add(k)
                        stack.append(k)
            assert live[i] == acc


def test_live_labels_on_a_long_path():
    n = 20_000  # far deeper than the recursion limit
    predecessors = [[]] + [[i - 1] for i in range(1, n - 1)] + [[n - 2, n - 1]]
    labels = [frozenset()] * (n - 1) + [frozenset({"a"})]
    assert _live_labels(predecessors, labels) == [frozenset({"a"})] * n
