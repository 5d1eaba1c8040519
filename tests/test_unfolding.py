"""Process enumeration, maximality, canonical pomsets."""

import hashlib
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import causalnets as cn

from helpers import (
    NamedOrder,
    brute_force_divergent,
    brute_force_iso,
    brute_force_processes,
    canonical,
    chain,
    chains,
    conditions,
    discrete_colouring,
    event_trans,
    events,
    exhaustive_canonicalize,
    fold,
    index_form,
    loops,
    lpo_from,
    occ_net,
    plain_enabled,
    plain_fire,
    pomset,
    process_of_run,
    producer,
    random_contact_free_nets,
    random_lpo,
    random_net,
    random_tractable_nets,
    rings,
    shuffled_copy,
    validate_occurrence_net,
    validate_process,
    visible_index_form,
)
from test_acceptance import CORPUS_EVENT_LIMIT, _corpus


def input_less_net():
    # g and s touch no place (with an output place a second firing would
    # be contact); their occurrences are numbered per transition
    return cn.make_net(
        places=["p", "r"], transitions=["g", "s", "t"], flow=[("p", "t"), ("t", "r")],
        initial_marking=["p"], labelling={"g": "a", "s": "b"},
    )


def fig2():
    return cn.builtin("repeated_pure_m")


class TestInitialProcess:
    def test_two_initial_conditions(self):
        p = cn.initial_process(fig2())
        assert len(conditions(p)) == 2
        assert sorted(fold(p)[c] for c in conditions(p)) == ["p", "q"]
        assert events(p) == ()
        assert occ_net(p).initial_marking == frozenset(conditions(p))

    def test_empty_marking(self):
        p = cn.initial_process(cn.make_net(places=["p"]))
        assert conditions(p) == () and events(p) == ()

    def test_centralised_initial(self):
        p = cn.initial_process(cn.builtin("centralised"))
        assert sorted(fold(p)[c] for c in conditions(p)) == ["lock", "px2", "qy2"]


class TestExtendProcess:
    def test_extend_by_self_loop(self):
        p = cn.extend_process(fig2(), cn.initial_process(fig2()), "a")
        assert p is not None
        (event,) = events(p)
        assert fold(p)[event] == "a"
        fresh = [c for c in conditions(p) if producer(p)[c] == event]
        assert [fold(p)[c] for c in fresh] == ["p"]
        validate_process(fig2(), p)

    def test_sink_consumes_everything_once(self):
        p = process_of_run(fig2(), ["b"])
        assert cn.extend_process(fig2(), p, "b") is None

    def test_unavailable_preset(self):
        p = cn.initial_process(cn.builtin("centralised"))
        assert cn.extend_process(cn.builtin("centralised"), p, "a") is None

    def test_unknown_transition(self):
        with pytest.raises(cn.UnknownElementError):
            cn.extend_process(fig2(), cn.initial_process(fig2()), "zz")

    def test_another_net_is_refused(self):
        # b's table reads a's marking mask as r marked: no silent answer
        def net_a():
            return cn.make_net(["p", "q"], ["t"], [("p", "t"), ("t", "q")], ["p"])

        b = cn.make_net(["q", "r"], ["t"], [("q", "t"), ("t", "r")], ["r"])
        pa = cn.initial_process(net_a())
        with pytest.raises(ValueError, match="grown from another net"):
            cn.is_maximal(b, pa)
        with pytest.raises(ValueError, match="grown from another net"):
            cn.extend_process(b, pa, "t")
        # an equal net built separately is the process's own net
        assert not cn.is_maximal(net_a(), pa)
        assert cn.is_maximal(net_a(), cn.extend_process(net_a(), pa, "t"))

    def test_end_maps_places_to_their_last_producers(self):
        # each place marked at the end maps to the last event that put on
        # it, or to None when its initial token is still there
        for name in cn.BUILTIN_NAMES:
            for entry in cn.enumerate_processes(cn.builtin(name), 3):
                process = entry.process
                occ, folded, made_by = occ_net(process), fold(process), producer(process)
                expected = {folded[c]: made_by[c] for c in occ.places if not occ._postset[c]}
                assert {place: None if e is None else f"e{e + 1}"
                        for place, e in process.end.items()} == expected


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
        with pytest.raises(cn.ContactError, match="transition u .* place r") as refusal:
            cn.extend_process(net, p, "u")
        assert (refusal.value.transition, refusal.value.place) == ("u", "r")

    def test_enumeration_raises_within_the_bound_only(self):
        net = self.contact_net()
        assert len(cn.enumerate_processes(net, 1)) == 2
        with pytest.raises(cn.NetError, match="transition u .* place r"):
            cn.enumerate_processes(net, 2)
        with pytest.raises(cn.NetError):
            cn.bounded_observation(net, 2)

    def test_contact_at_the_bound_is_not_maximal(self):
        # after t the end covers u's preset; u would put a second token on r,
        # but at k=1 it is not fired, so the process is partial, not complete
        net = self.contact_net()
        after_t = process_of_run(net, ["t"])
        assert not cn.is_maximal(net, after_t)
        assert [e.maximal for e in cn.enumerate_processes(net, 1)
                if e.process.key == after_t.key] == [False]
        observation = cn.bounded_observation(net, 1)
        assert observation.complete == frozenset()
        assert observation.partial == {pomset("a", [])}

    def test_contact_past_the_event_limit_still_raises(self):
        # s puts q's token, and u, one firing past the limit, would put a
        # second token on r: the contact check comes before the limit's
        net = cn.make_net(
            places=["p", "q", "r"], transitions=["s", "u"],
            flow=[("p", "s"), ("s", "q"), ("q", "u"), ("u", "r")],
            initial_marking=["p", "r"],
        )
        with pytest.raises(cn.ContactError, match="transition u .* place r"):
            cn.enumerate_processes(net, 0, event_limit=1)
        (entry,) = cn.enumerate_processes(net, 0, event_limit=0)
        assert entry.saturated

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

    def test_keys_of_separate_calls_share_their_names(self):
        # an event taking two conditions from one producer doubles the paths
        # through its name; interned per net, equal names are one object, so
        # keys from separate calls compare without walking those paths.
        # Compared by id: == on 50-event names built apart walks 2^50 paths
        net = random_net(random.Random(7), max_places=5, max_transitions=5, tau_prob=0.5)
        first, second = (cn.enumerate_processes(net, 0)[-1].process.key for _ in range(2))
        assert len(first) == 50
        assert {id(name) for name in first} == {id(name) for name in second}

    def test_bound_zero(self):
        entries = cn.enumerate_processes(fig2(), 0)
        assert len(entries) == 1
        assert not entries[0].maximal
        assert events(entries[0].process) == ()

    def test_deadlocking_bound_one(self):
        net = cn.builtin("deadlocking")
        entries = cn.enumerate_processes(net, 1)
        folded_runs = {frozenset(event_trans(e.process).values()) for e in entries}
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

    def test_every_prefix_event_is_in_a_process(self):
        # an extension past the event limit adds no event to the shared prefix
        cases = [(rings(3), 0, limit) for limit in (20, 25, 30)]
        cases += [(cn.builtin(name), 3, 3) for name in ("centralised", "deadlocking")]
        for net, k, event_limit in cases:
            entries = cn.enumerate_processes(net, k, event_limit)
            assert any(e.saturated for e in entries)
            used = 0
            for e in entries:
                used |= e.process.config
            assert used == (1 << len(entries[0].process.prefix.trans)) - 1

    def test_event_limit_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="event_limit must be nonnegative"):
            cn.enumerate_processes(fig2(), 2, event_limit=-5)
        (entry,) = cn.enumerate_processes(fig2(), 2, event_limit=0)
        assert entry.saturated and entry.process.event_count == 0
        with pytest.raises(ValueError, match="visible_bound must be nonnegative"):
            cn.enumerate_processes(fig2(), -1)

    def test_process_limit_must_be_positive(self):
        idle = cn.make_net(places=["p"], initial_marking=["p"])
        chain = cn.make_net(places=["p", "q"], transitions=["t"], flow=[("p", "t"), ("t", "q")],
                            initial_marking=["p"])
        for net in (idle, chain):
            for limit in (0, -1):
                with pytest.raises(ValueError, match="process_limit must be at least 1"):
                    cn.enumerate_processes(net, 1, process_limit=limit)
        assert len(cn.enumerate_processes(idle, 1, process_limit=1)) == 1
        with pytest.raises(cn.LimitExceededError, match="process limit 1 exceeded"):
            cn.enumerate_processes(chain, 1, process_limit=1)

    def test_all_enumerated_processes_valid(self):
        for net in (fig2(), cn.builtin("centralised"), cn.builtin("deadlocking")):
            for e in cn.enumerate_processes(net, 2):
                validate_process(net, e.process)

    def test_entry_dump_pinned(self):
        # SHA-256 of the dump before the enumeration loop read place masks:
        # BFS order, maximality, saturation and input-less numbering
        def entry_dump(entries):
            short = {}

            def text(x):  # a structural name, shortened to a digest per tuple
                if isinstance(x, frozenset):
                    return "{" + ",".join(sorted(map(text, x))) + "}"
                if isinstance(x, tuple):
                    if x not in short:
                        short[x] = hashlib.sha256(" ".join(map(text, x)).encode()).hexdigest()[:16]
                    return short[x]
                return str(x)

            return "".join(
                f"{i} {e.process.event_count} {e.process.visible_count} {e.maximal} {e.saturated} "
                f"{' '.join(sorted(map(text, e.process.key)))}\n"
                for i, e in enumerate(entries))

        cases = [(cn.builtin(name), k, None) for name in cn.BUILTIN_NAMES for k in range(6)]
        cases += [(input_less_net(), k, 8) for k in range(4)]
        cases += [(rings(3), 0, 20)]
        digest = hashlib.sha256()
        for net, k, event_limit in cases:
            digest.update(entry_dump(cn.enumerate_processes(net, k, event_limit)).encode())
        assert digest.hexdigest() == (
            "7a453c24f3935154da7b729489ce30f7ae3c5d820b35b98007d47d9926cd0804")


class TestValidateProcess:
    def self_loop(self):
        return cn.make_net(
            places=["p"], transitions=["t"], flow=[("p", "t"), ("t", "p")],
            initial_marking=["p"], labelling={"t": "a"},
        )

    def test_long_process(self):
        # a recursive acyclicity search would overflow the interpreter's
        # stack on this chain of 2,000 events and 2,001 conditions
        net = self.self_loop()
        process = process_of_run(net, ["t"] * 2000)
        assert len(events(process)) == 2000
        validate_process(net, process)

    def test_rejects_a_cycle(self):
        # every condition has one producer and none is initial, so only the
        # acyclicity clause can fail
        occ = cn.make_net(
            places=["c1", "c2"], transitions=["e1", "e2"],
            flow=[("c1", "e1"), ("e1", "c2"), ("c2", "e2"), ("e2", "c1")],
            labelling={"e1": "a", "e2": "a"},
        )
        folding = {"c1": "p", "c2": "p", "e1": "t", "e2": "t"}
        with pytest.raises(ValueError, match="cycle"):
            validate_occurrence_net(self.self_loop(), occ, folding)


class TestRunCorrespondence:
    def _firing_sequences(self, net, length):
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
        for e in entries:
            process = e.process
            m = frozenset(net.initial_marking)
            for event in events(process):  # creation order is causal order
                t = fold(process)[event]
                assert plain_enabled(net, m, (t,))
                m = plain_fire(net, m, (t,))
            assert m == frozenset(process.end)


def _library_processes(net, k, event_limit):
    return Counter(
        (e.process.event_count, e.process.visible_count, e.maximal, e.saturated,
         tuple(sorted(event_trans(e.process).values())), cn.visible_pomset(e.process))
        for e in cn.enumerate_processes(net, k, event_limit)
    )


def _oracle_pomset(process):
    return canonical(process["lpo"])


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
        for k in range(4):
            self.check(input_less_net(), k, 8)

    def test_seeded_random_nets_and_refinements(self):
        nets = random_tractable_nets(seed=8086, count=40, max_places=5, max_transitions=5)
        nets += [cn.refine_transition(net, t)[0] for net in nets for t in sorted(net.transitions)]
        diverging = sum(any(p["saturated"] for p in brute_force_processes(net, 3, 12))
                        for net in nets)
        assert 0 < diverging < len(nets)
        for net in nets:
            self.check(net, 3, 12)

    def test_seeded_contact_nets(self):
        # the library raises on contact within the bound and the oracle does
        # not, so only the cases that enumerate can be compared
        rng = random.Random(2024)
        nets = [random_net(rng, max_places=5, max_transitions=5, tau_prob=0.5)
                for _ in range(400)]
        checked = 0
        for net in nets:
            if cn.check_contact_free(net, 10**4).ok:
                continue
            for k in (0, 1, 2):
                try:
                    entries = cn.enumerate_processes(net, k, 6)
                except cn.NetError:
                    continue
                assert all(e.maximal == cn.is_maximal(net, e.process) for e in entries)
                self.check(net, k, 6)
                checked += 1
        assert checked == 74


class TestExactObservation:
    """``bounded_observation`` with no event limit cuts no run.  Its flag
    is checked against ``brute_force_divergent``, and its sets against
    ``brute_force_processes`` at an event limit past the longest process.
    A net that diverges has no longest process; there the limit doubles
    from ``k + 1`` until doubling it adds no pomset."""

    @staticmethod
    def check(net, k):
        def oracle(limit):
            return _oracle_observation(brute_force_processes(net, k, limit), k)

        divergent = brute_force_divergent(net, k)
        if divergent:
            limit = k + 1
            while (want := oracle(limit)) != oracle(2 * limit):
                limit *= 2
        else:
            limit = 1
            while (want := oracle(limit)).divergent:
                limit *= 2
                assert limit < 1000, "the brute-force processes never end"
        assert (want.divergent, cn.bounded_observation(net, k)) == (divergent, want)
        return divergent

    def test_bundled_rings_loops_and_a_draw(self):
        draw = random_net(random.Random(7), max_places=5, max_transitions=5, tau_prob=0.5)
        nets = [cn.builtin(name) for name in cn.BUILTIN_NAMES] + [rings(3), loops(8), draw]
        verdicts = [[self.check(net, k) for k in range(4)] for net in nets]
        assert verdicts == [[False] * 4] * 4 + [[True] * 4] * 3

    def test_acceptance_corpus(self):
        verdicts = Counter(self.check(net, k) for net in _corpus() for k in range(4))
        assert verdicts == Counter({False: 372, True: 28})

    def test_chains_past_the_old_default_cut(self):
        # the old default cut, 10k + 50 events, fell inside each chain at
        # k=0 and inside the chains of 61 and 70 at k=1
        for n in (59, 60, 61, 70):
            assert not any(self.check(chain(n), k) for k in (0, 1))


class TestExactUnfold:
    """``enumerate_processes`` with no event limit cuts a process only when
    a cycle of invisible firings is reachable within the bound."""

    def test_chains_past_the_old_default_cut(self):
        # the first search's cut, 10k + 50 events, falls inside each chain at
        # k=0 and inside the chains of 61 and 70 at k=1; the oracle cuts at
        # the chain's end, so none of its processes is saturated
        for n in (59, 60, 61, 70):
            for k in (0, 1):
                assert _library_processes(chain(n), k, None) == _oracle_processes(
                    brute_force_processes(chain(n), k, n)), (n, k)

    def test_saturated_exactly_when_divergent(self):
        verdicts = Counter((any(e.saturated for e in cn.enumerate_processes(net, k)),
                            brute_force_divergent(net, k))
                           for net in _corpus() for k in range(4))
        assert verdicts == Counter({(False, False): 372, (True, True): 28})

    def test_contact_past_the_first_cut_is_raised(self):
        # a second token waits at the end of a chain of 70: the first search
        # cuts at 50 events before it, then the observation meets it
        line = chain(70)
        net = cn.make_net(line.places, line.transitions, line.flow, ["p0", "p70"])
        errors = []
        for event_limit in (None, 70):
            with pytest.raises(cn.ContactError) as info:
                cn.enumerate_processes(net, 0, event_limit)
            errors.append((str(info.value), info.value.transition, info.value.place,
                           info.value.marking))
        assert errors[0] == errors[1] == (
            "contact: transition t69 puts a second token on place p70", "t69", "p70",
            frozenset({"p69", "p70"}))

    def test_diverging_rings_keep_their_cut(self):
        # three invisible rings at k=0: every process of at most 50 events,
        # the ones cut there saturated
        entries = cn.enumerate_processes(rings(3), 0)
        assert [(e.process.config, e.saturated) for e in entries] == [
            (e.process.config, e.saturated) for e in cn.enumerate_processes(rings(3), 0, 50)]
        assert (len(entries), sum(e.saturated for e in entries)) == (23426, 1326)


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


    def test_pomsets_match_one_at_a_time(self):
        # four self-loops labelled a: many visible sets, few colour-ordered forms
        loops = cn.make_net(
            places=[f"p{i}" for i in range(4)], transitions=[f"t{i}" for i in range(4)],
            flow=[(f"p{i}", f"t{i}") for i in range(4)] + [(f"t{i}", f"p{i}") for i in range(4)],
            initial_marking=[f"p{i}" for i in range(4)], labelling={f"t{i}": "a" for i in range(4)},
        )
        cases = [(cn.builtin(name), k) for name in cn.BUILTIN_NAMES for k in range(5)]
        for net, k in cases + [(loops, 7)]:
            processes = [e.process for e in cn.enumerate_processes(net, k)]
            assert cn.visible_pomsets(processes) == [cn.visible_pomset(p) for p in processes]

    def test_matches_canonicalize_on_every_shown_set(self):
        # _pomset against canonicalize of the index form built from
        # prefix.past, on both of its exits; m two-event a-chains give the
        # non-discrete exit forms with many equal colours
        cases = [(cn.builtin(name), k, None) for name in cn.BUILTIN_NAMES for k in range(7)]
        cases += [(loops(n, "a"), 7, None) for n in (4, 5, 6)]
        cases += [(chains(m), 2 * m, None) for m in range(2, 8)]
        cases += [(rings(3), 0, limit) for limit in (20, 25, 30)]
        corpus = _corpus()
        corpus += [cn.refine_transition(net, t)[0] for net in corpus for t in sorted(net.transitions)]
        cases += [(net, 3, CORPUS_EVENT_LIMIT) for net in corpus]
        exits = Counter()
        for net, k, event_limit in cases:
            processes = [e.process for e in cn.enumerate_processes(net, k, event_limit)]
            seen = set()
            for process, p in zip(processes, cn.visible_pomsets(processes)):
                visible = process.config & process.prefix.visible
                if visible in seen:
                    continue
                seen.add(visible)
                labels, pairs = visible_index_form(process)
                assert p == cn.canonicalize(labels, pairs)
                exits[discrete_colouring(labels, pairs)] += 1
        assert exits[True] >= 3700 and exits[False] >= 1700, exits

    def test_one_canonicalize_call_per_distinct_pomset(self, monkeypatch):
        # isomorphic visible sets whose colours sort alike share one form,
        # counted through the module global as a tracer sees it
        results = []
        canonicalize = cn.unfolding.canonicalize

        def spy(*args):
            results.append(canonicalize(*args))
            return results[-1]

        monkeypatch.setattr(cn.unfolding, "canonicalize", spy)
        for n, calls in ((4, 6), (5, 8), (6, 9)):
            results.clear()
            cn.bounded_observation(loops(n, "a"), 7)
            assert len(results) == len(set(results)) == calls


class TestCanonicalize:
    def test_renamed_copies_equal(self):
        o1 = NamedOrder(("x", "y"), {"x": "a", "y": "b"}, frozenset({("x", "y")}))
        o2 = NamedOrder(("u", "v"), {"v": "a", "u": "b"}, frozenset({("v", "u")}))
        assert canonical(o1) == canonical(o2)

    def test_order_differs(self):
        chain = NamedOrder(("x", "y"), {"x": "a", "y": "b"}, frozenset({("x", "y")}))
        anti = NamedOrder(("x", "y"), {"x": "a", "y": "b"}, frozenset())
        assert canonical(chain) != canonical(anti)

    def test_text_block(self):
        p = pomset("acb", [(0, 2), (1, 2)])
        assert p.text() == "events: e1:a e2:c e3:b\norder: e1<e3 e2<e3\n"
        assert cn.Pomset((), ()).text() == "events:\norder:\n"

    def test_direction_is_not_lost(self):
        down = pomset("ab", [(0, 1)])
        up = pomset("ba", [(0, 1)])
        assert down != up

    def test_validation(self):
        for labels, order in (
            ("a", [(0, 0)]),  # reflexive
            ("ab", [(0, 2)]),  # index past the last vertex
            ("ab", [(-1, 0)]),  # negative index
            ("aa", [(0, 1), (1, 0)]),  # a 2-cycle
            ("aaa", [(0, 1), (1, 2)]),  # not transitively closed
        ):
            with pytest.raises(ValueError):
                cn.canonicalize(labels, order)

    def test_duplicate_pairs_and_one_shot_orders(self):
        labels, order = "abca", [(0, 1), (0, 2), (1, 2), (3, 2)]
        p = cn.canonicalize(labels, order)
        assert cn.canonicalize(labels, order + [(1, 2), (0, 1)]) == p
        assert cn.canonicalize(labels, (pair for pair in order)) == p
        assert cn.canonicalize("aaaa", (pair for pair in [(0, 1), (2, 3)])) == (
            cn.canonicalize("aaaa", [(0, 1), (2, 3), (0, 1)]))

    def test_canonical_form_is_a_fixed_point(self):
        shown = []
        for name in cn.BUILTIN_NAMES:
            for k in range(5):
                entries = cn.enumerate_processes(cn.builtin(name), k)
                shown += cn.visible_pomsets(e.process for e in entries)
        rng = random.Random(1618)
        drawn = [canonical(random_lpo(rng)) for _ in range(500)]
        for p in shown + drawn:
            assert cn.canonicalize(p.labels, p.order) == p

    def test_heavily_symmetric_orders(self):
        import random

        rng = random.Random(5)
        anti = lpo_from("aaaaaaaa", [])
        assert canonical(anti) == canonical(shuffled_copy(rng, anti))
        # crown: top i above every bottom except i, all labels equal
        crown = lpo_from(
            "aaaaaaaa", [(t, 4 + b) for t in range(4) for b in range(4) if t != b]
        )
        shuffled = shuffled_copy(rng, crown)
        assert canonical(crown) == canonical(shuffled)
        assert brute_force_iso(crown, shuffled)
        complete = lpo_from(
            "aaaaaaaa", [(t, 4 + b) for t in range(4) for b in range(4)]
        )
        assert canonical(crown) != canonical(complete)
        assert not brute_force_iso(crown, complete)
        two_chains = lpo_from("aaaa", [(0, 1), (2, 3)])
        one_chain = lpo_from("aaaa", [(0, 1), (1, 2)])
        assert canonical(two_chains) != canonical(one_chain)
        for o in (anti, crown, shuffled, complete, two_chains, one_chain):
            assert canonical(o) == exhaustive_canonicalize(*index_form(o))

    def test_matches_the_exhaustive_search(self):
        # automorphism pruning skips only leaves that repeat an encoding, so
        # the least one is the full search's: on random orders, half all-a,
        # and their renamings, and on m disjoint a-chains of two and of
        # three events, whose m! symmetries are what the pruning skips
        rng = random.Random(1414)
        orders = []
        for i in range(400):
            o = random_lpo(rng, labels="a" if i % 2 else "abc")
            orders += [o, shuffled_copy(rng, o)]
        for length, most in ((2, 7), (3, 5)):
            for m in range(1, most + 1):
                orders.append(lpo_from("a" * length * m, [
                    (length * i + j, length * i + j + 1) for i in range(m) for j in range(length - 1)]))
        # disjoint cycles of k bottoms and k tops, top i above bottoms i and
        # i + 1 mod k: every vertex has two neighbours, so refinement keeps
        # the cycles' bottoms in one class though they lie in several orbits
        for ks in ((4, 2, 2), (5, 3, 2)):
            order, n = [], 0
            for k in ks:
                order += [(n + (i + d) % k, n + k + i) for i in range(k) for d in (0, 1)]
                n += 2 * k
            cycles = lpo_from("a" * n, order)
            orders += [cycles] + [shuffled_copy(rng, cycles) for _ in range(6)]
        for o in orders:
            labels, order = index_form(o)
            assert cn.canonicalize(labels, order) == exhaustive_canonicalize(labels, order)

    def test_leaves_on_disjoint_chains_grow_quadratically(self, monkeypatch):
        # m disjoint two-event a-chains have m! automorphisms and the full
        # search m! leaves; counted through the module global
        leaves = []
        encode = cn.unfolding._encode

        def spy(*args):
            leaves.append(args)
            return encode(*args)

        monkeypatch.setattr(cn.unfolding, "_encode", spy)
        for m in range(2, 9):
            leaves.clear()
            cn.canonicalize("a" * 2 * m, [(2 * i, 2 * i + 1) for i in range(m)])
            assert 0 < len(leaves) <= m * m, (m, len(leaves))

    def test_matches_brute_force_on_seeded_corpus(self):
        rng = random.Random(2718)
        agreements = {True: 0, False: 0}
        for i in range(160):
            o1 = random_lpo(rng, max_n=6)
            o2 = shuffled_copy(rng, o1) if i % 2 == 0 else random_lpo(rng, max_n=6)
            same = canonical(o1) == canonical(o2)
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
    return NamedOrder(verts, labels, frozenset(below))


@given(lpos(), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_canonical_form_is_invariant_under_renaming(o, rng):
    assert canonical(o) == canonical(shuffled_copy(rng, o))


@given(lpos(), lpos())
@settings(max_examples=80, deadline=None)
def test_canonical_equality_is_isomorphism(o1, o2):
    assert (canonical(o1) == canonical(o2)) == brute_force_iso(o1, o2)


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
            validate_process(net, e.process)
