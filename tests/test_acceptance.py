"""Acceptance suite: every verifiable claim about the bundled nets plus the
randomized cross-check corpora, one criterion per test.

Run under pytest, or standalone (``python tests/test_acceptance.py``) for a
plain PASS/FAIL line per criterion.
"""

import contextlib
import io
import random
import sys
from pathlib import Path

import pytest

import causalnets as cn
from causalnets.cli import main as cli_main
from causalnets.model import DepToken, DependencyMarking

from helpers import (
    ac_ordered_pairs,
    assert_valid_chain,
    assert_valid_distribution,
    brute_force_iso,
    canonical,
    marking_of,
    oracle_fire,
    oracle_step_enabled,
    random_lpo,
    random_net,
    random_dep_marking,
    random_tractable_nets,
    shuffled_copy,
    simple_cycles,
    tokens_of,
)

NETS = Path(__file__).resolve().parent.parent / "src" / "causalnets" / "nets"

CORPUS_SEED = 424242
CORPUS_SIZE = 100
CORPUS_EVENT_LIMIT = 12

CRITERIA = []


def criterion(slug, desc):
    def wrap(fn):
        CRITERIA.append((slug, desc, fn))
        return fn
    return wrap


def _cli(*argv):
    buf = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = cli_main(list(argv))
    return code, buf.getvalue(), err.getvalue()


def _net_file(name):
    return str(NETS / f"{name}.net")


def _dm(*tokens):
    return DependencyMarking(
        frozenset(DepToken(p, frozenset(deps)) for p, deps in tokens)
    )


def _corpus():
    return random_tractable_nets(
        seed=CORPUS_SEED, count=CORPUS_SIZE, event_limit=CORPUS_EVENT_LIMIT
    )


@criterion("state-space", "counterexample has exactly 5 dependency markings, bound 81")
def check_counterexample_state_space():
    net = cn.builtin("repeated_pure_m")
    graph = cn.explore_reachable(net, dependency=True)
    assert set(graph.nodes) == {
        _dm(("p", ""), ("q", "")),
        _dm(("p", "a"), ("q", "")),
        _dm(("p", ""), ("q", "c")),
        _dm(("p", "a"), ("q", "c")),
        _dm(),
    }
    assert len(graph.nodes) == 5
    assert graph.state_bound == (2**3 + 1) ** 2 == 81
    assert cn.state_bound(net) == 81
    assert graph.bound_respected
    code, out, _ = _cli("reach", _net_file("repeated_pure_m"), "--dependency")
    assert code == 0
    assert "nodes: 5" in out
    assert "bound: 81" in out
    assert "bound respected: yes" in out


@criterion("distributability", "verdicts and pure-M scans on all four bundled nets")
def check_distributability_verdicts():
    for name in ("pure_m", "repeated_pure_m"):
        net = cn.builtin(name)
        verdict = cn.check_distributed(net)
        assert not verdict.distributed
        assert verdict.chain == ("a", "b", "c")
        assert verdict.concurrent_endpoints == ("a", "c")
        assert_valid_chain(net, verdict)
        witnesses = cn.find_pure_m(net)
        assert [(w.left, w.middle, w.right) for w in witnesses] == [("a", "b", "c")]
    for name in ("centralised", "deadlocking"):
        net = cn.builtin(name)
        verdict = cn.check_distributed(net)
        assert verdict.distributed
        assert_valid_distribution(net, verdict)
        assert cn.find_pure_m(net) == []
    code, out, _ = _cli("distributed", _net_file("repeated_pure_m"))
    assert code == 1 and "chain: a -> b -> c" in out and "concurrent: (a, c)" in out
    code, out, _ = _cli("distributed", _net_file("centralised"))
    assert code == 0 and out.startswith("DISTRIBUTED")


@criterion("causality", "lock coupling is detected; the counterexample never orders a against c")
def check_causality_separation():
    fig2 = cn.builtin("repeated_pure_m")
    fig3 = cn.builtin("centralised")
    verdict = cn.compare(fig2, fig3, 4)
    assert not verdict.equivalent
    assert verdict.witness.side == "right"
    assert ac_ordered_pairs(verdict.witness.pomset), (
        "witness must order an a-event against a c-event"
    )
    for k in range(7):
        for entry in cn.enumerate_processes(fig2, k):
            pomset = cn.visible_pomset(entry.process)
            assert not ac_ordered_pairs(pomset)
    code, out, _ = _cli(
        "compare", _net_file("repeated_pure_m"), _net_file("centralised"), "-k", "4"
    )
    assert code == 1 and out.startswith("INEQUIVALENT (bound 4)")


@criterion("local-deadlock", "hidden commit strands a in the deadlocking net; others are clean")
def check_local_deadlock():
    witnesses = cn.find_local_deadlock(cn.builtin("deadlocking"))
    assert any(
        w.trace == ("tau1",) and w.dead_label == "a" and "c" in w.live_labels
        for w in witnesses
    )
    for name in ("pure_m", "repeated_pure_m", "centralised"):
        assert cn.find_local_deadlock(cn.builtin(name)) == []
        code, out, _ = _cli("deadlock", _net_file(name))
        assert code == 0 and "deadlock:" not in out
    code, out, _ = _cli("deadlock", _net_file("deadlocking"))
    assert code == 1
    assert "deadlock: trace=[tau1] marking={pb,qc} dead=a live={b,c}" in out


@criterion("refinement", "invisible-prefix refinement preserves every checked property")
def check_refinement_suite():
    fig2 = cn.builtin("repeated_pure_m")
    jobs = [(fig2, t) for t in ("a", "b", "c")]
    corpus = _corpus()
    for net in corpus:
        jobs.extend((net, t) for t in sorted(net.transitions))
    # Most corpus nets enable nothing; pin how many give the comparison
    # something to compare, so that a corpus change fails here instead of
    # turning this criterion into a no-op.
    processes = [cn.enumerate_processes(net, 3, CORPUS_EVENT_LIMIT) for net in corpus]
    with_events = sum(any(e.process.event_count for e in entries) for entries in processes)
    with_visible = sum(any(e.process.visible_count for e in entries) for entries in processes)
    assert (with_events, with_visible) == (34, 27), (
        f"{with_events} corpus nets with a non-empty process at k=3, "
        f"{with_visible} with a visible event"
    )
    failures = 0
    for net, t in jobs:
        refined, record = cn.refine_transition(net, t)
        base_verdict = cn.check_distributed(net)
        try:
            assert record.new_place in refined.places
            assert record.new_tau in refined.transitions
            assert cn.check_contact_free(refined).ok
            assert cn.check_distributed(refined).distributed == base_verdict.distributed
            before = cn.bounded_observation(net, 3, event_limit=CORPUS_EVENT_LIMIT)
            after = cn.bounded_observation(refined, 3, event_limit=CORPUS_EVENT_LIMIT)
            assert before.complete == after.complete
            assert before.partial == after.partial
            assert before.divergent == after.divergent
        except AssertionError:
            failures += 1
    assert failures == 0, f"{failures} refinement jobs failed"


@criterion("cycle-dependency", "no reach-graph cycle violates the dependency-equality property")
def check_cycle_dependency_suite():
    nets = [cn.builtin(name) for name in cn.BUILTIN_NAMES] + _corpus()
    cyclic = 0
    for net in nets:
        graph = cn.explore_reachable(net, dependency=True, state_limit=10**5)
        assert not graph.limit_exceeded
        assert cn.check_cycle_dependency(net, graph) == []
        cyclic += next(simple_cycles(graph), None) is not None
    # Only a graph with a cycle exercises the check (three bundled nets and
    # 19 corpus nets): pin the count, so that a corpus change fails here
    # instead of passing vacuously.
    assert cyclic == 3 + 19, f"{cyclic} dependency graphs with a cycle"


@criterion("oracles", "step rule and pomset identity match independent oracles")
def check_oracle_equivalence():
    rng = random.Random(1729)
    enabled_seen = 0
    for _ in range(1000):
        net = random_net(rng)
        marking = random_dep_marking(rng, net)
        size = rng.randint(1, min(3, len(net.transitions)))
        step = frozenset(rng.sample(sorted(net.transitions), size))
        expected = oracle_step_enabled(net, tokens_of(marking), step)
        assert cn.step_enabled(net, marking, step) == expected
        if expected:
            enabled_seen += 1
            assert tokens_of(cn.fire_step(net, marking, step)) == oracle_fire(
                net, tokens_of(marking), step
            )
        else:
            try:
                cn.fire_step(net, marking, step)
            except cn.NotEnabledError:
                pass
            else:
                raise AssertionError("firing a disabled step must fail")
    assert enabled_seen >= 100, "triple generator must exercise enabled steps"

    rng = random.Random(6174)
    iso_seen = non_iso_seen = 0
    for i in range(500):
        first = random_lpo(rng, max_n=8)
        second = shuffled_copy(rng, first) if i % 2 == 0 else random_lpo(rng, max_n=8)
        same = canonical(first) == canonical(second)
        assert same == brute_force_iso(first, second)
        if same:
            iso_seen += 1
        else:
            non_iso_seen += 1
    assert iso_seen >= 100 and non_iso_seen >= 100


@criterion("self-equivalence", "every bundled net equals itself at all bounds; refutations persist")
def check_self_equivalence_and_monotonicity():
    for name in cn.BUILTIN_NAMES:
        net = cn.builtin(name)
        for k in range(5):
            verdict = cn.compare(net, net, k)
            assert verdict.equivalent, f"{name} at bound {k}"
    fig2 = cn.builtin("repeated_pure_m")
    fig3 = cn.builtin("centralised")
    complete_refuted = [
        k for k in range(6)
        if not (v := cn.compare(fig2, fig3, k)).equivalent and v.witness.kind == "complete"
    ]
    assert complete_refuted, "expected a complete-set refutation at some bound"
    for k in complete_refuted:
        assert not cn.compare(fig2, fig3, k + 1).equivalent


@pytest.mark.parametrize(
    "slug,desc,check", CRITERIA, ids=[slug for slug, _, _ in CRITERIA]
)
def test_acceptance(slug, desc, check):
    check()
    print(f"PASS [{slug}]: {desc}")


if __name__ == "__main__":
    failed = 0
    for slug, desc, check in CRITERIA:
        try:
            check()
        except Exception as exc:  # noqa: BLE001 - report and continue
            failed += 1
            print(f"FAIL [{slug}]: {desc} -- {exc}")
        else:
            print(f"PASS [{slug}]: {desc}")
    sys.exit(1 if failed else 0)
