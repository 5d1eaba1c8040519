"""Net model: parsing, serialization, pre/post sets, contact-freeness."""

import pytest
from hypothesis import given, settings, strategies as st

import causalnets as cn
from causalnets.model import NetParseError, UnknownElementError

from helpers import brute_force_contact_free, net_end, occ_net, process_of_run, random_net

FIG2_TEXT = """\
place p *
place q *
trans a : a
trans b : b
trans c : c
arc p -> a
arc a -> p
arc p -> b
arc q -> b
arc q -> c
arc c -> q
"""


def fig2():
    return cn.builtin("repeated_pure_m")


class TestParse:
    def test_two_place_conflict_net(self):
        net = cn.parse_net(FIG2_TEXT)
        assert net.places == {"p", "q"}
        assert net.transitions == {"a", "b", "c"}
        assert net.initial_marking == {"p", "q"}
        assert cn.preset(net, "a") == {"p"}
        assert cn.postset(net, "a") == {"p"}
        assert cn.preset(net, "b") == {"p", "q"}
        assert cn.postset(net, "b") == frozenset()
        assert cn.preset(net, "c") == {"q"}
        assert cn.postset(net, "c") == {"q"}
        assert net == fig2()

    def test_empty_input(self):
        net = cn.parse_net("")
        assert net.places == frozenset()
        assert net.transitions == frozenset()
        assert net.flow == frozenset()
        assert net.initial_marking == frozenset()

    def test_unlabelled_transition_is_invisible(self):
        net = cn.parse_net("trans t\n")
        assert net.labelling["t"] == cn.TAU

    def test_comments_and_blank_lines(self):
        net = cn.parse_net("# a comment\n\nplace p *  # marked\ntrans t : a\narc p -> t\n")
        assert net.initial_marking == {"p"}
        assert ("p", "t") in net.flow

    def test_unknown_id_in_arc(self):
        with pytest.raises(NetParseError) as exc:
            cn.parse_net("trans t\narc p -> t\n")
        assert exc.value.line == 2
        assert "unknown id" in exc.value.message

    def test_forward_reference_rejected(self):
        with pytest.raises(NetParseError):
            cn.parse_net("place p\narc p -> t\ntrans t\n")

    def test_duplicate_arc(self):
        with pytest.raises(NetParseError, match="duplicate arc"):
            cn.parse_net("place p\ntrans t\narc p -> t\narc p -> t\n")

    def test_duplicate_declaration(self):
        with pytest.raises(NetParseError, match="duplicate declaration"):
            cn.parse_net("place p\nplace p\n")
        with pytest.raises(NetParseError, match="duplicate declaration"):
            cn.parse_net("place x\ntrans x\n")

    def test_place_place_arc(self):
        with pytest.raises(NetParseError, match="two places"):
            cn.parse_net("place p\nplace q\narc p -> q\n")

    def test_transition_transition_arc(self):
        with pytest.raises(NetParseError, match="two transitions"):
            cn.parse_net("trans t\ntrans u\narc t -> u\n")

    def test_tau_label_reserved(self):
        with pytest.raises(NetParseError, match="reserved"):
            cn.parse_net("trans t : tau\n")

    def test_syntax_error_has_position(self):
        with pytest.raises(NetParseError) as exc:
            cn.parse_net("place p\nwhatever x\n")
        assert exc.value.line == 2
        assert exc.value.column == 1

    def test_bad_identifier(self):
        with pytest.raises(NetParseError):
            cn.parse_net("place p-1\n")


class TestSerialize:
    def test_round_trip_fig2(self):
        assert cn.parse_net(cn.serialize_net(fig2())) == fig2()

    def test_deterministic_sorted_output(self):
        assert cn.serialize_net(fig2()) == (
            "place p *\n"
            "place q *\n"
            "trans a : a\n"
            "trans b : b\n"
            "trans c : c\n"
            "arc a -> p\n"
            "arc c -> q\n"
            "arc p -> a\n"
            "arc p -> b\n"
            "arc q -> b\n"
            "arc q -> c\n"
        )

    def test_empty_net(self):
        assert cn.serialize_net(cn.make_net()) == ""

    def test_refined_net_contains_fresh_ids(self):
        refined, record = cn.refine_transition(fig2(), "b")
        text = cn.serialize_net(refined)
        assert "place s_b" in text
        assert "trans tau_b" in text
        assert cn.parse_net(text) == refined
        assert record.new_place == "s_b" and record.new_tau == "tau_b"


class TestPrePost:
    def test_isolated_place(self):
        net = cn.make_net(places=["p"])
        assert cn.preset(net, "p") == frozenset()
        assert cn.postset(net, "p") == frozenset()

    def test_isolated_transition_postset(self):
        net = cn.make_net(places=["p"], transitions=["t"], flow=[("p", "t")])
        assert cn.postset(net, "t") == frozenset()

    def test_set_extension(self):
        net = fig2()
        assert cn.preset(net, {"a", "b"}) == {"p", "q"}
        assert cn.postset(net, {"p", "q"}) == {"a", "b", "c"}

    def test_unknown_element(self):
        with pytest.raises(UnknownElementError):
            cn.preset(fig2(), "nope")
        with pytest.raises(UnknownElementError):
            cn.postset(fig2(), "nope")


class TestNetEnd:
    def test_fig2_has_no_end(self):
        assert net_end(fig2()) == frozenset()

    def test_single_place_net(self):
        net = cn.make_net(places=["p"], initial_marking=["p"])
        assert net_end(net) == {"p"}

    def test_occurrence_net_of_full_run(self):
        process = process_of_run(fig2(), ["a", "c", "b"])
        assert net_end(occ_net(process)) == frozenset()


class TestContactFree:
    def test_fig2(self):
        assert cn.check_contact_free(fig2()).ok

    def test_constructed_violation(self):
        net = cn.make_net(
            places=["p", "r"], transitions=["t"], flow=[("p", "t"), ("t", "r")],
            initial_marking=["p", "r"],
        )
        verdict = cn.check_contact_free(net)
        assert verdict.status == "violation"
        assert verdict.marking == {"p", "r"}
        assert verdict.transition == "t"

    def test_centralised_builtin(self):
        assert cn.check_contact_free(cn.builtin("centralised")).ok

    def test_limit(self):
        assert cn.check_contact_free(fig2(), state_limit=1).status == "limit_exceeded"
        with pytest.raises(ValueError):
            cn.check_contact_free(fig2(), state_limit=0)

    def test_agrees_with_subset_enumeration_oracle(self):
        import random

        rng = random.Random(20240817)
        checked = 0
        for _ in range(120):
            net = random_net(rng, max_places=5, max_transitions=4)
            expected, _ = brute_force_contact_free(net)
            assert cn.check_contact_free(net).ok == expected
            checked += 1
        assert checked == 120


# --- property tests -----------------------------------------------------------

ids = st.text(alphabet="abcdefgh", min_size=1, max_size=3)


@st.composite
def nets(draw):
    places = draw(st.sets(ids.map(lambda s: "P_" + s), min_size=0, max_size=5))
    transitions = draw(st.sets(ids.map(lambda s: "T_" + s), min_size=0, max_size=5))
    flow = set()
    for t in transitions:
        for s in draw(st.sets(st.sampled_from(sorted(places)), max_size=3)) if places else []:
            flow.add((s, t))
        for s in draw(st.sets(st.sampled_from(sorted(places)), max_size=3)) if places else []:
            flow.add((t, s))
    marking = draw(st.sets(st.sampled_from(sorted(places)), max_size=5)) if places else set()
    labelling = {
        t: draw(st.sampled_from([cn.TAU, "a", "b", "c"])) for t in sorted(transitions)
    }
    return cn.make_net(places, transitions, flow, marking, labelling)


@given(nets())
@settings(max_examples=120)
def test_round_trip(net):
    assert cn.parse_net(cn.serialize_net(net)) == net


@given(nets())
@settings(max_examples=120)
def test_preset_postset_duality(net):
    for x in net.places | net.transitions:
        for y in cn.preset(net, x):
            assert x in cn.postset(net, y)
        for y in cn.postset(net, x):
            assert x in cn.preset(net, y)


@given(nets())
@settings(max_examples=120)
def test_net_end_matches_arc_scan(net):
    expected = {s for s in net.places if not any(src == s for src, _ in net.flow)}
    assert net_end(net) == expected
