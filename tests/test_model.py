"""Net model: parsing, serialization, pre/post sets, the transition table, contact-freeness."""

import hashlib
import random
import re
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import causalnets as cn
from causalnets.model import NetParseError, UnknownElementError

from helpers import (
    brute_force_contact_free, loops, net_end, occ_net, oracle_fire, oracle_step_enabled,
    process_of_run, random_net, rings, tokens_of,
)

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


def dm(*tokens):
    return cn.DependencyMarking(frozenset(cn.DepToken(p, frozenset(deps)) for p, deps in tokens))


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

    # (text, message, line, column): one or more inputs per NetParseError branch
    ERRORS = [
        ("place", "expected an identifier", 1, 6),
        ("place p-1", "invalid identifier 'p-1'", 1, 7),
        ("place p x", "expected end of line or '*'", 1, 9),
        ("place p * x", "expected end of line or '*'", 1, 11),
        ("place p * *", "expected end of line or '*'", 1, 11),
        ("  place p * x  # c", "expected end of line or '*'", 1, 13),
        ("place p\nplace p", "duplicate declaration of 'p'", 2, 7),
        ("place x\ntrans x", "duplicate declaration of 'x'", 2, 7),
        ("trans t : tau", "'tau' is reserved for the invisible label", 1, 11),
        ("trans t a", "expected 'trans <id>' or 'trans <id> : <label>'", 1, 9),
        ("trans t :", "expected 'trans <id>' or 'trans <id> : <label>'", 1, 9),
        ("trans t : a b", "expected 'trans <id>' or 'trans <id> : <label>'", 1, 9),
        ("place p\ntrans t\narc p t", "expected '->'", 3, 7),
        ("place p\narc p", "expected '->'", 2, 6),
        ("place p\narc p ->", "expected an identifier", 2, 9),
        ("place p\ntrans t\narc p -> t x", "unexpected trailing text", 3, 12),
        ("trans t\narc p -> t", "unknown id 'p' in arc", 2, 5),
        ("place p\narc p -> t", "unknown id 't' in arc", 2, 10),
        ("place p\nplace q\narc p -> q", "arc connects two places", 3, 5),
        ("trans t\ntrans u\narc t -> u", "arc connects two transitions", 3, 5),
        ("place p\ntrans t\narc p -> t\narc p -> t", "duplicate arc p -> t", 4, 5),
        ("place p\nwhatever x", "unknown directive 'whatever'", 2, 1),
    ]

    @pytest.mark.parametrize("text, message, line, column", ERRORS, ids=[e[0] for e in ERRORS])
    def test_error_position_pinned(self, text, message, line, column):
        with pytest.raises(NetParseError) as exc:
            cn.parse_net(text)
        assert (exc.value.message, exc.value.line, exc.value.column) == (message, line, column)
        assert str(exc.value) == f"line {line}, column {column}: {message}"


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


def table_nets():
    rng = random.Random(41)
    drawn = [random_net(rng, max_places=6, max_transitions=6) for _ in range(200)]
    assert sum(not cn.check_contact_free(net).ok for net in drawn) >= 20  # contact nets too
    return (
        [cn.builtin(name) for name in cn.BUILTIN_NAMES]
        + [loops(n) for n in (1, 4, 11)] + [rings(k) for k in (1, 3)] + drawn
        + [
            # t has no input, u no output, v neither
            cn.make_net(["p"], ["t", "u", "v"], [("t", "p"), ("p", "u")], labelling={"t": "a"}),
            # q is isolated
            cn.make_net(["p", "q"], ["t"], [("p", "t"), ("t", "p")], ["p"]),
            cn.make_net(),
        ]
    )


class TestTable:
    """The per-net table the firing loops read, against a transcription of
    ``net.flow``."""

    def test_matches_flow(self):
        for net in table_nets():
            table = net._table
            places, ts = sorted(net.places), sorted(net.transitions)
            pre = {t: {p for p, x in net.flow if x == t} for t in ts}
            post = {t: {p for x, p in net.flow if x == t} for t in ts}
            visible = {t: net.labelling[t] != cn.TAU for t in ts}

            def mask(ps):
                return sum(2 ** places.index(p) for p in ps)

            assert table.places == tuple(places)
            assert table.bit == {p: 2 ** places.index(p) for p in places}
            assert list(table.moves) == ts
            assert table.moves == {
                t: (tuple(sorted(pre[t])), tuple(sorted(post[t])),
                    mask(pre[t]), mask(post[t]), visible[t]) for t in ts}
            for m in (frozenset(c) for r in range(len(places) + 1)
                      for c in combinations(places, r)):
                assert table.mask(m) == mask(m) and table.marking(mask(m)) == m
                assert table.covered(mask(m)) == [
                    (t, mask((m - pre[t]) & post[t]), visible[t]) for t in ts if pre[t] <= m]
            assert table.later == {
                t: {u for u in ts if t < u and not pre[t] & pre[u] and not post[t] & post[u]}
                for t in ts}
            assert table.sharing == {t: {u for u in ts if u != t and pre[t] & pre[u]} for t in ts}

    def test_relations_are_frozen_and_sharing_symmetric(self):
        for net in table_nets():
            later, sharing = net._table.later, net._table.sharing
            assert all(type(v) is frozenset for v in [*later.values(), *sharing.values()])
            assert all(t not in us and all(t in sharing[u] for u in us)
                       for t, us in sharing.items())

    def test_built_once_per_net(self):
        net = cn.builtin("centralised")
        assert net._table is net._table
        assert net._table.later is net._table.later and net._table.sharing is net._table.sharing


class TestDependencyCode:
    """A dependency marking as one int, against a transcription of the layout:
    with n places and w visible labels, the i-th sorted place owns bit i,
    set while it is marked, and the field of bits n + i * w to n + i * w +
    w - 1, holding 1 << j for the j-th sorted visible label its token
    depends on."""

    def test_round_trip_layout_and_effect(self):
        rng = random.Random(43)
        nets = [cn.builtin(name) for name in cn.BUILTIN_NAMES]
        nets += [random_net(rng) for _ in range(200)]
        fired = 0
        for net in nets:
            table = net._table
            places, labels = sorted(net.places), sorted(net.visible_labels)
            width = len(labels)
            graph = cn.explore_reachable(net, dependency=True, state_limit=10**4)
            codes = [table.encode(m) for m in graph.nodes]
            assert len(set(codes)) == len(codes)
            assert codes[0] == table.mask(net.initial_marking)
            for m, code in zip(graph.nodes, codes):
                assert code == sum(
                    1 << places.index(tok.place)
                    | sum(1 << labels.index(a) for a in tok.deps)
                    << len(places) + places.index(tok.place) * width
                    for tok in m.tokens)
                assert table.decode(code) == m
                assert table.covered(code) == table.covered(table.mask(m.places))
                assert table.marking(code) == m.places
                for t in sorted(net.transitions):
                    if oracle_step_enabled(net, tokens_of(m), {t}):
                        took, put = table.effect(code, t)
                        after = table.decode(code - took | put)
                        assert tokens_of(after) == oracle_fire(net, tokens_of(m), {t})
                        fired += 1
        assert fired >= 500

    def test_unknown_places_and_labels_named(self):
        table = fig2()._table
        with pytest.raises(UnknownElementError,
                           match=re.escape("unknown places ['zz'] or labels [] in marking")):
            table.encode(dm(("p", "a"), ("zz", "")))
        with pytest.raises(UnknownElementError, match=re.escape(
                "unknown places ['zz'] or labels ['tau', 'x'] in marking")):
            table.encode(dm(("p", "x"), ("zz", ("tau",))))


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
        with pytest.raises(cn.LimitExceededError, match=r"^state limit 1 exceeded$"):
            cn.check_contact_free(fig2(), state_limit=1)
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


# words of the net format, and separators that str.splitlines breaks on or
# that the parser's tokenizer treats as whitespace
PARSE_PIECES = (
    "place", "trans", "arc", "p", "q", "t", "a", "tau", "x-y", "\xe9", "->", ":", "*", "#",
    " ", "  ", "\t", "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x85", "\u2028",
)


# what a seeded token mutation puts in place of or after a token: ids the
# parser rejects, and words it reads only in one position
BAD_IDS = ("p-1", "x.y", "\xe9", "->", ":", "*", "tau")


def _mutated(rng: random.Random, text: str) -> str:
    """``text`` after one to three token mutations: drop, duplicate or swap
    a token, or put a bad id, a tab or a ``#`` comment at one."""
    pieces = re.split(r"(\s+)", text)  # tokens at even positions, whitespace between
    for _ in range(rng.randint(1, 3)):
        i, j = rng.randrange(0, len(pieces), 2), rng.randrange(0, len(pieces), 2)
        kind = rng.randrange(6)
        if kind == 0:
            pieces[i] = ""
        elif kind == 1:
            pieces[i] = rng.choice((f"{pieces[i]} {pieces[i]}", f"{pieces[i]}\n{pieces[i]}"))
        elif kind == 2:
            pieces[i], pieces[j] = pieces[j], pieces[i]
        elif kind == 3:
            pieces[i] = rng.choice((f"{pieces[i]} ", "")) + rng.choice(BAD_IDS)
        elif kind == 4:
            pieces[i] = rng.choice(("\t", " \t")) + pieces[i]
        else:
            pieces[i] += " # c" + pieces[j]
    return "".join(pieces)


def test_parse_error_bytes_pinned():
    # 2,000 seeded broken inputs, mutated from the bundled nets and
    # random_net draws: each error's line, column and message are pinned,
    # so a rewrite of the tokeniser must keep them byte for byte
    rng = random.Random(17)
    texts = [cn.serialize_net(cn.builtin(name)) for name in cn.BUILTIN_NAMES]
    texts += [cn.serialize_net(random_net(rng, max_places=5, max_transitions=5))
              for _ in range(60)]
    rows = []
    while len(rows) < 2000:
        try:
            cn.parse_net(_mutated(rng, rng.choice(texts)))
        except NetParseError as exc:
            rows.append(f"{exc.line}:{exc.column}:{exc.message}\n")
    # every kind of message TestParse.ERRORS pins by hand is among them
    kind = re.compile(r"'[^']*'|\S+ -> \S+")
    assert {kind.sub("_", row.split(":", 2)[2]) for row in rows} >= {
        kind.sub("_", message) + "\n" for _, message, _, _ in TestParse.ERRORS}
    assert hashlib.sha256("".join(rows).encode()).hexdigest() == (
        "3d8d37a25cb41423fda9b2b88cdaea176510c243fbd20d4ce401b85e2be22107")


@given(st.lists(st.one_of(st.sampled_from(PARSE_PIECES), st.text(max_size=3)), max_size=40))
@settings(max_examples=250, deadline=None)
def test_parse_raises_only_parse_errors(pieces):
    try:
        net = cn.parse_net("".join(pieces))
    except NetParseError as exc:
        assert exc.line >= 1 and exc.column >= 1
    else:
        assert isinstance(net, cn.LabelledNet)
