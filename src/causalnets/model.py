"""Data model, textual format, and validation for finite labelled Petri nets.

A labelled net is a bipartite graph of places and transitions with a flow
relation, an initial marking, and a labelling that maps every transition to
a visible action label or to the reserved invisible label ``tau``.

Plain markings are sets of place ids.  To track causality, tokens can be
decorated with the set of visible labels that contributed to their
existence; a set of such tokens is a dependency marking.
"""

from __future__ import annotations

import re
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

__all__ = (
    "TAU", "ContactError", "ContactVerdict", "DepToken", "DependencyMarking", "LabelledNet",
    "NetError", "NetParseError", "UnknownElementError", "check_contact_free",
    "initial_dependency_marking", "make_net", "parse_net", "postset", "preset",
    "serialize_net",
)

TAU = "tau"

DEFAULT_STATE_LIMIT = 10**6

_ID_RE = re.compile(r"[A-Za-z0-9_]+\Z")


class NetError(Exception):
    """Base class for all errors raised by this package."""


class NetParseError(NetError):
    """Raised on malformed net text; carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class UnknownElementError(NetError):
    """Raised when an operation references an id absent from the net."""


class ContactError(NetError):
    """Raised when firing ``transition`` at the plain ``marking`` would put
    a second token on ``place``: the net is not 1-safe there."""

    def __init__(self, transition: str, place: str, marking: frozenset[str]):
        super().__init__(f"contact: transition {transition} puts a second token on place {place}")
        self.transition = transition
        self.place = place
        self.marking = marking


class _Table:
    """What the firing loops read about a net, built once.  ``places`` lists the places
    in sorted order and ``bit`` gives the i-th one bit i; ``moves`` maps each transition, in
    sorted order, to its sorted preset and postset, their masks and its visibility, and
    ``step_bit`` gives the k-th one bit k.  ``covered`` is the firing rule.

    A dependency marking is coded as one int, read only by this class: its
    place mask, and above it per place in sorted order a field of ``|visible
    labels|`` bits at ``offset[place]`` holding the ``label_bit`` (1 << j for
    the j-th label) of each label its token depends on."""

    def __init__(self, net: LabelledNet):
        self.places = tuple(sorted(net.places))
        self.bit = {p: 1 << i for i, p in enumerate(self.places)}
        self.labelling = net.labelling
        labels = sorted(net.visible_labels)
        self.label_bit = {a: 1 << j for j, a in enumerate(labels)}
        self.full = (1 << len(labels)) - 1
        self.offset = {p: len(self.places) + i * len(labels) for i, p in enumerate(self.places)}
        self.label_sets: dict[int, frozenset[str]] = {}  # the decoder's, per field value
        self.names: dict[tuple, tuple] = {}  # unfolding's event names, interned
        self.moves = {}
        for t in sorted(net.transitions):
            pre, post = sorted(net._preset[t]), sorted(net._postset[t])
            self.moves[t] = (tuple(pre), tuple(post), self.mask(pre), self.mask(post),
                             net.labelling[t] != TAU)
        self.step_bit = {t: 1 << k for k, t in enumerate(self.moves)}

    def mask(self, places: Iterable[str]) -> int:
        return sum(self.bit[p] for p in places)

    def marking(self, mask: int) -> frozenset[str]:
        """The places a place mask, or a dependency code, marks."""
        return frozenset([p for p, b in self.bit.items() if mask & b])

    def encode(self, marking: DependencyMarking) -> int:
        """The code of a dependency marking."""
        try:
            return sum(self.bit[p] | sum(map(self.label_bit.__getitem__, deps)) << self.offset[p]
                       for p, deps in marking.tokens)
        except KeyError:
            labels = {a for tok in marking.tokens for a in tok.deps} - self.label_bit.keys()
            places = marking.places - self.bit.keys()
            raise UnknownElementError(
                f"unknown places {sorted(places)} or labels {sorted(labels)} in marking") from None

    def decode(self, code: int) -> DependencyMarking:
        """The dependency marking with this code."""
        tokens, full, memo = [], self.full, self.label_sets
        for p, b in self.bit.items():
            if code & b:
                if (deps := code >> self.offset[p] & full) not in memo:
                    memo[deps] = frozenset(a for a, j in self.label_bit.items() if deps & j)
                tokens.append(DepToken(p, memo[deps]))
        return DependencyMarking(frozenset(tokens))

    def covered(self, marked: int) -> list[tuple[str, int, bool]]:
        """``(t, contact, visible)`` in sorted order for each transition whose
        preset the place mask (or dependency code) ``marked`` covers; ``contact``
        masks its pure postset places that are marked already.  ``t`` may fire
        exactly when ``contact`` is 0: otherwise it would put a second token."""
        return [(t, marked - pre & post, visible)  # marked - pre: pre is marked
                for t, (_, _, pre, post, visible) in self.moves.items() if pre & marked == pre]

    def contact(self, t: str, contact: int, marked: int) -> ContactError:
        """The error for ``t`` firing at the place mask (or dependency code)
        ``marked`` with the nonzero ``contact`` mask ``covered`` gave it: it
        names the least place in contact."""
        return ContactError(t, min(self.marking(contact)), self.marking(marked))

    @cached_property
    def later(self) -> dict[str, int]:
        """Per transition, the mask of the later ones with disjoint presets and postsets."""
        moves = list(self.moves.items())
        return {t: sum(self.step_bit[u] for u, (_, _, upre, upost, _) in moves[k + 1:]
                       if not (pre & upre or post & upost))
                for k, (t, (_, _, pre, post, _)) in enumerate(moves)}

    @cached_property
    def flows(self) -> dict[str, tuple[int, tuple[int, ...], int, int, int]]:
        """Per transition: its preset's bits and fields as one mask, the fields'
        offsets, its postset mask and spread (a field value times the spread
        is that value in every postset field) and its label's bit."""
        full, offset = self.full, self.offset
        return {t: (pre_mask | sum(full << offset[p] for p in pre), tuple(offset[p] for p in pre),
                    post_mask, sum(1 << offset[s] for s in post),
                    self.label_bit.get(self.labelling[t], 0))
                for t, (pre, post, pre_mask, post_mask, _) in self.moves.items()}

    def effect(self, code: int, t: str) -> tuple[int, int]:
        """What enabled ``t`` takes from the dependency code ``code`` and what
        it puts: tokens depending on its visible label and on all the taken
        ones depend on.  The successor's code is ``code - took | put``."""
        take, offsets, post, spread, deps = self.flows[t]
        for off in offsets:
            deps |= code >> off
        return code & take, post | (deps & self.full) * spread

    def keeps(self, t: str, nodes: Sequence[DependencyMarking], i: int,
              codes: dict[int, int]) -> bool:
        """Whether ``t``, enabled at the dependency marking ``nodes[i]``, puts
        only tokens depending on just what each taken one depends on.  The
        marking is encoded only when that can fail, once: ``codes`` keeps its
        code under ``i``."""
        _, offsets, post, spread, label = self.flows[t]
        if not post or not label and len(offsets) < 2:
            return True  # puts nothing, or invisibly puts back the one token it took
        code = codes.get(i)
        if code is None:
            code = codes[i] = self.encode(nodes[i])
        took, put = self.effect(code, t)
        return all(took >> off & self.full == put // spread for off in offsets)

    @cached_property
    def sharing(self) -> dict[str, frozenset[str]]:
        """Per transition, the other ones sharing a preset place with it."""
        pre = {t: move[2] for t, move in self.moves.items()}
        return {t: frozenset(u for u in pre if u != t and pre[t] & pre[u]) for t in pre}


class _LabelledNetFields(NamedTuple):
    places: frozenset[str]
    transitions: frozenset[str]
    flow: frozenset[tuple[str, str]]
    initial_marking: frozenset[str]
    labelling: Mapping[str, str]


def _immutable(self, name, value=None):
    raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")


class LabelledNet(_LabelledNetFields):
    """A finite labelled Petri net, a named tuple of its five fields.

    All fields are immutable; construction validates the structural
    invariants (disjoint ids, well-formed arcs, marking within places,
    total labelling over the reserved id alphabet).
    """

    __setattr__ = __delattr__ = _immutable  # the cached properties write __dict__ directly

    def __new__(cls, places: frozenset[str], transitions: frozenset[str],
                flow: frozenset[tuple[str, str]], initial_marking: frozenset[str],
                labelling: Mapping[str, str]):
        self = super().__new__(cls, places, transitions, flow, initial_marking,
                               MappingProxyType(dict(labelling)))
        overlap = places & transitions
        if overlap:
            raise ValueError(f"ids used as both place and transition: {sorted(overlap)}")
        for x in list(places) + list(transitions):
            if not _ID_RE.match(x):
                raise ValueError(f"invalid id {x!r}")
        for src, dst in flow:
            if not (
                (src in places and dst in transitions)
                or (src in transitions and dst in places)
            ):
                raise ValueError(f"arc {src} -> {dst} must connect one place and one transition")
        if not initial_marking <= places:
            extra = sorted(initial_marking - places)
            raise ValueError(f"initial marking uses unknown places: {extra}")
        if set(self.labelling) != transitions:
            raise ValueError("labelling must be total on transitions and nothing else")
        for t, lab in self.labelling.items():
            if lab != TAU and not _ID_RE.match(lab):
                raise ValueError(f"invalid label {lab!r} on transition {t}")
        return self

    def __hash__(self):
        return hash(
            (self.places, self.transitions, self.flow, self.initial_marking,
             tuple(sorted(self.labelling.items())))
        )

    @cached_property
    def _preset(self) -> dict[str, frozenset[str]]:
        pre: dict[str, set[str]] = {x: set() for x in self.places | self.transitions}
        for src, dst in self.flow:
            pre[dst].add(src)
        return {x: frozenset(v) for x, v in pre.items()}

    @cached_property
    def _postset(self) -> dict[str, frozenset[str]]:
        post: dict[str, set[str]] = {x: set() for x in self.places | self.transitions}
        for src, dst in self.flow:
            post[src].add(dst)
        return {x: frozenset(v) for x, v in post.items()}

    _table = cached_property(_Table)  # built on first use

    @cached_property
    def visible_labels(self) -> frozenset[str]:
        return frozenset(lab for lab in self.labelling.values() if lab != TAU)


def make_net(
    places: Iterable[str] = (),
    transitions: Iterable[str] = (),
    flow: Iterable[tuple[str, str]] = (),
    initial_marking: Iterable[str] = (),
    labelling: Mapping[str, str] | None = None,
) -> LabelledNet:
    """Convenience constructor coercing plain iterables to a LabelledNet.

    Transitions missing from ``labelling`` get the invisible label.
    """
    transitions = frozenset(transitions)
    labelling = dict(labelling or {})
    for t in transitions:
        labelling.setdefault(t, TAU)
    return LabelledNet(
        places=frozenset(places),
        transitions=transitions,
        flow=frozenset((src, dst) for src, dst in flow),
        initial_marking=frozenset(initial_marking),
        labelling=labelling,
    )


def _adjacent(relation: Mapping[str, frozenset[str]], x) -> frozenset[str]:
    if isinstance(x, str):
        try:
            return relation[x]
        except KeyError:
            raise UnknownElementError(f"unknown element {x!r}") from None
    out: frozenset[str] = frozenset()
    for e in x:
        out |= _adjacent(relation, e)
    return out


def preset(net: LabelledNet, x) -> frozenset[str]:
    """Elements with an arc into ``x``; a set of ids is mapped element-wise."""
    return _adjacent(net._preset, x)


def postset(net: LabelledNet, x) -> frozenset[str]:
    """Elements reached by an arc from ``x``; a set of ids is mapped element-wise."""
    return _adjacent(net._postset, x)


class DepToken(NamedTuple):
    """A token on ``place`` together with the visible labels it depends on."""

    place: str
    deps: frozenset[str]


class _DependencyMarkingFields(NamedTuple):
    tokens: frozenset[DepToken]


class DependencyMarking(_DependencyMarkingFields):
    """A set of dependency tokens, at most one per place: a named tuple of
    its one field."""

    __setattr__ = __delattr__ = _immutable

    def __new__(cls, tokens: frozenset[DepToken]):
        if len({tok.place for tok in tokens}) != len(tokens):
            raise ValueError("two tokens on one place; net is not 1-safe here")
        return super().__new__(cls, tokens)

    @cached_property
    def places(self) -> frozenset[str]:
        """The plain marking underneath (first projection)."""
        return frozenset(tok.place for tok in self.tokens)

    def text(self) -> str:
        """Render tokens as ``p {a,c} ; q {}`` with places and labels sorted."""
        return " ; ".join(
            f"{tok.place} {{{','.join(sorted(tok.deps))}}}"
            for tok in sorted(self.tokens, key=lambda tok: tok.place)
        )


def initial_dependency_marking(net: LabelledNet) -> DependencyMarking:
    """One dependency-free token per initially marked place."""
    return DependencyMarking(frozenset(DepToken(s, frozenset()) for s in net.initial_marking))


# --- textual net format ----------------------------------------------------
#
#   place <id> ["*"]          "*" marks the place initially
#   trans <id> [":" <label>]  omitted label means the invisible label
#   arc <id> "->" <id>        one endpoint a place, the other a transition
#
# '#' starts a comment; declarations may be interleaved, but an arc may only
# reference ids declared on earlier lines.


class _LineError(Exception):
    """A parse error's message and the index of the word it points at; one
    past the last word points at the line's end.  ``parse_net`` adds the column."""


def _ident(words: list[str], i: int) -> str:
    if i >= len(words):
        raise _LineError("expected an identifier", len(words))
    if not _ID_RE.match(words[i]):
        raise _LineError(f"invalid identifier {words[i]!r}", i)
    return words[i]


def parse_net(text: str) -> LabelledNet:
    """Parse the line-oriented net format into a LabelledNet."""
    places: set[str] = set()
    transitions: set[str] = set()
    flow: set[tuple[str, str]] = set()
    marking: set[str] = set()
    labelling: dict[str, str] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        words = line.split()  # str.split and the regex \S+ agree on whitespace
        if not words:
            continue
        try:
            kind = words[0]
            if kind == "place":
                name = _ident(words, 1)
                star = len(words) > 2 and words[2] == "*"
                if len(words) > 2 + star:
                    raise _LineError("expected end of line or '*'", 2 + star)
                if name in places or name in transitions:
                    raise _LineError(f"duplicate declaration of {name!r}", 1)
                places.add(name)
                if star:
                    marking.add(name)
            elif kind == "trans":
                name = _ident(words, 1)
                if name in places or name in transitions:
                    raise _LineError(f"duplicate declaration of {name!r}", 1)
                if len(words) == 2:
                    label = TAU
                elif len(words) == 4 and words[2] == ":":
                    label = _ident(words, 3)
                    if label == TAU:
                        raise _LineError(f"{TAU!r} is reserved for the invisible label", 3)
                else:
                    raise _LineError("expected 'trans <id>' or 'trans <id> : <label>'", 2)
                transitions.add(name)
                labelling[name] = label
            elif kind == "arc":
                src = _ident(words, 1)
                if len(words) < 3 or words[2] != "->":
                    raise _LineError("expected '->'", 2)
                dst = _ident(words, 3)
                if len(words) > 4:
                    raise _LineError("unexpected trailing text", 4)
                for name, i in ((src, 1), (dst, 3)):
                    if name not in places and name not in transitions:
                        raise _LineError(f"unknown id {name!r} in arc", i)
                src_is_place = src in places
                dst_is_place = dst in places
                if src_is_place == dst_is_place:
                    which = "place" if src_is_place else "transition"
                    raise _LineError(f"arc connects two {which}s", 1)
                if (src, dst) in flow:
                    raise _LineError(f"duplicate arc {src} -> {dst}", 1)
                flow.add((src, dst))
            else:
                raise _LineError(f"unknown directive {kind!r}", 0)
        except _LineError as exc:
            message, at = exc.args
            starts = [m.start() for m in re.finditer(r"\S+", line)] + [len(line.rstrip())]
            raise NetParseError(message, lineno, starts[at] + 1) from None

    return LabelledNet(
        places=frozenset(places),
        transitions=frozenset(transitions),
        flow=frozenset(flow),
        initial_marking=frozenset(marking),
        labelling=labelling,
    )


def serialize_net(net: LabelledNet) -> str:
    """Deterministic textual form; round-trips through :func:`parse_net`."""
    lines = []
    for s in sorted(net.places):
        lines.append(f"place {s} *" if s in net.initial_marking else f"place {s}")
    for t in sorted(net.transitions):
        lab = net.labelling[t]
        lines.append(f"trans {t}" if lab == TAU else f"trans {t} : {lab}")
    for src, dst in sorted(net.flow):
        lines.append(f"arc {src} -> {dst}")
    return "\n".join(lines) + ("\n" if lines else "")


# --- contact-freeness ------------------------------------------------------


class ContactVerdict(NamedTuple):
    """Outcome of the contact-freeness check.

    ``status`` is ``contact_free`` or ``violation`` (with the offending
    reachable marking and transition).
    """

    status: str
    marking: frozenset[str] | None = None
    transition: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == "contact_free"


def check_contact_free(net: LabelledNet, state_limit: int = DEFAULT_STATE_LIMIT) -> ContactVerdict:
    """Search the plain reachable markings for a contact situation.

    A violation is a reachable marking covering some transition's preset
    while already marking one of its pure postset places.  The interleaving
    search of ``explore_reachable(steps=False)`` stops at the first one, or
    raises LimitExceededError at the first marking past ``state_limit``, in
    BFS order.
    """
    from .semantics import explore_reachable  # semantics imports this module
    try:
        explore_reachable(net, False, state_limit, steps=False)
    except ContactError as exc:
        return ContactVerdict("violation", marking=exc.marking, transition=exc.transition)
    return ContactVerdict("contact_free")
