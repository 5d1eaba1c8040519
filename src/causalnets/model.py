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
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping

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


@dataclass(frozen=True)
class LabelledNet:
    """A finite labelled Petri net.

    All fields are immutable; construction validates the structural
    invariants (disjoint ids, well-formed arcs, marking within places,
    total labelling over the reserved id alphabet).
    """

    places: frozenset[str]
    transitions: frozenset[str]
    flow: frozenset[tuple[str, str]]
    initial_marking: frozenset[str]
    labelling: Mapping[str, str]

    def __post_init__(self):
        object.__setattr__(self, "labelling", MappingProxyType(dict(self.labelling)))
        overlap = self.places & self.transitions
        if overlap:
            raise ValueError(f"ids used as both place and transition: {sorted(overlap)}")
        for x in list(self.places) + list(self.transitions):
            if not _ID_RE.match(x):
                raise ValueError(f"invalid id {x!r}")
        for src, dst in self.flow:
            if not (
                (src in self.places and dst in self.transitions)
                or (src in self.transitions and dst in self.places)
            ):
                raise ValueError(f"arc {src} -> {dst} must connect one place and one transition")
        if not self.initial_marking <= self.places:
            extra = sorted(self.initial_marking - self.places)
            raise ValueError(f"initial marking uses unknown places: {extra}")
        if set(self.labelling) != self.transitions:
            raise ValueError("labelling must be total on transitions and nothing else")
        for t, lab in self.labelling.items():
            if lab != TAU and not _ID_RE.match(lab):
                raise ValueError(f"invalid label {lab!r} on transition {t}")

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


def preset(net: LabelledNet, x) -> frozenset[str]:
    """Elements with an arc into ``x``; a set of ids is mapped element-wise."""
    if isinstance(x, str):
        try:
            return net._preset[x]
        except KeyError:
            raise UnknownElementError(f"unknown element {x!r}") from None
    out: frozenset[str] = frozenset()
    for e in x:
        out |= preset(net, e)
    return out


def postset(net: LabelledNet, x) -> frozenset[str]:
    """Elements reached by an arc from ``x``; a set of ids is mapped element-wise."""
    if isinstance(x, str):
        try:
            return net._postset[x]
        except KeyError:
            raise UnknownElementError(f"unknown element {x!r}") from None
    out: frozenset[str] = frozenset()
    for e in x:
        out |= postset(net, e)
    return out


def _enabled(net: LabelledNet, places: frozenset[str], t: str) -> bool:
    """The firing rule for one transition: ``places`` covers its preset and
    none of its pure postset places, so firing it cannot put a second token
    on a place."""
    pre = net._preset[t]
    return pre <= places and not (places - pre) & net._postset[t]


@dataclass(frozen=True)
class DepToken:
    """A token on ``place`` together with the visible labels it depends on."""

    place: str
    deps: frozenset[str]


@dataclass(frozen=True)
class DependencyMarking:
    """A set of dependency tokens, at most one per place."""

    tokens: frozenset[DepToken]

    def __post_init__(self):
        if len({tok.place for tok in self.tokens}) != len(self.tokens):
            raise ValueError("two tokens on one place; net is not 1-safe here")

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


def render_marking(marking: Iterable[str]) -> str:
    return "{" + ",".join(sorted(marking)) + "}"


# --- textual net format ----------------------------------------------------
#
#   place <id> ["*"]          "*" marks the place initially
#   trans <id> [":" <label>]  omitted label means the invisible label
#   arc <id> "->" <id>        one endpoint a place, the other a transition
#
# '#' starts a comment; declarations may be interleaved, but an arc may only
# reference ids declared on earlier lines.


def parse_net(text: str) -> LabelledNet:
    """Parse the line-oriented net format into a LabelledNet."""
    places: set[str] = set()
    transitions: set[str] = set()
    flow: set[tuple[str, str]] = set()
    marking: set[str] = set()
    labelling: dict[str, str] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = list(re.finditer(r"\S+", line))
        if not tokens:
            continue

        def err(message: str, tok: re.Match | None = None) -> NetParseError:
            col = (tok.start() + 1) if tok is not None else (len(line.rstrip()) + 1)
            return NetParseError(message, lineno, col)

        def ident(i: int) -> str:
            if i >= len(tokens):
                raise err("expected an identifier")
            word = tokens[i].group()
            if not _ID_RE.match(word):
                raise err(f"invalid identifier {word!r}", tokens[i])
            return word

        kind = tokens[0].group()
        if kind == "place":
            name = ident(1)
            if len(tokens) > 3 or (len(tokens) == 3 and tokens[2].group() != "*"):
                raise err("expected end of line or '*'", tokens[2])
            if name in places or name in transitions:
                raise err(f"duplicate declaration of {name!r}", tokens[1])
            places.add(name)
            if len(tokens) == 3:
                marking.add(name)
        elif kind == "trans":
            name = ident(1)
            if name in places or name in transitions:
                raise err(f"duplicate declaration of {name!r}", tokens[1])
            if len(tokens) == 2:
                label = TAU
            elif len(tokens) == 4 and tokens[2].group() == ":":
                label = ident(3)
                if label == TAU:
                    raise err(f"{TAU!r} is reserved for the invisible label", tokens[3])
            else:
                raise err("expected 'trans <id>' or 'trans <id> : <label>'",
                          tokens[2] if len(tokens) > 2 else None)
            transitions.add(name)
            labelling[name] = label
        elif kind == "arc":
            src = ident(1)
            if len(tokens) < 3 or tokens[2].group() != "->":
                raise err("expected '->'", tokens[2] if len(tokens) > 2 else None)
            dst = ident(3)
            if len(tokens) > 4:
                raise err("unexpected trailing text", tokens[4])
            for name, tok in ((src, tokens[1]), (dst, tokens[3])):
                if name not in places and name not in transitions:
                    raise err(f"unknown id {name!r} in arc", tok)
            src_is_place = src in places
            dst_is_place = dst in places
            if src_is_place == dst_is_place:
                which = "place" if src_is_place else "transition"
                raise err(f"arc connects two {which}s", tokens[1])
            if (src, dst) in flow:
                raise err(f"duplicate arc {src} -> {dst}", tokens[1])
            flow.add((src, dst))
        else:
            raise err(f"unknown directive {kind!r}", tokens[0])

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


@dataclass(frozen=True)
class ContactVerdict:
    """Outcome of the contact-freeness check.

    ``status`` is one of ``contact_free``, ``violation`` (with the offending
    reachable marking and transition), or ``limit_exceeded``.
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
    while already marking one of its pure postset places.  Exploration uses
    the firing rule that refuses such steps, so the first hit is reported.
    """
    if state_limit < 1:
        raise ValueError("state_limit must be at least 1")
    order = sorted(net.transitions)
    seen = {net.initial_marking}
    queue = deque([net.initial_marking])
    while queue:
        m = queue.popleft()
        for t in order:
            pre = net._preset[t]
            if not pre <= m:
                continue
            if not _enabled(net, m, t):
                return ContactVerdict("violation", marking=m, transition=t)
            m2 = (m - pre) | net._postset[t]
            if m2 not in seen:
                if len(seen) >= state_limit:
                    return ContactVerdict("limit_exceeded")
                seen.add(m2)
                queue.append(m2)
    return ContactVerdict("contact_free")
