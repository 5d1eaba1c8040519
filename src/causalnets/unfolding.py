"""Process unfolding and canonical visible pomsets.

A process is one conflict-free unrolling of a net: an acyclic occurrence
net whose conditions and events fold back onto the original places and
transitions.  Hiding the invisible events of a process and keeping the
causal order of the visible ones yields a pomset; pomsets are stored in a
canonical form so that value equality coincides with isomorphism.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

from .model import TAU, LabelledNet, UnknownElementError, _enabled
from .semantics import LimitExceededError


def default_event_limit(visible_bound: int) -> int:
    return 10 * visible_bound + 50


class Process:
    """An occurrence net plus the folding map onto the original net.

    Instances are immutable; extension produces a new process.  ``occ_net``
    and ``fold`` materialise the occurrence-net view on demand, while the
    incremental fields keep extension and deduplication cheap.  ``key`` is a
    structural fingerprint: two processes of the same net are isomorphic as
    folded occurrence nets exactly when their keys are equal.
    """

    __slots__ = (
        "cond_place", "event_trans", "event_label", "pre_of", "post_of",
        "producer", "consumer", "names", "key", "visible_count",
        "end_conditions", "_occ_net",
    )

    def __init__(self, cond_place, event_trans, event_label, pre_of, post_of,
                 producer, consumer, names, key, visible_count, end_conditions):
        self.cond_place = cond_place
        self.event_trans = event_trans
        self.event_label = event_label
        self.pre_of = pre_of
        self.post_of = post_of
        self.producer = producer
        self.consumer = consumer
        self.names = names
        self.key = key
        self.visible_count = visible_count
        self.end_conditions = end_conditions
        self._occ_net = None

    @property
    def conditions(self) -> tuple[str, ...]:
        return tuple(self.cond_place)

    @property
    def events(self) -> tuple[str, ...]:
        return tuple(self.event_trans)

    @property
    def event_count(self) -> int:
        return len(self.event_trans)

    @property
    def fold(self) -> Mapping[str, str]:
        merged = dict(self.cond_place)
        merged.update(self.event_trans)
        return MappingProxyType(merged)

    @property
    def occ_net(self) -> LabelledNet:
        if self._occ_net is None:
            flow = set()
            for e, conds in self.pre_of.items():
                flow.update((c, e) for c in conds)
            for e, conds in self.post_of.items():
                flow.update((e, c) for c in conds)
            self._occ_net = LabelledNet(
                places=frozenset(self.cond_place),
                transitions=frozenset(self.event_trans),
                flow=frozenset(flow),
                initial_marking=frozenset(
                    c for c in self.cond_place if self.producer[c] is None
                ),
                labelling=dict(self.event_label),
            )
        return self._occ_net

    def end(self) -> frozenset[str]:
        """Conditions not yet consumed by any event."""
        return self.end_conditions

    def end_marking(self) -> frozenset[str]:
        """The original-net marking the unconsumed conditions fold onto."""
        return frozenset(self.cond_place[c] for c in self.end_conditions)

    def __repr__(self):
        return (f"Process(events={self.event_count}, "
                f"visible={self.visible_count}, end={sorted(self.end_conditions)})")


def initial_process(net: LabelledNet) -> Process:
    """The process with one condition per initially marked place and no events."""
    cond_place: dict[str, str] = {}
    names: dict[str, tuple] = {}
    for i, place in enumerate(sorted(net.initial_marking), start=1):
        cid = f"c{i}"
        cond_place[cid] = place
        names[cid] = ("c0", place)
    return Process(
        cond_place=cond_place,
        event_trans={},
        event_label={},
        pre_of={},
        post_of={},
        producer={c: None for c in cond_place},
        consumer={c: None for c in cond_place},
        names=names,
        key=frozenset(),
        visible_count=0,
        end_conditions=frozenset(cond_place),
    )


def _extension(net: LabelledNet, process: Process, t: str):
    """Conditions a new ``t``-event would consume plus its structural name,
    or None when the process end cannot supply ``t``'s preset."""
    if t not in net.transitions:
        raise UnknownElementError(f"unknown transition {t!r}")
    chosen = []
    for place in sorted(net._preset[t]):
        candidates = [c for c in process.end_conditions if process.cond_place[c] == place]
        if not candidates:
            return None
        chosen.append(min(candidates))
    if chosen:
        name = ("e", t, frozenset(process.names[c] for c in chosen))
    else:
        # events without inputs are interchangeable; number them per transition
        repeat = sum(
            1 for e, tr in process.event_trans.items() if tr == t and not process.pre_of[e]
        )
        name = ("e0", t, repeat)
    return tuple(chosen), name


def _extend_with(net: LabelledNet, process: Process, t: str, chosen, name) -> Process:
    eid = f"e{process.event_count + 1}"
    cond_place = dict(process.cond_place)
    producer = dict(process.producer)
    consumer = dict(process.consumer)
    names = dict(process.names)
    base = len(cond_place)
    fresh = []
    for offset, place in enumerate(sorted(net._postset[t]), start=1):
        cid = f"c{base + offset}"
        fresh.append(cid)
        cond_place[cid] = place
        producer[cid] = eid
        consumer[cid] = None
        names[cid] = ("c", name, place)
    for c in chosen:
        consumer[c] = eid
    names[eid] = name

    event_trans = dict(process.event_trans)
    event_trans[eid] = t
    event_label = dict(process.event_label)
    event_label[eid] = net.labelling[t]
    pre_of = dict(process.pre_of)
    pre_of[eid] = frozenset(chosen)
    post_of = dict(process.post_of)
    post_of[eid] = frozenset(fresh)

    return Process(
        cond_place=cond_place,
        event_trans=event_trans,
        event_label=event_label,
        pre_of=pre_of,
        post_of=post_of,
        producer=producer,
        consumer=consumer,
        names=names,
        key=process.key | {name},
        visible_count=process.visible_count + (1 if net.labelling[t] != TAU else 0),
        end_conditions=(process.end_conditions - set(chosen)) | frozenset(fresh),
    )


def extend_process(net: LabelledNet, process: Process, t: str) -> Process | None:
    """Replay one firing of ``t`` at the end of the process, if possible."""
    ext = _extension(net, process, t)
    if ext is None:
        return None
    chosen, name = ext
    return _extend_with(net, process, t, chosen, name)


def is_maximal(net: LabelledNet, process: Process) -> bool:
    """True when the folded end marking enables no transition of the net."""
    marking = process.end_marking()
    return not any(_enabled(net, marking, t) for t in net.transitions)


@dataclass(frozen=True)
class ProcessEntry:
    """An enumerated process with its quiescence and cutoff flags."""

    process: Process
    maximal: bool
    saturated: bool


def enumerate_processes(
    net: LabelledNet,
    visible_bound: int,
    event_limit: int | None = None,
    process_limit: int | None = None,
) -> list[ProcessEntry]:
    """All processes with at most ``visible_bound`` visible events.

    Processes are deduplicated structurally, so distinct interleavings of
    independent firings appear once.  Invisible events are capped only by
    ``event_limit`` (default ``10 * visible_bound + 50``); a process whose
    permitted extensions were cut off by that cap is flagged ``saturated``,
    which signals a potential divergence.

    ``process_limit``, when given, aborts with LimitExceededError once the
    closure grows past that many distinct processes; nets whose invisible
    transitions chain through shared places can have exponentially many.
    """
    if visible_bound < 0:
        raise ValueError("visible_bound must be nonnegative")
    if event_limit is None:
        event_limit = default_event_limit(visible_bound)
    order = sorted(net.transitions)
    start = initial_process(net)
    seen = {start.key}
    queue = deque([start])
    entries: list[ProcessEntry] = []
    while queue:
        process = queue.popleft()
        saturated = False
        for t in order:
            if net.labelling[t] != TAU and process.visible_count >= visible_bound:
                continue
            ext = _extension(net, process, t)
            if ext is None:
                continue
            if process.event_count + 1 > event_limit:
                saturated = True
                continue
            chosen, name = ext
            key = process.key | {name}
            if key in seen:
                continue
            if process_limit is not None and len(seen) >= process_limit:
                raise LimitExceededError(f"more than {process_limit} distinct processes")
            seen.add(key)
            queue.append(_extend_with(net, process, t, chosen, name))
        entries.append(ProcessEntry(process, is_maximal(net, process), saturated))
    return entries


def validate_process(net: LabelledNet, process: Process) -> None:
    """Check every occurrence-net and folding clause; raise ValueError if any
    fails.  Intended for tests and debugging."""
    occ = process.occ_net
    fold = process.fold
    for c in occ.places:
        if len(occ._preset[c]) > 1 or len(occ._postset[c]) > 1:
            raise ValueError(f"condition {c} is branching")
        if (c in occ.initial_marking) != (not occ._preset[c]):
            raise ValueError(f"condition {c} must be initial iff it has no producer")
    # acyclicity via depth-first search over the flow relation
    state: dict[str, int] = {}

    def visit(x: str):
        if state.get(x) == 1:
            raise ValueError("occurrence net has a cycle")
        if state.get(x) == 2:
            return
        state[x] = 1
        for y in occ._postset[x]:
            visit(y)
        state[x] = 2

    for x in sorted(occ.places | occ.transitions):
        visit(x)
    for c in occ.places:
        if fold[c] not in net.places:
            raise ValueError(f"condition {c} folds outside the net's places")
    for e in occ.transitions:
        if fold[e] not in net.transitions:
            raise ValueError(f"event {e} folds outside the net's transitions")
        if occ.labelling[e] != net.labelling[fold[e]]:
            raise ValueError(f"event {e} disagrees with its transition's label")
        for kind, conds, reference in (
            ("preset", occ._preset[e], net._preset[fold[e]]),
            ("postset", occ._postset[e], net._postset[fold[e]]),
        ):
            folded = [fold[c] for c in conds]
            if len(set(folded)) != len(folded) or set(folded) != reference:
                raise ValueError(f"event {e} {kind} does not match transition {fold[e]}")
    initial_folds = [fold[c] for c in occ.initial_marking]
    if len(set(initial_folds)) != len(initial_folds):
        raise ValueError("folding is not injective on the initial conditions")
    if set(initial_folds) != set(net.initial_marking):
        raise ValueError("initial conditions do not match the initial marking")


# --- labelled partial orders and pomsets -------------------------------------


@dataclass(frozen=True)
class LPO:
    """A labelled partial order given by its strict, transitively closed
    precedence pairs."""

    vertices: tuple
    labels: Mapping
    below: frozenset

    def __post_init__(self):
        object.__setattr__(self, "labels", MappingProxyType(dict(self.labels)))
        vs = set(self.vertices)
        if set(self.labels) != vs:
            raise ValueError("labels must cover exactly the vertices")
        succ: dict = {v: set() for v in vs}
        for u, v in self.below:
            if u not in vs or v not in vs:
                raise ValueError("order pair outside the vertex set")
            if u == v:
                raise ValueError("strict order must be irreflexive")
            succ[u].add(v)
        for u in vs:
            for v in succ[u]:
                if not succ[v] <= succ[u]:
                    raise ValueError("order must be transitively closed")


@dataclass(frozen=True, order=True)
class Pomset:
    """Canonical form of an LPO's isomorphism class.

    ``labels`` lists the event labels in canonical numbering; ``order``
    holds the strict precedences as index pairs.  Two LPOs canonicalise to
    equal Pomset values exactly when they are label- and order-isomorphic.
    """

    labels: tuple[str, ...]
    order: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.labels)

    def text(self) -> str:
        events = " ".join(f"e{i + 1}:{lab}" for i, lab in enumerate(self.labels))
        pairs = " ".join(f"e{u + 1}<e{v + 1}" for u, v in self.order)
        return (f"events: {events}" if events else "events:") + "\n" + (
            f"order: {pairs}" if pairs else "order:"
        ) + "\n"


def canonicalize(o: LPO) -> Pomset:
    """Exact canonical form by colour refinement with individualisation.

    Vertices are iteratively partitioned by label, in/out degree, and
    neighbour colours; remaining symmetric vertices are broken by trying
    each member of the first ambiguous class and keeping the least
    resulting encoding.  Vertices with identical neighbourhoods are
    interchangeable and tried once.
    """
    verts = list(o.vertices)
    n = len(verts)
    if n == 0:
        return Pomset((), ())
    index = {v: i for i, v in enumerate(verts)}
    labels = [o.labels[v] for v in verts]
    pred: list[set[int]] = [set() for _ in range(n)]
    succ: list[set[int]] = [set() for _ in range(n)]
    for u, v in o.below:
        pred[index[v]].add(index[u])
        succ[index[u]].add(index[v])

    # longest-chain depth leads the initial colouring, so the canonical
    # numbering is always a linear extension of the order
    depth = [0] * n
    for i in sorted(range(n), key=lambda i: len(pred[i])):
        depth[i] = 1 + max((depth[j] for j in pred[i]), default=-1)

    def dense(keys: list) -> list[int]:
        rank = {k: r for r, k in enumerate(sorted(set(keys)))}
        return [rank[k] for k in keys]

    def refine(colors: list[int]) -> list[int]:
        while True:
            keys = [
                (colors[i],
                 tuple(sorted(colors[j] for j in pred[i])),
                 tuple(sorted(colors[j] for j in succ[i])))
                for i in range(n)
            ]
            new = dense(keys)
            if new == colors:
                return colors
            colors = new

    def encode(colors: list[int]):
        position = [0] * n
        for rank, i in enumerate(sorted(range(n), key=colors.__getitem__)):
            position[i] = rank
        labs = tuple(labels[i] for i in sorted(range(n), key=colors.__getitem__))
        pairs = tuple(sorted((position[u], position[v]) for u in range(n) for v in succ[u]))
        return labs, pairs

    best = None

    def search(colors: list[int]):
        nonlocal best
        colors = refine(colors)
        classes: dict[int, list[int]] = {}
        for i, c in enumerate(colors):
            classes.setdefault(c, []).append(i)
        target = next((classes[c] for c in sorted(classes) if len(classes[c]) > 1), None)
        if target is None:
            enc = encode(colors)
            if best is None or enc < best:
                best = enc
            return
        tried = set()
        for v in target:
            twin = (frozenset(pred[v]), frozenset(succ[v]))
            if twin in tried:
                continue
            tried.add(twin)
            branch = list(colors)
            branch[v] = n
            search(branch)

    search(dense([(depth[i], labels[i], len(pred[i]), len(succ[i])) for i in range(n)]))
    labs, pairs = best
    return Pomset(labels=labs, order=pairs)


def visible_pomset(process: Process) -> Pomset:
    """The causal order between the process's visible events, canonicalised."""
    ancestors: dict[str, set[str]] = {}
    for e in process.event_trans:  # insertion order is topological
        acc: set[str] = set()
        for c in process.pre_of[e]:
            p = process.producer[c]
            if p is not None:
                acc.add(p)
                acc |= ancestors[p]
        ancestors[e] = acc
    visible = [e for e in process.event_trans if process.event_label[e] != TAU]
    visible_set = set(visible)
    below = frozenset(
        (u, v) for v in visible for u in ancestors[v] if u in visible_set
    )
    return canonicalize(
        LPO(tuple(visible), {e: process.event_label[e] for e in visible}, below)
    )


def pomsets_text(pomsets: Iterable[Pomset]) -> str:
    """All pomset blocks in canonical-encoding order."""
    return "".join(p.text() for p in sorted(pomsets))
