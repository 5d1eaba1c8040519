"""Process unfolding and canonical visible pomsets.

A process is one conflict-free unrolling of a net: an acyclic occurrence
net whose conditions and events fold back onto the original places and
transitions.  The processes grown from one initial process are
configurations of one branching-process prefix (McMillan 1992; Esparza and
Heljanko, *Unfoldings*, 2008): the prefix stores each event once, and a
process is the set of its events, held as an int with one bit per prefix
event.  Hiding the invisible events of a process and keeping the causal
order of the visible ones yields a pomset; pomsets are stored in a
canonical form so that value equality coincides with isomorphism.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .model import TAU, LabelledNet, NetError, UnknownElementError, _enabled
from .semantics import LimitExceededError


def default_event_limit(visible_bound: int) -> int:
    return 10 * visible_bound + 50


def _bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of ``mask``, in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _Prefix:
    """The branching process shared by the processes grown from one initial
    process.

    Conditions and events are numbered from 0 in creation order, which is a
    causal order; conditions ``0 .. len(initial marking) - 1`` are the
    initial ones, one per marked place in sorted order.  An event is stored
    once, under the key ``(t, consumed condition ids)``, or ``(t, n)`` for
    the n-th occurrence of an input-less ``t``.  Per event the prefix keeps
    its transition, the conditions it consumes and produces, and the mask of
    the visible events strictly before it.
    """

    __slots__ = ("net", "moves", "cond_place", "cond_producer", "index", "trans",
                 "pre", "post", "vpast", "visible", "inputless", "_names")

    def __init__(self, net: LabelledNet):
        self.net = net
        # per transition: sorted preset, sorted postset, pure postset, visibility
        self.moves = {
            t: (tuple(sorted(net._preset[t])), tuple(sorted(net._postset[t])),
                tuple(sorted(net._postset[t] - net._preset[t])), net.labelling[t] != TAU)
            for t in net.transitions
        }
        self.cond_place: list[str] = sorted(net.initial_marking)
        self.cond_producer: list[int | None] = [None] * len(self.cond_place)
        self.index: dict[tuple, int] = {}
        self.trans: list[str] = []
        self.pre: list[tuple[int, ...]] = []
        self.post: list[tuple[int, ...]] = []
        self.vpast: list[int] = []
        self.visible = 0  # mask of the visible events
        self.inputless: dict[str, list[int]] = {}  # t -> its input-less events, 1st, 2nd, ...
        self._names: dict[int, tuple] = {}

    def add_event(self, key: tuple, t: str, chosen: tuple[int, ...]) -> int:
        e = len(self.trans)
        _, places, _, visible = self.moves[t]
        vpast = 0
        for c in chosen:
            p = self.cond_producer[c]
            if p is not None:  # p's visible past, and p itself when visible
                vpast |= self.vpast[p] | self.visible & 1 << p
        self.index[key] = e
        self.trans.append(t)
        self.pre.append(chosen)
        self.vpast.append(vpast)
        if visible:
            self.visible |= 1 << e
        base = len(self.cond_place)
        self.post.append(tuple(range(base, base + len(places))))
        self.cond_place.extend(places)
        self.cond_producer.extend([e] * len(places))
        if not chosen:
            self.inputless[t].append(e)
        return e

    def name(self, e: int) -> tuple:
        """A structural name for event ``e``, equal for the same event of
        prefixes built separately from equal nets."""
        name = self._names.get(e)
        if name is None:
            t, chosen = self.trans[e], self.pre[e]
            if chosen:
                name = ("e", t, frozenset(self._cond_name(c) for c in chosen))
            else:
                name = ("e0", t, self.inputless[t].index(e))
            self._names[e] = name
        return name

    def _cond_name(self, c: int) -> tuple:
        p = self.cond_producer[c]
        return ("c0", self.cond_place[c]) if p is None else ("c", self.name(p), self.cond_place[c])


class Process:
    """A configuration of a branching-process prefix.

    ``config`` has bit ``e`` set for each prefix event ``e`` in the process;
    ``end`` maps each place marked at the end of the process to the prefix
    condition on it (the net is 1-safe, so there is at most one).
    Instances are immutable; extension produces a new process sharing the
    prefix.  ``occ_net``, ``fold``, ``conditions``, ``events``, ``producer``
    and ``event_trans`` build the occurrence-net view, with conditions
    ``c<i>`` and events ``e<i>`` named after their prefix ids, on demand.
    ``key`` is a structural fingerprint: two processes of the same net,
    built by separate calls or not, are isomorphic as folded occurrence nets
    exactly when their keys are equal.
    """

    __slots__ = ("prefix", "config", "end", "visible_count", "event_count", "_key")

    def __init__(self, prefix: _Prefix, config: int, end: dict[str, int],
                 visible_count: int, event_count: int):
        self.prefix = prefix
        self.config = config
        self.end = end
        self.visible_count = visible_count
        self.event_count = event_count
        self._key = None

    @property
    def key(self) -> frozenset:
        if self._key is None:
            self._key = frozenset(self.prefix.name(e) for e in _bits(self.config))
        return self._key

    def _condition_ids(self) -> list[int]:
        ids = list(range(len(self.prefix.net.initial_marking)))
        for e in _bits(self.config):
            ids.extend(self.prefix.post[e])
        return ids

    @property
    def conditions(self) -> tuple[str, ...]:
        return tuple(f"c{c + 1}" for c in self._condition_ids())

    @property
    def events(self) -> tuple[str, ...]:
        """Event names in creation order, which is a causal order."""
        return tuple(f"e{e + 1}" for e in _bits(self.config))

    @property
    def event_trans(self) -> Mapping[str, str]:
        return MappingProxyType({f"e{e + 1}": self.prefix.trans[e] for e in _bits(self.config)})

    @property
    def producer(self) -> Mapping[str, str | None]:
        producer = self.prefix.cond_producer
        return MappingProxyType({
            f"c{c + 1}": None if producer[c] is None else f"e{producer[c] + 1}"
            for c in self._condition_ids()
        })

    @property
    def fold(self) -> Mapping[str, str]:
        merged = {f"c{c + 1}": self.prefix.cond_place[c] for c in self._condition_ids()}
        merged.update(self.event_trans)
        return MappingProxyType(merged)

    @property
    def occ_net(self) -> LabelledNet:
        prefix = self.prefix
        flow = set()
        for e in _bits(self.config):
            flow.update((f"c{c + 1}", f"e{e + 1}") for c in prefix.pre[e])
            flow.update((f"e{e + 1}", f"c{c + 1}") for c in prefix.post[e])
        event_trans = self.event_trans
        return LabelledNet(
            places=frozenset(self.conditions),
            transitions=frozenset(event_trans),
            flow=frozenset(flow),
            initial_marking=frozenset(
                f"c{c + 1}" for c in range(len(prefix.net.initial_marking))
            ),
            labelling={e: prefix.net.labelling[t] for e, t in event_trans.items()},
        )

    def end_marking(self) -> frozenset[str]:
        """The original-net marking at the end of the process."""
        return frozenset(self.end)

    def __repr__(self):
        return (f"Process(events={self.event_count}, "
                f"visible={self.visible_count}, end={sorted(self.end)})")


def initial_process(net: LabelledNet) -> Process:
    """The process with one condition per initially marked place and no
    events, on a new prefix that the processes extended from it share."""
    prefix = _Prefix(net)
    return Process(prefix, 0, {place: c for c, place in enumerate(prefix.cond_place)}, 0, 0)


def _extension(process: Process, t: str) -> int | None:
    """The prefix event of one more ``t`` at the process end, added to the
    prefix if new, or None when the end cannot supply ``t``'s preset.

    Raises NetError when ``t`` would put a second token on a place."""
    prefix = process.prefix
    pre, _, pure_post, _ = prefix.moves[t]
    end = process.end
    chosen = []
    for place in pre:
        c = end.get(place)
        if c is None:
            return None
        chosen.append(c)
    for place in pure_post:
        if place in end:
            raise NetError(f"contact: transition {t} puts a second token on place {place}")
    if chosen:
        key = (t, tuple(chosen))
    else:
        # input-less events are interchangeable; number them per transition
        occurrences = prefix.inputless.setdefault(t, [])
        n = 0
        while n < len(occurrences) and process.config >> occurrences[n] & 1:
            n += 1
        key = (t, n)
    e = prefix.index.get(key)
    return prefix.add_event(key, t, tuple(chosen)) if e is None else e


def _extend(process: Process, e: int) -> Process:
    prefix = process.prefix
    t = prefix.trans[e]
    pre, post, _, visible = prefix.moves[t]
    end = dict(process.end)
    for place in pre:
        del end[place]
    end.update(zip(post, prefix.post[e]))
    return Process(prefix, process.config | 1 << e, end,
                   process.visible_count + visible, process.event_count + 1)


def extend_process(net: LabelledNet, process: Process, t: str) -> Process | None:
    """Replay one firing of ``t`` at the end of the process, if possible.

    ``net`` is the net the process was grown from.  Raises NetError when
    the firing would put a second token on a place (the net has contact)."""
    if t not in net.transitions:
        raise UnknownElementError(f"unknown transition {t!r}")
    e = _extension(process, t)
    return None if e is None else _extend(process, e)


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

    The processes are configurations of one prefix, grown breadth-first
    over sorted transitions and deduplicated by their event sets, so
    distinct interleavings of independent firings appear once.  Invisible
    events are capped only by ``event_limit`` (default
    ``10 * visible_bound + 50``); a process whose permitted extensions were
    cut off by that cap is flagged ``saturated``, which signals a potential
    divergence.

    ``process_limit``, when given, aborts with LimitExceededError once the
    closure grows past that many distinct processes; nets whose invisible
    transitions chain through shared places can have exponentially many.
    Raises NetError when a firing would put a second token on a place.
    """
    if visible_bound < 0:
        raise ValueError("visible_bound must be nonnegative")
    if event_limit is None:
        event_limit = default_event_limit(visible_bound)
    order = sorted(net.transitions)
    start = initial_process(net)
    seen = {0}
    queue = deque([start])
    entries: list[ProcessEntry] = []
    while queue:
        process = queue.popleft()
        saturated = False
        for t in order:
            if net.labelling[t] != TAU and process.visible_count >= visible_bound:
                continue
            e = _extension(process, t)
            if e is None:
                continue
            if process.event_count + 1 > event_limit:
                saturated = True
                continue
            config = process.config | 1 << e
            if config in seen:
                continue
            if process_limit is not None and len(seen) >= process_limit:
                raise LimitExceededError(f"more than {process_limit} distinct processes")
            seen.add(config)
            queue.append(_extend(process, e))
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

    def fields(self) -> tuple[str, str]:
        """The event list and the order pairs, as ``text`` and the CLI's TSV
        rows print them."""
        events = " ".join(f"e{i + 1}:{lab}" for i, lab in enumerate(self.labels))
        pairs = " ".join(f"e{u + 1}<e{v + 1}" for u, v in self.order)
        return events, pairs

    def text(self) -> str:
        events, pairs = self.fields()
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
    prefix = process.prefix
    visible = tuple(_bits(process.config & prefix.visible))
    below = frozenset((u, v) for v in visible for u in _bits(prefix.vpast[v]))
    labels = {e: prefix.net.labelling[prefix.trans[e]] for e in visible}
    return canonicalize(LPO(visible, labels, below))


def visible_pomsets(processes: Iterable[Process]) -> list[Pomset]:
    """``visible_pomset`` of each process, computed once per distinct set of
    visible prefix events: the prefix fixes the order between its events,
    so configurations with the same visible events have the same pomset."""
    done: dict[tuple[_Prefix, int], Pomset] = {}
    pomsets = []
    for process in processes:
        key = (process.prefix, process.config & process.prefix.visible)
        pomset = done.get(key)
        if pomset is None:
            pomset = done[key] = visible_pomset(process)
        pomsets.append(pomset)
    return pomsets


def pomsets_text(pomsets: Iterable[Pomset]) -> str:
    """All pomset blocks in canonical-encoding order."""
    return "".join(p.text() for p in sorted(pomsets))
