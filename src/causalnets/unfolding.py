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
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .model import ContactError, LabelledNet, UnknownElementError
from .semantics import LimitExceededError


def _event_limit(visible_bound: int, event_limit: int | None) -> int:
    """``event_limit``, by default ``10 * visible_bound + 50``; ValueError
    when either is negative."""
    if visible_bound < 0:
        raise ValueError("visible_bound must be nonnegative")
    if event_limit is None:
        event_limit = 10 * visible_bound + 50
    if event_limit < 0:
        raise ValueError("event_limit must be nonnegative")
    return event_limit


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
    once, under the key ``(t, consumed condition ids, n)``, where ``n`` counts
    the events under the same ``(t, ids)`` already in the configuration: only
    an input-less ``t`` has any.  Per event the prefix keeps its transition,
    the conditions it consumes and produces, and the mask of the visible
    events strictly before it, which a configuration holds whole.
    """

    __slots__ = ("net", "moves", "cond_place", "cond_producer", "index", "trans",
                 "pre", "post", "vpast", "visible", "_names")

    def __init__(self, net: LabelledNet):
        self.net = net
        self.moves = net._table.moves  # t -> sorted preset, postset, their masks; visibility
        self.cond_place: list[str] = sorted(net.initial_marking)
        self.cond_producer: list[int | None] = [None] * len(self.cond_place)
        self.index: dict[tuple, int] = {}
        self.trans: list[str] = []
        self.pre: list[tuple[int, ...]] = []
        self.post: list[tuple[int, ...]] = []
        self.vpast: list[int] = []
        self.visible = 0  # mask of the visible events
        self._names: dict[int, tuple] = {}

    def add_event(self, key: tuple) -> int:
        t, chosen, _ = key
        e = len(self.trans)
        _, places, _, _, visible = self.moves[t]
        vpast = 0
        for c in chosen:
            p = self.cond_producer[c]
            if p is not None:  # p's visible past, and p itself when visible
                vpast |= self.vpast[p] | self.visible & 1 << p
        self.index[key] = e
        self.trans.append(t)
        self.pre.append(chosen)
        self.vpast.append(vpast)
        self.visible |= visible << e
        base = len(self.cond_place)
        self.post.append(tuple(range(base, base + len(places))))
        self.cond_place.extend(places)
        self.cond_producer.extend([e] * len(places))
        return e

    def name(self, e: int) -> tuple:
        """A structural name for event ``e``, equal for the same event of
        prefixes built separately from equal nets."""
        name = self._names.get(e)
        if name is None:
            t, chosen = self.trans[e], self.pre[e]
            if chosen:
                name = ("e", t, frozenset(self._cond_name(c) for c in chosen))
            else:  # the n of its key (t, (), n)
                name = ("e0", t, next(n for n in range(e + 1) if self.index[t, (), n] == e))
            self._names[e] = name
        return name

    def _cond_name(self, c: int) -> tuple:
        p = self.cond_producer[c]
        return ("c0", self.cond_place[c]) if p is None else ("c", self.name(p), self.cond_place[c])


class Process:
    """A configuration of a branching-process prefix.

    ``config`` has bit ``e`` set for each prefix event ``e`` in the process;
    ``end`` maps each place marked at the end of the process to the prefix
    condition on it (the net is 1-safe, so there is at most one), and
    ``marked`` is the table mask of those places.
    Instances are immutable; extension produces a new process sharing the
    prefix.  ``key`` is a structural fingerprint: two processes of the same
    net, built by separate calls or not, are isomorphic as folded occurrence
    nets exactly when their keys are equal.
    """

    __slots__ = ("prefix", "config", "end", "marked", "visible_count", "event_count", "_key")

    def __init__(self, prefix: _Prefix, config: int, end: dict[str, int], marked: int,
                 visible_count: int, event_count: int):
        self.prefix = prefix
        self.config = config
        self.end = end
        self.marked = marked
        self.visible_count = visible_count
        self.event_count = event_count
        self._key = None

    @property
    def key(self) -> frozenset:
        if self._key is None:
            self._key = frozenset(self.prefix.name(e) for e in _bits(self.config))
        return self._key

    def __repr__(self):
        return (f"Process(events={self.event_count}, "
                f"visible={self.visible_count}, end={sorted(self.end)})")


def initial_process(net: LabelledNet) -> Process:
    """The process with one condition per initially marked place and no
    events, on a new prefix that the processes extended from it share."""
    prefix = _Prefix(net)
    end = {place: c for c, place in enumerate(prefix.cond_place)}
    return Process(prefix, 0, end, net._table.mask(end), 0, 0)


def _extension(process: Process, t: str, contact: int) -> int:
    """The prefix event of one more ``t``, whose preset the process end
    covers, added to the prefix if new.  ``contact`` is the mask
    ``net._table.covered`` gives ``t``: ContactError when it is nonzero."""
    prefix = process.prefix
    if contact:
        table = prefix.net._table
        raise ContactError(t, min(table.marking(contact)), table.marking(process.marked))
    chosen = tuple([process.end[place] for place in prefix.moves[t][0]])
    n = 0
    while (e := prefix.index.get((t, chosen, n))) is not None and process.config >> e & 1:
        n += 1
    return prefix.add_event((t, chosen, n)) if e is None else e


def _extend(process: Process, e: int) -> Process:
    prefix = process.prefix
    t = prefix.trans[e]
    pre, post, took, put, visible = prefix.moves[t]
    end = dict(process.end)
    for place in pre:
        del end[place]
    end.update(zip(post, prefix.post[e]))
    return Process(prefix, process.config | 1 << e, end, process.marked - took | put,
                   process.visible_count + visible, process.event_count + 1)


def extend_process(net: LabelledNet, process: Process, t: str) -> Process | None:
    """Replay one firing of ``t`` at the end of the process, if possible.

    ``net`` is the net the process was grown from.  Raises ContactError when
    the firing would put a second token on a place (the net has contact)."""
    if t not in net.transitions:
        raise UnknownElementError(f"unknown transition {t!r}")
    for u, contact, _ in net._table.covered(process.marked):
        if u == t:
            return _extend(process, _extension(process, t, contact))
    return None


def is_maximal(net: LabelledNet, process: Process) -> bool:
    """True when the process end covers no transition's preset; a firing
    that would put a second token on a place still counts as covered."""
    return not net._table.covered(process.marked)


class ProcessEntry(NamedTuple):
    """An enumerated process; ``maximal`` is ``is_maximal`` (at the bound too)
    and ``saturated`` says the event limit cut an extension within the bound."""

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
    Raises ContactError when a firing would put a second token on a place.
    """
    event_limit = _event_limit(visible_bound, event_limit)
    if process_limit is not None and process_limit < 1:
        raise ValueError("process_limit must be at least 1")
    table = net._table
    covered: dict[int, list] = {}  # marked mask -> table.covered of it, for this call
    seen = {0}
    queue = deque([initial_process(net)])
    entries: list[ProcessEntry] = []
    while queue:
        process = queue.popleft()
        saturated = False
        moves = covered.get(process.marked)
        if moves is None:
            moves = covered[process.marked] = table.covered(process.marked)
        for t, contact, visible in moves:
            if visible and process.visible_count >= visible_bound:
                continue
            if process.event_count >= event_limit and not contact:
                saturated = True  # a contact still raises, from _extension
                continue
            e = _extension(process, t, contact)
            config = process.config | 1 << e
            if config in seen:
                continue
            if process_limit is not None and len(seen) >= process_limit:
                raise LimitExceededError(f"process limit {process_limit} exceeded")
            seen.add(config)
            queue.append(_extend(process, e))
        entries.append(ProcessEntry(process, not moves, saturated))
    return entries


# --- labelled partial orders and pomsets -------------------------------------


class Pomset(NamedTuple):
    """Canonical form of a labelled partial order's isomorphism class.

    ``labels`` lists the event labels in canonical numbering; ``order``
    holds the strict precedences as index pairs.  Two orders canonicalise
    to equal Pomset values exactly when they are label- and order-isomorphic.
    Pomsets sort as their ``(labels, order)`` tuples.
    """

    labels: tuple[str, ...]
    order: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        """The number of events, not of fields."""
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


def canonicalize(labels: Sequence[str], order: Iterable[tuple[int, int]]) -> Pomset:
    """Exact canonical form by colour refinement with individualisation.

    Vertex ``i`` has label ``labels[i]``; ``order`` holds the strict,
    transitively closed precedence pairs ``(u, v)`` of vertex indices, the
    form a Pomset prints.  Raises ValueError when it is not such an order.

    Vertices are iteratively partitioned by label, in/out degree, and
    neighbour colours; remaining symmetric vertices are broken by trying
    each member of the first ambiguous class and keeping the least
    resulting encoding.  Vertices with identical neighbourhoods are
    interchangeable and tried once.
    """
    n = len(labels)
    order = list(order)
    below = [0] * n  # below[v]: mask of the u with (u, v) in order
    above = [0] * n
    for u, v in order:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise ValueError(f"order pair ({u}, {v}) must be two distinct indices below {n}")
        below[v] |= 1 << u
        above[u] |= 1 << v
    for u, v in order:
        if below[u] & ~below[v]:
            raise ValueError("order must be transitively closed and acyclic")

    def dense(keys: list) -> list[int]:
        rank = {k: r for r, k in enumerate(sorted(set(keys)))}
        return [rank[k] for k in keys]

    # longest-chain depth leads the initial colouring, so the canonical
    # numbering is always a linear extension of the order; every pair into
    # u comes from a vertex of lower in-degree, so depth[u] is final first
    indeg = [m.bit_count() for m in below]
    depth = [0] * n
    for u, v in sorted(order, key=lambda pair: indeg[pair[0]]):
        if depth[u] >= depth[v]:
            depth[v] = depth[u] + 1
    initial = dense([(depth[i], labels[i], indeg[i], above[i].bit_count()) for i in range(n)])
    pred = [list(_bits(m)) for m in below]
    succ = [list(_bits(m)) for m in above]

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
        ranked = sorted(range(n), key=colors.__getitem__)
        position = dict(zip(ranked, range(n)))
        labs = tuple(labels[i] for i in ranked)
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
            twin = (below[v], above[v])
            if twin in tried:
                continue
            tried.add(twin)
            branch = list(colors)
            branch[v] = n
            search(branch)

    search(initial)
    labs, pairs = best
    return Pomset(labels=labs, order=pairs)


def visible_pomset(process: Process) -> Pomset:
    """The causal order between the process's visible events, canonicalised."""
    return visible_pomsets([process])[0]


def visible_pomsets(processes: Iterable[Process]) -> list[Pomset]:
    """``visible_pomset`` of each process, built by ``_pomset`` from the
    prefix's visible pasts once per distinct visible set."""
    done: dict[tuple[_Prefix, int], Pomset] = {}
    memo: dict[_Prefix, dict] = {}
    forms: dict[tuple, Pomset] = {}
    pomsets = []
    for process in processes:
        prefix = process.prefix
        key = (prefix, process.config & prefix.visible)
        pomset = done.get(key)
        if pomset is None:
            pomset = done[key] = _pomset(key[1], prefix.trans, prefix.net.labelling,
                                         prefix.vpast, memo.setdefault(prefix, {}), forms)
        pomsets.append(pomset)
    return pomsets


def _pomset(vset: int, trans: Sequence[str], labelling: Mapping[str, str],
            vpast: Sequence[int], memo: dict[int, tuple], forms: dict[tuple, Pomset]) -> Pomset:
    """The pomset of the visible events in the mask ``vset``: event ``e`` is
    an occurrence of ``trans[e]`` after the visible events ``vpast[e]``.
    ``memo`` keeps per event its longest-chain depth, label, in-degree and
    predecessors, which no visible set changes.

    A discrete initial colouring (depth, label, in-degree, out-degree) is a
    fixed point of refinement, so its encoding is the canonical form;
    otherwise the index form (labels in ascending event order, pairs of
    indices) is canonicalised, once per form in ``forms``."""
    events = list(_bits(vset))
    for e in events:  # ascending, so the events before e are in the memo first
        if e not in memo:
            below = tuple(_bits(vpast[e]))
            depth = max([memo[u][0] + 1 for u in below], default=0)
            memo[e] = (depth, labelling[trans[e]], len(below), below)
    pairs = [(u, e) for e in events for u in memo[e][3]]
    outdeg = dict.fromkeys(events, 0)
    for u, _ in pairs:
        outdeg[u] += 1
    colours = {e: (*memo[e][:3], outdeg[e]) for e in events}
    if len(set(colours.values())) == len(colours):
        ranked = sorted(events, key=colours.__getitem__)
        position = dict(zip(ranked, range(len(ranked))))
        return Pomset(labels=tuple([colours[e][1] for e in ranked]),
                      order=tuple(sorted([(position[u], position[v]) for u, v in pairs])))
    index = dict(zip(events, range(len(events))))
    form = (tuple([memo[e][1] for e in events]), tuple((index[u], index[v]) for u, v in pairs))
    pomset = forms.get(form)
    if pomset is None:
        # through the module global, so a wrapper installed on it sees each call
        pomset = forms[form] = canonicalize(*form)
    return pomset


def _observe(net: LabelledNet, visible_bound: int, event_limit: int | None
             ) -> tuple[set[Pomset], set[Pomset], bool]:
    """The pomsets of the maximal processes and of the others with exactly
    ``visible_bound`` visible events, and whether the event limit cut an
    extension within the bound, as ``enumerate_processes`` shows them.

    Breadth-first over states, which fix a process's future: the marked
    places, per marked place the visible events its token depends on, the
    visible events and the event count.  States come in the order of their
    first processes, so the first contact is the one enumeration meets.  A
    visible event is numbered once, under ``(t, visible events before it, n)``
    with ``n`` as in a ``_Prefix`` key: the events under that ``(t, before)``
    already in the state."""
    event_limit = _event_limit(visible_bound, event_limit)
    table = net._table
    # per transition the indices of its preset and postset places (bit i is place i)
    fire = {t: (list(_bits(took)), list(_bits(put)), took, put)
            for t, (_, _, took, put, _) in table.moves.items()}
    ids: dict[tuple, int] = {}  # (t, visible events before it, n) -> visible event
    trans, vpast = [], []  # per visible event: its transition, the visible events before it
    covered: dict[int, list] = {}  # marked mask -> table.covered of it
    shown: set[tuple[int, bool]] = set()  # (visible set, shown by a maximal state)
    divergent = False
    start = (table.mask(net.initial_marking), (0,) * len(table.places), 0, 0)
    seen = {start}
    queue = deque([start])
    while queue:
        marked, deps, vset, count = queue.popleft()
        moves = covered.get(marked)
        if moves is None:
            moves = covered[marked] = table.covered(marked)
        at_bound = vset.bit_count() == visible_bound
        if at_bound or not moves:
            shown.add((vset, not moves))
        for t, contact, visible in moves:
            if visible and at_bound:
                continue
            if contact:
                raise ContactError(t, min(table.marking(contact)), table.marking(marked))
            if count >= event_limit:
                divergent = True
                continue
            pre, post, took, put = fire[t]
            past = 0
            for i in pre:
                past |= deps[i]
            if visible:
                n = 0
                while (e := ids.get((t, past, n))) is not None and vset >> e & 1:
                    n += 1
                if e is None:
                    e = ids[t, past, n] = len(trans)
                    trans.append(t)
                    vpast.append(past)
                past |= 1 << e
            tokens = list(deps)
            for i in pre:
                tokens[i] = 0
            for i in post:
                tokens[i] = past
            state = (marked - took | put, tuple(tokens), vset | past, count + 1)
            if state not in seen:
                seen.add(state)
                queue.append(state)
    memo: dict[int, tuple] = {}
    forms: dict[tuple, Pomset] = {}
    observed: tuple[set[Pomset], set[Pomset]] = (set(), set())  # partial, complete
    for vset, maximal in shown:
        observed[maximal].add(_pomset(vset, trans, net.labelling, vpast, memo, forms))
    return observed[True], observed[False], divergent
