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

from collections import Counter, defaultdict
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .model import LabelledNet, UnknownElementError
from .semantics import LimitExceededError

__all__ = (
    "Pomset", "Process", "ProcessEntry", "canonicalize", "enumerate_processes",
    "extend_process", "initial_process", "is_maximal", "visible_pomset", "visible_pomsets",
)


def _bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of ``mask``, in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _Prefix:
    """The events one ``_search`` numbers: every event, for processes, or
    with ``every`` unset only the visible ones, for observation.

    Events are numbered from 0 in creation order, a causal order, and each
    is stored once, with its transition and ``past``, under the key ``(t,
    past, n)``: ``past`` masks the numbered events before it, and ``n``
    counts the events under the same ``(t, past)`` already in the state,
    which only an input-less ``t`` can have.  When every event is numbered,
    ``past`` is the causal past, whose cut on the preset is the conditions
    the event consumes.  ``visible`` masks the visible events, ``arcs``
    holds per transition the table indices of its preset and postset places
    and their masks, and ``start`` is the state before any event.
    """

    __slots__ = ("net", "every", "arcs", "start", "index", "trans", "past", "visible", "_names")

    def __init__(self, net: LabelledNet, every: bool):
        table = net._table
        self.net = net
        self.every = every
        self.arcs = {t: (list(_bits(took)), list(_bits(put)), took, put)
                     for t, (_, _, took, put, _) in table.moves.items()}
        self.start = (table.mask(net.initial_marking), (0,) * len(table.places), 0, 0)
        self.index: dict[tuple, int] = {}
        self.trans: list[str] = []
        self.past: list[int] = []
        self.visible = 0
        self._names: dict[int, tuple] = {}

    def name(self, e: int) -> tuple:
        """A structural name for event ``e`` of a prefix that numbers every
        event, equal for the same event of prefixes built separately from
        equal nets, and one object, interned in the table, for one net."""
        name = self._names.get(e)
        if name is None:
            t = self.trans[e]
            pre = self.net._table.moves[t][0]
            if pre:
                name = ("e", t, frozenset(self._cond_name(self.past[e], place) for place in pre))
            else:  # the n of its key (t, 0, n)
                name = ("e0", t, next(n for n in range(e + 1) if self.index[t, 0, n] == e))
            name = self._names[e] = self.net._table.names.setdefault(name, name)
        return name

    def _cond_name(self, past: int, place: str) -> tuple:
        """The condition on ``place`` after the events ``past``: the one the
        last of them putting on ``place`` produced, or the initial one."""
        moves, bit = self.net._table.moves, self.net._table.bit[place]
        made = [u for u in _bits(past) if moves[self.trans[u]][3] & bit]
        return ("c", self.name(made[-1]), place) if made else ("c0", place)


def _fire(prefix: _Prefix, state: tuple, t: str, visible: bool, step: int) -> tuple:
    """The state after ``t`` fires at ``state`` without contact.  A state is
    ``(marked, tokens, events, count)``: the marked places' table mask; per
    place in table order the mask of the numbered events its token depends
    on; the mask of the numbered events; and the event count, here grown by
    ``step``.  The firing is numbered when visible or every event is."""
    marked, tokens, events, count = state
    pre, post, took, put = prefix.arcs[t]
    past = 0
    for i in pre:
        past |= tokens[i]
    if visible or prefix.every:
        n = 0
        while (e := prefix.index.get((t, past, n))) is not None and events >> e & 1:
            n += 1
        if e is None:
            e = prefix.index[t, past, n] = len(prefix.trans)
            prefix.trans.append(t)
            prefix.past.append(past)
            prefix.visible |= visible << e
        past |= 1 << e
    tokens = list(tokens)
    for i in pre:
        tokens[i] = 0
    for i in post:
        tokens[i] = past
    return marked - took | put, tuple(tokens), events | past, count + step


def _search(prefix: _Prefix, visible_bound: int, event_limit: int | None,
            process_limit: int | None = None) -> Iterator[tuple[tuple, bool, bool]]:
    """Each state reachable within the bounds once, breadth-first over sorted
    transitions, as ``(state, maximal, saturated)``: ``maximal`` when its
    marking covers no preset.  Under an ``event_limit`` a state counts its
    events and is ``saturated`` when the limit cut an extension within the
    visible bound; with none the count stays 0, so equal states merge, and
    ``saturated`` says a cycle of invisible moves is reachable.  A state
    fixes its future; when every event is numbered it is a process.  Raises
    LimitExceededError past ``process_limit`` states, and ContactError at
    the first firing within the bound (the event limit too) that would put
    a second token on a place."""
    if visible_bound < 0:
        raise ValueError("visible_bound must be nonnegative")
    if event_limit is not None and event_limit < 0:
        raise ValueError("event_limit must be nonnegative")
    if process_limit is not None and process_limit < 1:
        raise ValueError("process_limit must be at least 1")
    table = prefix.net._table
    step = 0 if event_limit is None else 1
    covered: dict[int, list] = {}  # marked mask -> table.covered of it, for this search
    index = {prefix.start: 0}  # state -> its place in states, the BFS queue
    states = [prefix.start]
    cut = set()  # the saturated states
    tau = []  # with no event limit, each invisible move as (state, successor)
    for i, state in enumerate(states):
        marked, _, events, count = state
        moves = covered.get(marked)
        if moves is None:
            moves = covered[marked] = table.covered(marked)
        at_bound = (events & prefix.visible).bit_count() >= visible_bound
        for t, contact, visible in moves:
            if visible and at_bound:
                continue
            if contact:
                raise table.contact(t, contact, marked)
            if step and count >= event_limit:
                cut.add(i)
                continue
            after = _fire(prefix, state, t, visible, step)
            j = index.setdefault(after, len(states))
            if j == len(states):
                if process_limit is not None and j >= process_limit:
                    raise LimitExceededError(f"process limit {process_limit} exceeded")
                states.append(after)
            if not (step or visible):
                tau.append((i, j))
    if any(j <= i for i, j in tau):  # a cycle needs a move back in BFS order
        left = Counter(i for i, _ in tau)  # moves not peeled off; what keeps one reaches a cycle
        into = defaultdict(list)
        for i, j in tau:
            into[j].append(i)
        sinks = [j for j in into if j not in left]
        for j in sinks:
            for i in into[j]:
                left[i] -= 1
                if not left[i]:
                    sinks.append(i)
        cut.update(i for i, n in left.items() if n)
    for i, state in enumerate(states):
        yield state, not covered[state[0]], i in cut


class Process:
    """A configuration of a prefix that numbers every event: a ``_search``
    state.  ``config`` has bit ``e`` set for each prefix event ``e`` in it,
    ``event_count`` of them; ``marked`` masks the places marked at its end,
    and ``tokens`` holds per place in table order the causal past of its
    token, whose highest bit is its producer (0 when initial or empty).
    ``end`` maps each marked place to that producer, None for an initial
    token.  Instances are immutable; extension produces a new process
    sharing the prefix.  ``key`` is a structural fingerprint: two processes
    of the same net, built by separate calls or not, are isomorphic as
    folded occurrence nets exactly when their keys are equal.
    """

    __slots__ = ("prefix", "marked", "tokens", "config", "event_count", "_key")

    def __init__(self, prefix: _Prefix, marked: int, tokens: tuple[int, ...], config: int,
                 event_count: int):
        self.prefix = prefix
        self.marked = marked
        self.tokens = tokens
        self.config = config
        self.event_count = event_count
        self._key = None

    @property
    def visible_count(self) -> int:
        return (self.config & self.prefix.visible).bit_count()

    @property
    def end(self) -> dict[str, int | None]:
        table = self.prefix.net._table
        return {place: past.bit_length() - 1 if past else None
                for place, past in zip(table.places, self.tokens) if self.marked & table.bit[place]}

    @property
    def key(self) -> frozenset:
        if self._key is None:
            self._key = frozenset(self.prefix.name(e) for e in _bits(self.config))
        return self._key

    def __repr__(self):
        return (f"Process(events={self.event_count}, "
                f"visible={self.visible_count}, end={sorted(self.end)})")


def _own_net(net: LabelledNet, process: Process) -> None:
    """ValueError unless ``net`` is the net the process was grown from."""
    if net is not process.prefix.net and net != process.prefix.net:
        raise ValueError("the process was grown from another net")


def initial_process(net: LabelledNet) -> Process:
    """The process with one condition per initially marked place and no
    events, on a new prefix that the processes extended from it share."""
    prefix = _Prefix(net, True)
    return Process(prefix, *prefix.start)


def extend_process(net: LabelledNet, process: Process, t: str) -> Process | None:
    """Replay one firing of ``t`` at the end of the process, if possible.

    ``net`` is the net the process was grown from (ValueError otherwise).
    Raises ContactError when the firing would put a second token on a place
    (the net has contact)."""
    _own_net(net, process)
    if t not in net.transitions:
        raise UnknownElementError(f"unknown transition {t!r}")
    for u, contact, visible in net._table.covered(process.marked):
        if u == t:
            if contact:
                raise net._table.contact(t, contact, process.marked)
            state = (process.marked, process.tokens, process.config, process.event_count)
            return Process(process.prefix, *_fire(process.prefix, state, t, visible, 1))
    return None


def is_maximal(net: LabelledNet, process: Process) -> bool:
    """True when the process end covers no transition's preset; a firing
    that would put a second token on a place still counts as covered.
    ``net`` is the net the process was grown from (ValueError otherwise)."""
    _own_net(net, process)
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

    The processes are configurations of one prefix, found by ``_search``
    with every event numbered: breadth-first over sorted transitions and
    deduplicated by their event sets, so distinct interleavings of
    independent firings appear once.  A process whose permitted extensions
    were cut off by ``event_limit`` is flagged ``saturated``.

    With no ``event_limit`` the list is exact unless a cycle of invisible
    firings is reachable within the bound: then it holds the processes of
    at most ``10 * visible_bound + 50`` events, and those cut there are
    saturated.  Only when that cut saturates some process does ``_observe``
    look for such a cycle; with none, every process is finite and the
    search runs again without a cut.

    ``process_limit``, when given, aborts either search with
    LimitExceededError once it grows past that many distinct processes;
    nets whose invisible transitions chain through shared places can have
    exponentially many.  Raises ContactError when a firing within the bound
    would put a second token on a place: under an ``event_limit`` only
    within it, and with none past the first cut too once that cut
    saturates a process.
    """
    if event_limit is None:
        entries = _processes(net, visible_bound, 10 * visible_bound + 50, process_limit)
        if not any(e.saturated for e in entries) or _observe(net, visible_bound, None)[1]:
            return entries
    return _processes(net, visible_bound, event_limit, process_limit)


def _processes(net: LabelledNet, visible_bound: int, event_limit: int | None,
               process_limit: int | None) -> list[ProcessEntry]:
    """The entries of one ``_search`` that numbers every event; each event
    sets one bit of a process's ``config``, so that counts its events also
    when no event limit makes the search count them."""
    prefix = _Prefix(net, True)
    return [ProcessEntry(Process(prefix, marked, tokens, config, config.bit_count()),
                         maximal, saturated)
            for (marked, tokens, config, _), maximal, saturated
            in _search(prefix, visible_bound, event_limit, process_limit)]


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
    interchangeable and tried once.  From the second leaf on, a leaf
    encoded as the least one so far gives an automorphism, and a vertex in
    the orbit of one already tried, under the automorphisms found that fix
    every vertex individualised above it, is skipped (McKay and Piperno,
    "Practical graph isomorphism, II", 2014): its leaves repeat encodings
    already seen, so the least encoding is the one every leaf would give.
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

    best = None  # the least leaf's encoding and its vertices in position order
    autos: list[list[int]] = []  # automorphisms, as vertex -> image, from equal leaves

    def orbit(v: int, path: list[int]) -> set[int]:
        """The orbit of ``v`` under the automorphisms found that fix ``path``."""
        maps = [g for g in autos if all(g[u] == u for u in path)]
        seen, todo = {v}, [v]
        while todo:
            u = todo.pop()
            for g in maps:
                if g[u] not in seen:
                    seen.add(g[u])
                    todo.append(g[u])
        return seen

    def search(colors: list[int], path: list[int]):
        nonlocal best
        colors = refine(colors)
        classes: dict[int, list[int]] = {}
        for i, c in enumerate(colors):
            classes.setdefault(c, []).append(i)
        target = next((classes[c] for c in sorted(classes) if len(classes[c]) > 1), None)
        if target is None:
            # through the module global, so a wrapper installed on it sees each leaf
            enc, ranked = _encode(labels, succ, colors)
            if best is None or enc < best[0]:
                best = enc, ranked
            elif enc == best[0]:
                autos.append([best[1][c] for c in colors])
            return
        tried = set()
        done: list[int] = []  # the vertices branched on here
        for v in target:
            twin = (below[v], above[v])
            if twin in tried or autos and done and not orbit(v, path).isdisjoint(done):
                continue
            tried.add(twin)
            done.append(v)
            branch = list(colors)
            branch[v] = n
            search(branch, path + [v])

    search(initial, [])
    labs, pairs = best[0]
    return Pomset(labels=labs, order=pairs)


def _encode(labels: Sequence[str], succ: list[list[int]], colors: list[int]
            ) -> tuple[tuple[tuple[str, ...], tuple[tuple[int, int], ...]], list[int]]:
    """The encoding of a leaf, whose discrete colouring numbers the vertices
    0 to n - 1: the labels in that numbering and the sorted numbered pairs;
    and the vertices in that numbering."""
    ranked = sorted(range(len(colors)), key=colors.__getitem__)
    pairs = tuple(sorted((colors[u], colors[v]) for u in ranked for v in succ[u]))
    return (tuple(labels[i] for i in ranked), pairs), ranked


def visible_pomset(process: Process) -> Pomset:
    """The causal order between the process's visible events, canonicalised."""
    return visible_pomsets([process])[0]


def visible_pomsets(processes: Iterable[Process]) -> list[Pomset]:
    """``visible_pomset`` of each process, built by ``_pomset`` from the
    prefix's pasts once per distinct visible set."""
    done: dict[tuple[_Prefix, int], Pomset] = {}
    memo: dict[_Prefix, dict] = {}
    forms: dict[tuple, Pomset] = {}
    pomsets = []
    for process in processes:
        prefix = process.prefix
        key = (prefix, process.config & prefix.visible)
        pomset = done.get(key)
        if pomset is None:
            pomset = done[key] = _pomset(key[1], prefix, memo.setdefault(prefix, {}), forms)
        pomsets.append(pomset)
    return pomsets


def _pomset(vset: int, prefix: _Prefix, memo: dict[int, tuple],
            forms: dict[tuple, Pomset]) -> Pomset:
    """The pomset of the visible events in the mask ``vset``: event ``e`` is
    an occurrence of ``prefix.trans[e]`` after the visible events
    ``prefix.past[e] & prefix.visible``.  One pass over ``vset`` counts the
    out-degrees and fills ``memo`` with what no visible set changes: each
    event's longest-chain depth, label, in-degree and predecessors.  Sorted
    by colour (depth, label, in-degree, out-degree), ties in event order,
    the events give one form: labels and sorted position pairs.  A discrete
    colouring is a fixed point of refinement, so that form is canonical;
    otherwise it is canonicalised once per form in ``forms``."""
    outdeg: dict[int, int] = {}  # in ascending event order
    for e in _bits(vset):  # ascending, so the events before e are in the memo first
        if e not in memo:
            below = tuple(_bits(prefix.past[e] & prefix.visible))
            depth = max([memo[u][0][0] + 1 for u in below], default=0)
            memo[e] = ((depth, prefix.net.labelling[prefix.trans[e]], len(below)), below)
        outdeg[e] = 0
        for u in memo[e][1]:
            outdeg[u] += 1
    colours = {e: (memo[e][0], d) for e, d in outdeg.items()}
    ranked = sorted(colours, key=colours.__getitem__)
    position = {e: i for i, e in enumerate(ranked)}
    pairs = [(position[u], i) for i, v in enumerate(ranked) for u in memo[v][1]]
    form = Pomset(labels=tuple([colours[e][0][1] for e in ranked]), order=tuple(sorted(pairs)))
    if len(set(colours.values())) == len(colours):
        return form
    pomset = forms.get(form)
    if pomset is None:
        # through the module global, so a wrapper installed on it sees each call
        pomset = forms[form] = canonicalize(*form)
    return pomset


def _observe(net: LabelledNet, visible_bound: int, event_limit: int | None
             ) -> tuple[Callable[[bool], frozenset[Pomset]], bool]:
    """A function building on demand the pomsets of the maximal processes
    (``True``) or of the others with exactly ``visible_bound`` visible events
    (``False``), and whether the net diverges within the bound: a reachable
    invisible cycle, or under ``event_limit`` a cut.

    ``_search`` numbers only the visible events here, so its tokens depend
    on visible events alone.  A state fixes a process's future and visible
    pomset, so the processes with equal states are extended once.  The
    search runs before this returns; each category keeps its visible sets."""
    prefix = _Prefix(net, False)
    shown: tuple[set[int], set[int]] = (set(), set())  # visible sets: partial, complete
    divergent = False
    for (_, _, vset, _), maximal, saturated in _search(prefix, visible_bound, event_limit):
        divergent |= saturated
        if maximal or vset.bit_count() == visible_bound:
            shown[maximal].add(vset)
    memo: dict[int, tuple] = {}
    forms: dict[tuple, Pomset] = {}

    def pomsets(maximal: bool) -> frozenset[Pomset]:
        return frozenset([_pomset(vset, prefix, memo, forms) for vset in shown[maximal]])

    return pomsets, divergent
