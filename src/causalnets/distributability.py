"""Distributability analysis.

A net is distributed when its elements can be assigned to locations such
that every transition shares a location with all of its input places while
transitions that can fire in one step never share a location.  Whether such
an assignment exists reduces to a reachability-refined structural check:
the net is distributed iff no chain of transitions linked by shared input
places connects two concurrently firable transitions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from types import MappingProxyType
from typing import Mapping

from .model import DEFAULT_STATE_LIMIT, LabelledNet, render_marking
from .semantics import _independent, _interleavings, _shortest_path


@dataclass(frozen=True)
class ConcurrencyRelation:
    """Unordered pairs of distinct transitions firable as one step from some
    reachable marking."""

    pairs: frozenset[frozenset[str]]

    def __contains__(self, pair) -> bool:
        return frozenset(pair) in self.pairs


@dataclass(frozen=True)
class Distribution:
    """A location for every place and transition."""

    location_of: Mapping[str, str]

    def __post_init__(self):
        object.__setattr__(self, "location_of", MappingProxyType(dict(self.location_of)))

    def locations(self) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {}
        for element, loc in self.location_of.items():
            out.setdefault(loc, []).append(element)
        return {loc: sorted(members) for loc, members in out.items()}


@dataclass(frozen=True)
class DistributabilityVerdict:
    """Either a witnessing distribution or a violating chain of transitions
    whose endpoints are concurrent while consecutive members share an input
    place."""

    distribution: Distribution | None = None
    chain: tuple[str, ...] | None = None

    def __post_init__(self):
        if (self.distribution is None) == (self.chain is None):
            raise ValueError("exactly one of distribution/chain must be present")

    @property
    def distributed(self) -> bool:
        return self.distribution is not None

    @property
    def concurrent_endpoints(self) -> tuple[str, str] | None:
        if self.chain is None:
            return None
        return self.chain[0], self.chain[-1]


@dataclass(frozen=True)
class PureMWitness:
    """Two transitions, each sharing an input place with a common middle
    transition but not with each other, with all three presets jointly
    covered by a reachable marking."""

    left: str
    middle: str
    right: str
    marking: frozenset[str]


def concurrency_relation(
    net: LabelledNet, state_limit: int = DEFAULT_STATE_LIMIT
) -> ConcurrencyRelation:
    """Compute which transition pairs some reachable marking fires together."""
    graph = _interleavings(net, state_limit)
    enabled: list[list[str]] = [[] for _ in graph.nodes]
    for e in graph.edges:  # one edge per enabled transition
        enabled[e.source].extend(e.step)
    together = {pair for ts in enabled for pair in combinations(ts, 2)}
    return ConcurrencyRelation(
        frozenset(frozenset(pair) for pair in together if _independent(net, *pair))
    )


def _shared_preplace_graph(net: LabelledNet) -> dict[str, set[str]]:
    adjacency: dict[str, set[str]] = {t: set() for t in net.transitions}
    for t, u in combinations(sorted(net.transitions), 2):
        if net._preset[t] & net._preset[u]:
            adjacency[t].add(u)
            adjacency[u].add(t)
    return adjacency


def _components(adjacency: dict[str, set[str]]) -> dict[str, str]:
    component: dict[str, str] = {}
    for start in sorted(adjacency):
        if start in component:
            continue
        members = [start]
        component[start] = start
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for y in adjacency[x]:
                if y not in component:
                    component[y] = start
                    members.append(y)
                    queue.append(y)
        root = min(members)
        for m in members:
            component[m] = root
    return component


def check_distributed(
    net: LabelledNet, state_limit: int = DEFAULT_STATE_LIMIT
) -> DistributabilityVerdict:
    """Decide distributability and produce a distribution or a counter-chain.

    Transitions linked by shared input places must be co-located, so the
    connected components of that sharing graph are forced location groups;
    a concurrent pair inside one component refutes distributability and is
    returned as a shortest connecting chain.
    """
    conc = concurrency_relation(net, state_limit)
    adjacency = _shared_preplace_graph(net)
    component = _components(adjacency)

    for pair in sorted(conc.pairs, key=lambda p: tuple(sorted(p))):
        t, u = sorted(pair)
        if component[t] == component[u]:
            return DistributabilityVerdict(chain=_shortest_path(adjacency, t, u))

    location_of: dict[str, str] = {}
    roots = sorted({component[t] for t in net.transitions})
    loc_names = {root: f"loc{i}" for i, root in enumerate(roots)}
    for t in net.transitions:
        location_of[t] = loc_names[component[t]]
    next_fresh = len(roots)
    for s in sorted(net.places):
        post = net._postset[s]
        if post:
            location_of[s] = loc_names[component[min(post)]]
        else:
            location_of[s] = f"loc{next_fresh}"
            next_fresh += 1
    return DistributabilityVerdict(distribution=Distribution(location_of))


def find_pure_m(net: LabelledNet, state_limit: int = DEFAULT_STATE_LIMIT) -> list[PureMWitness]:
    """All overlapping-conflict triples whose presets some reachable marking
    jointly covers; left and right are ordered to skip mirror duplicates.

    Each witness marking is the first covering marking in the interleaving
    BFS order (sorted transitions), so one with a shortest firing sequence.
    """
    markings = _interleavings(net, state_limit).nodes
    order = sorted(net.transitions)
    out: list[PureMWitness] = []
    for middle in order:
        pre_mid = net._preset[middle]
        for left, right in combinations([t for t in order if t != middle], 2):
            pre_left, pre_right = net._preset[left], net._preset[right]
            if not (pre_left & pre_mid) or not (pre_mid & pre_right) or pre_left & pre_right:
                continue
            need = pre_left | pre_mid | pre_right
            covering = next((m for m in markings if need <= m), None)
            if covering is not None:
                out.append(PureMWitness(left, middle, right, covering))
    return sorted(out, key=lambda w: (w.left, w.middle, w.right))


def verdict_text(verdict: DistributabilityVerdict) -> str:
    if verdict.distributed:
        lines = ["DISTRIBUTED"]
        groups = verdict.distribution.locations()
        for loc in sorted(groups, key=lambda loc: int(loc[3:])):
            lines.append(f"loc {loc[3:]}: {' '.join(groups[loc])}")
        return "\n".join(lines) + "\n"
    first, last = verdict.concurrent_endpoints
    return (
        "NOT DISTRIBUTED\n"
        f"chain: {' -> '.join(verdict.chain)}\n"
        f"concurrent: ({first}, {last})\n"
    )


def pure_m_text(witnesses: list[PureMWitness]) -> str:
    if not witnesses:
        return "no fully reachable pure M\n"
    return "".join(
        f"pure-m: ({w.left}, {w.middle}, {w.right}) at {render_marking(w.marking)}\n"
        for w in witnesses
    )
