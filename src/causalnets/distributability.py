"""Distributability analysis.

A net is distributed when its elements can be assigned to locations such
that every transition shares a location with all of its input places while
transitions that can fire in one step never share a location.  Whether such
an assignment exists reduces to a reachability-refined structural check:
the net is distributed iff no chain of transitions linked by shared input
places connects two concurrently firable transitions.
"""

from __future__ import annotations

from itertools import combinations
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .model import DEFAULT_STATE_LIMIT, LabelledNet
from .semantics import ReachGraph, _bfs_tree, _path, explore_reachable

__all__ = (
    "ConcurrencyRelation", "DistributabilityVerdict", "Distribution", "PureMWitness",
    "check_distributed", "concurrency_relation", "find_pure_m",
)


class ConcurrencyRelation(NamedTuple):
    """Unordered pairs of distinct transitions firable as one step from some
    reachable marking."""

    pairs: frozenset[frozenset[str]]

    def __contains__(self, pair) -> bool:
        return frozenset(pair) in self.pairs


class _DistributionFields(NamedTuple):
    location_of: Mapping[str, str]


class Distribution(_DistributionFields):
    """A location for every place and transition: a named tuple of its one
    field, a read-only mapping."""

    __slots__ = ()

    def __new__(cls, location_of: Mapping[str, str]):
        return super().__new__(cls, MappingProxyType(dict(location_of)))

    def locations(self) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {}
        for element, loc in self.location_of.items():
            out.setdefault(loc, []).append(element)
        return {loc: sorted(members) for loc, members in out.items()}


class _DistributabilityVerdictFields(NamedTuple):
    distribution: Distribution | None
    chain: tuple[str, ...] | None


class DistributabilityVerdict(_DistributabilityVerdictFields):
    """Either a witnessing distribution or a violating chain of transitions
    whose endpoints are concurrent while consecutive members share an input
    place: a named tuple of the two, exactly one of them None."""

    __slots__ = ()

    def __new__(cls, distribution: Distribution | None = None,
                chain: tuple[str, ...] | None = None):
        if (distribution is None) == (chain is None):
            raise ValueError("exactly one of distribution/chain must be present")
        return super().__new__(cls, distribution, chain)

    @property
    def distributed(self) -> bool:
        return self.distribution is not None

    @property
    def concurrent_endpoints(self) -> tuple[str, str] | None:
        if self.chain is None:
            return None
        return self.chain[0], self.chain[-1]


class PureMWitness(NamedTuple):
    """Two transitions, each sharing an input place with a common middle
    transition but not with each other, with all three presets jointly
    covered by a reachable marking."""

    left: str
    middle: str
    right: str
    marking: frozenset[str]


def _covered(graph: ReachGraph) -> list[list[str]]:
    """Per node of an interleaving graph, the transitions whose presets it
    covers, in sorted order: the search gives each of them an edge."""
    covered: list[list[str]] = [[] for _ in graph.nodes]
    for e in graph.edges:
        covered[e.source].extend(e.step)
    return covered


def concurrency_relation(
    net: LabelledNet, state_limit: int = DEFAULT_STATE_LIMIT
) -> ConcurrencyRelation:
    """Compute which transition pairs some reachable marking fires together."""
    enabled = _covered(explore_reachable(net, False, state_limit, steps=False))
    pairs = {pair for ts in enabled for pair in combinations(ts, 2)}
    later, bit = net._table.later, net._table.step_bit
    return ConcurrencyRelation(frozenset(frozenset((t, u)) for t, u in pairs if later[t] & bit[u]))


def _components(adjacency: Mapping[str, frozenset[str]]) -> dict[str, str]:
    # Starts go in sorted order, so each component is named by its least member.
    component: dict[str, str] = {}
    for start in sorted(adjacency):
        if start not in component:
            component.update(dict.fromkeys(_bfs_tree(adjacency.__getitem__, [start]), start))
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
    adjacency = net._table.sharing
    component = _components(adjacency)

    for pair in sorted(conc.pairs, key=lambda p: tuple(sorted(p))):
        t, u = sorted(pair)
        if component[t] == component[u]:
            tree = _bfs_tree(lambda x: sorted(adjacency[x]), [t])
            return DistributabilityVerdict(chain=_path(tree, u))

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
    graph = explore_reachable(net, False, state_limit, steps=False)
    # A pure M is an induced path left - middle - right in the sharing graph.
    adjacency = net._table.sharing
    triples = [(left, middle, right) for middle in sorted(adjacency)
               for left, right in combinations(sorted(adjacency[middle]), 2)
               if right not in adjacency[left]]
    covered = [frozenset(ts) for ts in _covered(graph)] if triples else []
    out: list[PureMWitness] = []
    for triple in triples:
        covering = next((m for m, ts in zip(graph.nodes, covered) if ts.issuperset(triple)), None)
        if covering is not None:
            out.append(PureMWitness(*triple, covering))
    return sorted(out, key=lambda w: (w.left, w.middle, w.right))
