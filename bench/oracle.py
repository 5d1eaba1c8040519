"""Brute-force answers for small nets, written without the library.

Every function works on a ``gen.NetSpec`` and the plain firing rule read
straight from the definitions: a transition is enabled when its preset is
marked and none of its pure postset places is, and a step is a nonempty set
of enabled, pairwise independent transitions.  They are cheap only on the
corpus and bundled nets; the scalable families use closed forms instead.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from itertools import combinations

from gen import TAU, NetSpec


class Game:
    """The plain token game of one net."""

    def __init__(self, net: NetSpec):
        self.net = net
        self.order = sorted(net.transitions)
        self.pre = {t: net.pre(t) for t in self.order}
        self.post = {t: net.post(t) for t in self.order}

    def enabled(self, m: frozenset) -> list[str]:
        return [t for t in self.order
                if self.pre[t] <= m and not (m - self.pre[t]) & self.post[t]]

    def fire(self, m: frozenset, t: str) -> frozenset:
        return (m - self.pre[t]) | self.post[t]

    def independent(self, t: str, u: str) -> bool:
        return not (self.pre[t] & self.pre[u]) and not (self.post[t] & self.post[u])


class Oracle(Game):
    """Answers read off the full set of reachable plain markings."""

    def __init__(self, net: NetSpec):
        super().__init__(net)
        self.markings, self.contact_free = self._reach()

    def _reach(self):
        start = self.net.marking
        seen = {start: None}
        queue = deque([start])
        contact_free = True
        while queue:
            m = queue.popleft()
            for t in self.order:
                if self.pre[t] <= m and (m - self.pre[t]) & self.post[t]:
                    contact_free = False
            for t in self.enabled(m):
                m2 = self.fire(m, t)
                if m2 not in seen:
                    seen[m2] = None
                    queue.append(m2)
        return list(seen), contact_free

    def steps_at(self, m: frozenset) -> int:
        """Number of steps enabled at ``m``: independent subsets of enabled."""
        enabled = self.enabled(m)
        count = 0
        for size in range(1, len(enabled) + 1):
            for group in combinations(enabled, size):
                if all(self.independent(t, u) for t, u in combinations(group, 2)):
                    count += 1
        return count

    def step_edges(self, markings) -> int:
        return sum(self.steps_at(m) for m in markings)

    # --- dependency token game ---------------------------------------------

    @cached_property
    def dependency_markings(self) -> list[frozenset]:
        """Reachable sets of (place, labels) tokens.  Singleton firings
        reach every marking a step reaches, since a step's members touch
        disjoint tokens."""
        start = frozenset((p, frozenset()) for p in self.net.marking)
        seen = {start: None}
        queue = deque([start])
        while queue:
            tokens = queue.popleft()
            places = frozenset(p for p, _ in tokens)
            for t in self.enabled(places):
                lab = self.net.labels[t]
                deps = set() if lab == TAU else {lab}
                for p, d in tokens:
                    if p in self.pre[t]:
                        deps |= d
                kept = {(p, d) for p, d in tokens if p not in self.pre[t]}
                m2 = frozenset(kept | {(s, frozenset(deps)) for s in self.post[t]})
                if m2 not in seen:
                    seen[m2] = None
                    queue.append(m2)
        return list(seen)

    # --- distributability -----------------------------------------------------

    def concurrent_pairs(self) -> set[frozenset]:
        pairs = set()
        for m in self.markings:
            for t, u in combinations(self.enabled(m), 2):
                if self.independent(t, u):
                    pairs.add(frozenset((t, u)))
        return pairs

    def distributed(self) -> bool:
        """A transition must share a location with its input places, so
        transitions sharing an input place are forced together; a location
        assignment exists iff no concurrent pair is forced together."""
        group = {t: t for t in self.order}

        def find(t):
            while group[t] != t:
                t = group[t]
            return t

        for t, u in combinations(self.order, 2):
            if self.pre[t] & self.pre[u]:
                group[find(t)] = find(u)
        return not any(find(t) == find(u) for t, u in map(sorted, self.concurrent_pairs()))

    def pure_m(self) -> set[tuple[str, str, str]]:
        out = set()
        for mid in self.order:
            for left, right in combinations([t for t in self.order if t != mid], 2):
                pl, pm, pr = self.pre[left], self.pre[mid], self.pre[right]
                if not (pl & pm) or not (pm & pr) or (pl & pr):
                    continue
                if any(pl | pm | pr <= m for m in self.markings):
                    out.add((left, mid, right))
        return out

    # --- local deadlock -----------------------------------------------------------

    def _labels_at(self, m: frozenset) -> frozenset:
        return frozenset(self.net.labels[t] for t in self.enabled(m)) - {TAU}

    def live_labels(self, m: frozenset) -> frozenset:
        seen = {m}
        stack = [m]
        acc = set()
        while stack:
            x = stack.pop()
            acc |= self._labels_at(x)
            for t in self.enabled(x):
                y = self.fire(x, t)
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return frozenset(acc)

    def deadlocks(self) -> set[tuple[frozenset, str, frozenset]]:
        """(marking after the hidden step, label it killed, labels still live)."""
        out = set()
        for m in self.markings:
            for t in self.enabled(m):
                if self.net.labels[t] != TAU:
                    continue
                m2 = self.fire(m, t)
                live = self.live_labels(m2)
                for x in self._labels_at(m):
                    if live and x not in live:
                        out.add((m2, x, live))
        return out


def firing_sequences(net: NetSpec, k: int, event_limit: int, cap: int) -> int:
    """Firing sequences with at most ``k`` visible and ``event_limit`` events,
    counted up to ``cap + 1``.  Every process of the net is the run of at
    least one of them, so this bounds the unfolding's process count."""
    game = Game(net)
    count = 0
    stack = [(net.marking, 0, 0)]
    while stack:
        m, visible, length = stack.pop()
        count += 1
        if count > cap:
            return count
        if length == event_limit:
            continue
        for t in game.enabled(m):
            v = visible + (net.labels[t] != TAU)
            if v <= k:
                stack.append((game.fire(m, t), v, length + 1))
    return count
