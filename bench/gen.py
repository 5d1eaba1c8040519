"""Seeded input nets for the benchmark.

Nets are plain ``NetSpec`` values built here without the library, so the
program under test only ever sees the ``.net`` text written from them.  The
families scale with one parameter and have closed-form answers; the corpus
nets follow the shape of ``tests/helpers.random_net`` with at most five
places and five transitions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

TAU = "tau"


@dataclass(frozen=True)
class NetSpec:
    places: tuple[str, ...]
    transitions: tuple[str, ...]
    arcs: frozenset  # (source, target) pairs
    marking: frozenset
    labels: dict  # transition -> label, TAU for invisible

    def pre(self, x: str) -> frozenset:
        return frozenset(a for a, b in self.arcs if b == x)

    def post(self, x: str) -> frozenset:
        return frozenset(b for a, b in self.arcs if a == x)


def spec(places, transitions, arcs, marking, labels=None) -> NetSpec:
    labels = dict(labels or {})
    for t in transitions:
        labels.setdefault(t, TAU)
    return NetSpec(tuple(places), tuple(transitions), frozenset(arcs), frozenset(marking), labels)


def net_text(net: NetSpec, rng: random.Random | None = None) -> str:
    """The net in the line format.

    Without ``rng`` the lines come sorted as ``causalnets`` serialises them.
    With ``rng`` the declarations are shuffled, then the arcs, which only
    keeps the rule that an arc follows the ids it names; every analysis must
    print the same bytes either way.
    """
    decls = [f"place {p} *" if p in net.marking else f"place {p}" for p in sorted(net.places)]
    decls += [
        f"trans {t}" if net.labels[t] == TAU else f"trans {t} : {net.labels[t]}"
        for t in sorted(net.transitions)
    ]
    arcs = [f"arc {a} -> {b}" for a, b in sorted(net.arcs)]
    if rng is not None:
        rng.shuffle(decls)
        rng.shuffle(arcs)
    return "\n".join(decls + arcs) + "\n"


# --- scalable families ---------------------------------------------------------


def oneshot(n: int) -> NetSpec:
    """n independent visible one-shot transitions: 2^n markings, and
    3^n - 2^n step edges because every subset of the enabled ones is a step."""
    ps = [f"p{i:02d}" for i in range(n)]
    qs = [f"q{i:02d}" for i in range(n)]
    ts = [f"t{i:02d}" for i in range(n)]
    arcs = [(p, t) for p, t in zip(ps, ts)] + [(t, q) for t, q in zip(ts, qs)]
    return spec(ps + qs, ts, arcs, ps, {t: f"a{i:02d}" for i, t in enumerate(ts)})


def loops(n: int, label: str = TAU) -> NetSpec:
    """n independent self-loops: one marking and 2^n - 1 steps at it.

    Invisible by default, so the dependency graph keeps one node too; with
    one shared visible ``label`` the processes are n chains of equal events.
    """
    ps = [f"p{i:02d}" for i in range(n)]
    ts = [f"t{i:02d}" for i in range(n)]
    arcs = [(p, t) for p, t in zip(ps, ts)] + [(t, p) for p, t in zip(ps, ts)]
    return spec(ps, ts, arcs, ps, {t: label for t in ts})


def rings(k: int) -> NetSpec:
    """k independent rings of three invisible transitions: 3^k markings,
    each with 2^k - 1 steps, and invisible cycles that never stop."""
    ps, ts, arcs, marking = [], [], [], []
    for j in range(k):
        for i in range(3):
            p, t, nxt = f"r{j}_{i}", f"u{j}_{i}", f"r{j}_{(i + 1) % 3}"
            ps.append(p)
            ts.append(t)
            arcs += [(p, t), (t, nxt)]
        marking.append(f"r{j}_0")
    return spec(ps, ts, arcs, marking)


# --- random corpus -----------------------------------------------------------------


def random_net(rng: random.Random, max_places=5, max_transitions=5,
               labels=("a", "b", "c"), tau_prob=0.35) -> NetSpec:
    """Same draw as ``tests/helpers.random_net``, with 5 x 5 as the default size."""
    n_p = rng.randint(1, max_places)
    n_t = rng.randint(1, max_transitions)
    places = [f"p{i}" for i in range(n_p)]
    transitions = [f"t{i}" for i in range(n_t)]
    arcs = set()
    lab = {}
    for t in transitions:
        for s in rng.sample(places, rng.randint(1, min(2, n_p))):
            arcs.add((s, t))
        for s in rng.sample(places, rng.randint(0, min(2, n_p))):
            arcs.add((t, s))
        lab[t] = TAU if rng.random() < tau_prob else rng.choice(labels)
    marking = [p for p in places if rng.random() < 0.6]
    return spec(places, transitions, arcs, marking, lab)


def _fresh(base: str, taken: set) -> str:
    if base not in taken:
        return base
    k = 2
    while f"{base}_{k}" in taken:
        k += 1
    return f"{base}_{k}"


def refine(net: NetSpec, t: str) -> NetSpec:
    """``t`` behind a fresh invisible prefix, named as ``causalnets refine``
    names it, so the refined text doubles as the oracle for that command."""
    taken = set(net.places) | set(net.transitions)
    new_place = _fresh(f"s_{t}", taken)
    taken.add(new_place)
    new_tau = _fresh(f"tau_{t}", taken)
    arcs = {(a, b) for a, b in net.arcs if not (b == t and a in net.places)}
    arcs |= {(s, new_tau) for s in net.pre(t)} | {(new_tau, new_place), (new_place, t)}
    labels = dict(net.labels)
    labels[new_tau] = TAU
    return NetSpec(net.places + (new_place,), net.transitions + (new_tau,),
                   frozenset(arcs), net.marking, labels)


def refine_target(net: NetSpec) -> str:
    """The least visible transition, else the least transition."""
    visible = sorted(t for t in net.transitions if net.labels[t] != TAU)
    return visible[0] if visible else min(net.transitions)


def parse_text(text: str) -> NetSpec:
    """Read the line format back, for nets the benchmark did not build
    itself (the bundled nets, written by ``causalnets example``)."""
    places, transitions, arcs, marking, labels = [], [], [], [], {}
    for line in text.splitlines():
        words = line.split("#", 1)[0].split()
        if not words:
            continue
        if words[0] == "place":
            places.append(words[1])
            if words[2:] == ["*"]:
                marking.append(words[1])
        elif words[0] == "trans":
            transitions.append(words[1])
            labels[words[1]] = words[3] if len(words) == 4 else TAU
        elif words[0] == "arc":
            arcs.append((words[1], words[3]))
        else:
            raise ValueError(f"unexpected line {line!r}")
    return spec(places, transitions, arcs, marking, labels)
