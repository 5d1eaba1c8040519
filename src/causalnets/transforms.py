"""Transition refinement and the built-in example nets."""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from .model import TAU, LabelledNet, UnknownElementError, parse_net

__all__ = ("BUILTIN_NAMES", "RefinementRecord", "builtin", "refine_transition")

BUILTIN_NAMES = ("pure_m", "repeated_pure_m", "centralised", "deadlocking")


class RefinementRecord(NamedTuple):
    """Fresh ids introduced when splitting a transition."""

    target: str
    new_place: str
    new_tau: str


def _fresh(base: str, taken: set[str]) -> str:
    if base not in taken:
        return base
    k = 2
    while f"{base}_{k}" in taken:
        k += 1
    return f"{base}_{k}"


def refine_transition(net: LabelledNet, t: str) -> tuple[LabelledNet, RefinementRecord]:
    """Split ``t`` into an invisible prefix step followed by ``t`` itself.

    A fresh invisible transition takes over all of ``t``'s input arcs and
    feeds a fresh buffer place, which becomes ``t``'s only input.  Output
    arcs, labels, and the initial marking are untouched.  A ``t`` with an
    empty preset raises ValueError: its prefix could fill the buffer twice.
    """
    if t not in net.transitions:
        raise UnknownElementError(f"unknown transition {t!r}")
    if not net._preset[t]:
        raise ValueError(f"cannot refine transition {t!r}: its preset is empty")
    taken = set(net.places) | set(net.transitions)
    new_place = _fresh(f"s_{t}", taken)
    taken.add(new_place)
    new_tau = _fresh(f"tau_{t}", taken)

    flow = {(x, y) for x, y in net.flow if not (y == t and x in net.places)}
    flow |= {(s, new_tau) for s in net._preset[t]}
    flow |= {(new_tau, new_place), (new_place, t)}

    labelling = dict(net.labelling)
    labelling[new_tau] = TAU
    refined = LabelledNet(
        places=net.places | {new_place},
        transitions=net.transitions | {new_tau},
        flow=frozenset(flow),
        initial_marking=net.initial_marking,
        labelling=labelling,
    )
    return refined, RefinementRecord(target=t, new_place=new_place, new_tau=new_tau)


def builtin(name: str) -> LabelledNet:
    """One of the bundled nets, parsed from its file in the package's ``nets``
    directory."""
    if name not in BUILTIN_NAMES:
        raise ValueError(f"unknown builtin {name!r}; expected one of {', '.join(BUILTIN_NAMES)}")
    path = Path(__file__).with_name("nets") / f"{name}.net"
    return parse_net(path.read_text(encoding="utf-8"))
