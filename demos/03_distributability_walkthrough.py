#!/usr/bin/env python3
"""Why the repeated-conflict net has no faithful distributed version.

Runs every checkable piece of the argument on the bundled nets:

1. the overlapping-conflict shape (pure M) is present and fully reachable;
2. transitions chained through shared input places but concurrent at the
   ends rule out any valid location assignment;
3. the lock-based asynchronous version is distributed but introduces causal
   orderings between a- and c-events that the original never exhibits;
4. the commit-based version is distributed and preserves causality but can
   silently strand a visible action (a local deadlock);
5. splitting any transition behind an invisible prefix changes none of the
   checked properties, so hidden buffering cannot rescue an implementation;
6. along every cycle of the dependency state space, produced tokens carry
   exactly the dependencies of the consumed ones, which is what makes the
   escape-from-the-loop argument bite.
"""

from pathlib import Path

import causalnets as cn
from causalnets.cli import main as cli

NETS = Path(cn.__file__).with_name("nets")


def report(command, name):
    """Print what ``causalnets <command>`` reports on a bundled net."""
    cli([command, str(NETS / f"{name}.net")])


def banner(text):
    print()
    print(f"--- {text} ---")


def main():
    spec = cn.builtin("repeated_pure_m")
    central = cn.builtin("centralised")

    banner("1. the problematic shape")
    for name in ("pure_m", "repeated_pure_m"):
        print(f"{name}: ", end="")
        report("pure-m", name)

    banner("2. no location assignment exists for the specification")
    report("distributed", "repeated_pure_m")
    graph = cn.explore_reachable(spec, dependency=True)
    print(f"dependency markings: {len(graph.nodes)} (bound {graph.state_bound})")

    banner("3. the lock serialisation is distributed but couples a and c")
    report("distributed", "centralised")
    verdict = cn.compare(spec, central, 4)
    print(f"bounded comparison at 4 visible events: "
          f"{'equivalent' if verdict.equivalent else 'INEQUIVALENT'}")
    print(f"witness on the {verdict.witness.side} side ({verdict.witness.kind} set):")
    print(verdict.witness.pomset.text(), end="")
    print("the specification never orders an a-event against a c-event;")
    print("the lock does, so the causal structure changed.")

    banner("4. the committing version deadlocks locally instead")
    report("distributed", "deadlocking")
    report("deadlock", "deadlocking")
    print("after the hidden commit tau1, label a can never fire again even")
    print("though b and c are still available; the original net never")
    print("withdraws a before b happens.")

    banner("5. hidden buffering does not help")
    for t in sorted(spec.transitions):
        refined, record = cn.refine_transition(spec, t)
        same = cn.compare(spec, refined, 3).equivalent
        kind = cn.check_distributed(refined).distributed
        print(f"refine {t} -> +{record.new_place}, +{record.new_tau}: "
              f"observation unchanged={same}, distributed={kind}")

    banner("6. cycles cannot launder dependencies")
    for name in cn.BUILTIN_NAMES:
        net = cn.builtin(name)
        g = cn.explore_reachable(net, dependency=True)
        violations = cn.check_cycle_dependency(net, g)
        print(f"{name}: {len(violations)} cycle-dependency violations")


if __name__ == "__main__":
    main()
