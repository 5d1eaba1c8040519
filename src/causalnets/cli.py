"""Command-line front end.

Every analysis is a subcommand with deterministic output.  Exit codes:
0 when the command succeeds and the checked property holds (or there is
nothing to refute), 1 when a property is refuted and a witness was printed,
2 on usage, parse, or limit errors.

This module lays out every report, in its human and its TSV form; the
analysis modules return values and print nothing.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import distributability, equivalence, model, semantics, transforms, unfolding


def _load(path: str) -> model.LabelledNet:
    return model.parse_net(Path(path).read_text(encoding="utf-8"))


def _write_or_print(text: str, out_path: str | None):
    if out_path is None:
        sys.stdout.write(text)
    else:
        Path(out_path).write_text(text, encoding="utf-8")


def _cmd_validate(args) -> int:
    net = _load(args.file)
    verdict = model.check_contact_free(net, args.limit)
    tsv = args.format == "tsv"
    if verdict.status == "violation":
        marked = ",".join(sorted(verdict.marking))
        print(f"violation\t{verdict.transition}\t{marked}" if tsv else
              f"CONTACT VIOLATION: transition {verdict.transition} at marking {{{marked}}}")
        return 1
    print("verdict\tcontact-free" if tsv else
          f"valid: {len(net.places)} places, {len(net.transitions)} transitions, contact-free")
    return 0


def _cmd_reach(args) -> int:
    net = _load(args.file)
    graph = semantics.explore_reachable(net, dependency=args.dependency, state_limit=args.limit)
    yesno = "yes" if graph.bound_respected else "no"
    if args.format == "tsv":
        print(f"mode\t{'dependency' if args.dependency else 'plain'}")
        print(f"nodes\t{len(graph.nodes)}")
        print(f"bound\t{graph.state_bound}")
        print(f"bound-respected\t{yesno}")
        bodies, edges = graph.fields()
        rows = [f"node\t{i}\t{body}\n" for i, body in enumerate(bodies)]
        rows += [f"edge\t{s}\t{ids}\t{labs}\t{t}\n" for s, ids, labs, t in edges]
        sys.stdout.write("".join(rows))
    else:
        print(f"mode: {'dependency' if args.dependency else 'plain'}")
        print(f"nodes: {len(graph.nodes)}")
        print(f"bound: {graph.state_bound}")
        print(f"bound respected: {yesno}")
        sys.stdout.write(graph.to_text())
    if graph.limit_exceeded:
        raise semantics.LimitExceededError(f"state limit {args.limit} exceeded; graph is partial")
    return 0


def _cmd_distributed(args) -> int:
    verdict = distributability.check_distributed(_load(args.file), args.limit)
    tsv = args.format == "tsv"
    if verdict.distributed:
        print("verdict\tDISTRIBUTED" if tsv else "DISTRIBUTED")
        groups = verdict.distribution.locations()
        for loc in sorted(groups, key=lambda loc: int(loc[3:])):
            members = " ".join(groups[loc])
            print(f"loc\t{loc[3:]}\t{members}" if tsv else f"loc {loc[3:]}: {members}")
        return 0
    first, last = verdict.concurrent_endpoints
    if tsv:
        print("verdict\tNOT_DISTRIBUTED")
        print(f"chain\t{','.join(verdict.chain)}")
        print(f"concurrent\t{first}\t{last}")
    else:
        print("NOT DISTRIBUTED")
        print(f"chain: {' -> '.join(verdict.chain)}")
        print(f"concurrent: ({first}, {last})")
    return 1


def _cmd_pure_m(args) -> int:
    witnesses = distributability.find_pure_m(_load(args.file), args.limit)
    tsv = args.format == "tsv"
    for w in witnesses:
        marked = ",".join(sorted(w.marking))
        print(f"pure-m\t{w.left}\t{w.middle}\t{w.right}\t{marked}" if tsv else
              f"pure-m: ({w.left}, {w.middle}, {w.right}) at {{{marked}}}")
    if not witnesses and not tsv:
        print("no fully reachable pure M")
    return 1 if witnesses else 0


def _cmd_unfold(args) -> int:
    net = _load(args.file)
    entries = unfolding.enumerate_processes(net, args.bound, args.event_limit)
    if args.complete_only:
        entries = [e for e in entries if e.maximal]
    pomsets = unfolding.visible_pomsets(e.process for e in entries)
    for i, (entry, pomset) in enumerate(zip(entries, pomsets)):
        maximal = "yes" if entry.maximal else "no"
        saturated = "yes" if entry.saturated else "no"
        if args.format == "tsv":
            events, order = pomset.fields()
            print(
                f"process\t{i}\t{entry.process.visible_count}\t{entry.process.event_count}"
                f"\t{maximal}\t{saturated}\t{events}\t{order}"
            )
        else:
            print(
                f"process {i}: visible={entry.process.visible_count} "
                f"events={entry.process.event_count} maximal={maximal} saturated={saturated}"
            )
            sys.stdout.write(pomset.text())
    return 0


def _cmd_pomsets(args) -> int:
    obs = equivalence.bounded_observation(_load(args.file), args.bound, args.event_limit)
    tsv = args.format == "tsv"
    for kind, pomsets in (("complete", obs.complete), ("partial", obs.partial)):
        if not tsv:
            print(f"{kind}:")
        for pomset in sorted(pomsets):
            if tsv:
                events, order = pomset.fields()
                print(f"{kind}\t{events}\t{order}")
            else:
                sys.stdout.write(pomset.text())
    divergent = "yes" if obs.divergent else "no"
    print(f"divergent\t{divergent}" if tsv else f"divergent: {divergent}")
    return 0


def _cmd_compare(args) -> int:
    net_a = _load(args.file_a)
    net_b = _load(args.file_b)
    verdict = equivalence.compare(net_a, net_b, args.bound, args.event_limit)
    tsv = args.format == "tsv"
    if verdict.equivalent:
        print(f"verdict\tEQUIVALENT\t{verdict.bound}" if tsv else
              f"EQUIVALENT (bound {verdict.bound})")
        return 0
    w = verdict.witness
    if tsv:
        events, order = w.pomset.fields()
        print(f"verdict\tINEQUIVALENT\t{verdict.bound}")
        print(f"witness\t{w.side}\t{w.kind}\t{events}\t{order}")
    else:
        print(f"INEQUIVALENT (bound {verdict.bound})")
        print(f"witness ({w.side}, {w.kind}):")
        sys.stdout.write(w.pomset.text())
    return 1


def _cmd_deadlock(args) -> int:
    witnesses = equivalence.find_local_deadlock(_load(args.file), args.limit)
    tsv = args.format == "tsv"
    for w in witnesses:
        trace = ",".join(w.trace)
        marked = ",".join(sorted(w.marking))
        live = ",".join(sorted(w.live_labels))
        print(f"deadlock\t{trace}\t{marked}\t{w.dead_label}\t{live}" if tsv else
              f"deadlock: trace=[{trace}] marking={{{marked}}} dead={w.dead_label} live={{{live}}}")
    if not witnesses and not tsv:
        print("no local deadlock")
    return 1 if witnesses else 0


def _cmd_refine(args) -> int:
    net = _load(args.file)
    refined, record = transforms.refine_transition(net, args.transition)
    _write_or_print(model.serialize_net(refined), args.output)
    if args.output is not None:
        print(f"refined {record.target}: added place {record.new_place}, "
              f"transition {record.new_tau} -> {args.output}")
    return 0


def _cmd_example(args) -> int:
    net = transforms.builtin(args.name)
    _write_or_print(model.serialize_net(net), args.output)
    return 0


def _arg(*flags, **kwargs):
    return flags, kwargs


_FORMAT = _arg("--format", choices=["human", "tsv"], default="human",
               help="report layout: readable text or tab-separated rows (default: %(default)s)")
_FILE = _arg("file", help="net file in the causalnets text format")
_LIMIT = _arg("--limit", type=int, default=model.DEFAULT_STATE_LIMIT,
              help="most reachable markings to explore; more exits 2 (default: %(default)s)")
_BOUND = _arg("-k", "--bound", type=int, default=4,
              help="most visible events per process (default: %(default)s)")
_EVENT_LIMIT = _arg("--event-limit", type=int, default=None,
                    help="most events per process, invisible ones too; a process cut "
                         "there is saturated and counts as divergent (default: none, exact; "
                         "unfold cuts at 10*k + 50 only a net with a reachable invisible "
                         "cycle)")
_OUTPUT = _arg("-o", "--output", default=None,
               help="write the net to this file (default: standard output)")

# Each subcommand's name, help, runner and arguments; argparse lists the
# options in this order.  Only the subcommands that print a report take
# --format: net text has one form.
_COMMANDS = (
    ("validate", "structural and contact-freeness check", _cmd_validate,
     (_FORMAT, _FILE, _LIMIT)),
    ("reach", "reachability graph over plain or dependency markings", _cmd_reach,
     (_FORMAT, _FILE,
      _arg("--dependency", action="store_true",
           help="explore dependency markings, whose tokens carry their visible "
                "causes (default: plain markings)"),
      _LIMIT)),
    ("distributed", "distributability verdict", _cmd_distributed,
     (_FORMAT, _FILE, _LIMIT)),
    ("pure-m", "scan for fully reachable pure M structures", _cmd_pure_m,
     (_FORMAT, _FILE, _LIMIT)),
    ("unfold", "enumerate processes up to a visible bound", _cmd_unfold,
     (_FORMAT, _FILE, _BOUND, _EVENT_LIMIT,
      _arg("--complete-only", action="store_true",
           help="list only maximal processes (default: every process)"))),
    ("pomsets", "bounded observation: pomset sets and divergence", _cmd_pomsets,
     (_FORMAT, _FILE, _BOUND, _EVENT_LIMIT)),
    ("compare", "bounded completed-pomset comparison of two nets", _cmd_compare,
     (_FORMAT, _arg("file_a", help="first net file"), _arg("file_b", help="second net file"),
      _BOUND, _EVENT_LIMIT)),
    ("deadlock", "find local deadlocks caused by hidden steps", _cmd_deadlock,
     (_FORMAT, _FILE, _LIMIT)),
    ("refine", "split a transition behind an invisible prefix", _cmd_refine,
     (_FILE, _arg("-t", "--transition", required=True,
                  help="the transition to split (required)"),
      _OUTPUT)),
    ("example", "emit a bundled net", _cmd_example,
     (_arg("name", choices=list(transforms.BUILTIN_NAMES), help="which bundled net to emit"),
      _OUTPUT)),
)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causalnets",
        description="Causal semantics and distributability analysis for 1-safe labelled nets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary, func, arguments in _COMMANDS:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except model.NetParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (model.NetError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():  # console-script hook
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
