"""Command-line front end.

Every analysis is a subcommand with deterministic output.  Exit codes:
0 when the command succeeds and the checked property holds (or there is
nothing to refute), 1 when a property is refuted and a witness was printed,
2 on usage, parse, or limit errors.
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
    if verdict.status == "limit_exceeded":
        print(f"state limit {args.limit} exceeded", file=sys.stderr)
        return 2
    if verdict.status == "violation":
        if args.format == "tsv":
            print(f"violation\t{verdict.transition}\t{','.join(sorted(verdict.marking))}")
        else:
            print(
                f"CONTACT VIOLATION: transition {verdict.transition} "
                f"at marking {model.render_marking(verdict.marking)}"
            )
        return 1
    if args.format == "tsv":
        print("verdict\tcontact-free")
    else:
        print(f"valid: {len(net.places)} places, {len(net.transitions)} transitions, contact-free")
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
        print(f"state limit {args.limit} exceeded; graph is partial", file=sys.stderr)
        return 2
    return 0


def _cmd_distributed(args) -> int:
    net = _load(args.file)
    verdict = distributability.check_distributed(net, args.limit)
    if args.format == "tsv":
        if verdict.distributed:
            print("verdict\tDISTRIBUTED")
            groups = verdict.distribution.locations()
            for loc in sorted(groups, key=lambda loc: int(loc[3:])):
                print(f"loc\t{loc[3:]}\t{' '.join(groups[loc])}")
        else:
            first, last = verdict.concurrent_endpoints
            print("verdict\tNOT_DISTRIBUTED")
            print(f"chain\t{','.join(verdict.chain)}")
            print(f"concurrent\t{first}\t{last}")
    else:
        sys.stdout.write(distributability.verdict_text(verdict))
    return 0 if verdict.distributed else 1


def _cmd_pure_m(args) -> int:
    net = _load(args.file)
    witnesses = distributability.find_pure_m(net, args.limit)
    if args.format == "tsv":
        for w in witnesses:
            print(f"pure-m\t{w.left}\t{w.middle}\t{w.right}\t{','.join(sorted(w.marking))}")
    else:
        sys.stdout.write(distributability.pure_m_text(witnesses))
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
    net = _load(args.file)
    obs = equivalence.bounded_observation(net, args.bound, args.event_limit)
    divergent = "yes" if obs.divergent else "no"
    if args.format == "tsv":
        for kind, pomsets in (("complete", obs.complete), ("partial", obs.partial)):
            for pomset in sorted(pomsets):
                events, order = pomset.fields()
                print(f"{kind}\t{events}\t{order}")
        print(f"divergent\t{divergent}")
    else:
        print("complete:")
        sys.stdout.write(unfolding.pomsets_text(obs.complete))
        print("partial:")
        sys.stdout.write(unfolding.pomsets_text(obs.partial))
        print(f"divergent: {divergent}")
    return 0


def _cmd_compare(args) -> int:
    net_a = _load(args.file_a)
    net_b = _load(args.file_b)
    verdict = equivalence.compare(net_a, net_b, args.bound, args.event_limit)
    if args.format == "tsv":
        if verdict.equivalent:
            print(f"verdict\tEQUIVALENT\t{verdict.bound}")
        else:
            w = verdict.witness
            events, order = w.pomset.fields()
            print(f"verdict\tINEQUIVALENT\t{verdict.bound}")
            print(f"witness\t{w.side}\t{w.kind}\t{events}\t{order}")
    else:
        sys.stdout.write(equivalence.verdict_text(verdict))
    return 0 if verdict.equivalent else 1


def _cmd_deadlock(args) -> int:
    net = _load(args.file)
    witnesses = equivalence.find_local_deadlock(net, args.limit)
    if args.format == "tsv":
        for w in witnesses:
            print(
                f"deadlock\t{','.join(w.trace)}\t{','.join(sorted(w.marking))}"
                f"\t{w.dead_label}\t{','.join(sorted(w.live_labels))}"
            )
    else:
        sys.stdout.write(equivalence.deadlock_text(witnesses))
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


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causalnets",
        description="Causal semantics and distributability analysis for 1-safe labelled nets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, formats=True, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        if formats:
            p.add_argument("--format", choices=["human", "tsv"], default="human")
        return p

    p = add("validate", _cmd_validate, help="structural and contact-freeness check")
    p.add_argument("file")
    p.add_argument("--limit", type=int, default=model.DEFAULT_STATE_LIMIT)

    p = add("reach", _cmd_reach, help="reachability graph over plain or dependency markings")
    p.add_argument("file")
    p.add_argument("--dependency", action="store_true")
    p.add_argument("--limit", type=int, default=model.DEFAULT_STATE_LIMIT)

    p = add("distributed", _cmd_distributed, help="distributability verdict")
    p.add_argument("file")
    p.add_argument("--limit", type=int, default=model.DEFAULT_STATE_LIMIT)

    p = add("pure-m", _cmd_pure_m, help="scan for fully reachable pure M structures")
    p.add_argument("file")
    p.add_argument("--limit", type=int, default=model.DEFAULT_STATE_LIMIT)

    p = add("unfold", _cmd_unfold, help="enumerate processes up to a visible bound")
    p.add_argument("file")
    p.add_argument("-k", "--bound", type=int, default=4)
    p.add_argument("--event-limit", type=int, default=None)
    p.add_argument("--complete-only", action="store_true")

    p = add("pomsets", _cmd_pomsets, help="bounded observation: pomset sets and divergence")
    p.add_argument("file")
    p.add_argument("-k", "--bound", type=int, default=4)
    p.add_argument("--event-limit", type=int, default=None)

    p = add("compare", _cmd_compare, help="bounded completed-pomset comparison of two nets")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("-k", "--bound", type=int, default=4)
    p.add_argument("--event-limit", type=int, default=None)

    p = add("deadlock", _cmd_deadlock, help="find local deadlocks caused by hidden steps")
    p.add_argument("file")
    p.add_argument("--limit", type=int, default=model.DEFAULT_STATE_LIMIT)

    p = add("refine", _cmd_refine, formats=False,
            help="split a transition behind an invisible prefix")
    p.add_argument("file")
    p.add_argument("-t", "--transition", required=True)
    p.add_argument("-o", "--output", default=None)

    p = add("example", _cmd_example, formats=False, help="emit a bundled net")
    p.add_argument("name", choices=list(transforms.BUILTIN_NAMES))
    p.add_argument("-o", "--output", default=None)

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
    except (model.NetError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():  # console-script hook
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
