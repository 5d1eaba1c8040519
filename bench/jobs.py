"""The four workloads as fixed job lists, each job with the answer it must give.

A job is one in-process CLI invocation (``causalnets.cli.main(argv)`` with
stdout captured) or one library call whose result is reported as text.  Every
job is checked three ways: its exit code, its verdict against an independent
answer (a closed form for the families, ``oracle.Oracle`` for the bundled and
corpus nets), and its stdout bytes against a digest recorded at the seed
commit.  ``--seed`` shuffles the declaration order of every generated net
file, which may change neither a verdict nor a byte of output, so every seed
runs the same work.  The job order is fixed, because the peak resident memory of a
run depends on it.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen
from gen import TAU, NetSpec
from oracle import Oracle, firing_sequences

BUNDLED = ("pure_m", "repeated_pure_m", "centralised", "deadlocking")

# Corpus net i is the first contact-free draw from Random(f"corpus-{i}").
CORPUS_NETS = 60
CORPUS_K, CORPUS_EVENTS = 3, 12
# Process growth in unfolding is unbounded (a 5 x 5 net can take a minute at
# k=3), so a net whose firing sequences, or its refinement's, exceed this cap
# skips the unfold, pomsets and compare jobs; the run reports how many did.
SEQUENCE_CAP = 1000

Check = Callable[[str], "str | None"]


@dataclass
class Job:
    id: str
    argv: list[str] | None = None  # CLI job
    call: Callable[[], str] | None = None  # library job, returns its report
    exits: tuple[int, ...] = (0,)
    check: Check | None = None  # returns a complaint, or None when right
    nodes: int | None = None  # what every explore_reachable call must return


class Builder:
    """Writes a workload's nets into ``workdir`` and collects its jobs."""

    def __init__(self, workdir: Path, seed: int, lib):
        self.dir = workdir
        self.rng = random.Random(seed)
        self.lib = lib  # namespace with the causalnets modules cli, model, semantics
        self.jobs: list[Job] = []
        self.skipped_unfolding = 0
        self._bundled: dict[str, tuple[str, Oracle]] = {}

    def write(self, name: str, net: NetSpec) -> str:
        path = self.dir / f"{name}.net"
        path.write_text(gen.net_text(net, self.rng), encoding="utf-8")
        return str(path)

    def add(self, job_id: str, argv=None, call=None, exits=(0,), check=None, nodes=None):
        self.jobs.append(Job(job_id, argv, call, tuple(exits), check, nodes))

    def bundled(self, name: str) -> tuple[str, Oracle]:
        """A bundled net as ``causalnets example`` writes it, with its oracle."""
        if name not in self._bundled:
            path = self.dir / f"{name}.net"
            if self.lib.cli.main(["example", name, "-o", str(path)]) != 0:
                raise RuntimeError(f"causalnets example {name} failed")
            net = gen.parse_text(path.read_text(encoding="utf-8"))
            self._bundled[name] = (str(path), Oracle(net))
        return self._bundled[name]

    def cycle_job(self, job_id: str, path: str, nodes: int, edges: int):
        """explore_reachable + check_cycle_dependency as a library call.  The
        nets here are 1-safe, so no cycle may change a token's dependencies.
        The net's text is read here, so that the job calls nothing but the
        library."""
        model, semantics = self.lib.model, self.lib.semantics
        text = Path(path).read_text(encoding="utf-8")

        def call() -> str:
            net = model.parse_net(text)
            graph = semantics.explore_reachable(net, dependency=True)
            violations = semantics.check_cycle_dependency(net, graph)
            return f"nodes {len(graph.nodes)}\nedges {len(graph.edges)}\nviolations {len(violations)}\n"

        self.add(job_id, call=call, check=exact(f"nodes {nodes}\nedges {edges}\nviolations 0\n"),
                 nodes=nodes)

    def oracle_verdicts(self, tag: str, path: str, o: Oracle, fmt: str, commands):
        """Verdict subcommands on a small net, each checked against ``o``."""
        for cmd in commands:
            job_id = f"{tag}/{cmd}/{fmt}"
            if cmd == "reach-dependency":
                argv = ["reach", path, "--dependency", "--format", fmt]
            else:
                argv = [cmd, path, "--format", fmt]
            if cmd == "validate":
                self.add(job_id, argv, check=exact(validate_text(o.net, fmt)))
            elif cmd == "reach":
                self.add(job_id, argv, check=reach_check(fmt, False, len(o.markings),
                                                         o.step_edges(o.markings)),
                         nodes=len(o.markings))
            elif cmd == "reach-dependency":
                deps = o.dependency_markings
                self.add(job_id, argv, check=reach_check(fmt, True, len(deps), dependency_edges(o)),
                         nodes=len(deps))
            elif cmd == "distributed":
                self.add(job_id, argv, exits=(0 if o.distributed() else 1,),
                         check=distributed_check(o, fmt), nodes=len(o.markings))
            elif cmd == "pure-m":
                self.add(job_id, argv, exits=(1 if o.pure_m() else 0,),
                         check=pure_m_check(o, fmt), nodes=len(o.markings))
            elif cmd == "deadlock":
                self.add(job_id, argv, exits=(1 if o.deadlocks() else 0,),
                         check=deadlock_check(o, fmt), nodes=len(o.markings))
            else:
                raise ValueError(cmd)

    def oracle_cycle_job(self, tag: str, path: str, o: Oracle):
        self.cycle_job(f"{tag}/cycle-dependency", path, len(o.dependency_markings),
                       dependency_edges(o))


def dependency_edges(o: Oracle) -> int:
    """Step edges of the dependency graph: a dependency marking enables the
    steps its plain marking enables."""
    return o.step_edges([frozenset(p for p, _ in m) for m in o.dependency_markings])


VERDICTS = ("validate", "distributed", "pure-m", "deadlock")


# --- workloads -------------------------------------------------------------------


def statespace(b: Builder):
    # The verdict subcommands read only the nodes (distributed, pure-m) or the
    # singleton edges (deadlock) of the plain reachability graph, yet at the
    # seed they pay for every step edge: 3^n - 2^n on oneshot(n), 2^n - 1 per
    # marking on loops(n), 2^k - 1 per marking on rings(k).  validate runs
    # check_contact_free's own search.  Only touch_unfolding's one small
    # compare unfolds.
    for family, sizes, nodes in (
        ("oneshot", (5, 7, 9), lambda n: 2 ** n),
        ("loops", (8, 10, 12), lambda n: 1),
        ("rings", (3, 4, 5), lambda n: 3 ** n),
    ):
        for n in sizes:
            net = getattr(gen, family)(n)
            tag = f"{family}({n})"
            path = b.write(f"{family}{n}", net)
            b.add(f"{tag}/validate", ["validate", path], check=exact(validate_text(net, "human")))
            b.add(f"{tag}/distributed", ["distributed", path],
                  check=first_line("DISTRIBUTED"), nodes=nodes(n))
            b.add(f"{tag}/pure-m", ["pure-m", path],
                  check=exact("no fully reachable pure M\n"), nodes=nodes(n))
            b.add(f"{tag}/deadlock", ["deadlock", path],
                  check=exact("no local deadlock\n"), nodes=nodes(n))
    # The paper's four nets, where the verdicts differ: small and typical.
    for name in BUNDLED:
        path, o = b.bundled(name)
        for fmt in ("human", "tsv"):
            b.oracle_verdicts(name, path, o, fmt, VERDICTS)
    touch_unfolding(b)


def reachgraph(b: Builder):
    # The same explorer used to emit rather than decide: reach prints every
    # step edge, byte for byte, so a cheaper explorer for the verdicts must
    # still pay for, and print, all of them here.
    for family, sizes, nodes, edges in (
        ("oneshot", (4, 8), lambda n: 2 ** n, lambda n: 3 ** n - 2 ** n),
        ("loops", (6, 12), lambda n: 1, lambda n: 2 ** n - 1),
        ("rings", (2, 4), lambda n: 3 ** n, lambda n: 3 ** n * (2 ** n - 1)),
    ):
        for n in sizes:
            path = b.write(f"{family}{n}", getattr(gen, family)(n))
            for dep in (False, True):
                for fmt in ("human", "tsv"):
                    argv = ["reach", path, "--format", fmt] + (["--dependency"] if dep else [])
                    mode = "dependency" if dep else "plain"
                    b.add(f"{family}({n})/reach-{mode}/{fmt}", argv,
                          check=reach_check(fmt, dep, nodes(n), edges(n)), nodes=nodes(n))
    for name in BUNDLED:
        path, o = b.bundled(name)
        for fmt in ("human", "tsv"):
            b.oracle_verdicts(name, path, o, fmt, ("reach", "reach-dependency"))
    # check_cycle_dependency lists simple cycles up to its 10^4 cap; on
    # rings(3) it hits the cap, so its time there measures the cap.
    for k in (2, 3):
        path = b.write(f"rings{k}", gen.rings(k))
        b.cycle_job(f"rings({k})/cycle-dependency", path, 3 ** k, 3 ** k * (2 ** k - 1))
    path, o = b.bundled("centralised")
    b.oracle_cycle_job("centralised", path, o)
    path, o = b.bundled("deadlocking")
    b.oracle_verdicts("deadlocking", path, o, "human", VERDICTS)
    touch_unfolding(b)


def unfold(b: Builder):
    rpm, _ = b.bundled("repeated_pure_m")
    cen, _ = b.bundled("centralised")
    # The paper's headline: the lock in centralised orders a- against
    # c-events, which repeated_pure_m never does, so the two differ at every
    # bound shown.  Enumeration, visible_pomset and canonicalize share the time.
    for k in range(4, 9):
        b.add(f"compare(repeated_pure_m,centralised,{k})", ["compare", rpm, cen, "-k", str(k)],
              exits=(1,), check=ac_witness_check(k))
    # n self-loops with one shared label: C(n+k, k) processes but few distinct
    # pomsets (unions of a-chains), so canonicalize dominates.
    for n in (4, 5, 6):
        path = b.write(f"loops_same{n}", gen.loops(n, "a"))
        b.add(f"loops_same({n})/pomsets/7", ["pomsets", path, "-k", "7"],
              check=chains_check(n, 7))
    # Invisible rings diverge: only the empty pomset, every branch cut at the
    # event limit, so this is enumeration alone.
    path = b.write("rings3", gen.rings(3))
    for limit in (20, 25, 30):
        b.add(f"rings(3)/pomsets/0/{limit}", ["pomsets", path, "-k", "0", "--event-limit", str(limit)],
              check=exact("complete:\npartial:\nevents:\norder:\ndivergent: yes\n"))
    # Small bounds on the bundled nets: the interactive case, and enough jobs
    # per pass for a p95.
    for name in BUNDLED:
        path, _ = b.bundled(name)
        for k in (1, 2, 3):
            for cmd in ("unfold", "pomsets"):
                b.add(f"{name}/{cmd}/{k}/human", [cmd, path, "-k", str(k)])
        b.add(f"{name}/unfold/2/tsv", ["unfold", path, "-k", "2", "--format", "tsv"])
        b.add(f"{name}/pomsets/3/tsv", ["pomsets", path, "-k", "3", "--format", "tsv"])
    for left, right in (("pure_m", "repeated_pure_m"), ("repeated_pure_m", "deadlocking"),
                        ("centralised", "deadlocking")):
        b.add(f"compare({left},{right},3)",
              ["compare", b.bundled(left)[0], b.bundled(right)[0], "-k", "3"], exits=(0, 1))
    path, o = b.bundled("deadlocking")
    b.oracle_verdicts("deadlocking", path, o, "tsv", VERDICTS)
    touch_cycle(b)


def corpus(b: Builder):
    # Typical interactive use: small random contact-free nets, each with its
    # refined copy, through every subcommand.  Most jobs take a few ms, so
    # argparse, parsing and rendering are a visible share, and the job count
    # is large enough for a p95.
    bound = ["-k", str(CORPUS_K), "--event-limit", str(CORPUS_EVENTS)]
    for i in range(CORPUS_NETS):
        net = corpus_net(i)
        target = gen.refine_target(net)
        refined = gen.refine(net, target)
        tag = f"corpus{i:03d}"
        a = b.write(tag, net)
        r = b.write(f"{tag}r", refined)
        o = Oracle(net)
        for t, path, oracle in ((tag, a, o), (f"{tag}r", r, Oracle(refined))):
            b.oracle_verdicts(t, path, oracle, "tsv", ("validate", "reach") + VERDICTS[1:])
            b.oracle_verdicts(t, path, oracle, "human", ("reach-dependency",))
        b.add(f"{tag}/refine", ["refine", a, "-t", target], check=exact(gen.net_text(refined)))
        b.oracle_cycle_job(tag, a, o)
        if any(firing_sequences(x, CORPUS_K, CORPUS_EVENTS, SEQUENCE_CAP) > SEQUENCE_CAP
               for x in (net, refined)):
            b.skipped_unfolding += 1
            continue
        for t, path in ((tag, a), (f"{tag}r", r)):
            b.add(f"{t}/unfold", ["unfold", path] + bound)
            b.add(f"{t}/pomsets", ["pomsets", path] + bound)
        b.add(f"{tag}/compare", ["compare", a, r] + bound, exits=(0, 1))


WORKLOADS = {"statespace": statespace, "reachgraph": reachgraph, "unfold": unfold, "corpus": corpus}


def touch_unfolding(b: Builder):
    """One small compare, so the unfolding layers have a reading here too."""
    rpm, _ = b.bundled("repeated_pure_m")
    pm, _ = b.bundled("pure_m")
    b.add("compare(pure_m,repeated_pure_m,2)", ["compare", pm, rpm, "-k", "2"], exits=(0, 1))
    touch_cycle(b)


def touch_cycle(b: Builder):
    """One small cycle check, so check_cycle_dependency has a reading here too."""
    path, o = b.bundled("repeated_pure_m")
    b.oracle_cycle_job("repeated_pure_m", path, o)


def corpus_net(i: int) -> NetSpec:
    rng = random.Random(f"corpus-{i}")
    while True:
        net = gen.random_net(rng)
        if Oracle(net).contact_free:
            return net


# --- checks --------------------------------------------------------------------------


def exact(expected: str) -> Check:
    def check(out: str):
        return None if out == expected else f"expected {expected[:80]!r}, got {out[:80]!r}"
    return check


def first_line(expected: str) -> Check:
    def check(out: str):
        got = out.split("\n", 1)[0]
        return None if got == expected else f"first line {got!r}, expected {expected!r}"
    return check


def validate_text(net: NetSpec, fmt: str) -> str:
    if fmt == "tsv":
        return "verdict\tcontact-free\n"
    return f"valid: {len(net.places)} places, {len(net.transitions)} transitions, contact-free\n"


def _names(text: str) -> frozenset:
    return frozenset(x for x in re.split(r"[,{} ]+", text) if x)


def reach_check(fmt: str, dependency: bool, nodes: int, edges: int) -> Check:
    mode = "dependency" if dependency else "plain"
    sep = "\t" if fmt == "tsv" else ": "
    edge_prefix = "edge\t" if fmt == "tsv" else "edge "

    def check(out: str):
        lines = out.splitlines()
        head = [f"mode{sep}{mode}", f"nodes{sep}{nodes}"]
        if lines[:2] != head:
            return f"header {lines[:2]}, expected {head}"
        got = sum(line.startswith(edge_prefix) for line in lines)
        return None if got == edges else f"{got} edges, expected {edges}"
    return check


def distributed_check(o: Oracle, fmt: str) -> Check:
    want = o.distributed()

    def check(out: str):
        first = out.split("\n", 1)[0]
        got = first in ("DISTRIBUTED", "verdict\tDISTRIBUTED")
        if got != want:
            return f"verdict {first!r}, oracle says distributed={want}"
        if got:
            return None
        # "chain: a -> b -> c" or "chain\ta,b,c"
        chain = re.split(r" -> |,", out.splitlines()[1].split("\t" if fmt == "tsv" else ": ")[1])
        if len(chain) < 2 or frozenset((chain[0], chain[-1])) not in o.concurrent_pairs():
            return f"chain {chain} does not end in a concurrent pair"
        if any(not (o.pre[x] & o.pre[y]) for x, y in zip(chain, chain[1:])):
            return f"chain {chain} has a link without a shared input place"
        return None
    return check


def pure_m_check(o: Oracle, fmt: str) -> Check:
    want = o.pure_m()
    reachable = set(o.markings)

    def check(out: str):
        got = set()
        for line in out.splitlines():
            if fmt == "tsv":
                _, left, mid, right, marking = line.split("\t")
            else:
                hit = re.fullmatch(r"pure-m: \((\w+), (\w+), (\w+)\) at \{([\w,]*)\}", line)
                if hit is None:
                    continue
                left, mid, right, marking = hit.groups()
            if _names(marking) not in reachable:
                return f"pure-m marking {marking} is not reachable"
            got.add((left, mid, right))
        return None if got == want else f"pure-m {sorted(got)}, oracle {sorted(want)}"
    return check


def deadlock_check(o: Oracle, fmt: str) -> Check:
    want = o.deadlocks()

    def check(out: str):
        got = set()
        for line in out.splitlines():
            if fmt == "tsv":
                _, trace, marking, dead, live = line.split("\t")
            else:
                hit = re.fullmatch(r"deadlock: trace=\[([\w,]*)\] marking=\{([\w,]*)\} "
                                   r"dead=(\w+) live=\{([\w,]*)\}", line)
                if hit is None:
                    continue
                trace, marking, dead, live = hit.groups()
            steps = [t for t in trace.split(",") if t]
            m = o.net.marking
            for t in steps:
                if t not in o.enabled(m):
                    return f"deadlock trace {steps} does not fire"
                m = o.fire(m, t)
            if not steps or o.net.labels[steps[-1]] != TAU or m != _names(marking):
                return f"deadlock trace {steps} does not end hidden at {marking}"
            got.add((m, dead, _names(live)))
        return None if got == want else f"deadlocks {len(got)}, oracle {len(want)}"
    return check


def _pomset_blocks(out: str) -> dict[str, list[tuple[list[str], list[tuple[int, int]]]]]:
    """The human ``pomsets`` output as section -> [(labels, order pairs)]."""
    sections: dict = {}
    current = None
    lines = out.splitlines()
    for i, line in enumerate(lines):
        if line in ("complete:", "partial:"):
            current = sections.setdefault(line[:-1], [])
        elif line.startswith("events:"):
            labels = [e.split(":")[1] for e in line.split()[1:]]
            order = [tuple(int(x[1:]) - 1 for x in pair.split("<"))
                     for pair in lines[i + 1].split()[1:]]
            current.append((labels, order))
    return sections


def chains_check(n: int, k: int) -> Check:
    """loops_same(n) at bound k: nothing completes, nothing diverges, and the
    partial pomsets are the disjoint unions of a-chains, one per partition
    of k into at most n parts."""
    def partitions(total, most, parts):
        if total == 0:
            yield ()
        elif parts:
            for first in range(min(total, most), 0, -1):
                for rest in partitions(total - first, first, parts - 1):
                    yield (first,) + rest

    want = set(partitions(k, k, n))

    def check(out: str):
        if not out.endswith("divergent: no\n"):
            return "divergence reported"
        blocks = _pomset_blocks(out)
        if blocks.get("complete"):
            return "complete pomsets reported"
        shapes = []
        for labels, order in blocks.get("partial", []):
            comparable = {frozenset(p) for p in order}
            chain = [{v} | {x for p in comparable if v in p for x in p} for v in range(len(labels))]
            if set(labels) != {"a"} or any(
                frozenset((x, y)) not in comparable for c in chain for x in c for y in c if x < y
            ):
                return f"partial pomset {labels} {order} is not a union of a-chains"
            sizes = [len(c) for c in chain]
            shapes.append(tuple(sorted((L for L in set(sizes) for _ in range(sizes.count(L) // L)),
                                       reverse=True)))
        if sorted(shapes) != sorted(want):
            return f"partial pomset shapes {sorted(shapes)}, expected {sorted(want)}"
        return None
    return check


def ac_witness_check(k: int) -> Check:
    def check(out: str):
        lines = out.splitlines()
        if lines[0] != f"INEQUIVALENT (bound {k})":
            return f"verdict {lines[0]!r}"
        labels = [e.split(":")[1] for e in lines[2].split()[1:]]
        pairs = [tuple(int(x[1:]) - 1 for x in p.split("<")) for p in lines[3].split()[1:]]
        if not any({labels[u], labels[v]} == {"a", "c"} for u, v in pairs):
            return "witness orders no a-event against a c-event"
        return None
    return check
