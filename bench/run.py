#!/usr/bin/env python3
"""Benchmark for causalnets: time to a verdict on four workloads.

Run from the repository root:

    python3 bench/run.py --workload statespace --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30   # each workload in its own process
    python3 bench/run.py --record                                # re-record the stdout digests

One run builds its workload's input nets from ``--seed`` under
``.bench_work/``, then repeats passes over the workload's fixed job list for
about ``--seconds`` seconds (at least three passes), in one process and one
thread.  Every job is checked (see ``jobs.py``).  The last line of stdout is
a JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Every time is scaled to a fixed host speed (see ``hostspeed.py``): the
reference kernel runs between chunks of jobs, and each job's time is
multiplied by ``REFERENCE_S`` over the kernel's time around it.

With ``--trace 0`` the metrics are end to end.  Each job's time is its
median over the run's passes; ``wall_s`` is the sum of those medians (one
typical pass), ``job_ms.p50`` and ``job_ms.p95`` their percentiles over the
jobs, ``peak_rss_mb`` the process's peak resident memory and ``setup_s`` the
median time a fresh interpreter takes to import ``causalnets.cli``, timed
inside that interpreter.  With ``--trace 1`` untraced and traced passes
alternate and the metrics are per layer: self times of the spans in
``tracing.py`` from each job's median traced pass, the counts they record,
the tracer's own measured time over the untraced ``wall_s``, and the share
of traced job time that no span covers.  Spans go to
``.bench_work/spans-<workload>.tsv.gz``.

The exit code is 1 when a job crashed, exited wrongly, gave a wrong verdict,
printed other bytes than recorded or overran its budget, or when the layer
self times and the tracer's time do not add up to the traced job time within
``UNATTRIBUTED_MAX``; it is 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import types
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import hostspeed
import jobs
from hostspeed import CHUNK_S, REFERENCE_S
from tracing import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
DIGESTS = BENCH / "digests.json"
WORK = ROOT / ".bench_work"

# Far above every job at the seed commit (the longest, the capped cycle check
# on rings(3), takes 1-2 s on two shared cores), so failed counts do not flicker.
JOB_BUDGET_S = 15.0
MIN_PASSES = 3
LAST_PASS_START_S = 100.0  # keeps a run well inside three minutes when a pass is slow
# Fresh-interpreter imports: a few before the passes and one after each, so
# that the median spans the whole run rather than one busy moment of the host.
SETUP_BEFORE = 5
# Job time outside every span (capturing stdout, the job loop) may be at most
# this share of the traced job time, or the spans miss a layer.
UNATTRIBUTED_MAX = 0.02


class Overrun(BaseException):
    """Raised by SIGALRM in a job that exceeds JOB_BUDGET_S; a BaseException
    so that no handler in the program under test swallows it."""


def _alarm(signum, frame):
    raise Overrun()


def die(message: str):
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_library():
    """Import causalnets from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "causalnets" / "cli.py").is_file():
        die(f"no causalnets sources under {src}")
    sys.path.insert(0, str(src))
    import causalnets
    from causalnets import cli, model, semantics

    if Path(causalnets.__file__).resolve().parent != (src / "causalnets").resolve():
        die(f"imported causalnets from {causalnets.__file__}, not from {src}")
    return types.SimpleNamespace(cli=cli, model=model, semantics=semantics)


def import_seconds() -> float:
    """Seconds one fresh interpreter takes to import causalnets.cli, which
    every CLI invocation pays.  The child times the import itself, so
    interpreter start-up does not count, and runs the reference kernel just
    before and after it to scale the time to the reference host speed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = (f"import sys, time; sys.path.insert(0, {str(BENCH)!r}); import hostspeed\n"
            "before = hostspeed.reference()\n"
            "start = time.perf_counter()\n"
            "import causalnets.cli\n"
            "took = time.perf_counter() - start\n"
            "print(took, before, hostspeed.reference())\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout
    took, before, after = map(float, out.split())
    return took * REFERENCE_S / ((before + after) / 2)


class Runner:
    def __init__(self, lib, job_list, digests, tracer: Tracer | None):
        self.lib = lib
        self.jobs = job_list
        self.digests = digests  # None while recording
        self.tracer = tracer
        self.failures: list[str] = []
        self.attempted = 0
        self.recorded: dict[str, str] = {}

    def run_job(self, job: jobs.Job, traced: bool) -> float:
        """Run one job and check it; return its time in seconds, charged at
        the budget when it overran."""
        out = io.StringIO()
        problem = code = None
        overran = False
        # A CLI invocation starts in a fresh process, so earlier jobs' garbage
        # is collected here, outside the timed region, not inside a later job.
        gc.collect()
        if traced:
            self.tracer.start_job(job.id)
        signal.setitimer(signal.ITIMER_REAL, JOB_BUDGET_S)
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                if job.argv is not None:
                    code = self.lib.cli.main(job.argv)
                else:
                    out.write(job.call())
                    code = 0
        except Overrun:
            overran = True
        except Exception as exc:  # a crash in the program is a failed job, not a crashed run
            problem = f"raised {exc!r}"
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        self.attempted += 1
        if traced:
            self.tracer.end_job()
            self.tracer.counts["cli.stdout_bytes"] += len(out.getvalue().encode())
        if overran:
            self.failures.append(f"{job.id}: overran its {JOB_BUDGET_S:g} s budget")
            return JOB_BUDGET_S
        if problem is None:
            problem = self.verify(job, code, out.getvalue(), traced)
        if problem is not None:
            self.failures.append(f"{job.id}: {problem}")
        return elapsed

    def verify(self, job: jobs.Job, code, text: str, traced: bool) -> str | None:
        if code not in job.exits:
            return f"exit code {code}, expected {' or '.join(map(str, job.exits))}"
        if job.check is not None:
            try:
                complaint = job.check(text)
            except (ValueError, IndexError) as exc:
                complaint = f"unreadable output ({exc!r})"
            if complaint:
                return complaint
        # an empty list here means a namespace the tracer failed to wrap
        if traced and job.nodes is not None and (
                not self.tracer.job_nodes or any(n != job.nodes for n in self.tracer.job_nodes)):
            return f"explore_reachable gave {self.tracer.job_nodes} nodes, expected {job.nodes}"
        digest = hashlib.sha256(text.encode()).hexdigest()[:12]
        if self.digests is None:
            self.recorded[job.id] = digest
        elif self.digests.get(job.id) != digest:
            return "stdout differs from the bytes recorded at the seed commit"
        return None

    def run_pass(self, traced: bool) -> tuple[float, list[float], list[float]]:
        """One pass over the jobs, with the reference kernel before the first
        job and after every CHUNK_S of job time.  A chunk's scale factor is
        REFERENCE_S over the kernel's mean time within the chunk's own length
        (at least CHUNK_S) either side of it: the samples at its ends for a
        chunk of short jobs, more of them for one long job, which lasts
        through more changes of host speed.  Returns the pass's wall time,
        each job's time scaled to the reference speed, and each job's factor."""
        start = time.perf_counter()
        times: list[float] = []
        kernel = [(start, hostspeed.reference())]  # (when it started, seconds)
        chunks = []  # (first job, end job, start, end)
        first, chunk_start = 0, time.perf_counter()
        for job in self.jobs:
            times.append(self.run_job(job, traced))
            if sum(times[first:]) >= CHUNK_S or len(times) == len(self.jobs):
                chunk_end = time.perf_counter()
                kernel.append((chunk_end, hostspeed.reference()))
                chunks.append((first, len(times), chunk_start, chunk_end))
                first, chunk_start = len(times), time.perf_counter()
        factors: list[float] = []
        for lo, hi, begin, end in chunks:
            pad = max(CHUNK_S, end - begin)
            near = [k for when, k in kernel if begin - pad <= when <= end + pad]
            factors += [REFERENCE_S / statistics.fmean(near)] * (hi - lo)
        scaled = [t * f for t, f in zip(times, factors)]
        return time.perf_counter() - start, scaled, factors


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def measure(runner: Runner, seconds: float, trace: bool, imports: list[float] | None):
    """Passes until ``seconds`` are used, at least MIN_PASSES of each kind;
    with ``trace`` every other pass is traced.  Returns the untraced passes
    as lists of scaled job times in seconds, and the traced ones as (scaled
    job times, scaled ms per job and layer, counts) triples.  With
    ``imports``, a timed fresh import follows each pass."""
    untraced: list[list[float]] = []
    traced: list[tuple] = []
    walls: list[float] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        enough = len(untraced) >= MIN_PASSES and (not trace or len(traced) >= MIN_PASSES)
        if enough and elapsed + statistics.median(walls) > seconds:
            break
        if walls and elapsed > LAST_PASS_START_S:
            break
        if trace and len(walls) % 2 == 1:
            tracer = runner.tracer
            first, counts = len(tracer.spans), Counter(tracer.counts)
            tracer.install()
            try:
                wall, times, factors = runner.run_pass(traced=True)
            finally:
                tracer.uninstall()
            counts = Counter(tracer.counts) - counts
            scale = {job.id: f for job, f in zip(runner.jobs, factors)}
            layer_ms = {job: {layer: ms * scale[job] for layer, ms in layers.items()}
                        for job, layers in tracer.self_ms(first, len(tracer.spans)).items()}
            traced.append((times, layer_ms, counts))
        else:
            wall, times, _ = runner.run_pass(traced=False)
            untraced.append(times)
        walls.append(wall)
        if imports is not None:
            imports.append(import_seconds())
    return untraced, traced, walls


def typical(passes: list[list[float]]) -> list[float]:
    """Each job's median time over the passes."""
    return [statistics.median(column) for column in zip(*passes)]


def end_to_end(untraced, setup_s) -> dict[str, tuple[float, str]]:
    times = sorted(t * 1e3 for t in typical(untraced))
    p95 = percentile(times, 95)
    print(f"jobs: {len(times)}, beyond p95: {sum(t > p95 for t in times)}")
    return {
        "wall_s": (sum(times) / 1e3, "s"),
        "job_ms.p50": (statistics.median(times), "ms"),
        "job_ms.p95": (p95, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(job_list, untraced, traced) -> dict[str, tuple[float, str]]:
    """Layer self times from each job's median traced pass, so that they and
    the tracer's own time add up to that pass's job time; counts from the
    first traced pass, since they repeat exactly."""
    layers = dict.fromkeys(LAYERS, 0.0)
    tracer_ms = traced_ms = 0.0
    for j, job in enumerate(job_list):
        by_time = sorted(traced, key=lambda p: p[0][j])
        times, layer_ms, _ = by_time[(len(by_time) - 1) // 2]
        traced_ms += times[j] * 1e3
        for layer, ms in layer_ms.get(job.id, {}).items():
            if layer == Tracer.OWN:
                tracer_ms += ms
            else:
                layers[layer] += ms
    counts = traced[0][2]
    nodes = counts["semantics.explore_reachable.nodes"]
    edges = counts["semantics.explore_reachable.edges"]
    calls = counts["unfolding.canonicalize.calls"]
    out = {f"{layer}.ms": (ms, "ms") for layer, ms in layers.items()}
    out.update({
        "semantics.explore_reachable.nodes": (nodes, "count"),
        "semantics.explore_reachable.edges": (edges, "count"),
        "semantics.explore_reachable.edges_per_node": (edges / nodes if nodes else 0.0, "ratio"),
        "unfolding.enumerate_processes.processes":
            (counts["unfolding.enumerate_processes.processes"], "count"),
        "unfolding.enumerate_processes.saturated":
            (counts["unfolding.enumerate_processes.saturated"], "count"),
        "unfolding.canonicalize.calls": (calls, "count"),
        "unfolding.canonicalize.distinct_ratio":
            (counts["unfolding.canonicalize.distinct"] / calls if calls else 0.0, "ratio"),
        "cli.stdout_bytes": (counts["cli.stdout_bytes"], "bytes"),
        # job time that no span covers: capturing stdout and the job loop itself
        "trace.unattributed_share": (1 - (sum(layers.values()) + tracer_ms) / traced_ms, "ratio"),
        # the wrappers' own measured time, over the untraced wall_s
        "trace.overhead_share": (tracer_ms / (sum(typical(untraced)) * 1e3), "ratio"),
    })
    return out


def run_workload(args) -> int:
    lib = load_library()
    if not DIGESTS.is_file():
        die(f"no recorded digests in {DIGESTS}; run with --record first")
    digests = json.loads(DIGESTS.read_text(encoding="utf-8"))
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        imports = None
        if not args.trace:
            import_seconds()  # writes the bytecode caches
            imports = [import_seconds() for _ in range(SETUP_BEFORE)]
        builder = jobs.Builder(workdir, args.seed, lib)
        jobs.WORKLOADS[args.workload](builder)
        tracer = Tracer() if args.trace else None
        runner = Runner(lib, builder.jobs, digests, tracer)
        # Keep the benchmark's own objects (jobs, oracles, digests) out of
        # every collection, as they would be in a fresh CLI process.
        gc.collect()
        gc.freeze()
        untraced, traced, walls = measure(runner, args.seconds, bool(args.trace), imports)
        if tracer is not None:
            tracer.write(WORK / f"spans-{args.workload}.tsv.gz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}: {len(builder.jobs)} jobs per pass, "
          f"{len(untraced)} untraced and {len(traced)} traced passes, "
          f"median pass {statistics.median(walls):.3f} s")
    if builder.skipped_unfolding:
        print(f"corpus nets over the {jobs.SEQUENCE_CAP}-sequence cap, run without "
              f"unfold/pomsets/compare: {builder.skipped_unfolding}")
    problems = []
    if args.trace:
        metrics = per_layer(builder.jobs, untraced, traced)
        unattributed = metrics["trace.unattributed_share"][0]
        if not 0 <= unattributed <= UNATTRIBUTED_MAX:
            problems.append(f"layer self times leave {unattributed:.4f} of the traced job time "
                            f"unattributed, outside [0, {UNATTRIBUTED_MAX}]")
    else:
        metrics = end_to_end(untraced, statistics.median(imports))
    failed = len(runner.failures)
    print(f"failed_share: {failed / runner.attempted:.4f} ({failed} of {runner.attempted} jobs)")
    for failure, times in Counter(runner.failures).most_common(20):
        print(f"FAILED {failure} (x{times})")
    for problem in problems:
        print(f"FAILED trace: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>14.4f} {unit}")
    correct = not runner.failures and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def record() -> int:
    """Run every job of every workload once, check the verdicts, and write
    the stdout digests the runs compare against."""
    lib = load_library()
    workdir = WORK / f"record-{os.getpid()}"
    workdir.mkdir(parents=True)
    recorded = {}
    try:
        for name, build in jobs.WORKLOADS.items():
            builder = jobs.Builder(workdir, 0, lib)
            build(builder)
            runner = Runner(lib, builder.jobs, None, None)
            runner.run_pass(traced=False)
            for failure in runner.failures:
                print(f"FAILED {name} {failure}")
            if runner.failures:
                return 1
            recorded.update(runner.recorded)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    DIGESTS.write_text(json.dumps(recorded, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(recorded)} digests in {DIGESTS}")
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS is per workload."""
    status = 0
    for name in jobs.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(jobs.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="re-record the stdout digests")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGALRM, _alarm)
    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
