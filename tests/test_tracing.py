"""The benchmark's tracer against the library it wraps.

``bench/tracing.py`` names the functions it wraps and, for the marking
verdicts, expects one ``explore_reachable`` call whose node count is the
net's number of reachable markings.  A renamed function, or a verdict that
stops calling ``explore_reachable``, fails every traced benchmark run; these
tests fail first.  The module is loaded from its file and not changed.
"""

import importlib
import importlib.util
from pathlib import Path

import causalnets as cn
from causalnets.cli import main

from helpers import brute_force_contact_free

ROOT = Path(__file__).resolve().parent.parent
NETS = ROOT / "src" / "causalnets" / "nets"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_resolves():
    for module, name in load_tracing().TRACED:
        assert callable(getattr(importlib.import_module(f"causalnets.{module}"), name)), name


def test_marking_verdicts_explore_once(capsys):
    reachable = {}
    for name in cn.BUILTIN_NAMES:
        ok, markings = brute_force_contact_free(cn.builtin(name))
        assert ok
        reachable[name] = len(markings)
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        for name in cn.BUILTIN_NAMES:
            for command in ("distributed", "pure-m", "deadlock"):
                tracer.start_job(f"{name}/{command}")
                assert main([command, str(NETS / f"{name}.net")]) in (0, 1)
                tracer.end_job()
                assert tracer.job_nodes == [reachable[name]], (name, command)
    finally:
        tracer.uninstall()
    capsys.readouterr()


def test_pomset_layer_is_traced(capsys):
    # visible_pomsets reaches canonicalize through the module global, once
    # per distinct index form among the processes a command shows: the
    # labels of the visible events in ascending prefix order and the order
    # pairs between their indices
    def index_form(process):
        prefix = process.prefix
        visible = [e for e in range(len(prefix.trans)) if (process.config & prefix.visible) >> e & 1]
        index = {e: i for i, e in enumerate(visible)}
        labels = tuple(prefix.net.labelling[prefix.trans[e]] for e in visible)
        pairs = frozenset((index[u], index[v]) for v in visible for u in visible
                          if prefix.vpast[v] >> u & 1)
        return labels, pairs

    def distinct_index_forms(entries):
        return len({index_form(e.process) for e in entries})

    expected = {}
    for name in cn.BUILTIN_NAMES:
        entries = cn.enumerate_processes(cn.builtin(name), 3)
        expected[name, "unfold"] = distinct_index_forms(entries)
        expected[name, "pomsets"] = distinct_index_forms(
            [e for e in entries if e.maximal or e.process.visible_count == 3])
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        for (name, command), calls in expected.items():
            before = tracer.counts["unfolding.canonicalize.calls"]
            assert main([command, str(NETS / f"{name}.net"), "-k", "3"]) == 0
            assert tracer.counts["unfolding.canonicalize.calls"] - before == calls, (name, command)
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert all(expected.values())
