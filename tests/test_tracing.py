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

from helpers import brute_force_contact_free, discrete_colouring, loops, visible_index_form

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


def test_pomset_layer_is_traced(capsys, tmp_path):
    # visible_pomsets reaches canonicalize through the module global, once
    # per distinct index form among the processes a command shows whose
    # initial colouring (depth, label, in-degree, out-degree) is not
    # discrete; an index form is the labels of the visible events in
    # ascending prefix order and the order pairs between their indices
    def refined_forms(entries):
        forms = {visible_index_form(e.process) for e in entries}
        return sum(not discrete_colouring(*form) for form in forms)

    # every visible set the bundled nets show at k=3 is discrete; the
    # a-labelled self-loops show sets that are not
    files = {name: NETS / f"{name}.net" for name in cn.BUILTIN_NAMES}
    files["loops"] = tmp_path / "loops.net"
    files["loops"].write_text(cn.serialize_net(loops(4, "a")), encoding="utf-8")
    expected = {}
    for name, path in files.items():
        entries = cn.enumerate_processes(cn.parse_net(path.read_text(encoding="utf-8")), 3)
        expected[name, "unfold"] = refined_forms(entries)
        expected[name, "pomsets"] = refined_forms(
            [e for e in entries if e.maximal or e.process.visible_count == 3])
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        for (name, command), calls in expected.items():
            before = tracer.counts["unfolding.canonicalize.calls"]
            assert main([command, str(files[name]), "-k", "3"]) == 0
            assert tracer.counts["unfolding.canonicalize.calls"] - before == calls, (name, command)
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert all(calls == 0 for (name, _), calls in expected.items() if name != "loops")
    assert all(expected["loops", command] for command in ("unfold", "pomsets"))
