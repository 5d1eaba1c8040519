"""The package's public names: what ``from causalnets import *`` brings in."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import ModuleType

import pytest

import causalnets as cn
from causalnets import distributability, equivalence, model, semantics, transforms, unfolding

from helpers import chain, rings
from test_unfolding import input_less_net

# The modules whose public names the package re-exports, in its order.
EXPORTING = (model, semantics, distributability, unfolding, equivalence, transforms)

# Names the tests keep in helpers.py; no program, demo or benchmark uses them.
TEST_ONLY = (
    "enabled_steps", "dependency_classes", "DependencyClass", "NotACycleError", "net_end",
)


def test_every_public_name_resolves_once():
    assert [name for name, n in Counter(cn.__all__).items() if n > 1] == []
    namespace: dict = {}
    exec("from causalnets import *", namespace)  # raises on a name that does not resolve
    assert set(cn.__all__) <= namespace.keys()


def test_each_module_states_its_public_names_once():
    # a module's __all__ names what it defines itself, never an import; the
    # package's __all__ joins the six disjoint lists, and it only star-imports
    for m in EXPORTING:
        body = ast.parse(Path(m.__file__).read_text(encoding="utf-8")).body
        defined = {node.name for node in body if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
        defined |= {target.id for node in body if isinstance(node, ast.Assign)
                    for target in node.targets if isinstance(target, ast.Name)}
        imported = {alias.asname or alias.name for node in body
                    if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        assert [name for name in m.__all__ if name not in defined - imported] == [], m.__name__
    names = [name for m in EXPORTING for name in m.__all__]
    assert len(set(names)) == len(names) == 56
    assert list(cn.__all__) == names
    public = {name for name, value in vars(cn).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert sorted(public - set(cn.__all__)) == []
    init = ast.parse(Path(cn.__file__).read_text(encoding="utf-8")).body
    assert [alias.name for node in init if isinstance(node, ast.ImportFrom)
            for alias in node.names] == ["*"] * len(EXPORTING)


def test_test_only_names_left_the_library():
    assert [name for name in TEST_ONLY if hasattr(cn, name) or name in cn.__all__] == []
    assert not hasattr(cn.DependencyMarking, "deps_at")


def test_report_layouts_left_the_library():
    # the CLI owns every report layout, human and TSV alike
    renderers = ("verdict_text", "pure_m_text", "deadlock_text", "pomsets_text", "render_marking")
    modules = (distributability, equivalence, unfolding, model)
    assert [(m.__name__, r) for m in modules for r in renderers if hasattr(m, r)] == []


def test_reach_graph_has_no_index():
    # nodes are looked up with graph.nodes.index; no second dict is kept
    assert "index" not in cn.ReachGraph._fields


def test_process_has_no_end_marking():
    # the end marking is the keys of ``Process.end``; maximality reads its
    # mask ``Process.marked``
    assert not hasattr(cn.Process, "end_marking")


def test_contact_error_is_public():
    assert "ContactError" in cn.__all__ and issubclass(cn.ContactError, cn.NetError)


def test_reach_edge_keeps_only_source_step_target():
    # an edge's labels are read through ReachGraph.labelling
    assert cn.ReachEdge._fields == ("source", "step", "target")


def test_one_interleaving_search():
    # the verdicts call explore_reachable(steps=False) directly
    assert not hasattr(semantics, "_interleavings")


def test_step_functions_fire_on_codes():
    # no marking-level driver: the step functions encode once and fire on codes
    assert not hasattr(semantics, "_tau_closure") and not hasattr(semantics, "_fire")


def test_dep_token_is_a_named_tuple():
    # equality and hashing are tuple operations, as for ReachEdge
    assert cn.DepToken._fields == ("place", "deps")


def test_one_limit_error():
    # every state or process limit raises LimitExceededError
    assert not hasattr(cn, "TruncatedGraphError") and "TruncatedGraphError" not in cn.__all__
    assert not hasattr(semantics, "TruncatedGraphError")


def test_one_order_form():
    # canonicalize takes the index form a Pomset prints; no vertex-named class
    assert not hasattr(cn, "LPO") and "LPO" not in cn.__all__
    assert not hasattr(unfolding, "LPO")


def test_process_entry_is_a_named_tuple():
    # built once per enumerated process; equal to the plain tuple of its fields
    assert cn.ProcessEntry._fields == ("process", "maximal", "saturated")
    process = cn.initial_process(cn.make_net())
    assert cn.ProcessEntry(process, True, False) == (process, True, False)


def test_independence_is_read_from_the_table():
    # step_enabled and the explorer read the masks ``net._table.later``
    assert not hasattr(semantics, "_independent")


def test_preset_sharing_is_read_from_the_table():
    # distributability reads ``net._table.sharing``
    assert not hasattr(distributability, "_shared_preplace_graph")


def test_prefix_keeps_no_conditions():
    # a prefix keeps per event its transition and past; a process holds its
    # tokens' pasts, so no condition is numbered and no table entry copied
    kept = ("moves", "pre", "post", "cond_place", "cond_producer", "vpast")
    prefix = cn.initial_process(cn.builtin("centralised")).prefix
    assert [name for name in kept
            if hasattr(unfolding._Prefix, name) or hasattr(prefix, name)] == []


@pytest.fixture
def searched(monkeypatch) -> list:
    """The prefix and the event limit of each ``unfolding._search`` run, in
    call order."""
    runs = []
    search = unfolding._search

    def spy(prefix, visible_bound, event_limit, *args):
        runs.append((prefix, event_limit))
        return search(prefix, visible_bound, event_limit, *args)

    monkeypatch.setattr(unfolding, "_search", spy)
    return runs


def test_one_state_search(searched, monkeypatch):
    # enumerate_processes numbers every event, bounded_observation and
    # compare only the visible ones, in the one search; compare runs it for
    # each net itself, not through bounded_observation; only
    # enumerate_processes has a default event limit, and resolves it itself
    assert not hasattr(unfolding, "_extension") and not hasattr(unfolding, "_extend")
    net, other = cn.builtin("repeated_pure_m"), cn.builtin("centralised")
    cn.enumerate_processes(net, 2)
    cn.bounded_observation(net, 2)
    cn.enumerate_processes(net, 2, 7)
    cn.bounded_observation(net, 2, 7)
    monkeypatch.setattr(equivalence, "bounded_observation", None)
    cn.compare(net, other, 2)
    cn.compare(net, other, 2, 7)
    assert [(prefix.every, limit) for prefix, limit in searched] == [
        (True, 70), (False, None), (True, 7), (False, 7),
        (False, None), (False, None), (False, 7), (False, 7)]
    assert [prefix.net for prefix, _ in searched[4:]] == [net, other] * 2


def test_unfold_searches_again_only_after_a_cut(searched):
    # with no event limit, enumerate_processes cuts at 10k + 50 events; only
    # when that saturates a process does the observation look for an
    # invisible cycle, and with none the search runs again uncut
    for net in (cn.builtin("centralised"), chain(70), rings(2)):
        cn.enumerate_processes(net, 1)
    assert [(prefix.every, limit) for prefix, limit in searched] == [
        (True, 60), (True, 60), (False, None), (True, None), (True, 60), (False, None)]


@pytest.fixture
def walks(monkeypatch) -> list:
    """The module through whose ``_bfs_tree`` each call went, in call order."""
    calls, walk = [], semantics._bfs_tree
    for m in (semantics, distributability, equivalence, unfolding):
        assert m._bfs_tree is walk

        def spy(after, starts, name=m.__name__):
            calls.append(name)
            return walk(after, starts)

        monkeypatch.setattr(m, "_bfs_tree", spy)
    return calls


def test_one_breadth_first_walk(walks):
    # every breadth-first tree or closure outside the two numbering searches
    # is _bfs_tree: the invisible closure, the live labels, the chain, the
    # cycle and the orbits under automorphisms; no other module imports it
    assert [m.__name__ for m in (model, transforms) if hasattr(m, "_bfs_tree")] == []
    net = cn.make_net(["p"], ["a", "u"], [("p", "a"), ("a", "p"), ("p", "u"), ("u", "p")],
                      ["p"], {"a": "a"})
    m0 = cn.initial_dependency_marking(net)
    # a violating cycle: a adds its label to p's token, u puts it back as it was
    loop = cn.ReachGraph(True, [m0, cn.fire_step(net, m0, {"a"})],
                         [cn.ReachEdge(0, ("a",), 1), cn.ReachEdge(1, ("u",), 0)], 4, False,
                         net.labelling)
    pure_m = cn.builtin("repeated_pure_m")
    calls = {  # name: (call, the module whose _bfs_tree it reaches)
        "weak_step": (lambda: cn.weak_step(net, m0, ["a"]), "semantics"),
        "find_local_deadlock": (lambda: cn.find_local_deadlock(cn.builtin("deadlocking")),
                                "equivalence"),
        "check_distributed": (lambda: cn.check_distributed(pure_m).chain, "distributability"),
        "check_cycle_dependency": (lambda: cn.check_cycle_dependency(net, loop), "semantics"),
        "canonicalize": (lambda: cn.canonicalize(["a"] * 6, [(0, 1), (2, 3), (4, 5)]),
                         "unfolding"),
    }
    for name, (call, module) in calls.items():
        walks.clear()
        assert call(), name
        assert f"causalnets.{module}" in walks, name


def test_one_firing_rule():
    # every enabledness reader calls ``net._table.covered`` on a place mask
    assert not hasattr(model, "_enabled")
    assert not hasattr(cn.builtin("centralised")._table, "rows")


def test_one_owner_of_the_dependency_layout():
    # a dependency code is its place mask plus label fields; only model._Table
    # reads the fields, through encode, decode, effect and keeps
    assert not hasattr(semantics, "_effect") and not hasattr(model._Table, "marked")
    layout = {"flows", "full", "offset", "label_bit", "label_sets"}
    reads = [(m.__name__, node.lineno)
             for m in (semantics, unfolding, distributability)
             for node in ast.walk(ast.parse(Path(m.__file__).read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and node.attr in layout
             or isinstance(node, ast.Name) and node.id in layout]
    assert reads == []


def test_cli_import_loads_every_module_and_no_dataclasses():
    # every CLI call first imports causalnets.cli: it loads all seven modules
    # at once, and no value type pulls in dataclasses (nor its inspect)
    code = ("import sys; before = set(sys.modules); import causalnets.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    path = [str(Path(cn.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    loaded = set(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                text=True, check=True).stdout.split())
    modules = {f"causalnets.{m}" for m in ("cli", "model", "semantics", "distributability",
                                           "unfolding", "equivalence", "transforms")}
    assert {m for m in loaded if m.startswith("causalnets.")} == modules
    assert loaded & {"dataclasses", "inspect"} == set()



def test_no_unused_imports():
    # no linter is part of the suite: a module (other than the package's
    # __init__, which imports to re-export) reads every name it imports
    unused = []
    for path in sorted(Path(cn.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {(alias.asname or alias.name).split(".")[0]: node.lineno
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(path.name, line, name) for name, line in imported.items() if name not in read]
    assert unused == []

# --- value types: named tuples with the dataclasses' hashes and immutability --


def _values():
    """One instance of each library value type, most from the calls that build it."""
    net, chain = cn.builtin("repeated_pure_m"), cn.builtin("centralised")
    pomsets = cn.visible_pomsets(e.process for e in cn.enumerate_processes(net, 2))
    obs = cn.bounded_observation(net, 2)
    witness = cn.compare(net, chain, 4)
    contact = cn.make_net(["p", "q"], ["t"], [("p", "t"), ("t", "q")], ["p", "q"])
    return [
        net, cn.initial_dependency_marking(net), cn.check_contact_free(contact),
        cn.explore_reachable(net), cn.CycleViolation((8, 9), "a"),
        cn.concurrency_relation(net), cn.check_distributed(net), cn.check_distributed(chain),
        cn.check_distributed(chain).distribution, cn.find_pure_m(net)[0], pomsets[-1], obs,
        witness, witness.witness, cn.find_local_deadlock(cn.builtin("deadlocking"))[0],
        cn.refine_transition(net, "a")[1],
    ]


def test_every_value_type_is_covered():
    named = {type(x).__name__ for x in _values()}
    assert named == {
        "LabelledNet", "DependencyMarking", "ContactVerdict", "ReachGraph", "CycleViolation",
        "ConcurrencyRelation", "DistributabilityVerdict", "Distribution", "PureMWitness",
        "Pomset", "BoundedObservation", "EquivalenceVerdict", "Witness",
        "LocalDeadlockWitness", "RefinementRecord",
    }


def test_hash_is_the_field_tuple_hash():
    # as the frozen dataclasses hashed, so no set's order moves; a net hashes
    # its labelling as sorted pairs, and values holding a mapping or a list
    # stay unhashable
    for x in _values():
        fields = tuple(getattr(x, f) for f in x._fields)
        assert x == fields and tuple(x) == fields
        if isinstance(x, cn.LabelledNet):
            assert hash(x) == hash((*fields[:4], tuple(sorted(x.labelling.items()))))
        elif isinstance(x, (cn.ReachGraph, cn.Distribution)) or (
                isinstance(x, cn.DistributabilityVerdict) and x.distributed):
            with pytest.raises(TypeError, match="unhashable"):
                hash(x)
        else:
            assert hash(x) == hash(fields)


def test_fields_are_read_only():
    for x in _values():
        for name in x._fields:
            with pytest.raises(AttributeError):
                setattr(x, name, None)
    net, marking = cn.builtin("pure_m"), cn.initial_dependency_marking(cn.builtin("pure_m"))
    for x in (net, marking):  # these cache derived values, yet take no new attribute
        with pytest.raises(AttributeError):
            x.extra = 1
        with pytest.raises(AttributeError):
            delattr(x, x._fields[0])
    assert net._table is net._table and marking.places == {"p", "q"}


def test_validating_types_still_refuse():
    with pytest.raises(ValueError, match="two tokens on one place"):
        cn.DependencyMarking(frozenset({cn.DepToken("p", frozenset()),
                                        cn.DepToken("p", frozenset({"a"}))}))
    for kwargs in ({}, {"distribution": cn.Distribution({}), "chain": ("t",)}):
        with pytest.raises(ValueError, match="exactly one of distribution/chain"):
            cn.DistributabilityVerdict(**kwargs)
    with pytest.raises(ValueError, match="must connect one place and one transition"):
        cn.make_net(["p", "q"], flow=[("p", "q")])
    for kwargs, message in [
        (dict(places=["x"], transitions=["x"]), r"ids used as both place and transition: \['x'\]"),
        (dict(places=["p-1"]), "invalid id 'p-1'"),
        (dict(places=["p"], initial_marking=["p", "q"]),
         r"initial marking uses unknown places: \['q'\]"),
        (dict(transitions=["t"], labelling={"t": "a", "u": "b"}),
         "labelling must be total on transitions and nothing else"),
        (dict(transitions=["t"], labelling={"t": "a-b"}), "invalid label 'a-b' on transition t"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            cn.make_net(**kwargs)


def test_distribution_location_of_is_read_only():
    given = {"t": "loc0", "p": "loc0"}
    d = cn.Distribution(given)
    given["q"] = "loc1"
    assert dict(d.location_of) == {"t": "loc0", "p": "loc0"}
    with pytest.raises(TypeError):
        d.location_of["t"] = "loc1"


def test_pomsets_sort_by_labels_then_order():
    # the dataclass order: labels first, then order pairs; len counts events
    pomsets = list({p for name in cn.BUILTIN_NAMES
                    for p in cn.visible_pomsets(e.process for e in
                                                cn.enumerate_processes(cn.builtin(name), 3))})
    pomsets += [cn.Pomset(("a", "a"), ()), cn.Pomset(("a", "a"), ((0, 1),)), cn.Pomset((), ())]
    assert len(pomsets) > 10
    assert sorted(pomsets) == sorted(pomsets, key=lambda p: (p.labels, p.order))
    assert [len(p) for p in pomsets] == [len(p.labels) for p in pomsets]
    assert not cn.Pomset((), ()) and cn.Pomset(("a",), ())


def test_one_key_form_for_prefix_events(searched):
    # every prefix event of both searches is keyed (transition, past, n); n
    # counts the earlier events under the same pair in a state, which only
    # an input-less transition can have: an input refilled after an earlier
    # event took it depends on that event
    assert not hasattr(unfolding._Prefix, "inputless")
    for net in (input_less_net(), cn.builtin("centralised")):
        cn.enumerate_processes(net, 3)
        cn.bounded_observation(net, 3)
    counts = []
    for prefix, _ in searched:
        assert sorted(prefix.index.values()) == list(range(len(prefix.trans)))
        for (t, past, n), e in prefix.index.items():
            assert (t, past) == (prefix.trans[e], prefix.past[e])
            assert n == 0 or not prefix.net._preset[t]
        counts.append(max(n for _, _, n in prefix.index))
    assert [prefix.every for prefix, _ in searched] == [True, False, True, False]
    assert counts[0] > 0 and counts[1] > 0 and counts[2:] == [0, 0]
