"""The package's public names: what ``from causalnets import *`` brings in."""

import ast
from collections import Counter
from dataclasses import fields
from pathlib import Path

import causalnets as cn
from causalnets import distributability, equivalence, model, semantics, unfolding

# Names the tests keep in helpers.py; no program, demo or benchmark uses them.
TEST_ONLY = (
    "enabled_steps", "dependency_classes", "DependencyClass", "NotACycleError", "net_end",
)


def test_every_public_name_resolves_once():
    assert [name for name, n in Counter(cn.__all__).items() if n > 1] == []
    namespace: dict = {}
    exec("from causalnets import *", namespace)  # raises on a name that does not resolve
    assert set(cn.__all__) <= namespace.keys()


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
    assert "index" not in {f.name for f in fields(cn.ReachGraph)}


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
    # step_enabled and the explorer test ``u in net._table.later[t]``
    assert not hasattr(semantics, "_independent")


def test_preset_sharing_is_read_from_the_table():
    # distributability reads ``net._table.sharing``
    assert not hasattr(distributability, "_shared_preplace_graph")


def test_prefix_moves_are_the_table_entry():
    net = cn.builtin("centralised")
    assert cn.initial_process(net).prefix.moves is net._table.moves


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
