"""The package's public names: what ``from causalnets import *`` brings in."""

from collections import Counter

import causalnets as cn

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
