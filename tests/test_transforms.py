"""Invisible-prefix refinement and the bundled nets."""

from pathlib import Path

import pytest

import causalnets as cn

from helpers import assert_valid_chain, assert_valid_distribution

ROOT = Path(__file__).resolve().parent.parent
NETS_DIR = Path(cn.__file__).with_name("nets")


def fig2():
    return cn.builtin("repeated_pure_m")


class TestRefineTransition:
    def test_sink_transition(self):
        refined, record = cn.refine_transition(fig2(), "b")
        assert record == cn.RefinementRecord("b", "s_b", "tau_b")
        assert cn.preset(refined, "tau_b") == {"p", "q"}
        assert cn.postset(refined, "tau_b") == {"s_b"}
        assert cn.preset(refined, "b") == {"s_b"}
        assert cn.postset(refined, "b") == frozenset()
        assert refined.labelling["tau_b"] == cn.TAU
        assert refined.initial_marking == fig2().initial_marking

    def test_self_loop_keeps_return_arc(self):
        refined, _ = cn.refine_transition(fig2(), "a")
        assert cn.preset(refined, "tau_a") == {"p"}
        assert cn.postset(refined, "tau_a") == {"s_a"}
        assert cn.preset(refined, "a") == {"s_a"}
        assert cn.postset(refined, "a") == {"p"}

    def test_double_refinement_chains(self):
        once, _ = cn.refine_transition(fig2(), "b")
        twice, record = cn.refine_transition(once, "b")
        assert record.new_place == "s_b_2"
        assert record.new_tau == "tau_b_2"
        assert cn.preset(twice, "tau_b_2") == {"s_b"}
        assert cn.postset(twice, "tau_b_2") == {"s_b_2"}
        assert cn.preset(twice, "b") == {"s_b_2"}

    def test_fresh_ids_dodge_collisions(self):
        net = cn.make_net(
            places=["p", "s_t"], transitions=["t"], flow=[("p", "t")],
            initial_marking=["p"], labelling={"t": "a"},
        )
        refined, record = cn.refine_transition(net, "t")
        assert record.new_place == "s_t_2"
        assert "s_t_2" in refined.places
        # a second collision on each fresh id: s_t and s_t_2, tau_t and tau_t_2 are taken
        net = cn.make_net(
            places=["p", "s_t", "s_t_2"], transitions=["t", "tau_t", "tau_t_2"],
            flow=[("p", "t")], initial_marking=["p"], labelling={"t": "a"},
        )
        refined, record = cn.refine_transition(net, "t")
        assert (record.new_place, record.new_tau) == ("s_t_3", "tau_t_3")
        assert {"s_t_3", "tau_t_3"} <= refined.places | refined.transitions

    def test_unknown_transition(self):
        with pytest.raises(cn.UnknownElementError):
            cn.refine_transition(fig2(), "zz")

    def test_empty_preset_refused(self):
        # u, with an empty preset, is always enabled; its invisible prefix
        # would put a second token on the buffer place.
        net = cn.make_net(places=["p"], transitions=["t", "u"], flow=[("p", "t"), ("t", "p")],
                          initial_marking=["p"], labelling={"t": "a", "u": "b"})
        assert cn.check_contact_free(net).ok
        with pytest.raises(ValueError, match="cannot refine transition 'u': its preset is empty"):
            cn.refine_transition(net, "u")


class TestRefinementProperties:
    @pytest.mark.parametrize("t", ["a", "b", "c"])
    def test_counterexample_suite(self, t):
        refined, _ = cn.refine_transition(fig2(), t)
        assert cn.check_contact_free(refined).ok
        before = cn.check_distributed(fig2())
        after = cn.check_distributed(refined)
        assert before.distributed == after.distributed
        assert_valid_chain(refined, after)
        assert cn.compare(fig2(), refined, 3).equivalent


class TestBuiltins:
    def test_pure_m_shape(self):
        net = cn.builtin("pure_m")
        assert net.places == {"p", "q"}
        assert net.transitions == {"a", "b", "c"}
        assert net.initial_marking == {"p", "q"}
        assert cn.preset(net, "a") == {"p"}
        assert cn.preset(net, "b") == {"p", "q"}
        assert cn.preset(net, "c") == {"q"}
        for t in ("a", "b", "c"):
            assert cn.postset(net, t) == frozenset()

    def test_repeated_pure_m_adds_return_arcs(self):
        net = cn.builtin("repeated_pure_m")
        base = cn.builtin("pure_m")
        assert net.flow == base.flow | {("a", "p"), ("c", "q")}

    def test_deadlocking_shape(self):
        net = cn.builtin("deadlocking")
        assert net.places == {"pa", "pb", "qb", "qc"}
        assert net.initial_marking == {"pa", "qc"}
        assert cn.preset(net, "a") == {"pa"} and cn.postset(net, "a") == {"pa"}
        assert cn.preset(net, "c") == {"qc"} and cn.postset(net, "c") == {"qc"}
        assert cn.preset(net, "tau1") == {"pa"} and cn.postset(net, "tau1") == {"pb"}
        assert cn.preset(net, "tau2") == {"qc"} and cn.postset(net, "tau2") == {"qb"}
        assert cn.preset(net, "b") == {"pb", "qb"} and cn.postset(net, "b") == frozenset()

    def test_centralised_shape(self):
        net = cn.builtin("centralised")
        assert net.initial_marking == {"px2", "qy2", "lock"}
        assert cn.preset(net, "tau_b") == {"px2", "qy2", "lock"}
        assert cn.preset(net, "b") == {"pb"}
        for t in ("tau_a", "tau_b", "tau_c"):
            assert net.labelling[t] == cn.TAU
            assert "lock" in cn.preset(net, t) and "lock" in cn.postset(net, t)

    def test_all_builtins_contact_free(self):
        for name in cn.BUILTIN_NAMES:
            assert cn.check_contact_free(cn.builtin(name)).ok

    def test_counterexample_statistics(self):
        net = cn.builtin("repeated_pure_m")
        graph = cn.explore_reachable(net, dependency=True)
        assert len(graph.nodes) == 5
        assert cn.concurrency_relation(net).pairs == {frozenset({"a", "c"})}

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            cn.builtin("nope")

    def test_distribution_verdicts(self):
        for name, expect in [
            ("pure_m", False), ("repeated_pure_m", False),
            ("centralised", True), ("deadlocking", True),
        ]:
            verdict = cn.check_distributed(cn.builtin(name))
            assert verdict.distributed == expect
            if expect:
                assert_valid_distribution(cn.builtin(name), verdict)


class TestShippedNetFiles:
    def test_files_match_serialized_builtins(self):
        for name in cn.BUILTIN_NAMES:
            path = NETS_DIR / f"{name}.net"
            assert path.exists(), f"missing {path}"
            assert path.read_text(encoding="utf-8") == cn.serialize_net(cn.builtin(name))

    def test_files_parse_back(self):
        for name in cn.BUILTIN_NAMES:
            text = (NETS_DIR / f"{name}.net").read_text(encoding="utf-8")
            assert cn.parse_net(text) == cn.builtin(name)

    def test_unknown_names_raise(self):
        # "../nets/pure_m" names a real file relative to the nets directory,
        # so only the check against BUILTIN_NAMES rejects it
        for name in ("nope", "../nets/pure_m"):
            with pytest.raises(ValueError, match="unknown builtin"):
                cn.builtin(name)

    def test_package_ships_one_file_per_name(self):
        tomllib = pytest.importorskip("tomllib")
        with open(ROOT / "pyproject.toml", "rb") as f:
            package_data = tomllib.load(f)["tool"]["setuptools"]["package-data"]
        assert "nets/*.net" in package_data["causalnets"]
        shipped = sorted(path.name for path in NETS_DIR.iterdir())
        assert shipped == sorted(f"{name}.net" for name in cn.BUILTIN_NAMES)
