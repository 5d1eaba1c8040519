"""Command-line interface: exit codes, output formats, determinism."""

import hashlib
from pathlib import Path

from causalnets.cli import main

NETS = Path(__file__).resolve().parent.parent / "nets"


def net(name):
    return str(NETS / f"{name}.net")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_contact_free(self, capsys):
        code, out, _ = run(capsys, "validate", net("repeated_pure_m"))
        assert code == 0
        assert "contact-free" in out

    def test_violation_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.net"
        bad.write_text("place p *\nplace r *\ntrans t\narc p -> t\narc t -> r\n")
        code, out, _ = run(capsys, "validate", str(bad))
        assert code == 1
        assert "CONTACT VIOLATION" in out and "t" in out

    def test_parse_error_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "syntax.net"
        bad.write_text("arc p -> t\n")
        code, out, err = run(capsys, "validate", str(bad))
        assert code == 2
        assert out == ""
        assert "parse error" in err and "line 1" in err

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run(capsys, "validate", "no/such/file.net")
        assert code == 2
        assert err


class TestReach:
    def test_dependency_counts(self, capsys):
        code, out, _ = run(capsys, "reach", net("repeated_pure_m"), "--dependency")
        assert code == 0
        assert "nodes: 5" in out
        assert "bound: 81" in out
        assert "bound respected: yes" in out
        node_lines = [line for line in out.splitlines() if line.startswith("node ")]
        assert node_lines == [
            "node 0: p {} ; q {}",
            "node 1: p {a} ; q {}",
            "node 2: p {a} ; q {c}",
            "node 3:",
            "node 4: p {} ; q {c}",
        ]

    def test_plain_counts(self, capsys):
        code, out, _ = run(capsys, "reach", net("repeated_pure_m"))
        assert code == 0
        assert "nodes: 2" in out

    def test_limit_exits_two(self, capsys):
        code, _, err = run(capsys, "reach", net("repeated_pure_m"), "--limit", "1")
        assert code == 2
        assert "limit" in err

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "reach", net("centralised"), "--dependency")
        _, second, _ = run(capsys, "reach", net("centralised"), "--dependency")
        assert first == second

    def test_tsv(self, capsys):
        code, out, _ = run(capsys, "reach", net("repeated_pure_m"), "--format", "tsv")
        assert code == 0
        assert "nodes\t2" in out
        assert any(line.startswith("edge\t") for line in out.splitlines())


class TestDistributed:
    def test_chain_exit_one(self, capsys):
        code, out, _ = run(capsys, "distributed", net("repeated_pure_m"))
        assert code == 1
        assert "NOT DISTRIBUTED" in out
        assert "chain: a -> b -> c" in out
        assert "concurrent: (a, c)" in out

    def test_distribution_exit_zero(self, capsys):
        code, out, _ = run(capsys, "distributed", net("deadlocking"))
        assert code == 0
        assert out.startswith("DISTRIBUTED")
        assert "loc 0: a pa tau1" in out

    def test_tsv(self, capsys):
        code, out, _ = run(capsys, "distributed", net("repeated_pure_m"), "--format", "tsv")
        assert code == 1
        assert "verdict\tNOT_DISTRIBUTED" in out
        assert "chain\ta,b,c" in out
        assert "concurrent\ta\tc" in out


class TestPureM:
    def test_witness_exit_one(self, capsys):
        code, out, _ = run(capsys, "pure-m", net("pure_m"))
        assert code == 1
        assert "pure-m: (a, b, c) at {p,q}" in out

    def test_none_exit_zero(self, capsys):
        code, out, _ = run(capsys, "pure-m", net("deadlocking"))
        assert code == 0
        assert "no fully reachable pure M" in out


class TestUnfoldAndPomsets:
    def test_unfold_listing(self, capsys):
        code, out, _ = run(capsys, "unfold", net("repeated_pure_m"), "-k", "2")
        assert code == 0
        assert "process 0: visible=0 events=0 maximal=no saturated=no" in out
        assert "events: e1:a e2:c e3:b" not in out  # bound 2 stops before a.c.b

    def test_unfold_complete_only(self, capsys):
        code, out, _ = run(capsys, "unfold", net("repeated_pure_m"), "-k", "2", "--complete-only")
        assert code == 0
        assert "maximal=no" not in out
        assert out.count("maximal=yes") == 3

    def test_pomsets_sections(self, capsys):
        code, out, _ = run(capsys, "pomsets", net("repeated_pure_m"), "-k", "2")
        assert code == 0
        assert "complete:" in out and "partial:" in out
        assert "divergent: no" in out
        assert "events: e1:a e2:b" in out
        assert "order: e1<e2" in out

    def test_pomsets_tsv(self, capsys):
        code, out, _ = run(capsys, "pomsets", net("repeated_pure_m"), "-k", "1", "--format", "tsv")
        assert code == 0
        assert "complete\te1:b\t" in out
        assert "divergent\tno" in out

    def test_unfold_tsv_bytes_pinned(self, capsys):
        # SHA-256 of the bytes printed before processes became prefix
        # configurations: the breadth-first order and every field are pinned
        pinned = {
            "pure_m": "85cc544319eb22a505cf07a7766e4c8b8de3b409f39d59e0e2dd367fc5aeba36",
            "repeated_pure_m": "4925453309657ea7867ec19ce596f6755616bfd979bf0fe83b562a5c594f74f2",
            "centralised": "71aa1cb3cb94b80fc40ba43ae46f5113858f468a13d67746a280c02d29415b91",
            "deadlocking": "c1b344006645ac1e468ecb4edf9d8023c20cd01181f6dafa066493e8e071940b",
        }
        for name, digest in pinned.items():
            code, out, _ = run(capsys, "unfold", net(name), "-k", "3", "--format", "tsv")
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest, name

    def test_contact_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.net"
        bad.write_text("place p *\nplace r *\ntrans t\narc p -> t\narc t -> r\n")
        for command in ("unfold", "pomsets"):
            code, out, err = run(capsys, command, str(bad), "-k", "1")
            assert code == 2
            assert out == ""
            assert "transition t" in err and "place r" in err


class TestCompare:
    def test_equivalent_exit_zero(self, capsys):
        code, out, _ = run(
            capsys, "compare", net("repeated_pure_m"), net("repeated_pure_m"), "-k", "3"
        )
        assert code == 0
        assert out == "EQUIVALENT (bound 3)\n"

    def test_inequivalent_prints_witness(self, capsys):
        code, out, _ = run(
            capsys, "compare", net("repeated_pure_m"), net("centralised"), "-k", "4"
        )
        assert code == 1
        assert out.startswith("INEQUIVALENT (bound 4)")
        assert "witness (right, complete):" in out
        assert "events:" in out and "order:" in out


class TestDeadlock:
    def test_deadlocking_witness(self, capsys):
        code, out, _ = run(capsys, "deadlock", net("deadlocking"))
        assert code == 1
        assert "deadlock: trace=[tau1] marking={pb,qc} dead=a live={b,c}" in out

    def test_clean_net(self, capsys):
        code, out, _ = run(capsys, "deadlock", net("centralised"))
        assert code == 0
        assert "no local deadlock" in out


class TestRefineAndExample:
    def test_refine_to_stdout(self, capsys):
        code, out, _ = run(capsys, "refine", net("repeated_pure_m"), "-t", "b")
        assert code == 0
        assert "place s_b" in out
        assert "trans tau_b" in out

    def test_refine_to_file(self, capsys, tmp_path):
        target = tmp_path / "refined.net"
        code, out, _ = run(capsys, "refine", net("repeated_pure_m"), "-t", "b", "-o", str(target))
        assert code == 0
        assert "place s_b" in target.read_text()

    def test_refine_unknown_transition(self, capsys):
        code, _, err = run(capsys, "refine", net("repeated_pure_m"), "-t", "zz")
        assert code == 2
        assert "unknown transition" in err

    def test_example_matches_file(self, capsys):
        code, out, _ = run(capsys, "example", "pure_m")
        assert code == 0
        assert out == (NETS / "pure_m.net").read_text(encoding="utf-8")

    def test_example_unknown_name(self, capsys):
        code, *_ = run(capsys, "example", "nope")
        assert code == 2


class TestUsage:
    def test_no_arguments(self, capsys):
        assert main([]) == 2

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_witness_only_with_exit_one(self, capsys):
        # exit 0 must not print a witness; exit 1 must print one
        code, out, _ = run(capsys, "deadlock", net("repeated_pure_m"))
        assert code == 0 and "deadlock:" not in out
        code, out, _ = run(capsys, "deadlock", net("deadlocking"))
        assert code == 1 and "deadlock:" in out
