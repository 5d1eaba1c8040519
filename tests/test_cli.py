"""Command-line interface: exit codes, output formats, determinism."""

import hashlib
import os
import random
import re
import resource
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from causalnets.cli import _COMMANDS, main
from causalnets.model import (
    DependencyMarking, DepToken, check_contact_free, make_net, serialize_net,
)
from causalnets.transforms import BUILTIN_NAMES

from helpers import chain, loops, random_net, rings

ROOT = Path(__file__).resolve().parent.parent
NETS = ROOT / "src" / "causalnets" / "nets"


def net(name):
    return str(NETS / f"{name}.net")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def oneshot(n):
    """n independent visible one-shot transitions: every subset of the
    enabled ones is a step."""
    ps, qs, ts = ([f"{x}{i:02d}" for i in range(n)] for x in "pqt")
    return make_net(ps + qs, ts, list(zip(ps, ts)) + list(zip(ts, qs)), ps,
                    {t: f"a{i:02d}" for i, t in enumerate(ts)})


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

    def test_bytes_pinned(self, capsys):
        # SHA-256 of the bytes printed while the human and TSV renderers
        # each had their own node and edge rules
        pinned = {
            ("pure_m", "plain", "human"):
                "ecd6b1e43befad9f3f318b532ee56e13329856001152d8904cb03286617d3c1a",
            ("pure_m", "plain", "tsv"):
                "0c99bdcdf36136c8cc8f86b111c94a6d0183586cc9894a05ca037730f1ecad75",
            ("pure_m", "dependency", "human"):
                "c4fab40ae713c49008ff97c1c325b44eeaef36829c0911fe521076a1f5e4293f",
            ("pure_m", "dependency", "tsv"):
                "4001da26d19b6b783986f80cd9e43b6cb54d9db1d8db5378d4fe96904e7b20c3",
            ("repeated_pure_m", "plain", "human"):
                "7baa613de827984ccdc52851ce42970bf8b0a61838bb478359382bf172cce6c3",
            ("repeated_pure_m", "plain", "tsv"):
                "d4bd77b73010c270da3d265f326901c0e1c1ef0625430423bc55fb4d43a62593",
            ("repeated_pure_m", "dependency", "human"):
                "d57f621798d5fb4d3a4b1fe5cdca5c9f2e65b7a9102373fcc16781488763fef0",
            ("repeated_pure_m", "dependency", "tsv"):
                "ac0f298c9bfee58e5d6699e67cb24064564ad30cc06763863561f3c2fdb70a46",
            ("centralised", "plain", "human"):
                "5440542c9f45ae79c776fe9f7622e477edcaa378892b2c3c73f77ec384f6f338",
            ("centralised", "plain", "tsv"):
                "e091ce3f65875149bd7ad5b1162ab93dc7ca3848e8f63c27a70324d9bf82e726",
            ("centralised", "dependency", "human"):
                "ce17957a4147bc91239c4fbfe90a5f6fa9570784c1e3c166b59769972545991f",
            ("centralised", "dependency", "tsv"):
                "7219325155507fd968c1a40f33585629208b335bd064ae37ee2c41709fbb8b22",
            ("deadlocking", "plain", "human"):
                "8d73cb40dc926b3586a3cc66fad4ec78ef9bb10046d9b20eebf956d98bc4b111",
            ("deadlocking", "plain", "tsv"):
                "1ef02c8ad02c5887be5fedf272c3666ae90b7fdb822ae9aa026995ea8de560fe",
            ("deadlocking", "dependency", "human"):
                "d2d3bb79200fe98f0e6e35cc45e0a121a50a545079876063ab195eb01f9680be",
            ("deadlocking", "dependency", "tsv"):
                "093e3d4f3beae81fcacfd20eb19df079a0dfe031295970f46c3b012ef383ef8a",
        }
        for (name, mode, fmt), digest in pinned.items():
            flags = ["--dependency"] if mode == "dependency" else []
            code, out, _ = run(capsys, "reach", net(name), "--format", fmt, *flags)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest, (name, mode, fmt)

    def test_step_heavy_bytes_pinned(self, capsys, tmp_path):
        # SHA-256 of the bytes printed while every step was fired from
        # scratch; these nets enable many steps per node, unlike the
        # bundled ones
        pinned = {
            ("oneshot4", "plain", "human"):
                "21a9d20c535207cc777c7c94ba97b5faf5ca28659a4a3a3740e2e7309e2a7230",
            ("oneshot4", "plain", "tsv"):
                "177ecfa7632e17b75f9ea1793add707d5dc4cfabec97308b6525f38e49d954be",
            ("oneshot4", "dependency", "human"):
                "d1df644131daefe01c2329a7e5c1d56260a502fd847cc30e2a6e9987509684fe",
            ("oneshot4", "dependency", "tsv"):
                "e9644fc404980b90ff3e0c1d199e80c6c864e4fe7d5cbf611e73e73dbaed1661",
            ("loops6", "plain", "human"):
                "6e7edbf1c24c4628161e0c16e81691839e20af13d55c7404bfa02cca5005161b",
            ("loops6", "plain", "tsv"):
                "775e7220af42493454ef17830b012fb6462e855e52905bb49abc75d12b6ce480",
            ("loops6", "dependency", "human"):
                "b1d7f0a95dce4b13f0833ef06e94668c385b22a9ff66bfa6320deb5fd9c935f3",
            ("loops6", "dependency", "tsv"):
                "a55fecbb94ed30be1cfd4936f393649728f9d3875343b34df738ffc53c8c4885",
            ("rings2", "plain", "human"):
                "34d9d52103226acc89e56b90c7462061615879f9b6285d63f8132dc5c530524c",
            ("rings2", "plain", "tsv"):
                "a9d58636fdc8c378e19f38d5e14ff61521bdbbfe874b874b9d065c7e9e59a30d",
            ("rings2", "dependency", "human"):
                "b2ba73741d3d4bf767e735d9d630973cc24553794a377ea64f39b2121f88b64d",
            ("rings2", "dependency", "tsv"):
                "5f18ddad422036d2ca2c8f8f0ad5ee4e309c673f5193bb2260e82d825a3078e5",
        }
        nets = {"oneshot4": oneshot(4), "loops6": loops(6), "rings2": rings(2)}
        for name, built in nets.items():
            (tmp_path / f"{name}.net").write_text(serialize_net(built), encoding="utf-8")
        for (name, mode, fmt), digest in pinned.items():
            flags = ["--dependency"] if mode == "dependency" else []
            path = str(tmp_path / f"{name}.net")
            code, out, _ = run(capsys, "reach", path, "--format", fmt, *flags)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest, (name, mode, fmt)

    def test_wide_dependency_codes_bytes_pinned(self, capsys, tmp_path):
        # Six visible one-shots labelled in reverse of their transition
        # order: a dependency marking's code (12 slots of 7 bits) passes 64
        # bits.  SHA-256 of the bytes printed while dependency markings were
        # token sets.
        ps, qs, ts = ([f"{x}{i:02d}" for i in range(6)] for x in "pqt")
        built = make_net(ps + qs, ts, list(zip(ps, ts)) + list(zip(ts, qs)), ps,
                         {t: f"a{5 - i:02d}" for i, t in enumerate(ts)})
        done = DependencyMarking(frozenset(DepToken(q, frozenset({f"a{5 - i:02d}"}))
                                           for i, q in enumerate(qs)))
        assert built._table.encode(done) >= 2 ** 64
        path = tmp_path / "wide.net"
        path.write_text(serialize_net(built), encoding="utf-8")
        pinned = {
            "human": "2952b03ebba78a051578b1fd8d24db8ac5d86f41f241d62b88d12bc0034e0347",
            "tsv": "4155b8091493fe03b1847816282499c6fe6ee31868b048d1139669eff8ee53ec",
        }
        for fmt, digest in pinned.items():
            code, out, _ = run(capsys, "reach", str(path), "--dependency", "--format", fmt)
            assert code == 0
            assert f"{done.text()}\n" in out
            assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


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

    def test_symmetric_pomsets_bytes_pinned(self, capsys, tmp_path):
        # SHA-256 of the bytes printed while canonicalize took vertex-named
        # orders; four equally labelled chains need individualisation
        pinned = {
            ("pomsets", "human"):
                "1e0da9161ca6e0c3b133be344ecde79f1c9eec4046d37a4bdaa87a22d9392799",
            ("pomsets", "tsv"):
                "b2663417eebda5c10112e08a48d23b393ea8fe5315271ef3c0e488120946dcf4",
            ("unfold", "tsv"):
                "977cdb4593b27951b82a58c24e7b4e1c0abd09aed0392f5f6f2648e44d4097b2",
        }
        path = tmp_path / "loops_same4.net"
        path.write_text(serialize_net(loops(4, "a")), encoding="utf-8")
        for (command, fmt), digest in pinned.items():
            code, out, err = run(capsys, command, str(path), "-k", "5", "--format", fmt)
            assert (code, err) == (0, "")
            assert hashlib.sha256(out.encode()).hexdigest() == digest, (command, fmt)

    def test_discrete_pomsets_bytes_pinned(self, capsys):
        # SHA-256 of the bytes printed while every pomset went through colour
        # refinement; on these nets nearly every initial colouring is discrete
        pinned = {
            "centralised": "7cc26e4190fa6388a300063edbdb021544d99041b46f7c8d13621e2e1db3a015",
            "repeated_pure_m": "0597189323582a8b93178a94aa29993751599694ec28c250d876f2f4d429e038",
        }
        for name, digest in pinned.items():
            code, out, _ = run(capsys, "pomsets", net(name), "-k", "6", "--format", "tsv")
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest, name

    def test_negative_event_limit_exits_two(self, capsys):
        path = net("pure_m")
        for argv in (["unfold", path], ["pomsets", path], ["compare", path, path]):
            code, out, err = run(capsys, *argv, "-k", "2", "--event-limit", "-5")
            assert code == 2, argv
            assert out == ""
            assert "event_limit must be nonnegative" in err
            code, *_ = run(capsys, *argv, "-k", "2", "--event-limit", "0")
            assert code == 0, argv

    def test_contact_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.net"
        bad.write_text("place p *\nplace r *\ntrans t\narc p -> t\narc t -> r\n")
        for command in ("unfold", "pomsets"):
            code, out, err = run(capsys, command, str(bad), "-k", "1")
            assert code == 2
            assert out == ""
            assert "transition t" in err and "place r" in err

    # each (command, format) at k=1 on an invisible chain of 59, 60, 61 and 70
    # transitions, beside an idle net; the event limit of 60 was the default
    # cut at k=1, which read the chains of 61 and 70 as diverging
    CHAINS = {
        ("pomsets", "human", ()): (0, "complete:\nevents:\norder:\npartial:\ndivergent: no\n"),
        ("pomsets", "tsv", ()): (0, "complete\t\t\ndivergent\tno\n"),
        ("compare", "human", ()): (0, "EQUIVALENT (bound 1)\n"),
        ("compare", "tsv", ()): (0, "verdict\tEQUIVALENT\t1\n"),
        ("pomsets", "human", ("--event-limit", "60")): (
            0, "complete:\npartial:\ndivergent: yes\n"),
        ("pomsets", "tsv", ("--event-limit", "60")): (0, "divergent\tyes\n"),
        ("compare", "human", ("--event-limit", "60")): (
            1, "INEQUIVALENT (bound 1)\nwitness (right, complete):\nevents:\norder:\n"),
        ("compare", "tsv", ("--event-limit", "60")): (
            1, "verdict\tINEQUIVALENT\t1\nwitness\tright\tcomplete\t\t\n"),
    }

    def test_invisible_chains_end_bytes_pinned(self, capsys, tmp_path):
        idle = tmp_path / "idle.net"
        idle.write_text("place p0 *\n", encoding="utf-8")
        for n in (59, 60, 61, 70):
            path = tmp_path / f"chain{n}.net"
            path.write_text(serialize_net(chain(n)), encoding="utf-8")
            for (command, fmt, limit), (code, out) in self.CHAINS.items():
                if limit and n <= 60:  # the cut at 60 events keeps the whole chain
                    code, out = self.CHAINS[command, fmt, ()]
                files = [str(path), str(idle)] if command == "compare" else [str(path)]
                argv = [command, *files, "-k", "1", "--format", fmt, *limit]
                assert run(capsys, *argv) == (code, out, ""), (n, argv)

    # SHA-256 of unfold's stdout at k=1 on the same chains.  By default each
    # chain lists all its n + 1 processes, none saturated; at --event-limit
    # 60 the chains of 61 and 70 both end in one saturated process of 60
    # events, and the shorter ones are listed whole as by default.
    UNFOLD_CHAINS = {
        (59, "human", ()): "eb462733b61eaa748c81c99741d1cbd6e803f1ab23ed16086a748385df013809",
        (59, "tsv", ()): "a0b79b68b64fff850322116d689044f4d2e37b001999495ff735aa710e214278",
        (60, "human", ()): "2e63912fae246dac5f5222d66d7571b773be858956d6fe6667783abb6f0648eb",
        (60, "tsv", ()): "44c874194ec9c9b1ad9c7869ecd596d2b6934cd3658ad551cca95b36bff414d0",
        (61, "human", ()): "6f1ecd46fd93f7bd916ca909ea634b7e554611d81d3c2952f1144fb2e49d4903",
        (61, "tsv", ()): "ee1fd983560776c2d029489c4542c7b56cef1bdabd92edeadb923b3a18265d4c",
        (70, "human", ()): "d7703839236506fceff54c4b5158934ebf14bea0ad0446ace1f50b3dee8627e2",
        (70, "tsv", ()): "a965080b7edd2ab9642e4880f57c4fa8699c0e9d413ba2e21614348f711d8be8",
        (61, "human", ("--event-limit", "60")):
            "dccdfff75c3cb0093ff981ccae898cc26cd23a9ae93a7045328dc3ce34038f17",
        (61, "tsv", ("--event-limit", "60")):
            "ab1bce870728f6a637c283451810440d8cb7362ef80dd4ba30b3793e1242175b",
    }

    def test_unfold_on_invisible_chains_pinned(self, capsys, tmp_path):
        pins = self.UNFOLD_CHAINS
        for n in (59, 60, 61, 70):
            path = tmp_path / f"chain{n}.net"
            path.write_text(serialize_net(chain(n)), encoding="utf-8")
            for fmt in ("human", "tsv"):
                for limit in ((), ("--event-limit", "60")):
                    # the cut at 60 events keeps the chains of 59 and 60
                    # whole and leaves the same processes of 61 and 70
                    pinned = pins[(n, fmt, ()) if not limit or n <= 60 else (61, fmt, limit)]
                    code, out, err = run(capsys, "unfold", str(path), "-k", "1", "--format", fmt,
                                         *limit)
                    got = hashlib.sha256(out.encode()).hexdigest()
                    assert (code, got, err) == (0, pinned, ""), (n, fmt, limit)

    def test_pomsets_on_two_invisible_self_loops(self, tmp_path):
        # 2^(L+1) - 1 processes at event limit L, but only one state: pomsets
        # ends at the default under a memory cap, in a subprocess so that a
        # regression fails here instead of exhausting memory
        path = tmp_path / "two_loops.net"
        path.write_text("place p *\ntrans t0\ntrans t1\n"
                        "arc p -> t0\narc t0 -> p\narc p -> t1\narc t1 -> p\n")
        src = str(ROOT / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
            src, os.environ.get("PYTHONPATH")])))
        cap = 256 << 20

        def capped():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        pinned = {"0": "complete:\npartial:\nevents:\norder:\ndivergent: yes\n",
                  "3": "complete:\npartial:\ndivergent: yes\n"}
        for k, out in pinned.items():
            done = subprocess.run(
                [sys.executable, "-m", "causalnets.cli", "pomsets", str(path), "-k", k],
                env=env, capture_output=True, text=True, timeout=60, preexec_fn=capped)
            assert (done.returncode, done.stdout, done.stderr) == (0, out, ""), k


class TestContact:
    # t would put a second token on q: validate names the contact, every
    # other verdict refuses the net, and reach shows fire_step's token game
    NET = ("place p *\nplace q *\nplace r *\ntrans t : a\ntrans u : b\n"
           "arc p -> t\narc t -> q\narc r -> u\n")
    VALIDATE = {
        "human": "CONTACT VIOLATION: transition t at marking {p,q,r}\n",
        "tsv": "violation\tt\tp,q,r\n",
    }
    REACH = {
        "human": "mode: plain\nnodes: 2\nbound: 125\nbound respected: yes\n"
                 "node 0: p ; q ; r\nnode 1: p ; q\nedge 0 -[u|{b}]-> 1\n",
        "tsv": "mode\tplain\nnodes\t2\nbound\t125\nbound-respected\tyes\n"
               "node\t0\tp ; q ; r\nnode\t1\tp ; q\nedge\t0\tu\tb\t1\n",
    }
    REFUSAL = "error: contact: transition t puts a second token on place q\n"

    def test_every_subcommand_agrees(self, capsys, tmp_path):
        path = tmp_path / "contact.net"
        path.write_text(self.NET)
        for fmt in ("human", "tsv"):
            assert run(capsys, "validate", str(path), "--format", fmt) == (1, self.VALIDATE[fmt], "")
            for command, *flags in (["distributed"], ["pure-m"], ["deadlock"],
                                    ["unfold", "-k", "1"], ["pomsets", "-k", "1"]):
                argv = [command, str(path), *flags, "--format", fmt]
                assert run(capsys, *argv) == (2, "", self.REFUSAL), argv
            assert run(capsys, "reach", str(path), "--format", fmt) == (0, self.REACH[fmt], "")


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

    def test_refine_empty_preset_exits_two(self, capsys, tmp_path):
        source, target = tmp_path / "e.net", tmp_path / "r.net"
        source.write_text("place p *\ntrans t : a\narc p -> t\narc t -> p\ntrans u : b\n")
        code, out, err = run(capsys, "refine", str(source), "-t", "u", "-o", str(target))
        assert (code, out) == (2, "")
        assert err == "error: cannot refine transition 'u': its preset is empty\n"
        assert not target.exists()

    def test_example_matches_file(self, capsys):
        code, out, _ = run(capsys, "example", "pure_m")
        assert code == 0
        assert out == (NETS / "pure_m.net").read_text(encoding="utf-8")

    def test_example_bytes_pinned(self, capsys):
        # SHA-256 of the bytes printed while the bundled nets were built in
        # code; the benchmark writes its bundled nets with this subcommand
        pinned = {
            "pure_m": "4dd051128ad78af169b7c32fa9c9d29a732c4b130a6c6d5af5cb6668fc56d426",
            "repeated_pure_m": "dd19ec042f0eaa42cdda91b4d494868a1ea43caffe134a9d067cee3c8d42ff9a",
            "centralised": "ab2de708ada3d0378e82315ebe3046fbf3793417a7031afa8363b680eb72e278",
            "deadlocking": "97bf432803158ad79cec88bdb761c5da29b59be6acea5492547c6abe9474e0ee",
        }
        for name, digest in pinned.items():
            code, out, _ = run(capsys, "example", name)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest, name

    def test_format_rejected(self, capsys):
        # both print net text, which has one form; the refine digest is of
        # the bytes printed while --format was accepted and ignored
        code, _, err = run(capsys, "example", "pure_m", "--format", "tsv")
        assert code == 2 and "--format" in err
        code, _, err = run(capsys, "refine", net("repeated_pure_m"), "-t", "b", "--format", "tsv")
        assert code == 2 and "--format" in err
        code, out, _ = run(capsys, "refine", net("repeated_pure_m"), "-t", "b")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "68a3b3686ee5ac5136b0b30549f3850561c7fa18fb3abfca12195088a01d1944"
        )

    def test_example_unknown_name(self, capsys):
        code, *_ = run(capsys, "example", "nope")
        assert code == 2


class TestUsage:
    def test_no_arguments(self, capsys):
        assert main([]) == 2

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_readme_lists_every_subcommand(self, capsys):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        documented = [
            line.split()[1] for line in block.splitlines() if line.startswith("causalnets ")
        ]
        _, out, _ = run(capsys, "--help")
        listed = re.search(r"\{([^}]*)\}", out).group(1).split(",")
        assert sorted(documented) == sorted(listed)

    def test_every_argument_has_help(self):
        # each option's help names its default, or says it is required
        missing = []
        for name, _, _, arguments in _COMMANDS:
            for flags, kwargs in arguments:
                text = kwargs.get("help", "")
                option = flags[0].startswith("-")
                named = "(default: " in text or "(required)" in text
                if not text or (option and not named):
                    missing.append((name, flags[0]))
        assert missing == []

    def test_witness_only_with_exit_one(self, capsys):
        # exit 0 must not print a witness; exit 1 must print one
        code, out, _ = run(capsys, "deadlock", net("repeated_pure_m"))
        assert code == 0 and "deadlock:" not in out
        code, out, _ = run(capsys, "deadlock", net("deadlocking"))
        assert code == 1 and "deadlock:" in out


class TestStateLimits:
    COMMANDS = (
        ["validate"], ["reach"], ["reach", "--dependency"], ["distributed"], ["pure-m"],
        ["deadlock"],
    )
    LIMITS = (["--limit", "1"], ["--limit", "2"], ["--limit", "3"], [])

    def test_tiny_limits_exit_cleanly(self, capsys, tmp_path):
        # every exception must be turned into an exit code inside main
        rng = random.Random(31)
        codes = Counter()
        contact = 0
        for i in range(16):
            drawn = random_net(rng, max_places=5, max_transitions=5, tau_prob=0.5)
            contact += not check_contact_free(drawn, 10**4).ok
            path = tmp_path / f"draw{i}.net"
            path.write_text(serialize_net(drawn))
            for command, *flags in self.COMMANDS:
                for limit in self.LIMITS:
                    for fmt in ("human", "tsv"):
                        argv = [command, str(path), *flags, *limit, "--format", fmt]
                        code, *_ = run(capsys, *argv)
                        assert code in (0, 1, 2), argv
                        codes[code] += 1
        assert contact > 0 and set(codes) == {0, 1, 2}

    # SHA-256 of the partial graph reach prints before it refuses, by
    # (format, dependency)
    PARTIAL_REACH = {
        ("human", False): "a2bb848bba3e0009bed3c04e0ea23e2aa0098e41d357dd487300f0f77e4ccaa0",
        ("human", True): "b1552d78c1f515d0bd843636a90be609431b3668d35d05e64808c3aa04faa044",
        ("tsv", False): "19f636acdd57918710cce1c550817eb07e88183143b93522d59feaca63167f5c",
        ("tsv", True): "b898305eae3b5dc781fff82e17df28b14c7eec0fa4a9fd4b73a3a1728715650c",
    }

    def test_refusal_names_the_limit(self, capsys):
        path = net("repeated_pure_m")
        for fmt in ("human", "tsv"):
            for command in ("validate", "distributed", "pure-m", "deadlock"):
                argv = [command, path, "--limit", "1", "--format", fmt]
                assert run(capsys, *argv) == (2, "", "error: state limit 1 exceeded\n"), argv
            for dependency in (False, True):
                flags = ["--dependency"] if dependency else []
                argv = ["reach", path, *flags, "--limit", "1", "--format", fmt]
                code, out, err = run(capsys, *argv)
                assert (code, err) == (2, "error: state limit 1 exceeded; graph is partial\n")
                assert hashlib.sha256(out.encode()).hexdigest() == (
                    self.PARTIAL_REACH[fmt, dependency]), argv


def digest(runs):
    return hashlib.sha256(repr(runs).encode()).hexdigest()


# Each report on the four bundled nets, in both formats: one digest of the
# (exit code, stdout, stderr) of the four runs per (command, format).
REPORTS = {
    "validate": ["validate", "@"],
    "reach": ["reach", "@"],
    "reach-dependency": ["reach", "@", "--dependency"],
    "distributed": ["distributed", "@"],
    "pure-m": ["pure-m", "@"],
    "unfold": ["unfold", "@", "-k", "3"],
    "pomsets": ["pomsets", "@", "-k", "3"],
    "compare": ["compare", net("repeated_pure_m"), "@", "-k", "3"],
    "deadlock": ["deadlock", "@"],
}

class TestPinnedBytes:
    # SHA-256 of what the CLI printed while each report's human layout lived
    # in the analysis modules and its TSV layout in the CLI
    REPORT_DIGESTS = {
        ("validate", "human"):
            "19708f787e22668a673a6b37493d6eb0148a1b67fb90269fcb5ae0c6ecb21f4c",
        ("validate", "tsv"):
            "8e1fb2e1a8726c89cc1408b7a39f65ab20cfbcc151db2709b44a50488731bd65",
        ("reach", "human"):
            "9366edd68c15cf1605f681aab65f002cae6ad4466504f2105b4cc5b3497ad9cf",
        ("reach", "tsv"):
            "1a8810e10bd4e4755588e9728f1ee8c2893c53ce5fa81c852a09a77b8feaa429",
        ("reach-dependency", "human"):
            "d8cd783369dc789ccf93467a0b6e234b205e49b551e7c840ccb1048a20963353",
        ("reach-dependency", "tsv"):
            "e436c2e459a684f1e9a6856c4270bc08c03a7f9e4160ffa7abd20be6a83d0863",
        ("distributed", "human"):
            "91845b7da9db95ea80605cdecdabfbb8893d6201e566e192ce8dbf171493d9a4",
        ("distributed", "tsv"):
            "cd8d2eb5c24860d19191bea46eb6433898c51c06303db493678911c624d4b2bb",
        ("pure-m", "human"):
            "1a6b4c1a1b5a864bffd693a30518b6a3278e91283c79e7ddf82f7a39edb344a2",
        ("pure-m", "tsv"):
            "fef631c3b1224a8b77bdc1bb744f8d255ebda7203a316b9e85ccbee1e81b361b",
        ("unfold", "human"):
            "850dd2af3220861c9ce5635cf9e771e5162cabaf319c186522054779191f16d2",
        ("unfold", "tsv"):
            "793cd24778d18718292de1e2d33b32acf9bacdbc9a56d870abe726278a1805b8",
        ("pomsets", "human"):
            "de7d80b093d065df4a29a9854969df4a2d40022a99cbb8cce7a950138f44be93",
        ("pomsets", "tsv"):
            "bfa7c40ab60e1156fb2f6800f4e1b473cc20da104eb1554019d4401daae9f409",
        ("compare", "human"):
            "24501fa92f833aa845156994fc440b1a5f51a62fa474dc32088bffc06d1bf103",
        ("compare", "tsv"):
            "f2024354afbb8c126a82386471fb196e39765962ceb120982dd2a14b4303450b",
        ("deadlock", "human"):
            "7a9065ee02b7331770cd46bb7059b167975688d8c0554ce7b2cdde92b5044195",
        ("deadlock", "tsv"):
            "9bbe43da17bf6cfe12a672f9f5270413ba85f5b6395fc2a96d234924bb892ac1",
    }
    # help and usage errors, as argparse lays them out; "@" is the pure_m net
    USAGE_DIGESTS = {
        "--help":
            "5a62670d4d30578f99fcde06bea85bada3a443d7c3a28a0dd833a3e62fdb5819",
        "":
            "2ac6e18127cdbd4386c9b52739045a7832e9dee4e4bae541aae5d4245e8bef85",
        "frobnicate":
            "9614cc6ee105544e3fab1895153c3bf663563249843c0c4c75a65b24b0112430",
        "validate --help":
            "aeb568223b52bdbf4c62c98ef603ddffdcd38b855adb6d2bf36d4832cc0c2e07",
        "reach --help":
            "2e24e2538abfad876ba3caa4f1008a118189828436dffe690425b51f31a8db76",
        "distributed --help":
            "6aadace5ee5a5a36e2528a36c5a7cf70d7d66d95d97e04e3a19dbc501539df03",
        "pure-m --help":
            "ea74575cd94379d46bf37ef18434ba458a0201fa3eecd37edc09b9afd8a02767",
        "unfold --help":
            "dc85cf285b09c83268a811e537c2d623fdfdf7fe28af0dd20b63762407aa8efd",
        "pomsets --help":
            "b4fa7df6819e4bc544cd015b15642dd3e1ef14fff461ac4884627cceb041a13d",
        "compare --help":
            "4a7f084c04a152f1bf4e48aaad5ad83e0e5a860120606f00a5e80d85aae3aab5",
        "deadlock --help":
            "9dba27c2017644d64f3691a142c107dda488816d0df05a92833524a3c91d7b47",
        "refine --help":
            "345dd5ba0c3c13e77e04449d16a8ae31ad5d184cc180d45fca88f7f822121886",
        "example --help":
            "86191725bed16da57b199065df762e324de4cfaf70911d115a168194068c7077",
        "validate no/such/file.net":
            "24bf5dd1014dea4cbd4bee4a50f367a0ddaf4b9c3ad6b7ea9b0b832734b7b833",
        "distributed @ --format xml":
            "e3342cc5051f843c1bfac895610dfd5e707d2c15d11c967f05fc73fe72608814",
        "refine @":
            "d4535ab25f28d1b0b0d7c4d341262569c87e06824223c9c04bb3f479ab86093e",
        "example nope":
            "6e1f8d247fc2dd982756f135110e422bdde59770a6ad5ecb7f474cef41643fc3",
        "unfold @ -k x":
            "82ecd3a76f707fd2029cdebd5086ba4f573de43f4ecdcf18a0e7ffbb51961c1b",
    }

    def test_reports(self, capsys):
        for (name, fmt), pinned in self.REPORT_DIGESTS.items():
            runs = [
                run(capsys, *(net(n) if a == "@" else a for a in REPORTS[name]), "--format", fmt)
                for n in BUILTIN_NAMES
            ]
            assert digest(runs) == pinned, (name, fmt)

    @pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse's layout is per version")
    def test_usage(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        for argv, pinned in self.USAGE_DIGESTS.items():
            args = [net("pure_m") if a == "@" else a for a in argv.split()]
            assert digest(run(capsys, *args)) == pinned, argv
