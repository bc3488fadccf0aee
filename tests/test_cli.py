import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import golden_runner
from domcert.cli import build_parser, main
from domcert.vectors import Vector


@pytest.fixture
def vec_file(tmp_path):
    path = tmp_path / "v.json"
    path.write_text(json.dumps(Vector.of({1: 1, 2: 1, 3: 1}).to_json()))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out.strip()


class TestNormCli:
    def test_eval_prints_two(self, capsys, vec_file):
        code, out = run(capsys, "norm", "eval", "X[S[1]]", vec_file)
        assert code == 0 and out == "2"

    def test_irrational_reported_with_power(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps(Vector.of({2: 1, 3: 1}).to_json()))
        code, out = run(capsys, "norm", "eval", "PCONV(X[S[1]];2)", str(path))
        assert code == 0 and out.startswith("2^(1/2)")


class TestFamCli:
    def test_member_true(self, capsys):
        code, out = run(capsys, "fam", "member", "F[w]", "3 5 7")
        assert code == 0 and out == "true"

    def test_member_false(self, capsys):
        code, out = run(capsys, "fam", "member", "S[1]", "1 2")
        assert code == 0 and out == "false"

    def test_enum(self, capsys):
        code, out = run(capsys, "fam", "enum", "S[1]", "3")
        assert code == 0 and json.loads(out) == [[], [1], [2], [3], [2, 3]]

    def test_regular_violation_exit_code(self, capsys):
        # the stream skips 4, so bumping {2,3} to {2,4} leaves the family
        code, out = run(capsys, "fam", "regular", "RESTRICT(S[1];2,3,5,7,9)", "5")
        assert code == 2

    def test_rank(self, capsys):
        code, out = run(capsys, "fam", "rank", "F[3]", "10")
        assert code == 0 and out == "4"

    def test_usage_error(self, capsys):
        code, _ = run(capsys, "fam", "member", "NOPE[1]", "1 2")
        assert code == 1

    def test_restrict_empty_stream_is_usage_error(self, capsys):
        # used to die with an IndexError traceback inside membership
        code = main(["fam", "member", "RESTRICT(S[1];)", "1"])
        err = capsys.readouterr().err
        assert code == 1 and "error: RESTRICT needs a nonempty stream prefix" in err

    def test_am_witness(self, capsys):
        code, out = run(capsys, "fam", "am-witness", "2", "w", "10")
        assert code == 0 and out == "1"

    def test_embed(self, capsys):
        code, out = run(capsys, "fam", "embed", "F[w]", "S[1]", "8")
        assert code == 0
        assert json.loads(out)["mapping"] == [1, 2, 3, 4, 5, 6, 7, 8]

    def test_embed_failure_exit_three(self, capsys):
        code, _ = run(capsys, "fam", "embed", "S[1]", "F[1]", "4")
        assert code == 3


class TestCertifyCli:
    def test_verify_xi_zero(self, capsys, tmp_path):
        cert = {
            "xi": "0",
            "M": [1, 2],
            "L": [1, 2],
            "C": "1",
            "N": 2,
            "g_space": "C0",
            "rho": "",
        }
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(cert))
        code, out = run(
            capsys, "certify", "verify", str(cert_path), "basis:L1:2"
        )
        assert code == 0 and json.loads(out)["ok"] is True

    def test_verify_violation_exit_two(self, capsys, tmp_path):
        cert = {
            "xi": "1",
            "M": [1, 2],
            "L": [1, 2],
            "C": "1",
            "N": 2,
            "g_space": "C0",
            "rho": "",
        }
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(cert))
        rho = {
            "space": "L1",
            "vectors": [
                Vector.of({1: 2}).to_json(),
                Vector.of({2: 2}).to_json(),
            ],
        }
        rho_path = tmp_path / "rho.json"
        rho_path.write_text(json.dumps(rho))
        code, out = run(capsys, "certify", "verify", str(cert_path), str(rho_path))
        assert code == 2
        assert json.loads(out)["violation"]["ratio"]["value"] == "2"

    def test_search_found(self, capsys):
        code, out = run(
            capsys,
            "certify", "search", "basis:X[S[1]]:4",
            "--xi", "ALL", "--C", "1", "--depth", "4",
        )
        assert code == 0
        data = json.loads(out)
        assert data["M"] == [1, 2, 3, 4] and data["verified"]

    def test_search_exhausted_exit_three(self, capsys, tmp_path):
        rho = {"space": "L1", "vectors": [Vector.of({1: 2}).to_json()]}
        rho_path = tmp_path / "rho.json"
        rho_path.write_text(json.dumps(rho))
        code, out = run(
            capsys,
            "certify", "search", str(rho_path),
            "--xi", "ALL", "--C", "1", "--depth", "1", "--g-space", "C0",
        )
        assert code == 3

    def test_search_uses_g_space(self, capsys):
        # l1 against c0 on three vectors has constant 3
        argv = ["certify", "search", "basis:L1:4", "--g-space", "C0", "--depth", "3"]
        code, out = run(capsys, *argv, "--C", "2")
        assert code == 3 and json.loads(out) == {"nodes": 68, "status": "exhausted"}
        code, out = run(capsys, *argv, "--C", "3")
        assert code == 0 and json.loads(out)["g_space"] == "C0"

    def test_bracket(self, capsys):
        code, out = run(
            capsys,
            "certify", "bracket", "basis:L1:3",
            "--xi", "ALL", "--depth", "3", "--g-space", "C0",
        )
        assert code == 0
        data = json.loads(out)
        assert data["lower"] == "3" and data["upper"] == "3"

    def test_bracket_nonpositive_resolution_exit_one(self, capsys):
        code, out = run(
            capsys,
            "certify", "bracket", "basis:X[S[1]]:5",
            "--xi", "1", "--depth", "3", "--resolution", "-1", "--node-budget", "200",
        )
        assert code == 1 and out == ""

    def test_bracket_infinite_upper(self, capsys, tmp_path):
        # no certificate exists below the probe cap 2^16, so upper stays inf
        rho = {"space": "L1", "vectors": [{"entries": [[1, "1000000"]]}, {"entries": [[2, "1000000"]]}]}
        rho_path = tmp_path / "big.json"
        rho_path.write_text(json.dumps(rho))
        code, out = run(
            capsys,
            "certify", "bracket", str(rho_path),
            "--xi", "ALL", "--depth", "1", "--g-space", "C0",
        )
        assert code == 0
        assert json.loads(out) == {
            "budget": {"l_max": 2, "nodes": 68},
            "depth": 1,
            "lower": "1000000",
            "upper": "inf",
            "xi": "ALL",
        }


class TestTransferCli:
    def test_frak(self, capsys, tmp_path):
        code, out = run(
            capsys,
            "transfer", "frak", "basis:X[S[1]]:6",
            "--eps", "1", "--depth", "4",
        )
        assert code == 0
        members = [tuple(f) for f in json.loads(out)]
        assert (2, 3) in members and (1, 2) not in members

    def test_select_failure_exit_two(self, capsys):
        code, out = run(
            capsys,
            "transfer", "select", "basis:L1:10",
            "--xi", "1", "--eps", "1/2", "--phi", "1/8", "--depth", "6",
        )
        assert code == 2
        assert json.loads(out)["error"] == "shadow-failure"


GOLDEN_FILES = golden_runner.load()
BLOCKS = [block for blocks in GOLDEN_FILES.values() for block in blocks]


class TestGolden:
    """Every block of tests/golden/*.out, stdout and exit code, replayed
    in-process by the runner behind CI's `golden_runner.py check` step."""

    @pytest.mark.parametrize("block", BLOCKS, ids=[block.id for block in BLOCKS])
    def test_replays(self, block):
        assert golden_runner.replay(block) == (block.stdout, block.code)

    def test_every_input_is_named_by_a_block(self):
        assert golden_runner.orphans(golden_runner.GOLDEN, GOLDEN_FILES) == []

    def test_check_fails_on_an_orphan_input(self, tmp_path):
        (tmp_path / "ord.out").write_text("$ domcert ord add 1 1\n2\nexit 0\n")
        assert golden_runner.check(tmp_path) == []
        (tmp_path / "spare.json").write_text("{}")
        assert golden_runner.check(tmp_path) == ["spare.json: named by no block"]

    def test_check_fails_on_a_malformed_block(self, tmp_path):
        (tmp_path / "ord.out").write_text("$ domcert ord add 1 1\n2\n")
        assert golden_runner.check(tmp_path) == [
            "malformed: ord.out:1: expected '$ domcert <argv>', stdout, 'exit <code>'"
        ]

    def test_record_rewrites_a_stale_block(self, tmp_path):
        stale = tmp_path / "ord.out"
        stale.write_text("$ domcert ord add 1 1\n3\nexit 1\n")
        assert len(golden_runner.check(tmp_path)) == 1
        assert golden_runner.record(tmp_path) == {"ord.out": 4}
        assert stale.read_text() == "$ domcert ord add 1 1\n2\nexit 0\n"
        assert golden_runner.check(tmp_path) == []


class TestDominateCli:
    def test_exact(self, capsys):
        code, out = run(capsys, "dominate", "exact", "basis:L1:2", "basis:C0:2")
        assert code == 0
        assert json.loads(out)["constant"]["value"] == "2"

    def test_exact_infinite(self, capsys, tmp_path):
        ys = {"space": "C0", "vectors": [Vector.of({1: 1}).to_json(), Vector.of({1: 1}).to_json()]}
        path = tmp_path / "ys.json"
        path.write_text(json.dumps(ys))
        code, out = run(capsys, "dominate", "exact", "basis:L1:2", str(path))
        assert code == 0
        assert json.loads(out)["constant"]["kind"] == "infinite"

    def test_exact_lp_left_overlapping_right_power_five(self, capsys, tmp_path):
        # the true constant is sqrt(5), which `dominate lb` finds; the exact
        # route reaches it at a vertex outside the positive orthant
        xs, ys = tmp_path / "xs.json", tmp_path / "ys.json"
        xs.write_text('{"space": "LP(2)", "vectors": [{"entries": [[1, "1"]]}, {"entries": [[2, "1"]]}]}')
        ys.write_text('{"space": "C0", "vectors": [{"entries": [[1, "1"]]}, {"entries": [[1, "1"], [2, "1"]]}]}')
        code, out = run(capsys, "dominate", "lb", str(xs), str(ys))
        assert code == 0 and json.loads(out)["lower_bound"]["power"] == "5"
        code, out = run(capsys, "dominate", "exact", str(xs), str(ys))
        assert code == 0
        assert json.loads(out)["constant"]["power"] == "5"
        assert json.loads(out)["witness"] == ["-2", "1"]


class TestSpreadCli:
    def test_exact(self, capsys):
        code, out = run(
            capsys, "spread", "exact", "1", "--coeffs", "1,1,1,1"
        )
        assert code == 0
        assert json.loads(out)["value"]["value"] == "4"

    def test_estimate(self, capsys):
        code, out = run(
            capsys, "spread", "estimate", "X[S[1]]", "--m", "2", "--stages", "2,3"
        )
        assert code == 0 and json.loads(out)["stable"] is True

    def test_equiv(self, capsys):
        code, out = run(capsys, "spread", "equiv", "1", "--m", "2")
        assert code == 0
        assert json.loads(out)["lower"]["value"] == "1"

    @pytest.mark.parametrize(
        "argv",
        [
            ["exact", "1", "--coeffs", "1,1", "--subseq", "affine(5,0)"],
            ["exact", "1", "--coeffs", "1,1", "--subseq", "9,3"],
            ["equiv", "1", "--subseq", "affine(1,0)"],
        ],
        ids=["constant", "decreasing", "equiv-constant"],
    )
    def test_non_subsequence_is_usage_error(self, capsys, argv):
        # each used to report a result as if the map were a subsequence
        code = main(["spread", *argv])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: not a subsequence")


class TestTransferChainCli:
    def test_block_then_shift(self, capsys, tmp_path):
        blocks = [Vector.of({1: 1, 2: 1}).to_json(), Vector.of({3: 1}).to_json()]
        blocks_path = tmp_path / "blocks.json"
        blocks_path.write_text(json.dumps(blocks))
        code, out = run(
            capsys,
            "transfer", "block", str(blocks_path), "--target", "S[1]",
        )
        assert code == 0
        cert = json.loads(out)
        assert cert["L"] == [2, 3] and cert["C"] == "1"

    def test_shift(self, capsys, tmp_path):
        cert = {
            "xi": "2",
            "M": [1, 2, 3, 4],
            "L": [1, 2, 3, 4],
            "C": "1",
            "g_space": "X[S[1]]",
            "rho": "",
        }
        cert_path = tmp_path / "c.json"
        cert_path.write_text(json.dumps(cert))
        code, out = run(
            capsys,
            "transfer", "shift", str(cert_path),
            "--rho", "basis:X[S[1]]:4", "--target", "1", "--shift", "0",
        )
        assert code == 0
        assert json.loads(out)["xi"] == "1"


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["bogus"],
            ["ord", "add", "w", "1", "--bogus"],
            ["ord", "parse", "w", "--seed", "1"],
            ["fam", "rank", "F[3]", "10", "--node-budget", "5"],
            ["acceptance", "bogus"],
            ["ord", "add", "w"],
            ["ord", "fs", "w"],
            ["fam", "member", "S[1]"],
            ["transfer", "shift"],
            ["transfer", "shift", "{cert}", "--target", "1"],
            ["transfer", "block", "{blocks}"],
            ["certify", "verify", "{cert}"],
            ["certify", "search"],
            ["transfer", "frak", "basis:LP(2):2", "--eps", "-1", "--depth", "2"],
            ["transfer", "frak", "basis:C0:3", "--eps", "0", "--depth", "3"],
            ["transfer", "sum", "{cert}", "--rho", "basis:C0:2"],
            ["certify"],
        ],
        ids=[
            "unknown-command", "unknown-flag", "ignored-seed", "ignored-budget",
            "unknown-suite", "ord-add-one", "ord-fs-one", "fam-member-no-set",
            "transfer-no-inputs", "transfer-no-rho", "transfer-no-target",
            "verify-no-rho", "search-no-rho", "frak-negative-eps", "frak-zero-eps",
            "sum-one-input", "no-action",
        ],
    )
    def test_exit_one_with_message(self, capsys, tmp_path, argv):
        code = main(self.with_files(tmp_path, argv))
        err = capsys.readouterr().err
        assert code == 1 and err.splitlines()[-1].startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["fam", "enum", "F[1]", "2", "4"],
            ["fam", "member", "S[1]", "2,3", "extra"],
            ["certify", "search", "basis:X[S[1]]:3", "basis:C0:5"],
            ["certify", "verify", "{cert}", "basis:C0:2", "--xi", "2"],
            ["dominate", "exact", "basis:L1:2", "basis:C0:2", "--trials", "5"],
            ["transfer", "frak", "basis:C0:3", "--eps", "1", "--depth", "3", "--rho", "x.json"],
            ["spread", "exact", "1", "--m", "7"],
        ],
        ids=[
            "enum-extra-bound", "member-extra", "search-second-rho", "verify-xi",
            "exact-trials", "frak-rho", "spread-exact-m",
        ],
    )
    def test_argument_the_action_does_not_read(self, capsys, tmp_path, argv):
        # each of these used to exit 0, reading one of the values or neither
        code = main(self.with_files(tmp_path, argv))
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.splitlines()[-1].startswith("error: unrecognized arguments: ")
        assert captured.err.startswith(f"usage: domcert {argv[0]} {argv[1]} ")

    @staticmethod
    def with_files(tmp_path, argv):
        cert = {"xi": "2", "M": [1, 2], "L": [1, 2], "C": "1", "g_space": "C0", "rho": ""}
        (tmp_path / "cert.json").write_text(json.dumps(cert))
        (tmp_path / "blocks.json").write_text(json.dumps([Vector.of({1: 1}).to_json()]))
        files = {"{cert}": str(tmp_path / "cert.json"), "{blocks}": str(tmp_path / "blocks.json")}
        return [files.get(a, a) for a in argv]


class RecordingNamespace(argparse.Namespace):
    """A namespace that records the attributes read from it."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._read = set()

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_read").add(name)
        return object.__getattribute__(self, name)


def subparsers(parser):
    """The parsers under `parser`'s subcommand, by name ({} if it has none)."""
    return next(
        (a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)), {}
    )


X1_CERT = {"M": [1, 2, 3, 4], "L": [1, 2, 3, 4], "C": "1", "g_space": "X[S[1]]", "rho": ""}
# one valid argv per action; {name} is a file of FILES
ACTION_ARGVS = [
    ["ord", "parse", "w"],
    ["ord", "add", "w*2+3", "w+1"],
    ["ord", "cmp", "w", "1"],
    ["ord", "classify", "w+1"],
    ["ord", "fs", "w^2", "2"],
    ["fam", "member", "F[w]", "3 5 7"],
    ["fam", "enum", "S[1]", "3"],
    ["fam", "rank", "F[3]", "10"],
    ["fam", "regular", "RESTRICT(S[1];2,3,5,7,9)", "5"],
    ["fam", "am-witness", "2", "w", "10"],
    ["fam", "embed", "F[w]", "S[1]", "8"],
    ["norm", "eval", "PCONV(X[S[1]];2)", "{vector}", "--precision", "8"],
    ["dominate", "exact", "basis:L1:2", "basis:C0:2"],
    ["dominate", "lb", "basis:L1:3", "basis:C0:3", "--trials", "20", "--seed", "7"],
    ["certify", "search", "basis:X[S[1]]:4", "--xi", "ALL", "--C", "1", "--depth", "4"],
    ["certify", "verify", "{cert1}", "basis:X[S[1]]:4"],
    ["certify", "bracket", "basis:L1:3", "--xi", "ALL", "--depth", "3", "--g-space", "C0"],
    ["transfer", "shift", "{cert2}", "--rho", "basis:X[S[1]]:4", "--target", "1"],
    ["transfer", "sum", "{cert1}", "{cert1}", "--rho", "basis:X[S[1]]:6"],
    ["transfer", "limit", "{cert1}", "{cert2}", "--rho", "basis:X[S[1]]:6"],
    ["transfer", "merge", "{cert2}", "{cert1}", "--rho", "basis:X[S[1]]:6"],
    ["transfer", "block", "{blocks}", "--target", "S[1]"],
    ["transfer", "frak", "basis:X[S[1]]:6", "--eps", "1", "--depth", "4"],
    ["transfer", "select", "basis:C0:8", "--xi", "1", "--eps", "1/2", "--depth", "4"],
    ["spread", "estimate", "X[S[1]]", "--m", "2", "--stages", "2,3"],
    ["spread", "exact", "1", "--coeffs", "1,1,1,1"],
    ["spread", "equiv", "1", "--m", "2"],
    ["spread", "bridge", "basis:X[S[1]]:8", "--depth", "3"],
    ["acceptance", "families", "--seed", "0"],
]
FILES = {
    "vector": Vector.of({2: 1, 3: 1}).to_json(),
    "cert1": {"xi": "1", **X1_CERT},
    "cert2": {"xi": "2", **X1_CERT},
    "blocks": [Vector.of({1: 1, 2: 1}).to_json(), Vector.of({3: 1}).to_json()],
}


class TestEachActionReadsWhatItDeclares:
    """Every positional and flag an action's parser declares is read by the
    handler on a valid run, so the parser accepts nothing that is ignored."""

    @pytest.mark.parametrize("argv", ACTION_ARGVS, ids=[" ".join(a[:2]) for a in ACTION_ARGVS])
    def test_every_declared_argument_is_read(self, capsys, tmp_path, argv):
        for name, content in FILES.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(content))
        argv = [str(tmp_path / f"{a[1:-1]}.json") if a[1:-1] in FILES else a for a in argv]
        args = build_parser().parse_args(argv)
        recording = RecordingNamespace(**vars(args))
        assert args.func(recording) in (0, 2, 3)
        declared = set(vars(args)) - {"command", "action", "func"}
        assert declared - recording._read == set()

    def test_every_action_has_an_argv(self):
        parsed = {tuple(argv[: 1 if argv[0] == "acceptance" else 2]) for argv in ACTION_ARGVS}
        actions = {
            (command, *([action] if action else []))
            for command, parser in subparsers(build_parser()).items()
            for action in subparsers(parser) or [None]
        }
        assert parsed == actions and len(ACTION_ARGVS) == 29


class TestMalformedInput:
    """A JSON file missing a field, or holding the wrong kind of value, is a
    usage error naming the file, not a traceback."""

    CERT = {"xi": "ALL", "M": [1], "L": [1], "C": "1", "g_space": "C0", "rho": ""}

    @pytest.mark.parametrize(
        "argv, content",
        [
            (["certify", "verify", "{f}", "basis:C0:1"],
             {k: v for k, v in CERT.items() if k != "M"}),
            (["certify", "verify", "{f}", "basis:C0:1"], {**CERT, "M": 5}),
            (["certify", "verify", "{f}", "basis:C0:1"], [CERT]),
            (["transfer", "shift", "{f}", "--rho", "basis:C0:2", "--target", "0"],
             {**CERT, "L": 3}),
            (["transfer", "limit", "{f}", "--rho", "basis:C0:2"],
             {k: v for k, v in CERT.items() if k != "C"}),
            (["dominate", "exact", "{f}", "basis:C0:1"],
             {"space": "C0", "vectors": [{"values": [[1, "1"]]}]}),
            (["dominate", "exact", "basis:C0:1", "{f}"], {"space": "C0"}),
            (["transfer", "frak", "{f}", "--depth", "2"], {"vectors": []}),
            (["norm", "eval", "C0", "{f}"], {"entries": 1}),
            (["norm", "eval", "C0", "{f}"], {"entries": [1]}),
            (["transfer", "block", "{f}", "--target", "S[1]"], [{"entries": [[1, "1"]]}, {}]),
            (["transfer", "block", "{f}", "--target", "S[1]"], 7),
        ],
        ids=[
            "cert-missing-M", "cert-int-M", "cert-list", "shift-int-L", "limit-missing-C",
            "sequence-vector-no-entries", "sequence-no-vectors", "frak-no-space",
            "vector-int-entries", "vector-int-entry", "block-vector-no-entries",
            "block-not-a-list",
        ],
    )
    def test_malformed_file_exit_one(self, capsys, tmp_path, argv, content):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(content))
        code = main([str(path) if a == "{f}" else a for a in argv])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.splitlines()[-1].startswith(f"error: malformed {path}: ")


class TestDeterminism:
    def test_acceptance_list(self, capsys):
        code, out = run(capsys, "acceptance", "--list")
        assert code == 0
        assert "families" in json.loads(out)

    def test_module_entry_point(self, capsys, tmp_path):
        # python -m domcert, run away from the checkout, prints what main does
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "domcert", "acceptance", "--list"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )
        assert main(["acceptance", "--list"]) == proc.returncode == 0
        assert proc.stdout == capsys.readouterr().out

    def test_reader_that_leaves_early_is_not_an_error(self, tmp_path):
        # like `domcert fam enum ALL 16 | head -1`: 4 MB of output, one line read
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "domcert", "fam", "enum", "ALL", "16", "--out", "all.json"],
            cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline() == b"[\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0 and proc.stderr.read() == b""
        proc.stderr.close()
        assert len(json.loads((tmp_path / "all.json").read_text())) == 2**16

    def test_seeded_outputs_identical(self, capsys):
        code1, out1 = run(
            capsys, "dominate", "lb", "basis:L1:3", "basis:C0:3", "--seed", "1"
        )
        code2, out2 = run(
            capsys, "dominate", "lb", "basis:L1:3", "basis:C0:3", "--seed", "1"
        )
        assert code1 == code2 == 0 and out1 == out2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        code, out = run(
            capsys, "ord", "add", "w*2+3", "w+1", "--out", str(target)
        )
        assert code == 0 and out == "w*3+1"
        assert target.read_text().strip() == "w*3+1"
