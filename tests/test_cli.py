import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from domcert.cli import main
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


GOLDEN = Path(__file__).resolve().parent / "golden"


class TestTransferGolden:
    """stdout and exit code of `transfer select` and `transfer frak`, recorded
    from the implementation that solved every eps level afresh; the signed
    `select` from the one that grew the family once per level."""

    @pytest.mark.parametrize(
        "name, argv, code",
        [
            (
                "transfer_select_c0_8",
                ["transfer", "select", "basis:C0:8", "--xi", "1", "--eps", "1/2",
                 "--phi", "1/8", "--depth", "4"],
                0,
            ),
            (
                "transfer_select_lp2_9",
                ["transfer", "select", "basis:LP(2):9", "--xi", "1", "--eps", "1/2",
                 "--phi", "1/8", "--depth", "4"],
                0,
            ),
            (
                "transfer_select_l1_10",
                ["transfer", "select", "basis:L1:10", "--xi", "1", "--eps", "1/2",
                 "--phi", "1/8", "--depth", "6"],
                2,
            ),
            (
                "transfer_select_c0_signed",
                ["transfer", "select", "c0_signed_blocks.json", "--xi", "1", "--eps", "1/2",
                 "--phi", "1/8", "--depth", "3"],
                0,
            ),
            (
                "transfer_frak_c0_blocks",
                ["transfer", "frak", "c0_signed_blocks.json", "--eps", "1/4", "--depth", "6"],
                0,
            ),
        ],
        ids=["select-c0", "select-lp2", "select-l1-shadow", "select-c0-signed", "frak-c0-blocks"],
    )
    def test_byte_identical(self, capsys, name, argv, code):
        argv = [str(GOLDEN / a) if a.endswith(".json") else a for a in argv]
        assert main(argv) == code
        assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text()


class TestBridgeGolden:
    """stdout of `spread bridge` at seeds 0 and 1, recorded when each
    direction estimated rho's spreading table on its own."""

    def test_byte_identical(self, capsys):
        out = ""
        for seed in ("0", "1"):
            argv = ["spread", "bridge", "basis:X[S[1]]:24", "--depth", "5", "--seed", seed]
            assert main(argv) == 0
            out += capsys.readouterr().out
        assert out == (GOLDEN / "spread_bridge.out").read_text()


class TestWitnessGolden:
    """stdout and exit code of `dominate exact` on the signed and the
    orthant route, both with a witness field, and of one `transfer block`
    certificate, recorded from the `Fraction` simplex that the integer
    tableau replaced: the witness is the vertex the pivot path reaches."""

    @pytest.mark.parametrize(
        "name, argv",
        [
            (
                "dominate_exact_signed",
                ["dominate", "exact", "dominate_signed_xs.json", "dominate_signed_ys.json"],
            ),
            (
                "dominate_exact_orthant",
                ["dominate", "exact", "dominate_orthant_xs.json", "dominate_orthant_ys.json"],
            ),
            (
                "transfer_block_s1",
                ["transfer", "block", "transfer_block_s1_blocks.json", "--target", "S[1]"],
            ),
        ],
        ids=["dominate-signed", "dominate-orthant", "transfer-block"],
    )
    def test_byte_identical(self, capsys, name, argv):
        argv = [str(GOLDEN / a) if a.endswith(".json") else a for a in argv]
        assert main(argv) == 0
        assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text()


class TestTsirelsonGolden:
    """stdout of `dominate exact` of two Tsirelson blocks against the c0
    basis, recorded from the recursive closure of admissible-tree
    functionals that the one admissible-system walk replaced."""

    def test_byte_identical(self, capsys):
        argv = ["dominate", "exact", str(GOLDEN / "dominate_tsirelson_xs.json"), "basis:C0:2"]
        assert main(argv) == 0
        assert capsys.readouterr().out == (GOLDEN / "dominate_exact_tsirelson.out").read_text()


class TestSearchEmbedGolden:
    """stdout and exit code of `fam embed`, `certify search` and `certify
    bracket`, recorded from the two backtracking loops that one walk
    replaced; each block is `$ domcert <argv>`, stdout, `exit <code>`."""

    RUNS = [
        ["fam", "embed", "F[w]", "S[1]", "8"],
        ["fam", "embed", "F[2]", "S[0]", "4"],
        ["fam", "embed", "ALL", "S[1]", "6"],
        ["certify", "search", "basis:X[S[1]]:7", "--xi", "1", "--C", "1", "--depth", "5"],
        ["certify", "search", "basis:L1:5", "--C", "1/100", "--depth", "4", "--node-budget", "7"],
        ["certify", "search", "basis:X[S[2]]:6", "--xi", "2", "--C", "1/2", "--depth", "4"],
        ["certify", "bracket", "basis:L1:4", "--g-space", "C0", "--depth", "4"],
        ["certify", "bracket", "basis:X[S[1]]:6", "--xi", "1", "--depth", "4"],
    ]

    def test_byte_identical(self, capsys):
        out = ""
        for argv in self.RUNS:
            code = main(argv)
            out += f"$ domcert {' '.join(argv)}\n{capsys.readouterr().out}exit {code}\n"
        assert out == (GOLDEN / "search_embed.out").read_text()


class TestLpGolden:
    """stdout and exit code of `dominate exact` on the l_p left routes, whose
    witnesses come straight from `solve_square` and `nullspace`, recorded from
    the `Fraction` elimination that the integer one replaced; each block is
    `$ domcert <argv>` with the files named as in tests/golden, stdout,
    `exit <code>`."""

    RUNS = [
        # disjoint right vectors: the positive orthant
        ["dominate_lp_orthant_xs.json", "dominate_lp_orthant_ys.json"],
        # sqrt(5) at the vertex (-2, 1) outside the orthant
        ["basis:LP(2):2", "dominate_lp_sqrt5_ys.json"],
        # y_2 = y_3: the direction (0, 1, -1) pinned at 0, value 2
        ["dominate_lp_pinned_xs.json", "dominate_lp_pinned_ys.json"],
        # three overlapping X[S[1]] vectors, 15 functional rows
        ["basis:LP(2):3", "dominate_lp_rows15_ys.json"],
        # y_1 = y_2: infinite, the witness a nullspace vector
        ["basis:LP(2):2", "dominate_lp_infinite_ys.json"],
    ]

    def test_byte_identical(self, capsys):
        out = ""
        for args in self.RUNS:
            code = main(["dominate", "exact", *(str(GOLDEN / a) if a.endswith(".json") else a
                                                for a in args)])
            out += f"$ domcert dominate exact {' '.join(args)}\n{capsys.readouterr().out}exit {code}\n"
        assert out == (GOLDEN / "dominate_exact_lp.out").read_text()


class TestFamMemberGolden:
    """stdout and exit code of `fam member` on the Schreier, fine Schreier,
    SUM and NFOLD levels that the workloads reach, on sets with points up to
    40: for each family a member, a set one point past it and one more set;
    each block is `$ domcert <argv>`, stdout, `exit <code>`."""

    RUNS = [
        ("F[w^2]", "2,3,4,5,6,7"), ("F[w^2]", "2,3,4,5,6,7,8"),
        ("F[w^2]", "2,4,16,17,23,30,34,40"),
        ("F[w*2+1]", "2,3,4,5,6,7,8,9,10,11,12"),
        ("F[w*2+1]", "3,4,5,6,7,8,9,10,11,12,13,14,15,16"),
        ("F[w*2+1]", "7,8,11,16,24,25,31,36"),
        ("S[2]", "2,3,4,5,6,7"), ("S[2]", "2,3,4,5,6,7,8"), ("S[2]", "1,5,11,12,14,18,25,27"),
        ("S[w]", "2,3,4,5,6,7"), ("S[w]", "2,3,4,5,6,7,8"),
        ("S[w]", ",".join(map(str, range(3, 41)))),
        ("S[w+1]", "1,2"), ("S[w+1]", ",".join(map(str, range(2, 41)))),
        ("S[w+1]", "11,12,13,14,19,21,35,40"),
        ("SUM(1;2)", "2,3,4"), ("SUM(1;2)", "2,3,4,5"), ("SUM(1;2)", "2,10,11,13,20,24,25,27"),
        ("NFOLD(S[1];3)", ",".join(map(str, range(2, 16)))),
        ("NFOLD(S[1];3)", ",".join(map(str, range(2, 17)))),
        ("NFOLD(S[1];3)", "1,5,17,20,22,37,38,39"),
        ("NFOLD(S[2];2)", "1,2,3,4,5,6,7"), ("NFOLD(S[2];2)", "1,2,3,4,5,6,7,8"),
        ("NFOLD(S[2];2)", ",".join(map(str, range(2, 41)))),
    ]

    def test_byte_identical(self, capsys):
        out = ""
        for fam, points in self.RUNS:
            code = main(["fam", "member", fam, points])
            out += f"$ domcert fam member {fam} {points}\n{capsys.readouterr().out}exit {code}\n"
        assert out == (GOLDEN / "fam_member.out").read_text()


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
        ],
        ids=[
            "unknown-command", "unknown-flag", "ignored-seed", "ignored-budget",
            "unknown-suite", "ord-add-one", "ord-fs-one", "fam-member-no-set",
            "transfer-no-inputs", "transfer-no-rho", "transfer-no-target",
            "verify-no-rho", "search-no-rho", "frak-negative-eps", "frak-zero-eps",
        ],
    )
    def test_exit_one_with_message(self, capsys, tmp_path, argv):
        cert = {"xi": "2", "M": [1, 2], "L": [1, 2], "C": "1", "g_space": "C0", "rho": ""}
        (tmp_path / "cert.json").write_text(json.dumps(cert))
        (tmp_path / "blocks.json").write_text(json.dumps([Vector.of({1: 1}).to_json()]))
        files = {"{cert}": str(tmp_path / "cert.json"), "{blocks}": str(tmp_path / "blocks.json")}
        code = main([files.get(a, a) for a in argv])
        err = capsys.readouterr().err
        assert code == 1 and err.splitlines()[-1].startswith("error: ")


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
