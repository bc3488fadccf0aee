"""One test per acceptance criterion, each printing its PASS/FAIL line and
checking it, detail text included, against the line that
`domcert acceptance all --seed 0` printed when tests/golden was recorded.

Criterion 02 pins the restricted ranks of S[1] to their exact values
floor((N+1)/2)+1 and to one plus the longest oracle-accepted member; the
negative controls below replace the rank function by wrong ones and check
that the criterion then fails.
"""

from pathlib import Path

import pytest

from domcert import acceptance as acc

SEED = 0

# `domcert acceptance all --seed 0`: one line per criterion, then the tally
GOLDEN_LINES = {
    line.split()[1]: line
    for line in (Path(__file__).resolve().parent / "golden" / "acceptance_all_seed0.out")
    .read_text()
    .splitlines()[:-1]
}


def _run(cid: str):
    result = acc.CRITERIA[cid](SEED)
    line = acc.format_results([result]).splitlines()[0]
    print(line)
    assert result.passed, f"criterion {cid}: {result.detail}"
    assert line == GOLDEN_LINES[cid]


def test_criterion_01_family_oracle_equivalence():
    _run("01")


def test_criterion_02_restricted_ranks():
    _run("02")


_RANK = acc.rank_restricted

WRONG_S1_RANKS = {
    # strictly increasing, the only shape a strict-growth check accepts
    "strict-N": lambda fam, n: n,
    # the longest member, without the +1 for the empty root
    "no-plus-one": lambda fam, n: _RANK(fam, n) - 1,
    # the correct rank, off by one at a single N
    "off-at-7": lambda fam, n: _RANK(fam, n) + (n == 7),
}


@pytest.mark.parametrize("wrong", WRONG_S1_RANKS)
def test_criterion_02_rejects_wrong_s1_ranks(monkeypatch, wrong):
    def rank(fam, n, **kw):
        if isinstance(fam, acc.Schreier):
            return WRONG_S1_RANKS[wrong](fam, n)
        return _RANK(fam, n, **kw)

    monkeypatch.setattr(acc, "rank_restricted", rank)
    result = acc.criterion_02_ranks(SEED)
    assert not result.passed
    assert "S[1]" in result.detail


def test_criterion_03_regularity():
    _run("03")


def test_criterion_04_one_right_dominance():
    _run("04")


def test_criterion_05_block_domination():
    _run("05")


def test_criterion_06_baernstein_bound():
    _run("06")


def test_criterion_07_tsirelson_lower_bound():
    _run("07")


def test_criterion_08_combinator_soundness():
    _run("08")


def test_criterion_09_order_embedding():
    _run("09")


def test_criterion_10_spreading_models():
    _run("10")


def test_criterion_11_main2_bridge():
    _run("11")


def test_criterion_12_gamma_brackets():
    _run("12")


def test_unknown_suite_is_a_value_error():
    with pytest.raises(ValueError, match="unknown suite 'bogus'"):
        acc.run_suite("bogus")
