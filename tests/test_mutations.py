"""Committed mutants: each one-token transcription bug must be caught.

A mutant replaces one token of a function's source, is compiled into that
function's module namespace, and is patched in where the verifiers bind it.
There is one table, and one test, per outcome:

* `MUTANTS`: an identity no longer holds.  The lemma run exits 1, never 3
  or 4, the (check, clause) pairs it fails are exactly the row's, and every
  witness sits at a low degree.  Rows reach the gap side, the final division
  by theta(1, 4) that applies D to every product series, the coefficient
  tables' identity entry and depth step, the quotient side's family steps,
  cap rule and root head, the splitting engine's lift, leaf series, head
  copy, tail start, pivot, add branch, combine and colon kernel, the plain
  family's cap, and the literal level-zero oracle.
* `ENGINE_MUTANTS`: the two engines of `hilbert` disagree, and the CLI exits
  1.  Rows break `hp_brute`'s order-ideal walk, or are identity rows that
  break the implicit family tail of `hp_notation`.
* `DIVISION_MUTANTS`: the product-side cascade's own exact division fails.
  It raises `NonDivisible` before any identity is compared, and the CLI
  exits 3.

A ledger pins, for each report of the lemma run, its clause labels and the
arguments of every `c_series` and `hp_notation` call it made, so a clause
that moves, goes or reads the wrong series fails even while every report
passes.  Re-record it, on purpose only, with
`PYTHONPATH=src python tests/test_mutations.py`.  A census maps every clause
of the ledger to the rows that fail it, and only the clauses in `UNREACHED`
have none.  See DeMillo, Lipton and Sayward, "Hints on test data
selection", IEEE Computer 11(4), 1978.
"""

from __future__ import annotations

import inspect
import json
from pathlib import Path
from types import ModuleType
from typing import NamedTuple

import pytest

from gga_verify import hilbert, partitions, recursion
from gga_verify.errors import NonDivisible

from oracles import run_cli

LEMMAS_ARGV = ["verify", "--lemmas", "--r", "2..4", "--i", "all", "--J", "0..1", "--N", "20"]
HILBERT_ARGV = ["hilbert", "--family", "LriJ", "--r", "3", "--i", "2", "--N", "20"]
LK_ARGV = ["hilbert", "--family", "Lk", "--k", "3", "--r", "3", "--N", "20"]
LEDGER = Path(__file__).parent / "golden" / "lemma_ledger.json"


class Row(NamedTuple):
    name: str
    module: ModuleType  # where the verifiers bind the function: looked up and patched here
    function: str
    token: str  # occurs once in the function's source
    replacement: str
    pairs: set = set()  # the (check, clause) pairs failing on LEMMAS_ARGV, "[...]" dropped


GAP_PAIRS = {("main", "product_vs_gap")}
PRODUCT_PAIRS = {("main", "product_vs_gap"), ("limits", "product_tail_is_one")}
QUOTIENT_PAIRS = {
    ("main", "quotient_vs_gap"), ("hp_step", "full_step"), ("hp_expansion", "expansion"),
    ("limits", "n_stabilizes_to_quotient"),
}
ORACLE_PAIRS = {("main", "congruence_vs_gap_counts")}

MUTANTS = [
    Row("i-1 cap dropped", recursion, "series_E", "ends[cap + 1 - i]", "ends[0]", GAP_PAIRS),
    Row("window cap r, not r-1", recursion, "series_E", "cap, zero = r - 1,", "cap, zero = r,",
        GAP_PAIRS),
    Row("odd part shifted by 2", recursion, "series_E", ".shift(odd)", ".shift(odd + 2)",
        GAP_PAIRS),
    Row("first pair skipped", recursion, "series_E", "range(2 * J + 1,", "range(2 * J + 3,",
        GAP_PAIRS),
    Row("odd part outside the window", recursion, "series_E", "below[cap - b]",
        "below[cap + 1 - b]", GAP_PAIRS),
    Row("first staircase from s = 2", hilbert, "_step_gens", "range(1, cap)", "range(2, cap)",
        QUOTIENT_PAIRS),
    Row("second staircase one short", hilbert, "_step_gens", "range(cap - 1)", "range(cap - 2)",
        QUOTIENT_PAIRS),
    Row("cap ell at j = k only", hilbert, "_cap", "j - k <= k % 2", "j - k < k % 2",
        QUOTIENT_PAIRS),
    Row("lift counts a killed variable", hilbert, "_lift", "if v not in starts:", "if True:",
        QUOTIENT_PAIRS),
    Row("one step fewer copied into the head", hilbert, "_split", "range(s, p + 3)",
        "range(s, p + 2)", QUOTIENT_PAIRS),
    Row("tail starts one step late", hilbert, "_split", "), p + 3", "), p + 4", QUOTIENT_PAIRS),
    Row("pivot ignores the tail", hilbert, "_split", "else min(p, s)", "else p", QUOTIENT_PAIRS),
    Row("tail dropped while step s fits", hilbert, "_split", "2 * s > budget", "2 * s >= budget",
        QUOTIENT_PAIRS),
    Row("root head one step short", recursion, "hp_notation", "range(k, k + 3)",
        "range(k, k + 2)", QUOTIENT_PAIRS),
    Row("add branch starts one variable late", hilbert, "_split", "todo.append((p + 1,",
        "todo.append((p + 2,", QUOTIENT_PAIRS),
    Row("D multiplied, not divided", recursion, "_product_series",
        "div_sparse(top.truncated(n), triple_product_terms(1, 4, n))",
        "top.truncated(n) * sparse_series(triple_product_terms(1, 4, n), n)", PRODUCT_PAIRS),
    # theta(3, 4) is theta(1, 4) again, so the mutant changes the modulus
    Row("D divided by theta(1, 8)", recursion, "_product_series", "triple_product_terms(1, 4, n)",
        "triple_product_terms(1, 8, n)", PRODUCT_PAIRS),
    Row("M pivot one up", recursion, "coeff_table", "else r - anchor + 1", "else r - anchor + 2",
        {("mn_tables", "entry"), ("c_expansion", "expansion"),
         ("limits", "m_stabilizes_to_product")}),
    Row("pivot initial exponent one level up", recursion, "coeff_table",
        ".shift(2 * (d + 1) * (j - 1))", ".shift(2 * (d + 1) * j)",
        {("hp_expansion", "expansion"), ("c_expansion", "expansion"),
         ("limits", "m_stabilizes_to_product")}),
    Row("identity entry one slot up", recursion, "coeff_table", "row[r - pivot] =",
        "row[r - pivot - 1] =",
        {("hp_expansion", "expansion"), ("c_expansion", "expansion"),
         ("limits", "m_stabilizes_to_product")}),
    Row("added variable dropped", hilbert, "_split", "todo.append((p + 1,", "todo.append((p,",
        QUOTIENT_PAIRS),
    Row("leaf series all ones", hilbert, "_split", "_lift([1] + [0] * budget,",
        "_lift([1] * (budget + 1),", {("limits", "hp_tail_is_one"), ("main", "quotient_vs_gap")}),
    Row("colon keeps the pivot's power", hilbert, "_colon", "((var, e - 1),)", "((var, e),)",
        QUOTIENT_PAIRS),
    Row("colon budget on the undivided weight", hilbert, "_colon", "w - var <= trunc",
        "w <= trunc", QUOTIENT_PAIRS),
    Row("combine shifts by p + 1", hilbert, "_split", "low)", "[0, *low])", QUOTIENT_PAIRS),
    Row("pivot one variable up", hilbert, "_split", "p = v\n", "p = v + 1\n", QUOTIENT_PAIRS),
    Row("depth-step exponent one level down", recursion, "coeff_table",
        ".shift(2 * (d + 1) * (j - 1))", ".shift(2 * d * (j - 1))",
        {("c_expansion", "expansion"), ("hp_expansion", "expansion"),
         ("limits", "m_entry_vanishes")}),
    Row("root tail starts at k+4", recursion, "hp_notation", "r, k + 3)", "r, k + 4)",
        QUOTIENT_PAIRS | {("hp_step", "even_cascade"), ("hp_step", "odd_step")}),
    Row("plain family capped at r - 1", recursion, "verify_hp_step", "hp(k + 2, r))",
        "hp(k + 2, r - 1))", {("hp_step", "odd_step_degenerate")}),
    Row("gap floor one up", partitions, "_level_zero_walk", ">= v - 2 + (v & 1)",
        ">= v - 1 + (v & 1)", ORACLE_PAIRS),
    Row("gap floor one down", partitions, "_level_zero_walk", ">= v - 2 + (v & 1)",
        ">= v - 3 + (v & 1)", ORACLE_PAIRS),
    Row("odd repeat allowed", partitions, "_level_zero_walk", "v & 1 and parts",
        "v & 0 and parts", ORACLE_PAIRS),
    Row("i cap one high", recursion, "series_D", "[:i]", "[: i + 1]", ORACLE_PAIRS),
]
ROW = {row.name: row for row in MUTANTS}

# (argv, row): `hilbert` imports both engines from the hilbert module when it
# runs, so every row is patched there, also the identity rows that break the
# implicit family tail
ENGINE_MUTANTS = [
    (HILBERT_ARGV, Row("generator met one power late", hilbert, "_standard_counts",
                       "if exps[u] < e:", "if exps[u] <= e:")),
    (HILBERT_ARGV, Row("generators looked up one variable down", hilbert, "_standard_counts",
                       "ending_at.get((v, exps[v]), ())", "ending_at.get((v - 1, exps[v]), ())")),
    (HILBERT_ARGV, Row("last power looked up one early", hilbert, "_standard_counts",
                       "(v, exps[v])", "(v, exps[v] - 1)")),
    (HILBERT_ARGV, ROW["one step fewer copied into the head"]),
    (HILBERT_ARGV, ROW["tail starts one step late"]),
    (HILBERT_ARGV, ROW["tail dropped while step s fits"]),
    (HILBERT_ARGV, ROW["root tail starts at k+4"]),
    (LK_ARGV, ROW["root head one step short"]),
]

DIVISION_MUTANTS = [
    Row("difference divided one power too far", recursion, "_product_series",
        "div_q_pow(w - 1)", "div_q_pow(w)"),
    Row("chained term divided by q twice", recursion, "_product_series", ".div_q_pow(1)",
        ".div_q_pow(2)"),
    Row("second operand one entry up", recursion, "_cascade", "row[r - i + 1]",
        "row[r - i + 2 - (i == 2)]"),
    Row("level start one entry down", recursion, "_cascade", "new = [row[r - 1]]",
        "new = [row[r - 2]]"),
]

# every row once: the engine table's tail rows are identity rows
ROWS = MUTANTS + [row for _, row in ENGINE_MUTANTS if row not in MUTANTS] + DIVISION_MUTANTS


def mutant(row: Row):
    """`row`'s function recompiled in its own module's namespace with its token replaced."""
    function = getattr(row.module, row.function)
    source = inspect.getsource(function)
    assert source.count(row.token) == 1, row.token
    namespace = dict(vars(inspect.getmodule(function)))
    exec(source.replace(row.token, row.replacement), namespace)
    return namespace[function.__name__]


def run_verify(argv: list[str]) -> tuple[int, list[dict]]:
    code, out = run_cli(*argv)
    return code, [json.loads(line) for line in out.splitlines()]


def test_unmutated_sources_recompile_to_the_same_runs(monkeypatch) -> None:
    # the harness alone changes nothing: every mutated function, recompiled
    # from its own source and patched in at once, prints the same bytes
    targets = {(row.module, row.function): row for row in ROWS}
    targets.update({(hilbert, row.function): row for _, row in ENGINE_MUTANTS})
    same = {key: mutant(row._replace(replacement=row.token)) for key, row in targets.items()}
    argvs = [LEMMAS_ARGV, HILBERT_ARGV, LK_ARGV]
    before = [run_cli(*argv) for argv in argvs]
    for (module, function), recompiled in same.items():
        monkeypatch.setattr(module, function, recompiled)
    assert [run_cli(*argv) for argv in argvs] == before
    assert [code for code, _ in before] == [0, 0, 0]


def test_no_two_rows_make_the_same_mutant() -> None:
    assert len({row.name for row in ROWS}) == len(ROWS)
    assert len({(row.function, row.token, row.replacement) for row in ROWS}) == len(ROWS)


@pytest.mark.parametrize("row", MUTANTS, ids=[row.name for row in MUTANTS])
def test_verifier_mutant_is_caught(monkeypatch, row: Row) -> None:
    monkeypatch.setattr(row.module, row.function, mutant(row))
    code, reports = run_verify(LEMMAS_ARGV)
    assert code == 1
    failed = [report for report in reports if not report["pass"]]
    caught = {(report["check"], report["params"]["clause"].partition("[")[0]) for report in failed}
    assert caught == row.pairs
    for report in failed:
        assert report["first_mismatch"]["degree"] <= 20


@pytest.mark.parametrize("argv, row", ENGINE_MUTANTS, ids=[row.name for _, row in ENGINE_MUTANTS])
def test_engine_mutant_is_caught(monkeypatch, argv: list[str], row: Row) -> None:
    monkeypatch.setattr(hilbert, row.function, mutant(row))
    code, [record] = run_verify(argv)
    assert code == 1
    assert record["engines_agree"] is False
    assert record["hp_brute"]["coeffs"] != record["hp_split"]["coeffs"]


@pytest.mark.parametrize("row", DIVISION_MUTANTS, ids=[row.name for row in DIVISION_MUTANTS])
def test_cascade_mutant_fails_exact_division(monkeypatch, capsys, row: Row) -> None:
    monkeypatch.setattr(row.module, row.function, mutant(row))
    with pytest.raises(NonDivisible):
        recursion.c_series(3, 5, 20)
    capsys.readouterr()
    code, _ = run_verify(LEMMAS_ARGV)
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("arithmetic error:") and err.count("\n") == 1


# The (check, clause) pairs of LEMMAS_ARGV that no committed mutant fails, and why.
UNREACHED = {
    # M and N share one coeff_table step, and the pivot changes no valuation,
    # so no one-token mutant fails N's vanishing entries while M's pass
    ("limits", "n_entry_vanishes"),
    # it runs only after both gap comparisons passed, and equality through n
    # is transitive: kept as a clause all the same
    ("main", "product_vs_quotient"),
}


def lemma_ledger() -> list[dict]:
    """Each report of LEMMAS_ARGV in order: check, params, clause labels and series calls."""
    ledger: list[dict] = []
    calls: list[list] = []
    run_clauses = recursion._run_clauses

    def recording(name: str):
        function = getattr(recursion, name)

        def record(*args, **kwargs):
            calls.append([name, *args])
            return function(*args, **kwargs)

        return record

    def report(check, params, n, clauses):
        labels = [label for label, _, _ in clauses]
        ledger.append({"check": check, "params": dict(params), "clauses": labels, "calls": calls[:]})
        calls.clear()
        return run_clauses(check, params, n, clauses)

    with pytest.MonkeyPatch.context() as patch:
        for name in ("c_series", "hp_notation"):
            patch.setattr(recursion, name, recording(name))
        patch.setattr(recursion, "_run_clauses", report)
        assert run_verify(LEMMAS_ARGV)[0] == 0
    assert not calls
    return ledger


def test_lemma_run_matches_its_ledger() -> None:
    recorded = json.loads(LEDGER.read_text())
    fresh = lemma_ledger()
    for index, (old, new) in enumerate(zip(recorded, fresh)):
        assert new == old, f"report {index}: {old['check']} {old['params']}"
    assert len(fresh) == len(recorded)


def test_every_clause_but_the_unreached_has_a_mutant() -> None:
    catalog = {
        (report["check"], label.partition("[")[0])
        for report in json.loads(LEDGER.read_text())
        for label in report["clauses"]
    }
    reached = set().union(*(row.pairs for row in MUTANTS))
    assert reached <= catalog
    assert catalog - reached == UNREACHED


if __name__ == "__main__":
    LEDGER.write_text("[\n" + ",\n".join(json.dumps(report) for report in lemma_ledger()) + "\n]\n")
