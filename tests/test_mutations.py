"""Committed mutants: each one-token transcription bug must be caught.

A mutant replaces one token of a side's source, is compiled into that
side's module namespace, and is patched in where the verifiers bind it.
The verifier must then report a failure that names the expected clause
and a witness at a low degree, and the CLI must exit 1 (an identity
mismatched), never 3 or 4.  Besides the three sides, rows reach the final
division by theta(1, 4) that applies D to every product series, the
coefficient tables' identity entry and depth step, the ring start of the
splitting engine's add branch, its leaf series, combine, pivot offset and
colon kernel, the plain family's cap, and the literal level-zero oracle; each
of these names the exact set of (check, clause) pairs it fails.  The quotient
side's rows reach the family steps, the cap rule, the root head and the
splitting engine's lift, head copy, tail start, pivot and add branch.
A census maps every clause of the lemma run to the rows that fail it, and
only the clauses in `UNREACHED` have none.
Mutants of `hp_brute`'s order-ideal walk, and rows that break the implicit
family tail of `hp_notation`, make the two engines of `hilbert` disagree,
and the CLI exits 1.  A mutant that breaks the product-side
cascade's own exact division is caught before any identity is compared: it
raises `NonDivisible` and the CLI exits 3.  See
DeMillo, Lipton and Sayward, "Hints on test data selection", IEEE Computer
11(4), 1978.
"""

from __future__ import annotations

import inspect
import io
import json

import pytest

from gga_verify import cli, hilbert, partitions, recursion
from gga_verify.context import RunContext
from gga_verify.errors import NonDivisible

VERIFY_ARGV = ["verify", "--r", "2..4", "--i", "all", "--J", "0..1", "--N", "20"]
LEMMAS_ARGV = ["verify", "--lemmas", "--r", "2..4", "--i", "all", "--J", "0..1", "--N", "20"]
CELLS = [(r, i, J) for r in range(2, 5) for i in range(1, r + 1) for J in (0, 1)]

# (name, token in the source of partitions.series_E, its replacement, clause)
GAP_SIDE_MUTANTS = [
    ("i-1 cap dropped", "ends[cap + 1 - i]", "ends[0]", "product_vs_gap"),
    ("window cap r, not r-1", "cap, zero = r - 1,", "cap, zero = r,", "product_vs_gap"),
    ("odd part shifted by 2", ".shift(odd)", ".shift(odd + 2)", "product_vs_gap"),
    ("first pair skipped", "range(2 * J + 1,", "range(2 * J + 3,", "product_vs_gap"),
    ("odd part outside the window", "below[cap - b]", "below[cap + 1 - b]", "product_vs_gap"),
]

# (name, module the function is patched on, function in hilbert, token in its
#  source, its replacement)
QUOTIENT_SIDE_MUTANTS = [
    ("first staircase from s = 2", hilbert, "_step_gens", "range(1, cap)", "range(2, cap)"),
    ("second staircase one short", hilbert, "_step_gens", "range(cap - 1)", "range(cap - 2)"),
    ("cap ell at j = k only", hilbert, "_cap", "j - k <= k % 2", "j - k < k % 2"),
    ("lift counts a killed variable", hilbert, "_lift", "if v not in starts:", "if True:"),
    ("one step fewer copied into the head", hilbert, "_split", "range(s, p + 3)", "range(s, p + 2)"),
    ("tail starts one step late", hilbert, "_split", "), p + 3", "), p + 4"),
    ("pivot ignores the tail", hilbert, "_split", "else min(p, s)", "else p"),
    ("tail dropped while step s fits", hilbert, "_split", "2 * s > budget", "2 * s >= budget"),
    ("root head one step short", recursion, "hp_notation",
     "range(k, k + 3)", "range(k, k + 2)"),
    ("add branch starts one variable late", hilbert, "_split",
     "todo.append((p + 1,", "todo.append((p + 2,"),
]

# (name, module the function is patched on, function, token in its source, its replacement,
#  the (check, clause) pairs that fail on LEMMAS_ARGV, with any "[...]" suffix dropped)
VERIFIER_MUTANTS = [
    (
        "D multiplied, not divided", recursion, "_product_series",
        "div_sparse(top.truncated(n), triple_product_terms(1, 4, n))",
        "top.truncated(n) * sparse_series(triple_product_terms(1, 4, n), n)",
        {("main", "product_vs_gap"), ("limits", "product_tail_is_one")},
    ),
    (
        "M pivot one up", recursion, "coeff_table", "else r - anchor + 1", "else r - anchor + 2",
        {("mn_tables", "entry"), ("c_expansion", "expansion"),
         ("limits", "m_stabilizes_to_product")},
    ),
    (
        "pivot initial exponent one level up", recursion, "coeff_table",
        ".shift(2 * (d + 1) * (j - 1))", ".shift(2 * (d + 1) * j)",
        {("hp_expansion", "expansion"), ("c_expansion", "expansion"),
         ("limits", "m_stabilizes_to_product")},
    ),
    (
        "identity entry one slot up", recursion, "coeff_table",
        "row[r - pivot] =", "row[r - pivot - 1] =",
        {("hp_expansion", "expansion"), ("c_expansion", "expansion"),
         ("limits", "m_stabilizes_to_product")},
    ),
    (
        "added variable dropped", hilbert, "_split", "todo.append((p + 1,", "todo.append((p,",
        {("main", "quotient_vs_gap"), ("hp_step", "full_step"), ("hp_expansion", "expansion"),
         ("limits", "n_stabilizes_to_quotient")},
    ),
    (
        "leaf series all ones", hilbert, "_split",
        "_lift([1] + [0] * budget,", "_lift([1] * (budget + 1),",
        {("limits", "hp_tail_is_one"), ("main", "quotient_vs_gap")},
    ),
    (
        "colon keeps the pivot's power", hilbert, "_colon", "((var, e - 1),)", "((var, e),)",
        {("main", "quotient_vs_gap"), ("hp_step", "full_step"), ("hp_expansion", "expansion"),
         ("limits", "n_stabilizes_to_quotient")},
    ),
    (
        "colon budget on the undivided weight", hilbert, "_colon", "w - var <= trunc",
        "w <= trunc",
        {("main", "quotient_vs_gap"), ("hp_step", "full_step"), ("hp_expansion", "expansion"),
         ("limits", "n_stabilizes_to_quotient")},
    ),
    (
        "combine shifts by p + 1", hilbert, "_split", "low)", "[0, *low])",
        {("hp_expansion", "expansion"), ("hp_step", "full_step"),
         ("limits", "n_stabilizes_to_quotient"), ("main", "quotient_vs_gap")},
    ),
    (
        "pivot one variable up", hilbert, "_split",
        "p = v\n", "p = v + 1\n",
        {("hp_expansion", "expansion"), ("hp_step", "full_step"),
         ("limits", "n_stabilizes_to_quotient"), ("main", "quotient_vs_gap")},
    ),
    (
        "depth-step exponent one level down", recursion, "coeff_table",
        ".shift(2 * (d + 1) * (j - 1))", ".shift(2 * d * (j - 1))",
        {("c_expansion", "expansion"), ("hp_expansion", "expansion"),
         ("limits", "m_entry_vanishes")},
    ),
    (
        "root tail starts at k+4", recursion, "hp_notation", "r, k + 3)", "r, k + 4)",
        {("hp_expansion", "expansion"), ("hp_step", "even_cascade"), ("hp_step", "full_step"),
         ("hp_step", "odd_step"), ("limits", "n_stabilizes_to_quotient"),
         ("main", "quotient_vs_gap")},
    ),
    (
        "plain family capped at r - 1", recursion, "verify_hp_step",
        "hp(k + 2, r))", "hp(k + 2, r - 1))",
        {("hp_step", "odd_step_degenerate")},
    ),
    (
        "gap floor one up", partitions, "_level_zero_walk",
        ">= v - 2 + (v & 1)", ">= v - 1 + (v & 1)",
        {("main", "congruence_vs_gap_counts")},
    ),
    (
        "gap floor one down", partitions, "_level_zero_walk",
        ">= v - 2 + (v & 1)", ">= v - 3 + (v & 1)",
        {("main", "congruence_vs_gap_counts")},
    ),
    (
        "odd repeat allowed", partitions, "_level_zero_walk", "v & 1 and parts", "v & 0 and parts",
        {("main", "congruence_vs_gap_counts")},
    ),
    (
        "i cap one high", recursion, "series_D", "[:i]", "[: i + 1]",
        {("main", "congruence_vs_gap_counts")},
    ),
]


def mutant(function, token: str, replacement: str):
    """`function` recompiled in its own module's namespace with one token replaced."""
    source = inspect.getsource(function)
    assert source.count(token) == 1, token
    namespace = dict(vars(inspect.getmodule(function)))
    exec(source.replace(token, replacement), namespace)
    return namespace[function.__name__]


def run_verify(argv: list[str] = VERIFY_ARGV) -> tuple[int, list[dict]]:
    out = io.StringIO()
    code = cli.run(argv, stdout=out)
    return code, [json.loads(line) for line in out.getvalue().splitlines()]


def test_unmutated_source_recompiles_to_a_passing_gap_side(monkeypatch) -> None:
    # the harness alone changes nothing: the same source, recompiled, passes
    same = mutant(partitions.series_E, "return sum(ends, zero)", "return sum(ends, zero)")
    assert all(same(r, i, J, 20) == partitions.series_E(r, i, J, 20) for r, i, J in CELLS)
    monkeypatch.setattr(recursion, "series_E", same)
    code, reports = run_verify()
    assert code == 0 and len(reports) == len(CELLS)
    assert all(report["pass"] for report in reports)


@pytest.mark.parametrize(
    "token, replacement, clause",
    [m[1:] for m in GAP_SIDE_MUTANTS],
    ids=[m[0] for m in GAP_SIDE_MUTANTS],
)
def test_gap_side_mutant_is_caught(monkeypatch, token: str, replacement: str, clause: str) -> None:
    monkeypatch.setattr(recursion, "series_E", mutant(partitions.series_E, token, replacement))
    ctx = RunContext()
    failed = [
        report
        for report in (recursion.verify_main(r, i, J, 20, ctx=ctx) for r, i, J in CELLS)
        if not report.passed
    ]
    assert failed
    for report in failed:
        assert report.params["clause"] == clause
        assert report.first_mismatch.degree <= 20
    code, reports = run_verify()
    assert code == 1
    assert sum(not report["pass"] for report in reports) == len(failed)



@pytest.mark.parametrize(
    "module, name, token, replacement",
    [m[1:] for m in QUOTIENT_SIDE_MUTANTS],
    ids=[m[0] for m in QUOTIENT_SIDE_MUTANTS],
)
def test_quotient_side_mutant_is_caught(
    monkeypatch, module, name: str, token: str, replacement: str
) -> None:
    monkeypatch.setattr(module, name, mutant(getattr(hilbert, name), token, replacement))
    ctx = RunContext()
    failed = [
        report
        for report in (recursion.verify_main(r, i, J, 20, ctx=ctx) for r, i, J in CELLS)
        if not report.passed
    ]
    assert failed
    for report in failed:
        assert report.params["clause"] == "quotient_vs_gap"
        assert report.first_mismatch.degree <= 20
    code, reports = run_verify()
    assert code == 1
    assert sum(not report["pass"] for report in reports) == len(failed)


@pytest.mark.parametrize(
    "module, name, token, replacement, pairs",
    [m[1:] for m in VERIFIER_MUTANTS],
    ids=[m[0] for m in VERIFIER_MUTANTS],
)
def test_verifier_mutant_is_caught(
    monkeypatch, module, name: str, token: str, replacement: str, pairs: set
) -> None:
    monkeypatch.setattr(module, name, mutant(getattr(module, name), token, replacement))
    code, reports = run_verify(LEMMAS_ARGV)
    assert code == 1
    failed = [report for report in reports if not report["pass"]]
    caught = {(report["check"], report["params"]["clause"].partition("[")[0]) for report in failed}
    assert caught == pairs
    for report in failed:
        assert report["first_mismatch"]["degree"] <= 20


D_FACTOR_CLAUSES = {"main": "product_vs_gap", "limits": "product_tail_is_one"}


def test_product_side_d_factor_mutant_is_caught(monkeypatch) -> None:
    # theta(3, 4) is theta(1, 4) again, so the mutant changes the modulus
    swapped = mutant(
        recursion._product_series,
        "triple_product_terms(1, 4, n)",
        "triple_product_terms(1, 8, n)",
    )
    monkeypatch.setattr(recursion, "_product_series", swapped)
    code, reports = run_verify(LEMMAS_ARGV)
    assert code == 1
    failed = [report for report in reports if not report["pass"]]
    assert {report["check"] for report in failed} == set(D_FACTOR_CLAUSES)
    for report in failed:
        assert report["params"]["clause"] == D_FACTOR_CLAUSES[report["check"]]
        assert report["first_mismatch"]["degree"] <= 20


# The (check, clause) pairs of LEMMAS_ARGV that no committed mutant fails, and why.
UNREACHED = {
    # M and N share one coeff_table step, and the pivot changes no valuation,
    # so no one-token mutant fails N's vanishing entries while M's pass
    ("limits", "n_entry_vanishes"),
    # it runs only after both gap comparisons passed, and equality through n
    # is transitive: kept as a clause all the same
    ("main", "product_vs_quotient"),
}


def test_every_clause_but_the_unreached_has_a_mutant(monkeypatch) -> None:
    catalog: set[tuple[str, str]] = set()
    run_clauses = recursion._run_clauses

    def record(check, params, n, clauses):
        catalog.update((check, label.partition("[")[0]) for label, _, _ in clauses)
        return run_clauses(check, params, n, clauses)

    monkeypatch.setattr(recursion, "_run_clauses", record)
    assert run_verify(LEMMAS_ARGV)[0] == 0
    reached = {("main", m[-1]) for m in GAP_SIDE_MUTANTS}
    reached |= {("main", "quotient_vs_gap")} if QUOTIENT_SIDE_MUTANTS else set()
    reached |= set().union(*(m[-1] for m in VERIFIER_MUTANTS))
    reached |= set(D_FACTOR_CLAUSES.items())
    assert reached <= catalog
    assert catalog - reached == UNREACHED


# (name, function in recursion, token in its source, its replacement): each
# breaks an exact division of the product-side cascade
CASCADE_MUTANTS = [
    ("difference divided one power too far", "_product_series",
     "div_q_pow(w - 1)", "div_q_pow(w)"),
    ("chained term divided by q twice", "_product_series", ".div_q_pow(1)", ".div_q_pow(2)"),
    ("second operand one entry up", "_cascade", "row[r - i + 1]", "row[r - i + 2 - (i == 2)]"),
    ("level start one entry down", "_cascade", "new = [row[r - 1]]", "new = [row[r - 2]]"),
]


@pytest.mark.parametrize(
    "name, token, replacement",
    [m[1:] for m in CASCADE_MUTANTS],
    ids=[m[0] for m in CASCADE_MUTANTS],
)
def test_cascade_chained_power_mutant_fails_exact_division(
    monkeypatch, capsys, name: str, token: str, replacement: str
) -> None:
    monkeypatch.setattr(recursion, name, mutant(getattr(recursion, name), token, replacement))
    with pytest.raises(NonDivisible):
        recursion.c_series(3, 5, 20)
    capsys.readouterr()
    code, _ = run_verify(LEMMAS_ARGV)
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("arithmetic error:") and err.count("\n") == 1


HILBERT_ARGV = ["hilbert", "--family", "LriJ", "--r", "3", "--i", "2", "--N", "20"]

# (name, token in the source of monomial._standard_counts, its replacement):
# each breaks hp_brute's order-ideal walk, so the two quotient engines disagree
BRUTE_WALK_MUTANTS = [
    ("generator met one power late", "if exps[u] < e:", "if exps[u] <= e:"),
    (
        "generators looked up one variable down",
        "ending_at.get((v, exps[v]), ())",
        "ending_at.get((v - 1, exps[v]), ())",
    ),
    ("last power looked up one early", "(v, exps[v])", "(v, exps[v] - 1)"),
]


@pytest.mark.parametrize(
    "token, replacement",
    [m[1:] for m in BRUTE_WALK_MUTANTS],
    ids=[m[0] for m in BRUTE_WALK_MUTANTS],
)
def test_brute_walk_mutant_is_caught(monkeypatch, token: str, replacement: str) -> None:
    walk = mutant(hilbert._standard_counts, token, replacement)
    monkeypatch.setattr(hilbert, "_standard_counts", walk)
    code, [record] = run_verify(HILBERT_ARGV)
    assert code == 1
    assert record["engines_agree"] is False
    assert record["hp_brute"]["coeffs"] != record["hp_split"]["coeffs"]


# (argv, name of a QUOTIENT_SIDE_MUTANTS or VERIFIER_MUTANTS row): hilbert runs
# hp_notation with its implicit tail, so each row makes the two engines disagree
HILBERT_TAIL_MUTANTS = [
    (HILBERT_ARGV, "one step fewer copied into the head"),
    (HILBERT_ARGV, "tail starts one step late"),
    (HILBERT_ARGV, "tail dropped while step s fits"),
    (HILBERT_ARGV, "root tail starts at k+4"),
    (["hilbert", "--family", "Lk", "--k", "3", "--r", "3", "--N", "20"],
     "root head one step short"),
]
MUTANT_ROWS = {m[0]: m[2:5] for m in QUOTIENT_SIDE_MUTANTS + VERIFIER_MUTANTS}


@pytest.mark.parametrize(
    "argv, row", HILBERT_TAIL_MUTANTS, ids=[m[1] for m in HILBERT_TAIL_MUTANTS]
)
def test_hilbert_tail_mutant_is_caught(monkeypatch, argv: list[str], row: str) -> None:
    name, token, replacement = MUTANT_ROWS[row]
    monkeypatch.setattr(hilbert, name, mutant(getattr(hilbert, name), token, replacement))
    code, [record] = run_verify(argv)
    assert code == 1
    assert record["engines_agree"] is False
