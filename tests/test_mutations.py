"""Committed mutants: each one-token transcription bug must be caught.

A mutant replaces one token of a side's source, is compiled into that
side's module namespace, and is patched in where the verifiers bind it.
The verifier must then report a failure that names the expected clause
and a witness at a low degree, and the CLI must exit 1 (an identity
mismatched), never 3 or 4.  Besides the three sides, rows reach the final
division by theta(1, 4) that applies D to every product series, the
coefficient tables' initial conditions, and the literal level-zero oracle;
each of these names the exact set of (check, clause) pairs it fails.  The
quotient side's rows reach the family steps, the cap rule and the splitting
engine's lift, head copy, tail start and pivot.  A mutant that
breaks the product-side cascade's own exact division is caught before any
identity is compared: it raises `NonDivisible` and the CLI exits 3.  See
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
    ("root tail starts at k+4", recursion, "hp_notation", "r, k + 3)", "r, k + 4)"),
]

# (name, module the function is patched on, function, token in its source, its replacement,
#  the (check, clause) pairs that fail on LEMMAS_ARGV, clause indices dropped)
VERIFIER_MUTANTS = [
    (
        "D multiplied, not divided", recursion, "_product_series", "div_sparse(", "mul_sparse(",
        {("main", "product_vs_gap"), ("limits", "product_tail_is_one")},
    ),
    (
        "M pivot one up", recursion, "coeff_table", "else r - anchor + 1", "else r - anchor + 2",
        {("mn_tables", "entry"), ("c_expansion", "expansion"),
         ("limits", "m_stabilizes_to_product")},
    ),
    (
        "pivot initial exponent one level up", recursion, "coeff_table",
        "= q_power(2 * d0 * (j - 1), n)", "= q_power(2 * d0 * j, n)",
        {("hp_expansion", "expansion"), ("c_expansion", "expansion"),
         ("limits", "m_stabilizes_to_product")},
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
    clauses = {"main": "product_vs_gap", "limits": "product_tail_is_one"}
    failed = [report for report in reports if not report["pass"]]
    assert {report["check"] for report in failed} == set(clauses)
    for report in failed:
        assert report["params"]["clause"] == clauses[report["check"]]
        assert report["first_mismatch"]["degree"] <= 20


def test_cascade_chained_power_mutant_fails_exact_division(monkeypatch, capsys) -> None:
    monkeypatch.setattr(
        recursion,
        "_product_series",
        mutant(recursion._product_series, "mul_q_pow(w - 1)", "mul_q_pow(w)"),
    )
    with pytest.raises(NonDivisible):
        recursion.c_series(2, 3, 20)
    capsys.readouterr()
    code, _ = run_verify(LEMMAS_ARGV)
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("arithmetic error:") and err.count("\n") == 1
