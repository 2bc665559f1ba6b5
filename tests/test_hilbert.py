from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gga_verify.context import RunContext
from gga_verify.errors import ParamOutOfRange
from gga_verify.hilbert import (
    build_L_k,
    build_L_k_ell,
    build_L_riJ,
    hp_brute,
    hp_notation,
    hp_split,
)
from gga_verify.monomial import Monomial, MonomialIdeal, add_var, colon_var, minimalize
from gga_verify.partitions import count_E, series_E
from gga_verify.qseries import eq_up_to, product_geometric_inverses, series_one

from oracles import classical_partition_count

GOLDEN = Path(__file__).parent / "golden"


def _transcribed_boundary_ideal(r: int, i: int, J: int, n: int) -> set[str]:
    """Second, deliberately literal transcription of the boundary ideal.

    Loops over the display's letters a, b, c, n1, n2 with their inequalities
    spelled out, then reduces with a local quadratic minimalizer.  Shares no
    code with the package builder.
    """
    gens: set[tuple[tuple[int, int], ...]] = set()

    def put(exps: dict[int, int]) -> None:
        clean = tuple(sorted((v, e) for v, e in exps.items() if e > 0))
        if sum(v * e for v, e in clean) <= n:
            gens.add(clean)

    put({2 * J + 1: 2})
    put({2 * J + 1: 1, 2 * J + 2: i - 1})
    put({2 * J + 2: i})
    for a in range(1, n):
        if 2 * a - 1 >= 2 * J + 2:
            put({2 * a - 1: 2})
    for b in range(1, n):
        if 2 * b - 1 >= 2 * J + 2:
            put({2 * b - 1: 1, 2 * b: r - 1})
    for c in range(1, n):
        if 2 * c >= 2 * J + 2:
            for n1 in range(r):
                put({2 * c: r - n1, 2 * c + 2: n1})
            for n2 in range(r - 1):
                put({2 * c: r - n2 - 1, 2 * c + 1: 1, 2 * c + 2: n2})

    def divides(lhs: tuple, rhs: tuple) -> bool:
        have = dict(rhs)
        return all(have.get(v, 0) >= e for v, e in lhs)

    minimal = {
        g for g in gens if not any(h != g and divides(h, g) for h in gens)
    }
    return {str(Monomial.make(dict(g))) for g in minimal}


def test_build_L_riJ_matches_independent_transcription() -> None:
    for r, i, J, n in [(2, 2, 0, 8), (2, 1, 0, 12), (3, 2, 1, 16), (4, 4, 0, 14)]:
        ideal = build_L_riJ(r, i, J, n)
        assert {str(g) for g in ideal.gens} == _transcribed_boundary_ideal(r, i, J, n)
        assert ideal.min_var == 2 * J + 1


def test_build_L_riJ_golden_r2_i2_J0() -> None:
    data = json.loads((GOLDEN / "ideal_LriJ_r2_i2_J0_N8.json").read_text())
    ideal = build_L_riJ(2, 2, 0, 8)
    assert [str(g) for g in ideal.gens] == data["generators"]
    hp = hp_brute(ideal)
    assert [str(c) for c in hp.coeffs] == data["hp"]


def test_build_L_riJ_exponent_zero_degeneration_at_i1() -> None:
    ideal = build_L_riJ(2, 1, 1, 12)
    gens = {str(g) for g in ideal.gens}
    assert "x3" in gens          # x_{2J+1} * x_{2J+2}^0 collapses to x_{2J+1}
    assert "x3^2" not in gens    # and subsumes the square


def test_builders_respect_weight_truncation() -> None:
    for ideal in [
        build_L_riJ(3, 2, 1, 17),
        build_L_k(4, 3, 17),
        build_L_k_ell(3, 2, 4, 17),
    ]:
        assert all(g.weight <= 17 for g in ideal.gens)


def test_build_L_k_contains_pure_power_at_n1_zero() -> None:
    ideal = build_L_k(4, 3, 20)
    assert Monomial.make({4: 3}) in set(ideal.gens)  # x_{2c}^r at n1 = 0
    assert ideal.min_var == 4


def test_build_L_k_odd_even_anchors() -> None:
    odd_anchor = build_L_k(3, 2, 12)
    even_anchor = build_L_k(4, 2, 12)
    assert Monomial.make({3: 2}) in set(odd_anchor.gens)
    assert all(g.exps[0][0] >= 4 for g in even_anchor.gens)


def test_build_L_k_relates_to_boundary_ideal() -> None:
    # adjoining the three boundary generators to the anchored family ideal
    # and minimalizing reproduces the boundary ideal
    r, i, J, n = 3, 2, 1, 20
    family = build_L_k(2 * J + 2, r, n)
    boundary = [
        Monomial.make({2 * J + 1: 2}),
        Monomial.make({2 * J + 1: 1, 2 * J + 2: i - 1}),
        Monomial.make({2 * J + 2: i}),
    ]
    combined = minimalize(boundary + list(family.gens))
    assert set(combined) == set(build_L_riJ(r, i, J, n).gens)


def test_build_L_k_ell_equals_boundary_ideal() -> None:
    for r, i, J, n in [(2, 1, 0, 14), (2, 2, 0, 14), (3, 2, 1, 18), (4, 3, 2, 20)]:
        via_ell = build_L_k_ell(2 * J + 1, i, r, n)
        direct = build_L_riJ(r, i, J, n)
        assert via_ell.gens == direct.gens


def test_build_L_k_ell_even_degenerate_ell_one() -> None:
    ideal = build_L_k_ell(2, 1, 3, 15)
    gens = set(ideal.gens)
    assert Monomial.make({2: 1}) in gens
    # HP equals the plain family quotient one variable up
    lhs = hp_split(ideal)
    rhs = hp_notation(3, None, 3, 15)
    assert eq_up_to(lhs, rhs, 15)[0]


def test_param_validation() -> None:
    with pytest.raises(ParamOutOfRange):
        build_L_riJ(1, 1, 0, 10)
    with pytest.raises(ParamOutOfRange):
        build_L_riJ(2, 3, 0, 10)
    with pytest.raises(ParamOutOfRange):
        build_L_k_ell(2, 4, 3, 10)
    with pytest.raises(ParamOutOfRange):
        hp_notation(3, 5, 2, 10)


def test_hp_brute_free_quotient_counts_partitions() -> None:
    free = MonomialIdeal.build([], 1, 12)
    hp = hp_brute(free)
    for j in range(13):
        assert hp[j] == classical_partition_count(j)


def test_hp_brute_single_square() -> None:
    ideal = MonomialIdeal.build([Monomial.make({1: 2})], 1, 2)
    assert hp_brute(ideal).coeffs == (1, 1, 1)


def test_hp_brute_unit_ideal_is_zero_series() -> None:
    unit = MonomialIdeal.build([Monomial.make({})], 1, 6)
    assert hp_brute(unit).coeffs == (0,) * 7
    assert hp_split(unit).coeffs == (0,) * 7


def test_hp_split_free_quotient_is_geometric_product() -> None:
    for min_var in (1, 3):
        free = MonomialIdeal.build([], min_var, 14)
        expected = product_geometric_inverses(range(min_var, 15), 14)
        assert hp_split(free).coeffs == expected.coeffs


def test_hp_split_single_square_against_brute() -> None:
    ideal = MonomialIdeal.build([Monomial.make({1: 2})], 1, 12)
    assert hp_split(ideal).coeffs == hp_brute(ideal).coeffs


def _random_ideal(rng: random.Random, trunc: int) -> MonomialIdeal:
    gens = []
    for _ in range(rng.randint(1, 6)):
        exps = {}
        for var in range(1, 9):
            if rng.random() < 0.3:
                exps[var] = rng.randint(1, 3)
        gens.append(Monomial.make(exps))
    return MonomialIdeal.build(gens, 1, trunc)


def test_engine_equivalence_on_random_ideals() -> None:
    rng = random.Random(2025)
    for _ in range(20):
        ideal = _random_ideal(rng, 25)
        ok, mismatch = eq_up_to(hp_brute(ideal), hp_split(ideal), 25)
        assert ok, (str(ideal), mismatch)


@st.composite
def ideals(draw) -> MonomialIdeal:
    """An ideal of non-unit generators on six variables from min_var up."""
    min_var = draw(st.integers(1, 3))
    exps = st.dictionaries(st.integers(min_var, min_var + 5), st.integers(1, 3), min_size=1, max_size=3)
    gens = [Monomial.make(e) for e in draw(st.lists(exps, min_size=1, max_size=8))]
    return MonomialIdeal.build(gens, min_var, draw(st.integers(12, 24)))


@settings(derandomize=True, max_examples=50, deadline=None)
@given(ideals())
def test_engines_agree_on_generated_ideals(ideal: MonomialIdeal) -> None:
    assert hp_split(ideal) == hp_brute(ideal), str(ideal)


@pytest.fixture(scope="module")
def shared_ctx() -> RunContext:
    return RunContext()


@settings(derandomize=True, max_examples=50, deadline=None)
@given(ideal=ideals())
def test_engines_agree_on_generated_ideals_with_one_shared_context(
    shared_ctx: RunContext, ideal: MonomialIdeal
) -> None:
    # one splitting memo across unrelated ideals, rings and truncations
    assert hp_split(ideal, ctx=shared_ctx) == hp_brute(ideal), str(ideal)


def test_hp_split_reuses_pivot_free_series_across_budgets() -> None:
    # Every colon step on (x1^a, x2*x3) ends in the pivot-free quotients by
    # (x1, x2) and (x1, x3), one budget lower each step; one context spans
    # both truncations, so the kept series is sliced and then regrown.
    ctx = RunContext()
    for n in (24, 40):
        for a in (2, 9, n):
            gens = [Monomial.make({1: a}), Monomial.make({2: 1, 3: 1})]
            ideal = MonomialIdeal.build(gens, 1, n)
            assert hp_split(ideal, ctx=ctx) == hp_brute(ideal), (a, n)


def test_engines_run_deeper_than_the_recursion_limit() -> None:
    # The colon chain of (x1^300, x2, ..., x300) is about 300 splits deep,
    # and the walk reaches x1^300 in the quotient by (x2, ..., x300).
    n = 300
    killed = [Monomial.make({v: 1}) for v in range(2, n + 1)]
    chain = MonomialIdeal.build([Monomial.make({1: n})] + killed, 1, n)
    walk = MonomialIdeal.build(killed, 1, n)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        split = hp_split(chain)
        brute = hp_brute(walk)
    finally:
        sys.setrecursionlimit(limit)
    assert split.coeffs == (1,) * n + (0,)
    assert brute.coeffs == (1,) * (n + 1)


def test_engine_equivalence_on_family_ideals() -> None:
    for r, i, J in [(2, 1, 0), (2, 2, 1), (3, 3, 0), (3, 1, 2)]:
        ideal = build_L_riJ(r, i, J, 22)
        assert eq_up_to(hp_brute(ideal), hp_split(ideal), 22)[0]


def test_splitting_step_locally_checkable() -> None:
    # HP(I) = q^k HP(I : x_k) + HP(I + x_k) holds for the brute engine alone
    rng = random.Random(99)
    for _ in range(10):
        ideal = _random_ideal(rng, 18)
        if ideal.is_unit or not ideal.gens:
            continue
        pivot = min(v for g in ideal.gens for v, _ in g.exps)
        whole = hp_brute(ideal)
        low = hp_brute(colon_var(ideal, pivot))
        rest = hp_brute(add_var(ideal, pivot))
        assert whole.coeffs == (low.shift(pivot) + rest).coeffs


def test_hp_split_handles_killed_variables() -> None:
    # ideals with single-variable generators: the add branch is a fixed point
    # there, so the pivot rule must never select one of them
    ideal = MonomialIdeal.build(
        [Monomial.make({1: 1}), Monomial.make({2: 2}), Monomial.make({3: 1, 4: 1})], 1, 15
    )
    assert hp_split(ideal).coeffs == hp_brute(ideal).coeffs


def test_hp_split_terminates_on_dense_repeated_variables() -> None:
    gens = [
        Monomial.make({1: 5}),
        Monomial.make({1: 4, 2: 3}),
        Monomial.make({1: 2, 2: 2, 3: 2}),
        Monomial.make({2: 4, 4: 1}),
    ]
    ideal = MonomialIdeal.build(gens, 1, 20)
    assert hp_split(ideal).coeffs == hp_brute(ideal).coeffs


def test_partition_bridge() -> None:
    # coefficient j of the boundary quotient equals the gap-side count
    for r, i, J in [(2, 2, 0), (3, 1, 1), (3, 2, 2)]:
        hp = hp_brute(build_L_riJ(r, i, J, 18))
        for j in range(19):
            assert hp[j] == count_E(r, i, J, j)


def test_note_N1_through_N3() -> None:
    n = 18
    for r in (2, 3):
        for k in range(1, 8):
            lhs = hp_notation(k, 1, r, n)
            rhs = hp_notation(k + 1 if k % 2 == 0 else k + 2, None, r, n)
            assert eq_up_to(lhs, rhs, n)[0], ("N1", r, k)
            assert eq_up_to(hp_notation(k, r, r, n), hp_notation(k, None, r, n), n)[0], ("N2", r, k)
        for i in range(1, r + 1):
            for J in (0, 1):
                lhs = hp_brute(build_L_riJ(r, i, J, n))
                assert eq_up_to(lhs, hp_notation(2 * J + 1, i, r, n), n)[0], ("N3", r, i, J)


def test_hp_tail_growth() -> None:
    n = 20
    for r in (2, 3):
        for d in range(4):
            tail = hp_notation(2 * d + 3, None, r, n) - series_one(n)
            v = tail.valuation()
            assert v is not None and v >= 2 * d + 3


def test_hp_notation_coefficients_are_gap_counts() -> None:
    s = hp_notation(3, 2, 2, 16)
    expected = series_E(2, 2, 1, 16)
    assert eq_up_to(s, expected, 16)[0]


def test_truncation_monotonicity_of_engines() -> None:
    small = hp_split(build_L_riJ(2, 2, 0, 12))
    large = hp_split(build_L_riJ(2, 2, 0, 24))
    assert large.coeffs[:13] == small.coeffs
