from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gga_verify.errors import DegreeBeyondTruncation
from gga_verify.monomial import (
    UNIT,
    Monomial,
    MonomialIdeal,
    add_var,
    colon_var,
    minimalize,
    standard_count,
)
from oracles import (
    classical_partition_count,
    div_var,
    enumerate_partitions,
    monomial_from_parts,
    mul_var,
    standard_monomials,
)


def m(**exps: int) -> Monomial:
    """Shorthand: m(x1=2, x3=1) -> x1^2*x3."""
    return Monomial.make({int(name[1:]): e for name, e in exps.items()})


def _random_monomial(rng: random.Random, max_var: int = 6, max_exp: int = 3) -> Monomial:
    exps = {}
    for var in range(1, max_var + 1):
        if rng.random() < 0.4:
            exps[var] = rng.randint(1, max_exp)
    return Monomial.make(exps)


def test_weight() -> None:
    assert m(x1=1, x2=2).weight == 5
    assert UNIT.weight == 0
    assert m(x7=1).weight == 7


def test_make_drops_zero_exponents() -> None:
    assert Monomial.make({3: 0, 5: 1}) == m(x5=1)
    assert Monomial.make({2: 0}) == UNIT


def test_from_parts() -> None:
    assert monomial_from_parts([3, 3, 1]) == m(x1=1, x3=2)
    assert monomial_from_parts([]) == UNIT


def test_divides() -> None:
    assert m(x1=1).divides(m(x1=2))
    assert not m(x2=1).divides(m(x1=3))
    assert UNIT.divides(m(x4=5))
    assert m(x1=1, x3=2).divides(m(x1=1, x2=4, x3=2))
    assert not m(x1=2, x3=2).divides(m(x1=1, x3=5))


def test_text_form() -> None:
    assert str(m(x3=2, x5=1)) == "x3^2*x5"
    assert str(UNIT) == "1"


def test_minimalize() -> None:
    assert minimalize([m(x1=1), m(x1=2)]) == (m(x1=1),)
    incomparable = [m(x1=1, x2=1), m(x2=1, x3=1)]
    assert set(minimalize(incomparable)) == set(incomparable)
    assert minimalize([UNIT, m(x5=1)]) == (UNIT,)


def test_minimalize_idempotent_and_generation_preserving() -> None:
    rng = random.Random(11)
    for _ in range(20):
        gens = [_random_monomial(rng) for _ in range(rng.randint(1, 7))]
        reduced = minimalize(gens)
        assert minimalize(reduced) == reduced
        ideal_before = MonomialIdeal(tuple(minimalize(gens)), 1, 30)
        for _ in range(25):
            probe = _random_monomial(rng)
            before = any(g.divides(probe) for g in gens)
            after = ideal_before.contains(probe)
            assert before == after


def test_ideal_build_truncates_and_minimalizes() -> None:
    ideal = MonomialIdeal.build([m(x1=2), m(x1=3), m(x9=2)], 1, 10)
    assert ideal.gens == (m(x1=2),)  # x9^2 weighs 18 > 10, x1^3 is redundant
    assert ideal.trunc == 10


def test_ideal_build_rejects_low_variables() -> None:
    with pytest.raises(ValueError):
        MonomialIdeal.build([m(x1=1)], 3, 10)


def test_colon_var_examples() -> None:
    base = MonomialIdeal.build([m(x1=2)], 1, 10)
    assert colon_var(base, 1).gens == (m(x1=1),)
    untouched = MonomialIdeal.build([m(x2=1)], 1, 10)
    assert colon_var(untouched, 1).gens == (m(x2=1),)
    mixed = MonomialIdeal.build([m(x1=1, x2=1), m(x2=3)], 1, 10)
    assert set(colon_var(mixed, 2).gens) == {m(x1=1), m(x2=2)}


def test_colon_var_is_membership_quotient() -> None:
    # g in (I : x_k)  <=>  x_k * g in I, over all monomials of weight <= 8
    rng = random.Random(5)
    probes = [
        monomial_from_parts(p.parts)
        for w in range(9)
        for p in enumerate_partitions(w)
    ]
    for _ in range(15):
        gens = [_random_monomial(rng, max_var=4) for _ in range(rng.randint(1, 5))]
        ideal = MonomialIdeal.build(gens, 1, 20)
        var = rng.randint(1, 4)
        quotient = colon_var(ideal, var)
        for g in probes:
            assert quotient.contains(g) == ideal.contains(mul_var(g, var))


def test_add_var_examples() -> None:
    assert add_var(MonomialIdeal.build([m(x1=2)], 1, 10), 1).gens == (m(x1=1),)
    two = add_var(MonomialIdeal.build([m(x2=1, x3=1)], 1, 10), 1)
    assert set(two.gens) == {m(x1=1), m(x2=1, x3=1)}
    unit = MonomialIdeal.build([UNIT], 1, 10)
    assert add_var(unit, 2) == unit
    assert colon_var(unit, 2) == unit


def test_standard_count_examples() -> None:
    zero_ideal = MonomialIdeal.build([], 1, 10)
    assert standard_count(zero_ideal, 4) == 5  # p(4)

    # quotient by (x_1): monomials avoiding x_1 = partitions with parts >= 2
    no_x1 = MonomialIdeal.build([m(x1=1)], 1, 10)
    expected = sum(1 for _ in enumerate_partitions(3, 2))
    assert standard_count(no_x1, 3) == expected == 1

    unit = MonomialIdeal.build([UNIT], 1, 10)
    assert standard_count(unit, 0) == 0
    assert standard_count(zero_ideal, 0) == 1


def test_standard_count_degree_guard() -> None:
    ideal = MonomialIdeal.build([], 1, 5)
    with pytest.raises(DegreeBeyondTruncation):
        standard_count(ideal, 6)


def test_standard_count_free_quotient_is_partition_count() -> None:
    ideal = MonomialIdeal.build([], 1, 12)
    for j in range(13):
        assert standard_count(ideal, j) == classical_partition_count(j)


def test_standard_count_monotone_under_adding_generators() -> None:
    rng = random.Random(17)
    for _ in range(10):
        gens = [_random_monomial(rng, max_var=5) for _ in range(rng.randint(0, 4))]
        ideal = MonomialIdeal.build(gens, 1, 12)
        extra = _random_monomial(rng, max_var=5)
        bigger = MonomialIdeal.build(list(ideal.gens) + [extra], 1, 12)
        for j in range(13):
            assert standard_count(bigger, j) <= standard_count(ideal, j)


def test_graded_decomposition() -> None:
    ideal = MonomialIdeal.build([m(x1=2), m(x2=1, x3=1)], 1, 9)
    total = sum(standard_count(ideal, j) for j in range(10))
    direct = sum(1 for j in range(10) for _ in standard_monomials(ideal, j))
    assert total == direct


@st.composite
def ideals(draw, max_trunc: int, span: int) -> MonomialIdeal:
    """A canonical ideal on the span variables from a drawn min_var up.

    Every drawn generator is a non-unit, and the truncation is at least half
    of max_trunc, so few draws collapse to the zero or the unit ideal.
    """
    min_var = draw(st.integers(1, 2))
    variables = st.integers(min_var, min_var + span - 1)
    exps = st.dictionaries(variables, st.integers(1, 3), min_size=1, max_size=3)
    gens = [Monomial.make(e) for e in draw(st.lists(exps, min_size=1, max_size=6))]
    return MonomialIdeal.build(gens, min_var, draw(st.integers(max_trunc // 2, max_trunc)))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(ideals(max_trunc=14, span=6))
def test_walk_counts_match_the_filter_oracle(ideal: MonomialIdeal) -> None:
    for weight in range(ideal.trunc + 1):
        expected = sum(1 for _ in standard_monomials(ideal, weight))
        assert standard_count(ideal, weight) == expected


@settings(derandomize=True, max_examples=60, deadline=None)
@given(ideals(max_trunc=20, span=4))
def test_colon_and_add_equal_a_fresh_build(ideal: MonomialIdeal) -> None:
    # every variable up to one that weighs more than the truncation
    for var in range(ideal.min_var, ideal.trunc + 2):
        divided = [div_var(g, var) if g.exponent(var) else g for g in ideal.gens]
        assert colon_var(ideal, var) == MonomialIdeal.build(divided, ideal.min_var, ideal.trunc)
        enlarged = list(ideal.gens) + [Monomial.make({var: 1})]
        assert add_var(ideal, var) == MonomialIdeal.build(enlarged, ideal.min_var, ideal.trunc)
