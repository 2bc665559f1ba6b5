from __future__ import annotations

import random
from typing import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gga_verify.errors import TruncationTooShort
from gga_verify.monomial import (
    Monomial,
    MonomialIdeal,
    _colon,
    _divides,
    _standard_counts,
    add_var,
    colon_var,
    minimalize,
    standard_count,
)
from oracles import (
    classical_partition_count,
    contains,
    descending_partitions,
    divides,
    make_monomial,
    monomial_from_parts,
    mul_var,
    standard_monomials,
)


UNIT = make_monomial({})


def m(**exps: int) -> Monomial:
    """Shorthand: m(x1=2, x3=1) -> x1^2*x3."""
    return make_monomial({int(name[1:]): e for name, e in exps.items()})


def _random_monomial(rng: random.Random, max_var: int = 6, max_exp: int = 3) -> Monomial:
    exps = {}
    for var in range(1, max_var + 1):
        if rng.random() < 0.4:
            exps[var] = rng.randint(1, max_exp)
    return make_monomial(exps)


def test_weight() -> None:
    assert m(x1=1, x2=2).weight == 5
    assert UNIT.weight == 0
    assert m(x7=1).weight == 7


def test_make_drops_zero_exponents() -> None:
    assert make_monomial({3: 0, 5: 1}) == m(x5=1)
    assert make_monomial({2: 0}) == UNIT
    with pytest.raises(ValueError, match="variable index 0"):
        make_monomial({0: 1})
    with pytest.raises(ValueError, match="negative exponent"):
        make_monomial({2: -1})


def test_from_parts() -> None:
    assert monomial_from_parts([3, 3, 1]) == m(x1=1, x3=2)
    assert monomial_from_parts([]) == UNIT


def test_divides() -> None:
    # the oracle on exponent dicts and the kernel on exponent tuples
    for small, big, expected in [
        (m(x1=1), m(x1=2), True),
        (m(x2=1), m(x1=3), False),
        (UNIT, m(x4=5), True),
        (m(x1=1, x3=2), m(x1=1, x2=4, x3=2), True),
        (m(x1=2, x3=2), m(x1=1, x3=5), False),
    ]:
        assert divides(small, big) == expected
        assert _divides(small.exps, big.exps) == expected


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
            before = any(divides(g, probe) for g in gens)
            after = contains(ideal_before, probe)
            assert before == after


def test_ideal_build_truncates_and_minimalizes() -> None:
    ideal = MonomialIdeal.build([m(x1=2), m(x1=3), m(x9=2)], 1, 10)
    assert ideal.gens == (m(x1=2),)  # x9^2 weighs 18 > 10, x1^3 is redundant
    assert ideal.trunc == 10


def test_ideal_build_is_a_classmethod() -> None:
    # bench/tracer.py rewraps MonomialIdeal.build through the class __dict__
    assert isinstance(MonomialIdeal.__dict__["build"], classmethod)
    assert MonomialIdeal.build([m(x2=1)], 1, 5) == MonomialIdeal((m(x2=1),), 1, 5)


def test_ideal_build_rejects_low_variables() -> None:
    with pytest.raises(ValueError):
        MonomialIdeal.build([m(x1=1)], 3, 10)


def test_ideal_build_rejects_a_wrong_stored_weight() -> None:
    # x1^2 stored with weight 1: hp_split would return a wrong series for it
    with pytest.raises(ValueError, match="stores weight 1"):
        MonomialIdeal.build([Monomial(1, ((1, 2),))], 1, 10)


def test_colon_var_examples() -> None:
    base = MonomialIdeal.build([m(x1=2)], 1, 10)
    assert colon_var(base, 1).gens == (m(x1=1),)
    untouched = MonomialIdeal.build([m(x2=1)], 1, 10)
    assert colon_var(untouched, 1).gens == (m(x2=1),)
    mixed = MonomialIdeal.build([m(x1=1, x2=1), m(x2=3)], 1, 10)
    assert set(colon_var(mixed, 2).gens) == {m(x1=1), m(x2=2)}


def _membership_cases() -> Iterator[tuple[MonomialIdeal, int, list[Monomial]]]:
    """15 seeded ideals, each with a variable and every monomial of weight <= 8."""
    rng = random.Random(5)
    probes = [monomial_from_parts(p) for w in range(9) for p in descending_partitions(w)]
    for _ in range(15):
        gens = [_random_monomial(rng, max_var=4) for _ in range(rng.randint(1, 5))]
        yield MonomialIdeal.build(gens, 1, 20), rng.randint(1, 4), probes


def test_colon_var_is_membership_quotient() -> None:
    # g in (I : x_k)  <=>  x_k * g in I
    for ideal, var, probes in _membership_cases():
        quotient = colon_var(ideal, var)
        for g in probes:
            assert contains(quotient, g) == contains(ideal, mul_var(g, var))


def test_add_var_is_membership_sum() -> None:
    # g in I + (x_k)  <=>  g in I or x_k divides g
    for ideal, var, probes in _membership_cases():
        enlarged = add_var(ideal, var)
        for g in probes:
            assert contains(enlarged, g) == (contains(ideal, g) or var in dict(g.exps))


def test_add_var_examples() -> None:
    assert add_var(MonomialIdeal.build([m(x1=2)], 1, 10), 1).gens == (m(x1=1),)
    two = add_var(MonomialIdeal.build([m(x2=1, x3=1)], 1, 10), 1)
    assert set(two.gens) == {m(x1=1), m(x2=1, x3=1)}
    unit = MonomialIdeal.build([UNIT], 1, 10)
    assert add_var(unit, 2) == unit
    assert colon_var(unit, 2) == unit
    above = MonomialIdeal.build([m(x1=2)], 1, 3)
    assert add_var(above, 5) == above  # x5 weighs more than the truncation
    present = MonomialIdeal.build([m(x2=1)], 1, 10)
    assert add_var(present, 2) == present


def test_standard_count_examples() -> None:
    zero_ideal = MonomialIdeal.build([], 1, 10)
    assert standard_count(zero_ideal, 4) == 5  # p(4)

    # quotient by (x_1): monomials avoiding x_1 = partitions with parts >= 2
    no_x1 = MonomialIdeal.build([m(x1=1)], 1, 10)
    expected = sum(1 for _ in descending_partitions(3, 2))
    assert standard_count(no_x1, 3) == expected == 1

    unit = MonomialIdeal.build([UNIT], 1, 10)
    assert standard_count(unit, 0) == 0
    assert standard_count(zero_ideal, 0) == 1


def test_standard_count_degree_guard() -> None:
    ideal = MonomialIdeal.build([], 1, 5)
    with pytest.raises(TruncationTooShort):
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
    gens = [make_monomial(e) for e in draw(st.lists(exps, min_size=1, max_size=6))]
    return MonomialIdeal.build(gens, min_var, draw(st.integers(max_trunc // 2, max_trunc)))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(ideals(max_trunc=14, span=6))
def test_walk_counts_match_the_filter_oracle(ideal: MonomialIdeal) -> None:
    for weight in range(ideal.trunc + 1):
        expected = sum(1 for _ in standard_monomials(ideal, weight))
        assert standard_count(ideal, weight) == expected


def _assert_colon_is_literal(ideal: MonomialIdeal) -> None:
    # every pivot up to one heavier than the truncation, at every budget a
    # split can pass down, on what a split passes: the generators on x_var and
    # up; `colon_var` is the literal colon, checked against membership above
    for var in range(ideal.min_var, ideal.trunc + 2):
        upper = tuple(g for g in ideal.gens if g.exps[0][0] >= var)
        for trunc in range(ideal.trunc + 1):
            expected = colon_var(MonomialIdeal(upper, ideal.min_var, trunc), var).gens
            assert _colon(upper, var, trunc) == expected, (str(ideal), var, trunc)


def test_colon_kernel_equals_the_literal_colon_on_seeded_ideals() -> None:
    rng = random.Random(2025)
    for _ in range(30):
        gens = [_random_monomial(rng) for _ in range(rng.randint(1, 6))]
        _assert_colon_is_literal(MonomialIdeal.build(gens, 1, 16))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(ideals(max_trunc=20, span=4))
def test_colon_kernel_equals_the_literal_colon(ideal: MonomialIdeal) -> None:
    _assert_colon_is_literal(ideal)


@st.composite
def last_pair_ideals(draw, max_trunc: int) -> MonomialIdeal:
    """A canonical ideal from a drawn min_var up to 3 whose generators end in
    a power up to 5 of their last variable; a generator with nothing below
    its last variable is a pure power x_v^e."""
    min_var = draw(st.integers(1, 3))
    gens = []
    for _ in range(draw(st.integers(1, 6))):
        last = draw(st.integers(min_var, min_var + 4))
        exps = draw(st.dictionaries(st.integers(min_var, last), st.integers(1, 3), max_size=2))
        gens.append(make_monomial(exps | {last: draw(st.integers(1, 5))}))
    return MonomialIdeal.build(gens, min_var, draw(st.integers(max_trunc // 2, max_trunc)))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(last_pair_ideals(max_trunc=18))
def test_walk_keyed_by_last_pair_matches_the_filter_oracle(ideal: MonomialIdeal) -> None:
    expected = [sum(1 for _ in standard_monomials(ideal, w)) for w in range(ideal.trunc + 1)]
    assert _standard_counts(ideal, ideal.trunc) == expected
