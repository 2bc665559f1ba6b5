from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gga_verify.errors import NonDivisible, ParamOutOfRange, TruncationTooShort
from gga_verify.qseries import (
    TruncatedSeries,
    div_sparse,
    eq_up_to,
    product_geometric_inverses,
    series_one,
    series_zero,
    sparse_series,
    triple_product_terms,
)

from oracles import from_coeffs, pentagonal_terms, restricted_partition_count, valuation


def _random_series(rng: random.Random, trunc: int) -> TruncatedSeries:
    return from_coeffs(rng.randint(-9, 9) for _ in range(trunc + 1))


def test_series_one_values() -> None:
    assert series_one(3).coeffs == (1, 0, 0, 0)
    assert series_one(0).coeffs == (1,)


def test_series_one_is_multiplicative_identity() -> None:
    s = from_coeffs([3, -1, 4])
    assert (s * series_one(2)).coeffs == s.coeffs
    assert (series_one(2) * s).coeffs == s.coeffs


def test_series_is_an_immutable_value() -> None:
    s = from_coeffs([1, 2, 3])
    with pytest.raises(AttributeError):
        s.coeffs = (4, 5, 6)
    with pytest.raises(AttributeError):
        del s.coeffs
    assert s.coeffs == (1, 2, 3)
    twin = from_coeffs([1, 2, 3])
    assert twin == s and hash(twin) == hash(s) and len({s, twin}) == 1
    assert s != from_coeffs([1, 2]) and s != from_coeffs([1, 2, 4])
    assert s != (1, 2, 3) and (1, 2, 3) != s
    assert repr(s) == "TruncatedSeries(coeffs=(1, 2, 3))"
    with pytest.raises(ValueError, match="constant term"):
        TruncatedSeries(())


def test_add_sub_coefficientwise() -> None:
    assert (from_coeffs([1, 2]) + from_coeffs([0, 3])).coeffs == (1, 5)
    assert (from_coeffs([1, 1]) - from_coeffs([1, 1])).coeffs == (0, 0)
    assert (from_coeffs([0, 1]) - from_coeffs([0, 2])).coeffs == (0, -1)


def test_arithmetic_truncates_to_shorter_operand() -> None:
    long = from_coeffs([1, 2, 3, 4, 5])
    short = from_coeffs([1, 1])
    assert (long + short).trunc == 1
    assert (long - short).trunc == 1
    assert (long * short).trunc == 1


def test_mul_examples() -> None:
    assert (from_coeffs([1, 1, 1]) * from_coeffs([1, 1, 1])).coeffs == (1, 2, 3)
    assert (from_coeffs([0, 1, 0]) * from_coeffs([0, 1, 0])).coeffs == (0, 0, 1)


def test_shift_examples() -> None:
    assert from_coeffs([1, 2, 3]).shift(1).coeffs == (0, 1, 2)
    s = from_coeffs([5, 6, 7])
    assert s.shift(0) is s
    assert from_coeffs([1, 0, 0]).shift(5).coeffs == (0, 0, 0)


def test_div_q_pow_examples() -> None:
    assert from_coeffs([0, 0, 1, 4]).div_q_pow(2).coeffs == (1, 4)
    s = from_coeffs([2, 0, 1])
    assert s.div_q_pow(0) is s
    with pytest.raises(NonDivisible):
        from_coeffs([1, 0]).div_q_pow(1)


def test_div_q_pow_inverts_a_q_power_multiple_on_random_series() -> None:
    rng = random.Random(11)
    for _ in range(50):
        w = rng.randint(0, 6)
        s = _random_series(rng, rng.randint(0, 12))
        multiple = TruncatedSeries((0,) * w + s.coeffs)
        assert multiple.div_q_pow(w) == s
        # the fixed-truncation shift is the certified prefix of the exact product
        assert multiple.coeffs[: s.trunc + 1] == s.shift(w).coeffs


def test_div_q_pow_shrinks_certified_range() -> None:
    s = from_coeffs([0, 0, 3, 1, 4])
    assert s.div_q_pow(2).trunc == 2


def test_shift_then_div_roundtrip_on_random_series() -> None:
    rng = random.Random(7)
    for _ in range(50):
        w = rng.randint(0, 4)
        trunc = rng.randint(w, 12)
        a = from_coeffs([0] * w + [rng.randint(-9, 9) for _ in range(trunc + 1 - w)])
        quotient = a.div_q_pow(w)
        # full reconstruction of a through its whole certified range
        for j in range(a.trunc + 1):
            expected = quotient.coeffs[j - w] if j >= w else 0
            assert a.coeffs[j] == expected


def test_ring_laws_on_random_triples() -> None:
    rng = random.Random(20240811)
    for _ in range(30):
        n = rng.randint(0, 10)
        a, b, c = (_random_series(rng, n) for _ in range(3))
        assert (a + b).coeffs == (b + a).coeffs
        assert ((a + b) + c).coeffs == (a + (b + c)).coeffs
        assert (a * b).coeffs == (b * a).coeffs
        assert ((a * b) * c).coeffs == (a * (b * c)).coeffs
        assert (a * (b + c)).coeffs == (a * b + a * c).coeffs


_series = st.lists(st.integers(-10**12, 10**12), min_size=1, max_size=12).map(from_coeffs)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(a=_series, b=_series, c=_series)
def test_ring_laws_hold_across_truncations(
    a: TruncatedSeries, b: TruncatedSeries, c: TruncatedSeries
) -> None:
    # operands may differ in truncation; every result is certified through the shortest
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * (b - c) == a * b - a * c
    assert (a - b) + b == a.truncated(min(a.trunc, b.trunc))
    assert a - a == series_zero(a.trunc)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data(), a=_series, b=_series)
def test_truncation_commutes_with_arithmetic(
    data: st.DataObject, a: TruncatedSeries, b: TruncatedSeries
) -> None:
    m = data.draw(st.integers(0, min(a.trunc, b.trunc)), label="m")
    assert (a * b).truncated(m) == a.truncated(m) * b.truncated(m)
    assert (a + b).truncated(m) == a.truncated(m) + b.truncated(m)
    assert (a - b).truncated(m) == a.truncated(m) - b.truncated(m)


def test_product_geometric_inverses_single_part() -> None:
    assert product_geometric_inverses([1], 4).coeffs == (1, 1, 1, 1, 1)


def test_product_geometric_inverses_against_enumeration() -> None:
    # first congruence-side product: parts 1, 4, 7
    got = product_geometric_inverses([1, 4, 7], 6)
    expected = tuple(restricted_partition_count(n, [1, 4, 7]) for n in range(7))
    assert got.coeffs == expected == (1, 1, 1, 1, 2, 2, 2)

    # second congruence-side product: parts 3, 4, 5
    got = product_geometric_inverses([3, 4, 5], 7)
    expected = tuple(restricted_partition_count(n, [3, 4, 5]) for n in range(8))
    assert got.coeffs == expected == (1, 0, 0, 1, 1, 1, 1, 1)


def test_product_geometric_inverses_matches_enumeration_generally() -> None:
    rng = random.Random(3)
    for _ in range(10):
        parts = sorted(rng.sample(range(1, 12), rng.randint(1, 4)))
        n = rng.randint(0, 18)
        got = product_geometric_inverses(parts, n)
        for j in range(n + 1):
            assert got[j] == restricted_partition_count(j, parts)


def test_product_geometric_inverses_rejects_bad_part() -> None:
    with pytest.raises(ParamOutOfRange):
        product_geometric_inverses([0], 3)
    with pytest.raises(ParamOutOfRange):
        product_geometric_inverses([2, -1], 3)


def test_truncation_monotonicity_of_product() -> None:
    small = product_geometric_inverses([1, 4, 7], 10)
    large = product_geometric_inverses([1, 4, 7], 25)
    assert large.coeffs[:11] == small.coeffs


def test_pentagonal_terms_invert_the_partition_series() -> None:
    # (q^k;q^k)_inf * prod_{m = 0 mod k} 1/(1 - q^m) = 1
    assert pentagonal_terms(1, 12) == [(0, 1), (1, -1), (2, -1), (5, 1), (7, 1), (12, -1)]
    n = 60
    for k in (1, 2, 4, 7):
        inverse = product_geometric_inverses(range(k, n + 1, k), n)
        assert sparse_series(pentagonal_terms(k, n), n) * inverse == series_one(n), k


def test_one_theta_series_gives_the_parts_not_2_mod_4() -> None:
    # 1/(q, q^3, q^4; q^4)_inf = (q^2;q^2)_inf / ((q;q)_inf (q^4;q^4)_inf)
    for n in range(301):
        sparse = div_sparse(series_one(n), triple_product_terms(1, 4, n))
        dense = product_geometric_inverses([m for m in range(1, n + 1) if m % 4 != 2], n)
        assert sparse == dense, n


def test_triple_product_terms_invert_the_class_product() -> None:
    # (q^a, q^(M-a), q^M; q^M)_inf times the product over the three classes is 1,
    # including a = M/2, where the two sides of the sum share their degrees
    n = 80
    for a, modulus in [(1, 8), (3, 8), (5, 12), (2, 4), (3, 6), (1, 2)]:
        residues = (0, a, modulus - a)  # at a = M/2 the class a counts twice
        parts = [m for c in residues for m in range(1, n + 1) if m % modulus == c]
        inverse = product_geometric_inverses(parts, n)
        assert sparse_series(triple_product_terms(a, modulus, n), n) * inverse == series_one(n)
    with pytest.raises(ValueError):
        triple_product_terms(0, 8, 10)
    with pytest.raises(ValueError):
        triple_product_terms(8, 8, 10)


def test_sparse_series_places_the_terms_through_n() -> None:
    assert sparse_series([(0, 1), (2, -3), (5, 7)], 4) == from_coeffs([1, 0, -3, 0, 0])
    assert sparse_series([(3, 2), (1, 1)], 3) == from_coeffs([0, 1, 0, 2])
    for n in (0, 1, 7):
        assert sparse_series([], n) == series_zero(n)
        assert sparse_series([(0, 1)], n) == series_one(n)
        assert sparse_series([(n + 1, 5), (n + 9, -1)], n) == series_zero(n)
    for a, modulus in [(1, 4), (3, 8), (2, 4)]:
        terms = triple_product_terms(a, modulus, 60)
        dense = sparse_series(terms, 60)
        assert [(d, c) for d, c in enumerate(dense.coeffs) if c] == terms
        assert sparse_series(terms, 20) == dense.truncated(20)


def test_div_sparse_rejects_non_unit_constant() -> None:
    with pytest.raises(ValueError):
        div_sparse(series_one(5), [(0, 2), (1, 1)])
    with pytest.raises(ValueError):
        div_sparse(series_one(5), [(1, 1)])


_sparse_divisors = st.dictionaries(
    st.integers(1, 40), st.integers(-3, 3).filter(bool), max_size=6
).map(lambda rest: [(0, 1)] + sorted(rest.items()))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    coeffs=st.lists(st.integers(-10**30, 10**30), min_size=1, max_size=40),
    terms=_sparse_divisors,
)
def test_sparse_divide_then_multiply_roundtrips(coeffs: list[int], terms) -> None:
    series = from_coeffs(coeffs)
    divisor = sparse_series(terms, series.trunc)
    assert divisor * div_sparse(series, terms) == series
    assert div_sparse(divisor * series, terms) == series


def test_eq_up_to() -> None:
    ok, mismatch = eq_up_to(from_coeffs([1, 1]), from_coeffs([1, 1]), 1)
    assert ok and mismatch is None
    ok, mismatch = eq_up_to(from_coeffs([1, 1]), from_coeffs([1, 2]), 1)
    assert not ok
    assert mismatch == (1, 1, 2)
    s = from_coeffs([4, 0, 2])
    assert eq_up_to(s, s, s.trunc) == (True, None)
    with pytest.raises(TruncationTooShort):
        eq_up_to(s, from_coeffs([4, 0]), 2)


def test_valuation() -> None:
    assert valuation(from_coeffs([0, 0, 5, 1])) == 2
    assert valuation(from_coeffs([0, 0, 0])) is None
    assert valuation(from_coeffs([7])) == 0


def test_q_power_and_zero() -> None:
    assert series_one(4).shift(2).coeffs == (0, 0, 1, 0, 0)
    assert series_one(4).shift(9).coeffs == (0, 0, 0, 0, 0)
    assert series_zero(2).coeffs == (0, 0, 0)


def test_truncated() -> None:
    s = from_coeffs([1, 2, 3, 4])
    assert s.truncated(1).coeffs == (1, 2)
    with pytest.raises(TruncationTooShort):
        s.truncated(9)


def test_getitem_bounds() -> None:
    s = from_coeffs([1, 2])
    assert s[1] == 2
    with pytest.raises(TruncationTooShort):
        s[2]


def test_json_roundtrip_preserves_big_integers() -> None:
    s = from_coeffs([10**40, -3, 0])
    data = json.loads(json.dumps(s.to_json_dict()))
    assert data == {"trunc": 2, "coeffs": [str(10**40), "-3", "0"]}
    assert tuple(int(c) for c in data["coeffs"]) == s.coeffs
