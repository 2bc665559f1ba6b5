from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gga_verify.errors import ParamOutOfRange
from gga_verify.partitions import (
    allowed_parts_C,
    count_C,
    count_D,
    count_E,
    series_D,
    series_E,
)
from gga_verify.recursion import c_series

from oracles import (
    admissible_E,
    classical_partition_count,
    descending_partitions,
    forward_dp_series_E,
    gap_conditions_ok,
    restricted_partition_count,
)


def test_descending_partitions_count_matches_recurrence() -> None:
    for n in range(13):
        assert sum(1 for _ in descending_partitions(n)) == classical_partition_count(n)


def test_descending_partitions_respects_min_part() -> None:
    # dropping one part 1 maps the partitions of n that have one onto those of n - 1
    for n in range(1, 13):
        without_ones = sum(1 for _ in descending_partitions(n, 2))
        assert without_ones == classical_partition_count(n) - classical_partition_count(n - 1)


def test_descending_partitions_of_four_in_order() -> None:
    got = list(descending_partitions(4))
    assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_descending_partitions_edge_cases() -> None:
    assert list(descending_partitions(0)) == [()]
    assert list(descending_partitions(5, 3)) == [(5,)]


def test_allowed_parts_first_and_second_congruence_family() -> None:
    assert allowed_parts_C(2, 1, 8) == [1, 4, 7]
    assert allowed_parts_C(2, 2, 8) == [3, 4, 5]


def test_allowed_parts_by_independent_residue_filter() -> None:
    # recompute with an explicit residue table rather than modular arithmetic
    r, index, n = 3, 2, 12
    banned = {m % 12 for m in (0, 6 + 3, 6 - 3)} | {m for m in range(12) if m % 4 == 2}
    expected = [m for m in range(1, n + 1) if m % 12 not in banned]
    # 12 = 0 mod 4r is excluded by the congruence definition
    assert allowed_parts_C(r, index, n) == expected == [1, 4, 5, 7, 8, 11]


def test_allowed_parts_errors() -> None:
    with pytest.raises(ParamOutOfRange, match=r"^index = 3 violates 1 <= index <= 2$"):
        allowed_parts_C(2, 3, 10)
    with pytest.raises(ParamOutOfRange):
        allowed_parts_C(1, 1, 10)


def test_count_C_examples() -> None:
    assert count_C(2, 2, 5) == 2  # 4+1 and 1^5
    assert count_C(2, 2, 8) == 4  # 1^8, 4+1^4, 4+4, 7+1
    for r, i in [(2, 1), (3, 3), (4, 2)]:
        assert count_C(r, i, 0) == 1


def test_count_C_matches_exhaustive_enumeration() -> None:
    for r, i in [(2, 1), (2, 2), (3, 2)]:
        parts = allowed_parts_C(r, r - i + 1, 30)
        for n in range(31):
            assert count_C(r, i, n) == restricted_partition_count(n, parts)


def test_count_D_survivors_listed() -> None:
    survivors = [p for p in descending_partitions(5) if admissible_E(p, 2, 2, 0)]
    assert survivors == [(5,), (4, 1)]


def test_count_E_matches_double_filter_oracle() -> None:
    for r in (2, 3):
        for i in range(1, r + 1):
            for J in (0, 1, 2):
                for n in range(21):
                    brute = sum(admissible_E(p, r, i, J) for p in descending_partitions(n))
                    assert count_E(r, i, J, n) == brute, (r, i, J, n)


def test_count_E_at_level_zero_equals_count_D() -> None:
    for r in range(2, 5):
        for i in range(1, r + 1):
            for n in range(31):
                assert count_E(r, i, 0, n) == count_D(r, i, n), (r, i, n)


def test_series_D_equals_series_E_at_level_zero() -> None:
    # the literal walk against Andrews' frequency form
    for r in range(2, 5):
        for i in range(1, r + 1):
            assert series_D(r, i, 50) == series_E(r, i, 0, 50), (r, i)


def test_boundary_condition_vacuous_for_deep_partitions() -> None:
    # partitions with all parts > 2J+2 are counted at level J iff at level J+1
    r, i = 2, 2
    for J in (0, 1):
        for n in range(16):
            for p in descending_partitions(n, 2 * J + 3):
                assert admissible_E(p, r, i, J) == admissible_E(p, r, i, J + 1)


def test_gap_conditions_vacuous_for_short_partitions() -> None:
    r, i = 4, 3
    for n in range(14):
        for p in descending_partitions(n):
            if len(p) >= r:
                continue
            no_odd_repeat = all(not (a == b and a % 2 == 1) for a, b in zip(p, p[1:]))
            boundary_ok = sum(1 for x in p if x <= 2) <= i - 1
            assert admissible_E(p, r, i, 0) == (no_odd_repeat and boundary_ok)


def test_series_E_examples() -> None:
    assert series_E(2, 2, 0, 6).coeffs == (1, 1, 1, 1, 2, 2, 2)
    assert series_E(2, 1, 0, 3).coeffs == (1, 0, 0, 1)
    assert series_E(3, 2, 2, 5)[0] == 1


def test_count_D_matches_descending_filter_oracle() -> None:
    streams = [list(descending_partitions(n)) for n in range(23)]
    for r in range(2, 7):
        for i in range(1, r + 1):
            for n, stream in enumerate(streams):
                brute = sum(admissible_E(p, r, i, 0) for p in stream)
                assert count_D(r, i, n) == brute, (r, i, n)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data(), r=st.integers(2, 7), n=st.integers(0, 24))
def test_count_D_equals_the_per_cell_filter(data: st.DataObject, r: int, n: int) -> None:
    i = data.draw(st.integers(1, r), label="i")
    brute = sum(admissible_E(p, r, i, 0) for p in descending_partitions(n))
    assert count_D(r, i, n) == brute


@settings(derandomize=True, max_examples=40, deadline=None)
@given(parts=st.lists(st.integers(1, 30), max_size=12), r=st.integers(2, 6))
def test_gap_conditions_independent_of_order(parts: list[int], r: int) -> None:
    p = tuple(sorted(parts, reverse=True))
    assert gap_conditions_ok(p, r) == gap_conditions_ok(p[::-1], r)


def test_series_E_matches_forward_pass_grid() -> None:
    for r in range(2, 7):
        for i in range(1, r + 1):
            for J in range(3):
                for n in (30, 50) if r <= 5 else (30,):
                    assert series_E(r, i, J, n) == forward_dp_series_E(r, i, J, n), (r, i, J, n)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data(), r=st.integers(2, 6), J=st.integers(0, 3), n=st.integers(0, 40))
def test_series_E_equals_forward_pass(data: st.DataObject, r: int, J: int, n: int) -> None:
    i = data.draw(st.integers(1, r), label="i")
    assert series_E(r, i, J, n) == forward_dp_series_E(r, i, J, n)


def test_series_E_reaches_level_zero_identity_at_200() -> None:
    # far beyond the partition filters: at J = 0 the gap side is the product of index r - i + 1
    for i in (1, 2):
        assert series_E(2, i, 0, 200) == c_series(2, 3 - i, 200), i
    for i in range(1, 5):
        assert series_E(4, i, 0, 300) == c_series(4, 5 - i, 300), i
    # level J = 2 against the cascade at index (r - 1) J + r - i + 1
    assert series_E(4, 2, 2, 300) == c_series(4, 9, 300)
