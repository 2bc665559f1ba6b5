from __future__ import annotations

import json
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gga_verify import partitions, recursion
from gga_verify.context import RunContext
from gga_verify.errors import TruncationTooShort
from gga_verify.partitions import allowed_parts_C, series_E
from gga_verify.qseries import (
    eq_up_to,
    product_geometric_inverses,
    series_one,
    series_zero,
)
from gga_verify.recursion import (
    CheckReport,
    Mismatch,
    c_series,
    coeff_table,
    stop_depth,
    verify_c_expansion,
    verify_hp_expansion,
    verify_hp_step,
    verify_limits,
    verify_main,
    verify_mn_tables,
)

from oracles import (
    from_coeffs,
    padded_cascade,
    padded_level,
    restricted_partition_count,
    valuation,
)


def test_c_series_base_products() -> None:
    assert c_series(2, 1, 6).coeffs == (1, 1, 1, 1, 2, 2, 2)
    assert c_series(2, 2, 7).coeffs == (1, 0, 0, 1, 1, 1, 1, 1)
    for n in range(8):
        assert c_series(2, 1, 7)[n] == restricted_partition_count(n, [1, 4, 7])


def test_c_series_extended_index_equals_gap_series() -> None:
    # index (r-1)J + ell with ell = r - i + 1 must match the gap-side series
    for r, i, J in [(2, 1, 1), (2, 2, 1), (3, 1, 1), (3, 3, 1), (2, 2, 2)]:
        ell = r - i + 1
        got = c_series(r, (r - 1) * J + ell, 24)
        assert eq_up_to(got, series_E(r, i, J, 24), 24)[0], (r, i, J)


def test_c_series_first_extended_value() -> None:
    # combined-numerator recursion, checked against hand expansion:
    # (C1 - C2 - q*C2) / q^2 for r = 2
    assert c_series(2, 3, 7).coeffs == (1, 0, 0, 0, 0, 1, 1, 1)


def test_c_series_truncation_monotonicity() -> None:
    small = c_series(3, 7, 18)
    large = c_series(3, 7, 33)
    assert large.coeffs[:19] == small.coeffs


def test_c_series_bases_match_dense_product() -> None:
    # the pentagonal/triple-product kernel against the direct product expansion
    n = 300
    for r in range(2, 7):
        for index in range(1, r + 1):
            dense = product_geometric_inverses(allowed_parts_C(r, index, n), n)
            assert c_series(r, index, n) == dense, (r, index)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(data=st.data(), r=st.integers(2, 8), n=st.integers(0, 200))
def test_c_series_bases_match_dense_product_property(data, r: int, n: int) -> None:
    index = data.draw(st.integers(1, r), label="index")
    dense = product_geometric_inverses(allowed_parts_C(r, index, n), n)
    assert c_series(r, index, n) == dense


def test_recursion_padding_is_exact_loss() -> None:
    assert recursion._recursion_padding(4, 15, 4) == 496
    assert recursion._recursion_padding(4, 15, 2) == 464
    assert recursion._recursion_padding(2, 1, 2) == 2


def test_c_series_unchanged_by_extra_padding(monkeypatch: pytest.MonkeyPatch) -> None:
    cases = [(r, index, n) for r in range(2, 6) for index in range(r + 1, 4 * r) for n in (0, 9, 20)]
    exact = {case: c_series(*case) for case in cases}
    # the looser budget of one extra degree per division step, with no chained gain
    monkeypatch.setattr(
        recursion,
        "_recursion_padding",
        lambda r, g_stop, i_stop: sum(
            2 * g * (i - 1) + 1 for g in range(1, g_stop + 1) for i in range(2, r + 1)
        ),
    )
    for case in cases:
        assert c_series(*case) == exact[case], case


@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data(), r=st.integers(2, 8), g=st.integers(1, 6), n=st.integers(0, 30))
def test_padding_one_short_raises_at_last_level_entry(data, r: int, g: int, n: int) -> None:
    # the entry asked for loses exactly the padding, so one degree less must fail
    i_stop = data.draw(st.integers(2, r), label="i_stop")
    exact = recursion._recursion_padding
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            recursion, "_recursion_padding", lambda r, g_stop, i_stop: exact(r, g_stop, i_stop) - 1
        )
        with pytest.raises(TruncationTooShort):
            c_series(r, (r - 1) * g + i_stop, n)


def test_c_series_equals_padded_cascade_on_grid() -> None:
    # every index up to (r-1)(n/2+2)+1: the limit tail of verify_limits and one level more
    ctx = RunContext()
    compared = 0
    for r in range(2, 7):
        for n in (0, 1, 3, 8, 20, 30):
            for g in range(n // 2 + 2):
                level = padded_level(r, g, n)
                for i in range(1 if g == 0 else 2, r + 1):
                    index = (r - 1) * g + i
                    assert c_series(r, index, n, ctx=ctx) == level[i - 1], (r, index, n)
                    compared += 1
    assert compared == 660


@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data(), r=st.integers(2, 8), n=st.integers(0, 60))
def test_c_series_equals_padded_cascade_property(data, r: int, n: int) -> None:
    index = data.draw(st.integers(1, (r - 1) * 10 + 1), label="index")
    assert c_series(r, index, n) == padded_cascade(r, index, n)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    data=st.data(),
    kind=st.sampled_from("MN"),
    r=st.integers(2, 8),
    J=st.integers(0, 5),
    n=st.integers(0, 40),
)
def test_coeff_table_initial_conditions(data, kind: str, r: int, J: int, n: int) -> None:
    anchor = data.draw(st.integers(1, r), label="anchor")
    d_max = data.draw(st.integers(J + 1, J + 3), label="d_max")
    table = coeff_table(kind, r, J, anchor, d_max, n)
    assert len(table.entries) == r * (d_max - J)
    assert set(table.entries) == {(j, d) for j in range(1, r + 1) for d in range(J + 1, d_max + 1)}
    pivot = anchor if kind == "N" else r - anchor + 1
    d0 = J + 1
    for j in range(1, r + 1):
        if j < pivot:
            expected = series_one(n).shift(2 * d0 * j - 1) + series_one(n).shift(2 * d0 * (j - 1))
        elif j == pivot:
            expected = series_one(n).shift(2 * d0 * (j - 1))
        else:
            expected = series_zero(n)
        assert table.entry(j, d0).coeffs == expected.coeffs, (kind, r, J, anchor, j)


def test_coeff_table_m_kind_anchors_mirrored() -> None:
    n = 25
    r, J = 3, 0
    for i in range(1, r + 1):
        ell = r - i + 1
        m_table = coeff_table("M", r, J, ell, J + 1, n)
        n_table = coeff_table("N", r, J, i, J + 1, n)
        for j in range(1, r + 1):
            assert m_table.entry(j, J + 1).coeffs == n_table.entry(j, J + 1).coeffs


def test_coeff_table_degenerate_anchor_all_mass_at_one() -> None:
    # ell = r puts the single nonzero initial entry at j = 1
    n = 20
    table = coeff_table("M", 3, 0, 3, 1, n)
    assert table.entry(1, 1).coeffs == series_one(n).coeffs
    assert table.entry(2, 1).coeffs == series_zero(n).coeffs
    assert table.entry(3, 1).coeffs == series_zero(n).coeffs


def test_coeff_table_recursion_step_explicit() -> None:
    n = 30
    r, J, i = 2, 0, 2
    table = coeff_table("N", r, J, i, 3, n)
    for d in (1, 2):
        for j in (1, 2):
            upper = series_zero(n)
            for m in range(1, r - j + 2):
                upper = upper + table.entry(m, d)
            lower = series_zero(n)
            for m in range(1, r - j + 1):
                lower = lower + table.entry(m, d)
            expected = upper.shift(2 * (d + 1) * (j - 1)) + lower.shift(2 * (d + 1) * j - 1)
            assert table.entry(j, d + 1).coeffs == expected.coeffs


def test_coeff_table_hand_values_r2() -> None:
    # r=2, i=2, J=0: entry(1,1) = 1+q, entry(2,1) = q^2,
    # entry(2,2) = q^4 * entry(1,1) = q^4 + q^5
    table = coeff_table("N", 2, 0, 2, 2, 8)
    assert table.entry(1, 1).coeffs == (1, 1, 0, 0, 0, 0, 0, 0, 0)
    assert table.entry(2, 1).coeffs == (0, 0, 1, 0, 0, 0, 0, 0, 0)
    assert table.entry(2, 2).coeffs == (0, 0, 0, 0, 1, 1, 0, 0, 0)


def test_coeff_table_valuation_law() -> None:
    # entry (j, d) vanishes below degree 2d(j-1), for both kinds
    n = 40
    for kind, r, J, anchor in [("N", 2, 0, 2), ("N", 3, 1, 1), ("M", 3, 0, 2), ("M", 4, 1, 3)]:
        table = coeff_table(kind, r, J, anchor, J + 4, n)
        for d in range(J + 1, J + 5):
            for j in range(1, r + 1):
                v = valuation(table.entry(j, d))
                assert v is None or v >= 2 * d * (j - 1), (kind, r, J, anchor, j, d, v)


def test_mn_tables_equal() -> None:
    for r, i, J in [(2, 1, 0), (2, 2, 1), (3, 2, 0)]:
        report = verify_mn_tables(r, i, J, J + 3, 30)
        assert report.passed, report.to_json_dict()


@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data(), r=st.integers(2, 6), J=st.integers(0, 3), n=st.integers(0, 40))
def test_frequency_form_runs_the_n_table(data, r: int, J: int, n: int) -> None:
    # series_E hands its state to `accumulate` before each pair (2d+1, 2d+2):
    # the state at depth J is the identity row, and each later one a row of N
    i = data.draw(st.integers(1, r), label="i")
    states = []

    def record(ends, initial):
        states.append(list(ends))
        return accumulate(ends, initial=initial)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(partitions, "accumulate", record)
        gap = series_E(r, i, J, n)
    depth = stop_depth(n, J) + 1
    table = coeff_table("N", r, J, i, depth, n)
    identity = [series_one(n) if j == r - i + 1 else series_zero(n) for j in range(1, r + 1)]
    assert states[:1] in ([], [identity])
    for d, ends in enumerate(states[1:], J + 1):
        assert ends == [table.entry(j, d) for j in range(1, r + 1)], d
    assert gap == table.entry(1, depth)


def test_verify_hp_step_passes() -> None:
    assert verify_hp_step(2, 1, 2, 0, 20).passed
    assert verify_hp_step(3, 3, 2, 1, 20).passed
    assert verify_hp_step(3, 5, 3, 2, 18).passed


def test_verify_hp_step_ell_one_degenerates() -> None:
    report = verify_hp_step(3, 3, 1, 0, 16)
    assert report.passed


def test_verify_hp_expansion_every_depth_to_stop() -> None:
    n = 25
    r, i, J = 2, 2, 0
    for d in range(J + 1, stop_depth(n, J) + 1):
        assert verify_hp_expansion(r, i, J, d, n).passed, d


def test_verify_c_expansion_examples() -> None:
    assert verify_c_expansion(3, 2, 1, 3, 22).passed


def test_verify_c_expansion_every_depth_to_stop() -> None:
    n = 22
    r, ell, J = 2, 1, 0
    for d in range(J + 1, stop_depth(n, J) + 1):
        assert verify_c_expansion(r, ell, J, d, n).passed, d


def test_stop_depth() -> None:
    assert stop_depth(30) == 15   # first d with 2(d+1) > 30
    assert stop_depth(31) == 15
    assert stop_depth(0) == 0
    assert stop_depth(4, J=5) == 5  # floored at the table's initial depth


def test_verify_limits_passes() -> None:
    assert verify_limits(3, 3, 2, 30).passed
    assert verify_limits(2, 1, 1, 21).passed  # odd truncation


def test_verify_main_passes() -> None:
    report = verify_main(2, 2, 0, 25)
    assert report.passed
    assert report.params["ell"] == 1
    assert verify_main(2, 1, 0, 25).passed
    assert verify_main(3, 2, 1, 20).passed


def test_report_json_schema() -> None:
    report = verify_main(2, 2, 0, 12)
    data = json.loads(json.dumps(report.to_json_dict()))
    assert set(data) == {"check", "params", "pass", "first_mismatch", "truncation"}
    assert data["check"] == "main"
    assert data["pass"] is True
    assert data["first_mismatch"] is None
    assert data["truncation"] == 12


def test_report_json_failure_shape() -> None:
    report = CheckReport(
        check="demo",
        params={"r": 2, "clause": "example"},
        passed=False,
        first_mismatch=Mismatch(3, 5, 7),
        truncation=9,
    )
    data = report.to_json_dict()
    assert data["pass"] is False
    assert data["first_mismatch"] == {"degree": 3, "lhs": "5", "rhs": "7"}


def test_report_by_keyword_equals_report_by_position() -> None:
    by_keyword = CheckReport(
        check="demo", params={"r": 2}, passed=False, first_mismatch=Mismatch(3, 5, 7), truncation=9
    )
    assert by_keyword == CheckReport("demo", {"r": 2}, False, Mismatch(3, 5, 7), 9)
    assert by_keyword.passed is False and by_keyword.truncation == 9


def test_mismatch_reporting_names_degree_and_values() -> None:
    ok, mismatch = eq_up_to(from_coeffs([1, 2, 3]), from_coeffs([1, 2, 4]), 2)
    assert not ok
    assert mismatch is not None and mismatch.degree == 2
    assert (mismatch.lhs, mismatch.rhs) == (3, 4)
