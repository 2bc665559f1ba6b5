"""One run context shared across cells gives what fresh, context-free calls give."""

from __future__ import annotations

from gga_verify.context import RunContext
from gga_verify.hilbert import hp_notation, hp_split
from gga_verify.monomial import MonomialIdeal
from gga_verify.partitions import count_D, series_D
from gga_verify.recursion import (
    c_series,
    verify_c_expansion,
    verify_hp_expansion,
    verify_hp_step,
    verify_limits,
    verify_main,
)

from oracles import make_monomial


def test_shared_context_matches_fresh_calls() -> None:
    # one context across r, i, J and n, in an order where each cache entry is
    # later looked up by calls that differ from it in r or in n only
    ctx = RunContext()
    for n in (6, 11):
        for r in (2, 3, 4):
            for index in range(1, 3 * r + 1):
                assert c_series(r, index, n, ctx=ctx) == c_series(r, index, n), (r, index, n)
            for i in range(1, r + 1):
                for m in range(n + 1):
                    assert count_D(r, i, m, ctx=ctx) == count_D(r, i, m), (r, i, m)
    for n in (10, 14):
        for r in (2, 3):
            for i in range(1, r + 1):
                for J in (0, 1):
                    cell = (r, i, J, n)
                    assert verify_main(*cell, ctx=ctx) == verify_main(*cell), cell
                    assert verify_limits(*cell, ctx=ctx) == verify_limits(*cell), cell
                    for d in (J + 1, J + 2):
                        step = (r, r - i + 1, J, d, n)
                        assert verify_c_expansion(*step, ctx=ctx) == verify_c_expansion(*step)
    assert ctx.products and ctx.level_zero


def test_shared_context_matches_fresh_calls_on_the_quotient_side() -> None:
    ctx = RunContext()
    # equal generators in two rings and at three budgets share one memo key,
    # which names no ring: each ring lifts the entry by its own free variables,
    # and each budget reads its own prefix
    square = make_monomial({3: 2})
    for n in (9, 7, 12):
        for min_var in (1, 3):
            ideal = MonomialIdeal.build([square], min_var, n)
            assert hp_split(ideal, ctx=ctx) == hp_split(ideal), (min_var, n)
    for n in (12, 8):
        for r in (2, 3):
            for k in (1, 2, 3, 5):
                for ell in (None, *range(1, r + 1)):
                    args = (k, ell, r, n)
                    assert hp_notation(*args, ctx=ctx) == hp_notation(*args), args
    for n in (10, 14):
        for r in (2, 3):
            for i in range(1, r + 1):
                for J in (0, 1):
                    step = (r, 2 * J + 1, r - i + 1, J, n)
                    assert verify_hp_step(*step, ctx=ctx) == verify_hp_step(*step), step
                    for d in (J + 1, J + 2):
                        cell = (r, i, J, d, n)
                        assert verify_hp_expansion(*cell, ctx=ctx) == verify_hp_expansion(*cell)
                    cell = (r, i, J, n)
                    assert verify_limits(*cell, ctx=ctx) == verify_limits(*cell), cell
    assert ctx.splits


def test_context_keeps_one_entry_per_key() -> None:
    ctx = RunContext()
    first = c_series(3, 8, 12, ctx=ctx)
    assert c_series(3, 8, 12, ctx=ctx) is first
    assert list(ctx.products) == [(3, 8, 12)]
    count_D(3, 2, 9, ctx=ctx)
    count_D(2, 1, 9, ctx=ctx)
    assert list(ctx.level_zero) == [(3, 9), (2, 9)]
    series_D(3, 3, 9, ctx=ctx)  # a second i at r = 3 reads the same walk
    assert list(ctx.level_zero) == [(3, 9), (2, 9)]
