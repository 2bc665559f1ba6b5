from __future__ import annotations

import io
import json
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gga_verify import cli, hilbert
from gga_verify.context import RunContext
from gga_verify.hilbert import build_L_k_ell, hp_brute, hp_notation, hp_split
from gga_verify.monomial import MonomialIdeal, add_var, colon_var, minimalize
from gga_verify.qseries import TruncatedSeries, product_geometric_inverses

from oracles import make_monomial, random_ideal, transcribed_boundary_ideal, transcribed_family_ideal


def test_every_builder_matches_the_literal_transcription() -> None:
    # one builder makes every family, so notes N2 (L(k, r) = L_k) and
    # N3 (L(2J+1, i) = L(r, i, J)) are checked against definitions written
    # out separately, not against each other
    for r in range(2, 6):
        for n in (0, 1, 7, 25):
            for k in range(1, 10):
                plain = transcribed_family_ideal(k, None, r, n)
                assert set(build_L_k_ell(k, r, r, n).gens) == plain
                for ell in range(1, r + 1):
                    expected = transcribed_family_ideal(k, ell, r, n)
                    assert set(build_L_k_ell(k, ell, r, n).gens) == expected, (k, ell, r, n)
    boundary = [
        (r, i, J, n)
        for r in range(2, 6)
        for n in (0, 1, 7, 25)
        for i in range(1, r + 1)
        for J in range(5)  # keeps 2J+1 <= 9
    ]
    # and truncations between the grid's, up to 2J+1 = 5
    boundary += [(2, 2, 0, 8), (2, 1, 0, 12), (3, 2, 1, 16), (4, 4, 0, 14)]
    boundary += [(2, 1, 0, 14), (2, 2, 0, 14), (3, 2, 1, 18), (4, 3, 2, 20)]
    for r, i, J, n in boundary:
        ideal = build_L_k_ell(2 * J + 1, i, r, n)
        assert set(ideal.gens) == transcribed_boundary_ideal(r, i, J, n), (r, i, J, n)
        assert ideal.min_var == 2 * J + 1


def test_build_L_k_relates_to_boundary_ideal() -> None:
    # adjoining the three boundary generators to the anchored family ideal
    # and minimalizing reproduces the boundary ideal
    r, i, J, n = 3, 2, 1, 20
    family = build_L_k_ell(2 * J + 2, r, r, n)
    boundary = [
        make_monomial({2 * J + 1: 2}),
        make_monomial({2 * J + 1: 1, 2 * J + 2: i - 1}),
        make_monomial({2 * J + 2: i}),
    ]
    combined = minimalize(boundary + list(family.gens))
    assert set(combined) == transcribed_boundary_ideal(r, i, J, n)


def test_hp_brute_single_square() -> None:
    ideal = MonomialIdeal.build([make_monomial({1: 2})], 1, 2)
    assert hp_brute(ideal).coeffs == (1, 1, 1)


def test_hp_brute_unit_ideal_is_zero_series() -> None:
    unit = MonomialIdeal.build([make_monomial({})], 1, 6)
    assert hp_brute(unit).coeffs == (0,) * 7
    assert hp_split(unit).coeffs == (0,) * 7


def test_hp_split_free_quotient_is_geometric_product() -> None:
    for min_var in (1, 3):
        free = MonomialIdeal.build([], min_var, 14)
        expected = product_geometric_inverses(range(min_var, 15), 14)
        assert hp_split(free).coeffs == expected.coeffs


# Ideals whose two engines must agree, each with the reason it is here:
# generators as exponent dicts, then the truncation.
SPLIT_VS_BRUTE = [
    # one square: the smallest ideal with a colon step
    pytest.param([{1: 2}], 12, id="single-square"),
    # single-variable generators: the add branch is a fixed point there, so
    # the pivot rule must never select one of them
    pytest.param([{1: 1}, {2: 2}, {3: 1, 4: 1}], 15, id="killed-variables"),
    # dense repeated variables: every split must still terminate
    pytest.param(
        [{1: 5}, {1: 4, 2: 3}, {1: 2, 2: 2, 3: 2}, {2: 4, 4: 1}], 20,
        id="dense-repeated-variables",
    ),
]


@pytest.mark.parametrize("gens, trunc", SPLIT_VS_BRUTE)
def test_hp_split_equals_hp_brute(gens: list[dict[int, int]], trunc: int) -> None:
    ideal = MonomialIdeal.build([make_monomial(exps) for exps in gens], 1, trunc)
    assert hp_split(ideal) == hp_brute(ideal)


@st.composite
def ideals(draw) -> MonomialIdeal:
    """An ideal of non-unit generators on six variables from min_var up."""
    min_var = draw(st.integers(1, 3))
    exps = st.dictionaries(st.integers(min_var, min_var + 5), st.integers(1, 3), min_size=1, max_size=3)
    gens = [make_monomial(e) for e in draw(st.lists(exps, min_size=1, max_size=8))]
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
    # Every colon step on (x1^a, x2*x3) ends in the quotient by (x1, x2*x3),
    # one budget lower each step; without the killed x1 below the pivot x2 it
    # is one memo key, and one context spans both truncations, so the kept
    # series is sliced and then regrown.
    ctx = RunContext()
    for n in (24, 40):
        for a in (2, 9, n):
            gens = [make_monomial({1: a}), make_monomial({2: 1, 3: 1})]
            ideal = MonomialIdeal.build(gens, 1, n)
            assert hp_split(ideal, ctx=ctx) == hp_brute(ideal), (a, n)


def test_split_memo_keeps_the_longest_series_per_key() -> None:
    # One context serves the same ideal at truncation 40, then 20, then 40,
    # through hp_split (no tail) and hp_notation (the family tail implicit).
    # The memo is keyed by (pivot, generators on x_pivot and up, r, tail start)
    # alone: a smaller budget reads a prefix of the entry, and no call may
    # shorten what an earlier one kept.
    runs = [
        (lambda n, ctx: hp_split(build_L_k_ell(1, 1, 3, n), ctx=ctx), 0),
        (lambda n, ctx: hp_notation(1, 1, 3, n, ctx=ctx), 3),
    ]
    for run, r in runs:
        ctx = RunContext()
        longest: dict[tuple, tuple[int, ...]] = {}
        for n in (40, 20, 40):
            fresh = RunContext()
            assert run(n, ctx) == run(n, fresh), n
            for key, series in fresh.splits.items():
                longest[key] = max(longest.get(key, ()), series, key=len)
        assert ctx.splits
        for p, upper, key_r, tail in ctx.splits:
            assert all(g.exps[0][0] >= p for g in upper)
            assert key_r == r and (tail is None or (r and tail >= p))
        assert not r or any(key[3] is not None for key in ctx.splits)
        assert ctx.splits.keys() <= longest.keys()
        for key, series in ctx.splits.items():
            assert series == longest[key], key


def test_every_lift_multiplies_in_exactly_the_free_variables_below_the_pivot(monkeypatch) -> None:
    # The reduction's premise: below the pivot p every head generator is a
    # killed single variable, so the lift's factors 1/(1 - q^v) are exactly
    # the v in [m, p) that no head generator contains.
    lift = hilbert._lift
    seen = []

    def checked(series, m, p, gens):
        assert all(g.weight == g.exps[0][0] for g in gens if g.exps[0][0] < p), (p, gens)
        used = {v for g in gens for v, _ in g.exps}
        free = [v for v in range(m, min(p, len(series))) if v not in used]
        expected = TruncatedSeries(tuple(series)) * product_geometric_inverses(free, len(series) - 1)
        out = lift(series, m, p, gens)
        assert tuple(out) == expected.coeffs, (m, p, gens)
        seen.append(bool(free))
        return out

    monkeypatch.setattr(hilbert, "_lift", checked)
    for k, ell, r in [(1, 1, 2), (1, 2, 3), (2, 1, 3), (3, 2, 4), (4, 3, 3)]:
        hp_notation(k, ell, r, 30)
    rng = random.Random(7)
    for _ in range(10):
        hp_split(random_ideal(rng, 20))
    assert any(seen) and not all(seen)


def test_every_colon_gets_generators_on_its_pivot_and_up(monkeypatch) -> None:
    # The colon kernel's contract: `_split` hands it only the generators that
    # start at the pivot x_var or above, and some of them start above it.
    colon = hilbert._colon
    above = []

    def checked(gens, var, trunc):
        starts = [g.exps[0][0] for g in gens]
        assert all(v >= var for v in starts), (var, gens)
        above.append(any(v > var for v in starts))
        return colon(gens, var, trunc)

    monkeypatch.setattr(hilbert, "_colon", checked)
    for k, ell, r in [(1, 1, 2), (1, 2, 3), (2, 1, 3), (3, 2, 4), (4, 3, 3)]:
        hp_notation(k, ell, r, 30)
    rng = random.Random(7)
    for _ in range(10):
        hp_split(random_ideal(rng, 20))
    assert any(above)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(r=st.integers(2, 6), k=st.integers(1, 12), n=st.integers(0, 60), data=st.data())
def test_hp_notation_equals_brute_on_the_built_family_ideal(r: int, k: int, n: int, data) -> None:
    # the implicit tail against the whole family ideal, built and walked
    ell = data.draw(st.integers(1, r))
    expected = hp_brute(build_L_k_ell(k, ell, r, n))
    assert hp_notation(k, ell, r, n) == expected, (k, ell, r, n)


def test_verify_builds_no_family_ideal(monkeypatch) -> None:
    # every quotient series on the verify path comes from the implicit tail
    def refuse(*args, **kwargs):
        raise AssertionError("a family ideal was built")

    monkeypatch.setattr(hilbert, "build_L_k_ell", refuse)
    monkeypatch.setattr(hilbert, "_hp_notation_cached", refuse)
    monkeypatch.setattr(MonomialIdeal, "build", refuse)
    out = io.StringIO()
    argv = ["verify", "--lemmas", "--r", "2..4", "--i", "all", "--J", "0..2", "--N", "30"]
    assert cli.run(argv, stdout=out) == 0
    assert all(json.loads(line)["pass"] for line in out.getvalue().splitlines())


def test_engines_run_deeper_than_the_recursion_limit() -> None:
    # The colon chain of (x1^300, x2, ..., x300) is about 300 splits deep,
    # and the walk reaches x1^300 in the quotient by (x2, ..., x300).
    n = 300
    killed = [make_monomial({v: 1}) for v in range(2, n + 1)]
    chain = MonomialIdeal.build([make_monomial({1: n})] + killed, 1, n)
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


def test_splitting_step_locally_checkable() -> None:
    # HP(I) = q^k HP(I : x_k) + HP(I + x_k) holds for the brute engine alone
    rng = random.Random(99)
    for _ in range(10):
        ideal = random_ideal(rng, 18)
        if ideal.is_unit or not ideal.gens:
            continue
        pivot = min(v for g in ideal.gens for v, _ in g.exps)
        whole = hp_brute(ideal)
        low = hp_brute(colon_var(ideal, pivot))
        rest = hp_brute(add_var(ideal, pivot))
        assert whole.coeffs == (low.shift(pivot) + rest).coeffs


def test_hp_split_canonicalizes_a_hand_built_non_minimal_ideal() -> None:
    # x1 divides x1^2: unreduced, the add branch on pivot x1 would return the
    # same problem forever, so hp_split must minimalize what it is given
    gens = (
        make_monomial({1: 1}),
        make_monomial({1: 2}),
        make_monomial({2: 1, 3: 1}),
        make_monomial({2: 2, 3: 1}),
    )
    ideal = MonomialIdeal(gens, 1, 15)
    assert ideal != MonomialIdeal.build(gens, 1, 15)
    assert hp_split(ideal) == hp_brute(ideal)
    assert hp_split(ideal) == hp_brute(MonomialIdeal.build(gens, 1, 15))


def test_truncation_monotonicity_of_engines() -> None:
    small = hp_split(build_L_k_ell(1, 2, 2, 12))
    large = hp_split(build_L_k_ell(1, 2, 2, 24))
    assert large.coeffs[:13] == small.coeffs
