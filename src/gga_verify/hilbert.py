"""Graded quotients by the boundary/gap ideal families and their series.

Two independent engines compute the Hilbert-Poincare series of a quotient by
a monomial ideal, truncated at degree N:

* hp_brute counts standard monomials (the oracle).  They form an order
  ideal, so one walk grows them part by part and never extends a monomial
  the ideal contains; the p(n) monomials of each weight are never listed.
* hp_split runs the splitting identity
      HP(A/I) = q^w * HP(A/(I : f)) + HP(A/(I, f))
  for a pivot variable f = x_k of weight w = k (Bayer and Stillman,
  "Computation of Hilbert functions", J. Symbolic Comput. 14, 1992).  The
  colon and the sum change at most the generators that contain f, so each
  step keeps the generators canonical without re-minimalizing them.  It
  keeps its memo in the run context (`RunContext.splits`), keyed by the
  ambient ring's min_var, the sorted tuple of `Monomial` generators and the
  budget, so the cells of one run share their sub-problems.

Both engines keep their own stack, so neither is bounded by the
interpreter's recursion limit.

The ideal families encode the gap conditions of the partition identities:
squares of odd variables, odd-even neighbor products, and two staircase
families on consecutive even variables, all anchored at a starting index,
plus three boundary generators controlling the smallest two variables.
"""

from __future__ import annotations

from functools import lru_cache

from .context import RunContext
from .errors import check_params
from .monomial import Monomial, MonomialIdeal, _add, _colon, _standard_counts
from .qseries import TruncatedSeries, product_geometric_inverses


def _x(var: int, exp: int = 1) -> Monomial:
    return Monomial.make({var: exp})


def _gap_family_gens(start: int, r: int, n: int) -> list[Monomial]:
    """Generators with all base indices >= start, weight-truncated at n.

    Four families: x_odd^2; x_odd * x_{odd+1}^{r-1}; x_even^{r-n1} * x_{even+2}^{n1}
    for 0 <= n1 <= r-1; x_even^{r-n2-1} * x_{even+1} * x_{even+2}^{n2} for
    0 <= n2 <= r-2.  Base indices above n are useless: any such generator
    already weighs more than n.
    """
    gens: list[Monomial] = []
    for odd in range(start + (start % 2 == 0), n + 1, 2):
        gens.append(_x(odd, 2))
        gens.append(Monomial.make({odd: 1, odd + 1: r - 1}))
    for even in range(start + (start % 2 == 1), n + 1, 2):
        for n1 in range(r):
            gens.append(Monomial.make({even: r - n1, even + 2: n1}))
        for n2 in range(r - 1):
            gens.append(Monomial.make({even: r - n2 - 1, even + 1: 1, even + 2: n2}))
    return [g for g in gens if g.weight <= n]


def build_L_riJ(r: int, i: int, J: int, n: int) -> MonomialIdeal:
    """Boundary ideal in the ring on x_{2J+1}, x_{2J+2}, ...

    Generators: x_{2J+1}^2, x_{2J+1} * x_{2J+2}^{i-1}, x_{2J+2}^i, plus the
    gap families anchored at 2J+2.  At i = 1 the middle generator degenerates
    to x_{2J+1}, which then subsumes the square.
    """
    check_params(r=r, i=i, J=J, n=n)
    k0 = 2 * J + 1
    gens = [
        _x(k0, 2),
        Monomial.make({k0: 1, k0 + 1: i - 1}),
        _x(k0 + 1, i),
    ]
    gens += _gap_family_gens(k0 + 1, r, n)
    return MonomialIdeal.build(gens, k0, n)


def build_L_k(k: int, r: int, n: int) -> MonomialIdeal:
    """Pure gap-family ideal anchored at k, in the ring on x_k, x_{k+1}, ..."""
    check_params(r=r, k=k, n=n)
    return MonomialIdeal.build(_gap_family_gens(k, r, n), k, n)


def build_L_k_ell(k: int, ell: int, r: int, n: int) -> MonomialIdeal:
    """Interpolating ideal between consecutive gap-family ideals.

    For odd k: (x_k^2, x_k * x_{k+1}^{ell-1}) plus the even-index step below
    at k+1.  For even k: x_k^ell, the staircase x_k^{ell-j} * x_{k+2}^{r-ell+j}
    for 1 <= j <= ell-1, the staircase x_k^{ell-1-j} * x_{k+1} * x_{k+2}^{r-ell+j}
    for 0 <= j <= ell-2, plus the plain family ideal at k+1.  Empty staircase
    ranges contribute nothing, so ell = 1 at even k is just (x_k) plus the
    family ideal.
    """
    check_params(r=r, k=k, ell=ell, n=n)
    gens: list[Monomial] = []
    j = k
    if j % 2 == 1:
        gens.append(_x(j, 2))
        gens.append(Monomial.make({j: 1, j + 1: ell - 1}))
        j += 1
    if j <= n:
        gens.append(_x(j, ell))
        for step in range(1, ell):
            gens.append(Monomial.make({j: ell - step, j + 2: r - ell + step}))
        for step in range(ell - 1):
            gens.append(Monomial.make({j: ell - 1 - step, j + 1: 1, j + 2: r - ell + step}))
        gens += _gap_family_gens(j + 1, r, n)
    return MonomialIdeal.build(gens, k, n)


def hp_brute(ideal: MonomialIdeal) -> TruncatedSeries:
    """Hilbert-Poincare series of the quotient by `ideal`, by standard-monomial counting.

    One walk over the standard monomials of weight <= ideal.trunc counts every
    degree; see monomial._standard_counts for the order-ideal argument.
    """
    return TruncatedSeries(tuple(_standard_counts(ideal, ideal.trunc)))


def _pivot_var(gens: tuple[Monomial, ...]) -> int | None:
    """Smallest variable occurring in a generator that is not a single variable.

    Single-variable generators only mark killed variables: splitting on one
    of them is a fixed point of the (I, f) branch and must be excluded for
    the recursion to terminate.  By minimality a killed variable occurs in no
    other generator, so the pivot never collides with one.
    """
    best: int | None = None
    for _, exps in gens:
        if len(exps) > 1 or exps[0][1] > 1:
            v = exps[0][0]
            if best is None or v < best:
                best = v
    return best


def _free_series(
    splits: dict[tuple, tuple[int, ...]], min_var: int, gens: tuple[Monomial, ...], budget: int
) -> tuple[int, ...]:
    """Series of the quotient by the single variables `gens`, through `budget`.

    It is the product of 1/(1 - q^v) over the variables that are not killed.
    The factors with v > budget only reach degrees above the budget, so the
    series at a smaller budget is a prefix of the one at a larger budget:
    one series per killed set, at the largest budget asked for, serves all.
    """
    key = (min_var, gens)
    series = splits.get(key)
    if series is None or len(series) <= budget:
        killed = {exps[0][0] for _, exps in gens}
        parts = [v for v in range(min_var, budget + 1) if v not in killed]
        splits[key] = series = product_geometric_inverses(parts, budget).coeffs
    return series[: budget + 1]


def hp_split(ideal: MonomialIdeal, *, ctx: RunContext | None = None) -> TruncatedSeries:
    """Hilbert-Poincare series of the quotient by `ideal`, by colon/add splitting.

    Each step picks the pivot x_k with k the smallest variable index in any
    non-simple minimal generator and splits the quotient along it.  The
    recursion terminates because both branches strictly shrink the total
    degree of non-simple generators: the colon branch lowers the pivot's
    exponent in at least one of them, and the add branch absorbs every
    generator that contains the pivot.  The shift budget is bounded by the
    truncation, so colon chains are pruned once their accumulated weight
    exceeds the degrees still being certified: the colon ideal keeps the
    generators within the smaller budget, which, as a subset of a minimal
    set, is still minimal.

    The input is canonicalized once, so a hand-built non-minimal ideal
    cannot stall the recursion; every sub-problem is a sorted tuple of
    `Monomial` generators, made by the kernels monomial._colon and _add.
    Solved sub-problems go to `ctx.splits` under (min_var, generators,
    budget), so they are shared by every call made with the same context; a
    call without one gets a fresh context.  The recursion runs on an
    explicit stack of tasks, so a colon chain of any length fits.
    """
    canonical = MonomialIdeal.build(ideal.gens, ideal.min_var, ideal.trunc)
    return _split_canonical(canonical, (RunContext() if ctx is None else ctx).splits)


def _split_canonical(ideal: MonomialIdeal, splits: dict[tuple, tuple[int, ...]]) -> TruncatedSeries:
    """The engine of hp_split, on an ideal whose generators are already canonical."""
    min_var = ideal.min_var
    n = ideal.trunc
    # A task (gens, budget, None) solves a sub-problem; (gens, budget, pivot)
    # combines its two solved branches.  `solved` holds the series of
    # finished sub-problems, the most recent last.
    todo = [(ideal.gens, n, None)]
    solved: list[tuple[int, ...]] = []
    while todo:
        gens, budget, pivot = todo.pop()
        if pivot is not None:
            low = solved.pop()
            out = list(solved.pop())
            for j, c in enumerate(low):
                out[j + pivot] += c
            splits[(min_var, gens, budget)] = result = tuple(out)
            solved.append(result)
            continue
        if gens and not gens[0].weight:
            solved.append((0,) * (budget + 1))
            continue
        pivot = _pivot_var(gens)
        if pivot is None:
            solved.append(_free_series(splits, min_var, gens, budget))
            continue
        cached = splits.get((min_var, gens, budget))
        if cached is not None:
            solved.append(cached)
            continue
        # Last in, first out: the add branch runs first, then the colon.  The
        # pivot is the smallest variable of a generator of degree >= 2 and
        # weight <= budget, so the colon's budget is at least the pivot.
        todo.append((gens, budget, pivot))
        sub_budget = budget - pivot
        todo.append((_colon(gens, pivot, sub_budget), sub_budget, None))
        todo.append((_add(gens, pivot, budget), budget, None))
    return TruncatedSeries(solved.pop())


@lru_cache(maxsize=None)
def _hp_notation_cached(k: int, ell: int | None, r: int, n: int) -> MonomialIdeal:
    if ell is None:
        return build_L_k(k, r, n)
    return build_L_k_ell(k, ell, r, n)


def hp_notation(
    k: int, ell: int | None, r: int, n: int, *, ctx: RunContext | None = None
) -> TruncatedSeries:
    """Series of the quotient by the family ideal at k (plain when ell is None).

    The ideal is cached for the life of the process: the arguments fully
    determine it, and it is immutable.  The builders make it canonical, so
    its series comes from the engine behind `hp_split` with no second
    canonicalization.  The engine runs on `ctx`, so a repeated call in one
    run finds its root in `ctx.splits`.
    """
    check_params(r=r, k=k, ell=ell, n=n)
    splits = (RunContext() if ctx is None else ctx).splits
    return _split_canonical(_hp_notation_cached(k, ell, r, n), splits)
