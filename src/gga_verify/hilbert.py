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
  ambient ring's min_var and the sorted tuple of `Monomial` generators, so
  the cells of one run share their sub-problems; each key holds the longest
  series computed for it, and a smaller budget reads a prefix.

Both engines keep their own stack, so neither is bounded by the
interpreter's recursion limit.

The ideal families encode the gap conditions of the partition identities:
squares of odd variables, odd-even neighbor products, and two staircase
families on consecutive even variables.  One builder, `build_L_k_ell`,
makes all of them from the generators whose smallest variable is x_j, for
each j from the anchor k up; the cap ell on the first one or two steps
gives the boundary ideals, and ell = r the plain family.
"""

from __future__ import annotations

from functools import lru_cache

from .context import RunContext
from .errors import check_params
from .monomial import Monomial, MonomialIdeal, _add, _colon, _standard_counts
from .qseries import TruncatedSeries, product_geometric_inverses


def _step_gens(j: int, cap: int, r: int) -> list[Monomial]:
    """The family generators whose smallest variable is x_j, with cap `cap`.

    Odd j: x_j^2 and x_j * x_{j+1}^{cap-1}.  Even j: x_j^cap, the staircase
    x_j^{cap-s} * x_{j+2}^{r-cap+s} for 1 <= s <= cap-1, and the staircase
    x_j^{cap-1-s} * x_{j+1} * x_{j+2}^{r-cap+s} for 0 <= s <= cap-2.  Zero
    exponents are left out, so at cap = 1 the odd pair's second generator
    is x_j itself.
    """
    if j % 2:
        terms = [((j, 2),), ((j, 1), (j + 1, cap - 1))]
    else:
        terms = [((j, cap),)]
        terms += [((j, cap - s), (j + 2, r - cap + s)) for s in range(1, cap)]
        terms += [((j, cap - 1 - s), (j + 1, 1), (j + 2, r - cap + s)) for s in range(cap - 1)]
    trimmed = [tuple((v, e) for v, e in term if e) for term in terms]
    return [Monomial(sum(v * e for v, e in exps), exps) for exps in trimmed]


def build_L_k_ell(k: int, ell: int, r: int, n: int) -> MonomialIdeal:
    """The family ideal anchored at k with cap ell, in the ring on x_k, x_{k+1}, ...

    Its generators are the `_step_gens` of every j >= k: cap ell at j = k,
    and also at j = k+1 when k is odd; cap r everywhere else.  At ell = r it
    is the plain family ideal L_k, and at k = 2J+1, ell = i the boundary
    ideal L(r, i, J).  Base indices above n are useless: any generator on
    them already weighs more than n.
    """
    check_params(r=r, k=k, ell=ell, n=n)
    gens: list[Monomial] = []
    for j in range(k, n + 1):
        gens += _step_gens(j, ell if j - k <= k % 2 else r, r)
    return MonomialIdeal.build(gens, k, n)


def build_L_k(k: int, r: int, n: int) -> MonomialIdeal:
    """Plain family ideal anchored at k: the gap conditions of every part >= k."""
    check_params(r=r, k=k, n=n)
    return build_L_k_ell(k, r, r, n)


def build_L_riJ(r: int, i: int, J: int, n: int) -> MonomialIdeal:
    """Boundary ideal: the family ideal at k = 2J+1 with cap i.

    Its generators on x_{2J+1} are x_{2J+1}^2 and x_{2J+1} * x_{2J+2}^{i-1},
    which at i = 1 degenerates to x_{2J+1} and subsumes the square.
    """
    check_params(r=r, i=i, J=J, n=n)
    return build_L_k_ell(2 * J + 1, i, r, n)


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


def _free_series(min_var: int, gens: tuple[Monomial, ...], budget: int) -> tuple[int, ...]:
    """Series of the quotient by the single variables `gens`: 1/(1 - q^v) over the others."""
    killed = {exps[0][0] for _, exps in gens}
    parts = [v for v in range(min_var, budget + 1) if v not in killed]
    return product_geometric_inverses(parts, budget).coeffs


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
    Solved sub-problems go to `ctx.splits` under (min_var, generators), so
    every call with the same context shares them; a call without one gets a
    fresh context.  The key needs no budget: a sub-problem's generators
    exclude every one above its budget, so equal keys are one ideal, whose
    series at a larger budget serves a smaller one as a prefix.  A key is
    recomputed only when its entry is too short, so it keeps the longest.
    The recursion runs on an explicit stack, so any colon chain fits.
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
            splits[(min_var, gens)] = result = tuple(out)
            solved.append(result)
            continue
        if gens and not gens[0].weight:
            solved.append((0,) * (budget + 1))
            continue
        key = (min_var, gens)
        cached = splits.get(key)
        if cached is not None and len(cached) > budget:
            solved.append(cached[: budget + 1])
            continue
        pivot = _pivot_var(gens)
        if pivot is None:
            splits[key] = series = _free_series(min_var, gens, budget)
            solved.append(series)
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
def _hp_notation_cached(k: int, ell: int, r: int, n: int) -> MonomialIdeal:
    return build_L_k_ell(k, ell, r, n)


def hp_notation(
    k: int, ell: int | None, r: int, n: int, *, ctx: RunContext | None = None
) -> TruncatedSeries:
    """Series of the quotient by the family ideal at k (plain when ell is None).

    The plain ideal is the one with cap ell = r, so ell = None is read as r
    before the cache and both spellings share one entry.  The ideal is
    cached for the life of the process: the arguments fully determine it,
    and it is immutable.  The builder makes it canonical, so its series
    comes from the engine behind `hp_split` with no second
    canonicalization.  The engine runs on `ctx`, so a repeated call in one
    run finds its root in `ctx.splits`.
    """
    check_params(r=r, k=k, ell=ell, n=n)
    splits = (RunContext() if ctx is None else ctx).splits
    return _split_canonical(_hp_notation_cached(k, r if ell is None else ell, r, n), splits)
