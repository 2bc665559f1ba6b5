"""Graded quotients by the boundary/gap ideal families and their series.

Two independent engines compute the Hilbert-Poincare series of a quotient by
a monomial ideal, truncated at degree N:

* hp_brute counts standard monomials (the oracle).  They form an order
  ideal, so one walk grows them part by part and never extends a monomial
  the ideal contains; the p(n) monomials of each weight are never listed.
* `_split`, the engine of hp_split and hp_notation, runs the splitting
      HP(A/I) = q^p * HP(A/(I : x_p)) + HP(A/(I, x_p))
  (Bayer and Stillman, "Computation of Hilbert functions", J. Symbolic
  Comput. 14, 1992) on the pivot x_p, the smallest variable of a generator
  that is not a single variable; both branches shrink the total degree of
  those generators, so it ends.  Each variable below p is killed or free,
  so the series is a lift, 1/(1 - q^v) over the free v below p, times the
  series of the generators on x_p and up.  A sub-problem is keyed by
  (p, those generators, r, tail start s) in `RunContext.splits`, with no
  budget: generators above a budget are never kept, so each key keeps its
  longest series and a smaller budget reads a prefix.  The kernels
  monomial._colon and _add change only the generators that contain x_p.
  For a family ideal the steps from s on stay implicit, and the pivot is
  at most s.  A split on x_p changes only steps p-2..p, and a generator
  that loses its last x_p lives on x_{p+1} and x_{p+2}, so it divides only
  generators of steps up to p+2: steps s..p+2 join the head before the
  split, and s moves to p+3.  The lift is the series of the free variables,
  not a partition count: a transfer matrix over part multiplicities would
  compute the gap side's `series_E` again.

Every command runs `_split` via hp_notation, which builds no family ideal;
hp_split runs it with no tail on a built ideal, as the tests' reference.
Both engines keep their own stack, clear of the recursion limit.

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
from .monomial import Monomial, MonomialIdeal, _add, _colon, _standard_counts, minimalize
from .qseries import TruncatedSeries


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
        gens += _step_gens(j, _cap(j, k, ell, r), r)
    return MonomialIdeal.build(gens, k, n)


def _cap(j: int, k: int, ell: int, r: int) -> int:
    """The cap of step j in the family at k: ell at j = k, and at j = k+1 for odd k."""
    return ell if j - k <= k % 2 else r


def build_L_k(k: int, r: int, n: int) -> MonomialIdeal:
    """Plain family ideal anchored at k: the gap conditions of every part >= k.

    `build_L_k_ell` validates r, k and n; its ell = r is valid whenever r is.
    """
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


# No caller in src/; kept while bench/tracer.py binds it (ROADMAP items 1, 4).
def hp_split(ideal: MonomialIdeal, *, ctx: RunContext | None = None) -> TruncatedSeries:
    """Hilbert-Poincare series of the quotient by `ideal`, by colon/add splitting.

    The input is canonicalized once, so a hand-built non-minimal ideal cannot stall
    the recursion; `_split` runs it with no tail on the memo of `ctx` (or a fresh one).
    """
    canonical = MonomialIdeal.build(ideal.gens, ideal.min_var, ideal.trunc)
    splits = (RunContext() if ctx is None else ctx).splits
    return _split(canonical.gens, canonical.min_var, canonical.trunc, splits)


def _split(
    head: tuple, min_var: int, n: int, splits: dict, r: int = 0, tail: int | None = None
) -> TruncatedSeries:
    """Series through degree n of the quotient of the ring on x_{min_var}, ... by the
    canonical `head` and, when `tail` is set, the steps `_step_gens(j, r, r)` of every
    j >= tail (see the module docstring)."""
    # A task (ring, head, tail, budget, None) solves a sub-problem; one ending in a
    # key combines the two solved branches of its split on key[0] and lifts the sum.
    # `solved` holds the series of finished sub-problems, the latest last.
    todo = [(min_var, head, tail, n, None)]
    solved: list[tuple[int, ...]] = []
    while todo:
        m, gens, s, budget, combine = todo.pop()
        if combine is not None:
            low = solved.pop()
            out = list(solved.pop())
            for j, c in enumerate(low):
                out[j + combine[0]] += c
            splits[combine] = tuple(out)
            solved.append(_lift(out, m, combine[0], gens))
            continue
        if gens and not gens[0].weight:
            solved.append((0,) * (budget + 1))
            continue
        if s is not None and 2 * s > budget:
            s = None  # every step from s on weighs more than the budget
        # a generator is a single variable exactly when it weighs its first variable
        p = budget + 1
        for w, exps in gens:
            v = exps[0][0]
            if v < p and v < w:
                p = v
        p = p if s is None else min(p, s)
        if p > budget:
            solved.append(_lift([1] + [0] * budget, m, p, gens))
            continue
        upper = tuple(g for g in gens if g.exps[0][0] >= p)
        key = (p, upper, r, s)
        cached = splits.get(key)
        if cached is not None and len(cached) > budget:
            solved.append(_lift(list(cached[: budget + 1]), m, p, gens))
            continue
        if s is not None and s <= p + 2:
            steps = [g for j in range(s, p + 3) for g in _step_gens(j, r, r) if g.weight <= budget]
            upper, s = tuple(sorted(upper + tuple(steps))), p + 3
        # Last in, first out: the add branch runs first, then the colon.
        todo.append((m, gens, None, budget, key))
        todo.append((p, _colon(upper, p, budget - p), s, budget - p, None))
        todo.append((p, _add(upper, p, budget), s, budget, None))
    return TruncatedSeries(tuple(solved.pop()))


def _lift(series: list[int], m: int, p: int, gens: tuple) -> tuple[int, ...]:
    """`series` times 1/(1 - q^v), in place, for each v in [m, p) that starts no
    generator: below the pivot p every generator is a killed single variable."""
    starts = {g.exps[0][0] for g in gens}
    for v in range(m, min(p, len(series))):
        if v not in starts:
            for j in range(v, len(series)):
                series[j] += series[j - v]
    return tuple(series)


# No caller in src/; kept while bench/tracer.py reads its cache_info() (ROADMAP item 1).
@lru_cache(maxsize=None)
def _hp_notation_cached(k: int, ell: int, r: int, n: int) -> MonomialIdeal:
    return build_L_k_ell(k, ell, r, n)


def hp_notation(
    k: int, ell: int | None, r: int, n: int, *, ctx: RunContext | None = None
) -> TruncatedSeries:
    """Series of the quotient by the family ideal at k (plain when ell is None).

    The plain ideal is the one with cap ell = r.  No family ideal is built: the
    root head is the minimal set of steps k..k+2 (ell caps steps k and k+1 only),
    and `_split` leaves the steps from k+3 on implicit, on the memo of `ctx`.
    """
    check_params(r=r, k=k, ell=ell, n=n)
    ell = r if ell is None else ell
    steps = [g for j in range(k, k + 3) for g in _step_gens(j, _cap(j, k, ell, r), r)]
    splits = (RunContext() if ctx is None else ctx).splits
    return _split(minimalize(g for g in steps if g.weight <= n), k, n, splits, r, k + 3)
