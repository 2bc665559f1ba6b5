"""Monomials and monomial ideals in the weight-graded ring on x_k (k >= 1).

The variable x_k carries weight k, so a monomial encodes a partition (the
part k appears with the exponent of x_k) and its weight is the partitioned
integer.  Ideals live in the ring on x_{min_var}, x_{min_var+1}, ... and are
kept in canonical form: a minimal generating set, sorted, with generators of
weight above the truncation discarded since they cannot divide any monomial
that is still counted.

A monomial is the named tuple (weight, exps) with its weight stored, so the
builders, `minimalize`, the colon and add kernels and the splitting memo of
`hilbert._split` all run on one type, in plain tuple order; an ideal is the
named tuple (gens, min_var, trunc), made canonical by `MonomialIdeal.build`.
"""

from __future__ import annotations

from bisect import insort
from typing import Iterable, NamedTuple

from .errors import TruncationTooShort, check_params

Exps = tuple[tuple[int, int], ...]


class Monomial(NamedTuple):
    """A monomial as (weight, exps): exps is ((var, exp), ...) with ascending var.

    The weight is stored, not recomputed, so tuple order sorts by weight and
    then by exponents: a sorted tuple of monomials is a canonical generator
    set that sorts, hashes and compares as a plain tuple.
    """

    weight: int
    exps: Exps

    def __str__(self) -> str:
        if not self.exps:
            return "1"
        return "*".join(
            f"x{var}^{exp}" if exp > 1 else f"x{var}" for var, exp in self.exps
        )


def _exponent(exps: Exps, var: int) -> int:
    for v, e in exps:
        if v == var:
            return e
        if v > var:
            break
    return 0


def _divides(small: Exps, big: Exps) -> bool:
    """True iff every exponent of `small` is <= the matching one of `big`."""
    it = iter(big)
    for var, exp in small:
        for v, e in it:
            if v == var:
                if e < exp:
                    return False
                break
            if v > var:
                return False
        else:
            return False
    return True


def minimalize(monomials: Iterable[Monomial]) -> tuple[Monomial, ...]:
    """Divisibility-minimal subset generating the same ideal, sorted."""
    kept: list[Monomial] = []
    for m in sorted(set(monomials)):
        # the pool is sorted by weight, so no later element can divide this one
        if not any(_divides(k.exps, m.exps) for k in kept):
            kept.append(m)
    return tuple(kept)


class MonomialIdeal(NamedTuple):
    """Canonical monomial ideal: minimal sorted generators, ambient min_var, trunc."""

    gens: tuple[Monomial, ...]
    min_var: int
    trunc: int

    @classmethod
    def build(cls, gens: Iterable[Monomial], min_var: int, trunc: int) -> MonomialIdeal:
        if min_var < 1:
            raise ValueError(f"min_var {min_var} must be >= 1")
        check_params(n=trunc)
        kept = []
        for g in gens:
            if g.exps and g.exps[0][0] < min_var:
                raise ValueError(
                    f"generator {g} uses x_{g.exps[0][0]} below the ambient ring x_{min_var}"
                )
            weight = sum(var * exp for var, exp in g.exps)
            if g.weight != weight:
                raise ValueError(f"generator {g} stores weight {g.weight}, not {weight}")
            if g.weight <= trunc:
                kept.append(g)
        return cls(minimalize(kept), min_var, trunc)

    @property
    def is_unit(self) -> bool:
        return bool(self.gens) and not self.gens[0].exps

    def __str__(self) -> str:
        return "(" + ", ".join(str(g) for g in self.gens) + ")"


def _colon(gens: tuple[Monomial, ...], var: int, trunc: int) -> tuple[Monomial, ...]:
    """(I : x_var) on sorted generators, keeping those of weight <= trunc.

    Each generator divisible by x_var loses one power of it; the rest stay.
    The changed generators stay pairwise incomparable, since g/x_var | h/x_var
    would give g | h.  No unchanged generator divides a changed one, since
    u | g/x_var would give u | g.  So minimality can fail only where a
    changed generator divides an unchanged one, which lacks x_var: only a
    changed generator that lost its last x_var can, and the unchanged ones
    it divides go.  Generators that weigh more than trunc are dropped first.
    That decides nothing about the others, since a divisor weighs no more
    than what it divides.
    """
    changed: list[Monomial] = []
    lost: list[Exps] = []
    rest: list[Monomial] = []
    for g in gens:
        w, exps = g
        power = _exponent(exps, var)
        if power:
            if w - var <= trunc:
                cut = tuple((v, e - (v == var)) for v, e in exps if v != var or e > 1)
                changed.append(Monomial(w - var, cut))
                if power == 1:
                    lost.append(cut)
        elif w <= trunc:
            rest.append(g)
    if lost:
        rest = [g for g in rest if not any(_divides(c, g.exps) for c in lost)]
    return tuple(sorted(changed + rest)) if changed else tuple(rest)


def _add(gens: tuple[Monomial, ...], var: int, trunc: int) -> tuple[Monomial, ...]:
    """I + (x_var) on sorted generators.

    When x_var lies outside I, no generator divides x_var, and x_var divides
    exactly the generators that contain it: those go and x_var comes in.
    When x_var lies in I (I is the unit ideal or has x_var among its
    generators), or weighs more than the truncation, I is unchanged.
    """
    x = Monomial(var, ((var, 1),))
    if var > trunc or (gens and not gens[0].weight) or x in gens:
        return gens
    kept = [g for g in gens if not _exponent(g.exps, var)]
    insort(kept, x)
    return tuple(kept)


# No caller in src/; kept while bench/tracer.py binds it (ROADMAP item 1).
def colon_var(ideal: MonomialIdeal, var: int) -> MonomialIdeal:
    """The colon ideal (I : x_var), kept canonical without re-minimalizing (see _colon)."""
    if var < ideal.min_var:
        raise ValueError(f"x_{var} below ambient ring x_{ideal.min_var}")
    return MonomialIdeal(_colon(ideal.gens, var, ideal.trunc), ideal.min_var, ideal.trunc)


# No caller in src/; kept while bench/tracer.py binds it (ROADMAP item 1).
def add_var(ideal: MonomialIdeal, var: int) -> MonomialIdeal:
    """The enlarged ideal I + (x_var), kept canonical without re-minimalizing (see _add)."""
    if var < ideal.min_var:
        raise ValueError(f"x_{var} below ambient ring x_{ideal.min_var}")
    return MonomialIdeal(_add(ideal.gens, var, ideal.trunc), ideal.min_var, ideal.trunc)


def _standard_counts(ideal: MonomialIdeal, n: int) -> list[int]:
    """Number of standard monomials of each weight 0..n, in one walk.

    Standard monomials form an order ideal: every divisor of one is one
    (Bayer and Stillman, "Computation of Hilbert functions", J. Symbolic
    Comput. 14, 1992).  The walk grows monomials by parts in non-decreasing
    order and never extends a monomial the ideal contains, so it visits the
    standard monomials and their immediate non-standard extensions only.
    Appending x_v to a standard m, whose variables are all <= v, can only
    meet a generator whose largest variable is v: one without x_v would
    already divide m.  The walk keeps its own stack, so its depth (the
    number of parts) is not bounded by the interpreter's recursion limit.
    """
    counts = [0] * (n + 1)
    if ideal.is_unit:
        return counts
    ending_at: dict[int, list[Exps]] = {}
    for g in ideal.gens:
        ending_at.setdefault(g.exps[-1][0], []).append(g.exps)
    exps = [0] * (n + 1)
    counts[0] = 1
    # One frame per part of the current monomial: (next part to try, weight
    # so far, the part that frame added).  The root frame added none; it
    # names 0, a slot no generator reads.
    stack = [(ideal.min_var, 0, 0)]
    while stack:
        v, w, last = stack[-1]
        if v > n - w:
            stack.pop()
            exps[last] -= 1
            continue
        stack[-1] = (v + 1, w, last)
        exps[v] += 1
        if any(all(exps[u] >= e for u, e in g) for g in ending_at.get(v, ())):
            exps[v] -= 1
        else:
            counts[w + v] += 1
            stack.append((v, w + v, v))
    return counts


# No caller in src/; kept while bench/tracer.py binds it (ROADMAP item 1).
def standard_count(ideal: MonomialIdeal, weight: int) -> int:
    """Dimension of the degree-`weight` piece of the quotient: the number of
    weight-`weight` monomials in variables >= min_var that no generator divides."""
    if weight < 0:
        raise ValueError(f"negative degree {weight}")
    if weight > ideal.trunc:
        raise TruncationTooShort(f"degree {weight} beyond ideal truncation {ideal.trunc}")
    return _standard_counts(ideal, weight)[weight]
