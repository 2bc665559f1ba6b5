"""Monomials and monomial ideals in the weight-graded ring on x_k (k >= 1).

The variable x_k carries weight k, so a monomial encodes a partition (the
part k appears with the exponent of x_k) and its weight is the partitioned
integer.  Ideals live in the ring on x_{min_var}, x_{min_var+1}, ... and are
kept in canonical form: a minimal generating set, sorted, with generators of
weight above the truncation discarded since they cannot divide any monomial
that is still counted.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import DegreeBeyondTruncation, check_params


@dataclass(frozen=True)
class Monomial:
    """Sparse exponent vector, stored as ((var, exp), ...) with ascending var."""

    exps: tuple[tuple[int, int], ...]

    @classmethod
    def make(cls, exps: Mapping[int, int]) -> Monomial:
        """Build from a var -> exp mapping; zero exponents are dropped."""
        items = []
        for var, exp in sorted(exps.items()):
            if var < 1:
                raise ValueError(f"variable index {var} must be >= 1")
            if exp < 0:
                raise ValueError(f"negative exponent {exp} on x_{var}")
            if exp:
                items.append((var, exp))
        return cls(tuple(items))

    @property
    def is_unit(self) -> bool:
        return not self.exps

    @property
    def weight(self) -> int:
        return sum(var * exp for var, exp in self.exps)

    def exponent(self, var: int) -> int:
        return _exponent(self.exps, var)

    def divides(self, other: Monomial) -> bool:
        """True iff every exponent of self is <= the matching one of other."""
        return _divides(self.exps, other.exps)

    def min_variable(self) -> int | None:
        return self.exps[0][0] if self.exps else None

    def sort_key(self) -> tuple:
        return (self.weight, self.exps)

    def __str__(self) -> str:
        if not self.exps:
            return "1"
        return "*".join(
            f"x{var}^{exp}" if exp > 1 else f"x{var}" for var, exp in self.exps
        )


UNIT = Monomial(())


Exps = tuple[tuple[int, int], ...]


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


# A packed generator is the plain tuple (weight, exps) of a Monomial.  Tuple
# order on it is Monomial.sort_key, so a sorted tuple of packed generators is
# a canonical generator set that sorts without a key function and never
# recomputes a weight.  hp_split runs on packed generators throughout.
Packed = tuple[int, Exps]


def _pack(gens: Iterable[Monomial]) -> tuple[Packed, ...]:
    return tuple((g.weight, g.exps) for g in gens)


def _unpack(packed: Iterable[Packed]) -> tuple[Monomial, ...]:
    return tuple(Monomial(exps) for _, exps in packed)


def minimalize(monomials: Iterable[Monomial]) -> tuple[Monomial, ...]:
    """Divisibility-minimal subset generating the same ideal, sorted."""
    kept: list[Exps] = []
    for _, exps in sorted(set(_pack(monomials))):
        # the pool is sorted by weight, so no later element can divide this one
        if not any(_divides(k, exps) for k in kept):
            kept.append(exps)
    return tuple(Monomial(exps) for exps in kept)


@dataclass(frozen=True)
class MonomialIdeal:
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
            mv = g.min_variable()
            if mv is not None and mv < min_var:
                raise ValueError(f"generator {g} uses x_{mv} below the ambient ring x_{min_var}")
            if g.weight <= trunc:
                kept.append(g)
        return cls(minimalize(kept), min_var, trunc)

    @property
    def is_unit(self) -> bool:
        return bool(self.gens) and self.gens[0].is_unit

    def contains(self, m: Monomial) -> bool:
        return any(g.divides(m) for g in self.gens)

    def __str__(self) -> str:
        return "(" + ", ".join(str(g) for g in self.gens) + ")"


def _colon(gens: tuple[Packed, ...], var: int, trunc: int) -> tuple[Packed, ...]:
    """(I : x_var) on sorted packed generators, keeping those of weight <= trunc.

    Each generator divisible by x_var loses one power of it; the rest stay.
    The changed generators stay pairwise incomparable, since g/x_var | h/x_var
    would give g | h.  No unchanged generator divides a changed one, since
    u | g/x_var would give u | g.  So minimality can fail only where a
    changed generator divides an unchanged one, and those unchanged ones go.
    Generators that weigh more than trunc are dropped first.  That decides
    nothing about the others, since a divisor weighs no more than what it
    divides.
    """
    changed: list[Packed] = []
    rest: list[Packed] = []
    for w, exps in gens:
        if _exponent(exps, var):
            if w - var <= trunc:
                cut = tuple((v, e - (v == var)) for v, e in exps if v != var or e > 1)
                changed.append((w - var, cut))
        elif w <= trunc:
            rest.append((w, exps))
    if not changed:
        return tuple(rest)
    kept = [g for g in rest if not any(_divides(c, g[1]) for _, c in changed)]
    return tuple(sorted(changed + kept))


def _add(gens: tuple[Packed, ...], var: int, trunc: int) -> tuple[Packed, ...]:
    """I + (x_var) on sorted packed generators.

    When x_var lies outside I, no generator divides x_var, and x_var divides
    exactly the generators that contain it: those go and x_var comes in.
    When x_var lies in I (I is the unit ideal or has x_var among its
    generators), or weighs more than the truncation, I is unchanged.
    """
    x = (var, ((var, 1),))
    if var > trunc or (gens and not gens[0][0]) or x in gens:
        return gens
    kept = [g for g in gens if not _exponent(g[1], var)]
    insort(kept, x)
    return tuple(kept)


def colon_var(ideal: MonomialIdeal, var: int) -> MonomialIdeal:
    """The colon ideal (I : x_var), kept canonical without re-minimalizing (see _colon)."""
    if var < ideal.min_var:
        raise ValueError(f"x_{var} below ambient ring x_{ideal.min_var}")
    gens = _unpack(_colon(_pack(ideal.gens), var, ideal.trunc))
    return MonomialIdeal(gens, ideal.min_var, ideal.trunc)


def add_var(ideal: MonomialIdeal, var: int) -> MonomialIdeal:
    """The enlarged ideal I + (x_var), kept canonical without re-minimalizing (see _add)."""
    if var < ideal.min_var:
        raise ValueError(f"x_{var} below ambient ring x_{ideal.min_var}")
    gens = _unpack(_add(_pack(ideal.gens), var, ideal.trunc))
    return MonomialIdeal(gens, ideal.min_var, ideal.trunc)


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
    ending_at: dict[int, list[tuple[tuple[int, int], ...]]] = {}
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


def standard_count(ideal: MonomialIdeal, weight: int) -> int:
    """Dimension of the degree-`weight` graded piece of the quotient.

    Field-independent: it is the number of weight-`weight` monomials in
    variables >= min_var not divisible by any generator.
    """
    if weight < 0:
        raise ValueError(f"negative degree {weight}")
    if weight > ideal.trunc:
        raise DegreeBeyondTruncation(
            f"degree {weight} beyond ideal truncation {ideal.trunc}"
        )
    return _standard_counts(ideal, weight)[weight]
