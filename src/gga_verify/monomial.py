"""Monomials and monomial ideals in the weight-graded ring on x_k (k >= 1).

The variable x_k carries weight k, so a monomial encodes a partition (the
part k appears with the exponent of x_k) and its weight is the partitioned
integer.  Ideals live in the ring on x_{min_var}, x_{min_var+1}, ... and are
kept in canonical form: a minimal generating set, sorted, with generators of
weight above the truncation discarded since they cannot divide any monomial
that is still counted.
"""

from __future__ import annotations

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

    @classmethod
    def from_parts(cls, parts: Iterable[int]) -> Monomial:
        """The monomial whose exponent of x_k is the multiplicity of part k."""
        exps: dict[int, int] = {}
        for p in parts:
            exps[p] = exps.get(p, 0) + 1
        return cls.make(exps)

    @property
    def is_unit(self) -> bool:
        return not self.exps

    @property
    def weight(self) -> int:
        return sum(var * exp for var, exp in self.exps)

    @property
    def degree(self) -> int:
        return sum(exp for _, exp in self.exps)

    def exponent(self, var: int) -> int:
        for v, e in self.exps:
            if v == var:
                return e
        return 0

    def divides(self, other: Monomial) -> bool:
        """True iff every exponent of self is <= the matching one of other."""
        it = iter(other.exps)
        for var, exp in self.exps:
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

    def mul_var(self, var: int, exp: int = 1) -> Monomial:
        return Monomial.make(dict(self.exps) | {var: self.exponent(var) + exp})

    def div_var(self, var: int) -> Monomial:
        e = self.exponent(var)
        if e < 1:
            raise ValueError(f"{self} is not divisible by x_{var}")
        return Monomial.make(dict(self.exps) | {var: e - 1})

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


def minimalize(monomials: Iterable[Monomial]) -> tuple[Monomial, ...]:
    """Divisibility-minimal subset generating the same ideal, sorted."""
    pool = sorted(set(monomials), key=Monomial.sort_key)
    kept: list[Monomial] = []
    for m in pool:
        # pool is sorted by weight, so no later element can divide m
        if not any(k.divides(m) for k in kept):
            kept.append(m)
    return tuple(kept)


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

    @property
    def is_zero(self) -> bool:
        return not self.gens

    def contains(self, m: Monomial) -> bool:
        return any(g.divides(m) for g in self.gens)

    def __str__(self) -> str:
        return "(" + ", ".join(str(g) for g in self.gens) + ")"


def colon_var(ideal: MonomialIdeal, var: int) -> MonomialIdeal:
    """The colon ideal (I : x_var), kept canonical without re-minimalizing.

    Each generator divisible by x_var loses one power of it; the rest stay.
    The changed generators stay pairwise incomparable, since g/x_var | h/x_var
    would give g | h.  No unchanged generator divides a changed one, since
    u | g/x_var would give u | g.  So minimality can fail only where a
    changed generator divides an unchanged one, and those unchanged ones go.
    """
    if var < ideal.min_var:
        raise ValueError(f"x_{var} below ambient ring x_{ideal.min_var}")
    changed = [g.div_var(var) for g in ideal.gens if g.exponent(var)]
    if not changed:
        return ideal
    kept = [
        g for g in ideal.gens
        if not g.exponent(var) and not any(c.divides(g) for c in changed)
    ]
    gens = tuple(sorted(changed + kept, key=Monomial.sort_key))
    return MonomialIdeal(gens, ideal.min_var, ideal.trunc)


def add_var(ideal: MonomialIdeal, var: int) -> MonomialIdeal:
    """The enlarged ideal I + (x_var), kept canonical without re-minimalizing.

    When x_var lies outside I, no generator divides x_var, and x_var divides
    exactly the generators that contain it: those go and x_var comes in.
    When x_var lies in I, or weighs more than the truncation, I is unchanged.
    """
    if var < ideal.min_var:
        raise ValueError(f"x_{var} below ambient ring x_{ideal.min_var}")
    x = Monomial(((var, 1),))
    if var > ideal.trunc or ideal.contains(x):
        return ideal
    kept = [g for g in ideal.gens if not g.exponent(var)]
    gens = tuple(sorted(kept + [x], key=Monomial.sort_key))
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
