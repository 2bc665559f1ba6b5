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
from typing import Iterable, Iterator, Mapping

from .errors import DegreeBeyondTruncation
from .partitions import _ascending_partitions


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
        if trunc < 0:
            raise ValueError(f"negative truncation {trunc}")
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
    """The colon ideal (I : x_var).

    Each generator divisible by x_var loses one power of it; the rest stay.
    """
    if var < ideal.min_var:
        raise ValueError(f"x_{var} below ambient ring x_{ideal.min_var}")
    new = [g.div_var(var) if g.exponent(var) else g for g in ideal.gens]
    return MonomialIdeal.build(new, ideal.min_var, ideal.trunc)


def add_var(ideal: MonomialIdeal, var: int) -> MonomialIdeal:
    """The enlarged ideal I + (x_var)."""
    if var < ideal.min_var:
        raise ValueError(f"x_{var} below ambient ring x_{ideal.min_var}")
    return MonomialIdeal.build(
        ideal.gens + (Monomial.make({var: 1}),), ideal.min_var, ideal.trunc
    )


def standard_monomials(ideal: MonomialIdeal, weight: int) -> Iterator[Monomial]:
    """All standard monomials of the given weight in the ambient ring."""
    for parts in _ascending_partitions(weight, ideal.min_var):
        m = Monomial.from_parts(parts)
        if not ideal.contains(m):
            yield m


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
    return sum(1 for _ in standard_monomials(ideal, weight))
