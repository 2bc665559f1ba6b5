"""Monomials and monomial ideals in the weight-graded ring on x_k (k >= 1).

The variable x_k carries weight k, so a monomial encodes a partition (the
part k appears with the exponent of x_k) and its weight is the partitioned
integer.  Ideals live in the ring on x_{min_var}, x_{min_var+1}, ... and are
kept in canonical form: a minimal generating set, sorted, with generators of
weight above the truncation discarded since they cannot divide any monomial
that is still counted.

A monomial is the named tuple (weight, exps) with its weight stored, so the
builders, `minimalize`, the split's colon kernel `_colon` and its memo all
run on one type, in plain tuple order; an ideal is the named tuple (gens,
min_var, trunc), made canonical by `MonomialIdeal.build`.
"""

from __future__ import annotations

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
        check_params(min_var=min_var, n=trunc)
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


def _colon(gens: tuple[Monomial, ...], var: int, trunc: int) -> tuple[Monomial, ...]:
    """(I : x_var) on sorted generators that all start at x_var or above (as
    `hilbert._split` passes them: those on its pivot and up, and tail steps
    from s >= pivot), keeping those of weight <= trunc.

    A generator contains x_var exactly when its first pair is (var, e), which
    becomes (var, e - 1), or goes at e = 1; the rest stay.  Changed ones stay
    pairwise incomparable (g/x_var | h/x_var gives g | h), and no unchanged
    one divides a changed one (u | g/x_var gives u | g), so only a changed
    generator that lost its last x_var can divide an unchanged one, which
    goes.  Dropping those heavier than trunc first decides nothing about the
    others, since a divisor weighs no more than what it divides.
    """
    changed: list[Monomial] = []
    lost: list[Exps] = []
    rest: list[Monomial] = []
    for g in gens:
        w, exps = g
        if exps[0][0] != var:
            if w <= trunc:
                rest.append(g)
        elif w - var <= trunc:
            e = exps[0][1]
            cut = ((var, e - 1),) + exps[1:] if e > 1 else exps[1:]
            changed.append(Monomial(w - var, cut))
            if e == 1:
                lost.append(cut)
    if lost:
        rest = [g for g in rest if not any(_divides(c, g.exps) for c in lost)]
    return tuple(sorted(changed + rest)) if changed else tuple(rest)


# No caller in src/; kept while bench/tracer.py binds it (ROADMAP item 1).
def colon_var(ideal: MonomialIdeal, var: int) -> MonomialIdeal:
    """The colon ideal (I : x_var) as written: x_var struck once from each generator
    it divides, made canonical by `MonomialIdeal.build`."""
    if var < ideal.min_var:
        raise ValueError(f"x_{var} below ambient ring x_{ideal.min_var}")
    struck = (
        Monomial(w - var, tuple((v, e - (v == var)) for v, e in exps if v != var or e > 1))
        if var in dict(exps) else Monomial(w, exps) for w, exps in ideal.gens
    )
    return MonomialIdeal.build(struck, ideal.min_var, ideal.trunc)


# No caller in src/; kept while bench/tracer.py binds it (ROADMAP item 1).
def add_var(ideal: MonomialIdeal, var: int) -> MonomialIdeal:
    """The enlarged ideal I + (x_var), made canonical by `MonomialIdeal.build`."""
    x = Monomial(var, ((var, 1),))
    return MonomialIdeal.build(ideal.gens + (x,), ideal.min_var, ideal.trunc)


def _standard_counts(ideal: MonomialIdeal, n: int) -> list[int]:
    """Number of standard monomials of each weight 0..n, in one walk.

    Standard monomials form an order ideal: every divisor of one is one
    (Bayer and Stillman, "Computation of Hilbert functions", J. Symbolic
    Comput. 14, 1992).  The walk grows monomials by parts in non-decreasing
    order and never extends a monomial the ideal contains, so it visits the
    standard monomials and their immediate non-standard extensions only.
    Appending x_v to a standard m, whose variables are all <= v, can only
    meet a generator whose last pair is (v, e), with e the exponent of x_v
    in m * x_v: one without x_v, or with a smaller power of it, would
    already divide m, and one with a larger power cannot divide m * x_v.
    So the generators are indexed by their last pair: each node looks up
    one pair and compares only the other exponents of what it finds.  The
    walk keeps its own stack, so its depth (the number of parts) is not
    bounded by the interpreter's recursion limit.
    """
    counts = [0] * (n + 1)
    if ideal.is_unit:
        return counts
    ending_at: dict[tuple[int, int], list[Exps]] = {}
    for g in ideal.gens:
        ending_at.setdefault(g.exps[-1], []).append(g.exps[:-1])
    exps = [0] * (n + 1)
    counts[0] = 1
    # The frame of the current monomial: the next part to try, its weight and
    # the part it added last.  The root added none; it names 0, a slot no
    # generator reads.  The stack holds the frames of its divisors.
    v, w, last = ideal.min_var, 0, 0
    stack: list[tuple[int, int, int]] = []
    while True:
        if v > n - w:
            if not stack:
                return counts
            exps[last] -= 1
            v, w, last = stack.pop()
            continue
        exps[v] += 1
        for rest in ending_at.get((v, exps[v]), ()):
            for u, e in rest:
                if exps[u] < e:
                    break
            else:
                exps[v] -= 1
                v += 1
                break
        else:
            counts[w + v] += 1
            stack.append((v + 1, w, last))
            w, last = w + v, v


# No caller in src/; kept while bench/tracer.py binds it (ROADMAP item 1).
def standard_count(ideal: MonomialIdeal, weight: int) -> int:
    """Dimension of the degree-`weight` piece of the quotient: the number of
    weight-`weight` monomials in variables >= min_var that no generator divides."""
    check_params(degree=weight)
    if weight > ideal.trunc:
        raise TruncationTooShort(f"degree {weight} beyond ideal truncation {ideal.trunc}")
    return _standard_counts(ideal, weight)[weight]
