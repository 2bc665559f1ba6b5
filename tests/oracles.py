"""Independent brute-force oracles used across the test suite.

Everything here is deliberately written against different algorithms than the
package: recursive enumeration instead of the package's iterative generator,
the difference conditions tested cell by cell instead of the package's one
sweep for the least r of every partition, a pruned depth-first walk over
whole partitions instead of the package's forward dynamic programme for the
gap side, a filter over every partition of each weight instead of the
package's walk over the standard monomials only, the classical
pentagonal-number recurrence instead of product expansion, and literal
restatements of generator families.  Agreement between these and the
package is evidence, not circularity.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from gga_verify.monomial import Monomial, MonomialIdeal


@dataclass(frozen=True)
class Partition:
    """Non-increasing sequence of positive parts; the empty tuple partitions 0."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        prev = None
        for p in self.parts:
            if p <= 0:
                raise ValueError(f"nonpositive part {p}")
            if prev is not None and p > prev:
                raise ValueError(f"parts not non-increasing: {self.parts}")
            prev = p

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)


def ascending_partitions(n: int, min_part: int = 1) -> Iterator[tuple[int, ...]]:
    """All partitions of n as ascending tuples, smallest part first."""
    def extend(remaining: int, smallest: int, acc: list[int]) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield tuple(acc)
            return
        for part in range(smallest, remaining + 1):
            if remaining - part and remaining - part < part:
                continue
            acc.append(part)
            yield from extend(remaining - part, part, acc)
            acc.pop()

    yield from extend(n, min_part, [])


def descending_partitions(n: int, min_part: int = 1) -> Iterator[tuple[int, ...]]:
    """All partitions of n as non-increasing tuples, in decreasing lex order."""
    prefix: list[int] = []

    def descend(remaining: int, max_part: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield tuple(prefix)
            return
        for first in range(min(remaining, max_part), min_part - 1, -1):
            rest = remaining - first
            if rest and rest < min_part:
                continue
            prefix.append(first)
            yield from descend(rest, first)
            prefix.pop()

    yield from descend(n, n)


def enumerate_partitions(n: int, min_part: int = 1) -> Iterator[Partition]:
    """Every partition of n with all parts >= min_part, as validated `Partition`s.

    They come in lexicographically decreasing order of their part sequences,
    e.g. (4), (3,1), (2,2), (2,1,1), (1,1,1,1) for n = 4.
    """
    return map(Partition, descending_partitions(n, min_part))


def gap_conditions_ok(parts: Sequence[int], r: int) -> bool:
    """The difference conditions, for parts sorted in either order.

    No odd value is repeated, and of two entries r-1 positions apart the
    larger exceeds the smaller by >= 2 if it is odd and >= 3 if it is even.
    """
    prev = 0
    for p in parts:
        if p == prev and p % 2 == 1:
            return False
        prev = p
    for a, b in zip(parts, parts[r - 1 :]):
        if a > b:
            a, b = b, a
        if b - a < (2 if b % 2 == 1 else 3):
            return False
    return True


def admissible_D(parts: Sequence[int], r: int, i: int) -> bool:
    """Level-zero gap-side admissibility: the per-cell filter behind `count_D`."""
    if not gap_conditions_ok(parts, r):
        return False
    return sum(1 for p in parts if p <= 2) <= i - 1


def gap_conditions_descending(parts: tuple[int, ...], r: int) -> bool:
    """The difference conditions read literally on non-increasing parts."""
    s = len(parts)
    for m in range(s - 1):
        if parts[m] == parts[m + 1] and parts[m] % 2 == 1:
            return False
    for m in range(s - (r - 1)):
        need = 2 if parts[m] % 2 == 1 else 3
        if parts[m] - parts[m + r - 1] < need:
            return False
    return True


def admissible_E(parts: tuple[int, ...], r: int, i: int, J: int) -> bool:
    """Generalized gap-side admissibility of non-increasing parts, read literally."""
    if parts and parts[-1] <= 2 * J:
        return False
    small = sum(1 for p in parts if p <= 2 * J + 2)
    return gap_conditions_descending(parts, r) and small <= i - 1


def pruned_count_E(r: int, i: int, J: int, n: int) -> int:
    """Generalized gap-side count of n, by pruned exhaustive enumeration.

    Parts are generated in non-increasing order with three cuts: the running
    upper bound forced by the difference condition against the part r-1
    positions earlier, a skip on repeating an odd value, and an abort once
    more than i-1 parts of size 2J+1 or 2J+2 have been placed (later parts
    are no larger, so the bound can never recover).  Exponential in n; keep
    n small.
    """
    min_part = 2 * J + 1
    boundary_top = 2 * J + 2
    placed: list[int] = []

    def count(remaining: int, budget: int) -> int:
        if remaining == 0:
            return 1
        hi = min(remaining, placed[-1] if placed else remaining)
        t = len(placed)
        if t >= r - 1:
            anchor = placed[t - (r - 1)]
            hi = min(hi, anchor - (2 if anchor % 2 == 1 else 3))
        total = 0
        for v in range(hi, min_part - 1, -1):
            if v % 2 == 1 and placed and placed[-1] == v:
                continue
            rest = remaining - v
            if rest and rest < min_part:
                continue
            b = budget - 1 if v <= boundary_top else budget
            if b < 0:
                break
            placed.append(v)
            total += count(rest, b)
            placed.pop()
        return total

    return count(n, i - 1)


def monomial_from_parts(parts: Iterable[int]) -> Monomial:
    """The monomial whose exponent of x_k is the multiplicity of part k."""
    return Monomial.make(Counter(parts))


def mul_var(m: Monomial, var: int) -> Monomial:
    """m * x_var."""
    return Monomial.make(dict(m.exps) | {var: m.exponent(var) + 1})


def div_var(m: Monomial, var: int) -> Monomial:
    """m / x_var, for an m that x_var divides."""
    e = m.exponent(var)
    if e < 1:
        raise ValueError(f"{m} is not divisible by x_{var}")
    return Monomial.make(dict(m.exps) | {var: e - 1})


def standard_monomials(ideal: MonomialIdeal, weight: int) -> Iterator[Monomial]:
    """All standard monomials of the given weight: every partition, filtered."""
    for parts in ascending_partitions(weight, ideal.min_var):
        m = monomial_from_parts(parts)
        if not ideal.contains(m):
            yield m


def restricted_partition_count(n: int, allowed: Sequence[int]) -> int:
    """Number of partitions of n with every part in `allowed`, by enumeration."""
    allowed_set = set(allowed)
    return sum(1 for p in ascending_partitions(n) if all(x in allowed_set for x in p))


def classical_partition_count(n: int) -> int:
    """p(n) by the pentagonal-number recurrence."""
    table = [1] + [0] * n
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = 1 if k % 2 == 1 else -1
            if g1 <= m:
                total += sign * table[m - g1]
            if g2 <= m:
                total += sign * table[m - g2]
            k += 1
        table[m] = total
    return table[n]
