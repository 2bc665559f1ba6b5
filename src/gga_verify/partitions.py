"""Partition enumeration and the three counting families of the identities.

Three families of partitions of n are counted here:

* congruence side: parts restricted to residue classes determined by (r, i);
* gap side at level zero: no odd part repeated, parts r-1 positions apart
  differ by at least 2 (odd upper part) or 3 (even upper part), and at most
  i-1 parts equal to 1 or 2;
* generalized gap side: same difference conditions, all parts greater than
  2J, and at most i-1 parts equal to 2J+1 or 2J+2.

The generalized gap side is one forward dynamic-programming pass over the
weight (`series_E`).  `count_D` filters every partition, listed smallest part
first by one iterative generator, through a gap rule that reads parts in
either order.  The enumeration oracles, the pruned gap-side walk included,
live in `tests/oracles.py`.  The congruence side is a plain product
expansion.  The sides run on unrelated code paths on purpose, so that
agreement is evidence rather than tautology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import IndexOutOfRange, check_params
from .qseries import TruncatedSeries, product_geometric_inverses


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


@dataclass(frozen=True)
class IdentityParams:
    """Validated parameter bundle (r, i, J, N) with ell = r - i + 1 derived."""

    r: int
    i: int
    J: int = 0
    N: int = 0

    def __post_init__(self) -> None:
        check_params(r=self.r, i=self.i, J=self.J, N=self.N)

    @property
    def ell(self) -> int:
        return self.r - self.i + 1


def _ascending_partitions(n: int, min_part: int) -> Iterator[list[int]]:
    """Yield every partition of n with all parts >= min_part, smallest part first.

    This is Kelleher and O'Sullivan's `accel_asc` ("Generating All Partitions:
    A Comparison of Two Encodings", arXiv:0909.2331) started at a minimum
    part: amortized O(1) work per partition, no recursion, and no validation.
    Each yield is a fresh list.  Callers check n >= 0 and min_part >= 1.
    """
    if n == 0:
        yield []
        return
    if n < min_part:
        return
    a = [0] * (n + 1)
    a[0] = min_part - 1
    k = 1
    y = n - min_part
    while k:
        x = a[k - 1] + 1
        k -= 1
        while 2 * x <= y:
            a[k] = x
            y -= x
            k += 1
        last = k + 1
        while x <= y:
            a[k] = x
            a[last] = y
            yield a[: k + 2]
            x += 1
            y -= 1
        a[k] = x + y
        y = x + y - 1
        yield a[: k + 1]


def enumerate_partitions(n: int, min_part: int = 1) -> Iterator[Partition]:
    """Yield every partition of n with all parts >= min_part exactly once.

    Partitions appear in lexicographically decreasing order of their part
    sequences, e.g. (4), (3,1), (2,2), (2,1,1), (1,1,1,1) for n = 4.  The
    hot counters use `_ascending_partitions` directly; this sorted, validated
    stream is for callers that want `Partition` objects in a fixed order.
    """
    check_params(n=n, min_part=min_part)
    stream = [tuple(reversed(a)) for a in _ascending_partitions(n, min_part)]
    stream.sort(reverse=True)
    return map(Partition, stream)


def allowed_parts_C(r: int, index: int, n: int) -> list[int]:
    """Part sizes <= n admissible for the congruence-side product of index 1..r.

    A part m is admissible when m is not 2 mod 4, not 0 mod 4r, and not
    congruent to 2r +- (2*index - 1) mod 4r.
    """
    check_params(r=r, n=n)
    if not 1 <= index <= r:
        raise IndexOutOfRange(f"index = {index} violates 1 <= index <= {r}")
    modulus = 4 * r
    odd = 2 * index - 1
    banned = {0, (2 * r + odd) % modulus, (2 * r - odd) % modulus}
    return [m for m in range(1, n + 1) if m % 4 != 2 and m % modulus not in banned]


def count_C(params: IdentityParams, n: int) -> int:
    """Partitions of n into admissible congruence-side parts (index ell)."""
    check_params(n=n)
    parts = allowed_parts_C(params.r, params.ell, n)
    return product_geometric_inverses(parts, n)[n]


def _gap_conditions_ok(parts: Sequence[int], r: int) -> bool:
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


def _admissible_D(parts: Sequence[int], r: int, i: int) -> bool:
    if not _gap_conditions_ok(parts, r):
        return False
    return sum(1 for p in parts if p <= 2) <= i - 1


def count_D(r: int, i: int, n: int) -> int:
    """Gap-side count at level zero, by filtered exhaustive enumeration.

    Deliberately the dumb path: generate every partition of n and filter.
    This is the oracle that the gap-side DP and the algebra engines are
    measured against.
    """
    check_params(r=r, i=i, n=n)
    return sum(1 for a in _ascending_partitions(n, 1) if _admissible_D(a, r, i))


def count_E(r: int, i: int, J: int, n: int) -> int:
    """Generalized gap-side count: the coefficient of q^n in `series_E`."""
    return series_E(r, i, J, n)[n]


def series_E(r: int, i: int, J: int, n: int) -> TruncatedSeries:
    """Generating series of the generalized gap-side counts through degree n.

    One forward pass over the weight builds the admissible partitions
    smallest part first, with no recursion.  `layers[w]` counts those of
    weight w by state: the last r-1 parts and the remaining budget of parts
    <= 2J+2.  Admissibility is prefix-closed, so coefficient w is the sum of
    layer w.  After a part above 2J+2 every later part is above it too, so
    the budget drops to 0 and equal states merge.
    """
    check_params(r=r, i=i, J=J, n=n)
    width, top = r - 1, 2 * J + 2
    layers: list[dict | None] = [{((), i - 1): 1}] + [{} for _ in range(n)]
    coeffs = []
    for w in range(n + 1):
        layer, layers[w] = layers[w], None
        coeffs.append(sum(layer.values()))
        for (tail, budget), ways in layer.items():
            anchor = tail[0] if len(tail) == width else None
            for v in range(tail[-1] if tail else top - 1, n - w + 1):
                if v % 2 == 1 and tail and v == tail[-1]:
                    continue
                if anchor is not None and v - anchor < (2 if v % 2 == 1 else 3):
                    continue
                if v <= top and not budget:
                    continue
                key = ((tail + (v,))[-width:], budget - 1 if v <= top else 0)
                target = layers[w + v]
                target[key] = target.get(key, 0) + ways
    return TruncatedSeries(tuple(coeffs))

