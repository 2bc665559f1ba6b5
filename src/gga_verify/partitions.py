"""Partition enumeration and the three counting families of the identities.

Three families of partitions of n are counted here:

* congruence side: parts restricted to residue classes determined by (r, i);
* gap side at level zero: no odd part repeated, parts r-1 positions apart
  differ by at least 2 (odd upper part) or 3 (even upper part), and at most
  i-1 parts equal to 1 or 2;
* generalized gap side: same difference conditions, all parts greater than
  2J, and at most i-1 parts equal to 2J+1 or 2J+2.

The generalized gap side is one pass over the part values in Andrews'
frequency form (`series_E`).  `count_D` reads the difference conditions
literally on every partition of n, listed smallest part first by one
iterative generator.  One sweep per weight records, for each partition, the
smallest r whose conditions it meets and its number of parts <= 2; that
histogram answers every (r, i) cell, and a `RunContext` keeps it for the
rest of the run.  The oracles (enumerators, the per-cell filter, the pruned
gap-side walk and the forward pass over the weight) live in
`tests/oracles.py`.  The congruence side is a plain product expansion.  The
sides run on unrelated code paths on purpose, so that agreement is evidence
rather than tautology.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from typing import Iterator, Sequence

from .context import RunContext
from .errors import ParamOutOfRange, check_params
from .qseries import TruncatedSeries, product_geometric_inverses, series_one, series_zero


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


def allowed_parts_C(r: int, index: int, n: int) -> list[int]:
    """Part sizes <= n admissible for the congruence-side product of index 1..r.

    A part m is admissible when m is not 2 mod 4, not 0 mod 4r, and not
    congruent to 2r +- (2*index - 1) mod 4r.
    """
    check_params(r=r, n=n)
    if not 1 <= index <= r:
        raise ParamOutOfRange(f"index = {index} violates 1 <= index <= {r}")
    modulus = 4 * r
    odd = 2 * index - 1
    banned = {0, (2 * r + odd) % modulus, (2 * r - odd) % modulus}
    return [m for m in range(1, n + 1) if m % 4 != 2 and m % modulus not in banned]


def count_C(r: int, i: int, n: int) -> int:
    """Partitions of n into admissible congruence-side parts of index ell = r - i + 1."""
    check_params(r=r, i=i, n=n)
    parts = allowed_parts_C(r, r - i + 1, n)
    return product_geometric_inverses(parts, n)[n]


def _least_gap_r(parts: Sequence[int]) -> int:
    """Smallest r >= 2 whose difference conditions the ascending parts meet, else 0.

    The conditions: no odd value is repeated, and of two parts r-1 positions
    apart the larger exceeds the smaller by >= 2 if it is odd and >= 3 if it
    is even.  A repeated odd part fails at every r.  For the rest, the pair
    (parts[k], parts[j]) with k < j fails exactly when parts[k] >= floor, where
    floor is parts[j] - 1 for an odd and parts[j] - 2 for an even parts[j].
    With lo the first index at or above that floor, the failing pairs ending
    at j are those at distance 1 .. j - lo, so the conditions at r hold
    exactly when r - 1 > j - lo for every j.  The floor never decreases along
    the parts, so lo only moves forward and one pass finds every lo.
    """
    prev = 0
    for v in parts:
        if v == prev and v & 1:
            return 0
        prev = v
    lo = widest = 0
    for j, v in enumerate(parts):
        floor = v - 2 + (v & 1)
        while parts[lo] < floor:
            lo += 1
        if j - lo > widest:
            widest = j - lo
    return widest + 2


def _level_zero_histogram(n: int) -> dict[tuple[int, int], int]:
    """Partitions of n meeting the conditions at some r, by (least r, parts <= 2)."""
    histogram: dict[tuple[int, int], int] = {}
    for parts in _ascending_partitions(n, 1):
        if len(parts) > 1 and parts[1] == 1:
            continue  # a repeated 1, as most partitions have, fails at every r
        least = _least_gap_r(parts)
        if least:
            key = (least, bisect_right(parts, 2))
            histogram[key] = histogram.get(key, 0) + 1
    return histogram


def count_D(r: int, i: int, n: int, *, ctx: RunContext | None = None) -> int:
    """Gap-side count at level zero, by the difference conditions on every partition.

    Deliberately the dumb path: every partition of n is read, with no
    pruning.  It is the oracle that the gap-side DP and the algebra engines
    are measured against.  The conditions only get easier as r grows, so a
    partition is counted at (r, i) when its least r is at most r and it has
    at most i-1 parts <= 2; the sweep of n is shared through `ctx`.
    """
    check_params(r=r, i=i, n=n)
    level_zero = (RunContext() if ctx is None else ctx).level_zero
    if n not in level_zero:
        level_zero[n] = _level_zero_histogram(n)
    return sum(
        count
        for (least, small), count in level_zero[n].items()
        if least <= r and small < i
    )


def count_E(r: int, i: int, J: int, n: int) -> int:
    """Generalized gap-side count: the coefficient of q^n in `series_E`."""
    return series_E(r, i, J, n)[n]


def series_E(r: int, i: int, J: int, n: int) -> TruncatedSeries:
    """Generating series of the generalized gap-side counts through degree n.

    Andrews' frequency form (G. E. Andrews, "A generalization of the
    Göllnitz-Gordon partition theorems", Proc. AMS 18 (1967) 945-952): with
    f_v the multiplicity of the part v, the conditions hold exactly when
    f_v <= 1 for odd v, f_{2j} + f_{2j+1} + f_{2j+2} <= r-1 for every j,
    every part is above 2J, and f_{2J+1} + f_{2J+2} <= i-1.  Proof: r parts
    in a row fail exactly when they fit in one window {2j, 2j+1, 2j+2}, for
    the top one exceeds the bottom one by at most 1 if it is odd and 2 if
    it is even.  One pass takes the pairs (2j+1, 2j+2) for j = J, J+1, ...;
    `ends[e]` counts the partitions with parts <= 2j whose part 2j occurs e
    times.  A virtual multiplicity r-i of 2J turns the window at j = J into
    the i-1 cap.  The new state b takes 2j+2 b times, and 2j+1 once or not,
    after every e the window allows: a prefix sum over e.
    """
    check_params(r=r, i=i, J=J, n=n)
    cap, zero = r - 1, series_zero(n)
    ends = [zero] * (cap + 1)
    ends[cap + 1 - i] = series_one(n)
    for odd in range(2 * J + 1, n + 1, 2):
        below = list(accumulate(ends, initial=zero))
        ends = [
            (below[cap + 1 - b] + below[cap - b].shift(odd)).shift(b * (odd + 1))
            for b in range(cap + 1)
        ]
    return sum(ends, zero)
