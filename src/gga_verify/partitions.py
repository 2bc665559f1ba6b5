"""Partition enumeration and the three counting families of the identities.

Three families of partitions of n are counted here:

* congruence side: parts restricted to residue classes determined by (r, i);
* gap side at level zero: no odd part repeated, parts r-1 positions apart
  differ by at least 2 (odd upper part) or 3 (even upper part), and at most
  i-1 parts equal to 1 or 2;
* generalized gap side: same difference conditions, all parts greater than
  2J, and at most i-1 parts equal to 2J+1 or 2J+2.

The generalized gap side is one pass over the part values in Andrews'
frequency form (`series_E`).  `series_D` reads the difference conditions
literally: one pruned walk per r lists every admissible partition of weight
<= n, smallest part first, and counts it by its number of parts <= 2; that
table answers every i, and a `RunContext` keeps it for the rest of the run.
The oracles (enumerators, the per-cell filter, the pruned gap-side walk at
level J and the forward pass over the weight) live in `tests/oracles.py`.
The congruence side is a plain product expansion.  The sides run on
unrelated code paths on purpose, so that agreement is evidence rather than
tautology.
"""

from __future__ import annotations

from itertools import accumulate

from .context import RunContext
from .errors import ParamOutOfRange, check_params
from .qseries import TruncatedSeries, product_geometric_inverses, series_one, series_zero


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


def _level_zero_walk(r: int, n: int) -> list[list[int]]:
    """Partitions of weight <= n meeting the difference conditions at r, by parts <= 2.

    Row s, column w counts the admissible partitions of w with s parts <= 2.
    The conditions: no odd value is repeated, and of two parts r-1 positions
    apart the larger exceeds the smaller by >= 2 if it is odd and >= 3 if it
    is even.  They are prefix-closed on ascending parts, so the walk appends
    parts smallest first on an explicit stack, checks only the appended part
    against its predecessor and the part r-1 places back, and never extends
    a prefix that fails.  Each admissible partition is one node.  r parts
    never fit in {1, 2}, so r rows hold every count.
    """
    rows = [[0] * (n + 1) for _ in range(r)]
    rows[0][0] = 1
    parts: list[int] = []
    nexts = [1]  # the next candidate part at each depth
    weight = small = 0
    back = r - 1
    while nexts:
        v = nexts[-1]
        if weight + v > n:
            nexts.pop()
            if parts:
                u = parts.pop()
                weight -= u
                small -= u <= 2
            continue
        nexts[-1] = v + 1
        if v & 1 and parts and parts[-1] == v:
            continue
        if len(parts) >= back and parts[-back] >= v - 2 + (v & 1):
            continue
        parts.append(v)
        weight += v
        small += v <= 2
        rows[small][weight] += 1
        nexts.append(v)
    return rows


def series_D(r: int, i: int, n: int, *, ctx: RunContext | None = None) -> TruncatedSeries:
    """Level-zero gap-side counts through degree n, by the difference conditions.

    Deliberately the literal path: every admissible partition is read, one
    by one.  It is the oracle that the gap-side pass and the algebra engines
    are measured against, so it stays an enumeration and shares nothing with
    `series_E`.  A partition counts at (r, i) when it has at most i-1 parts
    <= 2; one walk per (r, n), kept in `ctx`, answers every i.
    """
    check_params(r=r, i=i, n=n)
    walks = (RunContext() if ctx is None else ctx).level_zero
    if (r, n) not in walks:
        walks[r, n] = _level_zero_walk(r, n)
    return TruncatedSeries(tuple(map(sum, zip(*walks[r, n][:i]))))


def count_D(r: int, i: int, n: int, *, ctx: RunContext | None = None) -> int:
    """Level-zero gap-side count: the coefficient of q^n in `series_D`."""
    return series_D(r, i, n, ctx=ctx)[n]


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
    after every e the window allows: a prefix sum over e.  Pair (2j+1, 2j+2)
    is the N table's step to depth j+1 (`coeff_table`), state b its entry b+1,
    term for term; the two stay separate transcriptions.
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
