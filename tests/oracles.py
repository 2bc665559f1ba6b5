"""Independent brute-force oracles used across the test suite.

Everything here is deliberately written against different algorithms than the
package, and each reference is written once.  One recursive enumerator,
`descending_partitions`, yields every partition largest part first; the
package walks smallest part first on explicit stacks.  It feeds one literal
rule for the difference conditions, `gap_conditions_ok`, tested cell by cell
in either order, instead of the package's one pruned walk per r over the
admissible partitions only; and one filter over every partition of each
weight, `standard_monomials`, instead of the package's walk over the standard
monomials only.  For the gap side there is also a forward pass over the
weight that appends one part at a time, instead of the package's pass over
part values in Andrews' frequency form; the classical pentagonal-number
recurrence instead of product expansion; the product cascade with
fixed-truncation shifts on pentagonal bases instead of the package's cascade
on placed theta numerators, which divides exactly as it goes; and literal
restatements of generator families.  Agreement between these and the
package is evidence, not circularity.  The seeded random ideals and the
in-process CLI runner that several test files share live here too.
"""

from __future__ import annotations

import io
import random
from collections import Counter
from typing import Iterable, Iterator, Mapping, Sequence

from gga_verify import cli
from gga_verify.monomial import Monomial, MonomialIdeal
from gga_verify.qseries import (
    TruncatedSeries,
    div_sparse,
    sparse_series,
    triple_product_terms,
)


def descending_partitions(n: int, min_part: int = 1) -> Iterator[tuple[int, ...]]:
    """All partitions of n into parts >= min_part, as non-increasing tuples.

    The one enumerator of the test references.  It recurses largest part
    first, in decreasing lex order, so it shares no idiom with the package's
    walks, which build partitions smallest part first on an explicit stack.
    """
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


def admissible_E(parts: tuple[int, ...], r: int, i: int, J: int) -> bool:
    """Generalized gap-side admissibility of non-increasing parts, read literally.

    At J = 0 it is the per-cell filter behind `count_D`.
    """
    if parts and parts[-1] <= 2 * J:
        return False
    small = sum(1 for p in parts if p <= 2 * J + 2)
    return gap_conditions_ok(parts, r) and small <= i - 1


def forward_dp_series_E(r: int, i: int, J: int, n: int) -> TruncatedSeries:
    """Generalized gap-side series through degree n, by a forward pass over the weight.

    The difference conditions are read one appended part at a time, not in
    Andrews' frequency form: the admissible partitions are built smallest
    part first, and `layers[w]` counts those of weight w by state, the last
    r-1 parts and the remaining budget of parts <= 2J+2.  Admissibility is
    prefix-closed, so coefficient w is the sum of layer w.  After a part
    above 2J+2 every later part is above it too, so the budget drops to 0
    and equal states merge.
    """
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


def make_monomial(exps: Mapping[int, int]) -> Monomial:
    """The monomial of a var -> exp mapping; zero exponents are dropped."""
    items = []
    for var, exp in sorted(exps.items()):
        if var < 1:
            raise ValueError(f"variable index {var} must be >= 1")
        if exp < 0:
            raise ValueError(f"negative exponent {exp} on x_{var}")
        if exp:
            items.append((var, exp))
    return Monomial(sum(var * exp for var, exp in items), tuple(items))


def monomial_from_parts(parts: Iterable[int]) -> Monomial:
    """The monomial whose exponent of x_k is the multiplicity of part k."""
    return make_monomial(Counter(parts))


def mul_var(m: Monomial, var: int) -> Monomial:
    """m * x_var."""
    exps = dict(m.exps)
    return make_monomial(exps | {var: exps.get(var, 0) + 1})


def random_ideal(rng: random.Random, trunc: int) -> MonomialIdeal:
    """An ideal on x_1..x_8 of one to six generators, each variable present
    with probability 0.3 and exponent 1..3, drawn from `rng`."""
    gens = []
    for _ in range(rng.randint(1, 6)):
        exps = {}
        for var in range(1, 9):
            if rng.random() < 0.3:
                exps[var] = rng.randint(1, 3)
        gens.append(make_monomial(exps))
    return MonomialIdeal.build(gens, 1, trunc)


def divides(small: Monomial, big: Monomial) -> bool:
    """True iff every exponent of `small` is <= the matching one of `big`."""
    big_exps = dict(big.exps)
    return all(big_exps.get(var, 0) >= exp for var, exp in dict(small.exps).items())


def contains(ideal: MonomialIdeal, m: Monomial) -> bool:
    """True iff some generator of the ideal divides m."""
    return any(divides(g, m) for g in ideal.gens)


def standard_monomials(ideal: MonomialIdeal, weight: int) -> Iterator[Monomial]:
    """All standard monomials of the given weight: every partition, filtered."""
    for parts in descending_partitions(weight, ideal.min_var):
        m = monomial_from_parts(parts)
        if not contains(ideal, m):
            yield m


def _gap_families(start: int, r: int, n: int) -> list[dict[int, int]]:
    """The display's four gap families, every base index >= start.

    Loops over the letters a, b, c, n1, n2 with their inequalities spelled
    out: x_{2a-1}^2; x_{2b-1} * x_{2b}^{r-1}; x_{2c}^{r-n1} * x_{2c+2}^{n1}
    for 0 <= n1 <= r-1; x_{2c}^{r-n2-1} * x_{2c+1} * x_{2c+2}^{n2} for
    0 <= n2 <= r-2.
    """
    gens: list[dict[int, int]] = []
    for a in range(1, n):
        if 2 * a - 1 >= start:
            gens.append({2 * a - 1: 2})
    for b in range(1, n):
        if 2 * b - 1 >= start:
            gens.append({2 * b - 1: 1, 2 * b: r - 1})
    for c in range(1, n):
        if 2 * c >= start:
            for n1 in range(r):
                gens.append({2 * c: r - n1, 2 * c + 2: n1})
            for n2 in range(r - 1):
                gens.append({2 * c: r - n2 - 1, 2 * c + 1: 1, 2 * c + 2: n2})
    return gens


def _literal_minimal(gens: list[dict[int, int]], n: int) -> set[Monomial]:
    """The generators of weight <= n that no other one divides, by pairwise test."""
    pool = {m for m in map(make_monomial, gens) if m.weight <= n}
    return {g for g in pool if not any(h != g and divides(h, g) for h in pool)}


def transcribed_family_ideal(k: int, ell: int | None, r: int, n: int) -> set[Monomial]:
    """Minimal generators of L(k, ell), or of the plain L_k when ell is None.

    A literal transcription of the definitions, sharing no code with the
    package's builder: L_k is the gap families anchored at k.  L(k, ell) at
    odd k is x_k^2 and x_k * x_{k+1}^{ell-1} plus L(k+1, ell); at even k it
    is x_k^ell, x_k^{ell-j} * x_{k+2}^{r-ell+j} for 1 <= j <= ell-1,
    x_k^{ell-1-j} * x_{k+1} * x_{k+2}^{r-ell+j} for 0 <= j <= ell-2, plus
    L_{k+1}.
    """
    if ell is None:
        return _literal_minimal(_gap_families(k, r, n), n)
    gens: list[dict[int, int]] = []
    even = k
    if k % 2 == 1:
        gens += [{k: 2}, {k: 1, k + 1: ell - 1}]
        even = k + 1
    gens.append({even: ell})
    for j in range(1, ell):
        gens.append({even: ell - j, even + 2: r - ell + j})
    for j in range(ell - 1):
        gens.append({even: ell - 1 - j, even + 1: 1, even + 2: r - ell + j})
    return _literal_minimal(gens + _gap_families(even + 1, r, n), n)


def transcribed_boundary_ideal(r: int, i: int, J: int, n: int) -> set[Monomial]:
    """Minimal generators of L(r, i, J), transcribed literally.

    x_{2J+1}^2, x_{2J+1} * x_{2J+2}^{i-1} and x_{2J+2}^i, plus the gap
    families anchored at 2J+2.
    """
    boundary = [{2 * J + 1: 2}, {2 * J + 1: 1, 2 * J + 2: i - 1}, {2 * J + 2: i}]
    return _literal_minimal(boundary + _gap_families(2 * J + 2, r, n), n)


def from_coeffs(coeffs: Iterable[int]) -> TruncatedSeries:
    """The series with the given coefficients, each converted by int."""
    return TruncatedSeries(tuple(int(c) for c in coeffs))


def valuation(series: TruncatedSeries) -> int | None:
    """Smallest degree with nonzero coefficient, None if all certified ones vanish."""
    for j, c in enumerate(series.coeffs):
        if c:
            return j
    return None


def restricted_partition_count(n: int, allowed: Sequence[int]) -> int:
    """Number of partitions of n with every part in `allowed`, by enumeration."""
    allowed_set = set(allowed)
    return sum(1 for p in descending_partitions(n) if all(x in allowed_set for x in p))


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


def pentagonal_terms(k: int, n: int) -> list[tuple[int, int]]:
    """Nonzero terms of (q^k; q^k)_inf through n: Euler's pentagonal theorem.

    The triple product at a = k, M = 3k: sum of (-1)^m q^(k m(3m-1)/2).
    """
    return triple_product_terms(k, 3 * k, n)


def padded_level(r: int, g_stop: int, n: int) -> list[TruncatedSeries]:
    """All r entries of cascade level g_stop (level 0: the bases), through n."""
    # With the chained term kept at its truncation, level g loses g*r*(r-1)
    # degrees at its i = r entry; the bases are padded by the sum of those.
    work = n + sum(g * r * (r - 1) for g in range(1, g_stop + 1))
    d = sparse_series(pentagonal_terms(2, work), work)
    d = div_sparse(div_sparse(d, pentagonal_terms(1, work)), pentagonal_terms(4, work))
    row = [
        sparse_series(triple_product_terms(2 * r - (2 * j - 1), 4 * r, work), work) * d
        for j in range(1, r + 1)
    ]
    for g in range(1, g_stop + 1):
        new = [row[r - 1]]
        for i in range(2, r + 1):
            w = 2 * g * (i - 1)
            numerator = row[r - i] - row[r - i + 1] - new[i - 2].shift(w - 1)
            new.append(numerator.div_q_pow(w))
        row = new
    return [entry.truncated(n) for entry in row]


def padded_cascade(r: int, index: int, n: int) -> TruncatedSeries:
    """Product-side series of any positive index, by the padded level cascade.

    The bases are D * theta_a with D = (q^2;q^2) / ((q;q)(q^4;q^4)) from
    three pentagonal series.  The chained term q^(w-1) C[g, i-1] is a `shift`
    at fixed truncation, so every entry of level g is padded by the loss of
    its last one, g*r*(r-1), and every level runs all r entries.
    """
    if index <= r:
        return padded_level(r, 0, n)[index - 1]
    i_stop = (index - 2) % (r - 1) + 2
    return padded_level(r, (index - i_stop) // (r - 1), n)[i_stop - 1]


def run_cli(*argv: str) -> tuple[int, str]:
    """`gga-verify argv` in process: its exit code and what it wrote to stdout."""
    buffer = io.StringIO()
    code = cli.run(list(argv), stdout=buffer)
    return code, buffer.getvalue()
