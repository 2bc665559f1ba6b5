"""Exact truncated formal power series in one variable q.

Coefficients are signed arbitrary-precision integers; no rounding occurs
anywhere.  A series certifies its coefficients for degrees 0..trunc
(inclusive) and says nothing beyond.  Arithmetic on two series is certified
through the smaller of the two ranges.  No operation grows a certified
range: `shift` multiplies by q^w at a fixed truncation, dropping the top w
coefficients, and exact division by q^w shrinks the range by w rather than
padding with unspecified values.
"""

from __future__ import annotations

import operator
from typing import Iterable, NamedTuple, Sequence

from .errors import NonDivisible, TruncationTooShort, check_params


class Mismatch(NamedTuple):
    """First disagreeing coefficient of two series."""

    degree: int
    lhs: int
    rhs: int


class TruncatedSeries:
    """Coefficients of q^0 .. q^trunc, exact; immutable and hashable by value.

    coeffs[j] is the coefficient of q^j, so trunc == len(coeffs) - 1 by
    construction.  A series equals only another series with the same
    coefficients, never their bare tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]) -> None:
        if not coeffs:
            raise ValueError("a series certifies at least the constant term")
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"TruncatedSeries is immutable: cannot assign {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"TruncatedSeries is immutable: cannot delete {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"TruncatedSeries(coeffs={self.coeffs!r})"

    @property
    def trunc(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, j: int) -> int:
        check_params(degree=j)
        if j > self.trunc:
            raise TruncationTooShort(f"degree {j} beyond certified range {self.trunc}")
        return self.coeffs[j]

    def __add__(self, other: TruncatedSeries) -> TruncatedSeries:
        # map stops at the shorter operand, which is the common certified range
        return TruncatedSeries(tuple(map(operator.add, self.coeffs, other.coeffs)))

    def __sub__(self, other: TruncatedSeries) -> TruncatedSeries:
        return TruncatedSeries(tuple(map(operator.sub, self.coeffs, other.coeffs)))

    def __mul__(self, other: TruncatedSeries) -> TruncatedSeries:
        n = min(self.trunc, other.trunc)
        out = [0] * (n + 1)
        for u, cu in enumerate(self.coeffs[: n + 1]):
            if cu == 0:
                continue
            for v, cv in enumerate(other.coeffs[: n + 1 - u]):
                if cv:
                    out[u + v] += cu * cv
        return TruncatedSeries(tuple(out))

    def shift(self, w: int) -> TruncatedSeries:
        """Multiply by q^w; truncation is unchanged, top w coefficients drop off."""
        if w < 0:
            raise ValueError(f"negative shift {w}")
        if w == 0:
            return self
        n = self.trunc
        if w > n:
            return TruncatedSeries((0,) * (n + 1))
        return TruncatedSeries((0,) * w + self.coeffs[: n + 1 - w])

    def div_q_pow(self, w: int) -> TruncatedSeries:
        """Exact division by q^w; the certified range shrinks by w.

        Raises NonDivisible when any coefficient below q^w is nonzero.
        """
        if w < 0:
            raise ValueError(f"negative power {w}")
        if w == 0:
            return self
        if w > self.trunc:
            raise TruncationTooShort(
                f"cannot divide by q^{w}: only {self.trunc + 1} coefficients certified"
            )
        for j in range(w):
            if self.coeffs[j]:
                raise NonDivisible(
                    f"coefficient {self.coeffs[j]} at q^{j} obstructs division by q^{w}"
                )
        return TruncatedSeries(self.coeffs[w:])

    def truncated(self, n: int) -> TruncatedSeries:
        """Restrict the certified range to 0..n."""
        check_params(n=n)
        if n > self.trunc:
            raise TruncationTooShort(f"series certified only through {self.trunc}, not {n}")
        return TruncatedSeries(self.coeffs[: n + 1])

    def to_json_dict(self) -> dict:
        return {"trunc": self.trunc, "coeffs": [str(c) for c in self.coeffs]}


def series_one(n: int) -> TruncatedSeries:
    """The multiplicative identity 1, certified through degree n."""
    check_params(n=n)
    return TruncatedSeries((1,) + (0,) * n)


def series_zero(n: int) -> TruncatedSeries:
    """The zero series, certified through degree n."""
    check_params(n=n)
    return TruncatedSeries((0,) * (n + 1))


def product_geometric_inverses(parts: Iterable[int], n: int) -> TruncatedSeries:
    """Expansion of prod_{m in parts} 1/(1 - q^m) through degree n.

    The coefficient of q^j counts partitions of j with parts drawn from
    the given set.  Division-free update: absorbing one factor 1/(1-q^m)
    sends c_j to c_j + c_{j-m} for j = m..n.
    """
    check_params(n=n)
    out = [0] * (n + 1)
    out[0] = 1
    for m in parts:
        check_params(part=m)
        for j in range(m, n + 1):
            out[j] += out[j - m]
    return TruncatedSeries(tuple(out))


def triple_product_terms(a: int, modulus: int, n: int) -> list[tuple[int, int]]:
    """Nonzero terms (degree, coefficient) of (q^a, q^(M-a), q^M; q^M)_inf through n.

    Jacobi's triple product gives the sum over m in Z of
    (-1)^m q^(M m(m-1)/2 + a m), so only O(sqrt(n/M)) degrees are nonzero.
    Terms come in increasing degree; the first is (0, 1).
    """
    if not 0 < a < modulus:
        raise ValueError(f"need 0 < a < M, got a = {a}, M = {modulus}")
    check_params(n=n)
    terms: dict[int, int] = {}
    for direction, start in ((1, 0), (-1, 1)):
        m = start
        while True:
            k = direction * m
            degree = modulus * k * (k - 1) // 2 + a * k
            if degree > n:
                break
            terms[degree] = terms.get(degree, 0) + (-1) ** m
            m += 1
    return [(d, c) for d, c in sorted(terms.items()) if c]


def sparse_series(terms: Iterable[tuple[int, int]], n: int) -> TruncatedSeries:
    """The polynomial sum c q^d over terms, through degree n.

    Each term is written into a zero list, so the cost is O(n + len(terms));
    terms above degree n are dropped.
    """
    check_params(n=n)
    out = [0] * (n + 1)
    for degree, c in terms:
        if degree <= n:
            out[degree] += c
    return TruncatedSeries(tuple(out))


def div_sparse(series: TruncatedSeries, terms: Sequence[tuple[int, int]]) -> TruncatedSeries:
    """series divided by the polynomial sum c q^d over terms, through series.trunc.

    The divisor's constant term must be 1, so the quotient is an integer
    series, found degree by degree as out[j] = s[j] - sum c * out[j - d]
    over the terms with 0 < d <= j; the cost is O(trunc * len(terms)).
    """
    if not terms or terms[0] != (0, 1):
        raise ValueError("divisor must have constant term 1")
    n = series.trunc
    rest = [(d, c) for d, c in terms[1:] if d <= n]
    out = list(series.coeffs)
    for j in range(1, n + 1):
        acc = out[j]
        for degree, c in rest:
            if degree > j:
                break
            acc -= c * out[j - degree]
        out[j] = acc
    return TruncatedSeries(tuple(out))


def eq_up_to(a: TruncatedSeries, b: TruncatedSeries, n: int) -> tuple[bool, Mismatch | None]:
    """Compare coefficients for 0 <= j <= n; report the smallest mismatch."""
    check_params(n=n)
    if n > a.trunc or n > b.trunc:
        raise TruncationTooShort(
            f"comparison through {n} exceeds certified ranges {a.trunc}, {b.trunc}"
        )
    for j in range(n + 1):
        if a.coeffs[j] != b.coeffs[j]:
            return False, Mismatch(j, a.coeffs[j], b.coeffs[j])
    return True, None
