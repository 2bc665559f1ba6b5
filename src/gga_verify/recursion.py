"""Product-side series, expansion coefficient tables, and identity verifiers.

The product side is a family of series indexed by positive integers: indices
1..r are congruence-restricted products, and larger indices are defined by a
subtract-and-deshift recursion level by level, run on the theta numerators
of the congruence products, with their common unit factor divided out once
at the end (see c_series).  Writing an index as (r-1)*g + i with g >= 1 and
2 <= i <= r, level g is built from level g-1 by

    C[g, 1] = C[g-1, r]            (the two spellings of one index agree)
    C[g, i] = (C[g-1, r-i+1] - C[g-1, r-i+2]) / q^w - C[g, i-1] / q

with w = 2g(i-1).  The chained term alone has a 1/q pole, so the shared 1/q
is taken last: the difference is q^(w-1) * (C[g, i-1] + q * C[g, i]), so it
divides exactly by q^(w-1), and the quotient minus C[g, i-1] exactly by q.

Both the product side and the quotient side satisfy the same expansion
recurrence with coefficient tables M (product) and N (quotient); the tables
agree entrywise when the anchors are related by ell = r - i + 1, and their
j = 1 entries stabilize q-adically to the two sides of the main identity.
Every verifier returns a `CheckReport` named tuple: a failing identity at desk
scale means a transcription bug, and diagnosis needs the witness coefficient.

The cells of one run share work through a `RunContext`: `c_series` keeps
each product-side series under (r, index, n), so the expansion terms and the
limit tail that several cells name are built once, `series_D` keeps one
level-zero walk per r, and `hp_notation` keeps the quotient side's solved
sub-problems.  Every verifier that builds a series takes the context as
`ctx`, and one called without it makes a fresh context for that call;
`verify_mn_tables` takes none, since it reads only coefficient tables.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Mapping, NamedTuple

from .context import RunContext
from .errors import ParamOutOfRange, check_params
from .hilbert import hp_notation
from .partitions import allowed_parts_C, series_D, series_E
from .qseries import (
    Mismatch,
    TruncatedSeries,
    div_sparse,
    eq_up_to,
    product_geometric_inverses,
    series_one,
    series_zero,
    sparse_series,
    triple_product_terms,
)


def _decompose_index(r: int, index: int) -> tuple[int, int]:
    """(0, index) for index <= r, else the (g, i) with index = (r-1)*g + i, 2 <= i <= r."""
    if index <= r:
        return 0, index
    i = (index - 2) % (r - 1) + 2
    return (index - i) // (r - 1), i


def _cascade(row: list, r: int, g_stop: int, i_stop: int, entry) -> object:
    """Entry i_stop of level g_stop of the level cascade, from level 0 `row`.

    Level g starts with C[g, 1] = C[g-1, r], and its entry i in 2..r is
    entry(C[g-1, r-i+1], C[g-1, r-i+2], C[g, i-1], w) with w = 2g(i-1); the
    last level stops at entry i_stop.  The cascade runs on series in
    _product_series and on certified ranges in _recursion_padding.
    """
    for g in range(1, g_stop + 1):
        new = [row[r - 1]]
        for i in range(2, (i_stop if g == g_stop else r) + 1):
            new.append(entry(row[r - i], row[r - i + 1], new[i - 2], 2 * g * (i - 1)))
        row = new
    return row[i_stop - 1]


def _recursion_padding(r: int, g_stop: int, i_stop: int) -> int:
    """Certified-range loss of the level cascade up to entry i_stop of level g_stop.

    Runs _cascade on certified ranges alone, counted from the bases'
    truncation: a difference keeps the smaller range of its operands, its
    exact division by q^(w-1) loses w-1 degrees, and the division by q after
    the chained entry is subtracted loses one more.  The loss grows as about
    r*g(g+1)/2.  It is exact: with one degree less the final truncation raises.
    """
    return -_cascade([0] * r, r, g_stop, i_stop, lambda a, b, c, w: min(min(a, b) - w + 1, c) - 1)


def c_series(r: int, index: int, n: int, *, ctx: RunContext | None = None) -> TruncatedSeries:
    """Product-side series of any positive index, certified through degree n.

    Index j in 1..r excludes the parts 2 mod 4 and 0, +-a mod 4r with
    a = 2r - (2j - 1), so its product factors as D * theta_a with
        D       = (q^2;q^2)_inf / ((q;q)_inf (q^4;q^4)_inf)
                = 1 / (q, q^3, q^4; q^4)_inf = 1 / theta(1, 4),
        theta_a = (q^a, q^(4r-a), q^(4r); q^(4r))_inf,
    each theta series sparse by Jacobi's triple product (Andrews, The Theory
    of Partitions, ch. 2).  Differences and exact division by q^w commute
    with D, so every index runs the level cascade (_cascade) on the theta
    numerators, each placed term by term, index j <= r being entry j of
    level 0, at a working truncation padded by its exact loss (see
    _recursion_padding, the same cascade on certified ranges); the last
    level stops at the entry asked for, and one sparse division by
    theta(1, 4) through degree n applies D.  The result is kept in `ctx`
    under (r, index, n).
    """
    check_params(r=r, index=index, n=n)
    products = (RunContext() if ctx is None else ctx).products
    key = (r, index, n)
    if key not in products:
        products[key] = _product_series(r, index, n)
    return products[key]


def _product_series(r: int, index: int, n: int) -> TruncatedSeries:
    g_stop, i_stop = _decompose_index(r, index)
    work = n + _recursion_padding(r, g_stop, i_stop)
    thetas = [
        sparse_series(triple_product_terms(2 * r - (2 * j - 1), 4 * r, work), work)
        for j in range(1, r + 1)
    ]
    top = _cascade(
        thetas, r, g_stop, i_stop, lambda a, b, c, w: ((a - b).div_q_pow(w - 1) - c).div_q_pow(1)
    )
    return div_sparse(top.truncated(n), triple_product_terms(1, 4, n))


class CoeffTable(NamedTuple):
    """Expansion coefficients indexed by (j, d), j in 1..r, depth d >= J+1.

    Entry (j, d) has q-adic valuation at least 2*d*(j-1), which is what
    makes the depth-limited limit checks exact.
    """

    entries: Mapping[tuple[int, int], TruncatedSeries]

    def entry(self, j: int, d: int) -> TruncatedSeries:
        return self.entries[(j, d)]


def coeff_table(kind: str, r: int, J: int, anchor: int, d_max: int, n: int) -> CoeffTable:
    """Fill the expansion coefficient recurrence from depth J+1 up to d_max.

    kind "M" pivots at position p = r - anchor + 1 (product side, anchor =
    ell); kind "N" pivots at position p = anchor (quotient side, anchor = i).
    At depth J the expansion is the identity, the head series being itself:
    entry(j, J) = [j = r - p + 1].  One depth step:
        entry(j, d+1) = q^(2(d+1)(j-1)) * sum_{m=1}^{r-j+1} entry(m, d)
                      + q^(2(d+1)j - 1) * sum_{m=1}^{r-j}   entry(m, d),
    so the first step gives the initial conditions at depth J+1:
        q^(2(J+1)j - 1) + q^(2(J+1)(j-1))   for j < p,
        q^(2(J+1)(j-1))                     for j = p,
        0                                   for j > p.
    At kind N each step is `series_E`'s pass over one pair, term for term.
    """
    check_params(r=r, J=J, anchor=anchor, n=n)
    if kind not in ("M", "N"):
        raise ParamOutOfRange(f"kind = {kind!r} violates kind in ('M', 'N')")
    if d_max < J + 1:
        raise ParamOutOfRange(f"d_max = {d_max} violates d_max >= J+1 = {J + 1}")

    pivot = anchor if kind == "N" else r - anchor + 1
    zero = series_zero(n)
    row = [zero] * r  # depth J, entry j in slot j - 1
    row[r - pivot] = series_one(n)
    entries: dict[tuple[int, int], TruncatedSeries] = {}
    for d in range(J, d_max):
        prefix = list(accumulate(row, initial=zero))
        for j in range(1, r + 1):
            step = prefix[r - j + 1].shift(2 * (d + 1) * (j - 1))
            step = step + prefix[r - j].shift(2 * (d + 1) * j - 1)
            entries[(j, d + 1)] = row[j - 1] = step
    return CoeffTable(entries)


class CheckReport(NamedTuple):
    """Outcome of one identity check, with the witness on failure."""

    check: str
    params: dict[str, object]
    passed: bool
    first_mismatch: Mismatch | None
    truncation: int

    def to_json_dict(self) -> dict:
        mismatch = None
        if self.first_mismatch is not None:
            mismatch = {
                "degree": self.first_mismatch.degree,
                "lhs": str(self.first_mismatch.lhs),
                "rhs": str(self.first_mismatch.rhs),
            }
        return {
            "check": self.check,
            "params": dict(self.params),
            "pass": self.passed,
            "first_mismatch": mismatch,
            "truncation": self.truncation,
        }


def _run_clauses(
    check: str,
    params: dict[str, object],
    n: int,
    clauses: list[tuple[str, TruncatedSeries, TruncatedSeries]],
) -> CheckReport:
    for label, lhs, rhs in clauses:
        ok, mismatch = eq_up_to(lhs, rhs, n)
        if not ok:
            failing = dict(params)
            failing["clause"] = label
            return CheckReport(check, failing, False, mismatch, n)
    return CheckReport(check, params, True, None, n)


def verify_hp_step(
    r: int, k: int, ell: int, J: int, n: int, *, ctx: RunContext | None = None
) -> CheckReport:
    """Check the odd-index recursion step of the quotient-side series.

    Main identity for odd k:
        HP(k, ell) = sum_{j=1}^{ell-1} q^((k+1)j - 1) HP(k+2, r-j+1)
                   + sum_{j=1}^{ell}   q^((k+1)(j-1)) HP(k+2, r-j+1)
    together with its two building blocks: the odd step
    HP(k, ell) = q^k HP(k+1, ell-1) + HP(k+1, ell) (for ell > 1; at ell = 1
    the step degenerates to HP(k, 1) = HP(k+2, r), the plain family) and the
    even-index cascade HP(k+1, ell) = sum_{j=1}^{ell} q^((k+1)(j-1)) HP(k+2, r-j+1).
    """
    check_params(r=r, k=k, ell=ell, J=J, n=n)
    if k % 2 == 0 or k < 2 * J + 1:
        raise ParamOutOfRange(f"k = {k} violates k odd and k >= 2J+1 = {2 * J + 1}")
    params: dict[str, object] = {"r": r, "k": k, "ell": ell, "J": J, "N": n}
    ctx = RunContext() if ctx is None else ctx

    def hp(kk: int, ll: int) -> TruncatedSeries:
        return hp_notation(kk, ll, r, n, ctx=ctx)

    lhs = hp(k, ell)
    cascade = series_zero(n)
    for j in range(1, ell + 1):
        cascade = cascade + hp(k + 2, r - j + 1).shift((k + 1) * (j - 1))
    rhs = cascade
    for j in range(1, ell):
        rhs = rhs + hp(k + 2, r - j + 1).shift((k + 1) * j - 1)

    clauses = [("full_step", lhs, rhs)]
    if ell == 1:
        clauses.append(("odd_step_degenerate", lhs, hp(k + 2, r)))
    else:
        clauses.append(("odd_step", lhs, hp(k + 1, ell - 1).shift(k) + hp(k + 1, ell)))
    clauses.append(("even_cascade", hp(k + 1, ell), cascade))
    return _run_clauses("hp_step", params, n, clauses)


def verify_hp_expansion(
    r: int, i: int, J: int, d: int, n: int, *, ctx: RunContext | None = None
) -> CheckReport:
    """Check the depth-d expansion of the quotient side over its own family.

    HP(2J+1, i) = sum_{j=1}^{r} N[j, d] * HP(2d+1, r-j+1) through degree n.
    """
    check_params(r=r, i=i, J=J, n=n)
    if d < J + 1:
        raise ParamOutOfRange(f"d = {d} violates d >= J+1 = {J + 1}")
    params: dict[str, object] = {"r": r, "i": i, "J": J, "d": d, "N": n}
    ctx = RunContext() if ctx is None else ctx
    table = coeff_table("N", r, J, i, d, n)
    lhs = hp_notation(2 * J + 1, i, r, n, ctx=ctx)
    rhs = series_zero(n)
    for j in range(1, r + 1):
        rhs = rhs + table.entry(j, d) * hp_notation(2 * d + 1, r - j + 1, r, n, ctx=ctx)
    return _run_clauses("hp_expansion", params, n, [("expansion", lhs, rhs)])


def verify_c_expansion(
    r: int, ell: int, J: int, d: int, n: int, *, ctx: RunContext | None = None
) -> CheckReport:
    """Check the depth-d expansion of the product side over higher indices.

    C[(r-1)J + ell] = sum_{j=1}^{r} M[j, d] * C[(r-1)d + j] through degree n.
    """
    check_params(r=r, ell=ell, J=J, n=n)
    if d < J + 1:
        raise ParamOutOfRange(f"d = {d} violates d >= J+1 = {J + 1}")
    params: dict[str, object] = {"r": r, "ell": ell, "J": J, "d": d, "N": n}
    ctx = RunContext() if ctx is None else ctx
    table = coeff_table("M", r, J, ell, d, n)
    lhs = c_series(r, (r - 1) * J + ell, n, ctx=ctx)
    rhs = series_zero(n)
    for j in range(1, r + 1):
        rhs = rhs + table.entry(j, d) * c_series(r, (r - 1) * d + j, n, ctx=ctx)
    return _run_clauses("c_expansion", params, n, [("expansion", lhs, rhs)])


def verify_mn_tables(r: int, i: int, J: int, d_max: int, n: int) -> CheckReport:
    """Check entrywise equality of the M and N tables under ell = r - i + 1."""
    check_params(r=r, i=i, J=J, n=n)
    ell = r - i + 1
    params: dict[str, object] = {"r": r, "i": i, "ell": ell, "J": J, "d_max": d_max, "N": n}
    m_table = coeff_table("M", r, J, ell, d_max, n)
    n_table = coeff_table("N", r, J, i, d_max, n)
    clauses = [
        (f"entry[j={j},d={d}]", m_table.entry(j, d), n_table.entry(j, d))
        for d in range(J + 1, d_max + 1)
        for j in range(1, r + 1)
    ]
    return _run_clauses("mn_tables", params, n, clauses)


def stop_depth(n: int, J: int = 0) -> int:
    """Smallest depth whose expansion is exact through degree n.

    d_stop is the first d with 2(d+1) > n; the entries consumed by the
    depth-d expansion sit one level deeper, and at depth d_stop + 1 every
    entry with j >= 2 has valuation at least 2(d_stop + 1) > n.
    """
    check_params(n=n, J=J)
    return max(n // 2, J)


def verify_limits(r: int, i: int, J: int, n: int, *, ctx: RunContext | None = None) -> CheckReport:
    """Finite shadow of the q-adic limit argument behind the main identity.

    With d_stop the smallest d such that 2(d+1) > n and D = d_stop + 1 the
    depth of the entries consumed at that stage: (a) every table entry with
    j >= 2 at depth D vanishes identically through degree n; (b) both tail
    series, the quotient side at start index 2*d_stop + 3 and the product
    side at index (r-1)(d_stop+1) + 1, equal 1 through degree n; (c) the
    stabilized j = 1 entries at depth D reproduce the product side at index
    (r-1)J + ell and the quotient side anchored at i.
    """
    check_params(r=r, i=i, J=J, n=n)
    ell = r - i + 1
    d_stop = stop_depth(n, J)
    depth = d_stop + 1
    params: dict[str, object] = {
        "r": r, "i": i, "ell": ell, "J": J, "N": n, "d_stop": d_stop, "depth": depth,
    }
    ctx = RunContext() if ctx is None else ctx
    m_table = coeff_table("M", r, J, ell, depth, n)
    n_table = coeff_table("N", r, J, i, depth, n)
    zero = series_zero(n)
    one = series_one(n)

    clauses: list[tuple[str, TruncatedSeries, TruncatedSeries]] = []
    for m in range(2, r + 1):
        clauses.append((f"m_entry_vanishes[j={m}]", m_table.entry(m, depth), zero))
        clauses.append((f"n_entry_vanishes[j={m}]", n_table.entry(m, depth), zero))
    clauses.append(("hp_tail_is_one", hp_notation(2 * d_stop + 3, r, r, n, ctx=ctx), one))
    tail = c_series(r, (r - 1) * (d_stop + 1) + 1, n, ctx=ctx)
    clauses.append(("product_tail_is_one", tail, one))
    head = c_series(r, (r - 1) * J + ell, n, ctx=ctx)
    clauses.append(("m_stabilizes_to_product", m_table.entry(1, depth), head))
    quotient_head = hp_notation(2 * J + 1, i, r, n, ctx=ctx)
    clauses.append(("n_stabilizes_to_quotient", n_table.entry(1, depth), quotient_head))
    return _run_clauses("limits", params, n, clauses)


def verify_main(r: int, i: int, J: int, n: int, *, ctx: RunContext | None = None) -> CheckReport:
    """Three-way equality of product side, quotient side, and gap side.

    All three series agree through degree n; at J = 0 the congruence counts,
    one direct product expansion apart from the theta cascade of c_series,
    are additionally compared against the level-zero gap counts degree by
    degree.
    """
    check_params(r=r, i=i, J=J, n=n)
    ell = r - i + 1
    params: dict[str, object] = {"r": r, "i": i, "ell": ell, "J": J, "N": n}
    ctx = RunContext() if ctx is None else ctx
    product_side = c_series(r, (r - 1) * J + ell, n, ctx=ctx)
    quotient_side = hp_notation(2 * J + 1, i, r, n, ctx=ctx)
    gap_side = series_E(r, i, J, n)
    clauses = [
        ("product_vs_gap", product_side, gap_side),
        ("quotient_vs_gap", quotient_side, gap_side),
        ("product_vs_quotient", product_side, quotient_side),
    ]
    if J == 0:
        congruence = product_geometric_inverses(allowed_parts_C(r, ell, n), n)
        clauses.append(("congruence_vs_gap_counts", congruence, series_D(r, i, n, ctx=ctx)))
    return _run_clauses("main", params, n, clauses)
