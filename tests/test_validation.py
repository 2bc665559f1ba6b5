"""Every public entry point rejects each out-of-range parameter by name, and so
does every truncation below them."""

from __future__ import annotations

import pytest

from gga_verify.errors import ParamOutOfRange
from gga_verify.hilbert import build_L_k_ell, hp_notation
from gga_verify.monomial import MonomialIdeal, standard_count
from gga_verify.partitions import (
    allowed_parts_C,
    count_C,
    count_D,
    count_E,
    series_D,
    series_E,
)
from gga_verify.qseries import (
    eq_up_to,
    product_geometric_inverses,
    series_one,
    series_zero,
    sparse_series,
    triple_product_terms,
)
from gga_verify.recursion import (
    c_series,
    coeff_table,
    stop_depth,
    verify_c_expansion,
    verify_hp_expansion,
    verify_hp_step,
    verify_limits,
    verify_main,
    verify_mn_tables,
)

from oracles import make_monomial, run_cli

# Out-of-range values of each parameter, for a valid call at r = 2.
BAD = {
    "r": [1],
    "i": [0, 3],
    "ell": [0, 3],
    "anchor": [0, 3],
    "J": [-1],
    "n": [-1],
    "N": [-1],
    "k": [0],
    "index": [0],
    "d": [0],
    "d_max": [0],
    "kind": ["X"],
}

# Each entry point with a valid keyword call; every keyword is varied below.
VALID = {
    allowed_parts_C: dict(r=2, index=1, n=10),
    count_C: dict(r=2, i=1, n=5),
    count_D: dict(r=2, i=1, n=5),
    count_E: dict(r=2, i=1, J=0, n=5),
    series_D: dict(r=2, i=1, n=5),
    series_E: dict(r=2, i=1, J=0, n=5),
    build_L_k_ell: dict(k=1, ell=1, r=2, n=8),
    hp_notation: dict(k=1, ell=1, r=2, n=8),
    c_series: dict(r=2, index=1, n=8),
    coeff_table: dict(kind="M", r=2, J=0, anchor=1, d_max=1, n=8),
    verify_hp_step: dict(r=2, k=1, ell=1, J=0, n=10),
    verify_hp_expansion: dict(r=2, i=1, J=0, d=1, n=10),
    verify_c_expansion: dict(r=2, ell=1, J=0, d=1, n=10),
    verify_mn_tables: dict(r=2, i=1, J=0, d_max=2, n=10),
    stop_depth: dict(n=10, J=0),
    verify_limits: dict(r=2, i=1, J=0, n=10),
    verify_main: dict(r=2, i=1, J=0, n=10),
}

CASES = [
    pytest.param(fn, name, value, kwargs, id=f"{fn.__name__}-{name}={value}")
    for fn, kwargs in VALID.items()
    for name in kwargs
    for value in BAD[name]
]
# k must also be odd and at least 2J + 1 (verify_hp_step), and allowed_parts_C
# caps its index at r.
CASES += [
    pytest.param(verify_hp_step, "k", 2, VALID[verify_hp_step], id="verify_hp_step-k=2"),
    pytest.param(verify_hp_step, "k", 1, {**VALID[verify_hp_step], "J": 1}, id="verify_hp_step-k=1-J=1"),
    pytest.param(verify_hp_step, "k", 3, {**VALID[verify_hp_step], "J": 2}, id="verify_hp_step-k=3-J=2"),
    pytest.param(allowed_parts_C, "index", 3, VALID[allowed_parts_C], id="allowed_parts_C-index=3"),
]


@pytest.mark.parametrize(("fn", "name", "value", "kwargs"), CASES)
def test_out_of_range_parameter_is_rejected_by_name(fn, name, value, kwargs) -> None:
    with pytest.raises(ParamOutOfRange) as info:
        fn(**{**kwargs, name: value})
    assert str(info.value).startswith(f"{name} = {value!r} ")


# Truncations below the entry points: each call is valid at 0 and not at -1.
TRUNCATIONS = {
    "TruncatedSeries.truncated": lambda n: series_one(3).truncated(n),
    "series_one": series_one,
    "series_zero": series_zero,
    "sparse_series": lambda n: sparse_series([(0, 1)], n),
    "product_geometric_inverses": lambda n: product_geometric_inverses([1, 2], n),
    "triple_product_terms": lambda n: triple_product_terms(1, 4, n),
    "MonomialIdeal.build": lambda n: MonomialIdeal.build([], 1, n),
}


@pytest.mark.parametrize("make", TRUNCATIONS.values(), ids=TRUNCATIONS.keys())
def test_negative_truncation_is_rejected_by_the_validator(make) -> None:
    make(0)
    with pytest.raises(ParamOutOfRange, match=r"^n = -1 violates n >= 0$"):
        make(-1)


# Floors of the other parameters: each call is valid at the floor and not one below.
FLOORS = {
    "MonomialIdeal.build": ("min_var", 1, lambda v: MonomialIdeal.build([], v, 5)),
    "TruncatedSeries.__getitem__": ("degree", 0, lambda v: series_one(3)[v]),
    "eq_up_to": ("n", 0, lambda v: eq_up_to(series_one(3), series_one(3), v)),
    "product_geometric_inverses": ("part", 1, lambda v: product_geometric_inverses([v], 5)),
    "standard_count": ("degree", 0, lambda v: standard_count(MonomialIdeal.build([], 1, 5), v)),
}


@pytest.mark.parametrize(("name", "low", "make"), FLOORS.values(), ids=FLOORS.keys())
def test_parameter_floor_is_rejected_by_the_validator(name: str, low: int, make) -> None:
    make(low)
    with pytest.raises(ParamOutOfRange, match=rf"^{name} = {low - 1} violates {name} >= {low}$"):
        make(low - 1)


# Guards outside the validator: each call raises ValueError with exactly this line.
GUARDS = {
    "MonomialIdeal.build-below-ring": (
        lambda: MonomialIdeal.build([make_monomial({1: 2, 5: 1})], 3, 10),
        "generator x1^2*x5 uses x_1 below the ambient ring x_3",
    ),
    "TruncatedSeries.shift": (lambda: series_one(3).shift(-1), "negative shift -1"),
    "TruncatedSeries.div_q_pow": (lambda: series_one(3).div_q_pow(-1), "negative power -1"),
}


@pytest.mark.parametrize(("make", "message"), GUARDS.values(), ids=GUARDS.keys())
def test_guard_rejects_with_its_message(make, message: str) -> None:
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


# (k, r, n) with one or more parameters out of range; r is reported first.
PLAIN_FAMILY_BAD = [(1, 1, 8), (0, 2, 8), (1, 2, -1), (0, 2, -1), (0, 1, -1)]


@pytest.mark.parametrize(("k", "r", "n"), PLAIN_FAMILY_BAD)
def test_plain_family_is_validated_as_the_capped_family_at_ell_r(
    k: int, r: int, n: int, capsys: pytest.CaptureFixture[str]
) -> None:
    # `hilbert --family Lk` fails as `--family Lkl --ell r`, with the same line
    flags = ["--k", str(k), "--r", str(r), "--N", str(n)]
    plain = run_cli("hilbert", "--family", "Lk", *flags)
    plain_err = capsys.readouterr().err
    capped = run_cli("hilbert", "--family", "Lkl", "--ell", str(r), *flags)
    assert (plain, plain_err) == (capped, capsys.readouterr().err)
    assert plain == (2, "") and plain_err.startswith("error: ") and plain_err.count("\n") == 1
