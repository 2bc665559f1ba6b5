"""Every public entry point rejects each out-of-range parameter by name, and so
does every truncation below them."""

from __future__ import annotations

import pytest

from gga_verify.errors import ParamOutOfRange
from gga_verify.hilbert import build_L_k, build_L_k_ell, build_L_riJ, hp_notation
from gga_verify.monomial import MonomialIdeal
from gga_verify.partitions import (
    allowed_parts_C,
    count_C,
    count_D,
    count_E,
    series_E,
)
from gga_verify.qseries import (
    product_geometric_inverses,
    series_one,
    series_zero,
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
    series_E: dict(r=2, i=1, J=0, n=5),
    build_L_riJ: dict(r=2, i=1, J=0, n=8),
    build_L_k: dict(k=1, r=2, n=8),
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
# k must also be odd (verify_hp_step), and allowed_parts_C caps its index at r.
CASES += [
    pytest.param(verify_hp_step, "k", 2, VALID[verify_hp_step], id="verify_hp_step-k=2"),
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
    "product_geometric_inverses": lambda n: product_geometric_inverses([1, 2], n),
    "triple_product_terms": lambda n: triple_product_terms(1, 4, n),
    "MonomialIdeal.build": lambda n: MonomialIdeal.build([], 1, n),
}


@pytest.mark.parametrize("make", TRUNCATIONS.values(), ids=TRUNCATIONS.keys())
def test_negative_truncation_is_rejected_by_the_validator(make) -> None:
    make(0)
    with pytest.raises(ParamOutOfRange, match=r"^n = -1 violates n >= 0$"):
        make(-1)
