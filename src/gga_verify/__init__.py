"""Exact verification engine for the Gollnitz-Gordon-Andrews identity family.

Computes congruence-side products, gap-side partition counts, and
Hilbert-Poincare series of weight-graded monomial quotients in exact integer
arithmetic, and certifies their coefficientwise equality up to a chosen
truncation degree.
"""

from .context import RunContext
from .errors import (
    DegreeBeyondTruncation,
    IndexOutOfRange,
    InvalidPart,
    NonDivisible,
    ParamOutOfRange,
    TruncationTooShort,
)
from .hilbert import (
    GradedQuotient,
    build_L_k,
    build_L_k_ell,
    build_L_riJ,
    hp_brute,
    hp_notation,
    hp_split,
)
from .monomial import (
    Monomial,
    MonomialIdeal,
    add_var,
    colon_var,
    minimalize,
    standard_count,
)
from .partitions import (
    IdentityParams,
    allowed_parts_C,
    count_C,
    count_D,
    count_E,
    series_E,
)
from .qseries import (
    Mismatch,
    TruncatedSeries,
    eq_up_to,
    product_geometric_inverses,
    q_power,
    series_one,
    series_zero,
)
from .recursion import (
    CheckReport,
    CoeffTable,
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

__all__ = [
    "CheckReport",
    "CoeffTable",
    "DegreeBeyondTruncation",
    "GradedQuotient",
    "IdentityParams",
    "IndexOutOfRange",
    "InvalidPart",
    "Mismatch",
    "Monomial",
    "MonomialIdeal",
    "NonDivisible",
    "ParamOutOfRange",
    "RunContext",
    "TruncatedSeries",
    "TruncationTooShort",
    "add_var",
    "allowed_parts_C",
    "build_L_k",
    "build_L_k_ell",
    "build_L_riJ",
    "c_series",
    "coeff_table",
    "colon_var",
    "count_C",
    "count_D",
    "count_E",
    "eq_up_to",
    "hp_brute",
    "hp_notation",
    "hp_split",
    "minimalize",
    "product_geometric_inverses",
    "q_power",
    "series_E",
    "series_one",
    "series_zero",
    "standard_count",
    "stop_depth",
    "verify_c_expansion",
    "verify_hp_expansion",
    "verify_hp_step",
    "verify_limits",
    "verify_main",
    "verify_mn_tables",
]

__version__ = "0.1.0"
