"""Exact verification engine for the Gollnitz-Gordon-Andrews identity family.

Computes congruence-side products, gap-side partition counts, and
Hilbert-Poincare series of weight-graded monomial quotients in exact integer
arithmetic, and certifies their coefficientwise equality up to a chosen
truncation degree.
"""

from .context import RunContext
from .errors import NonDivisible, ParamOutOfRange, TruncationTooShort
from .hilbert import build_L_k, build_L_k_ell, build_L_riJ, hp_brute, hp_notation, hp_split
from .partitions import count_C, count_D, count_E, series_E
from .qseries import TruncatedSeries, eq_up_to
from .recursion import (
    CheckReport,
    c_series,
    verify_c_expansion,
    verify_hp_expansion,
    verify_hp_step,
    verify_limits,
    verify_main,
    verify_mn_tables,
)

__all__ = [
    "CheckReport",
    "NonDivisible",
    "ParamOutOfRange",
    "RunContext",
    "TruncatedSeries",
    "TruncationTooShort",
    "build_L_k",
    "build_L_k_ell",
    "build_L_riJ",
    "c_series",
    "count_C",
    "count_D",
    "count_E",
    "eq_up_to",
    "hp_brute",
    "hp_notation",
    "hp_split",
    "series_E",
    "verify_c_expansion",
    "verify_hp_expansion",
    "verify_hp_step",
    "verify_limits",
    "verify_main",
    "verify_mn_tables",
]

__version__ = "0.1.0"
