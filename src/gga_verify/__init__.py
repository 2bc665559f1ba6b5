"""Exact verification engine for the Gollnitz-Gordon-Andrews identity family.

Computes congruence-side products, gap-side partition counts, and
Hilbert-Poincare series of weight-graded monomial quotients in exact integer
arithmetic, and certifies their coefficientwise equality up to a chosen
truncation degree.

Importing the package loads no submodule: each exported name imports its
module on first use (PEP 562), so one side never loads the other two.
"""

from __future__ import annotations

from importlib import import_module

# Each module and the names the package exports from it.
_EXPORTS = {
    "context": ("RunContext",),
    "errors": ("NonDivisible", "ParamOutOfRange", "TruncationTooShort"),
    "hilbert": ("build_L_k_ell", "hp_brute", "hp_notation", "hp_split"),
    "partitions": ("count_C", "count_D", "count_E", "series_E"),
    "qseries": ("TruncatedSeries", "eq_up_to"),
    "recursion": (
        "CheckReport", "c_series", "verify_c_expansion", "verify_hp_expansion",
        "verify_hp_step", "verify_limits", "verify_main", "verify_mn_tables",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str) -> object:
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_HOME[name]}", __name__), name)
