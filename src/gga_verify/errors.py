"""Exception types shared across the package, and the one parameter validator."""

from __future__ import annotations


class NonDivisible(ArithmeticError):
    """Exact division by a power of q hit a nonzero low-order coefficient.

    On correct inputs the numerators of the product-side recursion are
    divisible by the required q-powers, so this always signals a
    transcription error upstream, never an expected condition.
    """


class InvalidPart(ValueError):
    """A partition part size of zero or below was supplied."""


class TruncationTooShort(ValueError):
    """A coefficient beyond the certified truncation range was requested."""


class ParamOutOfRange(ValueError):
    """A parameter lies outside the range the identities are stated for."""


class DegreeBeyondTruncation(ValueError):
    """A graded dimension beyond the ideal's truncation degree was requested."""


# The smallest value of each parameter, and whether r is also its largest.
_RULES: dict[str, tuple[int, bool]] = {
    "r": (2, False),
    "i": (1, True),
    "ell": (1, True),
    "anchor": (1, True),
    "J": (0, False),
    "n": (0, False),
    "N": (0, False),
    "k": (1, False),
    "index": (1, False),
}


def check_params(**values: int | None) -> None:
    """Raise ParamOutOfRange naming the first parameter outside its range.

    Each keyword is a parameter name from the rule table; a value of None is
    skipped.  r is checked first, so the rules capped at r see a valid r.
    Rules that tie two parameters together (a depth of at least J+1, an odd
    k of at least 2J+1) stay with the one function that states them.
    """
    for name, value in sorted(values.items(), key=lambda item: item[0] != "r"):
        if value is None:
            continue
        low, capped = _RULES[name]
        if value < low or (capped and value > values["r"]):
            rule = f"{low} <= {name} <= {values['r']}" if capped else f"{name} >= {low}"
            raise ParamOutOfRange(f"{name} = {value} violates {rule}")
