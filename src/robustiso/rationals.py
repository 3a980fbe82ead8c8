"""Exact rational helpers: conversion, parsing and the p/q wire format."""

import sys
from fractions import Fraction


def as_fraction(x) -> Fraction:
    """Coerce x to an exact Fraction.

    Accepts ints, Fractions, strings ("p/q" or decimal) and floats.
    Floats go through their shortest decimal repr, so as_fraction(0.3)
    is 3/10 rather than the binary expansion of 0.3.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return parse_rational(x)
    if isinstance(x, float):
        return Fraction(repr(x))
    raise TypeError(f"cannot interpret {x!r} as a rational")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or a decimal literal into a Fraction.

    Its exponent may not pass sys.get_int_max_str_digits() (no limit at 0),
    which bounds int(text) alike: "1e10000000" would take seconds to expand.
    """
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        _, e, exponent = text.upper().partition("E")
        limit = sys.get_int_max_str_digits()
        if e and limit and abs(int(exponent)) > limit:
            raise ValueError(f"exponent {exponent} passes {limit}")
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"invalid rational {text!r}") from exc


def format_rational(x) -> str:
    """Canonical "p/q" string (q >= 1, reduced); used in JSON output."""
    f = as_fraction(x)
    return f"{f.numerator}/{f.denominator}"
