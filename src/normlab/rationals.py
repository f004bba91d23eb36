"""Exact rational scalars.

The whole library computes over the rational subfield of the reals.  Every
scalar the API takes or returns is a ``fractions.Fraction``, which
guarantees lowest terms, a positive denominator, exact field operations, and
a total order.  Elements hold their values as int numerators over one shared
denominator (see :mod:`normlab.lattice_core`), which is the same arithmetic
without a Fraction per value.  No floating point enters the core anywhere.

Restricting the scalar field from the reals to the rationals is a modeling
choice made so that every order statement checked here is decidable; all
constructions in scope use only rational constants.
"""

import math
import re
from fractions import Fraction

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

# "p" or "p/q": ASCII decimal digits, no leading zero, "-" on p only, q positive
RATIONAL = re.compile(r"-?(0|[1-9][0-9]*)(/[1-9][0-9]*)?")


def rat(value) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact rational.

    Floats are rejected: silently accepting them would smuggle rounding
    into a library whose contract is exactness; so are bools, which JSON
    keeps apart from numbers.  A string outside :data:`RATIONAL` is a ValueError.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        if not RATIONAL.fullmatch(value):
            raise ValueError(f"not a \"p\" or \"p/q\" rational: {value!r}")
        num, _, den = value.partition("/")
        return Fraction(int(num), int(den or 1))
    raise TypeError(f"cannot build an exact rational from {type(value).__name__}")


def rat_str(value: Fraction) -> str:
    """Serialize a rational as "p" or "p/q"."""
    return str(rat(value))


def num_str(num: int, den: int) -> str:
    """Serialize num/den (den positive) in lowest terms, as :func:`rat_str` does."""
    g = math.gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"
