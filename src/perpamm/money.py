"""Deterministic fixed-point money and percent arithmetic.

Monetary amounts are integers in base units of 1e-6 (six fractional digits).
Percent- and ratio-typed configuration values use the same 1e-6 integer
scale so that every comparison against them (slippage, leverage, margin,
oracle deviation bands) is exact integer cross-multiplication.

Curve evaluation happens in binary64; any curve output that enters engine
state or a report is first quantized to nine fractional decimal digits with
round-half-even by the float's own correctly rounded ``.9f`` format (see
:func:`quantize9`). ``Decimal`` only parses input amounts (:func:`to_units`).
"""

from __future__ import annotations

import decimal
from decimal import Decimal

from .errors import ConfigError, DomainError

UNIT_SCALE = 10**6          # base units per whole money/percent/ratio unit
SECONDS_PER_YEAR = 31_536_000   # 365-day year for annualized-rate conversion

# exact for every finite Decimal: never rounds, overflows or underflows
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                         Emin=decimal.MIN_EMIN)


# -- Integer rounding ----------------------------------------------------------

def div_round_half_even(num: int, den: int) -> int:
    """num/den rounded to the nearest integer, ties to even. Requires den > 0."""
    if den <= 0:
        raise ValueError("denominator must be positive")
    q, r = divmod(num, den)
    twice = 2 * r
    if twice > den or (twice == den and q % 2 != 0):
        q += 1
    return q


def pct_of(amount: int, pct_units: int) -> int:
    """pct% of an amount, both in 1e-6 base units, rounded half-even."""
    return div_round_half_even(amount * pct_units, 100 * UNIT_SCALE)


# -- Base-unit conversion --------------------------------------------------------

# Largest amount, in base units, an input may carry: 10**24 whole units. Sums
# of such amounts stay far inside binary64 range when the engine divides them
# as floats (utilization, skew).
MAX_UNITS = 10**30
_MAX_WHOLE = MAX_UNITS // UNIT_SCALE
_MAX_WHOLE_DEC = Decimal(_MAX_WHOLE)


def _shown(value) -> str:
    """repr of an input amount; an int too long to print is shown by its size."""
    if isinstance(value, int) and value.bit_length() > 1024:
        return f"an int of {value.bit_length()} bits"
    return repr(value)


def to_units(value) -> int:
    """Convert a decimal-like value to integer base units.

    Strings and Decimals convert exactly and must not carry more than six
    fractional digits; floats are rounded half-even at the 1e-6 tick.
    Non-finite values and amounts beyond +/-MAX_UNITS are a ConfigError.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float, str, Decimal)):
        raise ConfigError(f"not a numeric amount: {_shown(value)}")
    if isinstance(value, int):
        if abs(value) > _MAX_WHOLE:
            raise ConfigError(f"amount beyond {MAX_UNITS} base units: {_shown(value)}")
        return value * UNIT_SCALE
    try:
        amount = Decimal(value)
    except decimal.InvalidOperation:
        raise ConfigError(f"not a decimal amount: {_shown(value)}") from None
    if not amount.is_finite():
        raise ConfigError(f"not a finite amount: {_shown(value)}")
    # copy_abs and the comparison use no context, so no exponent can overflow
    if amount.copy_abs() > _MAX_WHOLE_DEC:
        raise ConfigError(f"amount beyond {MAX_UNITS} base units: {_shown(value)}")
    scaled = _EXACT.multiply(amount, UNIT_SCALE)
    if isinstance(value, float):
        return int(scaled.to_integral_value(rounding=decimal.ROUND_HALF_EVEN))
    if scaled != scaled.to_integral_value():
        raise ConfigError(f"more than 6 fractional digits: {_shown(value)}")
    return int(scaled)


def _fixed_point(n: int, digits: int) -> str:
    """Integer n scaled by 10**-digits, printed with exactly that many digits."""
    whole, frac = divmod(abs(n), 10**digits)
    return f"{'-' if n < 0 else ''}{whole}.{frac:0{digits}d}"


def format_units(units: int) -> str:
    """Fixed-point string with exactly six fractional digits."""
    return _fixed_point(units, 6)


def format_nanos(nanos: int) -> str:
    """Fixed-point string of an integer count of 1e-9 units."""
    return _fixed_point(nanos, 9)


# -- 9-digit quantization of curve outputs ---------------------------------------

# A 9-digit value has at most 50 significant digits: its magnitude is below 10**41.
# Comparing a float or an int against this int is exact.
_FIXED9_BOUND = 10**41


def _fixed9(x: float) -> str:
    # `not <` also rejects NaN and the infinities
    if not abs(x) < _FIXED9_BOUND:
        raise DomainError(f"{x:.6g} has no 9-digit fixed-point value")
    return f"{x:.9f}"


def quantize9(x: float) -> float:
    """Value quantized to 9 fractional digits, round-half-even, returned as float."""
    return float(_fixed9(x))


def format9(x: float) -> str:
    """Fixed-point string with exactly nine fractional digits, round-half-even."""
    return _fixed9(x)
