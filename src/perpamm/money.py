"""Deterministic fixed-point money and percent arithmetic.

Monetary amounts are integers in base units of 1e-6 (six fractional digits).
Percent- and ratio-typed configuration values use the same 1e-6 integer
scale so that every comparison against them (slippage, leverage, margin,
oracle deviation bands) is exact integer cross-multiplication.

Curve evaluation happens in binary64; any curve output that enters engine
state or a report is first quantized to nine fractional decimal digits with
round-half-even (see :func:`quantize9` / :func:`dec9`).
"""

from __future__ import annotations

import decimal
from decimal import Decimal

from .errors import ConfigError, DomainError

UNIT_SCALE = 10**6          # base units per whole money/percent/ratio unit
SECONDS_PER_YEAR = 31_536_000   # 365-day year for annualized-rate conversion

_NINE = Decimal("1e-9")
_CTX = decimal.Context(prec=50, rounding=decimal.ROUND_HALF_EVEN)
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


def to_units(value) -> int:
    """Convert a decimal-like value to integer base units.

    Strings and Decimals convert exactly and must not carry more than six
    fractional digits; floats are rounded half-even at the 1e-6 tick.
    Non-finite values and amounts beyond +/-MAX_UNITS are a ConfigError.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float, str, Decimal)):
        raise ConfigError(f"not a numeric amount: {value!r}")
    if isinstance(value, int):
        if abs(value) > _MAX_WHOLE:
            raise ConfigError(f"amount beyond {MAX_UNITS} base units: {value!r}")
        return value * UNIT_SCALE
    try:
        amount = Decimal(value)
    except decimal.InvalidOperation:
        raise ConfigError(f"not a decimal amount: {value!r}") from None
    if not amount.is_finite():
        raise ConfigError(f"not a finite amount: {value!r}")
    # copy_abs and the comparison use no context, so no exponent can overflow
    if amount.copy_abs() > _MAX_WHOLE_DEC:
        raise ConfigError(f"amount beyond {MAX_UNITS} base units: {value!r}")
    if isinstance(value, float):
        return int(_CTX.multiply(amount, UNIT_SCALE).to_integral_value(
            rounding=decimal.ROUND_HALF_EVEN))
    scaled = _EXACT.multiply(amount, UNIT_SCALE)
    if scaled != scaled.to_integral_value():
        raise ConfigError(f"more than 6 fractional digits: {value!r}")
    return int(scaled)


def units_to_decimal(units: int) -> Decimal:
    return _CTX.divide(Decimal(units), UNIT_SCALE)


def format_units(units: int) -> str:
    """Fixed-point string with exactly six fractional digits."""
    return f"{units_to_decimal(units):.6f}"


# -- 9-digit quantization of curve outputs ---------------------------------------

def dec9(x) -> Decimal:
    """Value quantized to 9 fractional digits, round-half-even, as Decimal."""
    if not isinstance(x, Decimal):
        x = Decimal(x)
    try:
        return x.quantize(_NINE, rounding=decimal.ROUND_HALF_EVEN, context=_CTX)
    except decimal.InvalidOperation:
        raise DomainError(f"{x:.6g} has no 9-digit fixed-point value") from None


def quantize9(x) -> float:
    """Value quantized to 9 fractional digits, returned as float."""
    return float(dec9(x))


def format9(x) -> str:
    """Fixed-point string with exactly nine fractional digits."""
    return f"{dec9(x):.9f}"


def dec9_to_units(d: Decimal) -> int:
    """Scale a 9-digit-quantized Decimal to integer base units, half-even."""
    return int(_CTX.multiply(d, UNIT_SCALE).to_integral_value(
        rounding=decimal.ROUND_HALF_EVEN))
