"""Deterministic fixed-point money and percent arithmetic.

Monetary amounts are integers in base units of 1e-6 (six fractional digits).
Percent- and ratio-typed configuration values use the same 1e-6 integer
scale so that every comparison against them (slippage, leverage, margin,
oracle deviation bands) is exact integer cross-multiplication.

Utilization, skew, deviation and rates are int counts of 1e-9 percent
("nanos"); a binary64 curve output becomes one through its own correctly
rounded ``.9f`` digits (:data:`FORMAT9`), round-half-even (:func:`nanos9`,
or :func:`nanos9_all` for a column). Every finite double has such digits,
and a curve value is finite by construction: ``curves`` bounds each
coefficient by the whole-unit bound of an amount, 10**24. An int prints as
fixed point from its own decimal digits (:func:`format_units`,
:func:`format_nanos`). An input amount (:func:`to_units`) is an int, a plain
decimal string, which ``int()`` parses, or a Decimal, which only a JSON
number gives; a float, which only a JSON ``NaN`` or ``Infinity`` gives, is
not an amount.
"""

from __future__ import annotations

import decimal
from decimal import Decimal

from .errors import ConfigError

UNIT_SCALE = 10**6          # base units per whole money/percent/ratio unit
SECONDS_PER_YEAR = 31_536_000   # 365-day year for annualized-rate conversion
# fee-index units per unit fee per unit size: an index adds rate nanos * seconds
FEE_INDEX_SCALE = 100 * 10**9 * SECONDS_PER_YEAR
# Latest timestamp, in seconds, a trace row or an action may carry (the largest
# signed 64-bit int): it bounds the ints accrual forms, so a fee-index step,
# rate nanos (below 10**38, as a coefficient is at most 10**24) * seconds,
# stays below 10**57.
MAX_TIMESTAMP = 2**63 - 1

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

# Largest amount, in base units, an input may carry: 10**24 whole units. It
# bounds the ints the engine multiplies (a fee is size * index delta), and keeps
# a utilization's or skew's percent, nanos / 10**9, a finite double for a curve.
MAX_UNITS = 10**30
_MAX_WHOLE = MAX_UNITS // UNIT_SCALE
_MAX_WHOLE_DEC = Decimal(_MAX_WHOLE)
_MAX_WHOLE_DIGITS = len(str(_MAX_WHOLE))


# Longest repr an amount error prints whole; it fits a 5,000-digit string.
_SHOWN_CHARS = 10_000


def _shown(value) -> str:
    """repr of an input amount, bounded: a JSON list or object is named by its
    type and length, an int too long to print by its size, and any other repr
    is cut after _SHOWN_CHARS characters."""
    if isinstance(value, (list, dict)):
        return f"a {type(value).__name__} of length {len(value)}"
    if isinstance(value, int) and value.bit_length() > 1024:
        return f"an int of {value.bit_length()} bits"
    text = repr(value)
    if len(text) > _SHOWN_CHARS:
        return f"{text[:_SHOWN_CHARS]}... ({len(text)} characters)"
    return text


def _beyond(value) -> ConfigError:
    return ConfigError(f"amount beyond {MAX_UNITS} base units: {_shown(value)}")


def _too_fine(value) -> ConfigError:
    return ConfigError(f"more than 6 fractional digits: {_shown(value)}")


def _plain_units(value: str) -> int:
    """Base units of a plain decimal string, ``-?[0-9]+(\\.[0-9]*)?``, by int(),
    under to_units's bound, digit rule and messages; any other string is not a
    decimal amount."""
    whole, _, frac = value.partition(".")
    digits = whole.removeprefix("-")
    # isascii() confines isdigit() to 0-9; int() alone would take "+5", " 5", "1_000"
    if not (value.isascii() and digits.isdigit() and (frac.isdigit() or not frac)):
        raise ConfigError(f"not a decimal amount: {_shown(value)}")
    digits = digits.lstrip("0")
    frac = frac.rstrip("0")
    # checked before int(), which refuses strings past sys.get_int_max_str_digits()
    if len(digits) > _MAX_WHOLE_DIGITS:
        raise _beyond(value)
    if len(frac) > 6:
        # the fraction is nonzero, so the amount exceeds the bound iff its whole part reaches it
        if int(digits or "0") >= _MAX_WHOLE:
            raise _beyond(value)
        raise _too_fine(value)
    units = int(digits + frac.ljust(6, "0"))
    if units > MAX_UNITS:
        raise _beyond(value)
    return -units if whole[:1] == "-" else units


def to_units(value) -> int:
    """Convert an input amount to integer base units, exactly.

    A string is an amount only in the plain form ``-?[0-9]+(\\.[0-9]*)?``; a
    Decimal, which only a JSON number gives, may use any spelling JSON allows.
    Neither may carry more than six fractional digits; any type but int, str
    and Decimal (a bool, a float) is a ConfigError, as are non-finite values
    and amounts beyond +/-MAX_UNITS.
    """
    if isinstance(value, str):
        return _plain_units(value)
    if isinstance(value, bool) or not isinstance(value, (int, Decimal)):
        raise ConfigError(f"not a numeric amount: {_shown(value)}")
    if isinstance(value, int):
        if abs(value) > _MAX_WHOLE:
            raise _beyond(value)
        return value * UNIT_SCALE
    if not value.is_finite():
        raise ConfigError(f"not a finite amount: {_shown(value)}")
    # copy_abs and the comparison use no context, so no exponent can overflow
    if value.copy_abs() > _MAX_WHOLE_DEC:
        raise _beyond(value)
    scaled = _EXACT.multiply(value, UNIT_SCALE)
    if scaled != scaled.to_integral_value():
        raise _too_fine(value)
    return int(scaled)


def _fixed_point(n: int, digits: int) -> str:
    """Integer n scaled by 10**-digits, printed with exactly that many digits."""
    text = str(abs(n)).rjust(digits + 1, "0")   # at least one digit before the point
    return f"{'-' if n < 0 else ''}{text[:-digits]}.{text[-digits:]}"


def format_units(units: int) -> str:
    """Fixed-point string with exactly six fractional digits."""
    return _fixed_point(units, 6)


def format_nanos(nanos: int) -> str:
    """Fixed-point string of an integer count of 1e-9 units."""
    return _fixed_point(nanos, 9)


# -- 9-digit quantization of curve outputs ---------------------------------------

# A finite double's 9-digit value: its `.9f` digits, which Python rounds
# correctly, half-even. The one conversion, for a scalar (`FORMAT9 % x`) and
# for a whole table in one printf-style pass.
FORMAT9 = "%.9f"


def quantize9(x: float) -> float:
    """Value quantized to 9 fractional digits, round-half-even, returned as float."""
    return float(FORMAT9 % x)


def format9(x: float) -> str:
    """Fixed-point string with exactly nine fractional digits, round-half-even."""
    return FORMAT9 % x


def nanos9(x: float) -> int:
    """The 9-digit value of x as an integer count of 1e-9: its `.9f` digits, exact."""
    return int((FORMAT9 % x).replace(".", "", 1))


def nanos9_all(xs) -> list[int]:
    """nanos9 of each finite value of a sequence, in one pass."""
    return list(map(int, ((FORMAT9 + " ") * len(xs) % tuple(xs)).replace(".", "").split()))
