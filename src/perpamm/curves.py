"""Liquidity-curve and borrowing-fee math.

Pure functions over three parameter sets:

* parabolic price deviation (virtual spread) as a function of utilization,
* parabolic base borrowing fee as a function of utilization,
* sigmoid dynamic borrowing fee as a function of market skew, charged only
  to the side with the larger open interest.

Utilization, skew, deviation and fee rates are all expressed on a 0-100
percent scale; fee rates are annualized. Each coefficient lies in
[0, 10**24] (steepness > 0), checked when its params are built, so every
curve value is finite and has a 9-digit form. Only the raw curves
(:func:`parabola`, :func:`sigmoid`) run in binary64, each formula written
once, over a column of binary64 percents: a figure table passes a block of
grid points, and the ``eval_*`` curves a one-point column. The ``eval_*``
curves, skew and borrow rates are int counts of 1e-9 percent ("nanos"),
each rounded half-even once. Quotes are exact integer arithmetic on prices
in 1e-9 units.
"""

import math
from collections.abc import Sequence
from typing import NamedTuple

from .errors import DomainError, QuoteError, checked
from .money import MAX_UNITS, UNIT_SCALE, div_round_half_even, format_nanos, nanos9


def _check_coefficients(curve: str, *values: float) -> None:
    """Each coefficient in [0, 10**24], the whole-unit bound of an input amount:
    with utilization in [0, 100] and the sigmoid at most m_max, every curve
    value is then below about 1.0001e28, finite, with a 9-digit form. The
    comparison refuses NaN and the infinities too."""
    bound = MAX_UNITS // UNIT_SCALE
    if not all(0 <= v <= bound for v in values):
        raise DomainError(f"{curve} parameters must be in [0, {bound:.0e}]")


@checked
class DeviationParams(NamedTuple):
    """Price-deviation curve: coefficient (per percent^2) and constant (percent)."""

    k_delta: float
    c_d: float

    def _check(self) -> None:
        _check_coefficients("deviation", *self)


@checked
class BaseFeeParams(NamedTuple):
    """Base-fee curve: coefficient (per percent^2) and constant (percent/year)."""

    k_b: float
    c_b: float

    def _check(self) -> None:
        _check_coefficients("base fee", *self)


@checked
class DynamicFeeParams(NamedTuple):
    """Dynamic-fee sigmoid: maximum rate (percent/year) and steepness (> 0)."""

    m_max: float
    steepness: float

    def _check(self) -> None:
        _check_coefficients("dynamic fee", *self)
        if self.steepness <= 0:
            raise DomainError("sigmoid steepness must be positive")


def check_utilization(u: float) -> None:
    if not 0.0 <= u <= 100.0:
        raise DomainError(f"utilization {u} outside [0, 100]")


def check_skew(skew_pct: float) -> None:
    if not skew_pct >= 0:   # `not >=` also refuses NaN
        raise DomainError(f"skew {skew_pct} must be non-negative")


# The raw binary64 curves, each formula once, over a column of x:
# (xs, coefficient, constant) -> the value at each x.

def parabola(us: Sequence[float], k: float, c: float) -> list[float]:
    """k*u^2 + c at each u: the deviation (k_delta, c_d) and base-fee (k_b, c_b) curves."""
    return [k * u * u + c for u in us]


def sigmoid(skews: Sequence[float], steepness: float, m_max: float) -> list[float]:
    """m_max * (1 - e) / (1 + e) with e = exp(-steepness * skew) at each skew: the
    dynamic-fee curve."""
    return [m_max * (1.0 - (e := math.exp(-steepness * x))) / (1.0 + e) for x in skews]


def eval_deviation(u: float, p: DeviationParams) -> int:
    """Price deviation in nanos of a percent at utilization u (0-100 percent)."""
    check_utilization(u)
    return nanos9(parabola((u,), p.k_delta, p.c_d)[0])


def eval_base_fee(u: float, p: BaseFeeParams) -> int:
    """Annualized base borrowing fee in nanos of a percent at utilization u (0-100 percent)."""
    check_utilization(u)
    return nanos9(parabola((u,), p.k_b, p.c_b)[0])


def eval_dynamic_fee(skew_pct: float, p: DynamicFeeParams) -> int:
    """Annualized dynamic borrowing fee in nanos of a percent at skew (percent, >= 0)."""
    check_skew(skew_pct)
    return nanos9(sigmoid((skew_pct,), p.steepness, p.m_max)[0])


def compute_skew(long_oi: int, short_oi: int, pool_value: int) -> int:
    """Market skew 100*|L-S|/P in nanos of a percent, rounded half-even; symmetric in L and S."""
    if pool_value <= 0:
        raise DomainError("pool value must be positive")
    if long_oi < 0 or short_oi < 0:
        raise DomainError("open interest must be non-negative")
    return div_round_half_even(100 * 10**9 * abs(long_oi - short_oi), pool_value)


# -- Quoting -----------------------------------------------------------------

def quote_nanos(price_nanos: int, d: int) -> tuple[int, int]:
    """(long, short) = price * (1 +/- d/100) in 1e-9 units, exact, rounded once half-even.

    d is the deviation in nanos of a percent, as `eval_deviation` gives it.
    """
    if d >= 10**11:   # 10**11 nanos is 100%
        raise QuoteError(f"deviation {format_nanos(d)}% leaves no positive short quote")
    long_q = div_round_half_even(price_nanos * (10**11 + d), 10**11)
    # the exact quotes sum to 2 * price, and rounding half-even keeps the sum (the
    # fractions sum to 0 or 1, and a tie in one is a tie in the other at the other
    # parity), so the short quote is the rest
    return long_q, 2 * price_nanos - long_q


def quote_prices_units(price_units: int, u: float, p: DeviationParams) -> tuple[int, int]:
    """(long, short) quotes for a price in base units: 9-digit quotes, rounded half-even."""
    if price_units <= 0:
        raise DomainError("oracle price must be positive")
    # 1000 nanos per base unit
    long_q, short_q = quote_nanos(price_units * 1000, eval_deviation(u, p))
    return div_round_half_even(long_q, 1000), div_round_half_even(short_q, 1000)


def total_borrow_rates(u: float, skew: float, long_oi: int, short_oi: int,
                       base: BaseFeeParams, dyn: DynamicFeeParams) -> tuple[int, int]:
    """Annualized (long, short) borrow rates, in nanos of a percent, at percents u and skew.

    Both sides pay the base fee; only the side with strictly greater open
    interest additionally pays the dynamic fee, evaluated at `skew`.
    """
    fb = eval_base_fee(u, base)
    if long_oi == short_oi:
        return fb, fb
    fd = eval_dynamic_fee(skew, dyn)
    if long_oi > short_oi:
        return fb + fd, fb
    return fb, fb + fd
