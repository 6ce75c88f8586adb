"""Liquidity-curve and borrowing-fee math.

Pure functions over three parameter sets:

* parabolic price deviation (virtual spread) as a function of utilization,
* parabolic base borrowing fee as a function of utilization,
* sigmoid dynamic borrowing fee as a function of market skew, charged only
  to the side with the larger open interest.

Utilization, skew, deviation and fee rates are all expressed on a 0-100
percent scale; fee rates are annualized. Raw math runs in binary64; every
value returned here is quantized to nine fractional decimal digits
(round-half-even) so downstream state and reports are platform-stable.
Quotes are exact integer arithmetic on prices in 1e-9 units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, QuoteError
from .money import div_round_half_even, format9, quantize9


@dataclass(frozen=True)
class DeviationParams:
    """Price-deviation curve: coefficient (per percent^2) and constant (percent)."""

    k_delta: float
    c_d: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.k_delta) and math.isfinite(self.c_d)):
            raise DomainError("deviation parameters must be finite")
        if self.k_delta < 0 or self.c_d < 0:
            raise DomainError("deviation parameters must be non-negative")


@dataclass(frozen=True)
class BaseFeeParams:
    """Base-fee curve: coefficient (per percent^2) and constant (percent/year)."""

    k_b: float
    c_b: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.k_b) and math.isfinite(self.c_b)):
            raise DomainError("base fee parameters must be finite")
        if self.k_b < 0 or self.c_b < 0:
            raise DomainError("base fee parameters must be non-negative")


@dataclass(frozen=True)
class DynamicFeeParams:
    """Dynamic-fee sigmoid: maximum rate (percent/year) and steepness (> 0)."""

    m_max: float
    steepness: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.m_max) and math.isfinite(self.steepness)):
            raise DomainError("dynamic fee parameters must be finite")
        if self.m_max < 0:
            raise DomainError("maximum dynamic fee must be non-negative")
        if self.steepness <= 0:
            raise DomainError("sigmoid steepness must be positive")


def _check_utilization(u: float) -> None:
    if not 0.0 <= u <= 100.0:
        raise DomainError(f"utilization {u} outside [0, 100]")


def eval_deviation(u: float, p: DeviationParams) -> float:
    """Price deviation in percent at utilization u (0-100)."""
    _check_utilization(u)
    return quantize9(p.k_delta * u * u + p.c_d)


def eval_base_fee(u: float, p: BaseFeeParams) -> float:
    """Annualized base borrowing fee in percent at utilization u (0-100)."""
    _check_utilization(u)
    return quantize9(p.k_b * u * u + p.c_b)


def eval_dynamic_fee(skew_pct: float, p: DynamicFeeParams) -> float:
    """Annualized dynamic borrowing fee in percent at skew (percent, >= 0)."""
    if skew_pct < 0:
        raise DomainError(f"skew {skew_pct} must be non-negative")
    e = math.exp(-p.steepness * skew_pct)
    return quantize9(p.m_max * (1.0 - e) / (1.0 + e))


def compute_skew(long_oi, short_oi, pool_value) -> float:
    """Market skew 100*|L-S|/P in percent; symmetric in L and S."""
    if pool_value <= 0:
        raise DomainError("pool value must be positive")
    if long_oi < 0 or short_oi < 0:
        raise DomainError("open interest must be non-negative")
    return quantize9(100.0 * abs(float(long_oi) - float(short_oi)) / float(pool_value))


# -- Quoting -----------------------------------------------------------------

def quote_nanos(price_nanos: int, u: float, p: DeviationParams) -> tuple[int, int]:
    """(long, short) = price * (1 +/- delta/100) in 1e-9 units, exact, rounded once half-even."""
    delta = eval_deviation(u, p)
    if delta >= 100:
        raise QuoteError(f"deviation {format9(delta)}% leaves no positive short quote")
    d = round(delta * 10**9)   # delta in 1e-9 percent, exact below 100; 10**11 is 100%
    return (div_round_half_even(price_nanos * (10**11 + d), 10**11),
            div_round_half_even(price_nanos * (10**11 - d), 10**11))


def quote_prices_units(price_units: int, u: float, p: DeviationParams) -> tuple[int, int]:
    """(long, short) quotes for a price in base units: 9-digit quotes, rounded half-even."""
    if price_units <= 0:
        raise DomainError("oracle price must be positive")
    long_q, short_q = quote_nanos(price_units * 1000, u, p)   # 1000 nanos per base unit
    return div_round_half_even(long_q, 1000), div_round_half_even(short_q, 1000)


def total_borrow_rates(
    u: float,
    skew: float,
    long_oi,
    short_oi,
    base: BaseFeeParams,
    dyn: DynamicFeeParams,
) -> tuple[float, float]:
    """Annualized (long, short) borrow rates in percent at utilization u and skew.

    Both sides pay the base fee; only the side with strictly greater open
    interest additionally pays the dynamic fee, evaluated at `skew` (see
    :func:`compute_skew`).
    """
    fb = eval_base_fee(u, base)
    if long_oi == short_oi:
        return fb, fb
    fd = eval_dynamic_fee(skew, dyn)
    if long_oi > short_oi:
        return fb + fd, fb
    return fb, fb + fd
