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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal

from .errors import DomainError, QuoteError
from .money import dec9, dec9_to_units, quantize9, units_to_decimal


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

def _deviated(price: Decimal, delta_pct: Decimal) -> tuple[Decimal, Decimal]:
    """Apply +/-delta% to a price; exact Decimal arithmetic, 9-digit results."""
    if delta_pct >= 100:
        raise QuoteError(f"deviation {delta_pct}% leaves no positive short quote")
    shift = price * delta_pct / 100
    return dec9(price + shift), dec9(price - shift)


def quote_price_decimals(price: Decimal, u: float, p: DeviationParams) -> tuple[Decimal, Decimal]:
    """(long, short) quotes for an exact Decimal oracle price."""
    if price <= 0:
        raise DomainError("oracle price must be positive")
    delta = dec9(eval_deviation(u, p))
    return _deviated(dec9(price), delta)


def quote_prices(oracle_price: float, u: float, p: DeviationParams) -> tuple[float, float]:
    """(long, short) quotes around a float oracle price, 9-digit quantized."""
    long_q, short_q = quote_price_decimals(Decimal(oracle_price), u, p)
    return float(long_q), float(short_q)


def quote_prices_units(price_units: int, u: float, p: DeviationParams) -> tuple[int, int]:
    """(long, short) quotes for a price in integer base units."""
    long_q, short_q = quote_price_decimals(units_to_decimal(price_units), u, p)
    return dec9_to_units(long_q), dec9_to_units(short_q)


def total_borrow_rates(
    u: float,
    long_oi,
    short_oi,
    pool_value,
    base: BaseFeeParams,
    dyn: DynamicFeeParams,
) -> tuple[float, float]:
    """Annualized (long, short) borrow rates in percent.

    Both sides pay the base fee; only the side with strictly greater open
    interest additionally pays the dynamic fee.
    """
    fb = eval_base_fee(u, base)
    if long_oi == short_oi:
        return fb, fb
    fd = eval_dynamic_fee(compute_skew(long_oi, short_oi, pool_value), dyn)
    if long_oi > short_oi:
        return fb + fd, fb
    return fb, fb + fd
