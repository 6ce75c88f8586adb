"""Curve math: worked examples frozen from independent oracles, plus properties.

Expected values for the parabolas come from exact Decimal evaluation and for
the sigmoid from a 50-digit mpmath evaluation of both published closed forms
(which must agree with each other before a value is frozen).
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf, exp as mexp

from perpamm.curves import (
    BaseFeeParams,
    DeviationParams,
    DynamicFeeParams,
    compute_skew,
    eval_base_fee,
    eval_deviation,
    eval_dynamic_fee,
    quote_nanos,
    quote_prices_units,
    total_borrow_rates,
)
from perpamm.errors import DomainError, QuoteError
from perpamm.money import format9, format_nanos, to_units


def sigmoid_oracle(sigma: float, m_max: float, steepness: float) -> float:
    """High-precision sigmoid via both closed forms; they must agree."""
    mp.dps = 50
    s, m, k = mpf(sigma), mpf(m_max), mpf(steepness)
    growth = mexp(k * s)
    decay = mexp(-k * s)
    form_a = m * (1 - 1 / growth) / (1 + 1 / growth)
    form_b = m * (1 - decay) / (1 + decay)
    assert abs(form_a - form_b) <= abs(form_b) * mpf("1e-30")
    return float(form_b)


def parabola_oracle(u: float, coeff: str, const: str) -> float:
    return float(Decimal(coeff) * Decimal(u) * Decimal(u) + Decimal(const))


# -- Deviation curve -------------------------------------------------------------

def test_deviation_collapses_to_constant_at_zero_utilization():
    assert eval_deviation(0, DeviationParams(0.0004, 0.5)) == 0.5


@pytest.mark.parametrize("u,kd,expected", [
    (100, "0.0004", 4.0),
    (100, "0.0005", 5.0),
    (50, "0.0004", 1.0),
])
def test_deviation_matches_polynomial_oracle(u, kd, expected):
    assert parabola_oracle(u, kd, "0") == expected
    assert eval_deviation(u, DeviationParams(float(kd), 0.0)) == pytest.approx(
        expected, abs=1e-9)


@pytest.mark.parametrize("u", [-0.001, 100.001, -5, 200])
def test_deviation_rejects_out_of_range_utilization(u):
    with pytest.raises(DomainError):
        eval_deviation(u, DeviationParams(0.0004, 0))


def test_deviation_params_reject_negatives():
    with pytest.raises(DomainError):
        DeviationParams(-0.1, 0)
    with pytest.raises(DomainError):
        DeviationParams(0, -0.1)


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
@pytest.mark.parametrize("make", [
    lambda x: DeviationParams(x, 0), lambda x: DeviationParams(0.01, x),
    lambda x: BaseFeeParams(x, 0), lambda x: BaseFeeParams(0.01, x),
    lambda x: DynamicFeeParams(x, 0.01), lambda x: DynamicFeeParams(500, x),
])
def test_curve_params_reject_non_finite(make, bad):
    with pytest.raises(DomainError):
        make(bad)


# -- Quotes ----------------------------------------------------------------------

@pytest.mark.parametrize("u,expected", [
    (0, (2000.0, 2000.0)),
    (50, (2020.0, 1980.0)),
    (100, (2080.0, 1920.0)),
])
def test_quotes_at_constant_oracle_price(u, expected):
    assert quote_prices_units(to_units(2000), u, DeviationParams(0.0004, 0.0)) == tuple(
        to_units(q) for q in expected)


def test_quote_rejects_full_deviation():
    with pytest.raises(QuoteError):
        quote_prices_units(to_units(2000), 100, DeviationParams(0.01, 0.0))   # delta = 100
    with pytest.raises(QuoteError):
        quote_prices_units(to_units(2000), 0, DeviationParams(0.0, 100.0))


def test_quote_rejects_non_positive_price():
    with pytest.raises(DomainError):
        quote_prices_units(0, 50, DeviationParams(0.0004, 0))


@settings(max_examples=300)
@given(
    price=st.decimals(min_value="0.000001", max_value="9999999",
                      allow_nan=False, allow_infinity=False, places=6),
    u=st.floats(min_value=0, max_value=100),
    kd=st.floats(min_value=0, max_value=0.009),
    cd=st.floats(min_value=0, max_value=5),
)
def test_quote_midpoint_is_exactly_the_oracle_price(price, u, kd, cd):
    price_nanos = int(Fraction(price) * 10**9)
    long_q, short_q = quote_nanos(price_nanos, u, DeviationParams(kd, cd))
    assert long_q + short_q == 2 * price_nanos
    assert long_q >= price_nanos >= short_q


@settings(max_examples=300)
@given(
    price=st.decimals(min_value="0.000000001", max_value="9" * 40,
                      allow_nan=False, allow_infinity=False, places=9),
    delta=st.decimals(min_value=0, max_value="99.999999999",
                      allow_nan=False, allow_infinity=False, places=9),
)
def test_deviated_quotes_are_exact_half_even_roundings(price, delta):
    """price * (1 +/- delta/100), rounded once half-even to 9 digits, at any 9-digit price."""
    # at u = 0 the deviation is the constant c_d, here the 9-digit delta
    long_q, short_q = quote_nanos(int(Fraction(price) * 10**9), 0,
                                  DeviationParams(0.0, float(delta)))
    exact_shift = Fraction(price) * Fraction(delta) / 100
    assert long_q == round((Fraction(price) + exact_shift) * 10**9)
    assert short_q == round((Fraction(price) - exact_shift) * 10**9)


def test_deviated_quote_of_a_long_price_is_not_rounded_at_28_digits():
    # 1234567890123456789012.5 * (1 + 0.746481...% ) needs more than 28 digits
    long_q, _ = quote_nanos(1234567890123456789012_500000000, 77.7,
                            DeviationParams(0.000123456, 0.123456789))
    assert format_nanos(long_q).endswith(".773972628")


# -- Base fee ---------------------------------------------------------------------

def test_base_fee_constant_shift_at_zero_utilization():
    assert eval_base_fee(0, BaseFeeParams(0.0325, 2.0)) == 2.0


@pytest.mark.parametrize("u,kb,expected", [
    (100, "0.0325", 325.0),
    (50, "0.01", 25.0),
    (100, "0.01", 100.0),
    (100, "0.005", 50.0),
])
def test_base_fee_matches_polynomial_oracle(u, kb, expected):
    assert parabola_oracle(u, kb, "0") == expected
    assert eval_base_fee(u, BaseFeeParams(float(kb), 0.0)) == pytest.approx(
        expected, abs=1e-9)


def test_base_fee_rejects_out_of_range_utilization():
    with pytest.raises(DomainError):
        eval_base_fee(101, BaseFeeParams(0.01, 0))


# -- Skew -------------------------------------------------------------------------

@pytest.mark.parametrize("lo,so,pool,expected", [
    (500, 500, 1000, 0.0),
    (600, 400, 1000, 20.0),
    (0, 1000, 1000, 100.0),
])
def test_skew_examples(lo, so, pool, expected):
    assert compute_skew(lo, so, pool) == expected


def test_skew_rejects_zero_pool():
    with pytest.raises(DomainError):
        compute_skew(1, 1, 0)


@settings(max_examples=200)
@given(lo=st.integers(min_value=0, max_value=10**15),
       so=st.integers(min_value=0, max_value=10**15),
       pool=st.integers(min_value=1, max_value=10**15))
def test_skew_is_symmetric(lo, so, pool):
    assert compute_skew(lo, so, pool) == compute_skew(so, lo, pool)


# -- Dynamic fee --------------------------------------------------------------------

def test_dynamic_fee_zero_at_origin():
    assert eval_dynamic_fee(0, DynamicFeeParams(500, 0.0325)) == 0.0
    assert eval_dynamic_fee(0, DynamicFeeParams(123, 0.9)) == 0.0


@pytest.mark.parametrize("sigma,k,m,frozen", [
    (100, 0.0325, 500, 462.673112656),
    (40, 0.0125, 500, 122.459331202),
    # the heavier-side composition example; value from the sigmoid oracle
    (20, 0.0125, 500, 62.176500886),
])
def test_dynamic_fee_matches_sigmoid_oracle(sigma, k, m, frozen):
    oracle = sigmoid_oracle(sigma, m, k)
    assert frozen == pytest.approx(oracle, abs=5e-10)
    assert eval_dynamic_fee(sigma, DynamicFeeParams(m, k)) == pytest.approx(
        frozen, abs=1e-9)


def test_dynamic_fee_rejects_negative_skew():
    with pytest.raises(DomainError):
        eval_dynamic_fee(-1, DynamicFeeParams(500, 0.0325))


def test_dynamic_fee_params_validation():
    with pytest.raises(DomainError):
        DynamicFeeParams(-1, 0.01)
    with pytest.raises(DomainError):
        DynamicFeeParams(500, 0)


@settings(max_examples=300)
@given(sigma=st.floats(min_value=0, max_value=500),
       m=st.floats(min_value=0, max_value=2000),
       k=st.floats(min_value=1e-6, max_value=0.1))
def test_dynamic_fee_closed_forms_agree(sigma, m, k):
    import math

    decay = math.exp(-k * sigma)
    growth = math.exp(k * sigma)
    form_a = m * (1 - 1 / growth) / (1 + 1 / growth)
    form_b = m * (1 - decay) / (1 + decay)
    tanh_form = m * math.tanh(k * sigma / 2)
    assert form_a == pytest.approx(form_b, rel=1e-9, abs=1e-12)
    assert form_b == pytest.approx(tanh_form, rel=1e-9, abs=1e-12)


def test_dynamic_fee_closed_forms_agree_ten_thousand_points():
    import math
    import random

    rng = random.Random(20240401)
    for _ in range(10_000):
        sigma = rng.uniform(0, 400)
        m = rng.uniform(0, 1500)
        k = rng.uniform(1e-6, 0.08)
        decay = math.exp(-k * sigma)
        growth = math.exp(k * sigma)
        form_a = m * (1 - 1 / growth) / (1 + 1 / growth)
        form_b = m * (1 - decay) / (1 + decay)
        tanh_form = m * math.tanh(k * sigma / 2)
        scale = max(abs(form_b), 1e-12)
        assert abs(form_a - form_b) <= 1e-9 * scale
        assert abs(form_b - tanh_form) <= 1e-9 * scale


@settings(max_examples=200)
@given(m=st.floats(min_value=0.001, max_value=2000),
       k=st.floats(min_value=1e-4, max_value=0.1),
       lo=st.floats(min_value=0, max_value=99),
       delta=st.floats(min_value=1e-6, max_value=1))
def test_dynamic_fee_monotone_and_bounded(m, k, lo, delta):
    p = DynamicFeeParams(m, k)
    assert eval_dynamic_fee(lo, p) <= eval_dynamic_fee(lo + delta, p)
    assert 0.0 <= eval_dynamic_fee(lo + delta, p) < m


def test_dynamic_fee_matches_tanh_form():
    import math
    import random

    rng = random.Random(7)
    for _ in range(2000):
        sigma = rng.uniform(0, 300)
        m = rng.uniform(0, 1000)
        k = rng.uniform(1e-6, 0.05)
        got = eval_dynamic_fee(sigma, DynamicFeeParams(m, k))
        want = m * math.tanh(k * sigma / 2.0)
        assert abs(got - want) <= 5e-10 + 1e-12 * abs(want)   # half a 9-digit tick


def test_dynamic_fee_approaches_maximum():
    p = DynamicFeeParams(500, 0.0325)
    assert eval_dynamic_fee(1e6, p) >= 500 * (1 - 1e-6)


# -- Total borrow rates ----------------------------------------------------------------

BASE = BaseFeeParams(0.01, 0.0)
DYN = DynamicFeeParams(500, 0.0125)


def rates_at_half(long_oi, short_oi, pool_value):
    """(long, short) rates at 50% utilization for a book."""
    return total_borrow_rates(50, compute_skew(long_oi, short_oi, pool_value),
                              long_oi, short_oi, BASE, DYN)


def test_balanced_book_pays_base_fee_only():
    long_rate, short_rate = rates_at_half(700, 700, 1400)
    assert long_rate == short_rate == 25.0


def test_heavier_long_side_pays_dynamic_fee():
    fd = eval_dynamic_fee(20, DYN)
    long_rate, short_rate = rates_at_half(600, 400, 1000)
    assert short_rate == 25.0
    assert long_rate == pytest.approx(25.0 + fd, abs=1e-9)
    assert long_rate == pytest.approx(25.0 + 62.176500886, abs=2e-9)


def test_heavier_short_side_mirrors():
    long_rate, short_rate = rates_at_half(400, 600, 1000)
    mirrored = rates_at_half(600, 400, 1000)
    assert (short_rate, long_rate) == mirrored


@settings(max_examples=150)
@given(u=st.floats(min_value=0, max_value=100),
       kd=st.floats(min_value=0, max_value=0.005),
       kb=st.floats(min_value=0, max_value=0.04))
def test_zero_coefficient_collapses_to_constant(u, kd, kb):
    assert eval_deviation(u, DeviationParams(0.0, 1.5)) == 1.5
    assert eval_base_fee(u, BaseFeeParams(0.0, 2.25)) == 2.25
    # and nondecreasing in u with positive coefficients
    if u < 100:
        assert eval_deviation(u, DeviationParams(kd, 0)) <= eval_deviation(
            100, DeviationParams(kd, 0))
        assert eval_base_fee(u, BaseFeeParams(kb, 0)) <= eval_base_fee(
            100, BaseFeeParams(kb, 0))


def test_nine_digit_quantization_applies():
    value = eval_dynamic_fee(33.3, DynamicFeeParams(500, 0.0325))
    assert Decimal(format9(value)) == Decimal(repr(value)).quantize(Decimal("1e-9"))
