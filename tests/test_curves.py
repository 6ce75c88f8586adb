"""Curve math: worked examples frozen from independent oracles, plus properties.

Expected values for the parabolas come from exact Decimal evaluation and for
the sigmoid from a 50-digit mpmath evaluation of both published closed forms
(which must agree with each other before a value is frozen).
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf, exp as mexp

from perpamm.curves import (
    BaseFeeParams,
    DeviationParams,
    DynamicFeeParams,
    check_utilization,
    compute_skew,
    eval_base_fee,
    eval_deviation,
    eval_dynamic_fee,
    parabola,
    quote_nanos,
    quote_prices_units,
    sigmoid,
    total_borrow_rates,
)
from perpamm.errors import DomainError, QuoteError
from perpamm.money import div_round_half_even, format9, format_nanos, quantize9, to_units


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
    assert eval_deviation(0, DeviationParams(0.0004, 0.5)) == 500_000_000


@pytest.mark.parametrize("u,kd,expected", [
    (100, "0.0004", 4_000_000_000),
    (100, "0.0005", 5_000_000_000),
    (50, "0.0004", 1_000_000_000),
], ids=["100-0.0004-4.0", "100-0.0005-5.0", "50-0.0004-1.0"])   # ids kept in percent
def test_deviation_matches_polynomial_oracle(u, kd, expected):
    assert parabola_oracle(u, kd, "0") * 10**9 == expected
    assert eval_deviation(u, DeviationParams(float(kd), 0.0)) == expected


@pytest.mark.parametrize("u", [-0.001, 100.001, -5, 200])
def test_deviation_rejects_out_of_range_utilization(u):
    with pytest.raises(DomainError):
        eval_deviation(u, DeviationParams(0.0004, 0))


def test_deviation_params_reject_negatives():
    with pytest.raises(DomainError):
        DeviationParams(-0.1, 0)
    with pytest.raises(DomainError):
        DeviationParams(0, -0.1)


# each curve's params with one coefficient x
MAKERS = [
    lambda x: DeviationParams(x, 0), lambda x: DeviationParams(0.01, x),
    lambda x: BaseFeeParams(x, 0), lambda x: BaseFeeParams(0.01, x),
    lambda x: DynamicFeeParams(x, 0.01), lambda x: DynamicFeeParams(500, x),
]


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
@pytest.mark.parametrize("make", MAKERS)
def test_curve_params_reject_non_finite(make, bad):
    with pytest.raises(DomainError):
        make(bad)


ABOVE_BOUND = math.nextafter(1e24, math.inf)   # 1e24 is the double nearest 10**24, below it


@pytest.mark.parametrize("make", MAKERS)
def test_curve_params_take_coefficients_up_to_ten_to_the_24(make):
    make(1e24)
    with pytest.raises(DomainError, match=r"parameters must be in \[0, 1e\+24\]$"):
        make(ABOVE_BOUND)


def test_curves_at_the_coefficient_bound_have_nine_digit_values():
    """The largest values a bounded curve gives, at 100% and at any skew."""
    top = 10**24 * 100**2 + 10**24   # exact k*u^2 + c; the double rounds it within 2**-52
    for curve, params in [(eval_deviation, DeviationParams(1e24, 1e24)),
                          (eval_base_fee, BaseFeeParams(1e24, 1e24))]:
        assert curve(100, params) == pytest.approx(top * 10**9, rel=2**-50)
    assert eval_dynamic_fee(1e28, DynamicFeeParams(1e24, 1e24)) == int(1e24) * 10**9


# -- Quotes ----------------------------------------------------------------------

@pytest.mark.parametrize("u,expected", [
    (0, (2000, 2000)),
    (50, (2020, 1980)),
    (100, (2080, 1920)),
])
def test_quotes_at_constant_oracle_price(u, expected):
    assert quote_prices_units(to_units(2000), u, DeviationParams(0.0004, 0.0)) == tuple(
        to_units(q) for q in expected)


def test_quote_rounds_half_even_at_the_base_unit():
    """2 base units at a 25% deviation quote 2.5 and 1.5 units: both ties go to
    the even 2, not outward to (3, 1)."""
    assert quote_prices_units(2, 0.0, DeviationParams(0.0, 25.0)) == (2, 2)


def test_quote_rejects_full_deviation():
    with pytest.raises(QuoteError):
        quote_prices_units(to_units(2000), 100, DeviationParams(0.01, 0.0))   # delta = 100
    with pytest.raises(QuoteError):
        quote_prices_units(to_units(2000), 0, DeviationParams(0.0, 100.0))


def quote_nanos_reference(price_nanos: int, u: float, p: DeviationParams) -> tuple[int, int]:
    """quote_nanos as first written: the deviation through quantize9, then back to an int."""
    check_utilization(u)
    delta = quantize9(p.k_delta * u * u + p.c_d)
    if delta >= 100:
        raise QuoteError(f"deviation {format9(delta)}% leaves no positive short quote")
    d = round(delta * 10**9)
    return (div_round_half_even(price_nanos * (10**11 + d), 10**11),
            div_round_half_even(price_nanos * (10**11 - d), 10**11))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (DomainError, QuoteError) as exc:
        return type(exc), str(exc)


@settings(max_examples=1000)
@given(
    price_nanos=st.integers(1, 10**40),
    u=st.one_of(st.floats(min_value=0, max_value=100), st.floats()),
    kd=st.one_of(st.floats(min_value=0, max_value=0.02), st.floats(min_value=0, max_value=1e24)),
    cd=st.one_of(st.floats(min_value=0, max_value=5), st.floats(min_value=95, max_value=105)),
)
@example(price_nanos=2 * 10**12, u=100.0, kd=0.01, cd=0.0)    # delta is exactly 100
@example(price_nanos=2 * 10**12, u=0.0, kd=0.0, cd=99.9999999995)
def test_quote_nanos_equals_the_quantize9_formula(price_nanos, u, kd, cd):
    p = DeviationParams(kd, cd)
    assert _outcome(lambda: quote_nanos(price_nanos, eval_deviation(u, p))) == _outcome(
        quote_nanos_reference, price_nanos, u, p)


@settings(max_examples=1000)
@given(price_nanos=st.integers(1, 10**40), d=st.integers(0, 10**11 - 1))
@example(price_nanos=1, d=5 * 10**10)   # long 1.5 and short 0.5: ties to 2 and 0
@example(price_nanos=3, d=5 * 10**10)   # long 4.5 and short 1.5: ties to 4 and 2
@example(price_nanos=10**11 + 1, d=0)
def test_quote_nanos_short_is_its_own_half_even_rounding(price_nanos, d):
    """The short quote, taken as 2 * price - long, is price * (1 - d/100) rounded half-even."""
    long_q, short_q = quote_nanos(price_nanos, d)
    assert long_q == div_round_half_even(price_nanos * (10**11 + d), 10**11)
    assert short_q == div_round_half_even(price_nanos * (10**11 - d), 10**11)


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
    long_q, short_q = quote_nanos(price_nanos, eval_deviation(u, DeviationParams(kd, cd)))
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
    long_q, short_q = quote_nanos(int(Fraction(price) * 10**9),
                                  eval_deviation(0, DeviationParams(0.0, float(delta))))
    exact_shift = Fraction(price) * Fraction(delta) / 100
    assert long_q == round((Fraction(price) + exact_shift) * 10**9)
    assert short_q == round((Fraction(price) - exact_shift) * 10**9)


def test_deviated_quote_of_a_long_price_is_not_rounded_at_28_digits():
    # 1234567890123456789012.5 * (1 + 0.746481...% ) needs more than 28 digits
    long_q, _ = quote_nanos(1234567890123456789012_500000000,
                            eval_deviation(77.7, DeviationParams(0.000123456, 0.123456789)))
    assert format_nanos(long_q).endswith(".773972628")


# -- Base fee ---------------------------------------------------------------------

def test_base_fee_constant_shift_at_zero_utilization():
    assert eval_base_fee(0, BaseFeeParams(0.0325, 2.0)) == 2_000_000_000


@pytest.mark.parametrize("u,kb,expected", [
    (100, "0.0325", 325_000_000_000),
    (50, "0.01", 25_000_000_000),
    (100, "0.01", 100_000_000_000),
    (100, "0.005", 50_000_000_000),
], ids=["100-0.0325-325.0", "50-0.01-25.0", "100-0.01-100.0", "100-0.005-50.0"])
def test_base_fee_matches_polynomial_oracle(u, kb, expected):
    assert parabola_oracle(u, kb, "0") * 10**9 == expected
    assert eval_base_fee(u, BaseFeeParams(float(kb), 0.0)) == expected


def test_base_fee_rejects_out_of_range_utilization():
    with pytest.raises(DomainError):
        eval_base_fee(101, BaseFeeParams(0.01, 0))


# -- Skew -------------------------------------------------------------------------

@pytest.mark.parametrize("lo,so,pool,expected", [
    (500, 500, 1000, 0),
    (600, 400, 1000, 20_000_000_000),
    (0, 1000, 1000, 100_000_000_000),
], ids=["500-500-1000-0.0", "600-400-1000-20.0", "0-1000-1000-100.0"])
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
    assert eval_dynamic_fee(0, DynamicFeeParams(500, 0.0325)) == 0
    assert eval_dynamic_fee(0, DynamicFeeParams(123, 0.9)) == 0


@pytest.mark.parametrize("sigma,k,m,frozen", [
    (100, 0.0325, 500, 462_673_112_656),
    (40, 0.0125, 500, 122_459_331_202),
    # the heavier-side composition example; value from the sigmoid oracle
    (20, 0.0125, 500, 62_176_500_886),
], ids=["100-0.0325-500-462.673112656", "40-0.0125-500-122.459331202",
        "20-0.0125-500-62.176500886"])
def test_dynamic_fee_matches_sigmoid_oracle(sigma, k, m, frozen):
    oracle = sigmoid_oracle(sigma, m, k)
    assert frozen == pytest.approx(oracle * 10**9, abs=0.5)
    assert eval_dynamic_fee(sigma, DynamicFeeParams(m, k)) == frozen


def test_dynamic_fee_rejects_negative_skew():
    with pytest.raises(DomainError):
        eval_dynamic_fee(-1, DynamicFeeParams(500, 0.0325))
    with pytest.raises(DomainError, match="^skew nan must be non-negative$"):
        eval_dynamic_fee(math.nan, DynamicFeeParams(500, 0.0325))


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
    assert 0 <= eval_dynamic_fee(lo + delta, p) < Fraction(m) * 10**9


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
        assert abs(got - want * 10**9) <= 0.5 + 1e-3 * abs(want)   # half a 9-digit tick


def test_dynamic_fee_approaches_maximum():
    p = DynamicFeeParams(500, 0.0325)
    assert eval_dynamic_fee(1e6, p) >= 499_999_500_000


# -- Total borrow rates ----------------------------------------------------------------

BASE = BaseFeeParams(0.01, 0.0)
DYN = DynamicFeeParams(500, 0.0125)


def rates_at_half(long_oi, short_oi, pool_value):
    """(long, short) rates at 50% utilization for a book."""
    return total_borrow_rates(50, compute_skew(long_oi, short_oi, pool_value) / 10**9,
                              long_oi, short_oi, BASE, DYN)


def test_balanced_book_pays_base_fee_only():
    long_rate, short_rate = rates_at_half(700, 700, 1400)
    assert long_rate == short_rate == 25_000_000_000


def test_heavier_long_side_pays_dynamic_fee():
    fd = eval_dynamic_fee(20, DYN)
    long_rate, short_rate = rates_at_half(600, 400, 1000)
    assert short_rate == 25_000_000_000
    assert long_rate == 25_000_000_000 + fd
    assert long_rate == 25_000_000_000 + 62_176_500_886


def test_heavier_short_side_mirrors():
    long_rate, short_rate = rates_at_half(400, 600, 1000)
    mirrored = rates_at_half(600, 400, 1000)
    assert (short_rate, long_rate) == mirrored


@settings(max_examples=150)
@given(u=st.floats(min_value=0, max_value=100),
       kd=st.floats(min_value=0, max_value=0.005),
       kb=st.floats(min_value=0, max_value=0.04))
def test_zero_coefficient_collapses_to_constant(u, kd, kb):
    assert eval_deviation(u, DeviationParams(0.0, 1.5)) == 1_500_000_000
    assert eval_base_fee(u, BaseFeeParams(0.0, 2.25)) == 2_250_000_000
    # and nondecreasing in u with positive coefficients
    if u < 100:
        assert eval_deviation(u, DeviationParams(kd, 0)) <= eval_deviation(
            100, DeviationParams(kd, 0))
        assert eval_base_fee(u, BaseFeeParams(kb, 0)) <= eval_base_fee(
            100, BaseFeeParams(kb, 0))


def test_nine_digit_quantization_applies():
    value = eval_dynamic_fee(33.3, DynamicFeeParams(500, 0.0325))
    raw, = sigmoid([33.3], 0.0325, 500)
    assert Decimal(format_nanos(value)) == Decimal(repr(raw)).quantize(Decimal("1e-9"))


@settings(max_examples=200)
@given(xs=st.lists(st.floats(min_value=0, max_value=100), max_size=40),
       k=st.floats(min_value=0, max_value=1e24), c=st.floats(min_value=0, max_value=1e24))
def test_column_curves_are_the_one_point_formulas(xs, k, c):
    """A column is each point's value as one expression gives it, bit for bit."""
    assert parabola(xs, k, c) == [k * x * x + c for x in xs]
    steepness = max(k, 1e-9)
    assert sigmoid(xs, steepness, c) == [
        c * (1.0 - math.exp(-steepness * x)) / (1.0 + math.exp(-steepness * x)) for x in xs]
