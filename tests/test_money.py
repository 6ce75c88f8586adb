"""Fixed-point money: 9-digit rounding against a Decimal reference, unit formatting, input bounds."""

from __future__ import annotations

import math
import struct
from decimal import ROUND_HALF_EVEN, Context, Decimal, InvalidOperation

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perpamm.errors import ConfigError, DomainError
from perpamm.money import format9, format_units, quantize9, to_units

_REFERENCE = Context(prec=50, rounding=ROUND_HALF_EVEN)


def reference9(x: float) -> Decimal | None:
    """x rounded half-even to 9 fractional digits in a 50-digit context; None if it does not fit."""
    try:
        return Decimal(x).quantize(Decimal("1e-9"), context=_REFERENCE)
    except InvalidOperation:
        return None


def assert_matches_reference(x: float) -> None:
    expected = reference9(x)
    if expected is None:
        with pytest.raises(DomainError):
            format9(x)
        with pytest.raises(DomainError):
            quantize9(x)
        return
    assert format9(x) == f"{expected:.9f}"
    got, want = quantize9(x), float(expected)
    assert got == want and math.copysign(1, got) == math.copysign(1, want)


def from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


finite_doubles = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(0, 2**64 - 1).map(from_bits).filter(math.isfinite),   # uniform over bit patterns
    st.integers(-2**52, 2**52).map(lambda q: (2 * q + 1) / 1024),     # exact ties at the 10th digit
)


@settings(max_examples=2000)
@given(finite_doubles)
def test_nine_digit_rounding_matches_decimal_reference(x):
    assert_matches_reference(x)


def _doubles_around(bound: int) -> list[float]:
    nearest = float(bound)
    below = nearest if nearest < bound else math.nextafter(nearest, 0)
    above = math.nextafter(below, math.inf)
    return [below, above, -below, -above]


@pytest.mark.parametrize("x, text", [
    (0.0, "0.000000000"),
    (-0.0, "-0.000000000"),
    (-1e-12, "-0.000000000"),
    (0.0009765625, "0.000976562"),   # an exact tie rounds to even
    (0.0029296875, "0.002929688"),
    (2.5e-9, "0.000000003"),         # the double is just above the tie its repr shows
])
def test_nine_digit_examples(x, text):
    assert format9(x) == text
    assert_matches_reference(x)


@pytest.mark.parametrize("x", _doubles_around(10**41))
def test_nine_digit_bound_is_ten_to_the_41(x):
    assert_matches_reference(x)
    if abs(x) < 10**41:
        assert len(format9(x).lstrip("-").replace(".", "")) == 50
    else:
        with pytest.raises(DomainError, match="no 9-digit fixed-point value"):
            format9(x)


def _ulps_from(x: float, n: int) -> float:
    return from_bits(struct.unpack("<Q", struct.pack("<d", x))[0] + n)


printable_doubles = st.one_of(
    finite_doubles.filter(lambda x: abs(x) < 10**41),
    # an ulp is below 1e-9 up to 2**23 and above it from there on
    st.builds(lambda bound, n, sign: sign * _ulps_from(bound, n),
              st.sampled_from([2.0**22, 2.0**23]), st.integers(-2**20, 2**20),
              st.sampled_from([1.0, -1.0])),
)


@settings(max_examples=2000)
@given(printable_doubles)
def test_printing_a_quantized_value_prints_the_value(x):
    """A figure table prints the raw curve value once; this is why the bytes match."""
    assert format9(quantize9(x)) == format9(x)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_non_finite_has_no_nine_digit_value(x):
    with pytest.raises(DomainError):
        format9(x)
    with pytest.raises(DomainError):
        quantize9(x)


@settings(max_examples=500)
@given(st.integers(-10**30, 10**30))
def test_format_units_matches_decimal(units):
    assert format_units(units) == f"{Decimal(units).scaleb(-6, context=_REFERENCE):.6f}"


@pytest.mark.parametrize("value, match", [
    pytest.param(10**5000, "beyond", id="int-5001-digits"),
    pytest.param(-10**5000, "beyond", id="negative-int-5001-digits"),
    (10**24 + 1, "beyond"),
    ("1e25", "beyond"),
    ("Infinity", "finite"),
    (float("nan"), "finite"),
    ("abc", "not a decimal"),
    (True, "not a numeric"),
    ("0.0000001", "6 fractional digits"),
])
def test_to_units_rejects_with_a_message_for_any_input(value, match):
    with pytest.raises(ConfigError, match=match):
        to_units(value)
