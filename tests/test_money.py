"""Fixed-point money: 9-digit rounding against a Decimal reference, unit formatting, input bounds."""

from __future__ import annotations

import math
import re
import struct
from decimal import MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal, InvalidOperation

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perpamm.errors import ConfigError
from perpamm.money import (
    FORMAT9,
    MAX_UNITS,
    format9,
    format_nanos,
    format_units,
    nanos9,
    nanos9_all,
    quantize9,
    to_units,
)

# 330 digits hold any finite double to 9 fractional digits: the largest has 309 whole digits
_REFERENCE = Context(prec=330, rounding=ROUND_HALF_EVEN)


def reference9(x: float) -> Decimal:
    """x rounded half-even to 9 fractional digits, exactly."""
    return Decimal(x).quantize(Decimal("1e-9"), context=_REFERENCE)


def assert_matches_reference(x: float) -> None:
    expected = reference9(x)
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


def _ulps_from(x: float, n: int) -> float:
    return from_bits(struct.unpack("<Q", struct.pack("<d", x))[0] + n)


printable_doubles = st.one_of(
    finite_doubles,
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


@settings(max_examples=2000)
@given(printable_doubles)
@example(-1e-12)
def test_nanos_are_the_printed_digits(x):
    """nanos9 is the 9-digit value as an int: format9's digits, quantize9's float."""
    n = nanos9(x)
    # an int has no negative zero: format9 keeps the sign of a tiny negative x
    assert format_nanos(n) == format9(x).replace("-0.000000000", "0.000000000")
    assert n / 10**9 == quantize9(x)   # int true division rounds correctly, as float() does


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_non_finite_has_no_nine_digit_value(x):
    """format9 prints no digits for a non-finite double and nanos9 refuses it;
    no curve gives one, as each coefficient is bounded (test_curves)."""
    assert not re.fullmatch(r"-?[0-9]+\.[0-9]{9}", format9(x))
    with pytest.raises(ValueError):
        nanos9(x)


@settings(max_examples=500)
@given(st.lists(finite_doubles, max_size=6))
def test_a_column_prints_and_converts_as_each_value_does(xs):
    """A table prints a column in one FORMAT9 pass and nanos9_all converts it:
    the same digits as format9 and nanos9 give each value."""
    assert (FORMAT9 + ",") * len(xs) % tuple(xs) == "".join(f"{format9(x)}," for x in xs)
    assert nanos9_all(xs) == [nanos9(x) for x in xs]


def fixed_point_reference(n: int, digits: int) -> str:
    """A fixed-point print as first written: divmod and a nested format spec."""
    whole, frac = divmod(abs(n), 10**digits)
    return f"{'-' if n < 0 else ''}{whole}.{frac:0{digits}d}"


FIXED_POINT_EDGES = [0] + [sign * n for sign in (1, -1)
                           for n in [1] + [10**k - 1 for k in range(1, 82)]]


def test_fixed_point_prints_as_the_divmod_form_at_every_width():
    for n in FIXED_POINT_EDGES:
        assert format_units(n) == fixed_point_reference(n, 6)
        assert format_nanos(n) == fixed_point_reference(n, 9)


@settings(max_examples=1000)
@given(st.one_of(st.integers(-10**80, 10**80), st.integers(-10**12, 10**12)))
def test_fixed_point_prints_as_the_divmod_form(n):
    assert format_units(n) == fixed_point_reference(n, 6)
    assert format_nanos(n) == fixed_point_reference(n, 9)


@settings(max_examples=500)
@given(st.integers(-10**30, 10**30))
def test_format_units_matches_decimal(units):
    assert format_units(units) == f"{Decimal(units).scaleb(-6, context=_REFERENCE):.6f}"


@pytest.mark.parametrize("value, match", [
    pytest.param(10**5000, "beyond", id="int-5001-digits"),
    pytest.param(-10**5000, "beyond", id="negative-int-5001-digits"),
    (10**24 + 1, "beyond"),
    # a Decimal is a JSON number; a string is only the plain form
    pytest.param(Decimal("1e25"), "beyond", id="1e25-beyond"),
    pytest.param(Decimal("Infinity"), "finite", id="Infinity-finite"),
    # a JSON NaN, the one float an input holds, is not an amount
    pytest.param(float("nan"), "not a numeric", id="nan-finite"),
    ("abc", "not a decimal"),
    (True, "not a numeric"),
    ("0.0000001", "6 fractional digits"),
])
def test_to_units_rejects_with_a_message_for_any_input(value, match):
    with pytest.raises(ConfigError, match=match):
        to_units(value)


# exponents down to MIN_EMIN: a tiny amount such as 1E-1100010 must not underflow to 0
_EXACT = Context(prec=100_000, Emin=MIN_EMIN)


def reference_units(text: str) -> int | str:
    """Base units of a string amount by Decimal alone, or the ConfigError message."""
    try:
        amount = Decimal(text)
    except InvalidOperation:
        return f"not a decimal amount: {text!r}"
    if not amount.is_finite():
        return f"not a finite amount: {text!r}"
    if amount.copy_abs() > 10**24:
        return f"amount beyond {MAX_UNITS} base units: {text!r}"
    scaled = amount.scaleb(6, context=_EXACT)
    if scaled != scaled.to_integral_value():
        return f"more than 6 fractional digits: {text!r}"
    return int(scaled)


def units_or_message(text: str) -> int | str:
    try:
        return to_units(text)
    except ConfigError as exc:
        return str(exc)


_digits = st.text("0123456789", min_size=1, max_size=30)
plain_amounts = st.one_of(
    st.builds(lambda sign, whole, frac: sign + whole + frac,
              st.sampled_from(["", "-"]), _digits,
              st.one_of(st.just(""), st.builds(lambda f: "." + f,
                                               st.text("0123456789", max_size=12)))),
    # whole parts at and around 10**24, with and without a fraction
    st.builds(lambda sign, whole, frac: f"{sign}{whole}{frac}",
              st.sampled_from(["", "-"]), st.integers(10**24 - 2, 10**24 + 2),
              st.sampled_from(["", ".", ".0", ".000000000", ".000001", ".0000001", ".5"])),
)
spelled_amounts = st.one_of(
    st.sampled_from(["1e3", "+5", " 5 ", "1_000", "\u0663", ".5", "-.5", "1e25", "Infinity",
                     "-inf", "NaN", "sNaN", "5\n", "1E-7", "0x10", "", "-", ".", "1.2.3",
                     "\uff11", "--5", "5.-1", "1e-1000000", "\u00b2", "1.\u00b2"]),
    # "\u00b2" (superscript two) is a str.isdigit() digit that int() and Decimal refuse
    st.text("0123456789.-+eE_ \u00b2\u0663", max_size=12),
)


@settings(max_examples=1000)
@given(st.one_of(plain_amounts, spelled_amounts))
@example("007.25")
@example("-0")
@example("-0.0000000")
@example("1.")
@example("1.5000000")
@example("1.0000005")
@example(str(10**24))
@example(str(10**24) + ".000000000")
@example(str(10**24) + ".0000001")
@example(str(10**24 + 1))
@example("9" * 26)
@example("1" * 26 + ".5")
@example("-" + "1" * 5000)
@example("0" * 5000 + "1.5")
@example("1." + "0" * 5000)
@example("1." + "0" * 5000 + "1")
@example("1E-1100010")
def test_to_units_on_strings_matches_decimal_reference(text):
    # a string is an amount only in the plain form: every other spelling Decimal
    # takes ("1e3", "+5", " 5 ", "1_000", "\u0663", ".5", "Infinity") is refused
    if re.fullmatch(r"-?[0-9]+(\.[0-9]*)?", text):
        assert units_or_message(text) == reference_units(text)
    else:
        assert units_or_message(text) == f"not a decimal amount: {text!r}"
