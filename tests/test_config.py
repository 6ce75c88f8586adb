"""Market config file loading: strict keys, exact amounts, invariant checks."""

from __future__ import annotations

import json
import math

import pytest

from perpamm.config import load_market_config
from perpamm.errors import ConfigError
from perpamm.money import to_units

GOOD = {
    "market_id": "ETH-USD",
    "deviation": {"k_delta": 0.0004, "c_d": 0},
    "base_fee": {"k_b": 0.0325, "c_b": 0},
    "dynamic_fee": {"m_max": 500, "steepness": 0.0325},
    "max_open_interest": "1000000",
    "max_leverage": 10,
    "max_exposure": "500000",
    "maintenance_margin_rate": 1,
    "open_close_fee_rate": "0.1",
    "liquidation_fee_rate": 10,
    "oracle": {"max_age": 60, "min_acceptable_deviation": "0.1",
               "threshold_deviation": 1},
}


def write(tmp_path, payload):
    path = tmp_path / "market.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_load_good_config(tmp_path):
    config = load_market_config(write(tmp_path, GOOD))
    assert config.market_id == "ETH-USD"
    assert config.deviation.k_delta == 0.0004
    assert config.max_leverage == to_units(10)
    assert config.open_close_fee_rate == to_units("0.1")
    assert config.oracle.max_age == 60
    assert config._replace() == config   # rebuilding it checks its limits again


def test_unknown_key_rejected(tmp_path):
    bad = dict(GOOD, extra_knob=1)
    with pytest.raises(ConfigError, match="extra_knob"):
        load_market_config(write(tmp_path, bad))


def test_unknown_nested_key_rejected(tmp_path):
    bad = dict(GOOD, deviation={"k_delta": 0.0004, "c_d": 0, "slope": 1})
    with pytest.raises(ConfigError, match="slope"):
        load_market_config(write(tmp_path, bad))


def test_missing_key_rejected(tmp_path):
    bad = dict(GOOD)
    del bad["max_leverage"]
    with pytest.raises(ConfigError, match="max_leverage"):
        load_market_config(write(tmp_path, bad))


@pytest.mark.parametrize("overrides, message", [
    ({"deviation": {"k_delta": 0.0004, "c_d": 0, "slope": 1}}, "deviation: unknown key 'slope'"),
    # the id keeps the message before amount errors named their key
    pytest.param({"open_close_fee_rate": "0.1234567"},
                 "market config: bad 'open_close_fee_rate': more than 6 fractional digits: "
                 "'0.1234567'", id="overrides1-more than 6 fractional digits: '0.1234567'"),
    pytest.param({"oracle": dict(GOOD["oracle"], min_acceptable_deviation="0.1234567")},
                 "oracle: bad 'min_acceptable_deviation': more than 6 fractional digits: "
                 "'0.1234567'", id="oracle-amount"),
])
def test_section_and_amount_errors_reach_the_user_unwrapped(tmp_path, overrides, message):
    with pytest.raises(ConfigError) as info:
        load_market_config(write(tmp_path, dict(GOOD, **overrides)))
    assert str(info.value) == message


def test_too_fine_precision_rejected(tmp_path):
    bad = dict(GOOD, open_close_fee_rate="0.1234567")
    with pytest.raises(ConfigError):
        load_market_config(write(tmp_path, bad))


# (the amount's JSON text, written as is); the ids name the amounts
@pytest.mark.parametrize("literal", [
    # a string: the 7th+ digit lies beyond 50 significant digits
    pytest.param('"1.' + "0" * 50 + '1"', id="1." + "0" * 50 + "1"),
    # a JSON number: scaling by 10**6 would underflow a bounded context
    pytest.param("1e-99999999", id="1e-99999999"),
])
def test_fraction_below_a_base_unit_rejected_at_any_length(tmp_path, literal):
    path = tmp_path / "market.json"
    path.write_text(json.dumps(dict(GOOD, open_close_fee_rate="@")).replace('"@"', literal))
    with pytest.raises(ConfigError, match="6 fractional digits"):
        load_market_config(str(path))


def test_negative_zero_coefficient_reads_as_positive_zero(tmp_path):
    negative_zero = dict(GOOD, base_fee={"k_b": -0.0, "c_b": -0.0})
    fee = load_market_config(write(tmp_path, negative_zero)).base_fee
    assert math.copysign(1.0, fee.k_b) == math.copysign(1.0, fee.c_b) == 1.0


def test_negative_curve_param_rejected(tmp_path):
    bad = dict(GOOD, base_fee={"k_b": -1, "c_b": 0})
    with pytest.raises(ConfigError):
        load_market_config(write(tmp_path, bad))


def test_bad_oracle_bands_rejected(tmp_path):
    bad = dict(GOOD, oracle={"max_age": 60, "min_acceptable_deviation": 2,
                             "threshold_deviation": 1})
    with pytest.raises(ConfigError):
        load_market_config(write(tmp_path, bad))


def test_violations_listed_for_bad_limits(tmp_path):
    with pytest.raises(ConfigError) as info:
        load_market_config(write(tmp_path, dict(GOOD, max_leverage=0)))
    assert str(info.value) == "invalid market config: max_leverage must be >= 1"
    with pytest.raises(ConfigError) as info:
        load_market_config(write(tmp_path, dict(
            GOOD, max_leverage=50, maintenance_margin_rate=2)))
    assert str(info.value) == ("invalid market config: "
                               "maintenance_margin_rate * max_leverage must be < 100")


def test_missing_file_and_bad_json(tmp_path):
    with pytest.raises(ConfigError):
        load_market_config(str(tmp_path / "nope.json"))
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_market_config(str(path))
