"""Market configuration file loading and validation.

The file is a JSON object whose keys mirror the MarketConfig fields exactly;
unknown or missing keys are load errors. Money, percent, and ratio values may
be JSON numbers or strings and are parsed exactly (at most six fractional
digits); curve coefficients are plain binary64 numbers.
"""

from __future__ import annotations

import json
from decimal import Decimal

from .curves import BaseFeeParams, DeviationParams, DynamicFeeParams
from .engine import MarketConfig
from .errors import ConfigError, DomainError, ProtocolError
from .money import to_units
from .oracle import OracleConfig

_TOP_KEYS = {
    "market_id", "deviation", "base_fee", "dynamic_fee",
    "max_open_interest", "max_leverage", "max_exposure",
    "maintenance_margin_rate", "open_close_fee_rate", "liquidation_fee_rate",
    "oracle",
}
_DEVIATION_KEYS = {"k_delta", "c_d"}
_BASE_FEE_KEYS = {"k_b", "c_b"}
_DYNAMIC_FEE_KEYS = {"m_max", "steepness"}
_ORACLE_KEYS = {"max_age", "min_acceptable_deviation", "threshold_deviation"}


def _check_keys(obj: dict, expected: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(obj) - expected)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {', '.join(unknown)}")
    missing = sorted(expected - set(obj))
    if missing:
        raise ConfigError(f"missing keys in {where}: {', '.join(missing)}")


def _coeff(obj: dict, key: str, where: str) -> float:
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, Decimal)):
        raise ConfigError(f"{where}.{key} must be a number")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{where}.{key} is too large for a float") from None


def _units(obj: dict, key: str, where: str) -> int:
    value = obj[key]
    if isinstance(value, bool):
        raise ConfigError(f"{where}.{key} must be a number")
    if isinstance(value, (int, Decimal, str)):
        return to_units(value)
    raise ConfigError(f"{where}.{key} must be a number or decimal string")


def parse_market_config(raw: dict) -> MarketConfig:
    """Build a MarketConfig from parsed JSON; raises ConfigError on any defect."""
    _check_keys(raw, _TOP_KEYS, "market config")
    _check_keys(raw["deviation"], _DEVIATION_KEYS, "deviation")
    _check_keys(raw["base_fee"], _BASE_FEE_KEYS, "base_fee")
    _check_keys(raw["dynamic_fee"], _DYNAMIC_FEE_KEYS, "dynamic_fee")
    _check_keys(raw["oracle"], _ORACLE_KEYS, "oracle")
    if not isinstance(raw["market_id"], str) or not raw["market_id"]:
        raise ConfigError("market_id must be a non-empty string")

    try:
        deviation = DeviationParams(
            k_delta=_coeff(raw["deviation"], "k_delta", "deviation"),
            c_d=_coeff(raw["deviation"], "c_d", "deviation"))
        base_fee = BaseFeeParams(
            k_b=_coeff(raw["base_fee"], "k_b", "base_fee"),
            c_b=_coeff(raw["base_fee"], "c_b", "base_fee"))
        dynamic_fee = DynamicFeeParams(
            m_max=_coeff(raw["dynamic_fee"], "m_max", "dynamic_fee"),
            steepness=_coeff(raw["dynamic_fee"], "steepness", "dynamic_fee"))
        oracle_raw = raw["oracle"]
        max_age = oracle_raw["max_age"]
        if isinstance(max_age, bool) or not isinstance(max_age, int):
            raise ConfigError("oracle.max_age must be an integer (seconds)")
        oracle = OracleConfig(
            max_age=max_age,
            min_acceptable_deviation=_units(oracle_raw, "min_acceptable_deviation", "oracle"),
            threshold_deviation=_units(oracle_raw, "threshold_deviation", "oracle"))
    except DomainError as exc:
        raise ConfigError(str(exc)) from None

    return MarketConfig(
        market_id=raw["market_id"],
        deviation=deviation,
        base_fee=base_fee,
        dynamic_fee=dynamic_fee,
        max_open_interest=_units(raw, "max_open_interest", "market config"),
        max_leverage=_units(raw, "max_leverage", "market config"),
        max_exposure=_units(raw, "max_exposure", "market config"),
        maintenance_margin_rate=_units(raw, "maintenance_margin_rate", "market config"),
        open_close_fee_rate=_units(raw, "open_close_fee_rate", "market config"),
        liquidation_fee_rate=_units(raw, "liquidation_fee_rate", "market config"),
        oracle=oracle,
    )


def read_json(path: str, error: type[ProtocolError], what: str):
    """Parse a JSON input file with exact numbers (Decimal fractions, int
    integers). A missing file, or text that is not JSON (undecodable bytes, an
    int past int()'s digit limit, nesting past the recursion limit), is one
    `error` naming `what`."""
    try:
        with open(path) as fh:
            return json.load(fh, parse_float=Decimal, parse_int=int)
    except FileNotFoundError:
        raise error(f"{what} file not found: {path}") from None
    except (ValueError, RecursionError) as exc:
        raise error(f"{what} is not valid JSON: {exc}") from None


def load_market_config(path: str) -> MarketConfig:
    """Load and parse a market config file; invariants are NOT checked here
    (see MarketConfig.violations for the validate command)."""
    return parse_market_config(read_json(path, ConfigError, "config"))
