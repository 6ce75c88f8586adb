"""The market config, its file reader and its checks, and the one reader of
every JSON input object.

`read_fields` reads each JSON object that comes from outside: the market
config and its four sections (here), the scenario's top level and each
action's params (`scenario`), and a curve table's params (`figures`). An object's keys
are strict: an unknown key, a missing required key or a value its parser
rejects is one error naming the object and the key.

The config is a JSON object whose keys mirror the MarketConfig fields
exactly, each section's keys its class's fields. Money, percent, and ratio
values may be JSON numbers or plain decimal strings (`money.to_units`), read
exactly (at most six fractional digits); curve coefficients are binary64,
each in [0, 10**24] (`curves`), so every fee the engine reads has a 9-digit
value. A MarketConfig and each of its sections check their own limits when
built, so a config that loads is sound, and every defect is one ConfigError.
"""

import json
import math
from collections.abc import Callable, Iterable
from decimal import Decimal
from typing import NamedTuple

from .curves import BaseFeeParams, DeviationParams, DynamicFeeParams
from .errors import ConfigError, ProtocolError, checked
from .money import UNIT_SCALE, to_units
from .oracle import OracleConfig


@checked
class MarketConfig(NamedTuple):
    market_id: str
    deviation: DeviationParams
    base_fee: BaseFeeParams
    dynamic_fee: DynamicFeeParams
    max_open_interest: int        # base units, per side
    max_leverage: int             # ratio, base units
    max_exposure: int             # base units, cap on |L - S|
    maintenance_margin_rate: int  # percent of size, base units
    open_close_fee_rate: int      # percent of size, base units
    liquidation_fee_rate: int     # percent of remaining equity, base units
    oracle: OracleConfig

    def _check(self) -> None:
        """Raises one ConfigError listing every violated limit."""
        bad: list[str] = []
        if self.max_leverage < UNIT_SCALE:
            bad.append("max_leverage must be >= 1")
        for name in ("max_open_interest", "max_exposure", "maintenance_margin_rate",
                     "open_close_fee_rate", "liquidation_fee_rate"):
            if getattr(self, name) < 0:
                bad.append(f"{name} must be >= 0")
        # a fresh max-leverage position must not be instantly liquidatable
        if self.maintenance_margin_rate * self.max_leverage >= 100 * UNIT_SCALE * UNIT_SCALE:
            bad.append("maintenance_margin_rate * max_leverage must be < 100")
        if bad:
            raise ConfigError("invalid market config: " + "; ".join(bad))


def read_fields(obj, parsers: dict[str, Callable], required: Iterable[str],
                error: type[ProtocolError], where: str) -> dict:
    """A JSON object's values, each through its key's parser, keyed as in `obj`.

    A non-object, an unknown key, a value its parser rejects (ProtocolError or
    ValueError) and a missing key of `required` are each one `error` naming
    `where` and the key. An `error` the parser raises itself passes unchanged.
    """
    if not isinstance(obj, dict):
        raise error(f"{where} must be a JSON object")
    values = {}
    for key, value in obj.items():
        try:
            parse = parsers[key]
        except KeyError:
            raise error(f"{where}: unknown key {key!r}") from None
        try:
            values[key] = parse(value)
        except error:
            raise
        except (ProtocolError, ValueError) as exc:
            raise error(f"{where}: bad {key!r}: {exc}") from None
    for key in required:
        if key not in values:
            raise error(f"{where}: missing key {key!r}")
    return values


def coefficient(value) -> float:
    """A curve coefficient (an int or Decimal) as a double; -0 reads as +0.0, as
    the engine's nanos do. A signalling NaN, which float() refuses, reads as
    NaN, so the params' coefficient bound rejects both alike."""
    if isinstance(value, bool) or not isinstance(value, (int, Decimal)):
        raise ValueError("must be a number")
    if isinstance(value, Decimal) and value.is_snan():
        return math.nan
    try:
        return float(value) or 0.0
    except OverflowError:
        raise ValueError("is too large for a float") from None


def _units(value) -> int:
    """An amount in base units, by `to_units`, which owns the amount rules; its
    defect is a ValueError, which the reader reports naming the key."""
    try:   # reads the module's `to_units` at each call, so a patched one sees every parse
        return to_units(value)
    except ConfigError as exc:
        raise ValueError(str(exc)) from None


def seconds(value) -> int:
    if type(value) is not int or value < 0:
        raise ValueError("must be a non-negative integer (seconds)")
    return value


def non_empty_string(value) -> str:
    if not (isinstance(value, str) and value):
        raise ValueError("must be a non-empty string")
    return value


def _section(where: str, cls: type, parsers: dict[str, Callable] | None = None) -> Callable:
    """The parser of config section `where`: a `cls` from its keys, all required;
    by default each of cls's fields is a curve coefficient."""
    parsers = parsers or dict.fromkeys(cls._fields, coefficient)
    return lambda value: cls(**read_fields(value, parsers, parsers, ConfigError, where))


# MarketConfig field -> its parser; every field is required
_MARKET_CONFIG = {
    "market_id": non_empty_string,
    "deviation": _section("deviation", DeviationParams),
    "base_fee": _section("base_fee", BaseFeeParams),
    "dynamic_fee": _section("dynamic_fee", DynamicFeeParams),
    **dict.fromkeys(("max_open_interest", "max_leverage", "max_exposure",
                     "maintenance_margin_rate", "open_close_fee_rate",
                     "liquidation_fee_rate"), _units),
    "oracle": _section("oracle", OracleConfig, {
        "max_age": seconds, "min_acceptable_deviation": _units,
        "threshold_deviation": _units}),
}


def parse_market_config(raw: dict) -> MarketConfig:
    """Build a MarketConfig from parsed JSON; raises ConfigError on any defect."""
    return MarketConfig(**read_fields(raw, _MARKET_CONFIG, _MARKET_CONFIG, ConfigError,
                                      "market config"))


def read_json(path: str, error: type[ProtocolError], what: str):
    """Parse a UTF-8 JSON input file with exact numbers (Decimal fractions, int
    integers). A missing file, or text that is not JSON (undecodable bytes, an
    int past int()'s digit limit, nesting past the recursion limit), is one
    `error` naming `what`."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_float=Decimal, parse_int=int)
    except FileNotFoundError:
        raise error(f"{what} file not found: {path}") from None
    except (ValueError, RecursionError) as exc:
        raise error(f"{what} is not valid JSON: {exc}") from None


def load_market_config(path: str) -> MarketConfig:
    """Load, parse and check a market config file; any defect, a violated
    limit included, is one ConfigError."""
    return parse_market_config(read_json(path, ConfigError, "config"))
