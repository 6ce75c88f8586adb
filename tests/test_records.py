"""Records are immutable tuples without a per-instance __dict__, and a checked
record refuses a bad value however it is built."""

from __future__ import annotations

import math

import pytest
from conftest import make_config, make_engine

from perpamm.errors import ConfigError, DomainError
from perpamm.engine import Direction, Order, OrderKind, PoolState, Position, SettlementReceipt
from perpamm.figures import Grid, emit_figure_data
from perpamm.oracle import PricePoint
from perpamm.scenario import Action, ReceiptRow, RunResult, Scenario, SnapshotRow

CONFIG = make_config()
GRID = Grid.parse("0:100:25")

RECORDS = [
    PricePoint("primary", 1, 0),
    Action(0, 0, "lp", "deposit", {}),
    ReceiptRow(1, 0, "lp", "deposit", "ok"),
    SnapshotRow(0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 10**9, 0, 0, 0),
    PoolState(0, 0, 0, 0, 0),
    Position(1, "t", Direction.LONG, 1, 1, 1, 0),
    Order(1, "t", OrderKind.MARKET_OPEN, Direction.LONG, 1, 1, 0, 0, None),
    SettlementReceipt(1, 0, 0, 0),
    CONFIG,
    CONFIG.oracle,
    CONFIG.deviation,
    CONFIG.base_fee,
    CONFIG.dynamic_fee,
    GRID,
    emit_figure_data("base_fee", {"k_b": "0.01"}, GRID),
    Scenario("market.json", "trace.csv", [], 0, []),
    RunResult([], [], make_engine()),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_record_fields_cannot_be_assigned(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1
    assert not hasattr(record, "__dict__")


# (a sound record, a bad value for one of its fields, the error its constructor raises)
CHECKED = [
    (CONFIG, {"max_leverage": 0}, ConfigError("invalid market config: max_leverage must be >= 1")),
    (CONFIG.oracle, {"max_age": 0}, DomainError("max_age must be positive")),
    (CONFIG.deviation, {"k_delta": -1.0},
     DomainError("deviation parameters must be in [0, 1e+24]")),
    (CONFIG.base_fee, {"c_b": math.nan}, DomainError("base fee parameters must be in [0, 1e+24]")),
    (CONFIG.dynamic_fee, {"steepness": 0.0}, DomainError("sigmoid steepness must be positive")),
]


@pytest.mark.parametrize("record, bad, error", CHECKED,
                         ids=[type(record).__name__ for record, _, _ in CHECKED])
def test_a_checked_record_refuses_a_bad_value_however_built(record, bad, error):
    cls = type(record)
    values = record._asdict() | bad
    builds = {"keywords": lambda: cls(**values), "positions": lambda: cls(*values.values()),
              "_make": lambda: cls._make(values.values()), "_replace": lambda: record._replace(**bad)}
    for how, build in builds.items():
        with pytest.raises(type(error)) as refused:
            build()
        assert (how, type(refused.value), str(refused.value)) == (how, type(error), str(error))
    assert cls._make(record) == record._replace() == record
