"""Per-event records are immutable tuples without a per-instance __dict__."""

from __future__ import annotations

import pytest

from perpamm.engine import Direction, Order, OrderKind, PoolState, Position, SettlementReceipt
from perpamm.oracle import PricePoint
from perpamm.scenario import Action, ReceiptRow, SnapshotRow

RECORDS = [
    PricePoint("primary", 1, 0),
    Action(0, 0, "lp", "deposit", {}),
    ReceiptRow(1, 0, "lp", "deposit", "ok"),
    SnapshotRow(0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 10**9, 0, 0, 0),
    PoolState(0, 0, 0, 0, 0),
    Position(1, "t", Direction.LONG, 1, 1, 1, 0),
    Order(1, "t", OrderKind.MARKET_OPEN, Direction.LONG, 1, 1, 0, 0, None),
    SettlementReceipt(1, 0, 0, 0),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_record_fields_cannot_be_assigned(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1
    assert not hasattr(record, "__dict__")
