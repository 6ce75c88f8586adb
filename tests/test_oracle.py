"""Dual-feed aggregation rules, feed store semantics, trace loading."""

from __future__ import annotations

import random

import pytest

from perpamm.errors import DeviationTooHigh, DomainError, StaleFeed, TraceError
from perpamm.money import MAX_TIMESTAMP, to_units
from perpamm.oracle import (
    PRIMARY,
    SECONDARY,
    FeedStore,
    OracleConfig,
    PricePoint,
    TradeSide,
    aggregate,
    load_trace,
)

CFG = OracleConfig(max_age=60,
                   min_acceptable_deviation=to_units("0.1"),
                   threshold_deviation=to_units(1))


def pp(price, t, feed="primary"):
    return PricePoint(feed, to_units(price), t)


# -- Feed store ---------------------------------------------------------------

def test_first_insert_and_newer_wins():
    store = FeedStore()
    store.ingest(pp(2000, 10, "A"))
    assert store.get("A").price == to_units(2000)
    store.ingest(pp(2010, 20, "A"))
    assert store.get("A").price == to_units(2010)


def test_older_point_is_ignored():
    store = FeedStore()
    store.ingest(pp(2010, 20, "A"))
    store.ingest(pp(1990, 15, "A"))
    assert store.get("A").price == to_units(2010)
    assert store.get("A").publish_time == 20


def test_non_positive_price_rejected(tmp_path):
    path = tmp_path / "trace.csv"
    for price in ("0", "-5"):
        path.write_text(f"timestamp,feed_id,price\n10,primary,{price}\n")
        with pytest.raises(TraceError, match="non-positive price for feed 'primary'"):
            load_trace(str(path))


def test_oracle_config_validation():
    with pytest.raises(DomainError):
        OracleConfig(max_age=0, min_acceptable_deviation=0, threshold_deviation=1)
    with pytest.raises(DomainError):
        OracleConfig(max_age=60, min_acceptable_deviation=5, threshold_deviation=5)


def test_zero_min_band_uses_primary_only_for_equal_feeds():
    cfg = OracleConfig(max_age=60, min_acceptable_deviation=0,
                       threshold_deviation=to_units(1))
    assert aggregate(pp(2000, 100), pp(2000, 100, "secondary"), TradeSide.SELL, cfg,
                     100) == to_units(2000)
    # any gap at all is in the adverse band
    assert aggregate(pp(2000, 100), pp("2000.000001", 100, "secondary"), TradeSide.BUY,
                     cfg, 100) == to_units("2000.000001")


# -- Aggregation rule set ----------------------------------------------------------

def test_within_min_band_uses_primary():
    # d = 100*1/2000 = 0.05% <= 0.1%
    assert aggregate(pp(2000, 100), pp(2001, 100, "s"), TradeSide.BUY, CFG, 100) \
        == to_units(2000)


def test_in_band_buy_takes_higher_price():
    # d = 0.5%: above min, below threshold
    assert aggregate(pp(2000, 100), pp(2010, 100, "s"), TradeSide.BUY, CFG, 100) \
        == to_units(2010)


def test_in_band_sell_takes_lower_price():
    assert aggregate(pp(2000, 100), pp(2010, 100, "s"), TradeSide.SELL, CFG, 100) \
        == to_units(2000)


def test_above_threshold_reverts():
    with pytest.raises(DeviationTooHigh):
        aggregate(pp(2000, 100), pp(2100, 100, "s"), TradeSide.BUY, CFG, 100)
    with pytest.raises(DeviationTooHigh):
        aggregate(pp(2000, 100), pp(2100, 100, "s"), TradeSide.SELL, CFG, 100)


def test_stale_feed_rejected():
    with pytest.raises(StaleFeed):
        aggregate(pp(2000, 40), pp(2000, 100, "s"), TradeSide.BUY, CFG, 101)
    with pytest.raises(StaleFeed):
        aggregate(pp(2000, 100), pp(2000, 40, "s"), TradeSide.BUY, CFG, 101)


def test_staleness_checked_before_deviation():
    # deviation above threshold AND one stale feed: staleness dominates
    with pytest.raises(StaleFeed):
        aggregate(pp(2000, 0), pp(2100, 100, "s"), TradeSide.BUY, CFG, 100)


def test_boundary_equal_to_min_uses_primary():
    # d = 100*2/2000 = 0.1% exactly
    assert aggregate(pp(2000, 100), pp(2002, 100, "s"), TradeSide.BUY, CFG, 100) \
        == to_units(2000)
    # primary is privileged even when it is the higher price
    assert aggregate(pp(2002, 100), pp(2000, 100, "s"), TradeSide.SELL, CFG, 100) \
        == to_units(2002)


def test_band_base_is_the_lower_price():
    # d = 100 * 10.05 / min(1000, 1010.05) = 1.005%: past the 1% band, so in band;
    # over the higher price it would be 0.995%, inside the band, and the primary
    cfg = OracleConfig(max_age=60, min_acceptable_deviation=to_units(1),
                       threshold_deviation=to_units(5))
    primary, secondary = pp(1000, 100), pp("1010.05", 100, "s")
    assert aggregate(primary, secondary, TradeSide.BUY, cfg, 100) == to_units("1010.05")
    assert aggregate(primary, secondary, TradeSide.SELL, cfg, 100) == to_units(1000)


def test_boundary_equal_to_threshold_is_accepted():
    # d = 100*20/2000 = 1% exactly: still in-band, least favorable applies
    assert aggregate(pp(2000, 100), pp(2020, 100, "s"), TradeSide.BUY, CFG, 100) \
        == to_units(2020)
    assert aggregate(pp(2000, 100), pp(2020, 100, "s"), TradeSide.SELL, CFG, 100) \
        == to_units(2000)


def test_age_boundary_is_inclusive():
    # exactly max_age old passes; one second older fails
    assert aggregate(pp(2000, 40), pp(2000, 40, "s"), TradeSide.BUY, CFG, 100) \
        == to_units(2000)
    with pytest.raises(StaleFeed):
        aggregate(pp(2000, 39), pp(2000, 40, "s"), TradeSide.BUY, CFG, 100)


def test_side_duality_and_in_band_symmetry():
    rng = random.Random(11)
    for _ in range(2000):
        p1 = rng.randint(1_000_000, 5_000_000_000)
        p2 = p1 + rng.randint(-p1 // 50, p1 // 50)
        if p2 <= 0:
            continue
        a = PricePoint("p", p1, 100)
        b = PricePoint("s", p2, 100)
        try:
            buy = aggregate(a, b, TradeSide.BUY, CFG, 100)
            sell = aggregate(a, b, TradeSide.SELL, CFG, 100)
        except DeviationTooHigh:
            continue
        assert buy >= sell
        assert buy in (p1, p2) and sell in (p1, p2)
        # in the least-favorable band the result ignores feed order
        scaled = 100 * abs(p1 - p2) * 10**6
        if scaled > CFG.min_acceptable_deviation * min(p1, p2):
            assert aggregate(b, a, TradeSide.BUY, CFG, 100) == buy
            assert aggregate(b, a, TradeSide.SELL, CFG, 100) == sell


# -- Trace loading --------------------------------------------------------------------

def test_load_trace_roundtrip(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text(
        "timestamp,feed_id,price\n"
        "10,primary,2000\n"
        "10,secondary,2000.5\n"
        "20,primary,1999.25\n")
    points = load_trace(str(path))
    assert [(p.publish_time, p.feed_id, p.price) for p in points] == [
        (10, "primary", to_units(2000)),
        (10, "secondary", to_units("2000.5")),
        (20, "primary", to_units("1999.25")),
    ]


def test_load_trace_takes_a_row_at_the_last_timestamp(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text(f"timestamp,feed_id,price\n{MAX_TIMESTAMP},primary,2000\n")
    assert load_trace(str(path)) == [PricePoint("primary", to_units(2000), MAX_TIMESTAMP)]


def test_load_trace_rejects_bad_header(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("time,feed,price\n10,primary,2000\n")
    with pytest.raises(TraceError):
        load_trace(str(path))


def test_load_trace_rejects_decreasing_timestamps(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("timestamp,feed_id,price\n20,primary,2000\n10,primary,2001\n")
    with pytest.raises(TraceError):
        load_trace(str(path))


def test_load_trace_rejects_bad_price(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("timestamp,feed_id,price\n10,primary,abc\n")
    with pytest.raises(TraceError):
        load_trace(str(path))
    path.write_text("timestamp,feed_id,price\n10,primary,-3\n")
    with pytest.raises(TraceError):
        load_trace(str(path))


@pytest.mark.parametrize("rows, message", [
    ("10,Primary,2000", "line 2: unknown feed 'Primary' (expected 'primary' or 'secondary')"),
    ("10,,2000", "line 2: unknown feed '' (expected 'primary' or 'secondary')"),
    # the timestamp is checked before the feed, and the feed before the price
    ("-5,A,2000", "line 2: negative publish time for feed 'A'"),
    ("20,primary,2000\n10,A,2000", "line 3: timestamps decrease (20 -> 10)"),
    ("10,A,abc", "line 2: unknown feed 'A' (expected 'primary' or 'secondary')"),
])
def test_load_trace_takes_only_the_two_feeds(tmp_path, rows, message):
    path = tmp_path / "trace.csv"
    path.write_text(f"timestamp,feed_id,price\n{rows}\n")
    with pytest.raises(TraceError) as info:
        load_trace(str(path))
    assert str(info.value) == message


@pytest.mark.parametrize("rows, message", [
    ("10,primary", "line 2: expected 3 columns, got 2"),
    ("10,primary,2000\n11,primary,2000,x", "line 3: expected 3 columns, got 4"),
    ("1.5,primary,2000", "line 2: bad timestamp '1.5'"),
    ("ten,primary,2000", "line 2: bad timestamp 'ten'"),
    # a timestamp is ASCII digits, as int() alone would not require
    (" 10,primary,2000", "line 2: bad timestamp ' 10'"),
    ("+10,primary,2000", "line 2: bad timestamp '+10'"),
    ("1_0,primary,2000", "line 2: bad timestamp '1_0'"),
    ("\u0661\u0661,primary,2000", "line 2: bad timestamp '\u0661\u0661'"),
    ("10 ,primary,2000", "line 2: bad timestamp '10 '"),
    (f"{MAX_TIMESTAMP + 1},primary,2000", f"line 2: timestamp beyond {MAX_TIMESTAMP}"),
    ("20,primary,2000\n10,primary,2001", "line 3: timestamps decrease (20 -> 10)"),
    ("10,primary,abc", "line 2: bad price 'abc'"),
    ("10,primary,1.0000001", "line 2: bad price '1.0000001'"),
    ("10,primary,0", "line 2: non-positive price for feed 'primary'"),
    ("10,secondary,-3", "line 2: non-positive price for feed 'secondary'"),
    ("-5,primary,2000", "line 2: negative publish time for feed 'primary'"),
])
def test_load_trace_row_messages(tmp_path, rows, message):
    path = tmp_path / "trace.csv"
    path.write_text(f"timestamp,feed_id,price\n{rows}\n", encoding="utf-8")
    with pytest.raises(TraceError) as info:
        load_trace(str(path))
    assert str(info.value) == message


def test_load_trace_points_share_the_feed_strings_and_each_stamp(tmp_path):
    """A point holds the FEEDS string itself, not csv's copy, and rows with
    the same stamp text share one int."""
    stamp = MAX_TIMESTAMP - 7     # past the interpreter's cache of small ints
    path = tmp_path / "trace.csv"
    path.write_text("timestamp,feed_id,price\n"
                    f"{stamp},primary,2000\n{stamp},secondary,2001\n"
                    f"{stamp + 1},secondary,2002\n{stamp + 1},primary,2003\n"
                    f"{stamp + 1},primary,2004\n", encoding="utf-8")
    points = load_trace(str(path))
    assert [p.feed_id for p in points] == [PRIMARY, SECONDARY, SECONDARY, PRIMARY, PRIMARY]
    assert all(p.feed_id is PRIMARY or p.feed_id is SECONDARY for p in points)
    first, second = points[:2], points[2:]
    assert all(p.publish_time is first[0].publish_time for p in first)
    assert all(p.publish_time is second[0].publish_time for p in second)
    assert [p.publish_time for p in points] == [stamp] * 2 + [stamp + 1] * 3


# each defect comes after rows that repeat one stamp, whose checks then ran once
@pytest.mark.parametrize("rows, message", [
    ("10,primary,2000\n10,secondary,2000\nx,primary,2000", "line 4: bad timestamp 'x'"),
    ("10,primary,2000\n10,secondary,2000\n9,primary,2000",
     "line 4: timestamps decrease (10 -> 9)"),
    ("10,primary,2000\n10,secondary,2000\n-1,primary,2000",
     "line 4: negative publish time for feed 'primary'"),
    ("10,primary,2000\n10,secondary,2000\n010,primary,2000\n9,primary,2000",
     "line 5: timestamps decrease (10 -> 9)"),
    ("10,primary,2000\n10,A,2000", "line 3: unknown feed 'A' (expected 'primary' or 'secondary')"),
    ("10,primary,2000\n10,secondary,0", "line 3: non-positive price for feed 'secondary'"),
    ("10,primary,2000\n 10,primary,2000", "line 3: bad timestamp ' 10'"),
])
def test_load_trace_checks_each_row_after_a_repeated_stamp(tmp_path, rows, message):
    path = tmp_path / "trace.csv"
    path.write_text(f"timestamp,feed_id,price\n{rows}\n", encoding="utf-8")
    with pytest.raises(TraceError) as info:
        load_trace(str(path))
    assert str(info.value) == message
