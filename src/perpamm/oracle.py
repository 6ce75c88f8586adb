"""Simulated dual-feed price source and settlement-time aggregation.

Each market settles against exactly two feeds (primary, secondary). At
settlement the two latest points are compared: staleness is checked first on
both feeds, then the relative deviation d = 100*|p1-p2|/min(p1,p2) decides
the outcome:

* d <= min_acceptable_deviation   -> the primary price is used;
* min_acceptable < d <= threshold -> the price least favorable to the trader
  (higher of the two for a buy, lower for a sell);
* d > threshold                   -> the settlement reverts.

Band comparisons are exact integer cross-multiplications, so boundary
equality behaves identically on every platform.
"""

from __future__ import annotations

import csv
import enum
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ConfigError, DeviationTooHigh, DomainError, StaleFeed, TraceError
from .money import MAX_TIMESTAMP, UNIT_SCALE, to_units

TRACE_HEADER = ["timestamp", "feed_id", "price"]
PRIMARY, SECONDARY = FEEDS = ("primary", "secondary")   # a trace's only feed ids
_FEED_IDS = {feed: feed for feed in FEEDS}   # a row's feed text -> the shared string


class TradeSide(enum.Enum):
    """Direction in which the trader consumes the quote."""

    BUY = "buy"
    SELL = "sell"


class PricePoint(NamedTuple):
    """One published price; `load_trace`, the one reader of points, checks it."""

    feed_id: str
    price: int          # base units, > 0
    publish_time: int   # seconds since epoch, >= 0


@dataclass(frozen=True)
class OracleConfig:
    max_age: int                    # seconds
    min_acceptable_deviation: int   # percent, base units
    threshold_deviation: int        # percent, base units

    def __post_init__(self) -> None:
        if self.max_age <= 0:
            raise DomainError("max_age must be positive")
        if not 0 <= self.min_acceptable_deviation < self.threshold_deviation:
            raise DomainError(
                "need 0 <= min_acceptable_deviation < threshold_deviation")


class FeedStore:
    """Latest point per feed id; older publish times never overwrite newer."""

    def __init__(self) -> None:
        self._points: dict[str, PricePoint] = {}

    def ingest(self, point: PricePoint) -> None:
        current = self._points.get(point.feed_id)
        if current is not None and point.publish_time < current.publish_time:
            return
        self._points[point.feed_id] = point

    def get(self, feed_id: str) -> PricePoint | None:
        return self._points.get(feed_id)


def _check_fresh(point: PricePoint, cfg: OracleConfig, now: int) -> None:
    if now - point.publish_time > cfg.max_age:
        raise StaleFeed(
            f"feed {point.feed_id!r} is {now - point.publish_time}s old "
            f"(max {cfg.max_age}s)")


def aggregate(
    primary: PricePoint,
    secondary: PricePoint,
    side: TradeSide,
    cfg: OracleConfig,
    now: int,
) -> int:
    """Settlement price in base units, per the dual-feed decision rule."""
    _check_fresh(primary, cfg, now)
    _check_fresh(secondary, cfg, now)

    p1, p2 = primary.price, secondary.price
    diff = abs(p1 - p2)
    low = min(p1, p2)
    # d <= band  <=>  100 * diff * UNIT_SCALE <= band_units * low
    scaled = 100 * diff * UNIT_SCALE
    if scaled > cfg.threshold_deviation * low:
        raise DeviationTooHigh(
            f"feed deviation exceeds threshold ({p1} vs {p2})")
    if scaled <= cfg.min_acceptable_deviation * low:
        return p1
    return max(p1, p2) if side is TradeSide.BUY else min(p1, p2)


# -- Trace loading -------------------------------------------------------------

def load_trace(path: str) -> list[PricePoint]:
    """Parse a UTF-8 `timestamp,feed_id,price` CSV of positive plain-decimal prices
    of the feeds `primary` and `secondary`; timestamps are ASCII digits,
    nondecreasing and within [0, MAX_TIMESTAMP]. A defect is one TraceError.

    Each point holds its feed's `FEEDS` string, and rows with the same stamp
    text share one int, checked once, so a point costs little beyond itself."""
    points: list[PricePoint] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header != TRACE_HEADER:
                raise TraceError(f"expected header {TRACE_HEADER}, got {header}")
            # the last checked stamp text and its int, which every row that
            # repeats the text shares; times are checked to be >= 0 first
            last_stamp, ts = None, 0
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 3:
                    raise TraceError(f"line {lineno}: expected 3 columns, got {len(row)}")
                stamp, feed, amount = row
                if stamp != last_stamp:
                    try:
                        # isascii() confines isdigit() to 0-9; int() alone would take " 1", "+1", "1_0"
                        if not (stamp.isascii() and stamp.removeprefix("-").isdigit()):
                            raise ValueError
                        new_ts = int(stamp)     # also refuses a string past int()'s digit limit
                    except ValueError:
                        raise TraceError(f"line {lineno}: bad timestamp {stamp!r}") from None
                    if new_ts > MAX_TIMESTAMP:
                        raise TraceError(f"line {lineno}: timestamp beyond {MAX_TIMESTAMP}")
                    if new_ts < 0:
                        raise TraceError(
                            f"line {lineno}: negative publish time for feed {feed!r}")
                    if new_ts < ts:
                        raise TraceError(
                            f"line {lineno}: timestamps decrease ({ts} -> {new_ts})")
                    last_stamp, ts = stamp, new_ts
                feed_id = _FEED_IDS.get(feed)
                if feed_id is None:
                    raise TraceError(f"line {lineno}: unknown feed {feed!r} "
                                     f"(expected {PRIMARY!r} or {SECONDARY!r})")
                try:
                    price = to_units(amount)
                except ConfigError:
                    raise TraceError(f"line {lineno}: bad price {amount!r}") from None
                if price <= 0:
                    raise TraceError(f"line {lineno}: non-positive price for feed {feed!r}")
                points.append(PricePoint(feed_id, price, ts))
        except UnicodeDecodeError as exc:
            raise TraceError(f"trace is not valid text: {exc}") from None
        except csv.Error as exc:    # a field past csv's size limit, a NUL byte, ...
            raise TraceError(f"line {reader.line_num}: {exc}") from None
    return points
