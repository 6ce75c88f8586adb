"""Figure-reproduction tables: curve values over an inclusive grid.

Four table kinds:

* ``deviation_price``: oracle price next to the long/short deviated quotes;
* ``deviation_pct``: deviation percent, one column per coefficient;
* ``base_fee``: base borrowing fee, one column per coefficient;
* ``dynamic_fee``: dynamic borrowing fee over skew, one column per steepness.

Grid points are exact decimals (``lo:hi:step`` must divide evenly) and every
curve value is printed with nine fractional digits so the files are stable
golden artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, DecimalException, InvalidOperation

from .curves import (
    BaseFeeParams,
    DeviationParams,
    DynamicFeeParams,
    eval_base_fee,
    eval_deviation,
    eval_dynamic_fee,
    quote_price_decimals,
)
from .errors import InvalidGrid
from .money import format9

FIGURE_KINDS = ("deviation_price", "deviation_pct", "base_fee", "dynamic_fee")
MAX_GRID_POINTS = 10**6   # a table row per point: bounds the time and memory one table takes


@dataclass(frozen=True)
class Grid:
    lo: Decimal
    hi: Decimal
    step: Decimal

    @classmethod
    def parse(cls, text: str) -> "Grid":
        parts = text.split(":")
        if len(parts) != 3:
            raise InvalidGrid(f"grid must be lo:hi:step, got {text!r}")
        try:
            lo, hi, step = (Decimal(p) for p in parts)
        except InvalidOperation:
            raise InvalidGrid(f"grid bounds must be decimals: {text!r}") from None
        if not all(d.is_finite() for d in (lo, hi, step)):
            raise InvalidGrid(f"grid bounds must be finite: {text!r}")
        if step <= 0:
            raise InvalidGrid("grid step must be positive")
        if hi < lo:
            raise InvalidGrid("grid upper bound below lower bound")
        try:   # DivisionImpossible: a quotient beyond the context's 28 digits
            uneven = (hi - lo) % step != 0
            points = (hi - lo) / step + 1
        except DecimalException:
            raise InvalidGrid(f"grid has too many points: {text!r}") from None
        if uneven:
            raise InvalidGrid("grid step must divide the range evenly")
        if points > MAX_GRID_POINTS:
            raise InvalidGrid(f"grid has more than {MAX_GRID_POINTS} points: {text!r}")
        return cls(lo, hi, step)

    def points(self) -> list[Decimal]:
        count = int((self.hi - self.lo) / self.step)
        return [self.lo + i * self.step for i in range(count + 1)]


@dataclass(frozen=True)
class FigureTable:
    header: list[str]
    rows: list[list[str]]


def _fmt_point(point: Decimal) -> str:
    return format(point, "f")


def emit_figure_data(kind: str, params: dict, grid: Grid) -> FigureTable:
    """Build the table for one figure kind.

    ``params`` keys by kind (coefficient lists are Decimals so column labels
    keep their literal spelling):

    * deviation_price: price, k_delta (exactly one), c_d
    * deviation_pct:   k_delta (one or more), c_d
    * base_fee:        k_b (one or more), c_b
    * dynamic_fee:     steepness (one or more), m_max
    """
    if kind == "deviation_price":
        return _deviation_price(params, grid)
    if kind == "deviation_pct":
        return _deviation_pct(params, grid)
    if kind == "base_fee":
        return _base_fee(params, grid)
    if kind == "dynamic_fee":
        return _dynamic_fee(params, grid)
    raise InvalidGrid(f"unknown figure kind {kind!r}")


def _one_or_more(params: dict, key: str) -> list[Decimal]:
    values = params.get(key)
    if not values:
        raise InvalidGrid(f"figure needs at least one {key} value")
    return list(values)


def _deviation_price(params: dict, grid: Grid) -> FigureTable:
    price = Decimal(params.get("price", 0))
    if not price.is_finite() or price <= 0:
        raise InvalidGrid("deviation_price needs a positive, finite oracle price")
    k_deltas = _one_or_more(params, "k_delta")
    if len(k_deltas) != 1:
        raise InvalidGrid("deviation_price takes exactly one k_delta")
    p = DeviationParams(k_delta=float(k_deltas[0]), c_d=float(params.get("c_d", 0)))
    rows = []
    for point in grid.points():
        long_q, short_q = quote_price_decimals(price, float(point), p)
        rows.append([_fmt_point(point), format9(price), format9(long_q), format9(short_q)])
    return FigureTable(
        header=["utilization", "oracle_price", "deviated_price_long", "deviated_price_short"],
        rows=rows)


def _deviation_pct(params: dict, grid: Grid) -> FigureTable:
    c_d = float(params.get("c_d", 0))
    series = [(f"deviation_kd_{kd}", DeviationParams(k_delta=float(kd), c_d=c_d))
              for kd in _one_or_more(params, "k_delta")]
    rows = [[_fmt_point(point)] + [format9(eval_deviation(float(point), p))
                                   for _, p in series]
            for point in grid.points()]
    return FigureTable(header=["utilization"] + [name for name, _ in series], rows=rows)


def _base_fee(params: dict, grid: Grid) -> FigureTable:
    c_b = float(params.get("c_b", 0))
    series = [(f"base_fee_kb_{kb}", BaseFeeParams(k_b=float(kb), c_b=c_b))
              for kb in _one_or_more(params, "k_b")]
    rows = [[_fmt_point(point)] + [format9(eval_base_fee(float(point), p))
                                   for _, p in series]
            for point in grid.points()]
    return FigureTable(header=["utilization"] + [name for name, _ in series], rows=rows)


def _dynamic_fee(params: dict, grid: Grid) -> FigureTable:
    m_max = float(params.get("m_max", 0))
    series = [(f"dynamic_fee_k_{k}", DynamicFeeParams(m_max=m_max, steepness=float(k)))
              for k in _one_or_more(params, "steepness")]
    rows = [[_fmt_point(point)] + [format9(eval_dynamic_fee(float(point), p))
                                   for _, p in series]
            for point in grid.points()]
    return FigureTable(header=["market_skew"] + [name for name, _ in series], rows=rows)
