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
from decimal import ROUND_HALF_EVEN, Context, Decimal, DecimalException, InvalidOperation
from functools import partial

from .curves import (
    BaseFeeParams,
    DeviationParams,
    DynamicFeeParams,
    eval_base_fee,
    eval_deviation,
    eval_dynamic_fee,
    quote_nanos,
)
from .errors import DomainError, InvalidGrid
from .money import format9, format_nanos

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
    build = _TABLES.get(kind)
    if build is None:
        raise InvalidGrid(f"unknown figure kind {kind!r}")
    return build(params, grid)


def _one_or_more(params: dict, key: str) -> list[Decimal]:
    values = params.get(key)
    if not values:
        raise InvalidGrid(f"figure needs at least one {key} value")
    return list(values)


# a 9-digit value has at most 50 significant digits; a longer price is a DomainError
_PRICE_CONTEXT = Context(prec=50, rounding=ROUND_HALF_EVEN)


def _deviation_price(params: dict, grid: Grid) -> FigureTable:
    price = Decimal(params.get("price", 0))
    if not price.is_finite() or price <= 0:
        raise InvalidGrid("deviation_price needs a positive, finite oracle price")
    k_deltas = _one_or_more(params, "k_delta")
    if len(k_deltas) != 1:
        raise InvalidGrid("deviation_price takes exactly one k_delta")
    p = DeviationParams(k_delta=float(k_deltas[0]), c_d=float(params.get("c_d", 0)))
    try:   # the price in integer 1e-9 units, rounded half-even once
        price_nanos = int(price.quantize(Decimal("1e-9"), context=_PRICE_CONTEXT).scaleb(
            9, context=_PRICE_CONTEXT))
    except InvalidOperation:
        raise DomainError(f"{price:.6g} has no 9-digit fixed-point value") from None
    price_text = format_nanos(price_nanos)
    rows = []
    for point in grid.points():
        long_q, short_q = quote_nanos(price_nanos, float(point), p)
        rows.append([_fmt_point(point), price_text,
                     format_nanos(long_q), format_nanos(short_q)])
    return FigureTable(
        header=["utilization", "oracle_price", "deviated_price_long", "deviated_price_short"],
        rows=rows)


def _coefficient_table(x_name: str, key: str, const_key: str, label: str, make, curve,
                       params: dict, grid: Grid) -> FigureTable:
    """One column per coefficient in params[key]: curve(x, make(coefficient, constant))."""
    const = float(params.get(const_key, 0))
    coefficients = _one_or_more(params, key)
    series = [make(float(c), const) for c in coefficients]
    rows = [[_fmt_point(point)] + [format9(curve(float(point), p)) for p in series]
            for point in grid.points()]
    return FigureTable(header=[x_name] + [f"{label}{c}" for c in coefficients], rows=rows)


# The curves are called through their module names, so a wrapper installed over
# those names (the benchmark's tracer) sees every call.
_TABLES = {
    "deviation_price": _deviation_price,
    "deviation_pct": partial(_coefficient_table, "utilization", "k_delta", "c_d",
                             "deviation_kd_", DeviationParams,
                             lambda x, p: eval_deviation(x, p)),
    "base_fee": partial(_coefficient_table, "utilization", "k_b", "c_b",
                        "base_fee_kb_", BaseFeeParams, lambda x, p: eval_base_fee(x, p)),
    "dynamic_fee": partial(_coefficient_table, "market_skew", "steepness", "m_max",
                           "dynamic_fee_k_",
                           lambda k, m_max: DynamicFeeParams(m_max=m_max, steepness=k),
                           lambda x, p: eval_dynamic_fee(x, p)),
}
FIGURE_KINDS = tuple(_TABLES)
