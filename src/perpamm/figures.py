"""Figure-reproduction tables: curve values over an inclusive grid.

Four table kinds:

* ``deviation_price``: oracle price next to the long/short deviated quotes;
* ``deviation_pct``: deviation percent, one column per coefficient;
* ``base_fee``: base borrowing fee, one column per coefficient;
* ``dynamic_fee``: dynamic borrowing fee over skew, one column per steepness.

Grid points are exact decimals (``lo:hi:step`` must divide evenly, in 28
digits with exponents within [-28, 28]); a label is a point's plain decimal
text, and x the double of that text. A column is the raw binary64 curve over
every x, bound-checked once (:func:`~perpamm.money.check9`), and the body
prints in one printf-style pass: a curve value with
:data:`~perpamm.money.FORMAT9`, the bytes ``format9`` gives, so the files
are stable golden artifacts.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from decimal import (ROUND_HALF_EVEN, Context, Decimal, DecimalException, InvalidOperation,
                     localcontext)
from itertools import chain, repeat

from .config import coefficient, read_fields
from .curves import (
    BaseFeeParams,
    DeviationParams,
    DynamicFeeParams,
    check_skew,
    check_utilization,
    parabola,
    quote_nanos,
    sigmoid,
)
from .errors import DomainError, InvalidGrid
from .money import FORMAT9, check9, format_nanos, nanos9_all

MAX_GRID_POINTS = 10**6   # a table row per point: bounds the time and memory one table takes

# Every signal traps: the grid's arithmetic is exact in 28 digits, with each
# nonzero result's adjusted exponent within [-28, 28], or it is refused. So
# a point is never rounded and its label is at most 58 characters.
_GRID_CONTEXT = Context(prec=28, Emin=-28, Emax=28, traps=list(Context().traps))


def _inexact(text: str) -> InvalidGrid:
    return InvalidGrid(f"grid arithmetic must be exact in 28 digits, with exponents "
                       f"within [-28, 28]: {text!r}")


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
        try:
            with localcontext(_GRID_CONTEXT):
                uneven = (hi - lo) % step != 0
                points = (hi - lo) / step + 1
        except DecimalException:
            raise _inexact(text) from None
        if uneven:
            raise InvalidGrid("grid step must divide the range evenly")
        if points > MAX_GRID_POINTS:
            raise InvalidGrid(f"grid has more than {MAX_GRID_POINTS} points: {text!r}")
        return cls(lo, hi, step)

    def points(self) -> list[Decimal]:
        lo, hi, step = self.lo, self.hi, self.step
        try:
            with localcontext(_GRID_CONTEXT):
                return [lo + i * step for i in range(int((hi - lo) / step) + 1)]
        except DecimalException:
            raise _inexact(f"{lo}:{hi}:{step}") from None


@dataclass(frozen=True)
class FigureTable:
    header: list[str]
    body: str   # the CSV lines after the header, each ending in "\n"

    @property
    def rows(self) -> list[list[str]]:
        return [line.split(",") for line in self.body.splitlines()]


def emit_figure_data(kind: str, params: dict, grid: Grid) -> FigureTable:
    """Build the table for one figure kind; `read_fields` reads ``params`` (flags
    or a --params object) against ``FIGURE_PARAMS[kind]``. Coefficients stay
    Decimals, so column labels keep their literal spelling. Keys by kind,
    the required ones first:

    * deviation_price: k_delta (exactly one), price; c_d
    * deviation_pct:   k_delta (one or more); c_d
    * base_fee:        k_b (one or more); c_b
    * dynamic_fee:     steepness (one or more); m_max
    """
    try:
        parsers, required = FIGURE_PARAMS[kind]
    except KeyError:
        raise InvalidGrid(f"unknown figure kind {kind!r}") from None
    params = read_fields(params, parsers, required, InvalidGrid, f"{kind} params")
    if kind == "deviation_price":
        return _deviation_price(params, grid)
    return _coefficient_table(params, grid, *_COEFFICIENT_TABLES[kind])


def _number(value) -> Decimal:
    try:
        return Decimal(str(value))
    except InvalidOperation:
        raise ValueError(f"not a number: {value!r}") from None


def _numbers(value) -> list[Decimal]:
    if value == []:
        raise ValueError("must be a number or a non-empty list")
    return [_number(v) for v in (value if isinstance(value, list) else [value])]


def _labels(grid: Grid) -> tuple[list[str], list[float]]:
    """Each grid point's label, its plain decimal text, and its double, parsed
    from that text: the same exact decimal as the point, so the same double."""
    labels = list(map(format, grid.points(), repeat("f")))
    return labels, list(map(float, labels))


def _body(row_format: str, labels: list[str], columns: list) -> str:
    """Every row in one printf-style pass: row_format takes a label, then one
    value from each column."""
    return (row_format * len(labels)) % tuple(chain.from_iterable(zip(labels, *columns)))


# a 9-digit value has at most 50 significant digits; a longer price is a DomainError
_PRICE_CONTEXT = Context(prec=50, rounding=ROUND_HALF_EVEN)


def _deviation_price(params: dict, grid: Grid) -> FigureTable:
    price = params["price"]
    try:   # the price in integer 1e-9 units, rounded half-even once; NaN and ±inf read as 0
        price_nanos = int(price.quantize(Decimal("1e-9"), context=_PRICE_CONTEXT).scaleb(
            9, context=_PRICE_CONTEXT)) if price.is_finite() else 0
    except InvalidOperation:
        raise DomainError(f"{price:.6g} has no 9-digit fixed-point value") from None
    if price_nanos <= 0:   # after rounding, so a price that rounds to 0 is refused too
        raise InvalidGrid("deviation_price needs a positive, finite oracle price")
    k_deltas = params["k_delta"]
    if len(k_deltas) != 1:
        raise InvalidGrid("deviation_price takes exactly one k_delta")
    p = DeviationParams(k_delta=coefficient(k_deltas[0]),
                        c_d=coefficient(params.get("c_d", 0)))
    labels, xs = _labels(grid)
    for x in xs:
        check_utilization(x)
    deviations = list(map(parabola, xs, repeat(p.k_delta), repeat(p.c_d)))
    check9(deviations)
    long_q, short_q = zip(*map(quote_nanos, repeat(price_nanos), nanos9_all(deviations)))
    # a quote is a non-negative count of nanos: whole and fraction print as ints
    columns = [*zip(*map(divmod, long_q, repeat(10**9))),
               *zip(*map(divmod, short_q, repeat(10**9)))]
    row_format = f"%s,{format_nanos(price_nanos)},%d.%09d,%d.%09d\n"
    return FigureTable(
        header=["utilization", "oracle_price", "deviated_price_long", "deviated_price_short"],
        body=_body(row_format, labels, columns))


def _coefficient_table(params: dict, grid: Grid, x_name: str, key: str, const_key: str,
                       label: str, params_type: type, check: Callable[[float], None],
                       raw: Callable[[float, float, float], float]) -> FigureTable:
    """One column per coefficient in params[key]: raw(x, coefficient, constant).

    ``key`` and ``const_key`` are also the field names of ``params_type``,
    which checks each (coefficient, constant) pair; ``check`` is the curve's
    domain check on x.
    """
    const = coefficient(params.get(const_key, 0))
    coefficients = params[key]
    ks = [coefficient(c) for c in coefficients]
    for k in ks:
        params_type(**{key: k, const_key: const})
    labels, xs = _labels(grid)
    for x in xs:
        check(x)
    # each value is the raw binary64 curve printed once: format9(quantize9(v)) == format9(v)
    columns = [list(map(raw, xs, repeat(k), repeat(const))) for k in ks]
    for column in columns:
        check9(column)
    return FigureTable(header=[x_name] + [f"{label}{c}" for c in coefficients],
                       body=_body(",".join(["%s"] + [FORMAT9] * len(ks)) + "\n",
                                  labels, columns))


# kind -> the arguments of _coefficient_table after (params, grid)
_COEFFICIENT_TABLES = {
    "deviation_pct": ("utilization", "k_delta", "c_d", "deviation_kd_",
                      DeviationParams, check_utilization, parabola),
    "base_fee": ("utilization", "k_b", "c_b", "base_fee_kb_",
                 BaseFeeParams, check_utilization, parabola),
    "dynamic_fee": ("market_skew", "steepness", "m_max", "dynamic_fee_k_",
                    DynamicFeeParams, check_skew, sigmoid),
}
# figure kind -> (a parser per params key, the keys it requires), as scenario.ACTION_PARAMS
FIGURE_PARAMS = {
    "deviation_price": ({"k_delta": _numbers, "price": _number, "c_d": _number},
                        ("k_delta", "price")),
    **{kind: ({key: _numbers, const_key: _number}, (key,))
       for kind, (_, key, const_key, *_) in _COEFFICIENT_TABLES.items()},
}
FIGURE_KINDS = tuple(FIGURE_PARAMS)
