"""Figure-reproduction tables: curve values over an inclusive grid.

Four table kinds:

* ``deviation_price``: oracle price next to the long/short deviated quotes;
* ``deviation_pct``: deviation percent, one column per coefficient;
* ``base_fee``: base borrowing fee, one column per coefficient;
* ``dynamic_fee``: dynamic borrowing fee over skew, one column per steepness.

Grid points are exact decimals (``lo:hi:step`` must divide evenly, in 28
digits with exponents within [-28, 28]). Printed with the grid's decimals,
the more of lo's and step's, a point has at most 15 digits (binary64's
DBL_DIG), so point i is the int ``first + i*step`` over ``10**places``: its x
is the correctly rounded quotient, the double of its label, and
``"%.{places}f" % x`` prints the label back.

Every check runs before the first row, in this order: grid, params,
coefficients, domain, quote. x rises along the grid, and the deviation with
it, so the domain check and deviation_price's quote check each read the two
endpoints; only a failure at the last bisects for the first offending point,
whose message is raised. The table is then made and written ``BLOCK_ROWS`` rows at a time,
so its memory does not grow with the grid: a block's x column goes through
the raw binary64 curve (``curves``, each formula once, over a column), and
the block prints in one printf-style pass, a curve value with
:data:`~perpamm.money.FORMAT9`, the bytes ``format9`` gives, so the files
are stable golden artifacts. The curve params bound each coefficient, so
every value has a 9-digit form.
"""

from bisect import bisect_left
from collections.abc import Callable, Iterable, Iterator
from decimal import (ROUND_HALF_EVEN, Context, Decimal, DecimalException, InvalidOperation,
                     localcontext)
from itertools import chain, repeat
from operator import truediv
from typing import NamedTuple

from .config import coefficient, read_fields
from .curves import (
    BaseFeeParams,
    DeviationParams,
    DynamicFeeParams,
    check_skew,
    check_utilization,
    eval_deviation,
    parabola,
    quote_nanos,
    sigmoid,
)
from .errors import DomainError, InvalidGrid, QuoteError
from .money import FORMAT9, format_nanos, nanos9_all

MAX_GRID_POINTS = 10**6   # a table row per point: bounds the time one table takes
BLOCK_ROWS = 1024   # rows made and written at a time: a table's memory is one block's
MAX_POINT_DIGITS = 15   # binary64's DBL_DIG: a decimal of this many digits is one double

# Every signal traps: the grid's arithmetic is exact in 28 digits, with each
# nonzero result's adjusted exponent within [-28, 28], or it is refused.
_GRID_CONTEXT = Context(prec=28, Emin=-28, Emax=28, traps=list(Context().traps))


def _inexact(text: str) -> InvalidGrid:
    return InvalidGrid(f"grid arithmetic must be exact in 28 digits, with exponents "
                       f"within [-28, 28]: {text!r}")


class Grid(NamedTuple):
    """``count`` points; point i is (first + i*step) / 10**places, exactly.

    ``places`` is the label's number of fractional digits, that of lo or of
    step, whichever has more. Every point times 10**places is below
    10**MAX_POINT_DIGITS, so its double, ``x(i)``, the int quotient correctly
    rounded, is the double of the label, and ``"%.{places}f"`` prints the
    label back from it.
    """

    first: int
    step: int
    count: int
    places: int

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
        # a point's plain decimal text: lo + i*step, with the exponent of lo or step
        places = max(0, -min(lo.as_tuple().exponent, step.as_tuple().exponent))
        count = int(points)
        # the points lie within [lo, hi]; copy_abs and the comparison are exact
        fits = max(lo.copy_abs(), hi.copy_abs()) < Decimal((0, (1,), MAX_POINT_DIGITS - places))
        if not fits or places > 28:
            # only then can a point, or a multiple of the step, leave the context: the
            # points' exact arithmetic decides, and a grid it refuses keeps its message
            try:
                with localcontext(_GRID_CONTEXT):
                    for i in range(count):
                        lo + i * step
            except DecimalException:
                raise _inexact(f"{lo}:{hi}:{step}") from None
        if not fits:
            raise InvalidGrid(f"a grid point printed with {places} decimals must have at most "
                              f"{MAX_POINT_DIGITS} digits: {text!r}")
        return cls(int(lo.scaleb(places)), int(step.scaleb(places)), count, places)

    def x(self, i: int) -> float:
        """Point i's double."""
        return (self.first + i * self.step) / 10**self.places

    def blocks(self) -> Iterator[list[float]]:
        """The points' doubles, BLOCK_ROWS at a time."""
        first, step, scale = self.first, self.step, 10**self.places
        for start in range(0, self.count, BLOCK_ROWS):
            stop = min(start + BLOCK_ROWS, self.count)
            yield list(map(truediv, range(first + start * step, first + stop * step, step),
                           repeat(scale)))


class FigureTable(NamedTuple):
    """A table's header, and its body made block by block from the grid:
    ``cells`` maps a block's x column to the block's cells, row by row, which
    ``row_format`` prints, one row per CSV line."""

    header: list[str]
    grid: Grid
    row_format: str
    cells: Callable[[list[float]], Iterable]

    @property
    def body(self) -> Iterator[str]:
        """The CSV lines after the header, each ending in "\\n", BLOCK_ROWS rows to a
        string; each read makes them afresh."""
        block_format = self.row_format * BLOCK_ROWS
        for xs in self.grid.blocks():
            rows_format = block_format if len(xs) == BLOCK_ROWS else self.row_format * len(xs)
            yield rows_format % tuple(self.cells(xs))

    @property
    def rows(self) -> list[list[str]]:
        return [line.split(",") for line in "".join(self.body).splitlines()]


def emit_figure_data(kind: str, params: dict, grid: Grid) -> FigureTable:
    """Check everything one figure kind's table needs and return the table, whose
    body is made as it is read; `read_fields` reads ``params`` (flags or a
    --params object) against ``FIGURE_PARAMS[kind]``. Coefficients stay
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


def _check_points(grid: Grid, check: Callable[[float], object], error: type[Exception]) -> None:
    """check(x) at every point's x, where the points that fail are a head, a tail
    or both: the first and the last point pass, or the first that fails raises,
    the first point itself or the first of the tail, which bisection finds.

    Each use rests on x rising along the grid: a domain's bounds fail a head
    and a tail, and a deviation, which rises with utilization, a tail.
    """
    def fails(i: int) -> bool:
        try:
            check(grid.x(i))
        except error:
            return True
        return False

    check(grid.x(0))
    if fails(grid.count - 1):
        check(grid.x(bisect_left(range(grid.count), True, key=fails)))


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
    _check_points(grid, check_utilization, DomainError)
    _check_points(grid, lambda x: quote_nanos(price_nanos, eval_deviation(x, p)), QuoteError)

    def cells(xs: list[float]) -> Iterable:
        quotes = chain.from_iterable(map(quote_nanos, repeat(price_nanos),
                                         nanos9_all(parabola(xs, p.k_delta, p.c_d))))
        # a quote is a non-negative count of nanos: whole and fraction print as ints
        parts = chain.from_iterable(map(divmod, quotes, repeat(10**9)))
        # a row's four parts, long then short: zip takes them from the one iterator in turn
        return chain.from_iterable(zip(xs, parts, parts, parts, parts))

    return FigureTable(
        header=["utilization", "oracle_price", "deviated_price_long", "deviated_price_short"],
        grid=grid,
        row_format=f"%.{grid.places}f,{format_nanos(price_nanos)},%d.%09d,%d.%09d\n",
        cells=cells)


def _coefficient_table(params: dict, grid: Grid, x_name: str, key: str, const_key: str,
                       label: str, params_type: type, check: Callable[[float], None],
                       raw: Callable[[list[float], float, float], list[float]]) -> FigureTable:
    """One column per coefficient in params[key]: raw(xs, coefficient, constant).

    ``key`` and ``const_key`` are also the field names of ``params_type``,
    which checks each (coefficient, constant) pair; ``check`` is the curve's
    domain check on x.
    """
    const = coefficient(params.get(const_key, 0))
    coefficients = params[key]
    ks = [coefficient(c) for c in coefficients]
    for k in ks:
        params_type(**{key: k, const_key: const})
    _check_points(grid, check, DomainError)
    width = len(ks) + 1

    def cells(xs: list[float]) -> list:
        row_cells = [0.0] * (len(xs) * width)
        row_cells[::width] = xs
        for column, k in enumerate(ks, 1):
            row_cells[column::width] = raw(xs, k, const)
        return row_cells

    # each value is the raw binary64 curve printed once: format9(quantize9(v)) == format9(v)
    return FigureTable(header=[x_name] + [f"{label}{c}" for c in coefficients], grid=grid,
                       row_format=",".join([f"%.{grid.places}f"] + [FORMAT9] * len(ks)) + "\n",
                       cells=cells)


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
