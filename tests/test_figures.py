"""Figure tables: grid parsing and curve-series reproduction."""

from __future__ import annotations

import csv
import io
import math
from decimal import Context, Decimal, localcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perpamm.curves import (
    BaseFeeParams,
    DeviationParams,
    DynamicFeeParams,
    eval_base_fee,
    eval_deviation,
    eval_dynamic_fee,
    quote_nanos,
)
from perpamm.errors import DomainError, InvalidGrid
from perpamm.figures import BLOCK_ROWS, FIGURE_PARAMS, Grid, emit_figure_data
from perpamm.money import format9, format_nanos, nanos9, quantize9
from test_scenario import count_calls


def D(text):
    return Decimal(text)


def grid_points(text: str) -> list[Decimal]:
    """A grid's points as first computed: lo + i*step in exact Decimals."""
    lo, hi, step = map(Decimal, text.split(":"))
    with localcontext(Context(prec=60)):
        return [lo + i * step for i in range(int((hi - lo) / step) + 1)]


def test_grid_parse_and_points():
    grid = Grid.parse("0:100:25")
    assert grid == Grid(first=0, step=25, count=5, places=0)
    assert [grid.x(i) for i in range(grid.count)] == [0.0, 25.0, 50.0, 75.0, 100.0]
    fine = Grid.parse("0:1:0.1")
    assert fine == Grid(first=0, step=1, count=11, places=1)
    assert fine.x(3) == 0.3 == float("0.3")
    # a label has the fractional digits of lo or of step, whichever has more
    assert Grid.parse("0.50:1:0.5") == Grid(first=50, step=50, count=2, places=2)
    assert Grid.parse("1E+1:20:1E+1") == Grid(first=10, step=10, count=2, places=0)


@pytest.mark.parametrize("text", ["0:100", "0:100:0", "100:0:1", "0:100:7",
                                  "a:b:c", "0:100:-1"])
def test_grid_rejects_bad_specs(text):
    with pytest.raises(InvalidGrid):
        Grid.parse(text)


def test_deviation_price_table():
    table = emit_figure_data(
        "deviation_price",
        {"price": D("2000"), "k_delta": [D("0.0004")], "c_d": D("0")},
        Grid.parse("0:100:25"))
    assert table.header == ["utilization", "oracle_price",
                            "deviated_price_long", "deviated_price_short"]
    by_u = {row[0]: row[1:] for row in table.rows}
    assert by_u["100"] == ["2000.000000000", "2080.000000000", "1920.000000000"]
    assert by_u["0"] == ["2000.000000000", "2000.000000000", "2000.000000000"]
    assert by_u["50"] == ["2000.000000000", "2020.000000000", "1980.000000000"]


def test_base_fee_table_three_series():
    table = emit_figure_data(
        "base_fee",
        {"k_b": [D("0.0325"), D("0.01"), D("0.005")], "c_b": D("0")},
        Grid.parse("0:100:1"))
    assert table.header == ["utilization", "base_fee_kb_0.0325",
                            "base_fee_kb_0.01", "base_fee_kb_0.005"]
    last = table.rows[-1]
    assert last == ["100", "325.000000000", "100.000000000", "50.000000000"]


def test_deviation_pct_table():
    table = emit_figure_data(
        "deviation_pct",
        {"k_delta": [D("0.000125"), D("0.00025"), D("0.0005")], "c_d": D("0")},
        Grid.parse("0:100:10"))
    assert table.rows[-1][1:] == ["1.250000000", "2.500000000", "5.000000000"]


def test_dynamic_fee_table_zero_at_origin():
    table = emit_figure_data(
        "dynamic_fee",
        {"steepness": [D("0.0125"), D("0.0225"), D("0.0325")], "m_max": D("500")},
        Grid.parse("0:100:1"))
    assert table.rows[0] == ["0", "0.000000000", "0.000000000", "0.000000000"]


@pytest.mark.parametrize("kind,params", [
    ("deviation_pct", {"k_delta": [D("0.0004")], "c_d": D("0")}),
    ("base_fee", {"k_b": [D("0.01")], "c_b": D("0")}),
    ("dynamic_fee", {"steepness": [D("0.0325")], "m_max": D("500")}),
])
def test_series_nondecreasing_along_grid(kind, params):
    table = emit_figure_data(kind, params, Grid.parse("0:100:1"))
    for col in range(1, len(table.header)):
        values = [Decimal(row[col]) for row in table.rows]
        assert values == sorted(values)


def test_missing_params_rejected():
    with pytest.raises(InvalidGrid):
        emit_figure_data("base_fee", {"c_b": D("0")}, Grid.parse("0:100:1"))
    with pytest.raises(InvalidGrid):
        emit_figure_data("deviation_price", {"k_delta": [D("1"), D("2")],
                                             "price": D("2000")},
                         Grid.parse("0:100:1"))
    with pytest.raises(InvalidGrid):
        emit_figure_data("nonsense", {}, Grid.parse("0:100:1"))


# kind -> (coefficient key, constant key, curve evaluated by the engine, its params)
ENGINE_CURVES = {
    "deviation_pct": ("k_delta", "c_d", eval_deviation,
                      lambda k, c: DeviationParams(k_delta=k, c_d=c)),
    "base_fee": ("k_b", "c_b", eval_base_fee, lambda k, c: BaseFeeParams(k_b=k, c_b=c)),
    "dynamic_fee": ("steepness", "m_max", eval_dynamic_fee,
                    lambda k, c: DynamicFeeParams(m_max=c, steepness=k)),
}


@pytest.mark.parametrize("kind", sorted(ENGINE_CURVES))
def test_coefficient_table_prints_each_value_once(monkeypatch, kind):
    key, const_key, _, _ = ENGINE_CURVES[kind]
    params = {key: [D("0.0125"), D("0.0225"), D("0.0325")], const_key: D("1.5")}
    quantized = count_calls(monkeypatch, quantize9)
    formatted = count_calls(monkeypatch, format9)
    table = emit_figure_data(kind, params, Grid.parse("0:100:0.5"))
    assert len(table.rows) == 201
    # the table prints each column with FORMAT9 in one pass
    assert quantized[0] == formatted[0] == 0


coefficients = st.decimals(min_value=D("0.000000001"), max_value=D("100000"), places=9)


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(sorted(ENGINE_CURVES)),
       ks=st.lists(coefficients, min_size=1, max_size=3),
       const=st.decimals(min_value=0, max_value=D("1000"), places=6),
       lo=st.integers(0, 5000), step=st.sampled_from(["0.005", "0.1", "0.25", "1", "2.5"]),
       count=st.integers(1, 20))
def test_coefficient_table_cells_are_the_engine_curve(kind, ks, const, lo, step, count):
    key, const_key, curve, make = ENGINE_CURVES[kind]
    first, step_ = D(lo) / 100, D(step)
    text = f"{first}:{first + step_ * (count - 1)}:{step}"
    table = emit_figure_data(kind, {key: ks, const_key: const}, Grid.parse(text))
    series = [make(float(k), float(const)) for k in ks]
    for point, row in zip(grid_points(text), table.rows, strict=True):
        assert row == [format(point, "f")] + [format_nanos(curve(float(point), p)) for p in series]


def parabola_at(u: float, k: float, c: float) -> float:
    return k * u * u + c


def sigmoid_at(skew: float, steepness: float, m_max: float) -> float:
    e = math.exp(-steepness * skew)
    return m_max * (1.0 - e) / (1.0 + e)


# kind -> the raw curve a coefficient table prints, one point at a time: raw(x, k, const)
RAW_CURVES = {"deviation_pct": parabola_at, "base_fee": parabola_at, "dynamic_fee": sigmoid_at}


def reference_rows(kind: str, params: dict, text: str) -> list[list[str]]:
    """A table's rows as first written: each point's label its exact Decimal's
    plain text, x the double of that text, and each cell printed on its own,
    by format9 (the raw curve) or format_nanos (a quote)."""
    labels = [format(point, "f") for point in grid_points(text)]
    if kind == "deviation_price":
        price_nanos = int(params["price"] * 10**9)   # the test's prices have 9 places
        k, c = float(params["k_delta"][0]), float(params["c_d"])
        return [[label, format_nanos(price_nanos), *map(format_nanos, quote_nanos(
                    price_nanos, nanos9(parabola_at(float(label), k, c))))]
                for label in labels]
    key, const_key, _, _ = ENGINE_CURVES[kind]
    const = float(params[const_key])
    return [[label] + [format9(RAW_CURVES[kind](float(label), float(k), const))
                       for k in params[key]]
            for label in labels]


def reference_file(kind: str, params: dict, text: str, header: list[str]) -> str:
    """The file csv.writer writes from the header and the reference rows."""
    reference = io.StringIO()
    writer = csv.writer(reference, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(reference_rows(kind, params, text))
    return reference.getvalue()


def table_params(kind: str, ks: list, const: Decimal, price: Decimal) -> dict:
    if kind == "deviation_price":   # a deviation below 95% at every point
        return {"price": price, "k_delta": [min(ks[0], D("0.009"))], "c_d": const % 5}
    key, const_key, _, _ = ENGINE_CURVES[kind]
    return {key: ks, const_key: const}


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(sorted(FIGURE_PARAMS)),
       ks=st.lists(coefficients, min_size=1, max_size=3),
       const=st.decimals(min_value=0, max_value=D("1000"), places=6),
       price=st.decimals(min_value=D("0.000000001"), max_value=D("1e15"), places=9),
       lo=st.integers(0, 5000),
       # a point of 1E-7 has str() "1E-7": a label is the plain decimal text
       step=st.sampled_from(["0.0000001", "0.005", "0.1", "0.25", "1", "2.5"]),
       count=st.integers(1, 20))
def test_table_is_the_one_printed_cell_by_cell(kind, ks, const, price, lo, step, count):
    """The block-by-block body is the file csv.writer wrote from cells printed one by one."""
    first, step_ = D(lo) / 100, D(step)
    text = f"{first}:{first + step_ * (count - 1)}:{step}"
    params = table_params(kind, ks, const, price)
    table = emit_figure_data(kind, params, Grid.parse(text))
    assert ",".join(table.header) + "\n" + "".join(table.body) == reference_file(
        kind, params, text, table.header)


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(sorted(FIGURE_PARAMS)),
       ks=st.lists(coefficients, min_size=1, max_size=3),
       const=st.decimals(min_value=0, max_value=D("1000"), places=6),
       price=st.decimals(min_value=D("0.000000001"), max_value=D("1e15"), places=9),
       lo=st.integers(0, 100), step=st.sampled_from(["0.001", "0.0025", "0.01", "0.04"]),
       count=st.sampled_from([1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                              2 * BLOCK_ROWS + 1]))
def test_blocks_join_to_the_one_printed_cell_by_cell(kind, ks, const, price, lo, step, count):
    """Row counts on each side of a block boundary; the body reads the same twice."""
    first, step_ = D(lo) / 100, D(step)
    text = f"{first}:{first + step_ * (count - 1)}:{step}"
    params = table_params(kind, ks, const, price)
    table = emit_figure_data(kind, params, Grid.parse(text))
    blocks = list(table.body)
    assert len(blocks) == -(-count // BLOCK_ROWS)
    assert [block.count("\n") for block in blocks[:-1]] == [BLOCK_ROWS] * (len(blocks) - 1)
    assert ",".join(table.header) + "\n" + "".join(blocks) == reference_file(
        kind, params, text, table.header)
    assert list(table.body) == blocks


def test_negative_skew_grid_is_the_curve_domain_error():
    with pytest.raises(DomainError) as exc:
        emit_figure_data("dynamic_fee", {"steepness": [D("0.01")], "m_max": D("500")},
                         Grid.parse("-1:10:1"))
    assert str(exc.value) == "skew -1.0 must be non-negative"


READS = {
    "deviation_price": {"price": D("2000"), "k_delta": [D("0.0004")], "c_d": D("0")},
    "deviation_pct": {"k_delta": [D("0.0004")], "c_d": D("0")},
    "base_fee": {"k_b": [D("0.01")], "c_b": D("0")},
    "dynamic_fee": {"steepness": [D("0.01")], "m_max": D("500")},
}


@pytest.mark.parametrize("kind", sorted(READS))
def test_a_key_the_kind_does_not_read_is_rejected(kind):
    grid = Grid.parse("0:100:50")
    parsers, _ = FIGURE_PARAMS[kind]
    assert parsers.keys() == READS[kind].keys()
    emit_figure_data(kind, READS[kind], grid)
    for other in set().union(*map(set, READS.values())) - set(READS[kind]):
        with pytest.raises(InvalidGrid) as info:
            emit_figure_data(kind, {**READS[kind], other: D("1")}, grid)
        assert str(info.value) == f"{kind} params: unknown key {other!r}"
