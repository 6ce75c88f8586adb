"""Figure tables: grid parsing and curve-series reproduction."""

from __future__ import annotations

import csv
import io
from decimal import Decimal

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
    parabola,
    quote_nanos,
    sigmoid,
)
from perpamm.errors import DomainError, InvalidGrid
from perpamm.figures import FIGURE_PARAMS, Grid, emit_figure_data
from perpamm.money import format9, format_nanos, quantize9
from test_scenario import count_calls


def D(text):
    return Decimal(text)


def test_grid_parse_and_points():
    grid = Grid.parse("0:100:25")
    assert [str(p) for p in grid.points()] == ["0", "25", "50", "75", "100"]
    fine = Grid.parse("0:1:0.1")
    assert len(fine.points()) == 11
    assert str(fine.points()[3]) == "0.3"


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
    grid = Grid.parse(f"{first}:{first + step_ * (count - 1)}:{step}")
    table = emit_figure_data(kind, {key: ks, const_key: const}, grid)
    series = [make(float(k), float(const)) for k in ks]
    for point, row in zip(grid.points(), table.rows):
        assert row == [format(point, "f")] + [format_nanos(curve(float(point), p)) for p in series]


# kind -> the raw curve a coefficient table prints, as raw(x, coefficient, constant)
RAW_CURVES = {"deviation_pct": parabola, "base_fee": parabola, "dynamic_fee": sigmoid}


def reference_rows(kind: str, params: dict, grid: Grid) -> list[list[str]]:
    """A table's rows as first written: each cell printed on its own, by format9
    (the raw curve) or format_nanos (a quote)."""
    points = grid.points()
    if kind == "deviation_price":
        price_nanos = int(params["price"] * 10**9)   # the test's prices have 9 places
        p = DeviationParams(float(params["k_delta"][0]), float(params["c_d"]))
        return [[format(point, "f"), format_nanos(price_nanos),
                 *map(format_nanos, quote_nanos(price_nanos, eval_deviation(float(point), p)))]
                for point in points]
    key, const_key, _, _ = ENGINE_CURVES[kind]
    const = float(params[const_key])
    return [[format(point, "f")] + [format9(RAW_CURVES[kind](float(point), float(k), const))
                                    for k in params[key]]
            for point in points]


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
    """The one-pass body is the file csv.writer wrote from cells printed one by one."""
    first, step_ = D(lo) / 100, D(step)
    grid = Grid.parse(f"{first}:{first + step_ * (count - 1)}:{step}")
    if kind == "deviation_price":   # a deviation below 95% at every point
        params = {"price": price, "k_delta": [min(ks[0], D("0.009"))], "c_d": const % 5}
    else:
        key, const_key, _, _ = ENGINE_CURVES[kind]
        params = {key: ks, const_key: const}
    table = emit_figure_data(kind, params, grid)
    reference = io.StringIO()
    writer = csv.writer(reference, lineterminator="\n")
    writer.writerow(table.header)
    writer.writerows(reference_rows(kind, params, grid))
    assert ",".join(table.header) + "\n" + table.body == reference.getvalue()


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
