"""CLI contract: exit codes, error lines, file outputs, determinism."""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perpamm.cli import main
from perpamm.figures import Grid, emit_figure_data
from perpamm.money import MAX_TIMESTAMP
from perpamm.scenario import RECEIPT_HEADER, SNAPSHOT_HEADER, run_files
from test_random_scenarios import SRC
from test_scenario import FRICTIONLESS, act, both_feeds, build

DEEP = "[" * 100_000 + "]" * 100_000     # nested past the recursion limit


def test_curves_base_fee_csv(tmp_path, capsys):
    out = tmp_path / "fees.csv"
    code = main(["curves", "--kind", "base_fee", "--kb", "0.0325", "--cb", "0",
                 "--grid", "0:100:1", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "utilization,base_fee_kb_0.0325"
    assert lines[-1] == "100,325.000000000"


def test_curves_repeated_invocations_byte_identical(tmp_path):
    args = ["curves", "--kind", "dynamic_fee", "--k", "0.0125", "--k", "0.0325",
            "--m-max", "500", "--grid", "0:100:0.5"]
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_curves_params_file(tmp_path):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"price": 2000, "k_delta": 0.0004, "c_d": 0}))
    out = tmp_path / "dev.csv"
    code = main(["curves", "--kind", "deviation_price", "--params", str(params),
                 "--grid", "0:100:50", "--out", str(out)])
    assert code == 0
    assert out.read_text().splitlines()[-1].startswith("100,2000.000000000,2080")


def test_curves_params_file_conflicts_with_inline_flags(tmp_path, capsys):
    params = tmp_path / "params.json"
    params.write_text("{}")
    with pytest.raises(SystemExit) as exc:
        main(["curves", "--kind", "base_fee", "--params", str(params),
              "--kb", "1", "--grid", "0:1:1", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


def test_curves_bad_grid_is_domain_error(tmp_path, capsys):
    code = main(["curves", "--kind", "base_fee", "--kb", "0.01", "--grid",
                 "0:100:7", "--out", str(tmp_path / "x.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("ERROR InvalidGrid:")
    assert not (tmp_path / "x.csv").exists()   # nothing partially written


@pytest.mark.parametrize("kind, flags, code", [
    ("base_fee", ["--kb", "1e400"], "DomainError"),
    ("base_fee", ["--kb", "nan"], "DomainError"),
    ("base_fee", ["--kb", "1e300"], "DomainError"),       # finite, but past 10**24
    ("dynamic_fee", ["--k", "inf", "--m-max", "500"], "DomainError"),
    ("dynamic_fee", ["--k", "0.01", "--m-max", "inf"], "DomainError"),
    ("deviation_pct", ["--kd", "0.0004", "--cd", "inf"], "DomainError"),
    ("deviation_price", ["--price", "nan", "--kd", "0.0004"], "InvalidGrid"),
    ("deviation_price", ["--price", "inf", "--kd", "0.0004"], "InvalidGrid"),
    ("deviation_price", ["--price", "1e400", "--kd", "0.0004"], "DomainError"),
    ("base_fee", ["--kb", "0.01", "--grid", "0:inf:1"], "InvalidGrid"),
    ("base_fee", ["--kb", "0.01", "--grid", "nan:1:1"], "InvalidGrid"),
    ("base_fee", ["--kb", "0.01", "--grid", "0:1e30:1"], "InvalidGrid"),   # exponent above 28
    ("base_fee", ["--kb", "0.01", "--grid", "0:1e12:1"], "InvalidGrid"),   # above the row cap
    # a --params value is the file's text
    ("base_fee", ["--params", "{not json"], "InvalidGrid"),
    ("base_fee", ["--params", "[1, 2]"], "InvalidGrid"),
    ("base_fee", ["--params", '{"k_b": "abc"}'], "InvalidGrid"),
    ("base_fee", ["--params", '{"k_b": [0.01, "abc"]}'], "InvalidGrid"),
    ("base_fee", ["--params", '{"k_b": null}'], "InvalidGrid"),
    ("base_fee", ["--params", '{"k_b": 0.01, "c_b": true}'], "InvalidGrid"),
    ("base_fee", ["--params", '{"k_b": 1, "zzz": 1}'], "InvalidGrid"),
    ("base_fee", ["--params", '{"k_b": 1, "cb": 1}'], "InvalidGrid"),   # misspelt c_b
    pytest.param("base_fee", ["--params", DEEP], "InvalidGrid", id="params-deep-nesting"),
    # a param the kind does not read, which used to be ignored
    ("base_fee", ["--kb", "0.01", "--cd", "0.5"], "InvalidGrid"),   # --cb meant
    ("base_fee", ["--params", '{"k_b": 0.01, "m_max": 3}'], "InvalidGrid"),
    ("deviation_pct", ["--kd", "0.01", "--price", "5"], "InvalidGrid"),
    # a signalling NaN is a NaN, not a float() traceback
    ("deviation_pct", ["--kd", "sNaN"], "DomainError"),
    ("base_fee", ["--kb", "0.01", "--cb", "sNaN"], "DomainError"),
    ("dynamic_fee", ["--k", "0.01", "--m-max", "sNaN"], "DomainError"),
    ("deviation_price", ["--price", "2000", "--kd", "sNaN"], "DomainError"),
    ("base_fee", ["--params", '{"k_b": "sNaN"}'], "DomainError"),
    # grid arithmetic is exact in 28 digits with exponents within [-28, 28], or refused:
    # a rounded middle point, an overflow, an underflow, and a label of a million digits
    ("dynamic_fee", ["--k", "0.01", "--grid",
                     "1000000000000000000000000000:1000000000000000000000000001:0.5"],
     "InvalidGrid"),
    ("dynamic_fee", ["--k", "0.01", "--grid", "1e9999999:1e9999999:1"], "InvalidGrid"),
    ("base_fee", ["--kb", "0.01", "--grid", "0:1e-9999999:1e-9999999"], "InvalidGrid"),
    ("base_fee", ["--kb", "0.01", "--grid", "0:1e-999999:1e-999999"], "InvalidGrid"),
])
def test_curves_non_finite_or_overflowing_input_is_one_error_line(
        tmp_path, capsys, kind, flags, code):
    out = tmp_path / "x.csv"
    if "--params" in flags:
        params = tmp_path / "params.json"
        params.write_text(flags[1])
        flags = ["--params", str(params)]
    grid = [] if "--grid" in flags else ["--grid", "0:100:1"]
    assert main(["curves", "--kind", kind, *flags, *grid, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"ERROR {code}: ")
    assert not out.exists()


# a price is rounded half-even to nanos once, and the rounded price must be positive
@pytest.mark.parametrize("price, printed", [
    ("0.0000000004", None),
    ("0.0000000005", None),      # a tie, to the even 0
    ("0.000000001", "0.000000001"),
])
def test_curves_deviation_price_rounds_to_a_positive_price(tmp_path, capsys, price, printed):
    out = tmp_path / "x.csv"
    code = main(["curves", "--kind", "deviation_price", "--price", price, "--kd", "0.0001",
                 "--cd", "0", "--grid", "0:100:50", "--out", str(out)])
    err = capsys.readouterr().err
    if printed is None:
        assert code == 1
        assert err == ("ERROR InvalidGrid: deviation_price needs a positive, finite "
                       "oracle price\n")
        assert not out.exists()
    else:
        assert code == 0 and err == ""
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [row[1] for row in rows] == [printed] * 3


@pytest.mark.parametrize("kind, flags", [
    ("base_fee", ["--kb", "0.01"]),
    ("deviation_pct", ["--kd", "0.01"]),
    # the deviation passes 100% at u = 71, but the domain is checked before the quotes
    ("deviation_price", ["--price", "2000", "--kd", "0.02"]),
])
def test_curves_grid_beyond_full_utilization_names_the_first_point(
        tmp_path, capsys, kind, flags):
    out = tmp_path / "x.csv"
    assert main(["curves", "--kind", kind, *flags, "--grid", "0:150:1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "ERROR DomainError: utilization 101.0 outside [0, 100]\n"
    assert not out.exists()


def test_curves_quote_error_names_the_first_row_past_full_deviation(tmp_path, capsys):
    """0.02 * u^2 first reaches 100% at u = 71 (100.82%); the last row's is 200%."""
    out = tmp_path / "x.csv"
    assert main(["curves", "--kind", "deviation_price", "--price", "2000", "--kd", "0.02",
                 "--grid", "0:100:1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "ERROR QuoteError: deviation 100.820000000% leaves no positive short quote\n")
    assert not out.exists()


@pytest.mark.parametrize("grid, places", [
    ("99.99999999999999:100:0.00000000000001", 14),   # 16 digits: two rows, one double
    ("0:1000000000000000:1000000000000000", 0),
])
def test_curves_grid_point_of_16_digits_is_one_error_line(tmp_path, capsys, grid, places):
    out = tmp_path / "x.csv"
    assert main(["curves", "--kind", "dynamic_fee", "--k", "0.01", "--grid", grid,
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"ERROR InvalidGrid: a grid point printed with {places} "
                                       f"decimals must have at most 15 digits: {grid!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("grid, labels", [
    ("0.99999999999999:1:0.00000000000001", ["0.99999999999999", "1.00000000000000"]),
    ("999999999999999:999999999999999:1", ["999999999999999"]),
])
def test_curves_grid_point_of_15_digits_is_its_label(tmp_path, grid, labels):
    out = tmp_path / "x.csv"
    assert main(["curves", "--kind", "dynamic_fee", "--k", "0.01", "--grid", grid,
                 "--out", str(out)]) == 0
    assert [line.split(",")[0] for line in out.read_text().splitlines()[1:]] == labels


def test_curves_table_memory_is_one_block(tmp_path):
    """A 20,001-row table is made and written a block at a time: its peak
    allocation is far below the 1 MB file."""
    out = tmp_path / "x.csv"
    argv = ["curves", "--kind", "deviation_price", "--price", "1672.91", "--kd", "0.000654",
            "--cd", "0.403676", "--grid", "0:100:0.005", "--out", str(out)]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.stat().st_size > 1_000_000
    assert peak < 2_000_000


@pytest.mark.parametrize("literal", [
    "1e400", "-1e400", "9" * 401, pytest.param(DEEP, id="deep-nesting")])
def test_validate_overflowing_coefficient_is_config_error(tmp_path, capsys, literal):
    text = json.dumps(FRICTIONLESS)
    assert '"k_b": 0' in text
    cfg = tmp_path / "market.json"
    cfg.write_text(text.replace('"k_b": 0', f'"k_b": {literal}'))
    assert main(["validate", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR ConfigError: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["market.json"]


def test_missing_required_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["curves", "--kind", "base_fee"])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_validate_good_and_bad_configs(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(FRICTIONLESS))
    assert main(["validate", "--config", str(good)]) == 0
    assert capsys.readouterr().out == "OK\n"

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(FRICTIONLESS, max_leverage=0)))
    assert main(["validate", "--config", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("ERROR ConfigError: invalid market config: "
                            "max_leverage must be >= 1\n")


# (config overrides, the ConfigError message, which lists every limit the config breaks)
LIMIT_ROWS = [
    ({"max_leverage": 0}, "invalid market config: max_leverage must be >= 1"),
    ({"max_exposure": -1}, "invalid market config: max_exposure must be >= 0"),
    ({"maintenance_margin_rate": 2, "max_leverage": 50},
     "invalid market config: maintenance_margin_rate * max_leverage must be < 100"),
    # a leverage below 1 with a margin rate large enough that the product reaches 100
    ({"max_leverage": "0.5", "max_exposure": -1, "maintenance_margin_rate": 200},
     "invalid market config: max_leverage must be >= 1; max_exposure must be >= 0; "
     "maintenance_margin_rate * max_leverage must be < 100"),
    # fee curves with no 9-digit value at 100% utilization or skew, which a run
    # would reach only at its first accrual: their coefficients are past 10**24
    ({"base_fee": {"k_b": 1e45, "c_b": 0}},
     "market config: bad 'base_fee': base fee parameters must be in [0, 1e+24]"),
    ({"dynamic_fee": {"m_max": 1e45, "steepness": 0.0125}},
     "market config: bad 'dynamic_fee': dynamic fee parameters must be in [0, 1e+24]"),
]


@pytest.mark.parametrize("command", ["validate", "run", "run-missing-trace"])
@pytest.mark.parametrize("overrides, message", LIMIT_ROWS,
                         ids=["leverage", "exposure", "margin-times-leverage", "all-three",
                              "base-fee-at-full-utilization", "dynamic-fee-at-full-skew"])
def test_config_limits_are_one_config_error_line(tmp_path, capsys, command, overrides, message):
    scenario = build(tmp_path, trace_rows=both_feeds(0, 2000), actions=[],
                     config=dict(FRICTIONLESS, **overrides))
    out_dir = tmp_path / "out"
    if command == "validate":
        argv = ["validate", "--config", str(tmp_path / "market.json")]
    else:   # the config is read, and refused, before the trace is opened
        trace = tmp_path / ("nope.csv" if command == "run-missing-trace" else "trace.csv")
        argv = ["run", "--config", str(tmp_path / "market.json"), "--trace", str(trace),
                "--scenario", scenario, "--out-dir", str(out_dir)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ERROR ConfigError: {message}\n"
    assert not out_dir.exists()


# coefficient -> (config section, curves kind, curves flag, the kind's required key)
COEFFICIENTS = {
    "k_delta": ("deviation", "deviation_pct", "--kd", "k_delta"),
    "c_d": ("deviation", "deviation_pct", "--cd", "k_delta"),
    "k_b": ("base_fee", "base_fee", "--kb", "k_b"),
    "c_b": ("base_fee", "base_fee", "--cb", "k_b"),
    "m_max": ("dynamic_fee", "dynamic_fee", "--m-max", "steepness"),
    "steepness": ("dynamic_fee", "dynamic_fee", "--k", "steepness"),
}
FLAGS = {key: flag for key, (_, _, flag, _) in COEFFICIENTS.items()}
# JSON texts past a coefficient's bound, [0, 10**24]: 1e24, the double nearest
# 10**24, is read, and 1.000000000000001e24 is the next but one above it
PAST_THE_BOUND = ["1.000000000000001e24", "1e300", "-1", "-1e-300", "NaN", "Infinity",
                  "-Infinity"]


@pytest.mark.parametrize("route", ["validate", "run", "curves-flags", "curves-params"])
@pytest.mark.parametrize("key", sorted(COEFFICIENTS))
def test_a_coefficient_up_to_ten_to_the_24_reads_and_past_it_is_one_error_line(
        tmp_path, capsys, route, key):
    section, kind, _, required = COEFFICIENTS[key]
    for n, text in enumerate(["1e24", *PAST_THE_BOUND]):
        work = tmp_path / str(n)
        work.mkdir()
        params = {required: 0.01, key: json.loads(text)}
        if route == "curves-flags":
            out = work / "x.csv"
            argv = ["curves", "--kind", kind, "--grid", "0:100:1", "--out", str(out),
                    *(f"{FLAGS[k]}={v}" for k, v in dict(params, **{key: text}).items())]
        elif route == "curves-params":
            out = work / "x.csv"
            (work / "params.json").write_text(json.dumps(params))
            argv = ["curves", "--kind", kind, "--grid", "0:100:1", "--out", str(out),
                    "--params", str(work / "params.json")]
        else:
            curve = dict(FRICTIONLESS[section], **{key: params[key]})
            config = dict(FRICTIONLESS, **{section: curve})
            scenario = build(work, trace_rows=both_feeds(0, 2000), actions=[], config=config)
            out = work / "out"
            argv = (["validate", "--config", str(work / "market.json")] if route == "validate"
                    else ["run", "--config", str(work / "market.json"), "--scenario", scenario,
                          "--trace", str(work / "trace.csv"), "--out-dir", str(out)])
        code = main(argv)
        captured = capsys.readouterr()
        if n == 0:
            assert (code, captured.err) == (0, ""), text
            assert out.exists() or route == "validate"
        else:
            err = captured.err.splitlines()
            error = "DomainError" if route.startswith("curves") else "ConfigError"
            assert code == 1 and len(err) == 1 and err[0].startswith(f"ERROR {error}: "), text
            assert not out.exists()


def test_run_halted_is_one_insolvent_vault_line_after_the_outputs(tmp_path, capsys):
    scenario = build(
        tmp_path, trace_rows=both_feeds(0, 2000) + both_feeds(60, 9000),
        actions=[
            act(0, "lp", "deposit", assets=300),
            act(0, "trader", "create_order", kind="market_open", direction="long",
                size=100, collateral=100, acceptable_price=2000, max_slippage=1),
            act(0, "trader", "settle_order", order_id=1),
            # pnl +350 exceeds the pool: fatal
            act(60, "trader", "create_order", kind="market_close", direction="long",
                acceptable_price=9000, max_slippage=5, position_id=1),
            act(60, "trader", "settle_order", order_id=2),
        ])
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(tmp_path / "market.json"),
                 "--trace", str(tmp_path / "trace.csv"),
                 "--scenario", scenario, "--out-dir", str(out_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("ERROR InsolventVault: scenario halted; partial output "
                            "flagged in manifest.json\n")
    assert json.loads((out_dir / "manifest.json").read_text())["halted"] is True
    receipts = (out_dir / "receipts.csv").read_text().splitlines()
    assert receipts[-1].split(",")[3:5] == ["settle_order", "InsolventVault"]


def test_validate_unknown_key_reports_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(FRICTIONLESS, mystery=1)))
    assert main(["validate", "--config", str(bad)]) == 1
    assert "ERROR ConfigError:" in capsys.readouterr().err


def test_run_empty_scenario(tmp_path, capsys):
    scenario = build(tmp_path, trace_rows=both_feeds(100, 2000), actions=[])
    out_dir = tmp_path / "out"
    code = main(["run", "--config", str(tmp_path / "market.json"),
                 "--trace", str(tmp_path / "trace.csv"),
                 "--scenario", scenario, "--out-dir", str(out_dir)])
    assert code == 0
    snapshots = (out_dir / "snapshots.csv").read_text().splitlines()
    assert len(snapshots) == 2   # header + one row
    assert snapshots[1].startswith("100,0.000000,")
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["halted"] is False
    assert manifest["snapshots"] == 1


def test_run_repeated_invocations_byte_identical(tmp_path):
    scenario = build(
        tmp_path,
        trace_rows=both_feeds(0, 2000) + both_feeds(60, 2020),
        actions=[
            act(0, "lp", "deposit", assets=5000),
            act(0, "trader", "create_order", kind="market_open", direction="long",
                size=300, collateral=50, acceptable_price=2000, max_slippage=1),
            act(0, "trader", "settle_order", order_id=1),
        ])
    args = ["run", "--config", str(tmp_path / "market.json"),
            "--trace", str(tmp_path / "trace.csv"), "--scenario", scenario]
    assert main(args + ["--out-dir", str(tmp_path / "o1")]) == 0
    assert main(args + ["--out-dir", str(tmp_path / "o2")]) == 0
    for name in ("snapshots.csv", "receipts.csv", "manifest.json"):
        assert ((tmp_path / "o1" / name).read_bytes()
                == (tmp_path / "o2" / name).read_bytes())


def test_run_halted_scenario_exits_one_with_flag(tmp_path, capsys):
    scenario = build(
        tmp_path,
        trace_rows=both_feeds(0, 2000) + both_feeds(60, 9000),
        actions=[
            act(0, "lp", "deposit", assets=300),
            act(0, "trader", "create_order", kind="market_open", direction="long",
                size=100, collateral=100, acceptable_price=2000, max_slippage=1),
            act(0, "trader", "settle_order", order_id=1),
            act(60, "trader", "create_order", kind="market_close", direction="long",
                acceptable_price=9000, max_slippage=5, position_id=1),
            act(60, "trader", "settle_order", order_id=2),
        ])
    out_dir = tmp_path / "out"
    code = main(["run", "--config", str(tmp_path / "market.json"),
                 "--trace", str(tmp_path / "trace.csv"),
                 "--scenario", scenario, "--out-dir", str(out_dir)])
    assert code == 1
    assert "ERROR InsolventVault" in capsys.readouterr().err
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["halted"] is True
    assert (out_dir / "receipts.csv").exists()


def test_run_deposit_into_a_drained_vault_is_a_receipt(tmp_path, capsys):
    """A close whose payout takes the whole pool leaves shares against no
    assets; a deposit then is a DomainError row, and the run goes on."""
    scenario = build(
        tmp_path,
        trace_rows=both_feeds(0, 2000) + both_feeds(60, 4000),
        actions=[
            act(0, "lp", "deposit", assets=1000),
            act(0, "trader", "create_order", kind="market_open", direction="long",
                size=1000, collateral=1000, acceptable_price=2000, max_slippage=1),
            act(0, "trader", "settle_order", order_id=1),
            act(60, "trader", "create_order", kind="market_close", direction="long",
                acceptable_price=4000, max_slippage=1, position_id=1),
            act(60, "trader", "settle_order", order_id=2),
            act(60, "lp", "deposit", assets=5),
        ])
    out_dir = tmp_path / "out"
    code = main(["run", "--config", str(tmp_path / "market.json"),
                 "--trace", str(tmp_path / "trace.csv"),
                 "--scenario", scenario, "--out-dir", str(out_dir)])
    assert code == 0
    assert capsys.readouterr().err == ""
    rows = [line.split(",") for line in
            (out_dir / "receipts.csv").read_text().splitlines()[1:]]
    assert [row[3:5] for row in rows].count(["deposit", "DomainError"]) == 1
    assert rows[-1][3:5] == ["deposit", "DomainError"]
    last = (out_dir / "snapshots.csv").read_text().splitlines()[-1].split(",")
    assert (last[1], last[11]) == ("0.000000", "1000.000000")   # pool value, shares


def test_run_sell_quote_rounding_to_zero_is_a_quote_error_receipt(tmp_path, capsys):
    """At a 50% deviation a mark of 0.000001 quotes the bid at 0.0000005,
    which rounds half-even to 0 base units: the short open's settlement is a
    QuoteError row, no position opens, and the sweep after it has none to price."""
    scenario = build(
        tmp_path, config=dict(FRICTIONLESS, deviation={"k_delta": 0, "c_d": 50}),
        trace_rows=both_feeds(0, "0.000001"),
        actions=[
            act(0, "lp", "deposit", assets=10000),
            act(0, "trader", "create_order", kind="market_open", direction="short",
                size=1, collateral=1, acceptable_price="0.000001", max_slippage=100),
            act(0, "trader", "settle_order", order_id=1),
            act(0, "lp", "liquidate_check"),
        ])
    out_dir = tmp_path / "out"
    code = main(["run", "--config", str(tmp_path / "market.json"),
                 "--trace", str(tmp_path / "trace.csv"),
                 "--scenario", scenario, "--out-dir", str(out_dir)])
    assert (code, capsys.readouterr().err) == (0, "")
    rows = [line.split(",") for line in
            (out_dir / "receipts.csv").read_text().splitlines()[1:]]
    assert [row[3:5] for row in rows] == [["deposit", "ok"], ["create_order", "ok"],
                                          ["settle_order", "QuoteError"]]
    last = (out_dir / "snapshots.csv").read_text().splitlines()[-1].split(",")
    assert (last[2], last[13]) == ("0.000000", "0")   # reserved, open positions


def test_run_missing_config_reports_error(tmp_path, capsys):
    scenario = build(tmp_path, trace_rows=both_feeds(0, 2000), actions=[])
    code = main(["run", "--config", str(tmp_path / "nope.json"),
                 "--trace", str(tmp_path / "trace.csv"),
                 "--scenario", scenario, "--out-dir", str(tmp_path / "out")])
    assert code == 1
    assert "ERROR ConfigError:" in capsys.readouterr().err


# (where the literal goes, the literal, the ERROR code; None: a receipt, not an ERROR)
@pytest.mark.parametrize("where, literal, code", [
    ("action", "Infinity", None),
    ("action", "NaN", None),
    ("action", "1e400", None),
    ("action", "1e25", None),                     # 10**31 base units, above the bound
    pytest.param("action", "1" + "0" * 5000, "ScenarioError",   # past int()'s digit limit
                 id="action-5001-digit-int"),
    ("treasury_fee_share", "Infinity", "ScenarioError"),
    ("treasury_fee_share", "NaN", "ScenarioError"),
    ("treasury_fee_share", "1e400", "ScenarioError"),
    ("config", "Infinity", "ConfigError"),
    ("config", "1e400", "ConfigError"),
    pytest.param("config", "1" + "0" * 5000, "ConfigError", id="config-5001-digit-int"),
    pytest.param("treasury_fee_share", DEEP, "ScenarioError", id="scenario-deep-nesting"),
    pytest.param("config", DEEP, "ConfigError", id="config-deep-nesting"),
    ("trace", "inf", "TraceError"),
    ("trace", "1e400", "TraceError"),
    pytest.param("trace", "2000\udcff", "TraceError",        # the raw byte 0xff: not UTF-8
                 id="trace-undecodable-byte"),
    pytest.param("trace", "1" * 131_073, "TraceError",     # past csv's field size limit
                 id="trace-field-too-large"),
    # a timestamp past MAX_TIMESTAMP, which used to overflow the year fraction
    pytest.param("trace_time", str(10**400), "TraceError", id="trace-time-10**400"),
    pytest.param("action_time", str(10**400), "ScenarioError", id="action-time-10**400"),
    ("trace_time", str(MAX_TIMESTAMP + 1), "TraceError"),
    ("action_time", str(MAX_TIMESTAMP + 1), "ScenarioError"),
])
def test_run_non_finite_or_huge_amount(tmp_path, capsys, where, literal, code):
    scenario = build(
        tmp_path,
        trace_rows=both_feeds(0, 2000) + both_feeds(60, 2000),
        actions=[act(0, "lp", "deposit", assets="@" if where == "action" else 1000),
                 act(60, "lp", "deposit", assets=1000)],
        extra={"treasury_fee_share": "@"} if where == "treasury_fee_share" else None)
    # (file, the text the literal replaces, the replacement with {} for the literal)
    file, old, new = {
        "action": ("scenario.json", '"@"', "{}"),
        "treasury_fee_share": ("scenario.json", '"@"', "{}"),
        "config": ("market.json", '"max_open_interest": "1000000000"',
                   '"max_open_interest": {}'),
        "trace": ("trace.csv", "60,primary,2000", "60,primary,{}"),
        "trace_time": ("trace.csv", "60,secondary,2000", "{},secondary,2000"),
        "action_time": ("scenario.json", '"time": 60', '"time": {}'),
    }[where]
    text = (tmp_path / file).read_text()
    assert text.count(old) == 1
    # surrogateescape writes an escaped lone surrogate as its raw byte
    (tmp_path / file).write_bytes(
        text.replace(old, new.format(literal)).encode("utf-8", "surrogateescape"))
    out_dir = tmp_path / "out"
    exit_code = main(["run", "--config", str(tmp_path / "market.json"),
                      "--trace", str(tmp_path / "trace.csv"),
                      "--scenario", scenario, "--out-dir", str(out_dir)])
    err = capsys.readouterr().err.splitlines()
    if code is None:
        # the bad deposit gets a receipt and the run goes on to accrue and deposit
        assert exit_code == 0 and err == []
        receipts = (out_dir / "receipts.csv").read_text().splitlines()
        assert [row.split(",")[4] for row in receipts[1:]] == ["ScenarioError", "ok"]
    else:
        assert exit_code == 1
        assert len(err) == 1 and err[0].startswith(f"ERROR {code}: ")
        assert not out_dir.exists()


@pytest.mark.parametrize("flags", [
    ["--kind", "dynamic_fee", "--k", "0.01", "--m-max", "-0"],
    ["--kind", "base_fee", "--kb", "-0", "--cb", "-0"],
])
def test_curves_negative_zero_coefficient_prints_zero(tmp_path, flags):
    out = tmp_path / "x.csv"
    assert main(["curves", *flags, "--grid", "0:2:1", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [row[1:] for row in rows] == [["0.000000000"]] * 3


def csv_cells(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


# an account name the scenario reader takes: printable, with no "," or '"'
account_names = st.text(st.characters(blacklist_characters=',"'), min_size=1,
                        max_size=6).filter(str.isprintable)


@settings(max_examples=30, deadline=None)
@given(names=st.lists(account_names, min_size=1, max_size=3, unique=True))
def test_csv_reader_reads_back_every_cell_of_a_run(names):
    with tempfile.TemporaryDirectory() as directory:
        tmp_path = Path(directory)
        scenario = build(tmp_path, trace_rows=both_feeds(0, 2000) + both_feeds(60, 2000),
                         accounts=names, interval=30,
                         actions=[act(0, name, "deposit", assets="1000.5") for name in names]
                         + [act(60, names[-1], "redeem", shares=10**9)])
        code, out_dir = run_in(tmp_path, "out")
        assert code == 0
        result = run_files(scenario)
        assert csv_cells(out_dir / "snapshots.csv") == [SNAPSHOT_HEADER] + [
            row.as_csv() for row in result.snapshots]
        assert csv_cells(out_dir / "receipts.csv") == [RECEIPT_HEADER] + [
            row.as_csv() for row in result.receipts]


@pytest.mark.parametrize("kind, params", [
    ("deviation_price", {"price": "1672.91", "k_delta": ["0.000654"], "c_d": "0.403676"}),
    ("deviation_pct", {"k_delta": ["0.0001", "0.00025"], "c_d": "-0"}),
    ("base_fee", {"k_b": ["0.0325", "1E-3"], "c_b": "2.5"}),
    ("dynamic_fee", {"steepness": ["0.0125", "0.0325"], "m_max": "500"}),
])
def test_csv_reader_reads_back_every_cell_of_a_curve_table(tmp_path, kind, params):
    (tmp_path / "params.json").write_text(json.dumps(params), encoding="utf-8")
    out = tmp_path / "table.csv"
    assert main(["curves", "--kind", kind, "--params", str(tmp_path / "params.json"),
                 "--grid", "0:100:0.25", "--out", str(out)]) == 0
    table = emit_figure_data(kind, params, Grid.parse("0:100:0.25"))
    assert csv_cells(out) == [table.header] + table.rows


DELETE = object()   # in a READER_ROWS row: the key is removed, not set

# Every JSON object read from outside, each with an unknown key, a missing
# required key and an ill-typed value: (file, the path to the key, the value
# set there, the ERROR code). Each gives one ERROR line naming the key (the
# path's last item); an action's params give a receipt with the code instead.
READER_ROWS = [
    ("market.json", ("zzz",), 1, "ConfigError"),
    ("market.json", ("max_leverage",), DELETE, "ConfigError"),
    ("market.json", ("market_id",), 5, "ConfigError"),
    ("market.json", ("deviation", "slope"), 1, "ConfigError"),
    ("market.json", ("deviation", "c_d"), DELETE, "ConfigError"),
    ("market.json", ("deviation", "k_delta"), "0.0004", "ConfigError"),
    ("market.json", ("base_fee", "kb"), 1, "ConfigError"),
    ("market.json", ("base_fee", "k_b"), DELETE, "ConfigError"),
    ("market.json", ("base_fee", "c_b"), True, "ConfigError"),
    ("market.json", ("dynamic_fee", "k"), 1, "ConfigError"),
    ("market.json", ("dynamic_fee", "steepness"), DELETE, "ConfigError"),
    ("market.json", ("dynamic_fee", "m_max"), None, "ConfigError"),
    ("market.json", ("oracle", "max_age_s"), 1, "ConfigError"),
    ("market.json", ("oracle", "threshold_deviation"), DELETE, "ConfigError"),
    ("market.json", ("oracle", "max_age"), "3600", "ConfigError"),
    ("scenario.json", ("surprise",), 1, "ScenarioError"),
    ("scenario.json", ("accounts",), DELETE, "ScenarioError"),
    # a name is a receipts.csv cell: a bare CR would split its row (csv quotes
    # only "\n" under lineterminator="\n"), and a lone surrogate has no UTF-8
    ("scenario.json", ("accounts",), ["lp", "lp\rx"], "ScenarioError"),
    ("scenario.json", ("accounts",), ["lp", "lp\ud800"], "ScenarioError"),
    ("scenario.json", ("accounts",), ["lp", ""], "ScenarioError"),
    # the CSV writer quotes no cell: a "," would shift the row's cells and a
    # '"' would open a quoted cell
    ("scenario.json", ("accounts",), ["lp", "a,b"], "ScenarioError"),
    ("scenario.json", ("accounts",), ["lp", 'say "hi"'], "ScenarioError"),
    ("scenario.json", ("snapshot_interval",), -1, "ScenarioError"),
    ("scenario.json", ("market_config",), 5, "ScenarioError"),
    ("scenario.json", ("price_trace",), ["a"], "ScenarioError"),
    ("scenario.json", ("actions", 0, "params", "zzz"), 1, None),
    ("scenario.json", ("actions", 0, "params", "assets"), DELETE, None),
    ("scenario.json", ("actions", 0, "params", "assets"), [1000], None),
    ("params.json", ("zzz",), 1, "InvalidGrid"),
    ("params.json", ("k_b",), DELETE, "InvalidGrid"),
    ("params.json", ("k_b",), "abc", "InvalidGrid"),
]


@pytest.mark.parametrize("file, path, value, code", READER_ROWS, ids=[
    "-".join([file.removesuffix(".json"), *map(str, path)])
    + ("-deleted" if value is DELETE else f"={value!r}") for file, path, value, _ in READER_ROWS])
def test_every_json_object_is_read_with_strict_keys(tmp_path, capsys, file, path, value, code):
    scenario = build(tmp_path, trace_rows=both_feeds(0, 2000) + both_feeds(60, 2000),
                     actions=[act(0, "lp", "deposit", assets=1000),
                              act(60, "lp", "deposit", assets=1000)])
    (tmp_path / "params.json").write_text(json.dumps({"k_b": 0.01, "c_b": 0}))
    raw = json.loads((tmp_path / file).read_text())
    *parents, key = path
    obj = raw
    for step in parents:
        obj = obj[step]
    if value is DELETE:
        del obj[key]
    else:
        obj[key] = value
    (tmp_path / file).write_text(json.dumps(raw))
    out = tmp_path / "out"
    if file == "params.json":
        exit_code = main(["curves", "--kind", "base_fee", "--params", str(tmp_path / file),
                          "--grid", "0:1:1", "--out", str(out)])
    else:   # explicit paths, so the scenario's own references are only read
        exit_code = main(["run", "--config", str(tmp_path / "market.json"),
                          "--trace", str(tmp_path / "trace.csv"),
                          "--scenario", scenario, "--out-dir", str(out)])
    err = capsys.readouterr().err.splitlines()
    if code is None:
        assert exit_code == 0 and err == []
        receipts = (out / "receipts.csv").read_text().splitlines()
        assert [row.split(",")[4] for row in receipts[1:]] == ["ScenarioError", "ok"]
    else:
        assert exit_code == 1
        assert len(err) == 1 and err[0].startswith(f"ERROR {code}: ")
        assert key in err[0]
        assert not out.exists()


# One owner per input rule. Each row is one defect, given through every input
# that can carry it (curve flags, a --params file, a market config, an action's
# params), and the one ERROR line each gives; None: a ScenarioError receipt,
# and the run goes on.
ONE_READER_ROWS = [
    pytest.param("base_fee", {"flags": ["--cd", "1"], "params": {"c_d": 1}},
                 "ERROR InvalidGrid: base_fee params: unknown key 'c_d'",
                 id="flag-of-another-kind"),
    pytest.param("base_fee", {"params": {"k_b": 1, "zzz": 1}},
                 "ERROR InvalidGrid: base_fee params: unknown key 'zzz'", id="unknown-key"),
    pytest.param("base_fee", {"params": {"k_b": 1, "cb": 1}},
                 "ERROR InvalidGrid: base_fee params: unknown key 'cb'", id="misspelt-key"),
    pytest.param("base_fee", {"flags": ["--cb", "1"], "params": {"c_b": 1}},
                 "ERROR InvalidGrid: base_fee params: missing key 'k_b'",
                 id="missing-coefficient"),
    pytest.param("base_fee", {"flags": ["--kb", "abc"], "params": {"k_b": "abc"}},
                 "ERROR InvalidGrid: base_fee params: bad 'k_b': not a number: 'abc'",
                 id="not-a-number"),
    pytest.param("base_fee", {"params": {"k_b": []}},
                 "ERROR InvalidGrid: base_fee params: bad 'k_b': "
                 "must be a number or a non-empty list", id="empty-list"),
    pytest.param("deviation_price", {"flags": ["--kd", "0.0004"],
                                     "params": {"k_delta": 0.0004}},
                 "ERROR InvalidGrid: deviation_price params: missing key 'price'",
                 id="deviation-price-without-price"),
    pytest.param("deviation_price", {"flags": ["--price", "2000", "--kd", "1", "--kd", "2"],
                                     "params": {"price": 2000, "k_delta": [1, 2]}},
                 "ERROR InvalidGrid: deviation_price takes exactly one k_delta",
                 id="deviation-price-two-k-delta"),
    pytest.param("run", {"config": {"max_leverage": True}},
                 "ERROR ConfigError: market config: bad 'max_leverage': "
                 "not a numeric amount: True", id="config-amount-true"),
    pytest.param("run", {"action": {"assets": float("nan")}}, None, id="action-amount-nan"),
    # a huge value is named by its type and length, or its repr is cut: one short line
    pytest.param("run", {"config": {"max_leverage": [1] * 200_000}},
                 "ERROR ConfigError: market config: bad 'max_leverage': "
                 "not a numeric amount: a list of length 200000", id="config-amount-huge-list"),
    pytest.param("run", {"config": {"max_leverage": {str(i): i for i in range(50_000)}}},
                 "ERROR ConfigError: market config: bad 'max_leverage': "
                 "not a numeric amount: a dict of length 50000", id="config-amount-huge-object"),
    pytest.param("run", {"config": {"max_leverage": "x" * 300_000}},
                 "ERROR ConfigError: market config: bad 'max_leverage': "
                 f"not a decimal amount: '{'x' * 9_999}... (300002 characters)",
                 id="config-amount-huge-string"),
]


def one_reader_argvs(tmp_path, kind, inputs, out):
    """Each way `inputs` reaches a reader: (what, argv)."""
    if kind != "run":
        grid = ["--grid", "0:100:50", "--out", str(out)]
        if "flags" in inputs:
            yield "flags", ["curves", "--kind", kind, *inputs["flags"], *grid]
        (tmp_path / "params.json").write_text(json.dumps(inputs["params"]))
        yield "params", ["curves", "--kind", kind, "--params",
                         str(tmp_path / "params.json"), *grid]
        return
    scenario = build(tmp_path, config=dict(FRICTIONLESS, **inputs.get("config", {})),
                     trace_rows=both_feeds(0, 2000) + both_feeds(60, 2000),
                     actions=[act(0, "lp", "deposit", **inputs.get("action", {})),
                              act(60, "lp", "deposit", assets=1000)])
    yield "run", ["run", "--config", str(tmp_path / "market.json"),
                  "--trace", str(tmp_path / "trace.csv"), "--scenario", scenario,
                  "--out-dir", str(out)]


@pytest.mark.parametrize("kind, inputs, line", ONE_READER_ROWS)
def test_one_reader_gives_one_line_for_each_input_defect(tmp_path, capsys, kind, inputs,
                                                          line):
    out = tmp_path / "out"
    for what, argv in one_reader_argvs(tmp_path, kind, inputs, out):
        exit_code = main(argv)
        err = capsys.readouterr().err
        if line is None:
            assert (exit_code, err) == (0, "")
            receipts = (out / "receipts.csv").read_text().splitlines()
            assert [row.split(",")[4] for row in receipts[1:]] == ["ScenarioError", "ok"]
        else:
            assert (exit_code, err) == (1, line + "\n"), what
            assert not out.exists()


@pytest.mark.parametrize("trace", ["trace.csv", "missing.csv"])
@pytest.mark.parametrize("share", [150, -1, 0, 100])
def test_treasury_fee_share_range_is_checked_when_the_scenario_is_read(
        tmp_path, capsys, share, trace):
    scenario = build(tmp_path, trace_rows=both_feeds(0, 2000), actions=[],
                     extra={"treasury_fee_share": share})
    out_dir = tmp_path / "out"
    exit_code = main(["run", "--config", str(tmp_path / "market.json"),
                      "--trace", str(tmp_path / trace), "--scenario", scenario,
                      "--out-dir", str(out_dir)])
    err = capsys.readouterr().err
    if 0 <= share <= 100 and trace == "trace.csv":
        assert (exit_code, err) == (0, "")
    elif 0 <= share <= 100:   # the scenario is read, then the trace is missing
        assert exit_code == 1 and err.startswith("ERROR IOError: ")
    else:
        assert (exit_code, err) == (1, "ERROR ScenarioError: scenario: bad "
                                       "'treasury_fee_share': must be within [0, 100]%\n")
        assert not out_dir.exists()


def test_run_trace_of_an_unknown_feed_is_one_trace_error_line(tmp_path, capsys):
    # feed ids are exact: a misspelt primary would otherwise leave every
    # settlement a StaleFeed row
    scenario = build(tmp_path, trace_rows=[(0, "Primary", 2000)] + both_feeds(0, 2000),
                     actions=[act(0, "lp", "deposit", assets=1000)])
    out_dir = tmp_path / "out"
    exit_code = main(["run", "--config", str(tmp_path / "market.json"),
                      "--trace", str(tmp_path / "trace.csv"), "--scenario", scenario,
                      "--out-dir", str(out_dir)])
    assert (exit_code, capsys.readouterr().err) == (
        1, "ERROR TraceError: line 2: unknown feed 'Primary' "
           "(expected 'primary' or 'secondary')\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("key", ["primary_feed", "secondary_feed"])
def test_run_scenario_naming_a_feed_is_one_unknown_key_line(tmp_path, capsys, key):
    scenario = build(tmp_path, trace_rows=both_feeds(0, 2000), actions=[],
                     extra={key: "primary"})
    out_dir = tmp_path / "out"
    exit_code = main(["run", "--config", str(tmp_path / "market.json"),
                      "--trace", str(tmp_path / "trace.csv"), "--scenario", scenario,
                      "--out-dir", str(out_dir)])
    assert (exit_code, capsys.readouterr().err) == (
        1, f"ERROR ScenarioError: scenario: unknown key {key!r}\n")
    assert not out_dir.exists()


def run_in(tmp_path, out_name: str) -> tuple[int, Path]:
    """`perpamm run` of the files `build` wrote in tmp_path: (exit code, output dir)."""
    out_dir = tmp_path / out_name
    return main(["run", "--config", str(tmp_path / "market.json"),
                 "--trace", str(tmp_path / "trace.csv"),
                 "--scenario", str(tmp_path / "scenario.json"),
                 "--out-dir", str(out_dir)]), out_dir


# Where each reader of amount text takes its value: (file, the text the
# literal replaces, the replacement with {} for the literal), and the one
# ERROR line a refused string gives there (None: a ScenarioError receipt).
AMOUNT_READERS = {
    "config": ("market.json", '"max_open_interest": "1000000000"', '"max_open_interest": {}',
               "ERROR ConfigError: market config: bad 'max_open_interest': "
               "not a decimal amount: {!r}"),
    "action": ("scenario.json", '"@"', "{}", None),
    "treasury_fee_share": ("scenario.json", '"@"', "{}",
                           "ERROR ScenarioError: scenario: bad 'treasury_fee_share': "
                           "not a decimal amount: {!r}"),
    "trace": ("trace.csv", "60,primary,2000", "60,primary,{}",
              "ERROR TraceError: line 4: bad price {!r}"),
}
# a JSON number may use any spelling JSON allows (a share is at most 100)
AMOUNT_NUMBERS = {"config": "1e3", "action": "1e3", "treasury_fee_share": "1e1"}


@pytest.mark.parametrize("text", [" 5", "1_000", "\u0661", "1e3"])
@pytest.mark.parametrize("where", list(AMOUNT_READERS))
def test_a_string_amount_has_only_the_plain_form_at_every_reader(tmp_path, capsys, where,
                                                                  text):
    build(tmp_path, trace_rows=both_feeds(0, 2000) + both_feeds(60, 2000),
          actions=[act(0, "lp", "deposit", assets="@" if where == "action" else 1000),
                   act(60, "lp", "deposit", assets=1000)],
          extra={"treasury_fee_share": "@"} if where == "treasury_fee_share" else None)
    file, old, new, line = AMOUNT_READERS[where]
    template = (tmp_path / file).read_text(encoding="utf-8")
    assert template.count(old) == 1

    def run_with(literal: str, out_name: str) -> tuple[int, str, Path]:
        (tmp_path / file).write_text(template.replace(old, new.format(literal)),
                                     encoding="utf-8")
        exit_code, out_dir = run_in(tmp_path, out_name)
        return exit_code, capsys.readouterr().err, out_dir

    exit_code, err, out_dir = run_with(text if where == "trace" else json.dumps(text), "out")
    if line is None:
        assert (exit_code, err) == (0, "")
        receipts = (out_dir / "receipts.csv").read_text().splitlines()
        assert [row.split(",")[4] for row in receipts[1:]] == ["ScenarioError", "ok"]
    else:
        assert (exit_code, err) == (1, line.format(text) + "\n")
        assert not out_dir.exists()
    if where in AMOUNT_NUMBERS:
        exit_code, err, out_dir = run_with(AMOUNT_NUMBERS[where], "number")
        assert (exit_code, err) == (0, "")
        receipts = (out_dir / "receipts.csv").read_text().splitlines()
        assert [row.split(",")[4] for row in receipts[1:]] == ["ok", "ok"]


@pytest.mark.parametrize("ensure_ascii", [False, True], ids=["raw-utf8", "json-escape"])
def test_run_reads_and_writes_utf8_whatever_the_locale(tmp_path, ensure_ascii):
    # an account "lp\u00e9", written as raw UTF-8 or as a JSON escape; under
    # LC_ALL=C without UTF-8 mode the locale's encoding is ASCII
    build(tmp_path, trace_rows=both_feeds(0, 2000), accounts=("lp\u00e9",),
          actions=[act(0, "lp\u00e9", "deposit", assets=1000)])
    scenario = tmp_path / "scenario.json"
    scenario.write_bytes(json.dumps(json.loads(scenario.read_bytes()),
                                    ensure_ascii=ensure_ascii).encode("utf-8"))
    assert run_in(tmp_path, "utf8")[0] == 0
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "perpamm.cli", "run", "--config", str(tmp_path / "market.json"),
         "--trace", str(tmp_path / "trace.csv"), "--scenario", str(scenario),
         "--out-dir", str(tmp_path / "ascii")],
        env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    for name in ("snapshots.csv", "receipts.csv", "manifest.json"):
        assert (tmp_path / "ascii" / name).read_bytes() == (tmp_path / "utf8" / name).read_bytes()
    assert "lp\u00e9".encode("utf-8") in (tmp_path / "utf8" / "receipts.csv").read_bytes()
