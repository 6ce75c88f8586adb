"""CLI contract: exit codes, error lines, file outputs, determinism."""

from __future__ import annotations

import json

import pytest

from perpamm.cli import main
from test_scenario import FRICTIONLESS, act, both_feeds, build


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
    ("base_fee", ["--kb", "1e300"], "DomainError"),       # finite, but k*u^2 overflows 9 digits
    ("dynamic_fee", ["--k", "inf", "--m-max", "500"], "DomainError"),
    ("dynamic_fee", ["--k", "0.01", "--m-max", "inf"], "DomainError"),
    ("deviation_pct", ["--kd", "0.0004", "--cd", "inf"], "DomainError"),
    ("deviation_price", ["--price", "nan", "--kd", "0.0004"], "InvalidGrid"),
    ("deviation_price", ["--price", "inf", "--kd", "0.0004"], "InvalidGrid"),
    ("deviation_price", ["--price", "1e400", "--kd", "0.0004"], "DomainError"),
    ("base_fee", ["--kb", "0.01", "--grid", "0:inf:1"], "InvalidGrid"),
    ("base_fee", ["--kb", "0.01", "--grid", "nan:1:1"], "InvalidGrid"),
    ("base_fee", ["--kb", "0.01", "--grid", "0:1e30:1"], "InvalidGrid"),   # DivisionImpossible
    ("base_fee", ["--kb", "0.01", "--grid", "0:1e12:1"], "InvalidGrid"),   # above the row cap
    # a --params value is the file's text
    ("base_fee", ["--params", "{not json"], "InvalidGrid"),
    ("base_fee", ["--params", "[1, 2]"], "InvalidGrid"),
    ("base_fee", ["--params", '{"k_b": "abc"}'], "InvalidGrid"),
    ("base_fee", ["--params", '{"k_b": [0.01, "abc"]}'], "InvalidGrid"),
    ("base_fee", ["--params", '{"k_b": null}'], "InvalidGrid"),
    ("base_fee", ["--params", '{"k_b": 0.01, "c_b": true}'], "InvalidGrid"),
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


@pytest.mark.parametrize("literal", ["1e400", "-1e400", "9" * 401])
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
    assert "OK" in capsys.readouterr().out

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(FRICTIONLESS, max_leverage=0)))
    assert main(["validate", "--config", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "max_leverage" in out


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


def test_run_missing_config_reports_error(tmp_path, capsys):
    scenario = build(tmp_path, trace_rows=both_feeds(0, 2000), actions=[])
    code = main(["run", "--config", str(tmp_path / "nope.json"),
                 "--trace", str(tmp_path / "trace.csv"),
                 "--scenario", scenario, "--out-dir", str(tmp_path / "out")])
    assert code == 1
    assert "ERROR ConfigError:" in capsys.readouterr().err
