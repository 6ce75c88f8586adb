"""Scenario harness: event ordering, receipts, snapshots, determinism, halts."""

from __future__ import annotations

import json
import sys

import pytest

import perpamm.curves
import perpamm.engine
from conftest import feed_both, make_config, make_engine
from perpamm.curves import BaseFeeParams, DynamicFeeParams
from perpamm.engine import Direction, OrderKind, pool_metrics
from perpamm.errors import ScenarioError
from perpamm.money import to_units
from perpamm.scenario import Scenario, _Runner, load_scenario, run_files, write_outputs

U = to_units

FRICTIONLESS = {
    "market_id": "ETH-USD",
    "deviation": {"k_delta": 0, "c_d": 0},
    "base_fee": {"k_b": 0, "c_b": 0},
    "dynamic_fee": {"m_max": 0, "steepness": 0.0125},
    "max_open_interest": "1000000000",
    "max_leverage": 10,
    "max_exposure": "1000000000",
    "maintenance_margin_rate": 1,
    "open_close_fee_rate": 0,
    "liquidation_fee_rate": 0,
    "oracle": {"max_age": 3600, "min_acceptable_deviation": "0.1",
               "threshold_deviation": 1},
}


def build(tmp_path, *, trace_rows, actions, config=None, interval=0,
          accounts=("lp", "trader"), extra=None):
    (tmp_path / "market.json").write_text(json.dumps(config or FRICTIONLESS))
    lines = ["timestamp,feed_id,price"]
    lines += [f"{t},{feed},{price}" for t, feed, price in trace_rows]
    (tmp_path / "trace.csv").write_text("\n".join(lines) + "\n")
    scenario = {
        "market_config": "market.json",
        "price_trace": "trace.csv",
        "snapshot_interval": interval,
        "accounts": list(accounts),
        "actions": actions,
    }
    scenario.update(extra or {})
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    return str(path)


def both_feeds(t, price):
    return [(t, "primary", price), (t, "secondary", price)]


def act(t, actor, action, **params):
    return {"time": t, "actor": actor, "action": action, "params": params}


# -- Basics -----------------------------------------------------------------------

def test_empty_scenario_single_price_row(tmp_path):
    path = build(tmp_path, trace_rows=both_feeds(100, 2000), actions=[])
    result = run_files(path)
    assert not result.halted
    assert len(result.snapshots) == 1
    snap = result.snapshots[0]
    assert snap.time == 100
    assert snap.pool_value == 0 and snap.reserved == 0
    assert not result.receipts


def test_composed_ten_day_borrow_fee(tmp_path):
    config = dict(FRICTIONLESS, base_fee={"k_b": 0, "c_b": 36.5})
    path = build(
        tmp_path, config=config,
        trace_rows=both_feeds(0, 2000) + both_feeds(864000, 2000),
        actions=[
            act(0, "lp", "deposit", assets=10000),
            act(0, "trader", "create_order", kind="market_open", direction="long",
                size=1000, collateral=100, acceptable_price=2000, max_slippage=1),
            act(0, "trader", "settle_order", order_id=1),
            act(864000, "trader", "create_order", kind="market_close",
                direction="long", acceptable_price=2000, max_slippage=1,
                position_id=1),
            act(864000, "trader", "settle_order", order_id=2),
        ])
    result = run_files(path)
    close = result.receipts[-1]
    assert close.status == "ok"
    assert abs(close.borrow_fee_paid - U(10)) <= 1
    assert abs(close.cash_delta - U(90)) <= 1
    # fee compounds into the pool for the LP
    assert abs(result.engine.vault.total_assets - U(10010)) <= 1


def test_cash_ledger_balances_to_zero(tmp_path):
    path = build(
        tmp_path,
        trace_rows=both_feeds(0, 2000) + both_feeds(60, 2100),
        actions=[
            act(0, "lp", "deposit", assets=10000),
            act(0, "trader", "create_order", kind="market_open", direction="long",
                size=1000, collateral=200, acceptable_price=2000, max_slippage=1),
            act(0, "trader", "settle_order", order_id=1),
            act(60, "trader", "create_order", kind="market_close",
                direction="long", acceptable_price=2100, max_slippage=1,
                position_id=1),
            act(60, "trader", "settle_order", order_id=2),
            act(60, "lp", "redeem", shares=4000),
        ])
    result = run_files(path)
    assert all(r.status == "ok" for r in result.receipts)
    engine = result.engine
    total = (sum(result.cash.values()) + engine.escrow_total()
             + engine.open_collateral_total() + engine.vault.total_assets
             + engine.treasury)
    assert total == 0
    # trader pocketed the 50-unit gain, pool paid it
    assert result.cash["trader"] == U(50)


def test_snapshot_interval_schedule(tmp_path):
    rows = []
    for t in range(0, 601, 60):
        rows += both_feeds(t, 2000)
    path = build(tmp_path, trace_rows=rows, actions=[], interval=300)
    result = run_files(path)
    assert [s.time for s in result.snapshots] == [0, 300, 600]


def test_trigger_settles_before_same_time_action(tmp_path):
    path = build(
        tmp_path,
        trace_rows=both_feeds(0, 2000) + both_feeds(60, 1880),
        actions=[
            act(0, "lp", "deposit", assets=10000),
            act(0, "trader", "create_order", kind="market_open", direction="long",
                size=1000, collateral=200, acceptable_price=2000, max_slippage=1),
            act(0, "trader", "settle_order", order_id=1),
            act(0, "trader", "create_order", kind="stop_loss", direction="long",
                trigger_price=1900, max_slippage=5, position_id=1),
            act(60, "lp", "deposit", assets=500),
        ])
    result = run_files(path)
    at_60 = [r for r in result.receipts if r.time == 60]
    assert [r.action for r in at_60] == ["trigger_settle", "deposit"]
    assert at_60[0].status == "ok"
    assert at_60[0].executed_price == U(1880)


def test_errors_recorded_and_run_continues(tmp_path):
    path = build(
        tmp_path,
        trace_rows=both_feeds(0, 2000),
        actions=[
            act(0, "trader", "settle_order", order_id=42),      # unknown order
            act(0, "lp", "deposit", assets=1000),               # still runs
        ])
    result = run_files(path)
    assert [r.status for r in result.receipts] == ["UnknownOrder", "ok"]
    assert not result.halted


def test_insolvent_vault_halts_with_partial_output(tmp_path):
    path = build(
        tmp_path,
        trace_rows=both_feeds(0, 2000) + both_feeds(60, 9000) + both_feeds(120, 9000),
        actions=[
            act(0, "lp", "deposit", assets=300),
            act(0, "trader", "create_order", kind="market_open", direction="long",
                size=100, collateral=100, acceptable_price=2000, max_slippage=1),
            act(0, "trader", "settle_order", order_id=1),
            # pnl +350 exceeds the pool: fatal
            act(60, "trader", "create_order", kind="market_close", direction="long",
                acceptable_price=9000, max_slippage=5, position_id=1),
            act(60, "trader", "settle_order", order_id=2),
            act(120, "lp", "deposit", assets=1),   # never reached
        ])
    result = run_files(path)
    assert result.halted
    assert result.receipts[-1].status == "InsolventVault"
    assert result.snapshots[-1].time == 60
    assert not any(r.time == 120 for r in result.receipts)


def test_liquidate_check_sweep_and_explicit(tmp_path):
    path = build(
        tmp_path,
        trace_rows=both_feeds(0, 2000) + both_feeds(60, 1810),
        actions=[
            act(0, "lp", "deposit", assets=10000),
            act(0, "trader", "create_order", kind="market_open", direction="long",
                size=1000, collateral=100, acceptable_price=2000, max_slippage=1),
            act(0, "trader", "settle_order", order_id=1),
            act(0, "lp", "liquidate_check"),                     # sweep: healthy, silent
            act(60, "lp", "liquidate_check"),                    # sweep: liquidates
            act(60, "lp", "liquidate_check", position_id=1),     # explicit: gone now
        ])
    result = run_files(path)
    statuses = [(r.action, r.status) for r in result.receipts]
    assert ("liquidate_check", "ok") in statuses
    assert ("liquidate_check", "UnknownPosition") in statuses
    liq = next(r for r in result.receipts if r.action == "liquidate_check"
               and r.status == "ok")
    assert liq.actor == "trader"       # payout goes to the position owner
    assert liq.realized_pnl == -U(95)


def count_calls(monkeypatch, original) -> list[int]:
    """Count calls to `original` under every perpamm module name bound to it."""
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name == "perpamm" or name.startswith("perpamm."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counting)
    return calls


def test_snapshot_computes_each_pool_value_once(monkeypatch):
    engine = make_engine(make_config(base_fee=BaseFeeParams(0.01, 1.0),
                                     dynamic_fee=DynamicFeeParams(500, 0.0125)))
    engine.lp_deposit("lp", U(10_000), 0)
    feed_both(engine, U(2000), 0)
    oid = engine.create_order("t", OrderKind.MARKET_OPEN, Direction.LONG,
                              size=U(3000), collateral=U(500),
                              acceptable_price=U(2000), max_slippage=U(1))
    engine.settle_order(oid, 0)
    expected = pool_metrics(engine.pool, engine.vault.total_assets, engine.config)
    assert expected[1] == 30.0 and expected[2] > expected[3]   # a skewed pool

    utilization = count_calls(monkeypatch, perpamm.engine.utilization_pct)
    skew = count_calls(monkeypatch, perpamm.curves.compute_skew)
    runner = _Runner(Scenario("market.json", "trace.csv", [], 0, []), engine, [])
    runner._snapshot(0)
    assert (utilization[0], skew[0]) == (1, 1)
    row = runner.snapshots[0]
    assert (row.utilization, row.skew, row.borrow_rate_long,
            row.borrow_rate_short) == expected
    assert row.reserved == row.long_oi == U(3000)


def test_identical_runs_are_byte_identical(tmp_path):
    path = build(
        tmp_path,
        trace_rows=both_feeds(0, 2000) + both_feeds(60, 2050),
        actions=[
            act(0, "lp", "deposit", assets=5000),
            act(0, "trader", "create_order", kind="market_open", direction="long",
                size=400, collateral=100, acceptable_price=2000, max_slippage=2),
            act(0, "trader", "settle_order", order_id=1),
        ])
    inputs = {"config": str(tmp_path / "market.json"),
              "trace": str(tmp_path / "trace.csv"), "scenario": path}
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    write_outputs(run_files(path), str(out_a), inputs)
    write_outputs(run_files(path), str(out_b), inputs)
    for name in ("snapshots.csv", "receipts.csv", "manifest.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


# -- Loader validation ------------------------------------------------------------------

def test_loader_rejects_unknown_keys(tmp_path):
    path = build(tmp_path, trace_rows=both_feeds(0, 2000), actions=[],
                 extra={"primary_feed": "primary"})
    raw = json.loads((tmp_path / "scenario.json").read_text())
    raw["surprise"] = 1
    (tmp_path / "scenario.json").write_text(json.dumps(raw))
    with pytest.raises(ScenarioError, match="surprise"):
        load_scenario(path)


def test_loader_rejects_unsorted_actions(tmp_path):
    path = build(tmp_path, trace_rows=both_feeds(0, 2000), actions=[
        act(60, "lp", "deposit", assets=1),
        act(0, "lp", "deposit", assets=1),
    ])
    with pytest.raises(ScenarioError, match="sorted"):
        load_scenario(path)


def test_loader_rejects_undefined_account(tmp_path):
    path = build(tmp_path, trace_rows=both_feeds(0, 2000), actions=[
        act(0, "ghost", "deposit", assets=1),
    ])
    with pytest.raises(ScenarioError, match="ghost"):
        load_scenario(path)


def test_loader_rejects_unknown_action_kind(tmp_path):
    path = build(tmp_path, trace_rows=both_feeds(0, 2000), actions=[
        {"time": 0, "actor": "lp", "action": "teleport", "params": {}},
    ])
    with pytest.raises(ScenarioError, match="teleport"):
        load_scenario(path)
