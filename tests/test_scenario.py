"""Scenario harness: event ordering, receipts, snapshots, determinism, halts."""

from __future__ import annotations

import hashlib
import json
import random
import sys
from types import SimpleNamespace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import perpamm.curves
import perpamm.engine
import perpamm.scenario
from conftest import feed_both, ledger_sum, make_config, make_engine, receipt_cash
from perpamm.cli import main
from perpamm.curves import BaseFeeParams, DynamicFeeParams
from perpamm.engine import Direction, OrderKind, pool_metrics
from perpamm.errors import InsolventVault, ScenarioError
from perpamm.money import MAX_TIMESTAMP, SECONDS_PER_YEAR, to_units
from perpamm.oracle import FEEDS, PRIMARY, PricePoint
from perpamm.scenario import (
    ACTION_KINDS, ACTION_PARAMS, HASH_BLOCK, Action, RunResult, Scenario, _Runner,
    load_scenario, parse_scenario, run_files, write_outputs)

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
    """Write market.json, trace.csv and scenario.json (UTF-8, whatever the
    locale) under tmp_path; return the scenario's path."""
    (tmp_path / "market.json").write_text(json.dumps(config or FRICTIONLESS), encoding="utf-8")
    lines = ["timestamp,feed_id,price"]
    lines += [f"{t},{feed},{price}" for t, feed, price in trace_rows]
    (tmp_path / "trace.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    scenario = {
        "market_config": "market.json",
        "price_trace": "trace.csv",
        "snapshot_interval": interval,
        "accounts": list(accounts),
        "actions": actions,
    }
    scenario.update(extra or {})
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
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
    assert close.borrow_fee_paid == U(10)
    assert close.cash_delta == U(90)
    # fee compounds into the pool for the LP
    assert result.engine.vault.total_assets == U(10010)


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
    cash = receipt_cash(result.receipts)
    assert ledger_sum(cash, result.engine) == 0
    # trader pocketed the 50-unit gain, pool paid it
    assert cash["trader"] == U(50)


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


def test_a_later_trace_row_of_one_feed_at_the_same_time_wins(tmp_path):
    path = build(
        tmp_path,
        trace_rows=[(0, "primary", 2001)] + both_feeds(0, 2000),
        actions=[
            act(0, "lp", "deposit", assets=10000),
            act(0, "trader", "create_order", kind="market_open", direction="long",
                size=1000, collateral=200, acceptable_price=2000, max_slippage=1),
            act(0, "trader", "settle_order", order_id=1),
        ])
    settled = run_files(path).receipts[-1]
    assert (settled.status, settled.executed_price) == ("ok", U(2000))


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


def test_a_failed_action_row_carries_the_ids_its_params_name(tmp_path):
    """An engine error's row names the order and position the action's params
    name; a row whose params fail to parse names none."""
    path = build(
        tmp_path,
        trace_rows=both_feeds(0, 2000),
        actions=[
            act(0, "lp", "deposit", assets=10000),
            act(0, "trader", "create_order", kind="market_open", direction="long",
                size=1000, collateral=100, acceptable_price=1990, max_slippage=0),
            act(0, "trader", "settle_order", order_id=1),       # fills at 2000
            act(0, "trader", "cancel_order", order_id=42),
            act(0, "trader", "create_order", kind="market_close", direction="long",
                acceptable_price=2000, collateral=1, position_id=7),
            act(0, "trader", "settle_order", order_id=True),    # not an id
        ])
    rows = [(r.action, r.status, r.order_id, r.position_id)
            for r in run_files(path).receipts[2:]]
    assert rows == [
        ("settle_order", "SlippageExceeded", 1, None),
        ("cancel_order", "UnknownOrder", 42, None),
        ("create_order", "DomainError", None, 7),
        ("settle_order", "ScenarioError", None, None),
    ]


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


def run_to_halt(tmp_path, path, halt_time):
    """Run and write outputs; the InsolventVault row at `halt_time` ends both files."""
    result = run_files(path)
    out = tmp_path / "out"
    write_outputs(result, str(out), {"scenario": path})
    assert result.receipts[-1].status == "InsolventVault"
    assert result.receipts[-1].time == halt_time
    assert [s.time for s in result.snapshots].count(halt_time) == 1
    assert result.snapshots[-1].time == halt_time
    assert json.loads((out / "manifest.json").read_text())["halted"] is True
    return result


def test_insolvent_trigger_close_halts_the_trigger_pass(tmp_path):
    """A triggered close that breaks the vault is the last row: the next ready
    order (a limit open that would fill) and the actions at its time write none."""
    open_long = dict(kind="market_open", direction="long", size=100, collateral=100,
                     acceptable_price=2000, max_slippage=1)
    path = build(
        tmp_path,
        trace_rows=both_feeds(0, 2000) + both_feeds(60, 9000) + both_feeds(120, 9000),
        actions=[
            act(0, "lp", "deposit", assets=300),
            act(0, "trader", "create_order", **open_long),
            act(0, "trader", "settle_order", order_id=1),
            act(0, "trader", "create_order", **open_long),
            act(0, "trader", "settle_order", order_id=2),
            # order 3: pnl +350 on position 1 exceeds what the pool can pay
            act(0, "trader", "create_order", kind="take_profit", direction="long",
                trigger_price=8000, max_slippage=5, position_id=1),
            # order 4: ready at 9000 too, and would fill
            act(0, "trader", "create_order", kind="limit_open", direction="short",
                size=10, collateral=10, trigger_price=8000),
            act(60, "lp", "deposit", assets=1),
            act(120, "lp", "deposit", assets=1),
        ])
    result = run_to_halt(tmp_path, path, 60)
    at_60 = [(r.action, r.order_id) for r in result.receipts if r.time == 60]
    assert at_60 == [("trigger_settle", 3)]
    # the failed close reverted and the limit open never ran: both still pending
    assert set(result.engine.orders) == {3, 4}
    assert set(result.engine.positions) == {1, 2}
    assert [s.time for s in result.snapshots] == [0, 60]


def test_insolvent_liquidation_halts_the_sweep(tmp_path):
    """A year at 365% makes the long liquidatable despite pnl +1000; all its
    fees go to the treasury, so the vault pays 1000 of its 1000 while the
    short reserves 500. The sweep stops there: the short, liquidatable too,
    and the later action write no row."""
    config = dict(FRICTIONLESS, base_fee={"k_b": 0, "c_b": 365})
    year = SECONDS_PER_YEAR
    path = build(
        tmp_path, config=config, extra={"treasury_fee_share": 100},
        trace_rows=both_feeds(0, 2000) + both_feeds(year, 6000) + both_feeds(year + 60, 6000),
        actions=[
            act(0, "lp", "deposit", assets=1000),
            act(0, "trader", "create_order", kind="market_open", direction="long",
                size=500, collateral=50, acceptable_price=2000, max_slippage=1),
            act(0, "trader", "settle_order", order_id=1),
            act(0, "trader", "create_order", kind="market_open", direction="short",
                size=500, collateral=50, acceptable_price=2000, max_slippage=1),
            act(0, "trader", "settle_order", order_id=2),
            act(year, "lp", "liquidate_check"),
            act(year, "lp", "deposit", assets=1),
            act(year + 60, "lp", "deposit", assets=1),
        ])
    result = run_to_halt(tmp_path, path, year)
    at_year = [(r.action, r.position_id) for r in result.receipts if r.time == year]
    assert at_year == [("liquidate_check", 1)]
    assert set(result.engine.positions) == {1, 2}
    assert [s.time for s in result.snapshots] == [0, year]


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


def test_sweep_rows_follow_the_oracle_per_side(tmp_path):
    """A sweep the oracle refuses writes one row per open position, in id order;
    in the mid band it marks longs at the lower feed and shorts at the higher."""
    opens = [act(0, "lp", "deposit", assets=10_000)]
    for oid, (owner, direction, collateral, t) in enumerate([
            ("alice", "long", 100, 0),      # position 1: liquidatable at <= 1820
            ("carol", "long", 500, 0),      # position 2: healthy throughout
            ("bob", "short", 100, 60)], 1):  # position 3, opened at 1675: at >= 1825.75
        price = 2000 if t == 0 else 1675
        opens += [act(t, owner, "create_order", kind="market_open", direction=direction,
                      size=1000, collateral=collateral, acceptable_price=price,
                      max_slippage=1),
                  act(t, owner, "settle_order", order_id=oid)]
    path = build(
        tmp_path, accounts=("lp", "alice", "bob", "carol"),
        trace_rows=both_feeds(0, 2000) + both_feeds(60, 1675)
        + [(3700, "primary", 2000), (3700, "secondary", 2100),   # 5% apart: over threshold
           (3720, "primary", 1826), (3720, "secondary", 1819)],  # 0.38% apart: mid band
        actions=opens + [act(3661, "lp", "liquidate_check"),     # feeds 3601 s old: stale
                         act(3700, "lp", "liquidate_check"),
                         act(3720, "lp", "liquidate_check")])
    result = run_files(path)
    sweeps = [(r.time, r.actor, r.status, r.position_id, r.executed_price)
              for r in result.receipts if r.action == "liquidate_check"]
    owners = {1: "alice", 2: "carol", 3: "bob"}
    assert sweeps == (
        [(3661, owners[pid], "StaleFeed", pid, None) for pid in (1, 2, 3)]
        + [(3700, owners[pid], "DeviationTooHigh", pid, None) for pid in (1, 2, 3)]
        + [(3720, "alice", "ok", 1, U(1819)), (3720, "bob", "ok", 3, U(1826))])
    assert set(result.engine.positions) == {2}


OPEN_LONG = dict(kind="market_open", direction="long", size=1000, collateral=100,
                 acceptable_price=2000, max_slippage=1)


# (action kind, what is wrong, its params): for each kind an unknown key, a
# missing required key and a bad value
@pytest.mark.parametrize("kind, problem, params", [
    ("deposit", "unknown", {"assets": 1, "zzz": 1}),
    ("deposit", "missing", {}),
    ("deposit", "bad", {"assets": "abc"}),
    ("redeem", "unknown", {"shares": 1, "zzz": 1}),
    ("redeem", "missing", {}),
    ("redeem", "bad", {"shares": "abc"}),
    ("create_order", "unknown", dict(OPEN_LONG, zzz=1)),
    ("create_order", "missing", {k: v for k, v in OPEN_LONG.items() if k != "kind"}),
    ("create_order", "bad", dict(OPEN_LONG, kind="x")),
    ("settle_order", "unknown", {"order_id": 1, "zzz": 1}),
    ("settle_order", "missing", {}),
    ("settle_order", "bad", {"order_id": True}),
    ("cancel_order", "unknown", {"order_id": 1, "zzz": 1}),
    ("cancel_order", "missing", {}),
    ("cancel_order", "bad", {"order_id": True}),
    ("liquidate_check", "unknown", {"positon_id": 1}),     # misspelt: must not sweep
    ("liquidate_check", "bad", {"position_id": None}),
])
def test_bad_action_params_are_a_receipt_and_the_run_goes_on(
        tmp_path, kind, problem, params):
    path = build(
        tmp_path,
        trace_rows=both_feeds(0, 2000) + both_feeds(60, 1810),
        actions=[
            act(0, "lp", "deposit", assets=10000),
            act(0, "trader", "create_order", **OPEN_LONG),
            act(0, "trader", "settle_order", order_id=1),
            {"time": 60, "actor": "lp", "action": kind, "params": params},
            act(60, "lp", "deposit", assets=1),
        ])
    result = run_files(path)
    at_60 = [(r.action, r.status) for r in result.receipts if r.time == 60]
    assert at_60 == [(kind, "ScenarioError"), ("deposit", "ok")]
    assert list(result.engine.positions) == [1]   # liquidatable at 1810, still open
    assert not result.halted


def test_action_table_kinds_are_the_runner_handlers():
    handlers = {name[len("_do_"):] for name in vars(_Runner) if name.startswith("_do_")}
    assert handlers == set(ACTION_PARAMS) == ACTION_KINDS
    for parsers, required in ACTION_PARAMS.values():
        assert set(required) <= set(parsers)


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
    assert expected[1] == 30_000_000_000 and expected[2] > expected[3]   # a skewed pool

    utilization = count_calls(monkeypatch, perpamm.engine.utilization_pct)
    skew = count_calls(monkeypatch, perpamm.curves.compute_skew)
    runner = _Runner(Scenario("market.json", "trace.csv", [], 0, []), engine, [])
    runner._snapshot(0)
    assert (utilization[0], skew[0]) == (1, 1)
    row = runner.snapshots[0]
    assert (row.utilization, row.skew, row.borrow_rate_long,
            row.borrow_rate_short) == expected
    assert row.reserved == row.long_oi == U(3000)


def test_rates_are_computed_once_while_the_pool_does_not_change(tmp_path, monkeypatch):
    """Price-only event times evaluate no rates: 5 or 50 of them between the same
    two snapshots give the same number of evaluations."""
    config = dict(FRICTIONLESS, base_fee={"k_b": 0.01, "c_b": 1},
                  dynamic_fee={"m_max": 500, "steepness": 0.0125})
    rates = count_calls(monkeypatch, perpamm.curves.total_borrow_rates)
    counts = []
    for k in (5, 50):
        times = range(0, 3000 + 1, 3000 // k)   # the open at 0, then k price-only times
        (tmp_path / str(k)).mkdir()
        path = build(
            tmp_path / str(k), config=config, interval=3000,
            trace_rows=[row for t in times for row in both_feeds(t, 2000)],
            actions=[
                act(0, "lp", "deposit", assets=10_000),
                act(0, "trader", "create_order", kind="market_open", direction="long",
                    size=3000, collateral=500, acceptable_price=2000, max_slippage=1),
                act(0, "trader", "settle_order", order_id=1),
            ])
        rates[0] = 0
        result = run_files(path)
        assert [r.status for r in result.receipts] == ["ok"] * 3
        assert [s.time for s in result.snapshots] == [0, 3000]
        counts.append(rates[0])
        last = result.snapshots[-1]
        assert last.borrow_rate_long > last.borrow_rate_short > 0
        assert last.cum_fee_index_long > last.cum_fee_index_short > 0
    assert counts[0] == counts[1]


def test_the_runner_accrues_only_through_snapshots(tmp_path, monkeypatch):
    """K price-only event times make no Engine.accrue call: one per snapshot, not K + 1.

    The engine accrues inside every call that reads or changes the pool; the
    snapshot accrues to its own time, so its indices still move."""
    config = dict(FRICTIONLESS, base_fee={"k_b": 0, "c_b": 36.5})
    times = range(0, 60 * 51, 60)   # the open at 0, then K = 50 price-only times
    path = build(
        tmp_path, config=config, interval=600,
        trace_rows=[row for t in times for row in both_feeds(t, 2000)],
        actions=[
            act(0, "lp", "deposit", assets=10_000),
            act(0, "trader", "create_order", kind="market_open", direction="long",
                size=3000, collateral=500, acceptable_price=2000, max_slippage=1),
            act(0, "trader", "settle_order", order_id=1),
        ])
    calls = [0]
    accrue = perpamm.engine.Engine.accrue

    def counting(engine, now):
        calls[0] += 1
        return accrue(engine, now)

    monkeypatch.setattr(perpamm.engine.Engine, "accrue", counting)
    result = run_files(path)
    assert [s.time for s in result.snapshots] == list(range(0, 3001, 600))
    assert calls[0] == len(result.snapshots)
    indices = [s.cum_fee_index_long for s in result.snapshots]
    assert indices == sorted(set(indices)) and indices[0] == 0


def test_amount_params_are_parsed_through_the_module_to_units(monkeypatch):
    """ACTION_PARAMS reads scenario.to_units when it parses, so a patched one sees each amount."""
    calls = [0]

    def counting(value):
        calls[0] += 1
        return U(value)

    monkeypatch.setattr(perpamm.scenario, "to_units", counting)
    amounts = {"size": "3000", "collateral": 500, "acceptable_price": "2000.5",
               "max_slippage": 1}
    runner = _Runner(Scenario("market.json", "trace.csv", [], 0, ["t"]), make_engine(), [])
    runner._dispatch(Action(0, 0, "t", "create_order",
                            dict(kind="market_open", direction="long", **amounts)))
    assert [r.status for r in runner.receipts] == ["ok"]
    assert calls[0] == len(amounts)


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


GOLDEN_RECEIPTS = """\
seq,time,actor,action,status,order_id,position_id,executed_price,open_close_fee,borrow_fee_paid,realized_pnl,liquidation_fee,shares_delta,cash_delta
1,0,lp,deposit,ok,,,,,,,,10000.000000,-10000.000000
2,0,trader,create_order,ok,1,,,,,,,,-100.000000
3,0,trader,settle_order,ok,1,,2000.000000,1.000000,0.000000,0.000000,0.000000,,0.000000
4,0,trader,settle_order,UnknownOrder,1,,,,,,,,
5,0,trader,create_order,ok,2,,,,,,,,
6,0,bob,create_order,ok,3,,,,,,,,-50.000000
7,0,bob,cancel_order,ok,3,,,,,,,,50.000000
8,0,trader,liquidate_check,NotLiquidatable,,1,,,,,,,
9,0,lp,deposit,ScenarioError,,,,,,,,,
10,60,trader,trigger_settle,ok,2,1,1880.000000,1.000000,0.000190,-60.000000,0.000000,,37.999810
11,60,trader,create_order,ok,4,,,,,,,,
12,60,bob,create_order,ok,5,,,,,,,,-100.000000
13,60,bob,settle_order,ok,5,,1880.000000,1.000000,0.000000,0.000000,0.000000,,0.000000
14,120,trader,trigger_settle,UnknownPosition,4,1,,,,,,,
15,120,bob,liquidate_check,ok,,2,2050.000000,0.000000,0.000190,-90.425532,0.428714,,8.145564
16,120,lp,redeem,ok,,,,,,,,-1000.000000,1015.351171
17,120,trader,create_order,ok,6,,,,,,,,-900.000000
18,120,trader,settle_order,ok,6,,2050.000000,8.000000,0.000000,0.000000,0.000000,,0.000000
19,180,trader,trigger_settle,UnknownPosition,4,1,,,,,,,
20,180,trader,create_order,ok,7,,,,,,,,
21,180,trader,settle_order,InsolventVault,7,,,,,,,,
"""

GOLDEN_SNAPSHOTS = """\
time,pool_value,reserved,long_oi,short_oi,utilization,skew,borrow_rate_long,borrow_rate_short,cum_fee_index_long,cum_fee_index_short,vault_shares,share_price,open_positions,open_collateral,treasury
0,10000.900000,1000.000000,1000.000000,0.000000,9.999100081,9.999100081,10.000000000,10.000000000,0.000000000,0.000000000,10000.000000,1.000090000,1,99.000000,0.100000
60,10062.700171,1000.000000,0.000000,1000.000000,9.937690511,9.937690511,10.000000000,10.000000000,0.000000190,0.000000190,10000.000000,1.006270017,1,99.000000,0.300019
120,9145.360546,8000.000000,8000.000000,0.000000,87.476048208,87.476048208,10.000000000,10.000000000,0.000000381,0.000000381,9000.000000,1.016151172,1,892.000000,1.142909
180,9145.360546,8000.000000,8000.000000,0.000000,87.476048208,87.476048208,10.000000000,10.000000000,0.000000571,0.000000571,9000.000000,1.016151172,1,892.000000,1.142909
"""


def test_golden_receipts_and_snapshots(tmp_path):
    """Every receipt row path, pinned byte for byte: ok and error rows of each
    action, a trigger fill and a trigger error (with ids), a silent and a
    liquidating sweep, an explicit liquidation error (actor: the owner), a
    bad-param ScenarioError and the InsolventVault halt (actor: the sender)."""
    config = dict(FRICTIONLESS, base_fee={"k_b": 0, "c_b": 10},
                  open_close_fee_rate="0.1", liquidation_fee_rate=5)
    path = build(
        tmp_path, config=config, accounts=("lp", "trader", "bob"),
        extra={"treasury_fee_share": 10},
        trace_rows=(both_feeds(0, 2000) + both_feeds(60, 1880) + both_feeds(120, 2050)
                    + both_feeds(180, 5000)),
        actions=[
            act(0, "lp", "deposit", assets=10000),
            act(0, "trader", "create_order", **OPEN_LONG),                    # escrow
            act(0, "trader", "settle_order", order_id=1),
            act(0, "trader", "settle_order", order_id=1),                     # UnknownOrder
            act(0, "trader", "create_order", kind="stop_loss", direction="long",
                trigger_price=1900, max_slippage=5, position_id=1),          # no escrow
            act(0, "bob", "create_order", kind="limit_open", direction="long",
                size=100, collateral=50, trigger_price=1500),
            act(0, "bob", "cancel_order", order_id=3),                        # refund
            act(0, "lp", "liquidate_check"),                                  # finds nothing
            act(0, "lp", "liquidate_check", position_id=1),                   # NotLiquidatable
            act(0, "lp", "deposit", assets="abc"),                            # ScenarioError
            # t=60: the stop-loss fills; this take-profit's position is gone,
            # so from t=120 on each trigger pass writes an UnknownPosition row
            act(60, "trader", "create_order", kind="take_profit", direction="long",
                trigger_price=1850, max_slippage=5, position_id=1),
            act(60, "bob", "create_order", kind="market_open", direction="short",
                size=1000, collateral=100, acceptable_price=1880, max_slippage=1),
            act(60, "bob", "settle_order", order_id=5),
            act(120, "lp", "liquidate_check"),                                # liquidates bob
            act(120, "lp", "redeem", shares=1000),
            act(120, "trader", "create_order", kind="market_open", direction="long",
                size=8000, collateral=900, acceptable_price=2050, max_slippage=1),
            act(120, "trader", "settle_order", order_id=6),
            act(180, "trader", "create_order", kind="market_close", direction="long",
                acceptable_price=5000, max_slippage=1, position_id=3),
            act(180, "trader", "settle_order", order_id=7),                   # InsolventVault
            act(180, "lp", "deposit", assets=1),                              # never runs
            act(240, "lp", "deposit", assets=1),
        ])
    inputs = {"config": str(tmp_path / "market.json"),
              "trace": str(tmp_path / "trace.csv"), "scenario": path}
    result = run_files(path)
    write_outputs(result, str(tmp_path / "out"), inputs)
    assert result.halted
    assert (tmp_path / "out" / "receipts.csv").read_text() == GOLDEN_RECEIPTS
    assert (tmp_path / "out" / "snapshots.csv").read_text() == GOLDEN_SNAPSHOTS
    assert ledger_sum(receipt_cash(result.receipts), result.engine) == 0


# -- Loader validation ------------------------------------------------------------------

def test_loader_rejects_unknown_keys(tmp_path):
    path = build(tmp_path, trace_rows=both_feeds(0, 2000), actions=[])
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


@pytest.mark.parametrize("key", ["actor", "action"])
def test_loader_rejects_unhashable_actor_or_kind(tmp_path, key):
    entry = dict(act(0, "lp", "deposit", assets=1), **{key: ["lp"]})
    path = build(tmp_path, trace_rows=both_feeds(0, 2000), actions=[entry])
    with pytest.raises(ScenarioError, match=r"\['lp'\]"):
        load_scenario(path)


DEPOSIT = {"time": 0, "actor": "lp", "action": "deposit", "params": {"assets": 1}}


BAD_TIME = f"must be an integer in [0, {MAX_TIMESTAMP}]"


# a restated row keeps its id, which spells the message the entry checks gave
# before they took the reader's forms
@pytest.mark.parametrize("actions, message", [
    ([7], "action #0 must be an object"),
    ([DEPOSIT, ["lp"]], "action #1 must be an object"),
    pytest.param([dict(DEPOSIT, zeta=1, alpha=2)], "action #0: unknown key 'zeta'",
                 id="actions2-action #0: unknown keys alpha, zeta"),
    pytest.param([{"actor": "lp", "action": "deposit"}], "action #0: missing key 'time'",
                 id="actions3-action #0: missing time"),
    pytest.param([{"time": 0, "action": "deposit"}], "action #0: missing key 'actor'",
                 id="actions4-action #0: missing actor"),
    pytest.param([{"time": 0, "actor": "lp"}], "action #0: missing key 'action'",
                 id="actions5-action #0: missing action"),
    *(pytest.param([dict(DEPOSIT, time=time)], f"action #0: bad 'time': {BAD_TIME}",
                   id=f"actions{row}-action #0: time {BAD_TIME}")
      for row, time in enumerate((True, -1, 1.0, MAX_TIMESTAMP + 1), start=6)),
    ([dict(DEPOSIT, time=60), DEPOSIT], "action #1: actions must be sorted by time"),
    pytest.param([dict(DEPOSIT, actor="ghost")],
                 "action #0: bad 'actor': undefined account 'ghost'",
                 id="actions11-action #0: undefined account 'ghost'"),
    pytest.param([dict(DEPOSIT, actor=["lp"])],
                 "action #0: bad 'actor': undefined account ['lp']",
                 id="actions12-action #0: undefined account ['lp']"),
    pytest.param([dict(DEPOSIT, action="teleport")],
                 "action #0: bad 'action': unknown action 'teleport'",
                 id="actions13-action #0: unknown action 'teleport'"),
    pytest.param([dict(DEPOSIT, action=None)], "action #0: bad 'action': unknown action None",
                 id="actions14-action #0: unknown action None"),
    pytest.param([dict(DEPOSIT, params=[])], "action #0: bad 'params': must be an object",
                 id="actions15-action #0: params must be an object"),
])
def test_parse_scenario_action_messages(actions, message):
    raw = {"market_config": "m.json", "price_trace": "t.csv", "snapshot_interval": 0,
           "accounts": ["lp"], "actions": actions}
    with pytest.raises(ScenarioError) as info:
        parse_scenario(raw)
    assert str(info.value) == message


# -- The timeline ---------------------------------------------------------------------

def timeline_by_grouping(trace, actions, interval, halt):
    """The events of a run, by the dict-of-lists grouping of every time's points
    and actions that the runner used before it walked its inputs as two
    streams: the reference order."""
    by_time_points: dict = {}
    for point in trace:
        by_time_points.setdefault(point.publish_time, []).append(point)
    by_time_actions: dict = {}
    for action in actions:
        by_time_actions.setdefault(action.time, []).append(action)
    timeline = sorted(set(by_time_points) | set(by_time_actions))
    next_due = timeline[0] if timeline else 0
    events = []
    for t in timeline:
        events += [("ingest", point.price) for point in by_time_points.get(t, ())]
        events.append(("triggers", t))
        halted = halt == ("triggers", t)
        for action in [] if halted else by_time_actions.get(t, ()):
            events.append(("dispatch", action.seq))
            if halt == ("dispatch", action.seq):
                halted = True
                break
        if halted:
            events.append(("snapshot", t))
            break
        if interval == 0 or t >= next_due or t == timeline[-1]:
            events.append(("snapshot", t))
            if interval > 0:
                next_due = timeline[0] + ((t - timeline[0]) // interval + 1) * interval
    return events


class RecordingRunner(_Runner):
    """A runner that records each event in place of applying it: a point's
    ingest (by its price, its index in the trace), a trigger pass, an action's
    dispatch (by its seq) and a snapshot. At the event `halt` it fails with
    InsolventVault, which halts the run."""

    def __init__(self, trace, actions, interval, halt=None):
        self.events: list[tuple] = []
        self.halt = halt
        feeds = SimpleNamespace(ingest=lambda point: self.events.append(("ingest", point.price)))
        super().__init__(Scenario("market.json", "trace.csv", actions, interval, ["a"]),
                         SimpleNamespace(feeds=feeds), trace)

    def _record(self, event, time) -> None:
        self.events.append(event)
        if event == self.halt:
            self._failed(time, "a", event[0], InsolventVault("the vault cannot pay"))

    def _run_triggers(self, t: int) -> None:
        self._record(("triggers", t), t)

    def _dispatch(self, action: Action) -> None:
        self._record(("dispatch", action.seq), action.time)

    def _snapshot(self, time: int) -> None:
        self.events.append(("snapshot", time))


@st.composite
def timelines(draw):
    """A sorted trace and action list over a few times, so that times are often
    shared, a snapshot interval, and the event to halt at (or None)."""
    point_times = sorted(draw(st.lists(st.integers(0, 12), max_size=12)))
    action_times = sorted(draw(st.lists(st.integers(0, 12), max_size=12)))
    trace = [PricePoint(draw(st.sampled_from(FEEDS)), index, t)
             for index, t in enumerate(point_times)]
    actions = [Action(seq, t, "a", "deposit", {}) for seq, t in enumerate(action_times)]
    interval = draw(st.integers(0, 5))
    halts = ([("dispatch", seq) for seq in range(len(actions))]
             + [("triggers", t) for t in sorted(set(point_times + action_times))])
    halt = draw(st.one_of(st.none(), st.sampled_from(halts))) if halts else None
    return trace, actions, interval, halt


def points_at(*times):
    return [PricePoint(PRIMARY, index, t) for index, t in enumerate(times)]


def actions_at(*times):
    return [Action(seq, t, "a", "deposit", {}) for seq, t in enumerate(times)]


@given(timelines())
@example(([], [], 0, None))
@example((points_at(0, 0, 5), [], 0, None))
@example(([], actions_at(3, 3, 9), 4, None))
@example((points_at(1, 1, 4, 7), actions_at(1, 4, 4, 4, 6), 3, ("dispatch", 2)))
@example((points_at(1, 4, 4), actions_at(0, 4, 4), 0, ("triggers", 4)))
def test_the_runner_walks_the_timeline_of_the_grouping(timeline):
    """Points, the trigger pass, the actions in order and a due snapshot at
    each time, in time order; a halt snapshots its time and ends the run."""
    trace, actions, interval, halt = timeline
    runner = RecordingRunner(trace, actions, interval, halt)
    result = runner.run()
    assert runner.events == timeline_by_grouping(trace, actions, interval, halt)
    assert result.halted == (halt in runner.events)
    assert [r.status for r in result.receipts] == ["InsolventVault"] * result.halted


@pytest.mark.parametrize("trace, actions, name", [
    (points_at(0, 5, 4), actions_at(0, 9), "trace"),
    (points_at(0, 5), actions_at(3, 9, 9, 8), "actions"),
])
def test_run_refuses_inputs_out_of_time_order(trace, actions, name):
    runner = RecordingRunner(trace, actions, 0)
    with pytest.raises(ValueError, match=f"^the {name} must be sorted by time$"):
        runner.run()
    assert runner.events == []     # refused before any event applies
    scenario = Scenario("market.json", "trace.csv", actions, 0, ["a"])
    with pytest.raises(ValueError, match=f"^the {name} must be sorted by time$"):
        perpamm.scenario.run(scenario, make_config(), trace)


@pytest.mark.parametrize("enum_type, key", [(OrderKind, "kind"), (Direction, "direction")])
def test_enum_params_read_and_refuse_as_the_enum_does(tmp_path, capsys, enum_type, key):
    """Through `perpamm run`, a value that is no member's is a create_order
    ScenarioError receipt and the run goes on; a member's value reads."""
    bad = ["x", "", "LONG", "Long", 3, 1.5, None, True, [1], {}, ["long"],
           {"kind": "market_open"}]
    good = {"kind": "market_open", "direction": "long", "size": 1000, "collateral": 100,
            "acceptable_price": 2000, "max_slippage": 1}
    enum_type(good[key])
    for value in bad:
        with pytest.raises(ValueError):
            enum_type(value)
    scenario = build(tmp_path, trace_rows=both_feeds(0, 2000), actions=[
        act(0, "lp", "deposit", assets=10000),
        *(act(0, "trader", "create_order", **dict(good, **{key: value})) for value in bad),
        act(0, "trader", "create_order", **good),
        act(0, "trader", "settle_order", order_id=1)])
    out = tmp_path / "out"
    assert main(["run", "--config", str(tmp_path / "market.json"), "--scenario", scenario,
                 "--trace", str(tmp_path / "trace.csv"), "--out-dir", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows = (out / "receipts.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert [row.split(",")[3:5] for row in rows] == (
        [["deposit", "ok"]] + [["create_order", "ScenarioError"]] * len(bad)
        + [["create_order", "ok"], ["settle_order", "ok"]])
    # a refused action holds no order id and moves no cash
    assert all(row.endswith("ScenarioError,,,,,,,,,") for row in rows[1:-2])


def test_the_manifest_hashes_inputs_of_any_size(tmp_path):
    """Each digest is the sha256 of the whole file, read a block at a time."""
    rng = random.Random(7)
    sizes = {"empty": 0, "small": 100, "block": HASH_BLOCK, "large": 2 * HASH_BLOCK + 123}
    inputs = {}
    for name, size in sizes.items():
        path = tmp_path / f"{name}.bin"
        path.write_bytes(rng.randbytes(size))
        inputs[name] = str(path)
    result = RunResult(snapshots=[], receipts=[], engine=make_engine())
    write_outputs(result, str(tmp_path / "out"), inputs)
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["inputs"] == {
        name: hashlib.sha256((tmp_path / f"{name}.bin").read_bytes()).hexdigest()
        for name in sizes}
