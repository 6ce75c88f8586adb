"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are pinned in the assertions.
"""

from __future__ import annotations

import json
import math
import random
import time
from contextlib import contextmanager
from decimal import Decimal
from fractions import Fraction

import pytest

from conftest import ledger_sum, make_config, make_engine, receipt_cash
from perpamm.cli import main
from perpamm.curves import BaseFeeParams, eval_base_fee, eval_deviation
from perpamm.engine import (
    Direction,
    OrderKind,
    PoolState,
    Position,
    accrue_fees,
    check_liquidation,
    position_equity,
)
from perpamm.errors import DeviationTooHigh, StaleFeed, ZeroShareMint
from perpamm.figures import Grid, emit_figure_data
from perpamm.money import SECONDS_PER_YEAR, to_units
from perpamm.oracle import OracleConfig, PricePoint, TradeSide, aggregate
from perpamm.scenario import run_files
from perpamm.vault import VaultState
from test_scenario import FRICTIONLESS, act, both_feeds, build
from test_vault import RationalVault

U = to_units


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


# -- 1. Figure 1: deviated quotes around a constant oracle price -------------------

def test_criterion_01_constant_price_quote_reproduction():
    with criterion(1, "constant-price quote table"):
        start = time.perf_counter()
        table = emit_figure_data(
            "deviation_price",
            {"price": Decimal(2000), "k_delta": [Decimal("0.0004")],
             "c_d": Decimal(0)},
            Grid.parse("0:100:25"))
        expected = {
            "0": ("2000.000000000", "2000.000000000"),
            "25": ("2005.000000000", "1995.000000000"),
            "50": ("2020.000000000", "1980.000000000"),
            "75": ("2045.000000000", "1955.000000000"),
            "100": ("2080.000000000", "1920.000000000"),
        }
        got = {row[0]: (row[2], row[3]) for row in table.rows}
        assert got == expected
        assert time.perf_counter() - start < 1.0


# -- 2. Figure 3: deviation at full utilization per coefficient ----------------------

def test_criterion_02_deviation_at_full_utilization():
    with criterion(2, "deviation curve endpoints"):
        from perpamm.curves import DeviationParams

        for kd, expected in ((0.000125, 1_250_000_000), (0.00025, 2_500_000_000),
                             (0.0005, 5_000_000_000)):
            value = eval_deviation(100, DeviationParams(kd, 0.0))
            assert value == expected


# -- 3. Figure 4: base fee at full utilization per coefficient ------------------------

def test_criterion_03_base_fee_at_full_utilization():
    with criterion(3, "base fee curve endpoints"):
        for kb, expected in ((0.0325, 325_000_000_000), (0.01, 100_000_000_000),
                             (0.005, 50_000_000_000)):
            value = eval_base_fee(100, BaseFeeParams(kb, 0.0))
            assert value == expected


# -- 4. Figure 5: sigmoid shape checks -------------------------------------------------

def test_criterion_04_dynamic_fee_shape():
    with criterion(4, "dynamic fee sigmoid shape"):
        from perpamm.curves import DynamicFeeParams, eval_dynamic_fee

        m = 500.0
        for k in (0.0125, 0.0225, 0.0325):
            params = DynamicFeeParams(m, k)
            assert eval_dynamic_fee(0, params) == 0
            previous = 0
            sigma = Decimal("0")
            step = Decimal("0.1")
            for _ in range(1000):
                sigma += step
                s = float(sigma)
                value = eval_dynamic_fee(s, params)
                assert value > previous          # strictly increasing on (0, 100]
                assert value < 500_000_000_000   # bounded below the maximum, m
                previous = value
                # the two published closed forms agree to 1e-9 relative
                decay = math.exp(-k * s)
                growth = math.exp(k * s)
                form_a = m * (1 - 1 / growth) / (1 + 1 / growth)
                form_b = m * (1 - decay) / (1 + decay)
                assert abs(form_a - form_b) <= 1e-9 * abs(form_b)


# -- 5. Oracle decision procedure -----------------------------------------------------

def test_criterion_05_oracle_rule_suite():
    with criterion(5, "dual-oracle decision table"):
        cfg = OracleConfig(max_age=60, min_acceptable_deviation=U("0.1"),
                           threshold_deviation=U(1))
        fresh, stale, now = 100, 39, 100
        bands = {
            "low": (U(2000), U(2001)),    # d = 0.05%
            "mid": (U(2000), U(2010)),    # d = 0.50%
            "high": (U(2000), U(2100)),   # d = 5.00%
        }
        expected_fresh = {
            ("low", TradeSide.BUY): U(2000),
            ("low", TradeSide.SELL): U(2000),
            ("mid", TradeSide.BUY): U(2010),
            ("mid", TradeSide.SELL): U(2000),
            ("high", TradeSide.BUY): DeviationTooHigh,
            ("high", TradeSide.SELL): DeviationTooHigh,
        }
        cases = 0
        for band, (p1, p2) in bands.items():
            for side in (TradeSide.BUY, TradeSide.SELL):
                for is_stale in (False, True):
                    t1 = stale if is_stale else fresh
                    primary = PricePoint("p", p1, t1)
                    secondary = PricePoint("s", p2, fresh)
                    if is_stale:
                        with pytest.raises(StaleFeed):
                            aggregate(primary, secondary, side, cfg, now)
                    else:
                        want = expected_fresh[(band, side)]
                        if want is DeviationTooHigh:
                            with pytest.raises(DeviationTooHigh):
                                aggregate(primary, secondary, side, cfg, now)
                        else:
                            assert aggregate(primary, secondary, side, cfg, now) == want
                    cases += 1
        assert cases == 12
        # boundary equalities: d == min uses the primary, d == threshold stays in-band
        at_min = (PricePoint("p", U(2000), fresh), PricePoint("s", U(2002), fresh))
        assert aggregate(*at_min, TradeSide.BUY, cfg, now) == U(2000)
        assert aggregate(*at_min, TradeSide.SELL, cfg, now) == U(2000)
        at_thr = (PricePoint("p", U(2000), fresh), PricePoint("s", U(2020), fresh))
        assert aggregate(*at_thr, TradeSide.BUY, cfg, now) == U(2020)
        assert aggregate(*at_thr, TradeSide.SELL, cfg, now) == U(2000)
        # fuzz: the aggregate is always one of the two inputs, never interpolated
        rng = random.Random(2024)
        for _ in range(100_000):
            p1 = rng.randint(1, 10**10)
            p2 = p1 + rng.randint(-p1 // 2, p1 // 2) or 1
            side = TradeSide.BUY if rng.random() < 0.5 else TradeSide.SELL
            try:
                got = aggregate(PricePoint("p", p1, fresh),
                                PricePoint("s", p2, fresh), side, cfg, now)
            except DeviationTooHigh:
                continue
            assert got == p1 or got == p2


# -- 6. Conservation over a randomized scenario ------------------------------------------

def _generate_conservation_scenario(tmp_path, n_actions=1000, seed=7):
    rng = random.Random(seed)
    times = list(range(0, 36_000, 60))     # 600 trace steps of 60 s
    prices, price = [], Decimal(2000)
    for step, _ in enumerate(times):
        drift = Decimal(rng.randint(-80, 80)) / 10
        if 150 <= step < 300:              # engineered 20% drawdown leg
            drift -= Decimal(3)
        elif 300 <= step < 420:
            drift += Decimal(3)
        price = max(Decimal(1200), min(Decimal(3000), price + drift))
        prices.append(price)
    rows = []
    for t, p in zip(times, prices):
        rows += both_feeds(t, str(p))

    actions = [act(0, "lp", "deposit", assets=2_000_000)]
    open_positions: dict[int, str] = {}    # position id -> direction
    orders = positions = 0
    slot = 0
    while len(actions) < n_actions:
        slot = min(slot + rng.randint(0, 2), len(times) - 1)
        t = times[slot]
        p = str(prices[slot])
        roll = rng.random()
        remaining = n_actions - len(actions)
        if roll < 0.34 and remaining >= 2:
            size = rng.randint(10, 3000)
            leverage = rng.randint(2, 9)
            direction = rng.choice(["long", "short"])
            actions.append(act(t, "trader", "create_order", kind="market_open",
                               direction=direction, size=size,
                               collateral=size // leverage + 1,
                               acceptable_price=p, max_slippage=50))
            orders += 1
            actions.append(act(t, "trader", "settle_order", order_id=orders))
            positions += 1
            open_positions[positions] = direction
        elif roll < 0.40 and remaining >= 2:
            # max-leverage long held to the end: liquidation-sweep fodder
            size = rng.randint(500, 2000)
            actions.append(act(t, "trader", "create_order", kind="market_open",
                               direction="long", size=size,
                               collateral=size // 10 + 1,
                               acceptable_price=p, max_slippage=50))
            orders += 1
            actions.append(act(t, "trader", "settle_order", order_id=orders))
            positions += 1
        elif roll < 0.62 and open_positions and remaining >= 2:
            pid = rng.choice(sorted(open_positions))
            direction = open_positions.pop(pid)
            actions.append(act(t, "trader", "create_order", kind="market_close",
                               direction=direction, position_id=pid,
                               acceptable_price=p, max_slippage=50))
            orders += 1
            actions.append(act(t, "trader", "settle_order", order_id=orders))
        elif roll < 0.72 and remaining >= 2:
            actions.append(act(t, "trader", "create_order", kind="market_open",
                               direction="long", size=100, collateral=50,
                               acceptable_price=p, max_slippage=50))
            orders += 1
            actions.append(act(t, "trader", "cancel_order", order_id=orders))
        elif roll < 0.9:
            actions.append(act(t, "lp", "liquidate_check"))
        else:
            actions.append(act(t, "lp", "deposit", assets=rng.randint(1, 5000)))
    config = dict(FRICTIONLESS, max_leverage=10)
    return build(tmp_path, trace_rows=rows, actions=actions[:n_actions],
                 config=config, interval=0)


def test_criterion_06_conservation_scenario(tmp_path):
    with criterion(6, "zero-fee conservation over 1000 actions"):
        path = _generate_conservation_scenario(tmp_path)
        start = time.perf_counter()
        result = run_files(path)
        elapsed = time.perf_counter() - start
        assert not result.halted
        engine = result.engine
        settlements = sum(1 for r in result.receipts if r.status == "ok"
                          and r.action in ("settle_order", "trigger_settle",
                                           "liquidate_check"))
        drift = ledger_sum(receipt_cash(result.receipts), engine)
        assert abs(drift) <= settlements     # <= 1 base unit per settlement
        for snap in result.snapshots:
            assert snap.reserved == snap.long_oi + snap.short_oi
            assert snap.reserved <= snap.pool_value
        assert engine.pool.reserved == engine.pool.long_oi + engine.pool.short_oi
        assert settlements > 100             # the scenario actually traded
        liquidations = sum(1 for r in result.receipts
                           if r.action == "liquidate_check" and r.status == "ok")
        assert liquidations > 0              # the drawdown leg forced some
        assert elapsed < 10.0


# -- 7. Accrual path independence and the 10-day worked example ---------------------------

def test_criterion_07_accrual_oracle_equivalence():
    with criterion(7, "accrual split equivalence and 10-day charge"):
        rng = random.Random(17)
        for _ in range(100):
            cfg = make_config(base_fee=BaseFeeParams(
                rng.uniform(0, 0.03), rng.uniform(0, 100)))
            pool_value = U(rng.randint(1_000, 1_000_000))
            long_oi = U(rng.randint(0, 500))
            short_oi = U(rng.randint(0, 500))
            state = PoolState(long_oi=long_oi, short_oi=short_oi,
                              cum_fee_index_long=0, cum_fee_index_short=0,
                              last_accrual_time=0)
            total = rng.randint(2, 10_000_000)
            cut = rng.randint(1, total - 1)
            one = accrue_fees(state, pool_value, cfg, total)
            two = accrue_fees(accrue_fees(state, pool_value, cfg, cut), pool_value, cfg,
                              total)
            for a, b in ((one.cum_fee_index_long, two.cum_fee_index_long),
                         (one.cum_fee_index_short, two.cum_fee_index_short)):
                assert a == b

        # 36.5%/year on size 1000 for 10 days charges exactly 10
        engine = make_engine(make_config(base_fee=BaseFeeParams(0.0, 36.5)))
        engine.lp_deposit("lp", U(10_000), 0)
        for feed in ("primary", "secondary"):
            engine.feeds.ingest(PricePoint(feed, U(2000), 0))
        oid = engine.create_order("t", OrderKind.MARKET_OPEN, Direction.LONG,
                                  size=U(1000), collateral=U(100),
                                  acceptable_price=U(2000), max_slippage=U(1))
        engine.settle_order(oid, 0)
        ten_days = 10 * 86_400
        for feed in ("primary", "secondary"):
            engine.feeds.ingest(PricePoint(feed, U(2000), ten_days))
        close = engine.create_order("t", OrderKind.MARKET_CLOSE, Direction.LONG,
                                    acceptable_price=U(2000),
                                    max_slippage=U(1), position_id=1)
        receipt = engine.settle_order(close, ten_days)
        assert receipt.borrow_fee_paid == U(10)
        # cross-check with the exact rational value
        assert Fraction(365, 1000) * Fraction(ten_days, SECONDS_PER_YEAR) \
            == Fraction(1, 100)


# -- 8. Liquidation boundary by bisection ---------------------------------------------------

def test_criterion_08_liquidation_boundary_bisection():
    with criterion(8, "liquidation flip between marks 1820 and 1822"):
        cfg = make_config()
        pool = PoolState(long_oi=U(1000), short_oi=0, cum_fee_index_long=0,
                         cum_fee_index_short=0, last_accrual_time=0)
        pos = Position(1, "t", Direction.LONG, U(1000), U(100), U(2000), 0)
        assert not check_liquidation(pos, pool, cfg, U(1822))
        assert check_liquidation(pos, pool, cfg, U(1820))
        lo, hi = U(1820), U(1822)          # invariant: lo liquidatable, hi not
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if check_liquidation(pos, pool, cfg, mid):
                lo = mid
            else:
                hi = mid
        # verify the flip against position_equity: the maintenance level is
        # 1% of size = 10 units
        maintenance = U(10)
        assert position_equity(pos, pool, lo) <= maintenance
        assert position_equity(pos, pool, hi) > maintenance
        assert U(1820) <= lo < hi <= U(1822)


# -- 9. Vault against the rational-arithmetic reference --------------------------------------

def test_criterion_09_vault_reference_equivalence():
    with criterion(9, "vault vs rational reference over 1e5 ops"):
        rng = random.Random(41)
        mine, ref = VaultState(), RationalVault()
        accounts = ["a", "b", "c", "d"]
        for _ in range(100_000):
            op = rng.random()
            account = rng.choice(accounts)
            before = mine.total_assets
            if op < 0.45:
                amount = rng.randint(1, 10**9)
                try:
                    got = mine.deposit(account, amount)
                except ZeroShareMint:
                    with pytest.raises(ZeroShareMint):
                        ref.deposit(account, amount)
                    continue
                assert got == ref.deposit(account, amount)
                assert abs(mine.total_assets - before - amount) <= 1
            elif op < 0.8:
                balance = mine.balances.get(account, 0)
                if balance == 0:
                    continue
                shares = rng.randint(1, balance)
                got = mine.redeem(account, shares)
                assert got == ref.redeem(account, shares)
            elif op < 0.95:
                amount = rng.randint(0, 10**6)
                mine.credit(amount)
                ref.credit(amount)
            else:
                amount = rng.randint(0, mine.total_assets)
                mine.debit(amount)
                ref.debit(amount)
            assert mine.total_shares == ref.shares
            assert abs(mine.total_assets - ref.assets) <= 1
            assert mine.balances == {k: v for k, v in ref.balances.items() if v}
        assert mine.total_assets == ref.assets   # exact at the end as well


# -- 10. Byte-identical outputs -----------------------------------------------------------------

def test_criterion_10_determinism(tmp_path):
    with criterion(10, "repeated invocations byte-identical"):
        curve_args = ["curves", "--kind", "base_fee", "--kb", "0.0325",
                      "--kb", "0.01", "--kb", "0.005", "--cb", "0",
                      "--grid", "0:100:1"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(curve_args + ["--out", str(a)]) == 0
        assert main(curve_args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

        scenario = build(
            tmp_path,
            trace_rows=both_feeds(0, 2000) + both_feeds(60, 2040) + both_feeds(120, 1985),
            actions=[
                act(0, "lp", "deposit", assets=20_000),
                act(0, "trader", "create_order", kind="market_open",
                    direction="long", size=1500, collateral=300,
                    acceptable_price=2000, max_slippage=2),
                act(0, "trader", "settle_order", order_id=1),
                act(60, "trader", "create_order", kind="take_profit",
                    direction="long", trigger_price=1985, max_slippage=5,
                    position_id=1),
                act(120, "lp", "liquidate_check"),
            ])
        run_args = ["run", "--config", str(tmp_path / "market.json"),
                    "--trace", str(tmp_path / "trace.csv"),
                    "--scenario", scenario]
        assert main(run_args + ["--out-dir", str(tmp_path / "r1")]) == 0
        assert main(run_args + ["--out-dir", str(tmp_path / "r2")]) == 0
        for name in ("snapshots.csv", "receipts.csv", "manifest.json"):
            assert ((tmp_path / "r1" / name).read_bytes()
                    == (tmp_path / "r2" / name).read_bytes())
