"""Market engine: settlement lifecycle, accrual, liquidation, atomicity."""

from __future__ import annotations

import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import perpamm.engine
from conftest import feed_both, make_config, make_engine
from perpamm.curves import BaseFeeParams, DeviationParams, DynamicFeeParams
from perpamm.engine import (
    OPEN_KINDS,
    TRIGGER_KINDS,
    Direction,
    Engine,
    OrderKind,
    PoolState,
    Position,
    accrue_fees,
    check_liquidation,
    position_equity,
    trigger_met,
    utilization_pct,
)
from perpamm.errors import (
    ClockRegression,
    ConfigError,
    DeviationTooHigh,
    DomainError,
    ExposureCapExceeded,
    InsolventVault,
    InsufficientCollateral,
    InsufficientLiquidity,
    LeverageExceeded,
    NotLiquidatable,
    OpenInterestCapExceeded,
    ProtocolError,
    QuoteError,
    SlippageExceeded,
    StaleFeed,
    TriggerNotMet,
    UnknownOrder,
    UnknownPosition,
    ZeroShareMint,
)
from perpamm.money import FEE_INDEX_SCALE, MAX_TIMESTAMP, SECONDS_PER_YEAR, to_units
from perpamm.oracle import PricePoint

U = to_units  # shorthand: whole units -> base units

DAY = 86_400


def pool(long_oi=0, short_oi=0, idx_long=0, idx_short=0, t=0):
    return PoolState(long_oi=long_oi, short_oi=short_oi, cum_fee_index_long=idx_long,
                     cum_fee_index_short=idx_short, last_accrual_time=t)


def open_position(engine, owner="t", size=U(1000), collateral=U(100),
                  direction=Direction.LONG, price=2000, t=0, slippage=U(100)):
    """Feed a price, create and settle a market open; returns position id."""
    feed_both(engine, U(price), t)
    order_id = engine.create_order(owner, OrderKind.MARKET_OPEN, direction,
                                   size=size, collateral=collateral,
                                   acceptable_price=U(price), max_slippage=slippage)
    engine.settle_order(order_id, t)
    return max(engine.positions)


# -- Utilization ---------------------------------------------------------------

def test_utilization_examples():
    assert utilization_pct(pool(), U(10000)) == 0
    assert utilization_pct(pool(long_oi=U(2500)), U(10000)) == 25_000_000_000
    assert utilization_pct(pool(long_oi=U(4000), short_oi=U(6000)), U(10000)) == 100_000_000_000


def test_utilization_rejects_empty_pool():
    with pytest.raises(DomainError):
        utilization_pct(pool(), 0)


# -- Accrual ----------------------------------------------------------------------

RATED = make_config(base_fee=BaseFeeParams(0.0, 36.5))


def test_accrual_is_idempotent_at_zero_dt():
    state = pool(long_oi=U(1000), t=50)
    assert accrue_fees(state, U(10000), RATED, 50) is state


def test_accrual_rejects_clock_regression():
    state = pool(t=100)
    with pytest.raises(ClockRegression):
        accrue_fees(state, U(10000), RATED, 99)


def test_ten_day_accrual_at_constant_rate():
    # 36.5%/year for 10 days is exactly 1% of notional (Fraction oracle)
    oracle = Fraction(365, 1000) * Fraction(10 * DAY, SECONDS_PER_YEAR)
    assert oracle == Fraction(1, 100)
    state = pool(long_oi=U(1000))
    after = accrue_fees(state, U(10000), RATED, 10 * DAY)
    assert after.cum_fee_index_long == FEE_INDEX_SCALE // 100
    assert after.cum_fee_index_short == FEE_INDEX_SCALE // 100
    # a size-1000 position on the long side owes 10 units
    pos = Position(1, "t", Direction.LONG, U(1000), U(100), U(2000), 0)
    equity = position_equity(pos, after, U(2000))
    assert U(100) - equity == U(10)


def test_balanced_book_grows_both_indices_equally():
    cfg = make_config(base_fee=BaseFeeParams(0.01, 0),
                      dynamic_fee=DynamicFeeParams(500, 0.0125))
    state = pool(long_oi=U(400), short_oi=U(400))
    after = accrue_fees(state, U(1000), cfg, 5 * DAY)
    assert after.cum_fee_index_long == after.cum_fee_index_short > 0


def test_heavier_side_rule_lighter_side_pays_base_only():
    cfg = make_config(base_fee=BaseFeeParams(0.01, 0),
                      dynamic_fee=DynamicFeeParams(500, 0.0125))
    state = pool(long_oi=U(600), short_oi=U(400))
    after = accrue_fees(state, U(1000), cfg, 3 * DAY)
    u = utilization_pct(state, U(1000)) / 10**9
    base_only = round(u ** 2 * 0.01 * 10**9) * 3 * DAY   # base rate in nanos * seconds
    assert after.cum_fee_index_short == base_only
    assert after.cum_fee_index_long > after.cum_fee_index_short


def test_split_accrual_equals_single_step():
    state = pool(long_oi=U(2000), short_oi=U(1000))
    one = accrue_fees(state, U(10000), RATED, 1000)
    two = accrue_fees(accrue_fees(state, U(10000), RATED, 400), U(10000), RATED, 1000)
    assert one.cum_fee_index_long == two.cum_fee_index_long
    assert one.cum_fee_index_short == two.cum_fee_index_short


@settings(max_examples=300, deadline=None)
@given(long_oi=st.integers(0, U(10**6)), short_oi=st.integers(0, U(10**6)),
       idle=st.integers(1, U(10**6)), start=st.integers(0, 10**9),
       first=st.integers(1, 10**8), second=st.integers(1, 10**8),
       k_b=st.floats(0, 0.05), c_b=st.floats(0, 100),
       m_max=st.floats(0, 1000), steepness=st.floats(1e-4, 0.1))
def test_split_accrual_equals_single_accrual_exactly(long_oi, short_oi, idle, start, first,
                                                     second, k_b, c_b, m_max, steepness):
    """Accruing [t0, t2] in one step or cut at any t1 gives the same indices, to the bit."""
    cfg = make_config(base_fee=BaseFeeParams(k_b, c_b),
                      dynamic_fee=DynamicFeeParams(m_max, steepness))
    pool_value = long_oi + short_oi + idle
    state = pool(long_oi=long_oi, short_oi=short_oi, t=start)
    cut, end = start + first, start + first + second
    one = accrue_fees(state, pool_value, cfg, end)
    two = accrue_fees(accrue_fees(state, pool_value, cfg, cut), pool_value, cfg, end)
    assert one.cum_fee_index_long == two.cum_fee_index_long
    assert one.cum_fee_index_short == two.cum_fee_index_short


def test_ten_day_fee_on_a_huge_position_is_exact():
    """36.5%/yr for 10 days owes exactly 1% of a 10**23-unit position (Fraction oracle)."""
    size = U(10**23)
    oracle = size * Fraction(365, 1000) * Fraction(10 * DAY, SECONDS_PER_YEAR)
    assert oracle == U(10**21)
    after = accrue_fees(pool(long_oi=size), U(10**24), RATED, 10 * DAY)
    pos = Position(1, "t", Direction.LONG, size, U(10**22), U(2000), 0)
    owed = pos.collateral - position_equity(pos, after, U(2000))   # no pnl at entry price
    assert owed == oracle


def test_accrual_to_the_latest_timestamp_is_finite():
    # the largest rate the coefficient bound allows, at 100% utilization and skew,
    # over the longest dt an input allows
    cfg = make_config(base_fee=BaseFeeParams(1e24, 1e24),
                      dynamic_fee=DynamicFeeParams(1e24, 1e24))
    after = accrue_fees(pool(long_oi=U(10000)), U(10000), cfg, MAX_TIMESTAMP)
    assert math.isfinite(after.cum_fee_index_long) and after.cum_fee_index_long > 0
    pos = Position(1, "t", Direction.LONG, U(1000), U(100), U(2000), 0)
    assert position_equity(pos, after, U(2000)) < 0


# -- Order creation -----------------------------------------------------------------

def test_boundary_leverage_accepted(engine):
    oid = engine.create_order("t", OrderKind.MARKET_OPEN, Direction.LONG,
                              size=U(1000), collateral=U(100),
                              acceptable_price=U(2000))
    assert oid == 1
    assert engine.escrow[oid] == U(100)


def test_leverage_just_past_bound_rejected(engine):
    with pytest.raises(LeverageExceeded):
        engine.create_order("t", OrderKind.MARKET_OPEN, Direction.LONG,
                            size=U(1001), collateral=U(100),
                            acceptable_price=U(2000))


@pytest.mark.parametrize("size, collateral", [(0, U(100)), (U(100), 0)])
def test_an_open_of_zero_size_or_zero_collateral_is_a_domain_error(engine, size,
                                                                   collateral):
    # a zero collateral is refused as such, not as infinite leverage
    with pytest.raises(DomainError, match="opens need positive size and collateral"):
        engine.create_order("t", OrderKind.MARKET_OPEN, Direction.LONG,
                            size=size, collateral=collateral,
                            acceptable_price=U(2000))
    assert not engine.orders


def test_close_for_missing_position_accepted_then_fails_at_settlement(engine):
    engine.vault.deposit("lp", U(10000))
    feed_both(engine, U(2000), 0)
    oid = engine.create_order("t", OrderKind.MARKET_CLOSE, Direction.LONG,
                              acceptable_price=U(2000), max_slippage=U(1),
                              position_id=77)
    with pytest.raises(UnknownPosition):
        engine.settle_order(oid, 0)
    assert oid in engine.orders  # still pending after the failed settle


def test_create_order_validation(engine):
    with pytest.raises(DomainError):   # market order without acceptable price
        engine.create_order("t", OrderKind.MARKET_OPEN, Direction.LONG,
                            size=U(10), collateral=U(10))
    with pytest.raises(DomainError):   # trigger order without trigger price
        engine.create_order("t", OrderKind.STOP_LOSS, Direction.LONG,
                            position_id=1)
    with pytest.raises(DomainError):   # close order without position
        engine.create_order("t", OrderKind.MARKET_CLOSE, Direction.LONG,
                            acceptable_price=U(2000))


@pytest.mark.parametrize("kind, fields", [
    (OrderKind.MARKET_CLOSE, dict(size=-1, acceptable_price=U(2000), position_id=1)),
    (OrderKind.STOP_LOSS, dict(size=-U(5), trigger_price=U(1900), position_id=1)),
    (OrderKind.TAKE_PROFIT, dict(acceptable_price=-1, trigger_price=U(2100), position_id=1)),
    (OrderKind.LIMIT_OPEN, dict(size=U(10), collateral=U(10), trigger_price=U(1900),
                                acceptable_price=-U(1))),
])
def test_negative_close_size_or_trigger_acceptable_price_rejected(engine, kind, fields):
    """0 means the whole position or the trigger price; below 0 means nothing, and a
    negative stop-loss size used to rest in the book and fail every trigger pass."""
    with pytest.raises(DomainError):
        engine.create_order("t", kind, Direction.LONG, **fields)
    assert not engine.orders and not engine.escrow
    assert engine.evaluate_triggers(U(1)) == engine.evaluate_triggers(U(10**6)) == []


def test_cancel_refunds_escrow(engine):
    oid = engine.create_order("t", OrderKind.MARKET_OPEN, Direction.LONG,
                              size=U(100), collateral=U(50),
                              acceptable_price=U(2000))
    assert engine.cancel_order(oid) == U(50)
    assert not engine.orders and not engine.escrow
    with pytest.raises(UnknownOrder):
        engine.cancel_order(oid)


# -- Settlement ------------------------------------------------------------------------

def deviated_engine():
    """Pool seeded so a second open quotes at 1% deviation (u=50, kd=0.0004)."""
    engine = make_engine(make_config(deviation=DeviationParams(0.0004, 0.0)))
    engine.vault.deposit("lp", U(2000))
    open_position(engine, size=U(1000), collateral=U(100))  # utilization -> 50%
    return engine


def test_settle_at_exact_slippage_bound_fills():
    engine = deviated_engine()
    oid = engine.create_order("t2", OrderKind.MARKET_OPEN, Direction.LONG,
                              size=U(100), collateral=U(100),
                              acceptable_price=U(2000), max_slippage=U(1))
    receipt = engine.settle_order(oid, 0)
    assert receipt.executed_price == U(2020)   # 1.0% adverse, inclusive bound


def test_settle_beyond_slippage_reverts():
    engine = make_engine(make_config(deviation=DeviationParams(0.0005, 0.0)))
    engine.vault.deposit("lp", U(2000))
    open_position(engine, size=U(1000), collateral=U(100))  # u=50 -> 1.25%
    oid = engine.create_order("t2", OrderKind.MARKET_OPEN, Direction.LONG,
                              size=U(100), collateral=U(100),
                              acceptable_price=U(2000), max_slippage=U(1))
    with pytest.raises(SlippageExceeded):
        engine.settle_order(oid, 0)
    assert oid in engine.orders


@pytest.mark.parametrize("direction", [Direction.SHORT, Direction.LONG])
def test_a_sell_quote_below_one_base_unit_is_refused(direction):
    """At a 50% deviation a mark of 1 base unit quotes the bid at 0.5, which
    rounds half-even to 0: a short open or a long close there is a QuoteError
    that writes nothing, while a buy at that mark takes the ask of 2."""
    engine = make_engine(make_config(deviation=DeviationParams(0.0, 50.0)))
    engine.vault.deposit("lp", U(10000))
    if direction is Direction.SHORT:
        fields = dict(kind=OrderKind.MARKET_OPEN, size=U(1), collateral=U(1))
    else:
        pid = open_position(engine, size=U(1), collateral=U(1))
        fields = dict(kind=OrderKind.MARKET_CLOSE, position_id=pid)
    feed_both(engine, 1, LATER)
    oid = engine.create_order("t", direction=direction, acceptable_price=1,
                              max_slippage=U(100), **fields)
    before = fingerprint(engine)
    with pytest.raises(QuoteError):
        engine.settle_order(oid, LATER)
    assert fingerprint(engine) == before
    buy = engine.create_order("b", OrderKind.MARKET_OPEN, Direction.LONG, size=U(1),
                              collateral=U(1), acceptable_price=2, max_slippage=0)
    assert engine.settle_order(buy, LATER).executed_price == 2


def test_favorable_move_never_trips_slippage(engine):
    engine.vault.deposit("lp", U(10000))
    feed_both(engine, U(1900), 0)  # better than acceptable for a buy
    oid = engine.create_order("t", OrderKind.MARKET_OPEN, Direction.LONG,
                              size=U(100), collateral=U(100),
                              acceptable_price=U(2000), max_slippage=0)
    assert engine.settle_order(oid, 0).executed_price == U(1900)


def test_zero_deviation_executes_at_oracle_price(engine):
    engine.vault.deposit("lp", U(10000))
    pid = open_position(engine, price=2000)
    assert engine.positions[pid].entry_price == U(2000)


def test_open_interest_cap(engine):
    cfg = make_config(max_open_interest=U(500))
    engine = make_engine(cfg)
    engine.vault.deposit("lp", U(10000))
    feed_both(engine, U(2000), 0)
    oid = engine.create_order("t", OrderKind.MARKET_OPEN, Direction.LONG,
                              size=U(1000), collateral=U(100),
                              acceptable_price=U(2000), max_slippage=U(1))
    with pytest.raises(OpenInterestCapExceeded):
        engine.settle_order(oid, 0)


def test_exposure_cap():
    engine = make_engine(make_config(max_exposure=U(300)))
    engine.vault.deposit("lp", U(10000))
    feed_both(engine, U(2000), 0)
    oid = engine.create_order("t", OrderKind.MARKET_OPEN, Direction.LONG,
                              size=U(400), collateral=U(100),
                              acceptable_price=U(2000), max_slippage=U(1))
    with pytest.raises(ExposureCapExceeded):
        engine.settle_order(oid, 0)


@pytest.mark.parametrize("cap, error", [("max_open_interest", OpenInterestCapExceeded),
                                        ("max_exposure", ExposureCapExceeded)])
def test_an_open_may_land_exactly_on_a_cap(cap, error):
    """An open that brings its side's open interest, or the net exposure, to
    exactly the cap fills; one base unit more is refused."""
    def settle_long(size):
        engine = make_engine(make_config(**{cap: U(300)}))
        engine.vault.deposit("lp", U(10000))
        feed_both(engine, U(2000), 0)
        oid = engine.create_order("t", OrderKind.MARKET_OPEN, Direction.LONG,
                                  size=size, collateral=U(100),
                                  acceptable_price=U(2000), max_slippage=U(1))
        engine.settle_order(oid, 0)
        return engine

    assert settle_long(U(300)).pool.long_oi == U(300)
    with pytest.raises(error):
        settle_long(U(300) + 1)


def test_open_beyond_pool_is_insufficient_liquidity(engine):
    engine.vault.deposit("lp", U(500))
    feed_both(engine, U(2000), 0)
    oid = engine.create_order("t", OrderKind.MARKET_OPEN, Direction.LONG,
                              size=U(1000), collateral=U(100),
                              acceptable_price=U(2000), max_slippage=U(1))
    with pytest.raises(InsufficientLiquidity):
        engine.settle_order(oid, 0)


@pytest.mark.parametrize("size, fills", [(U(1007), True), (U(1008), False)])
def test_open_liquidity_counts_the_vaults_fee_share(size, fills):
    # a 1000 pool plus the vault's 75% of a 1% open fee backs at most ~1007.55
    engine = make_engine(make_config(open_close_fee_rate=U(1)),
                         treasury_fee_share=U(25))
    engine.vault.deposit("lp", U(1000))
    feed_both(engine, U(2000), 0)
    oid = engine.create_order("t", OrderKind.MARKET_OPEN, Direction.LONG,
                              size=size, collateral=U(200),
                              acceptable_price=U(2000), max_slippage=U(1))
    if fills:
        engine.settle_order(oid, 0)
        assert engine.pool.reserved == size <= engine.vault.total_assets
    else:
        with pytest.raises(InsufficientLiquidity):
            engine.settle_order(oid, 0)


def test_open_fee_reduces_position_collateral():
    engine = make_engine(make_config(open_close_fee_rate=U("0.1")))
    engine.vault.deposit("lp", U(10000))
    pid = open_position(engine)
    # 0.1% of size 1000 = 1 unit
    assert engine.positions[pid].collateral == U(99)
    assert engine.vault.total_assets == U(10001)


def test_open_fee_consuming_collateral_rejected():
    engine = make_engine(make_config(open_close_fee_rate=U(10)))
    engine.vault.deposit("lp", U(10000))
    feed_both(engine, U(2000), 0)
    # fee = 10% of 1000 = 100 >= collateral
    oid = engine.create_order("t", OrderKind.MARKET_OPEN, Direction.LONG,
                              size=U(1000), collateral=U(100),
                              acceptable_price=U(2000), max_slippage=U(1))
    with pytest.raises(InsufficientCollateral):
        engine.settle_order(oid, 0)


def test_close_round_trip_zero_fees(engine):
    engine.vault.deposit("lp", U(10000))
    pid = open_position(engine)
    feed_both(engine, U(2100), 10)
    oid = engine.create_order("t", OrderKind.MARKET_CLOSE, Direction.LONG,
                              acceptable_price=U(2100), max_slippage=U(1),
                              position_id=pid)
    receipt = engine.settle_order(oid, 10)
    assert receipt.realized_pnl == U(50)          # 1000 * 100/2000
    assert receipt.payout == U(150)
    assert engine.vault.total_assets == U(9950)   # profit paid by the pool
    assert not engine.positions
    assert engine.pool.reserved == engine.pool.long_oi == engine.pool.short_oi == 0


def test_close_requires_matching_owner_and_direction(engine):
    engine.vault.deposit("lp", U(10000))
    pid = open_position(engine)
    mismatched = engine.create_order("t", OrderKind.MARKET_CLOSE, Direction.SHORT,
                                     acceptable_price=U(2000),
                                     max_slippage=U(1), position_id=pid)
    with pytest.raises(DomainError):
        engine.settle_order(mismatched, 1)
    foreign = engine.create_order("someone_else", OrderKind.MARKET_CLOSE,
                                  Direction.LONG, acceptable_price=U(2000),
                                  max_slippage=U(1), position_id=pid)
    with pytest.raises(DomainError):
        engine.settle_order(foreign, 1)


def test_close_consumes_opposite_quote_side():
    engine = make_engine(make_config(deviation=DeviationParams(0.0004, 0.0)))
    engine.vault.deposit("lp", U(2000))
    pid = open_position(engine, size=U(1000), collateral=U(100))
    # u = 50 while the position is open: close of a long fills at the short quote
    oid = engine.create_order("t", OrderKind.MARKET_CLOSE, Direction.LONG,
                              acceptable_price=U(1980), max_slippage=U(1),
                              position_id=pid)
    receipt = engine.settle_order(oid, 5)
    assert receipt.executed_price == U(1980)


def test_close_nets_fees_against_trader_profit():
    # payout exceeds pool + collateral only before netting the fee pot back in:
    # pnl +1010 against a 1000-unit pool is payable because 10 of it returns
    # as borrow fee
    engine = make_engine(make_config(base_fee=BaseFeeParams(0.0, 36.5)))
    engine.lp_deposit("lp", U(1000), 0)
    pid = open_position(engine)
    t = 10 * DAY
    feed_both(engine, U(4020), t)
    oid = engine.create_order("t", OrderKind.MARKET_CLOSE, Direction.LONG,
                              acceptable_price=U(4020), max_slippage=U(1),
                              position_id=pid)
    receipt = engine.settle_order(oid, t)
    assert receipt.borrow_fee_paid == U(10)
    assert receipt.payout == U(1100)
    assert engine.vault.total_assets == 0   # pool fully consumed, not insolvent


def test_trader_gain_equals_vault_loss_and_vice_versa(engine):
    engine.vault.deposit("lp", U(10000))
    before = engine.vault.total_assets
    pid = open_position(engine)
    feed_both(engine, U(1950), 10)
    oid = engine.create_order("t", OrderKind.MARKET_CLOSE, Direction.LONG,
                              acceptable_price=U(1950), max_slippage=U(1),
                              position_id=pid)
    receipt = engine.settle_order(oid, 10)
    assert receipt.realized_pnl == -U(25)
    assert engine.vault.total_assets - before == U(25)


# -- Equity / liquidation ------------------------------------------------------------

def equity_fixture(direction=Direction.LONG):
    state = pool(long_oi=U(1000) if direction is Direction.LONG else 0,
                 short_oi=0 if direction is Direction.LONG else U(1000))
    position = Position(1, "t", direction, U(1000), U(100), U(2000), 0)
    return position, state


def test_equity_flat_market_equals_collateral():
    position, state = equity_fixture()
    assert position_equity(position, state, U(2000)) == U(100)


def test_equity_long_drawdown_example():
    position, state = equity_fixture()
    # Fraction oracle: pnl = 1000*(1822-2000)/2000 = -89
    assert Fraction(1000 * (1822 - 2000), 2000) == -89
    assert position_equity(position, state, U(1822)) == U(11)


def test_equity_short_mirror():
    position, state = equity_fixture(Direction.SHORT)
    assert position_equity(position, state, U(1822)) == U(189)


def test_check_liquidation_boundary():
    cfg = make_config()
    position, state = equity_fixture()
    assert not check_liquidation(position, state, cfg, U(1822))  # equity 11 > 10
    assert check_liquidation(position, state, cfg, U(1820))      # equity 10 <= 10


def test_zero_maintenance_margin_never_liquidates_positive_equity():
    cfg = make_config(maintenance_margin_rate=0)
    position, state = equity_fixture()
    assert not check_liquidation(position, state, cfg, U(1822))
    assert check_liquidation(position, state, cfg, U(1800))  # equity 0 boundary


def test_liquidation_monotone_in_mark_price():
    cfg = make_config()
    position, state = equity_fixture()
    flags = [check_liquidation(position, state, cfg, U(mark))
             for mark in range(1700, 2000, 10)]
    # once healthy, stays healthy as the mark rises
    assert flags == sorted(flags, reverse=True)


def liquidation_engine(liq_fee_rate=U(10)):
    engine = make_engine(make_config(liquidation_fee_rate=liq_fee_rate))
    engine.vault.deposit("lp", U(10000))
    open_position(engine)
    return engine


def test_liquidate_boundary_case_fee_and_refund():
    engine = liquidation_engine()
    feed_both(engine, U(1820), 10)        # equity exactly 10
    receipt = engine.liquidate(1, 10)
    assert receipt.liquidation_fee == U(1)
    assert receipt.payout == U(9)
    assert receipt.realized_pnl == -U(90)
    # vault gains the trader loss; the fee routes back into the pool
    assert engine.vault.total_assets == U(10000) + U(90) + U(1)
    assert not engine.positions


def test_liquidate_negative_equity_truncates():
    engine = liquidation_engine()
    feed_both(engine, U(1700), 10)        # pnl -150 < -collateral
    receipt = engine.liquidate(1, 10)
    assert receipt.liquidation_fee == 0
    assert receipt.payout == 0
    # vault absorbs the shortfall: it only ever receives the escrowed 100
    assert engine.vault.total_assets == U(10000) + U(100)


def test_liquidate_healthy_position_rejected():
    engine = liquidation_engine()
    feed_both(engine, U(1990), 10)
    with pytest.raises(NotLiquidatable):
        engine.liquidate(1, 10)
    with pytest.raises(UnknownPosition):
        engine.liquidate(99, 10)


# -- Triggers ------------------------------------------------------------------------

@pytest.mark.parametrize("kind,direction,trigger,mark,expected", [
    (OrderKind.STOP_LOSS, Direction.LONG, 1900, 1899, True),
    (OrderKind.STOP_LOSS, Direction.LONG, 1900, 1900, True),   # touch counts
    (OrderKind.STOP_LOSS, Direction.LONG, 1900, 1901, False),
    (OrderKind.TAKE_PROFIT, Direction.LONG, 2100, 2099, False),
    (OrderKind.TAKE_PROFIT, Direction.LONG, 2100, 2100, True),
    (OrderKind.STOP_LOSS, Direction.SHORT, 2100, 2101, True),
    (OrderKind.TAKE_PROFIT, Direction.SHORT, 1900, 1899, True),
    (OrderKind.LIMIT_OPEN, Direction.LONG, 1950, 1949, True),
    (OrderKind.LIMIT_OPEN, Direction.LONG, 1950, 1951, False),
    (OrderKind.LIMIT_OPEN, Direction.SHORT, 2050, 2051, True),
])
def test_trigger_rules(kind, direction, trigger, mark, expected):
    assert trigger_met(kind, direction, U(trigger), U(mark)) is expected


def test_evaluate_triggers_returns_ready_orders(engine):
    engine.vault.deposit("lp", U(10000))
    pid = open_position(engine)
    sl = engine.create_order("t", OrderKind.STOP_LOSS, Direction.LONG,
                             position_id=pid, trigger_price=U(1900),
                             max_slippage=U(5))
    tp = engine.create_order("t", OrderKind.TAKE_PROFIT, Direction.LONG,
                             position_id=pid, trigger_price=U(2100),
                             max_slippage=U(5))
    assert engine.evaluate_triggers(U(2000)) == []
    assert engine.evaluate_triggers(U(1900)) == [sl]
    assert engine.evaluate_triggers(U(2150)) == [tp]
    # two ready orders come back in id order, behind a market order that never fires
    engine.create_order("t", OrderKind.MARKET_CLOSE, Direction.LONG,
                        position_id=pid, acceptable_price=U(2000))
    sl2 = engine.create_order("t", OrderKind.STOP_LOSS, Direction.LONG,
                              position_id=pid, trigger_price=U(1950),
                              max_slippage=U(5))
    assert engine.evaluate_triggers(U(1900)) == [sl, sl2]


def test_settling_untriggered_order_fails(engine):
    engine.vault.deposit("lp", U(10000))
    pid = open_position(engine)
    sl = engine.create_order("t", OrderKind.STOP_LOSS, Direction.LONG,
                             position_id=pid, trigger_price=U(1900),
                             max_slippage=U(5))
    feed_both(engine, U(2000), 5)
    with pytest.raises(TriggerNotMet):
        engine.settle_order(sl, 5)
    feed_both(engine, U(1890), 6)
    receipt = engine.settle_order(sl, 6)
    assert receipt.executed_price == U(1890)


# A few prices a unit apart, so trigger prices repeat and marks land on,
# just beside and far from them.
TRIGGER_PRICES = [U(1990), U(2000) - 1, U(2000), U(2000) + 1, U(2010)]

create_step = st.tuples(st.just("create"), st.sampled_from(list(OrderKind)),
                        st.sampled_from(list(Direction)),
                        st.sampled_from(TRIGGER_PRICES), st.integers(0, 50))
cancel_step = st.tuples(st.just("cancel"), st.integers(0, 50))
settle_step = st.tuples(st.just("settle"), st.integers(0, 50),
                        st.sampled_from(TRIGGER_PRICES))


def brute_force_triggers(engine, mark):
    return [oid for oid, o in engine.orders.items()
            if trigger_met(o.kind, o.direction, o.trigger_price, mark)]


def pick_order(engine, ref):
    """A pending order's id, or an unknown id when ref is 0 or none is pending."""
    oids = sorted(engine.orders)
    return oids[ref % len(oids)] if ref and oids else 10**6


def probe_marks(engine):
    prices = {o.trigger_price for o in engine.orders.values()} | set(TRIGGER_PRICES)
    marks = {p + d for p in prices for d in (-1, 0, 1)}
    return sorted(marks | {1, U(10**9)})


@settings(max_examples=150, deadline=None)
@given(steps=st.lists(st.one_of(create_step, create_step, cancel_step, settle_step,
                                settle_step), min_size=10, max_size=60))
def test_trigger_index_matches_brute_force(steps):
    """After any interleaving of creates, cancels and settles, the trigger
    book answers like a scan of every pending order, at and beside every
    trigger price and far from all of them; a failed settle moves neither."""
    engine = make_engine()
    engine.vault.deposit("lp", U(10**6))
    for t, step in enumerate(steps, start=1):
        if step[0] == "create":
            _, kind, direction, price, ref = step
            trigger = kind in TRIGGER_KINDS
            fields = dict(trigger_price=price if trigger else 0,
                          acceptable_price=0 if trigger else U(2000),
                          max_slippage=U(100))
            if kind in OPEN_KINDS:
                fields.update(size=U(10), collateral=U(10))
            else:
                # an open position (of either direction) or an unknown one
                pids = sorted(engine.positions) + [999]
                fields.update(position_id=pids[ref % len(pids)])
            engine.create_order("t", kind, direction, **fields)
        elif step[0] == "cancel":
            oid = pick_order(engine, step[1])
            if oid in engine.orders:
                engine.cancel_order(oid)
            else:
                with pytest.raises(UnknownOrder):
                    engine.cancel_order(oid)
        else:
            _, ref, price = step
            feed_both(engine, price, t)
            oid = pick_order(engine, ref)
            marks = probe_marks(engine)
            before = (dict(engine.orders), [engine.evaluate_triggers(m) for m in marks])
            try:
                engine.settle_order(oid, t)
            except ProtocolError:
                after = (dict(engine.orders), [engine.evaluate_triggers(m) for m in marks])
                assert after == before
            else:
                assert oid not in engine.orders
        for mark in probe_marks(engine):
            assert engine.evaluate_triggers(mark) == brute_force_triggers(engine, mark)


def test_evaluate_triggers_reads_only_ready_orders(monkeypatch):
    """10**4 resting triggers the mark has not crossed cost no trigger checks."""
    engine = make_engine()
    far = [(OrderKind.LIMIT_OPEN, Direction.LONG, U(1000)),
           (OrderKind.LIMIT_OPEN, Direction.SHORT, U(3000)),
           (OrderKind.STOP_LOSS, Direction.LONG, U(1000)),
           (OrderKind.STOP_LOSS, Direction.SHORT, U(3000)),
           (OrderKind.TAKE_PROFIT, Direction.LONG, U(3000)),
           (OrderKind.TAKE_PROFIT, Direction.SHORT, U(1000))]
    for i in range(10**4):
        kind, direction, trigger = far[i % len(far)]
        if kind is OrderKind.LIMIT_OPEN:
            engine.create_order("t", kind, direction, size=U(10), collateral=U(10),
                                trigger_price=trigger)
        else:
            engine.create_order("t", kind, direction, position_id=1,
                                trigger_price=trigger)
    calls = 0
    original = perpamm.engine.trigger_met

    def counting(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(perpamm.engine, "trigger_met", counting)
    assert engine.evaluate_triggers(U(2000)) == []
    assert calls <= 8
    ready = engine.create_order("t", OrderKind.STOP_LOSS, Direction.LONG,
                                position_id=1, trigger_price=U(2000))
    assert engine.evaluate_triggers(U(2000)) == [ready]
    assert calls <= 1 + 8


# -- Atomicity under fault injection ------------------------------------------------

def fingerprint(engine: Engine):
    return (
        engine.vault.total_assets, engine.vault.total_shares,
        dict(engine.vault.balances), dict(engine.positions), dict(engine.orders),
        dict(engine.escrow), engine.pool, engine.open_collateral, engine.treasury,
        engine._next_order_id, engine._next_position_id,
        list(engine._fires_below), list(engine._fires_above),
    )


# Every case sets up at t=0 under nonzero borrow rates and fails later, so an
# accrual committed before the raise would move the fingerprint.
LATER = 60


def rated_engine(**overrides) -> Engine:
    return make_engine(make_config(base_fee=BaseFeeParams(0.0, 36.5), **overrides))


def pending_open(engine, size=U(100), collateral=U(100)):
    return engine.create_order("t", OrderKind.MARKET_OPEN, Direction.LONG,
                               size=size, collateral=collateral,
                               acceptable_price=U(2000), max_slippage=U(1))


def test_every_error_site_leaves_state_untouched():
    def stale_feed():
        engine = rated_engine()
        engine.vault.deposit("lp", U(10000))
        oid = pending_open(engine)
        return engine, lambda: engine.settle_order(oid, LATER), StaleFeed

    def feed_disagreement():
        engine = rated_engine()
        engine.vault.deposit("lp", U(10000))
        engine.feeds.ingest(PricePoint("primary", U(2000), 0))
        engine.feeds.ingest(PricePoint("secondary", U(2100), 0))
        oid = pending_open(engine)
        return engine, lambda: engine.settle_order(oid, LATER), DeviationTooHigh

    def slippage():
        engine = rated_engine(deviation=DeviationParams(0.0005, 0.0))
        engine.vault.deposit("lp", U(2000))
        open_position(engine, size=U(1000), collateral=U(100))
        oid = pending_open(engine)
        return engine, lambda: engine.settle_order(oid, LATER), SlippageExceeded

    def oi_cap():
        engine = rated_engine(max_open_interest=U(50))
        engine.vault.deposit("lp", U(10000))
        feed_both(engine, U(2000), 0)
        oid = pending_open(engine)
        return engine, lambda: engine.settle_order(oid, LATER), OpenInterestCapExceeded

    def exposure_cap():
        engine = rated_engine(max_exposure=U(50))
        engine.vault.deposit("lp", U(10000))
        feed_both(engine, U(2000), 0)
        oid = pending_open(engine)
        return engine, lambda: engine.settle_order(oid, LATER), ExposureCapExceeded

    def liquidity():
        engine = rated_engine()
        engine.vault.deposit("lp", U(50))
        feed_both(engine, U(2000), 0)
        oid = pending_open(engine)
        return engine, lambda: engine.settle_order(oid, LATER), InsufficientLiquidity

    def fee_eats_collateral():
        engine = rated_engine(open_close_fee_rate=U(10))
        engine.vault.deposit("lp", U(10000))
        feed_both(engine, U(2000), 0)
        oid = pending_open(engine, size=U(1000))
        return engine, lambda: engine.settle_order(oid, LATER), InsufficientCollateral

    def missing_position():
        engine = rated_engine()
        engine.vault.deposit("lp", U(10000))
        feed_both(engine, U(2000), 0)
        oid = engine.create_order("t", OrderKind.MARKET_CLOSE, Direction.LONG,
                                  acceptable_price=U(2000), max_slippage=U(1),
                                  position_id=9)
        return engine, lambda: engine.settle_order(oid, LATER), UnknownPosition

    def foreign_close():
        engine = rated_engine()
        engine.vault.deposit("lp", U(10000))
        pid = open_position(engine)
        oid = engine.create_order("someone_else", OrderKind.MARKET_CLOSE,
                                  Direction.LONG, acceptable_price=U(2000),
                                  max_slippage=U(1), position_id=pid)
        return engine, lambda: engine.settle_order(oid, LATER), DomainError

    def close_wrong_direction():
        engine = rated_engine()
        engine.vault.deposit("lp", U(10000))
        pid = open_position(engine)
        oid = engine.create_order("t", OrderKind.MARKET_CLOSE, Direction.SHORT,
                                  acceptable_price=U(2000), max_slippage=U(1),
                                  position_id=pid)
        return engine, lambda: engine.settle_order(oid, LATER), DomainError

    def untriggered():
        engine = rated_engine()
        engine.vault.deposit("lp", U(10000))
        pid = open_position(engine)
        oid = engine.create_order("t", OrderKind.STOP_LOSS, Direction.LONG,
                                  position_id=pid, trigger_price=U(1900),
                                  max_slippage=U(5))
        feed_both(engine, U(2000), 1)
        return engine, lambda: engine.settle_order(oid, LATER), TriggerNotMet

    def not_liquidatable():
        engine = rated_engine(liquidation_fee_rate=U(10))
        engine.vault.deposit("lp", U(10000))
        open_position(engine)
        feed_both(engine, U(1990), 1)
        return engine, lambda: engine.liquidate(1, LATER), NotLiquidatable

    def vault_insolvent():
        engine = rated_engine()
        engine.vault.deposit("lp", U(200))
        pid = open_position(engine, size=U(100), collateral=U(100))
        feed_both(engine, U(8000), 10)   # pnl +300 > pool
        oid = engine.create_order("t", OrderKind.MARKET_CLOSE, Direction.LONG,
                                  acceptable_price=U(8000), max_slippage=U(5),
                                  position_id=pid)
        return engine, lambda: engine.settle_order(oid, LATER), InsolventVault

    def liquidation_insolvent():
        # a year at 365%: the long owes 1825 and is liquidatable despite pnl
        # +1000; its 1050 of collected fees all go to the treasury, so the
        # vault pays 1000 out of 1000 while the short still reserves 500
        engine = make_engine(make_config(base_fee=BaseFeeParams(0.0, 365.0)),
                             treasury_fee_share=U(100))
        engine.vault.deposit("lp", U(1000))
        pid = open_position(engine, size=U(500), collateral=U(50))
        open_position(engine, size=U(500), collateral=U(50), direction=Direction.SHORT)
        feed_both(engine, U(6000), SECONDS_PER_YEAR)
        return (engine, lambda: engine.liquidate(pid, SECONDS_PER_YEAR),
                InsolventVault)

    def redeem_strands_reserved():
        engine = rated_engine()
        engine.vault.deposit("lp", U(1000))
        open_position(engine, size=U(800), collateral=U(100))
        shares = engine.vault.balances["lp"]
        return (engine, lambda: engine.lp_redeem("lp", shares // 2, LATER),
                InsufficientLiquidity)

    def deposit_mints_zero():
        engine = rated_engine()
        engine.vault.deposit("lp", 1)
        engine.vault.credit(U(1000))    # one share now prices at 1000 units
        return engine, lambda: engine.lp_deposit("x", 1, LATER), ZeroShareMint

    def accrued_past_call():
        engine = rated_engine()
        engine.vault.deposit("lp", U(10000))
        pid = open_position(engine)
        oid = engine.create_order("t", OrderKind.MARKET_CLOSE, Direction.LONG,
                                  acceptable_price=U(2000), max_slippage=U(1),
                                  position_id=pid)
        engine.accrue(LATER + 1)
        return engine, pid, oid

    def settle_clock_regression():
        engine, _, oid = accrued_past_call()
        return engine, lambda: engine.settle_order(oid, LATER), ClockRegression

    def liquidate_clock_regression():
        engine, pid, _ = accrued_past_call()
        return engine, lambda: engine.liquidate(pid, LATER), ClockRegression

    def deposit_clock_regression():
        engine, _, _ = accrued_past_call()
        return engine, lambda: engine.lp_deposit("lp", U(1), LATER), ClockRegression

    for build in (stale_feed, feed_disagreement, slippage, oi_cap, exposure_cap,
                  liquidity, fee_eats_collateral, missing_position, foreign_close,
                  close_wrong_direction, untriggered, not_liquidatable,
                  vault_insolvent, liquidation_insolvent, redeem_strands_reserved,
                  deposit_mints_zero, settle_clock_regression,
                  liquidate_clock_regression, deposit_clock_regression):
        engine, call, error = build()
        before = fingerprint(engine)
        with pytest.raises(error):
            call()
        assert fingerprint(engine) == before, build.__name__
        if error is not ClockRegression:
            # the test has teeth: accruing alone changes the fingerprint
            engine.accrue(LATER)
            assert fingerprint(engine) != before, build.__name__


def test_deposit_into_a_drained_vault_is_a_domain_error():
    """A close can pay out the whole pool (reserved is then 0) and leave
    shares outstanding against no assets; a deposit then reverts, as
    EIP-4626's division does, and writes nothing."""
    engine = make_engine()
    engine.vault.deposit("lp", U(1000))
    pid = open_position(engine, size=U(1000), collateral=U(1000))
    feed_both(engine, U(4000), LATER)
    oid = engine.create_order("t", OrderKind.MARKET_CLOSE, Direction.LONG,
                              acceptable_price=U(4000), max_slippage=U(1),
                              position_id=pid)
    assert engine.settle_order(oid, LATER).payout == U(2000)
    assert (engine.vault.total_assets, engine.vault.total_shares) == (0, U(1000))
    before = fingerprint(engine)
    with pytest.raises(DomainError, match="no assets"):
        engine.lp_deposit("x", U(5), 2 * LATER)
    assert fingerprint(engine) == before


def test_calls_do_not_copy_the_book():
    """Peak allocation of a call does not grow with open positions.

    10**4 positions leave the positions dict short of its next resize (at
    10,922 entries), so even a successful open allocates no new table.
    """
    engine = make_engine()
    engine.vault.deposit("lp", U(10**8))
    for _ in range(10**4):
        open_position(engine)
    assert len(engine.positions) == 10**4

    def peak_bytes(call, error=None) -> int:
        tracemalloc.start()
        try:
            if error is None:
                call()
            else:
                with pytest.raises(error):
                    call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    too_big = pending_open(engine, size=U(2 * 10**8), collateral=U(2 * 10**7))
    assert peak_bytes(lambda: engine.settle_order(too_big, 0),
                      InsufficientLiquidity) < 64 * 1024
    assert peak_bytes(lambda: engine.liquidate(1, 0), NotLiquidatable) < 64 * 1024
    assert peak_bytes(lambda: open_position(engine)) < 64 * 1024
    assert len(engine.positions) == 10**4 + 1


# -- LP flows and fee routing ---------------------------------------------------------

def test_lp_redeem_cannot_strand_reserved_liquidity(engine):
    engine.vault.deposit("lp", U(1000))
    open_position(engine, size=U(800), collateral=U(100))
    shares = engine.vault.balances["lp"]
    with pytest.raises(InsufficientLiquidity):
        engine.lp_redeem("lp", shares // 2, 1)   # would leave 500 < 800 reserved
    assert engine.lp_redeem("lp", shares // 10, 1) == U(100)


def test_treasury_share_splits_fee_routing():
    cfg = make_config(open_close_fee_rate=U(1))
    engine = make_engine(cfg, treasury_fee_share=U(25))
    engine.vault.deposit("lp", U(10000))
    open_position(engine)
    # fee = 1% of 1000 = 10; treasury floor(10*25%) = 2.5 -> 2.5 units exact
    assert engine.treasury == U("2.5")
    assert engine.vault.total_assets == U(10000) + U("7.5")


def test_engine_accrue_rejects_clock_regression(engine):
    engine.vault.deposit("lp", U(100))
    engine.accrue(50)
    with pytest.raises(ClockRegression):
        engine.accrue(49)


def test_engine_rejects_invalid_config():
    # no engine gets an unsound config: building the config raises
    with pytest.raises(ConfigError, match="invalid market config: max_leverage must be >= 1"):
        make_engine(make_config(max_leverage=0))


# -- Consistency across a random session ----------------------------------------------

def test_oi_matches_open_positions_throughout():
    rng = random.Random(123)
    engine = make_engine()
    engine.vault.deposit("lp", U(1_000_000))
    t = 0
    for step in range(300):
        t += rng.randint(1, 100)
        price = 2000 + rng.randint(-200, 200)
        feed_both(engine, U(price), t)
        roll = rng.random()
        try:
            if roll < 0.5:
                size = U(rng.randint(1, 2000))
                collateral = max(size // 10, 1)
                direction = rng.choice([Direction.LONG, Direction.SHORT])
                oid = engine.create_order("t", OrderKind.MARKET_OPEN, direction,
                                          size=size, collateral=collateral,
                                          acceptable_price=U(price),
                                          max_slippage=U(50))
                engine.settle_order(oid, t)
            elif engine.positions:
                pid = rng.choice(sorted(engine.positions))
                position = engine.positions[pid]
                oid = engine.create_order("t", OrderKind.MARKET_CLOSE,
                                          position.direction,
                                          acceptable_price=U(price),
                                          max_slippage=U(50), position_id=pid)
                engine.settle_order(oid, t)
        except InsolventVault:
            break
        longs = sum(p.size for p in engine.positions.values()
                    if p.direction is Direction.LONG)
        shorts = sum(p.size for p in engine.positions.values()
                     if p.direction is Direction.SHORT)
        assert engine.pool.long_oi == longs
        assert engine.pool.short_oi == shorts
        assert engine.pool.reserved == longs + shorts
        assert engine.pool.reserved <= engine.vault.total_assets
