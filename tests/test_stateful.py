"""Stateful invariants: random interleavings of every engine entry point.

A Hypothesis rule-based machine drives one engine through deposits,
redeems, market and limit opens, market closes, stop-losses and
take-profits (left behind when their position closes some other way),
cancels, settles, trigger passes, single and sweep liquidations, feed moves
inside and across both oracle bands, stale gaps, time steps, and a close
whose payout takes the whole pool. After every step it checks:

* conservation: cash + escrow + open collateral + vault + treasury = 0;
* reserved == long OI + short OI <= vault assets, the open interest being
  that of the open positions (so `accrue_fees` never sees open interest in
  an empty pool);
* the trigger book answers like a scan of every pending order;
* a sweep's `Engine.liquidatable` ids are those a one-by-one sweep does not
  find healthy;
* a call that raises leaves the engine's fingerprint unchanged;
* borrow fees match an exact model: the machine integrates each side's rate
  over time in `Fraction`s, and each index accrued to now equals that
  integral, and each open position owes size * (integral now - integral at
  its entry), rounded half-even;
* every numeric field of the pool and of each position is an int.

The market has zero price deviation, so a fill executes at the oracle mark
and the draining close can be priced exactly.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from conftest import feed_both, ledger_sum, make_config, make_engine
from perpamm.curves import BaseFeeParams, DynamicFeeParams
from perpamm.engine import Direction, OrderKind, accrue_fees, pool_metrics, position_equity
from perpamm.errors import InsolventVault, NotLiquidatable, ProtocolError
from perpamm.money import FEE_INDEX_SCALE, SECONDS_PER_YEAR, pct_of, to_units
from perpamm.oracle import PRIMARY, PricePoint
from test_engine import brute_force_triggers, fingerprint, probe_marks

U = to_units

CONFIG = make_config(
    base_fee=BaseFeeParams(0.005, 20.0),          # 20%/yr idle, 70%/yr at full use
    dynamic_fee=DynamicFeeParams(300, 0.0125),
    max_open_interest=U(40_000),
    max_leverage=U(20),
    max_exposure=U(30_000),
    maintenance_margin_rate=U(4),
    open_close_fee_rate=U("0.1"),
    liquidation_fee_rate=U(5),
)
TREASURY_SHARE = U(25)

LPS = st.sampled_from(["lp0", "lp1"])
TRADERS = st.sampled_from(["t0", "t1"])
DIRECTIONS = st.sampled_from(Direction)
PICK = st.integers(0, 2**16)           # which position or order, or an unknown id
OFFSET = st.integers(-100, 100)        # a trigger price's distance from the mark, 0.1%s
# Menus rather than bare ranges, busy values first: Hypothesis favours small
# integers and a menu's first entries, which would otherwise keep every
# amount at one base unit, every position at 1x and every price still.
ASSETS = st.sampled_from([U(20_000), U(1_000), U(1), 1]) | st.integers(1, U(50_000))
SIZE = st.sampled_from([U(2_000), U(5_000), U(500), U(10), 1])
LEVERAGE = st.sampled_from([20, 10, 19, 5, 2, 1, 21])
# in 0.1%s; +150% lets a long's profit pass its own reservation, the one
# way a trader close can find the vault insolvent
MOVE = st.sampled_from([-40, 40, -80, 80, -15, 15, 1500, -1, 1, 0])
# a share of the balance, or None: every share whose assets are not reserved
REDEEM = st.sampled_from([Fraction(1, 3), Fraction(1), None])
# secondary feed deviation from the primary, in 0.01%: 0.1% and 1% are the band edges
BAND = st.sampled_from([0, 5, 10, 11, 50, 100, 101, 300])
# a clock step in seconds; 3601 passes max_age, so a step without a publish leaves the feeds stale
DT = st.sampled_from([0, 1, 60, 3600, 3601, 86_400, 30 * 86_400])


def shifted(price: int, tenths_pct: int) -> int:
    return max(price + price * tenths_pct // 1000, 1)


def has_positions(machine) -> bool:
    return bool(machine.engine.positions)


def has_orders(machine) -> bool:
    return bool(machine.engine.orders)


class EngineMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.engine = make_engine(CONFIG, treasury_fee_share=TREASURY_SHARE)
        self.now = 0
        self.price = U(2000)
        self.cash = {name: 0 for name in ("lp0", "lp1", "t0", "t1")}
        self.drained = False
        # the exact fee model: per side, the integral of its annual rate (a
        # Fraction of size) up to `model_time`, and the rates, in nanos of a
        # percent, that hold from then on; the integral at each position's entry
        self.model_time = 0
        self.integral = {side: Fraction(0) for side in Direction}
        self.rates = {side: 0 for side in Direction}
        self.entry_integral: dict[int, Fraction] = {}
        feed_both(self.engine, self.price, self.now)
        self.deposit("lp0", U(20_000))
        self.fees_match_the_exact_model()

    # -- helpers -------------------------------------------------------------

    def attempt(self, call):
        """(result, None), or (None, error) when the call raised; then it wrote nothing."""
        before = fingerprint(self.engine)
        try:
            return call(), None
        except ProtocolError as exc:
            assert fingerprint(self.engine) == before
            return None, exc

    def pick(self, ids, ref: int, unknown=10**6):
        """One of `ids` in order, or, one time in len(ids) + 1, `unknown`."""
        ids = sorted(ids) + [unknown]
        return ids[ref % len(ids)]

    def settle(self, order_id: int) -> ProtocolError | None:
        order = self.engine.orders.get(order_id)
        receipt, error = self.attempt(lambda: self.engine.settle_order(order_id, self.now))
        if error is None:
            self.cash[order.owner] += receipt.payout
        return error

    # -- LP flows --------------------------------------------------------------

    @rule(account=LPS, assets=ASSETS)
    def deposit(self, account, assets):
        _, error = self.attempt(lambda: self.engine.lp_deposit(account, assets, self.now))
        if error is None:
            self.cash[account] -= assets

    @precondition(lambda self: self.engine.vault.total_shares)
    @rule(ref=PICK, fraction=REDEEM)
    def redeem(self, ref, fraction):
        vault = self.engine.vault
        account = self.pick(vault.balances, ref, unknown="lp-without-shares")
        balance = vault.balances.get(account, 0)
        if fraction is None and vault.total_assets:
            free = vault.total_assets - self.engine.pool.reserved
            shares = min(balance, free * vault.total_shares // vault.total_assets)
        elif fraction is None:
            shares = balance          # worthless shares, none of them locked
        else:
            shares = int(balance * fraction)
        assets, error = self.attempt(lambda: self.engine.lp_redeem(account, shares, self.now))
        if error is None:
            self.cash[account] += assets

    # -- orders ----------------------------------------------------------------

    @rule(owner=TRADERS, direction=DIRECTIONS, size=SIZE,
          leverage=LEVERAGE, limit=st.booleans(), offset=OFFSET)
    def open(self, owner, direction, size, leverage, limit, offset):
        collateral = max(size // leverage, 1)
        if limit:
            fields = dict(trigger_price=shifted(self.price, offset))
            kind = OrderKind.LIMIT_OPEN
        else:
            fields = dict(acceptable_price=self.price, max_slippage=U(5))
            kind = OrderKind.MARKET_OPEN
        order_id, error = self.attempt(lambda: self.engine.create_order(
            owner, kind, direction, size=size, collateral=collateral, **fields))
        if error is None:
            self.cash[owner] -= collateral
            if not limit:
                self.settle(order_id)

    @precondition(has_positions)
    @rule(ref=PICK)
    def close(self, ref):
        pid = self.pick(self.engine.positions, ref)
        pos = self.engine.positions.get(pid)
        owner, direction = (pos.owner, pos.direction) if pos else ("t0", Direction.LONG)
        order_id, error = self.attempt(lambda: self.engine.create_order(
            owner, OrderKind.MARKET_CLOSE, direction, acceptable_price=self.price,
            max_slippage=U(5), position_id=pid))
        if error is None:
            self.settle(order_id)

    @precondition(has_positions)
    @rule(ref=PICK, take_profit=st.booleans(), offset=OFFSET)
    def attach(self, ref, take_profit, offset):
        pid = self.pick(self.engine.positions, ref)
        pos = self.engine.positions.get(pid)
        owner, direction = (pos.owner, pos.direction) if pos else ("t0", Direction.LONG)
        kind = OrderKind.TAKE_PROFIT if take_profit else OrderKind.STOP_LOSS
        self.attempt(lambda: self.engine.create_order(
            owner, kind, direction, trigger_price=shifted(self.price, offset),
            max_slippage=U(20), position_id=pid))

    @precondition(has_orders)
    @rule(ref=PICK)
    def cancel(self, ref):
        order_id = self.pick(self.engine.orders, ref)
        order = self.engine.orders.get(order_id)
        refund, error = self.attempt(lambda: self.engine.cancel_order(order_id))
        assert (error is None) == (order is not None)
        if error is None:
            self.cash[order.owner] += refund

    @precondition(has_orders)
    @rule(ref=PICK)
    def settle_pending(self, ref):
        self.settle(self.pick(self.engine.orders, ref))

    @precondition(has_orders)
    @rule()
    def trigger_pass(self):
        """Settle every order ready at the mark, as the scenario runner does."""
        for order_id in self.engine.evaluate_triggers(self.price):
            self.settle(order_id)

    # -- liquidation -----------------------------------------------------------

    def liquidate_one(self, pid: int) -> ProtocolError | None:
        pos = self.engine.positions.get(pid)
        receipt, error = self.attempt(lambda: self.engine.liquidate(pid, self.now))
        if error is None:
            self.cash[pos.owner] += receipt.payout
        return error

    @precondition(has_positions)
    @rule(ref=PICK)
    def liquidate(self, ref):
        """A keeper checks one position, most likely the one nearest liquidation."""
        engine = self.engine
        mark = engine.feeds.get(PRIMARY).price
        pool = accrue_fees(engine.pool, engine.vault.total_assets, CONFIG, self.now)
        margins = {pid: position_equity(pos, pool, mark) / pos.size
                   for pid, pos in engine.positions.items()}
        ranked = sorted(margins, key=margins.get) + [10**6]
        self.liquidate_one(ranked[ref % len(ranked)])

    @precondition(has_positions)
    @rule()
    def sweep(self):
        """Liquidate every position one by one; those not refused as healthy are
        the ones `liquidatable` flags, in id order, and asking wrote nothing."""
        before = fingerprint(self.engine)
        flagged = self.engine.liquidatable(self.now)
        assert fingerprint(self.engine) == before
        tried = [pid for pid in sorted(self.engine.positions)
                 if not isinstance(self.liquidate_one(pid), NotLiquidatable)]
        assert tried == flagged

    # -- market and clock ------------------------------------------------------

    @rule(move=MOVE, band=BAND, above=st.booleans())
    def move_feeds(self, move, band, above):
        """Move the primary by `move` 0.1%s; the secondary sits `band` 0.01%s away."""
        self.price = shifted(self.price, move)
        gap = self.price * band // 10_000
        self.engine.feeds.ingest(PricePoint("primary", self.price, self.now))
        self.engine.feeds.ingest(PricePoint(
            "secondary", self.price + gap if above else max(self.price - gap, 1), self.now))

    @rule(dt=DT, publish=st.booleans(), move=MOVE)
    def advance(self, dt, publish, move):
        """Step the clock, then publish a moved price on both feeds; without a
        publish, a step past max_age leaves the feeds stale."""
        self.now += dt
        if publish:
            self.price = shifted(self.price, move)
            feed_both(self.engine, self.price, self.now)

    @precondition(lambda self: not self.drained and self.engine.treasury
                  and not self.engine.positions and self.price <= U(10_000)
                  and self.engine.vault.total_assets >= 2 * self.price)
    @rule()
    def drain(self):
        """Open a long of size == entry price, so pnl == exit - entry, and close
        it where the payout takes the whole pool: assets 0, shares left. One
        unit higher, the close finds the vault insolvent and writes nothing.
        Once a run, after some trading (the treasury holds a fee): trading
        then stops until the LPs redeem their worthless shares."""
        self.drained = True
        engine, entry = self.engine, self.price
        feed_both(engine, entry, self.now)
        open_id = engine.create_order("t0", OrderKind.MARKET_OPEN, Direction.LONG,
                                      size=entry, collateral=entry,
                                      acceptable_price=entry, max_slippage=0)
        self.cash["t0"] -= entry
        assert self.settle(open_id) is None
        # nothing accrued since the open, so the close nets the vault
        # -(pnl) + close fee - treasury cut; pick pnl to make that -assets
        close_fee = pct_of(entry, CONFIG.open_close_fee_rate)
        cut = close_fee * TREASURY_SHARE // U(100)
        exit_price = entry + engine.vault.total_assets + close_fee - cut
        close_id = engine.create_order("t0", OrderKind.MARKET_CLOSE, Direction.LONG,
                                       acceptable_price=exit_price, max_slippage=0,
                                       position_id=max(engine.positions))
        feed_both(engine, exit_price + 1, self.now)
        assert isinstance(self.settle(close_id), InsolventVault)
        feed_both(engine, exit_price, self.now)
        assert self.settle(close_id) is None
        assert engine.vault.total_assets == 0 < engine.vault.total_shares
        feed_both(engine, entry, self.now)

    # -- invariants ------------------------------------------------------------

    @invariant()
    def conserved(self):
        # every flow splits an integer amount, so the sum is exact
        assert ledger_sum(self.cash, self.engine) == 0

    @invariant()
    def reserved_is_open_interest_within_the_pool(self):
        engine = self.engine
        longs = sum(p.size for p in engine.positions.values()
                    if p.direction is Direction.LONG)
        shorts = sum(p.size for p in engine.positions.values()
                     if p.direction is Direction.SHORT)
        assert (engine.pool.long_oi, engine.pool.short_oi) == (longs, shorts)
        assert engine.pool.reserved == longs + shorts <= engine.vault.total_assets
        assert sum(engine.vault.balances.values()) == engine.vault.total_shares

    @invariant()
    def open_collateral_is_the_positions_sum(self):
        engine = self.engine
        assert engine.open_collateral == sum(p.collateral for p in engine.positions.values())

    @invariant()
    def fees_match_the_exact_model(self):
        """Each index accrued to now and each owed fee equal the exact model.

        Idempotent at one time, so it may run more than once per step."""
        engine = self.engine
        years = Fraction(self.now - self.model_time, SECONDS_PER_YEAR)
        for side in Direction:
            self.integral[side] += Fraction(self.rates[side], 100 * 10**9) * years
        self.model_time = self.now
        # every call that changes the pool accrues first, so the rates of the
        # pool as it is now hold until the next step
        _, _, long_rate, short_rate = pool_metrics(engine.pool, engine.vault.total_assets,
                                                   CONFIG)
        self.rates = {Direction.LONG: long_rate, Direction.SHORT: short_rate}

        pool = engine._accrued(self.now)
        indices = {Direction.LONG: pool.cum_fee_index_long,
                   Direction.SHORT: pool.cum_fee_index_short}
        for side in Direction:
            assert Fraction(indices[side], FEE_INDEX_SCALE) == self.integral[side]
        # a position new since the last step opened now
        self.entry_integral = {pid: self.entry_integral.get(pid, self.integral[pos.direction])
                               for pid, pos in engine.positions.items()}
        for pid, pos in engine.positions.items():
            owed = pos.collateral - position_equity(pos, pool, pos.entry_price)  # pnl 0
            assert owed == round(pos.size * (self.integral[pos.direction]
                                             - self.entry_integral[pid]))

    @invariant()
    def pool_and_positions_hold_only_ints(self):
        engine = self.engine
        assert all(type(value) is int for value in engine.pool)
        for pos in engine.positions.values():
            assert all(type(value) is int for value in pos
                       if not isinstance(value, (str, Direction)))

    @invariant()
    def trigger_book_matches_a_scan(self):
        engine = self.engine
        for mark in probe_marks(engine) + [self.price]:
            assert engine.evaluate_triggers(mark) == brute_force_triggers(engine, mark)


EngineMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=80, deadline=None, derandomize=True)
TestEngineMachine = EngineMachine.TestCase


def test_drain_reaches_shares_without_assets():
    """The draining close leaves the state a deposit must refuse, and it does."""
    machine = EngineMachine()
    machine.drain()
    machine.deposit("lp1", U(5))      # a DomainError; attempt checks it wrote nothing
    assert "lp1" not in machine.engine.vault.balances
    machine.redeem(0, Fraction(1))    # lp0 can still burn its worthless shares
    assert machine.engine.vault.total_shares == 0
    machine.deposit("lp1", U(5))      # an empty vault mints 1:1 again
    assert machine.engine.vault.balances["lp1"] == U(5)
    machine.conserved()
    machine.reserved_is_open_interest_within_the_pool()
