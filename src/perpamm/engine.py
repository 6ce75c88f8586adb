"""Protocol state machine: orders, positions, fee accrual, liquidation.

One engine serves one market backed by one LP vault, and settles against the
latest points of the two feeds `oracle` names, PRIMARY and SECONDARY; the
pair is fixed, not configured. Its `MarketConfig` (from `config`) checked
its own limits when it was built, so the engine does not check them again.
The pool value *is* the vault's total assets, and `reserved` is the gross
notional of open positions, so utilization = reserved / vault assets. The
engine holds the rest of the pool once, as the immutable `Engine.pool` (a
NamedTuple, as are positions, orders and settlement receipts): open interest
per side, the two fee indices and the last accrual time; `reserved` is
derived from the open interest, never stored.

All monetary state is integer base units (1e-6). Borrow fees accrue lazily
through per-side cumulative indices: each entry point that reads or changes
the pool, and `accrue`, which a snapshot calls, first rolls the indices
forward at the rates prevailing since the last accrual, so the engine is the
only accrual driver. Rates are ints in nanos (1e-9) of a percent and an
index is their int sum times seconds, so accruing in one step or in several
gives the same index. A position owes, half-even, size * (index_now -
index_at_entry) / FEE_INDEX_SCALE when it closes.

Utilization, skew and both borrow rates read only (long OI, short OI, pool
value); `pool_metrics` computes them for an accrual over dt > 0 and for a
snapshot. A liquidation moves neither the fee indices nor the marks that a
position's health reads, so `Engine.liquidatable` decides a sweep at once.

Every mutating method is atomic by construction: it builds the next pool
(fees accrued, open interest moved), the fees and the vault's net flow in
locals, runs every check, and only then writes: it assigns `self.pool`
once, then the treasury, the vault and the books. A raised error therefore
leaves the engine, vault included, bit-identical to its state before the
call, and no call copies state to get there.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right, insort
from operator import itemgetter
from typing import NamedTuple

from .config import MarketConfig
from .curves import compute_skew, quote_prices_units, total_borrow_rates
from .errors import (
    ClockRegression,
    DeviationTooHigh,
    DomainError,
    ExposureCapExceeded,
    InsolventVault,
    InsufficientCollateral,
    InsufficientLiquidity,
    LeverageExceeded,
    NotLiquidatable,
    OpenInterestCapExceeded,
    SlippageExceeded,
    StaleFeed,
    TriggerNotMet,
    UnknownOrder,
    UnknownPosition,
)
from .money import (
    FEE_INDEX_SCALE,
    UNIT_SCALE,
    div_round_half_even,
    pct_of,
)
from .oracle import PRIMARY, SECONDARY, FeedStore, TradeSide, aggregate
from .vault import VaultState


class Direction(enum.Enum):
    LONG = "long"
    SHORT = "short"


class OrderKind(enum.Enum):
    MARKET_OPEN = "market_open"
    MARKET_CLOSE = "market_close"
    LIMIT_OPEN = "limit_open"
    STOP_LOSS = "stop_loss"
    TAKE_PROFIT = "take_profit"


# tuples, not sets: `in` compares members by identity, where a set would call
# the Python-level Enum.__hash__
OPEN_KINDS = (OrderKind.MARKET_OPEN, OrderKind.LIMIT_OPEN)
TRIGGER_KINDS = (OrderKind.LIMIT_OPEN, OrderKind.STOP_LOSS, OrderKind.TAKE_PROFIT)


class PoolState(NamedTuple):
    """The pool apart from its value, which the vault owns (`total_assets`)."""

    long_oi: int
    short_oi: int
    cum_fee_index_long: int    # sum of rate nanos * seconds (money.FEE_INDEX_SCALE)
    cum_fee_index_short: int
    last_accrual_time: int

    @property
    def reserved(self) -> int:
        """Gross notional of open positions."""
        return self.long_oi + self.short_oi


class Position(NamedTuple):
    position_id: int
    owner: str
    direction: Direction
    size: int
    collateral: int
    entry_price: int
    entry_fee_index: int


class Order(NamedTuple):
    """A pending order; an open order's collateral is its `Engine.escrow` entry."""

    order_id: int
    owner: str
    kind: OrderKind
    direction: Direction
    size: int
    acceptable_price: int
    max_slippage: int      # percent, base units
    trigger_price: int     # 0 unless a trigger kind
    position_id: int | None


class SettlementReceipt(NamedTuple):
    executed_price: int
    open_close_fee: int
    borrow_fee_paid: int
    realized_pnl: int
    liquidation_fee: int = 0
    payout: int = 0        # money returned to the trader (refund)


# -- Pure state operations ----------------------------------------------------

def utilization_pct(pool: PoolState, pool_value: int) -> int:
    """Utilization 100*reserved/pool_value in nanos of a percent, rounded half-even."""
    if pool_value <= 0:
        raise DomainError("pool value must be positive")
    return div_round_half_even(100 * 10**9 * pool.reserved, pool_value)


def pool_metrics(pool: PoolState, pool_value: int,
                 cfg: MarketConfig) -> tuple[int, int, int, int]:
    """(utilization, skew, long rate, short rate) in percent nanos; zeros for an empty pool."""
    if pool_value <= 0:
        return 0, 0, 0, 0
    u = utilization_pct(pool, pool_value)
    skew = compute_skew(pool.long_oi, pool.short_oi, pool_value)
    rate_long, rate_short = total_borrow_rates(
        u / 10**9, skew / 10**9, pool.long_oi, pool.short_oi, cfg.base_fee, cfg.dynamic_fee)
    return u, skew, rate_long, rate_short


def accrue_fees(pool: PoolState, pool_value: int, cfg: MarketConfig,
                now: int) -> PoolState:
    """Roll both cumulative fee indices forward to `now`.

    Each index grows by its side's rate (nanos of a percent, evaluated once
    at the pre-accrual state) times dt, in ints, so accruing [t0, t2] equals
    accruing [t0, t1] then [t1, t2] exactly when nothing else changes in
    between. At dt == 0 the same pool object comes back and no rate is
    evaluated. An empty pool accrues at zero rates; the engine keeps
    reserved <= pool value, so it holds no open interest then.
    """
    if now < pool.last_accrual_time:
        raise ClockRegression(
            f"accrual time {now} before last accrual {pool.last_accrual_time}")
    dt = now - pool.last_accrual_time
    if dt == 0:
        return pool
    _, _, rate_long, rate_short = pool_metrics(pool, pool_value, cfg)
    return PoolState(pool.long_oi, pool.short_oi,
                     pool.cum_fee_index_long + rate_long * dt,
                     pool.cum_fee_index_short + rate_short * dt, now)


def _add_oi(pool: PoolState, direction: Direction, amount: int) -> PoolState:
    """The pool with `amount` added to one side's open interest."""
    long_oi, short_oi = pool.long_oi, pool.short_oi
    if direction is Direction.LONG:
        long_oi += amount
    else:
        short_oi += amount
    return PoolState(long_oi, short_oi, pool.cum_fee_index_long,
                     pool.cum_fee_index_short, pool.last_accrual_time)


def _side_index(pool: PoolState, direction: Direction) -> int:
    return pool.cum_fee_index_long if direction is Direction.LONG else pool.cum_fee_index_short


def _pnl(pos: Position, mark: int) -> int:
    """Signed pnl in base units at a mark price, rounded half-even."""
    raw = div_round_half_even(pos.size * (mark - pos.entry_price), pos.entry_price)
    return raw if pos.direction is Direction.LONG else -raw


def _owed_borrow_fee(pos: Position, pool: PoolState) -> int:
    delta = _side_index(pool, pos.direction) - pos.entry_fee_index
    return div_round_half_even(pos.size * delta, FEE_INDEX_SCALE)


def position_equity(pos: Position, pool: PoolState, mark_price: int) -> int:
    """collateral + pnl - owed borrow fees, in base units (signed)."""
    return pos.collateral + _pnl(pos, mark_price) - _owed_borrow_fee(pos, pool)


def check_liquidation(pos: Position, pool: PoolState, cfg: MarketConfig,
                      mark_price: int) -> bool:
    """True when equity <= maintenance_margin_rate% of size (boundary liquidates)."""
    equity = position_equity(pos, pool, mark_price)
    return equity * 100 * UNIT_SCALE <= cfg.maintenance_margin_rate * pos.size


def _fires_at_or_below(kind: OrderKind, direction: Direction) -> bool | None:
    """Which side of its trigger price an order fires on.

    True: at marks at or below the trigger (long limit opens, long
    stop-losses, short take-profits). False: at marks at or above it (short
    limit opens, short stop-losses, long take-profits). None: market kinds,
    which never trigger.
    """
    if kind is OrderKind.STOP_LOSS or kind is OrderKind.LIMIT_OPEN:
        return direction is Direction.LONG
    if kind is OrderKind.TAKE_PROFIT:
        return direction is Direction.SHORT
    return None


_PRICE = itemgetter(0)   # the trigger price of a trigger-book entry


def trigger_met(kind: OrderKind, direction: Direction, trigger_price: int,
                mark: int) -> bool:
    """Touch-inclusive trigger rule for limit/stop-loss/take-profit orders."""
    below = _fires_at_or_below(kind, direction)
    if below is None:
        return False
    return mark <= trigger_price if below else mark >= trigger_price


# -- The engine ----------------------------------------------------------------

class Engine:
    """Single-market, single-writer protocol engine; it trusts its config and its
    treasury_fee_share (percent of fees in base units, within [0, 100]%) as
    their readers checked them."""

    def __init__(self, config: MarketConfig, treasury_fee_share: int = 0) -> None:
        self.config = config
        self.vault = VaultState()
        self.feeds = FeedStore()
        self.treasury_fee_share = treasury_fee_share

        self.pool = PoolState(0, 0, 0, 0, 0)
        self.treasury = 0
        # the open positions' collateral summed, kept with the open interest
        # by `_write_settlement`, so a snapshot reads it without a scan
        self.open_collateral = 0
        self.positions: dict[int, Position] = {}
        self.orders: dict[int, Order] = {}
        self.escrow: dict[int, int] = {}
        # pending trigger orders as sorted (trigger_price, order_id), derived
        # from `orders` and updated only where it changes
        self._fires_below: list[tuple[int, int]] = []
        self._fires_above: list[tuple[int, int]] = []
        self._next_order_id = 1
        self._next_position_id = 1

    # -- accrual -------------------------------------------------------------------

    def _accrued(self, now: int) -> PoolState:
        """The pool with fees accrued to `now`; writes nothing."""
        return accrue_fees(self.pool, self.vault.total_assets, self.config, now)

    def accrue(self, now: int) -> None:
        self.pool = self._accrued(now)

    # -- LP flows --------------------------------------------------------------------

    def lp_deposit(self, account: str, assets: int, now: int) -> int:
        pool = self._accrued(now)
        shares = self.vault.deposit(account, assets)
        self.pool = pool
        return shares

    def lp_redeem(self, account: str, shares: int, now: int) -> int:
        pool = self._accrued(now)
        assets = self.vault.redeem(account, shares, locked=pool.reserved)
        self.pool = pool
        return assets

    # -- order lifecycle ---------------------------------------------------------------

    def create_order(
        self,
        owner: str,
        kind: OrderKind,
        direction: Direction,
        size: int = 0,
        collateral: int = 0,
        acceptable_price: int = 0,
        max_slippage: int = 0,
        trigger_price: int = 0,
        position_id: int | None = None,
    ) -> int:
        if max_slippage < 0:
            raise DomainError("max_slippage must be >= 0")
        if kind in TRIGGER_KINDS:
            if trigger_price <= 0:
                raise DomainError("trigger orders need a positive trigger_price")
            if acceptable_price < 0:
                raise DomainError("acceptable_price must be >= 0 (0: the trigger price)")
            if acceptable_price == 0:
                acceptable_price = trigger_price
        else:
            if trigger_price:
                raise DomainError("market orders do not take a trigger_price")
            if acceptable_price <= 0:
                raise DomainError("market orders need a positive acceptable_price")
        if kind in OPEN_KINDS:
            if size <= 0 or collateral <= 0:
                raise DomainError("opens need positive size and collateral")
            if size * UNIT_SCALE > collateral * self.config.max_leverage:
                raise LeverageExceeded(
                    f"size/collateral exceeds max leverage "
                    f"{self.config.max_leverage / UNIT_SCALE}x")
            if position_id is not None:
                raise DomainError("open orders do not reference a position")
        else:
            if collateral:
                raise DomainError("close orders do not escrow collateral")
            if size < 0:
                raise DomainError("close size must be >= 0 (0: the whole position)")
            if position_id is None:
                raise DomainError("close orders need a position_id")
        order_id = self._next_order_id
        order = Order(order_id, owner, kind, direction, size, acceptable_price,
                      max_slippage, trigger_price, position_id)
        self._next_order_id += 1
        self.orders[order_id] = order
        if kind in OPEN_KINDS:
            self.escrow[order_id] = collateral
        book = self._trigger_book(order)
        if book is not None:
            insort(book, (trigger_price, order_id))
        return order_id

    def cancel_order(self, order_id: int) -> int:
        order = self.orders.get(order_id)
        if order is None:
            raise UnknownOrder(f"no pending order {order_id}")
        return self._remove_order(order)

    def _trigger_book(self, order: Order) -> list[tuple[int, int]] | None:
        below = _fires_at_or_below(order.kind, order.direction)
        if below is None:
            return None
        return self._fires_below if below else self._fires_above

    def _remove_order(self, order: Order) -> int:
        """Drop a pending order from the book; returns its escrow (0 for closes)."""
        del self.orders[order.order_id]
        book = self._trigger_book(order)
        if book is not None:
            del book[bisect_left(book, (order.trigger_price, order.order_id))]
        return self.escrow.pop(order.order_id, 0)

    # -- settlement --------------------------------------------------------------------

    def _aggregate_mark(self, side: TradeSide, now: int) -> int:
        primary = self.feeds.get(PRIMARY)
        secondary = self.feeds.get(SECONDARY)
        if primary is None or secondary is None:
            raise StaleFeed("both oracle feeds must have published a price")
        return aggregate(primary, secondary, side, self.config.oracle, now)

    @staticmethod
    def _check_slippage(side: TradeSide, exec_price: int, acceptable: int,
                        max_slippage: int) -> None:
        # only an adverse move counts: above acceptable for buys, below for sells
        if side is TradeSide.BUY:
            adverse = exec_price - acceptable
        else:
            adverse = acceptable - exec_price
        if adverse > 0 and adverse * 100 * UNIT_SCALE > max_slippage * acceptable:
            raise SlippageExceeded(
                f"execution {exec_price} beyond slippage bound from {acceptable}")

    def _treasury_cut(self, fees: int) -> int:
        return fees * self.treasury_fee_share // (100 * UNIT_SCALE)

    def settle_order(self, order_id: int, now: int) -> SettlementReceipt:
        order = self.orders.get(order_id)
        if order is None:
            raise UnknownOrder(f"no pending order {order_id}")
        pool = self._accrued(now)
        opening = order.kind in OPEN_KINDS
        if not opening:
            pos = self.positions.get(order.position_id)  # type: ignore[arg-type]
            if pos is None:
                raise UnknownPosition(f"no open position {order.position_id}")
            if pos.owner != order.owner:
                raise DomainError("order owner does not hold the position")
            if pos.direction is not order.direction:
                raise DomainError("order direction does not match the position")
            if order.size and order.size != pos.size:
                raise DomainError("partial closes are not supported")
        # opening a long or closing a short buys; the other two sell
        buying = (order.direction is Direction.LONG) == opening
        side = TradeSide.BUY if buying else TradeSide.SELL
        mark = self._aggregate_mark(side, now)
        if order.kind in TRIGGER_KINDS and not trigger_met(
                order.kind, order.direction, order.trigger_price, mark):
            raise TriggerNotMet(f"order {order_id} trigger not met at {mark}")

        u = utilization_pct(pool, self.vault.total_assets) / 10**9   # the curve's percent
        long_q, short_q = quote_prices_units(mark, u, self.config.deviation)
        # buys take the long (ask) quote, sells the short (bid) quote
        exec_price = long_q if buying else short_q
        self._check_slippage(side, exec_price, order.acceptable_price,
                             order.max_slippage)

        if opening:
            receipt = self._execute_open(order, exec_price, pool)
        else:
            receipt = self._execute_close(pos, exec_price, pool)
        self._remove_order(order)
        return receipt

    def _write_settlement(self, pool: PoolState, cut: int, net: int, collateral: int) -> None:
        """A settlement's writes after its last check: pool, open collateral (by
        the position's collateral, opened or closed), treasury cut, vault flow."""
        self.pool = pool
        self.open_collateral += collateral
        self.treasury += cut
        if net >= 0:
            self.vault.credit(net)
        else:
            self.vault.debit(-net)

    def _execute_open(self, order: Order, exec_price: int,
                      pool: PoolState) -> SettlementReceipt:
        fee = pct_of(order.size, self.config.open_close_fee_rate)
        net_collateral = self.escrow[order.order_id] - fee
        if net_collateral <= 0:
            raise InsufficientCollateral("open fee consumes the entire collateral")
        cut = self._treasury_cut(fee)
        after = _add_oi(pool, order.direction, order.size)
        side_oi = after.long_oi if order.direction is Direction.LONG else after.short_oi
        if side_oi > self.config.max_open_interest:
            raise OpenInterestCapExceeded(
                f"open interest {side_oi} above cap {self.config.max_open_interest}")
        if abs(after.long_oi - after.short_oi) > self.config.max_exposure:
            raise ExposureCapExceeded(
                f"net exposure above cap {self.config.max_exposure}")
        # the vault's share of the fee counts toward the pool that backs the reservation
        if after.reserved > self.vault.total_assets + fee - cut:
            raise InsufficientLiquidity("pool too small to reserve this notional")

        self._write_settlement(after, cut, fee - cut, net_collateral)
        position = Position(self._next_position_id, order.owner, order.direction,
                            order.size, net_collateral, exec_price,
                            _side_index(pool, order.direction))
        self.positions[position.position_id] = position
        self._next_position_id += 1
        return SettlementReceipt(executed_price=exec_price, open_close_fee=fee,
                                 borrow_fee_paid=0, realized_pnl=0)

    def _execute_close(self, pos: Position, exec_price: int, pool: PoolState, *,
                       liquidation: bool = False) -> SettlementReceipt:
        owed = _owed_borrow_fee(pos, pool)
        pnl = _pnl(pos, exec_price)
        gross = pos.collateral + pnl
        borrow_collected = min(max(owed, 0), max(gross, 0))
        remainder = max(gross - borrow_collected, 0)
        close_fee = liq_fee = 0
        if liquidation:
            liq_fee = pct_of(remainder, self.config.liquidation_fee_rate)
            remainder -= liq_fee
        else:
            close_fee = min(pct_of(pos.size, self.config.open_close_fee_rate), remainder)
            remainder -= close_fee
        payout = remainder

        # collateral dissolves into: payout, the treasury's fee cut, and the
        # vault's net flow (trade gain plus its fee share, netted against any
        # trader profit so a payable settlement never trips insolvency)
        cut = self._treasury_cut(borrow_collected + close_fee + liq_fee)
        net = pos.collateral - payout - cut
        after = _add_oi(pool, pos.direction, -pos.size)
        # reserved after the close is >= 0, so this also rules out a debit
        # beyond the vault's assets
        if self.vault.total_assets + net < after.reserved:
            raise InsolventVault("pool below reserved liquidity after payout")

        self._write_settlement(after, cut, net, -pos.collateral)
        del self.positions[pos.position_id]
        return SettlementReceipt(executed_price=exec_price, open_close_fee=close_fee,
                                 borrow_fee_paid=borrow_collected, realized_pnl=pnl,
                                 liquidation_fee=liq_fee, payout=payout)

    # -- liquidation ---------------------------------------------------------------------

    def liquidate(self, position_id: int, now: int) -> SettlementReceipt:
        pos = self.positions.get(position_id)
        if pos is None:
            raise UnknownPosition(f"no open position {position_id}")
        pool = self._accrued(now)
        side = TradeSide.SELL if pos.direction is Direction.LONG else TradeSide.BUY
        mark = self._aggregate_mark(side, now)
        if not check_liquidation(pos, pool, self.config, mark):
            raise NotLiquidatable(f"position {position_id} is healthy at {mark}")
        return self._execute_close(pos, mark, pool, liquidation=True)

    def liquidatable(self, now: int) -> list[int]:
        """Ids, in id order, of the open positions `liquidate(id, now)` would not
        refuse as healthy: every one when the oracle refuses, as it then does
        for both sides alike."""
        pool = self._accrued(now)
        try:   # each side's mark once: longs sell, shorts buy
            long_mark = self._aggregate_mark(TradeSide.SELL, now)
            short_mark = self._aggregate_mark(TradeSide.BUY, now)
        except (StaleFeed, DeviationTooHigh):
            return list(self.positions)
        # ids only grow and deleting from a dict keeps insertion order, so
        # `positions` is already in id order
        long = Direction.LONG
        return [pid for pid, pos in self.positions.items()
                if check_liquidation(pos, pool, self.config,
                                     long_mark if pos.direction is long else short_mark)]

    # -- triggers ------------------------------------------------------------------------

    def evaluate_triggers(self, mark_price: int) -> list[int]:
        """Ids of pending trigger orders whose condition holds at the mark, in id order.

        The trigger book is two lists of (trigger_price, order_id) sorted by
        price, split by `_fires_at_or_below`. The orders ready at a mark are
        a suffix of the first list (trigger >= mark) and a prefix of the
        second (trigger <= mark), so one bisect per list finds them and no
        other order is read: O(log n) plus sorting the ready ids. Market
        kinds are in neither list and never returned.
        """
        below = self._fires_below[bisect_left(self._fires_below, mark_price, key=_PRICE):]
        above = self._fires_above[:bisect_right(self._fires_above, mark_price, key=_PRICE)]
        return sorted([order_id for _, order_id in below + above])
