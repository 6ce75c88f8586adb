"""Protocol state machine: orders, positions, fee accrual, liquidation.

One engine serves one market backed by one LP vault: the pool value *is*
the vault's total assets, and `reserved` is the gross notional of open
positions, so utilization = reserved / vault assets. The engine holds the
rest of the pool once, as the frozen `Engine.pool`: open interest per side,
the two fee indices and the last accrual time; `reserved` is derived from
the open interest, never stored.

All monetary state is integer base units (1e-6). Borrow fees accrue lazily
through per-side cumulative indices: every state-mutating entry point first
rolls the indices forward at the rates prevailing since the last accrual,
and a position owes size * (index_now - index_at_entry) when it closes.
Indices accumulate in raw binary64 (quantizing each increment would break
split-vs-single-step accrual equivalence); the rates feeding them are
9-digit-quantized curve outputs.

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
from dataclasses import dataclass
from operator import itemgetter

from .curves import (
    BaseFeeParams,
    DeviationParams,
    DynamicFeeParams,
    compute_skew,
    quote_prices_units,
    total_borrow_rates,
)
from .errors import (
    ClockRegression,
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
    UnknownMarket,
    UnknownOrder,
    UnknownPosition,
)
from .money import (
    SECONDS_PER_YEAR,
    UNIT_SCALE,
    div_round_half_even,
    pct_of,
    quantize9,
)
from .oracle import FeedStore, OracleConfig, TradeSide, aggregate
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


OPEN_KINDS = frozenset({OrderKind.MARKET_OPEN, OrderKind.LIMIT_OPEN})
TRIGGER_KINDS = frozenset({OrderKind.LIMIT_OPEN, OrderKind.STOP_LOSS, OrderKind.TAKE_PROFIT})


@dataclass(frozen=True)
class MarketConfig:
    market_id: str
    deviation: DeviationParams
    base_fee: BaseFeeParams
    dynamic_fee: DynamicFeeParams
    max_open_interest: int        # base units, per side
    max_leverage: int             # ratio, base units
    max_exposure: int             # base units, cap on |L - S|
    maintenance_margin_rate: int  # percent of size, base units
    open_close_fee_rate: int      # percent of size, base units
    liquidation_fee_rate: int     # percent of remaining equity, base units
    oracle: OracleConfig

    def violations(self) -> list[str]:
        """All invariant violations, empty when the config is sound."""
        out: list[str] = []
        if self.max_leverage < UNIT_SCALE:
            out.append("max_leverage must be >= 1")
        for name in ("max_open_interest", "max_exposure", "maintenance_margin_rate",
                     "open_close_fee_rate", "liquidation_fee_rate"):
            if getattr(self, name) < 0:
                out.append(f"{name} must be >= 0")
        # a fresh max-leverage position must not be instantly liquidatable
        if self.maintenance_margin_rate * self.max_leverage >= 100 * UNIT_SCALE * UNIT_SCALE:
            out.append("maintenance_margin_rate * max_leverage must be < 100")
        return out


@dataclass(frozen=True)
class PoolState:
    """The pool apart from its value, which the vault owns (`total_assets`)."""

    long_oi: int
    short_oi: int
    cum_fee_index_long: float
    cum_fee_index_short: float
    last_accrual_time: int

    @property
    def reserved(self) -> int:
        """Gross notional of open positions."""
        return self.long_oi + self.short_oi


@dataclass(frozen=True)
class Position:
    position_id: int
    owner: str
    direction: Direction
    size: int
    collateral: int
    entry_price: int
    entry_fee_index: float


@dataclass(frozen=True)
class Order:
    order_id: int
    owner: str
    kind: OrderKind
    direction: Direction
    size: int
    collateral: int
    acceptable_price: int
    max_slippage: int      # percent, base units
    trigger_price: int     # 0 unless a trigger kind
    position_id: int | None


@dataclass(frozen=True)
class SettlementReceipt:
    executed_price: int
    open_close_fee: int
    borrow_fee_paid: int
    realized_pnl: int
    liquidation_fee: int = 0
    payout: int = 0        # money returned to the trader (refund)


# -- Pure state operations ----------------------------------------------------

def utilization_pct(pool: PoolState, pool_value: int) -> float:
    """Utilization 100*reserved/pool_value in percent, 9-digit quantized."""
    if pool_value <= 0:
        raise DomainError("pool value must be positive")
    return quantize9(100.0 * float(pool.reserved) / float(pool_value))


def pool_metrics(pool: PoolState, pool_value: int,
                 cfg: MarketConfig) -> tuple[float, float, float, float]:
    """(utilization, skew, long rate, short rate) in percent; zeros for an empty pool."""
    if pool_value <= 0:
        return 0.0, 0.0, 0.0, 0.0
    u = utilization_pct(pool, pool_value)
    skew = compute_skew(pool.long_oi, pool.short_oi, pool_value)
    rate_long, rate_short = total_borrow_rates(
        u, skew, pool.long_oi, pool.short_oi, cfg.base_fee, cfg.dynamic_fee)
    return u, skew, rate_long, rate_short


def accrue_fees(pool: PoolState, pool_value: int, cfg: MarketConfig,
                now: int) -> PoolState:
    """Roll both cumulative fee indices forward to `now`.

    Rates are evaluated once at the pre-accrual state, so the result over
    [t0, t2] equals accruing [t0, t1] then [t1, t2] when nothing else
    changes in between. At dt == 0 the same pool object comes back.
    """
    if now < pool.last_accrual_time:
        raise ClockRegression(
            f"accrual time {now} before last accrual {pool.last_accrual_time}")
    dt = now - pool.last_accrual_time
    if dt == 0:
        return pool
    if pool_value <= 0 and pool.reserved > 0:
        raise InsolventVault("open positions with an empty pool")
    _, _, rate_long, rate_short = pool_metrics(pool, pool_value, cfg)
    year_frac = dt / SECONDS_PER_YEAR
    return PoolState(pool.long_oi, pool.short_oi,
                     pool.cum_fee_index_long + (rate_long / 100.0) * year_frac,
                     pool.cum_fee_index_short + (rate_short / 100.0) * year_frac,
                     now)


def _add_oi(pool: PoolState, direction: Direction, amount: int) -> PoolState:
    """The pool with `amount` added to one side's open interest."""
    long_oi, short_oi = pool.long_oi, pool.short_oi
    if direction is Direction.LONG:
        long_oi += amount
    else:
        short_oi += amount
    return PoolState(long_oi, short_oi, pool.cum_fee_index_long,
                     pool.cum_fee_index_short, pool.last_accrual_time)


def _side_index(pool: PoolState, direction: Direction) -> float:
    return pool.cum_fee_index_long if direction is Direction.LONG else pool.cum_fee_index_short


def _pnl(pos: Position, mark: int) -> int:
    """Signed pnl in base units at a mark price, rounded half-even."""
    raw = div_round_half_even(pos.size * (mark - pos.entry_price), pos.entry_price)
    return raw if pos.direction is Direction.LONG else -raw


def _owed_borrow_fee(pos: Position, pool: PoolState) -> int:
    delta = _side_index(pool, pos.direction) - pos.entry_fee_index
    return round(pos.size * delta)


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
    """Single-market, single-writer protocol engine."""

    def __init__(
        self,
        config: MarketConfig,
        vault: VaultState | None = None,
        feeds: FeedStore | None = None,
        treasury_fee_share: int = 0,   # percent of fees, base units
        primary_feed: str = "primary",
        secondary_feed: str = "secondary",
    ) -> None:
        bad = config.violations()
        if bad:
            raise DomainError("invalid market config: " + "; ".join(bad))
        if not 0 <= treasury_fee_share <= 100 * UNIT_SCALE:
            raise DomainError("treasury_fee_share must be within [0, 100]%")
        self.config = config
        self.vault = vault if vault is not None else VaultState()
        self.feeds = feeds if feeds is not None else FeedStore()
        self.treasury_fee_share = treasury_fee_share
        self.primary_feed = primary_feed
        self.secondary_feed = secondary_feed

        self.pool = PoolState(0, 0, 0.0, 0.0, 0)
        self.treasury = 0
        self.positions: dict[int, Position] = {}
        self.orders: dict[int, Order] = {}
        self.escrow: dict[int, int] = {}
        # pending trigger orders as sorted (trigger_price, order_id), derived
        # from `orders` and updated only where it changes
        self._fires_below: list[tuple[int, int]] = []
        self._fires_above: list[tuple[int, int]] = []
        self._next_order_id = 1
        self._next_position_id = 1

    # -- state views ------------------------------------------------------------

    def escrow_total(self) -> int:
        return sum(self.escrow.values())

    def open_collateral_total(self) -> int:
        return sum(p.collateral for p in self.positions.values())

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
        market_id: str | None = None,
    ) -> int:
        if market_id is not None and market_id != self.config.market_id:
            raise UnknownMarket(f"engine serves {self.config.market_id!r}, not {market_id!r}")
        if max_slippage < 0:
            raise DomainError("max_slippage must be >= 0")
        if kind in TRIGGER_KINDS:
            if trigger_price <= 0:
                raise DomainError("trigger orders need a positive trigger_price")
            if acceptable_price <= 0:
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
            if position_id is None:
                raise DomainError("close orders need a position_id")
        order_id = self._next_order_id
        order = Order(order_id, owner, kind, direction, size, collateral,
                      acceptable_price, max_slippage, trigger_price, position_id)
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
        primary = self.feeds.get(self.primary_feed)
        secondary = self.feeds.get(self.secondary_feed)
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

        long_q, short_q = quote_prices_units(
            mark, utilization_pct(pool, self.vault.total_assets), self.config.deviation)
        # buys take the long (ask) quote, sells the short (bid) quote
        exec_price = long_q if buying else short_q
        self._check_slippage(side, exec_price, order.acceptable_price,
                             order.max_slippage)

        if opening:
            receipt = self._execute_open(order, exec_price, pool)
        else:
            receipt = self._execute_close(pos, exec_price, pool,
                                          charge_close_fee=True)
        self._remove_order(order)
        return receipt

    def _write_settlement(self, pool: PoolState, cut: int, net: int) -> None:
        """A settlement's writes after its last check: pool, treasury cut, vault flow."""
        self.pool = pool
        self.treasury += cut
        if net >= 0:
            self.vault.credit(net)
        else:
            self.vault.debit(-net)

    def _execute_open(self, order: Order, exec_price: int,
                      pool: PoolState) -> SettlementReceipt:
        fee = pct_of(order.size, self.config.open_close_fee_rate)
        net_collateral = order.collateral - fee
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

        self._write_settlement(after, cut, fee - cut)
        position = Position(self._next_position_id, order.owner, order.direction,
                            order.size, net_collateral, exec_price,
                            _side_index(pool, order.direction))
        self.positions[position.position_id] = position
        self._next_position_id += 1
        return SettlementReceipt(executed_price=exec_price, open_close_fee=fee,
                                 borrow_fee_paid=0, realized_pnl=0)

    def _execute_close(self, pos: Position, exec_price: int, pool: PoolState, *,
                       charge_close_fee: bool, liquidation: bool = False) -> SettlementReceipt:
        owed = _owed_borrow_fee(pos, pool)
        pnl = _pnl(pos, exec_price)
        gross = pos.collateral + pnl
        borrow_collected = min(max(owed, 0), max(gross, 0))
        remainder = max(gross - borrow_collected, 0)
        close_fee = 0
        if charge_close_fee:
            close_fee = min(pct_of(pos.size, self.config.open_close_fee_rate), remainder)
            remainder -= close_fee
        liq_fee = 0
        if liquidation:
            liq_fee = pct_of(remainder, self.config.liquidation_fee_rate)
            remainder -= liq_fee
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

        self._write_settlement(after, cut, net)
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
        return self._execute_close(pos, mark, pool, charge_close_fee=False,
                                   liquidation=True)

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
