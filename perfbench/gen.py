"""Seeded input generators for the perfbench workloads.

Every generator is a pure function of its seed and size: the same seed and
size give byte-identical files. Nothing here imports perpamm, so the inputs
of a workload do not change when the program under test changes.

The engine numbers orders and positions sequentially, so a scenario that
closes a position must know the id its open received. The replay generators
therefore keep a mirror of the engine state that decides those ids: the
latest point of each feed, the pending orders and the open positions, and
the dual-oracle and trigger rules that decide whether a settlement fills.
The generated markets make every other outcome certain: collateral covers
the open fee, slippage bounds are wide (checked against the largest possible
quote spread), caps are far away and the pool is deep, so utilization stays
low.

Liquidations are the one outcome the mirror cannot predict, because they
depend on accrued borrow fees. Only "risky" positions (leverage 8x or more)
can be liquidated inside the price band the trace keeps to; the generator
never closes them or attaches orders to them, so a liquidation never turns a
later action into an error. Low-leverage positions (at most 2.5x) cannot
lose their margin inside the band.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

UNIT = 10**6
CENT = 10**4                     # base units per price cent
MAX_AGE = 60                     # oracle staleness limit, seconds
MIN_BAND = 100_000               # 0.1% in base units: primary price used
THRESHOLD = 1_000_000            # 1% in base units: above it settlement reverts
T0 = 1_700_000_000               # first trace timestamp
TRIGGER_KINDS = ("limit_open", "stop_loss", "take_profit")
LPS = [f"lp{i}" for i in range(4)]


class GeneratorError(Exception):
    """The generator would emit a scenario whose outcome it cannot predict."""


# -- market config ---------------------------------------------------------------

def _coef(rng: random.Random, lo: float, hi: float):
    """A coefficient with at most six fractional digits, as a JSON number."""
    return json.loads(f"{rng.uniform(lo, hi):.6f}")


def market_config(rng: random.Random) -> dict:
    """A sound market config with seed-drawn curve coefficients."""
    return {
        "market_id": "ETH-USD",
        "deviation": {"k_delta": _coef(rng, 0.0002, 0.0005), "c_d": 0},
        "base_fee": {"k_b": _coef(rng, 0.005, 0.0325), "c_b": _coef(rng, 0.5, 3)},
        "dynamic_fee": {"m_max": rng.choice([100, 200, 300, 500]),
                        "steepness": _coef(rng, 0.0125, 0.0325)},
        "max_open_interest": "1000000000000",
        "max_leverage": 10,
        "max_exposure": "1000000000000",
        "maintenance_margin_rate": 1,
        "open_close_fee_rate": "0.1",
        "liquidation_fee_rate": 10,
        "oracle": {"max_age": MAX_AGE, "min_acceptable_deviation": "0.1",
                   "threshold_deviation": 1},
    }


# -- price trace -----------------------------------------------------------------

@dataclass
class TraceSpec:
    steps: int
    step_s: int
    sigma: float          # per-step log-price volatility
    band: float           # log price is reflected into +-band around the start
    mid_frac: float       # share of steps whose feeds disagree inside the mid band
    high_frac: float      # share of steps whose feeds disagree beyond the threshold
    gaps: int             # stale gaps of 8-15 steps on one or both feeds


def price_trace(rng: random.Random, spec: TraceSpec) -> list[tuple[int, str, int]]:
    """(timestamp, feed, price units) rows, ordered by time then feed."""
    skip: dict[int, tuple[str, ...]] = {}
    for _ in range(spec.gaps):
        start = rng.randrange(1, spec.steps)
        feeds = rng.choice([("primary",), ("secondary",), ("primary", "secondary")])
        for k in range(start, min(spec.steps - 1, start + rng.randint(8, 15))):
            skip[k] = tuple(sorted(set(skip.get(k, ())) | set(feeds)))
    p0 = rng.uniform(1500, 2500)
    x = 0.0
    rows = []
    for k in range(spec.steps):
        if k:
            x += rng.gauss(0.0, spec.sigma)
            if x > spec.band:
                x = 2 * spec.band - x
            elif x < -spec.band:
                x = -2 * spec.band - x
        price = p0 * math.exp(x)
        r = rng.random()
        if r < spec.high_frac:
            spread = rng.uniform(1.1, 2.0)
        elif r < spec.high_frac + spec.mid_frac:
            spread = rng.uniform(0.15, 0.9)
        else:
            spread = rng.uniform(0.0, 0.08)
        spread *= rng.choice((-1, 1))
        t = T0 + k * spec.step_s
        gone = skip.get(k, ())
        if "primary" not in gone:
            rows.append((t, "primary", round(price * 100) * CENT))
        if "secondary" not in gone:
            rows.append((t, "secondary", round(price * (1 + spread / 100) * 100) * CENT))
    return rows


def price_text(units: int) -> str:
    """Base units as the shortest exact decimal string."""
    return f"{units // UNIT}.{units % UNIT:06d}".rstrip("0").rstrip(".")


def _offset(price: int, pct: float) -> int:
    """price * (1 + pct/100), on the cent grid."""
    return max(CENT, round(price * (1 + pct / 100) / CENT) * CENT)


def _sign(direction: str) -> int:
    return 1 if direction == "long" else -1


# -- engine mirror ---------------------------------------------------------------

@dataclass
class MOrder:
    owner: str
    kind: str
    direction: str
    trigger: int            # 0 for market orders
    acceptable: int
    max_slippage: int       # percent
    position_id: int | None = None
    size: int = 0           # opens only


@dataclass
class MPosition:
    owner: str
    direction: str
    size: int
    orders: list[int] = field(default_factory=list)   # attached stop/target ids


def trigger_met(kind: str, direction: str, trigger: int, mark: int) -> bool:
    if kind in ("stop_loss", "limit_open"):
        return mark <= trigger if direction == "long" else mark >= trigger
    if kind == "take_profit":
        return mark >= trigger if direction == "long" else mark <= trigger
    return False


class Mirror:
    """The id- and fill-deciding part of the engine and of the event loop."""

    def __init__(self, max_dev_pct: float) -> None:
        self.max_dev_pct = max_dev_pct
        self.latest: dict[str, tuple[int, int]] = {}
        self.orders: dict[int, MOrder] = {}
        self.positions: dict[int, MPosition] = {}
        self.next_order = 1
        self.next_position = 1
        self.trigger_attempts = 0
        self.trigger_fills = 0

    def primary(self) -> int:
        return self.latest["primary"][0]

    def mark(self, side: str, now: int) -> int | str:
        """Settlement price for a side, or the error code the oracle raises."""
        if "primary" not in self.latest or "secondary" not in self.latest:
            return "StaleFeed"
        (p1, t1), (p2, t2) = self.latest["primary"], self.latest["secondary"]
        if now - t1 > MAX_AGE or now - t2 > MAX_AGE:
            return "StaleFeed"
        scaled = 100 * abs(p1 - p2) * UNIT
        low = min(p1, p2)
        if scaled > THRESHOLD * low:
            return "DeviationTooHigh"
        if scaled <= MIN_BAND * low:
            return p1
        return max(p1, p2) if side == "buy" else min(p1, p2)

    def oracle_ok(self, now: int) -> bool:
        return all(isinstance(self.mark(side, now), int) for side in ("buy", "sell"))

    def create(self, order: MOrder) -> int:
        oid = self.next_order
        self.next_order += 1
        self.orders[oid] = order
        return oid

    def settle(self, oid: int, now: int) -> tuple[str, int | None, MPosition | None]:
        """Outcome code, the position id opened or closed, and that position."""
        order = self.orders[oid]
        opening = order.position_id is None
        if opening:
            side = "buy" if order.direction == "long" else "sell"
        elif order.position_id not in self.positions:
            return "UnknownPosition", None, None
        else:
            side = "sell" if order.direction == "long" else "buy"
        mark = self.mark(side, now)
        if not isinstance(mark, int):
            return mark, None, None
        if order.kind in TRIGGER_KINDS and not trigger_met(
                order.kind, order.direction, order.trigger, mark):
            return "TriggerNotMet", None, None
        self._check_slippage(order, side, mark)
        del self.orders[oid]
        if opening:
            pid = self.next_position
            self.next_position += 1
            pos = MPosition(order.owner, order.direction, order.size)
            self.positions[pid] = pos
            return "ok", pid, pos
        return "ok", order.position_id, self.positions.pop(order.position_id)

    def _check_slippage(self, order: MOrder, side: str, mark: int) -> None:
        # the quote moves the price by at most max_dev_pct against the trader
        if side == "buy":
            adverse = mark * (1 + self.max_dev_pct / 100) - order.acceptable
        else:
            adverse = order.acceptable - mark * (1 - self.max_dev_pct / 100)
        if adverse * 100 >= order.max_slippage * order.acceptable:
            raise GeneratorError(f"slippage of a {order.kind} order is not certain")

    def triggers(self, now: int) -> list[tuple[int, MOrder, str, int | None, MPosition | None]]:
        """The per-timestamp trigger pass: ready on the primary price, in id order."""
        if "primary" not in self.latest:
            return []
        mark = self.primary()
        ready = [oid for oid, o in sorted(self.orders.items())
                 if o.kind in TRIGGER_KINDS
                 and trigger_met(o.kind, o.direction, o.trigger, mark)]
        out = []
        for oid in ready:
            order = self.orders[oid]
            code, pid, pos = self.settle(oid, now)
            self.trigger_attempts += 1
            self.trigger_fills += code == "ok"
            out.append((oid, order, code, pid, pos))
        return out


# -- scenario builder ------------------------------------------------------------

class Builder:
    """Appends actions and keeps the mirror in step with them."""

    def __init__(self, config: dict, trace: list[tuple[int, str, int]],
                 utilization_cap: float) -> None:
        dev = config["deviation"]
        max_dev = float(dev["k_delta"]) * utilization_cap ** 2 + float(dev["c_d"])
        self.mirror = Mirror(max_dev)
        self.utilization_cap = utilization_cap
        self.actions: list[dict] = []
        self.points: dict[int, list[tuple[str, int]]] = {}
        for t, feed, price in trace:
            self.points.setdefault(t, []).append((feed, price))
        self.timeline = sorted(self.points)
        self.deposited = 0
        self.redeemed_shares = 0
        self.reserved_bound = 0

    def add(self, t: int, actor: str, action: str, **params) -> None:
        entry = {"time": t, "actor": actor, "action": action}
        if params:
            entry["params"] = params
        self.actions.append(entry)

    def step(self, t: int) -> list[tuple[int, MOrder, str, int | None, MPosition | None]]:
        """Publish the prices at t and run the trigger pass."""
        for feed, price in self.points[t]:
            self.mirror.latest[feed] = (price, t)
        fired = self.mirror.triggers(t)
        for _, order, code, _, pos in fired:
            if code == "ok":
                self._reserve(pos.size if order.kind == "limit_open" else -pos.size)
        return fired

    def _reserve(self, size: int) -> None:
        self.reserved_bound += size
        # profits paid to traders stay far below 20% of the pool at these sizes
        pool_floor = 0.8 * (self.deposited - 1.5 * self.redeemed_shares)
        if self.reserved_bound * 100 > self.utilization_cap * pool_floor:
            raise GeneratorError("utilization could leave the planned range")

    # LP flows ---------------------------------------------------------------

    def deposit(self, t: int, lp: str, assets: int) -> None:
        self.add(t, lp, "deposit", assets=assets)
        self.deposited += assets

    def redeem(self, t: int, lp: str, shares: int) -> bool:
        """Redeem if the LP surely holds the shares; False otherwise."""
        # all redemptions together stay below 10% of all deposits, and each
        # LP's opening deposit alone mints more shares than that
        if self.redeemed_shares + shares > 0.1 * self.deposited:
            return False
        self.add(t, lp, "redeem", shares=shares)
        self.redeemed_shares += shares
        return True

    # orders -----------------------------------------------------------------

    def market_open(self, t: int, owner: str, direction: str, size: int,
                    leverage: float) -> tuple[int, str, int | None]:
        acceptable = self.mirror.primary()
        oid = self.mirror.create(MOrder(owner, "market_open", direction, 0, acceptable,
                                        5, size=size))
        self.add(t, owner, "create_order", kind="market_open", direction=direction,
                 size=size, collateral=math.ceil(size / leverage),
                 acceptable_price=price_text(acceptable), max_slippage=5)
        self.add(t, owner, "settle_order", order_id=oid)
        code, pid, pos = self.mirror.settle(oid, t)
        if code == "ok":
            self._reserve(pos.size)
        return oid, code, pid

    def limit_open(self, t: int, owner: str, direction: str, trigger: int,
                   size: int, leverage: float) -> int:
        oid = self.mirror.create(MOrder(owner, "limit_open", direction, trigger,
                                        trigger, 5, size=size))
        self.add(t, owner, "create_order", kind="limit_open", direction=direction,
                 size=size, collateral=math.ceil(size / leverage),
                 trigger_price=price_text(trigger), max_slippage=5)
        return oid

    def attach(self, t: int, pid: int, kind: str, trigger: int) -> int:
        """A stop-loss or take-profit for an open position."""
        pos = self.mirror.positions[pid]
        oid = self.mirror.create(MOrder(pos.owner, kind, pos.direction, trigger,
                                        trigger, 25, position_id=pid))
        self.add(t, pos.owner, "create_order", kind=kind, direction=pos.direction,
                 trigger_price=price_text(trigger), max_slippage=25, position_id=pid)
        pos.orders.append(oid)
        return oid

    def market_close(self, t: int, pid: int) -> tuple[int, str]:
        """Close a position; on success also cancel its pending stop/target."""
        pos = self.mirror.positions[pid]
        acceptable = self.mirror.primary()
        oid = self.mirror.create(MOrder(pos.owner, "market_close", pos.direction, 0,
                                        acceptable, 5, position_id=pid))
        self.add(t, pos.owner, "create_order", kind="market_close",
                 direction=pos.direction, acceptable_price=price_text(acceptable),
                 max_slippage=5, position_id=pid)
        self.add(t, pos.owner, "settle_order", order_id=oid)
        code, _, _ = self.mirror.settle(oid, t)
        if code == "ok":
            self._reserve(-pos.size)
            self.cancel_pending(t, pos.owner, pos.orders)
        return oid, code

    def cancel_pending(self, t: int, owner: str, oids: list[int]) -> None:
        for oid in oids:
            if oid in self.mirror.orders:
                self.add(t, owner, "cancel_order", order_id=oid)
                del self.mirror.orders[oid]


# -- workloads -------------------------------------------------------------------

@dataclass
class ReplaySpec:
    steps: int = 20_000
    traders: int = 50
    opens: int = 3_000
    limits: int = 700
    lp_flows: int = 200
    sweeps: int = 10


@dataclass
class DeepSpec:
    steps: int = 1_000
    opens: int = 6_000
    anchors: int = 300
    resting_limits: int = 500
    sweeps: int = 2


@dataclass
class Inputs:
    config: dict
    trace: list[tuple[int, str, int]]
    scenario: dict
    stats: dict        # what the mirror predicted; for tests and reports


class _Agenda:
    """Events keyed by timeline index, kept in insertion order per index."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.events: dict[int, list[tuple]] = {}

    def at(self, i: int, *event) -> None:
        if i < self.n:
            self.events.setdefault(i, []).append(event)

    def pop(self, i: int) -> list[tuple]:
        return self.events.pop(i, [])


def replay_mixed(seed: int, spec: ReplaySpec | None = None) -> Inputs:
    """A desk replay: market and limit flow, stops and targets, LP flows, sweeps."""
    spec = spec or ReplaySpec()
    rng = random.Random(f"replay_mixed:{seed}")
    config = market_config(rng)
    trace = price_trace(rng, TraceSpec(
        steps=spec.steps, step_s=10, sigma=0.001, band=0.13, mid_frac=0.10,
        high_frac=0.02, gaps=max(1, spec.steps // 1000)))
    b = Builder(config, trace, utilization_cap=30.0)
    n = len(b.timeline)
    traders = [f"t{i:03d}" for i in range(spec.traders)]
    agenda = _Agenda(n)
    for _ in range(spec.opens):
        agenda.at(rng.randrange(1, n), "open", rng.random() < 0.05)
    for _ in range(spec.limits):
        agenda.at(rng.randrange(1, n), "limit")
    for _ in range(spec.lp_flows):
        agenda.at(rng.randrange(1, n), "lp")
    for k in range(spec.sweeps):
        agenda.at((k + 1) * n // (spec.sweeps + 1), "sweep")

    def lifetime() -> int:
        return rng.randint(n // 100 + 1, n // 10 + 2)

    for i, t in enumerate(b.timeline):
        for oid, order, code, pid, pos in b.step(t):
            if code != "ok":
                continue
            if order.kind == "limit_open":
                agenda.at(i + lifetime(), "close", pid)
            else:
                # the sibling stop/target stays orphaned until its owner reacts
                agenda.at(i + rng.randint(1, 40), "cancel", pos.owner, pos.orders)
        if i == 0:
            for lp in LPS:
                b.deposit(t, lp, 5_000_000)
            continue
        for event in agenda.pop(i):
            kind = event[0]
            if kind == "open":
                risky = event[1]
                owner = rng.choice(traders)
                direction = rng.choice(("long", "short"))
                if risky:
                    size, lev = rng.randint(500, 5_000), rng.uniform(8.0, 9.5)
                else:
                    size, lev = rng.randint(1_000, 20_000), rng.uniform(1.2, 2.5)
                oid, code, pid = b.market_open(t, owner, direction, size, lev)
                if code != "ok":
                    agenda.at(i + rng.randint(2, 10), "cancel", owner, [oid])
                elif not risky:
                    ref, sign = b.mirror.primary(), _sign(direction)
                    if rng.random() < 0.6:
                        b.attach(t, pid, "stop_loss",
                                 _offset(ref, -sign * rng.uniform(2, 6)))
                    if rng.random() < 0.6:
                        b.attach(t, pid, "take_profit",
                                 _offset(ref, sign * rng.uniform(2, 6)))
                    agenda.at(i + lifetime(), "close", pid)
            elif kind == "limit":
                owner = rng.choice(traders)
                direction = rng.choice(("long", "short"))
                trigger = _offset(b.mirror.primary(),
                                  -_sign(direction) * rng.uniform(0.2, 1.5))
                oid = b.limit_open(t, owner, direction, trigger,
                                   rng.randint(1_000, 20_000), rng.uniform(1.2, 2.5))
                agenda.at(i + rng.randint(n // 200 + 1, n // 20 + 2), "cancel", owner, [oid])
            elif kind == "close":
                pid = event[1]
                if pid not in b.mirror.positions:
                    continue                     # its stop or target closed it
                oid, code = b.market_close(t, pid)
                if code != "ok":
                    owner = b.mirror.positions[pid].owner
                    agenda.at(i + rng.randint(2, 10), "cancel", owner, [oid])
                    agenda.at(i + rng.randint(11, 20), "close", pid)
            elif kind == "cancel":
                b.cancel_pending(t, event[1], event[2])
            elif kind == "lp":
                lp = rng.choice(LPS)
                if rng.random() < 0.5 or not b.redeem(t, lp, rng.randint(10_000, 100_000)):
                    b.deposit(t, lp, rng.randint(10_000, 200_000))
            elif kind == "sweep":
                if b.mirror.oracle_ok(t):
                    b.add(t, "lp0", "liquidate_check")
                else:
                    agenda.at(i + 1, "sweep")
    return _inputs(b, config, trace, traders)


def deep_book(seed: int, spec: DeepSpec | None = None) -> Inputs:
    """Open positions climb into the thousands under hundreds of resting triggers."""
    spec = spec or DeepSpec()
    rng = random.Random(f"deep_book:{seed}")
    config = market_config(rng)
    trace = price_trace(rng, TraceSpec(
        steps=spec.steps, step_s=5, sigma=0.004, band=0.12, mid_frac=0.0,
        high_frac=0.0, gaps=0))
    b = Builder(config, trace, utilization_cap=30.0)
    n = len(b.timeline)
    traders = [f"t{i:03d}" for i in range(50)]
    warmup = max(1, n // 20)                 # steps that build the resting book
    closable: list[int] = []
    churn: list[int] = []
    sweep_at = {(k + 1) * n // spec.sweeps - 1 for k in range(spec.sweeps)}
    # the trace has no gaps, so step i of the timeline is primary[i]
    primary = [price for _, feed, price in trace if feed == "primary"]

    def new_open(i: int, t: int, risky: bool) -> int:
        owner = rng.choice(traders)
        direction = rng.choice(("long", "short"))
        if risky:
            # bet against the move up to the next sweep, which may liquidate it
            later = primary[min(s for s in sweep_at if s >= i)]
            direction = "long" if later < primary[i] else "short"
            size, lev = rng.randint(200, 2_000), rng.uniform(9.0, 9.9)
        else:
            size, lev = rng.randint(500, 5_000), rng.uniform(1.2, 2.5)
        _, code, pid = b.market_open(t, owner, direction, size, lev)
        if code != "ok":
            raise GeneratorError("deep_book opens must always fill")
        return pid

    opens_left = spec.opens
    for i, t in enumerate(b.timeline):
        for _, order, code, pid, _ in b.step(t):
            if code == "ok" and order.kind == "limit_open":
                closable.append(pid)
        if i == 0:
            for lp in LPS:
                b.deposit(t, lp, 60_000_000)
            continue
        ref = b.mirror.primary()
        if i <= warmup:
            # anchors carry far stops; far limits rest below and above the band
            for _ in range(spec.anchors // warmup + (i <= spec.anchors % warmup)):
                pid = new_open(i, t, False)
                pos = b.mirror.positions[pid]
                b.attach(t, pid, "stop_loss",
                         _offset(ref, -_sign(pos.direction) * rng.uniform(25, 40)))
            for _ in range(spec.resting_limits // warmup
                           + (i <= spec.resting_limits % warmup)):
                direction = rng.choice(("long", "short"))
                b.limit_open(t, rng.choice(traders), direction,
                             _offset(ref, -_sign(direction) * rng.uniform(25, 40)),
                             rng.randint(500, 5_000), rng.uniform(1.2, 2.5))
        per_step = opens_left // (n - i)
        opens_left -= per_step
        for _ in range(per_step):
            risky = rng.random() < 0.02
            pid = new_open(i, t, risky)
            if not risky:
                closable.append(pid)
        if i > warmup:
            if closable:
                k = rng.randrange(len(closable))
                closable[k], closable[-1] = closable[-1], closable[k]
                _, code = b.market_close(t, closable.pop())
                if code != "ok":
                    raise GeneratorError("deep_book closes must always fill")
            # churn: replace the oldest near limit by a fresh one
            if len(churn) >= 20:
                old = churn.pop(0)
                if old in b.mirror.orders:
                    b.cancel_pending(t, b.mirror.orders[old].owner, [old])
            direction = rng.choice(("long", "short"))
            churn.append(b.limit_open(
                t, rng.choice(traders), direction,
                _offset(ref, -_sign(direction) * rng.uniform(0.1, 1.0)),
                rng.randint(500, 5_000), rng.uniform(1.2, 2.5)))
        if i in sweep_at:
            b.add(t, "lp0", "liquidate_check")
    return _inputs(b, config, trace, traders)


def _inputs(b: Builder, config: dict, trace, traders: list[str]) -> Inputs:
    scenario = {
        "market_config": "market.json",
        "price_trace": "trace.csv",
        "snapshot_interval": 3600,
        "accounts": LPS + traders,
        "actions": b.actions,
    }
    stats = {
        "actions": len(b.actions),
        "points": len(trace),
        "timestamps": len(b.timeline),
        "positions_opened": b.mirror.next_position - 1,
        "positions_open_at_end": len(b.mirror.positions),
        "pending_orders_at_end": len(b.mirror.orders),
        "trigger_attempts": b.mirror.trigger_attempts,
        "trigger_fills": b.mirror.trigger_fills,
    }
    return Inputs(config, trace, scenario, stats)


# -- curve tables ----------------------------------------------------------------

GRID = "0:100:0.005"


def curve_tables(seed: int, grid: str = GRID) -> list[dict]:
    """The four figure kinds, each with seed-drawn coefficients on a fine grid.

    Each entry holds the `perpamm curves` arguments (without --out) and the
    parameters the output check evaluates independently.
    """
    rng = random.Random(f"curves_tables:{seed}")

    def coefs(lo: float, hi: float, count: int) -> list[str]:
        return [f"{rng.uniform(lo, hi):.6f}" for _ in range(count)]

    price = f"{rng.uniform(1000, 3000):.2f}"
    kd_one = coefs(0.0001, 0.0008, 1)
    kds = coefs(0.0001, 0.0008, 3)
    kbs = coefs(0.005, 0.04, 3)
    ks = coefs(0.01, 0.04, 3)
    cd = coefs(0, 0.5, 1)[0]
    cb = coefs(0, 3, 1)[0]
    m_max = rng.choice(["100", "250", "500"])
    tables = [
        {"kind": "deviation_price", "price": price, "coefs": kd_one, "const": cd},
        {"kind": "deviation_pct", "coefs": kds, "const": cd},
        {"kind": "base_fee", "coefs": kbs, "const": cb},
        {"kind": "dynamic_fee", "coefs": ks, "const": m_max},
    ]
    flags = {"deviation_price": ("--kd", "--cd"), "deviation_pct": ("--kd", "--cd"),
             "base_fee": ("--kb", "--cb"), "dynamic_fee": ("--k", "--m-max")}
    for table in tables:
        coef_flag, const_flag = flags[table["kind"]]
        argv = ["curves", "--kind", table["kind"], "--grid", grid]
        if "price" in table:
            argv += ["--price", table["price"]]
        for c in table["coefs"]:
            argv += [coef_flag, c]
        table["argv"] = argv + [const_flag, table["const"]]
        table["grid"] = grid
    return tables


# -- writing -----------------------------------------------------------------------

def write_inputs(inputs: Inputs, directory: str) -> dict[str, str]:
    """Write market.json, trace.csv and scenario.json; return their paths."""
    os.makedirs(directory, exist_ok=True)
    paths = {name: os.path.join(directory, name)
             for name in ("market.json", "trace.csv", "scenario.json")}
    with open(paths["market.json"], "w") as fh:
        json.dump(inputs.config, fh, indent=2)
        fh.write("\n")
    with open(paths["trace.csv"], "w") as fh:
        fh.write("timestamp,feed_id,price\n")
        fh.writelines(f"{t},{feed},{price_text(p)}\n" for t, feed, p in inputs.trace)
    with open(paths["scenario.json"], "w") as fh:
        json.dump(inputs.scenario, fh, separators=(",", ":"))
        fh.write("\n")
    return paths


GENERATORS = {"replay_mixed": replay_mixed, "deep_book": deep_book}
