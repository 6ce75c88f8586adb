"""Deterministic event-driven scenario harness.

A scenario is a JSON document binding one market config and one price trace
to a time-ordered list of actor actions. Events at the same timestamp apply
in a fixed order: price updates, fee accrual, trigger evaluation, then the
explicit actions in declaration order, so replaying identical inputs yields
byte-identical outputs.

Engine errors are recorded in the receipts and the run continues; an
InsolventVault error is fatal and halts the run with partial output flagged.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from decimal import Decimal

from .config import load_market_config
from .engine import Direction, Engine, OrderKind, pool_metrics
from .errors import InsolventVault, NotLiquidatable, ProtocolError, ScenarioError
from .money import format9, format_units, to_units
from .oracle import PricePoint, load_trace

ACTION_KINDS = {"deposit", "redeem", "create_order", "settle_order",
                "cancel_order", "liquidate_check"}

_SCENARIO_KEYS = {"market_config", "price_trace", "actions", "snapshot_interval",
                  "accounts", "primary_feed", "secondary_feed", "treasury_fee_share"}
_ACTION_KEYS = {"time", "actor", "action", "params"}

SNAPSHOT_HEADER = [
    "time", "pool_value", "reserved", "long_oi", "short_oi", "utilization",
    "skew", "borrow_rate_long", "borrow_rate_short", "cum_fee_index_long",
    "cum_fee_index_short", "vault_shares", "share_price", "open_positions",
    "open_collateral", "treasury",
]
RECEIPT_HEADER = [
    "seq", "time", "actor", "action", "status", "order_id", "position_id",
    "executed_price", "open_close_fee", "borrow_fee_paid", "realized_pnl",
    "liquidation_fee", "shares_delta", "cash_delta",
]


@dataclass(frozen=True)
class Action:
    seq: int
    time: int
    actor: str
    kind: str
    params: dict


@dataclass(frozen=True)
class Scenario:
    market_config: str
    price_trace: str
    actions: list[Action]
    snapshot_interval: int
    accounts: list[str]
    primary_feed: str = "primary"
    secondary_feed: str = "secondary"
    treasury_fee_share: int = 0


@dataclass
class ReceiptRow:
    seq: int
    time: int
    actor: str
    action: str
    status: str
    order_id: int | None = None
    position_id: int | None = None
    executed_price: int | None = None
    open_close_fee: int | None = None
    borrow_fee_paid: int | None = None
    realized_pnl: int | None = None
    liquidation_fee: int | None = None
    shares_delta: int | None = None
    cash_delta: int | None = None

    def as_csv(self) -> list[str]:
        def m(v):  # money/share columns
            return "" if v is None else format_units(v)

        return [
            str(self.seq), str(self.time), self.actor, self.action, self.status,
            "" if self.order_id is None else str(self.order_id),
            "" if self.position_id is None else str(self.position_id),
            m(self.executed_price), m(self.open_close_fee), m(self.borrow_fee_paid),
            m(self.realized_pnl), m(self.liquidation_fee), m(self.shares_delta),
            m(self.cash_delta),
        ]


@dataclass
class SnapshotRow:
    time: int
    pool_value: int
    reserved: int
    long_oi: int
    short_oi: int
    utilization: float
    skew: float
    borrow_rate_long: float
    borrow_rate_short: float
    cum_fee_index_long: float
    cum_fee_index_short: float
    vault_shares: int
    share_price: float
    open_positions: int
    open_collateral: int
    treasury: int

    def as_csv(self) -> list[str]:
        return [
            str(self.time), format_units(self.pool_value), format_units(self.reserved),
            format_units(self.long_oi), format_units(self.short_oi),
            format9(self.utilization), format9(self.skew),
            format9(self.borrow_rate_long), format9(self.borrow_rate_short),
            format9(self.cum_fee_index_long), format9(self.cum_fee_index_short),
            format_units(self.vault_shares), format9(self.share_price),
            str(self.open_positions), format_units(self.open_collateral),
            format_units(self.treasury),
        ]


@dataclass
class RunResult:
    snapshots: list[SnapshotRow]
    receipts: list[ReceiptRow]
    engine: Engine
    cash: dict[str, int]
    halted: bool = False


# -- Scenario loading -----------------------------------------------------------

def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ScenarioError(message)


def parse_scenario(raw: dict) -> Scenario:
    _require(isinstance(raw, dict), "scenario must be a JSON object")
    unknown = sorted(set(raw) - _SCENARIO_KEYS)
    _require(not unknown, f"unknown scenario keys: {', '.join(unknown)}")
    for key in ("market_config", "price_trace", "actions", "snapshot_interval", "accounts"):
        _require(key in raw, f"missing scenario key: {key}")
    _require(isinstance(raw["snapshot_interval"], int) and not isinstance(raw["snapshot_interval"], bool)
             and raw["snapshot_interval"] >= 0,
             "snapshot_interval must be a non-negative integer (seconds)")
    accounts = raw["accounts"]
    _require(isinstance(accounts, list) and all(isinstance(a, str) for a in accounts),
             "accounts must be a list of account names")
    account_set = set(accounts)

    actions: list[Action] = []
    last_time = None
    _require(isinstance(raw["actions"], list), "actions must be a list")
    for seq, entry in enumerate(raw["actions"]):
        _require(isinstance(entry, dict), f"action #{seq} must be an object")
        unknown = sorted(set(entry) - _ACTION_KEYS)
        _require(not unknown, f"action #{seq}: unknown keys {', '.join(unknown)}")
        for key in ("time", "actor", "action"):
            _require(key in entry, f"action #{seq}: missing {key}")
        time = entry["time"]
        _require(isinstance(time, int) and not isinstance(time, bool) and time >= 0,
                 f"action #{seq}: time must be a non-negative integer")
        _require(last_time is None or time >= last_time,
                 f"action #{seq}: actions must be sorted by time")
        last_time = time
        actor = entry["actor"]
        _require(actor in account_set, f"action #{seq}: undefined account {actor!r}")
        kind = entry["action"]
        _require(kind in ACTION_KINDS, f"action #{seq}: unknown action {kind!r}")
        params = entry.get("params", {})
        _require(isinstance(params, dict), f"action #{seq}: params must be an object")
        actions.append(Action(seq=seq, time=time, actor=actor, kind=kind, params=params))

    def _feed(key: str, default: str) -> str:
        value = raw.get(key, default)
        _require(isinstance(value, str) and bool(value), f"{key} must be a non-empty string")
        return value

    share = raw.get("treasury_fee_share", 0)
    try:
        share_units = to_units(share)
    except ProtocolError:
        raise ScenarioError(f"bad treasury_fee_share: {share!r}") from None

    return Scenario(
        market_config=str(raw["market_config"]),
        price_trace=str(raw["price_trace"]),
        actions=actions,
        snapshot_interval=raw["snapshot_interval"],
        accounts=list(accounts),
        primary_feed=_feed("primary_feed", "primary"),
        secondary_feed=_feed("secondary_feed", "secondary"),
        treasury_fee_share=share_units,
    )


def load_scenario(path: str) -> Scenario:
    try:
        with open(path) as fh:
            raw = json.load(fh, parse_float=Decimal, parse_int=int)
    except FileNotFoundError:
        raise ScenarioError(f"scenario file not found: {path}") from None
    except ValueError as exc:   # bad JSON or text, or an int past int()'s digit limit
        raise ScenarioError(f"scenario is not valid JSON: {exc}") from None
    return parse_scenario(raw)


# -- Action dispatch ---------------------------------------------------------------

def _param_units(params: dict, key: str, seq: int) -> int:
    if key not in params:
        raise ScenarioError(f"action #{seq}: missing param {key!r}")
    try:
        return to_units(params[key])
    except ProtocolError:
        raise ScenarioError(f"action #{seq}: bad amount for {key!r}") from None


def _param_int(params: dict, key: str, seq: int) -> int:
    value = params.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ScenarioError(f"action #{seq}: {key!r} must be an integer")
    return value


class _Runner:
    def __init__(self, scenario: Scenario, engine: Engine,
                 trace: list[PricePoint]) -> None:
        self.scenario = scenario
        self.engine = engine
        self.trace = trace
        self.cash: dict[str, int] = {name: 0 for name in scenario.accounts}
        self.receipts: list[ReceiptRow] = []
        self.snapshots: list[SnapshotRow] = []
        self.halted = False
        self._receipt_seq = 0

    # receipts ----------------------------------------------------------------

    def _emit(self, time: int, actor: str, action: str, status: str, **fields) -> None:
        self._receipt_seq += 1
        self.receipts.append(ReceiptRow(seq=self._receipt_seq, time=time,
                                        actor=actor, action=action, status=status,
                                        **fields))

    def _emit_settlement(self, time: int, actor: str, action: str, receipt,
                         order_id: int | None, position_id: int | None) -> None:
        self.cash[actor] = self.cash.get(actor, 0) + receipt.payout
        self._emit(time, actor, action, "ok", order_id=order_id,
                   position_id=position_id, executed_price=receipt.executed_price,
                   open_close_fee=receipt.open_close_fee,
                   borrow_fee_paid=receipt.borrow_fee_paid,
                   realized_pnl=receipt.realized_pnl,
                   liquidation_fee=receipt.liquidation_fee,
                   cash_delta=receipt.payout)

    # snapshots ----------------------------------------------------------------

    def _snapshot(self, time: int) -> None:
        engine = self.engine
        pool, pool_value = engine.pool, engine.vault.total_assets
        utilization, skew, rate_long, rate_short = pool_metrics(
            pool, pool_value, engine.config)
        self.snapshots.append(SnapshotRow(
            time=time, pool_value=pool_value, reserved=pool.reserved,
            long_oi=pool.long_oi, short_oi=pool.short_oi,
            utilization=utilization, skew=skew,
            borrow_rate_long=rate_long, borrow_rate_short=rate_short,
            cum_fee_index_long=pool.cum_fee_index_long,
            cum_fee_index_short=pool.cum_fee_index_short,
            vault_shares=engine.vault.total_shares,
            share_price=engine.vault.share_price(),
            open_positions=len(engine.positions),
            open_collateral=engine.open_collateral_total(),
            treasury=engine.treasury,
        ))

    # event loop ------------------------------------------------------------------

    def run(self) -> RunResult:
        by_time_points: dict[int, list[PricePoint]] = {}
        for point in self.trace:
            by_time_points.setdefault(point.publish_time, []).append(point)
        by_time_actions: dict[int, list[Action]] = {}
        for action in self.scenario.actions:
            by_time_actions.setdefault(action.time, []).append(action)

        timeline = sorted(set(by_time_points) | set(by_time_actions))
        interval = self.scenario.snapshot_interval
        next_due = timeline[0] if timeline else 0

        for t in timeline:
            for point in by_time_points.get(t, ()):      # 1. price updates
                self.engine.feeds.ingest(point)
            try:
                self.engine.accrue(t)                    # 2. fee accrual
            except InsolventVault as exc:
                self._emit(t, "", "accrue", exc.code)
                self.halted = True
            if not self.halted:
                self._run_triggers(t)                    # 3. trigger evaluation
            if not self.halted:
                for action in by_time_actions.get(t, ()):  # 4. explicit actions
                    self._dispatch(action)
                    if self.halted:
                        break
            if interval == 0 or t >= next_due or self.halted or t == timeline[-1]:
                self._snapshot(t)
                if interval > 0:
                    start = timeline[0]
                    next_due = start + ((t - start) // interval + 1) * interval
            if self.halted:
                break

        return RunResult(snapshots=self.snapshots, receipts=self.receipts,
                         engine=self.engine, cash=self.cash, halted=self.halted)

    def _run_triggers(self, t: int) -> None:
        mark = self.engine.feeds.latest_price(self.scenario.primary_feed)
        if mark is None:
            return
        for order_id in self.engine.evaluate_triggers(mark):
            order = self.engine.orders[order_id]
            position_id = order.position_id
            try:
                receipt = self.engine.settle_order(order_id, t)
            except InsolventVault as exc:
                self._emit(t, order.owner, "trigger_settle", exc.code,
                           order_id=order_id, position_id=position_id)
                self.halted = True
                return
            except ProtocolError as exc:
                self._emit(t, order.owner, "trigger_settle", exc.code,
                           order_id=order_id, position_id=position_id)
                continue
            self._emit_settlement(t, order.owner, "trigger_settle", receipt,
                                  order_id, position_id)

    # dispatch --------------------------------------------------------------------

    def _dispatch(self, action: Action) -> None:
        handler = getattr(self, f"_do_{action.kind}")
        try:
            handler(action)
        except InsolventVault as exc:
            self._emit(action.time, action.actor, action.kind, exc.code)
            self.halted = True
        except ProtocolError as exc:
            self._emit(action.time, action.actor, action.kind, exc.code)

    def _do_deposit(self, action: Action) -> None:
        assets = _param_units(action.params, "assets", action.seq)
        shares = self.engine.lp_deposit(action.actor, assets, action.time)
        self.cash[action.actor] -= assets
        self._emit(action.time, action.actor, action.kind, "ok",
                   shares_delta=shares, cash_delta=-assets)

    def _do_redeem(self, action: Action) -> None:
        shares = _param_units(action.params, "shares", action.seq)
        assets = self.engine.lp_redeem(action.actor, shares, action.time)
        self.cash[action.actor] += assets
        self._emit(action.time, action.actor, action.kind, "ok",
                   shares_delta=-shares, cash_delta=assets)

    def _do_create_order(self, action: Action) -> None:
        params = dict(action.params)
        kind_name = params.pop("kind", None)
        direction_name = params.pop("direction", None)
        try:
            kind = OrderKind(kind_name)
            direction = Direction(direction_name)
        except ValueError:
            raise ScenarioError(
                f"action #{action.seq}: bad order kind/direction") from None
        known = {"size", "collateral", "acceptable_price", "max_slippage",
                 "trigger_price", "position_id"}
        unknown = sorted(set(params) - known)
        if unknown:
            raise ScenarioError(
                f"action #{action.seq}: unknown order params {', '.join(unknown)}")
        position_id = None
        if "position_id" in params:
            position_id = _param_int(params, "position_id", action.seq)
        kwargs = {}
        for key in ("size", "collateral", "acceptable_price", "max_slippage",
                    "trigger_price"):
            if key in params:
                kwargs[key] = _param_units(params, key, action.seq)
        order_id = self.engine.create_order(
            action.actor, kind, direction, position_id=position_id, **kwargs)
        collateral = self.engine.escrow.get(order_id, 0)
        self.cash[action.actor] -= collateral
        self._emit(action.time, action.actor, action.kind, "ok",
                   order_id=order_id,
                   cash_delta=-collateral if collateral else None)

    def _do_settle_order(self, action: Action) -> None:
        order_id = _param_int(action.params, "order_id", action.seq)
        order = self.engine.orders.get(order_id)
        position_id = order.position_id if order is not None else None
        receipt = self.engine.settle_order(order_id, action.time)
        owner = order.owner if order is not None else action.actor
        self._emit_settlement(action.time, owner, action.kind, receipt,
                              order_id, position_id)

    def _do_cancel_order(self, action: Action) -> None:
        order_id = _param_int(action.params, "order_id", action.seq)
        order = self.engine.orders.get(order_id)
        refund = self.engine.cancel_order(order_id)
        owner = order.owner if order is not None else action.actor
        self.cash[owner] = self.cash.get(owner, 0) + refund
        self._emit(action.time, owner, action.kind, "ok", order_id=order_id,
                   cash_delta=refund if refund else None)

    def _do_liquidate_check(self, action: Action) -> None:
        params = action.params
        if "position_id" in params:
            targets = [_param_int(params, "position_id", action.seq)]
            sweep = False
        else:
            targets = sorted(self.engine.positions)
            sweep = True
        for position_id in targets:
            pos = self.engine.positions.get(position_id)
            owner = pos.owner if pos is not None else action.actor
            try:
                receipt = self.engine.liquidate(position_id, action.time)
            except InsolventVault as exc:
                self._emit(action.time, owner, action.kind, exc.code,
                           position_id=position_id)
                self.halted = True
                return
            except NotLiquidatable as exc:
                if not sweep:
                    self._emit(action.time, owner, action.kind, exc.code,
                               position_id=position_id)
                continue
            except ProtocolError as exc:
                self._emit(action.time, owner, action.kind, exc.code,
                           position_id=position_id)
                continue
            self._emit_settlement(action.time, owner, action.kind, receipt,
                                  None, position_id)


# -- Entrypoints --------------------------------------------------------------------

def run(scenario: Scenario, config, trace: list[PricePoint]) -> RunResult:
    """Run a loaded scenario against a parsed config and trace."""
    engine = Engine(config, treasury_fee_share=scenario.treasury_fee_share,
                    primary_feed=scenario.primary_feed,
                    secondary_feed=scenario.secondary_feed)
    return _Runner(scenario, engine, trace).run()


def run_files(scenario_path: str, config_path: str | None = None,
              trace_path: str | None = None) -> RunResult:
    """Load everything from disk and run.

    Explicit config/trace paths override the references inside the scenario
    file; relative references resolve against the scenario's directory.
    """
    scenario = load_scenario(scenario_path)
    base = os.path.dirname(os.path.abspath(scenario_path))

    def resolve(explicit: str | None, reference: str) -> str:
        if explicit is not None:
            return explicit
        if os.path.isabs(reference):
            return reference
        return os.path.join(base, reference)

    config = load_market_config(resolve(config_path, scenario.market_config))
    trace = load_trace(resolve(trace_path, scenario.price_trace))
    return run(scenario, config, trace)


# -- Output writing --------------------------------------------------------------------

def _write_atomic(path: str, write) -> None:
    """Write a text file via temp-file + atomic rename; `write(fh)` fills it."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv_atomic(path: str, header: list[str], rows) -> None:
    """Write a CSV via temp-file + atomic rename; LF line endings."""
    import csv

    def write(fh) -> None:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)

    _write_atomic(path, write)


def write_outputs(result: RunResult, out_dir: str, inputs: dict[str, str]) -> None:
    """Write snapshots.csv, receipts.csv, and a deterministic manifest.json."""
    import hashlib

    os.makedirs(out_dir, exist_ok=True)
    write_csv_atomic(os.path.join(out_dir, "snapshots.csv"), SNAPSHOT_HEADER,
                     (row.as_csv() for row in result.snapshots))
    write_csv_atomic(os.path.join(out_dir, "receipts.csv"), RECEIPT_HEADER,
                     (row.as_csv() for row in result.receipts))

    digests = {}
    for name, path in sorted(inputs.items()):
        with open(path, "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    manifest = {
        "inputs": digests,
        "halted": result.halted,
        "snapshots": len(result.snapshots),
        "receipts": len(result.receipts),
    }
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    _write_atomic(os.path.join(out_dir, "manifest.json"), lambda fh: fh.write(text))
