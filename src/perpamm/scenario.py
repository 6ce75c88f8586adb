"""Deterministic event-driven scenario harness.

A scenario is a JSON document binding one market config and one price trace
to a time-ordered list of actor actions. Events at the same timestamp apply
in a fixed order: price updates, trigger evaluation, explicit actions in
declaration order, then a due snapshot; fees accrue inside the engine calls
and the snapshot. Replaying identical inputs yields byte-identical outputs.
The runner walks the trace and the actions in time order as loaded, so each
must be sorted by time; `load_trace` and `parse_scenario` refuse any other.
The trace holds points of the feeds `oracle.FEEDS` only, and the trigger
pass takes the primary's latest price as its mark.

`config.read_fields` reads the scenario's top-level object when it loads,
and each action's params, against ACTION_PARAMS, when the action runs;
`parse_scenario` checks each action entry (keys, time, actor and kind)
itself, in the reader's message forms. A malformed top level or entry stops
the load with a ScenarioError.
A missing, unknown or malformed param is a ScenarioError receipt and the run
continues, as are engine errors. A liquidation sweep tries only the positions
`Engine.liquidatable` flags, so a healthy one writes no row. An InsolventVault
error is fatal: the run halts after its row and that time's snapshot, with
partial output flagged.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from itertools import groupby, pairwise, starmap
from operator import attrgetter, le
from typing import NamedTuple

from .config import load_market_config, non_empty_string, read_fields, read_json, seconds
from .engine import Direction, Engine, OrderKind, pool_metrics
from .errors import InsolventVault, ProtocolError, ScenarioError
from .money import (FEE_INDEX_SCALE, MAX_TIMESTAMP, UNIT_SCALE, div_round_half_even,
                    format_nanos, format_units, to_units)
from .oracle import PRIMARY, PricePoint, load_trace


def _amount(value) -> int:
    # reads the module's `to_units` at each call, so a patched one sees every parse
    return to_units(value)


def _share(value) -> int:
    share = to_units(value)
    if not 0 <= share <= 100 * UNIT_SCALE:
        raise ValueError("must be within [0, 100]%")
    return share


def _member(enum_type):
    """A parser of `enum_type`'s members by value: a dict lookup, which spares
    each action the Python-level `Enum.__new__` of `enum_type(value)` and
    refuses what it refuses, an unhashable value too, in its words."""
    members = {member.value: member for member in enum_type}

    def parse(value):
        try:
            return members[value]
        except (KeyError, TypeError):
            raise ValueError(f"{value!r} is not a valid {enum_type.__name__}") from None

    return parse


def _id(value) -> int:
    if type(value) is not int:
        raise ValueError(f"not an integer id: {type(value).__name__}")
    return value


# action kind -> (a parser per param key, the keys it requires). A parser
# returns the value the engine takes; each key is that call's keyword name.
ACTION_PARAMS = {
    "deposit": ({"assets": _amount}, ("assets",)),
    "redeem": ({"shares": _amount}, ("shares",)),
    "create_order": ({"kind": _member(OrderKind), "direction": _member(Direction),
                      "size": _amount, "collateral": _amount,
                      "acceptable_price": _amount, "max_slippage": _amount,
                      "trigger_price": _amount, "position_id": _id},
                     ("kind", "direction")),
    "settle_order": ({"order_id": _id}, ("order_id",)),
    "cancel_order": ({"order_id": _id}, ("order_id",)),
    "liquidate_check": ({"position_id": _id}, ()),
}
ACTION_KINDS = frozenset(ACTION_PARAMS)

_ACTION_KEYS = {"time", "actor", "action", "params"}


class Action(NamedTuple):
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
    treasury_fee_share: int = 0


class ReceiptRow(NamedTuple):
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


class SnapshotRow(NamedTuple):
    time: int
    pool_value: int
    reserved: int
    long_oi: int
    short_oi: int
    utilization: int
    skew: int
    borrow_rate_long: int
    borrow_rate_short: int
    cum_fee_index_long: int
    cum_fee_index_short: int
    vault_shares: int
    share_price: int
    open_positions: int
    open_collateral: int
    treasury: int

    def as_csv(self) -> list[str]:
        per_nano = FEE_INDEX_SCALE // 10**9   # an index prints as nanos of a unit fee
        return [
            str(self.time), format_units(self.pool_value), format_units(self.reserved),
            format_units(self.long_oi), format_units(self.short_oi),
            format_nanos(self.utilization), format_nanos(self.skew),
            format_nanos(self.borrow_rate_long), format_nanos(self.borrow_rate_short),
            format_nanos(div_round_half_even(self.cum_fee_index_long, per_nano)),
            format_nanos(div_round_half_even(self.cum_fee_index_short, per_nano)),
            format_units(self.vault_shares), format_nanos(self.share_price),
            str(self.open_positions), format_units(self.open_collateral),
            format_units(self.treasury),
        ]


SNAPSHOT_HEADER = list(SnapshotRow._fields)
RECEIPT_HEADER = list(ReceiptRow._fields)


@dataclass
class RunResult:
    snapshots: list[SnapshotRow]
    receipts: list[ReceiptRow]
    engine: Engine
    cash: dict[str, int]
    halted: bool = False


# -- Scenario loading -----------------------------------------------------------

def _accounts(value) -> list[str]:
    # a name is a receipt's unquoted CSV cell: a "," or '"' would shift or open a
    # cell, a bare CR would split the row and a lone surrogate has no UTF-8
    if not (isinstance(value, list)
            and all(isinstance(a, str) and a and a.isprintable()
                    and "," not in a and '"' not in a for a in value)):
        raise ValueError("must be a list of non-empty printable account names "
                         "with no comma or double quote")
    return value


def _list(value) -> list:
    if not isinstance(value, list):
        raise ValueError("must be a list")
    return value


# Scenario field -> the parser of its envelope key; each action entry is
# checked in parse_scenario, against the accounts
_ENVELOPE = {
    "market_config": non_empty_string, "price_trace": non_empty_string,
    "actions": _list, "snapshot_interval": seconds, "accounts": _accounts,
    "treasury_fee_share": _share,
}
_ENVELOPE_REQUIRED = ("market_config", "price_trace", "actions", "snapshot_interval",
                      "accounts")


def parse_scenario(raw: dict) -> Scenario:
    values = read_fields(raw, _ENVELOPE, _ENVELOPE_REQUIRED, ScenarioError, "scenario")
    account_set = set(values["accounts"])
    actions: list[Action] = []
    last_time = 0     # times are checked to be >= 0 first
    for seq, entry in enumerate(values["actions"]):
        if not isinstance(entry, dict):
            raise ScenarioError(f"action #{seq} must be an object")
        if not entry.keys() <= _ACTION_KEYS:
            unknown = next(key for key in entry if key not in _ACTION_KEYS)
            raise ScenarioError(f"action #{seq}: unknown key {unknown!r}")
        for key in ("time", "actor", "action"):
            if key not in entry:
                raise ScenarioError(f"action #{seq}: missing key {key!r}")
        time = entry["time"]
        if not (isinstance(time, int) and not isinstance(time, bool)
                and 0 <= time <= MAX_TIMESTAMP):
            raise ScenarioError(
                f"action #{seq}: bad 'time': must be an integer in [0, {MAX_TIMESTAMP}]")
        if time < last_time:
            raise ScenarioError(f"action #{seq}: actions must be sorted by time")
        last_time = time
        actor = entry["actor"]
        if not (isinstance(actor, str) and actor in account_set):
            raise ScenarioError(f"action #{seq}: bad 'actor': undefined account {actor!r}")
        kind = entry["action"]
        if not (isinstance(kind, str) and kind in ACTION_KINDS):
            raise ScenarioError(f"action #{seq}: bad 'action': unknown action {kind!r}")
        params = entry.get("params", {})
        if not isinstance(params, dict):
            raise ScenarioError(f"action #{seq}: bad 'params': must be an object")
        actions.append(Action(seq, time, actor, kind, params))
    values["actions"] = actions
    return Scenario(**values)


def load_scenario(path: str) -> Scenario:
    return parse_scenario(read_json(path, ScenarioError, "scenario"))


# -- Action dispatch ---------------------------------------------------------------

_POINT_TIME = attrgetter("publish_time")
_ACTION_TIME = attrgetter("time")
_NEVER = float("inf")     # the head time of a spent stream
_DONE = (_NEVER, ())


class _Halt(Exception):
    """Stops the run after an InsolventVault row; not a ProtocolError, so no
    handler on the way records it again."""


class _Runner:
    def __init__(self, scenario: Scenario, engine: Engine,
                 trace: list[PricePoint]) -> None:
        self.scenario = scenario
        self.engine = engine
        self.trace = trace
        self.cash: dict[str, int] = {name: 0 for name in scenario.accounts}
        self.receipts: list[ReceiptRow] = []
        self.snapshots: list[SnapshotRow] = []

    # receipts ----------------------------------------------------------------
    # Each outcome is one row, appended by _emit, which also moves the actor's
    # cash by the row's cash_delta; _failed is the one place an error becomes
    # a row, and the one place a halt starts.

    def _emit(self, time: int, actor: str, action: str, status: str, **fields) -> None:
        row = ReceiptRow(len(self.receipts) + 1, time, actor, action, status, **fields)
        self.receipts.append(row)
        if row.cash_delta:
            self.cash[actor] += row.cash_delta

    def _failed(self, time: int, actor: str, action: str, exc: ProtocolError,
                **ids) -> None:
        self._emit(time, actor, action, exc.code, **ids)
        if isinstance(exc, InsolventVault):
            raise _Halt

    def _emit_settlement(self, time: int, actor: str, action: str, receipt,
                         order_id: int | None, position_id: int | None) -> None:
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
        engine.accrue(time)
        pool, pool_value = engine.pool, engine.vault.total_assets
        utilization, skew, rate_long, rate_short = pool_metrics(pool, pool_value, engine.config)
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
            open_collateral=engine.open_collateral,
            treasury=engine.treasury,
        ))

    # event loop ------------------------------------------------------------------

    def run(self) -> RunResult:
        """Apply every event in time order, as the module docstring lays out.

        The trace and the actions must each be sorted by time, as `load_trace`
        and `parse_scenario` leave them: the run walks them as two streams of
        equal-time groups, each step taking the earlier head time, and holds
        no copy of either. A list out of order raises ValueError before any
        event applies.
        """
        trace, actions = self.trace, self.scenario.actions
        for name, items, key in (("trace", trace, _POINT_TIME),
                                 ("actions", actions, _ACTION_TIME)):
            if not all(starmap(le, pairwise(map(key, items)))):
                raise ValueError(f"the {name} must be sorted by time")
        ingest = self.engine.feeds.ingest
        point_groups = groupby(trace, _POINT_TIME)
        action_groups = groupby(actions, _ACTION_TIME)
        point_time, points = next(point_groups, _DONE)
        action_time, time_actions = next(action_groups, _DONE)
        t = start = next_due = min(point_time, action_time)
        interval = self.scenario.snapshot_interval
        halted = False

        while t != _NEVER:
            if point_time == t:
                for point in points:                     # 1. price updates
                    ingest(point)
                point_time, points = next(point_groups, _DONE)
            try:
                self._run_triggers(t)                    # 2. trigger evaluation
                if action_time == t:
                    for action in time_actions:          # 3. explicit actions
                        self._dispatch(action)
                    action_time, time_actions = next(action_groups, _DONE)
            except _Halt:
                self._snapshot(t)                        # 4. snapshot, then stop
                halted = True
                break
            following = min(point_time, action_time)
            if interval == 0 or t >= next_due or following == _NEVER:
                self._snapshot(t)                        # 4. snapshot, if due
                if interval > 0:
                    next_due = start + ((t - start) // interval + 1) * interval
            t = following

        return RunResult(snapshots=self.snapshots, receipts=self.receipts,
                         engine=self.engine, cash=self.cash, halted=halted)

    def _run_triggers(self, t: int) -> None:
        engine = self.engine
        primary = engine.feeds.get(PRIMARY)
        if primary is None:
            return
        for order_id in engine.evaluate_triggers(primary.price):
            order = engine.orders[order_id]
            try:
                receipt = engine.settle_order(order_id, t)
            except ProtocolError as exc:
                self._failed(t, order.owner, "trigger_settle", exc,
                             order_id=order_id, position_id=order.position_id)
            else:
                self._emit_settlement(t, order.owner, "trigger_settle", receipt,
                                      order_id, order.position_id)

    # dispatch --------------------------------------------------------------------

    def _dispatch(self, action: Action) -> None:
        handler = getattr(self, f"_do_{action.kind}")
        parsers, required = ACTION_PARAMS[action.kind]
        params = {}   # stays empty when parsing fails: the row then carries no ids
        try:
            params = read_fields(action.params, parsers, required, ScenarioError,
                                 f"action #{action.seq}")
            handler(action, params)
        except ProtocolError as exc:
            self._failed(action.time, action.actor, action.kind, exc,
                         order_id=params.get("order_id"), position_id=params.get("position_id"))

    def _do_deposit(self, action: Action, params: dict) -> None:
        assets = params["assets"]
        shares = self.engine.lp_deposit(action.actor, assets, action.time)
        self._emit(action.time, action.actor, action.kind, "ok",
                   shares_delta=shares, cash_delta=-assets)

    def _do_redeem(self, action: Action, params: dict) -> None:
        shares = params["shares"]
        assets = self.engine.lp_redeem(action.actor, shares, action.time)
        self._emit(action.time, action.actor, action.kind, "ok",
                   shares_delta=-shares, cash_delta=assets)

    def _do_create_order(self, action: Action, params: dict) -> None:
        order_id = self.engine.create_order(action.actor, **params)
        collateral = self.engine.escrow.get(order_id, 0)
        self._emit(action.time, action.actor, action.kind, "ok",
                   order_id=order_id,
                   cash_delta=-collateral if collateral else None)

    def _do_settle_order(self, action: Action, params: dict) -> None:
        order_id = params["order_id"]
        order = self.engine.orders.get(order_id)   # None only if the call raises
        receipt = self.engine.settle_order(order_id, action.time)
        self._emit_settlement(action.time, order.owner, action.kind, receipt,
                              order_id, order.position_id)

    def _do_cancel_order(self, action: Action, params: dict) -> None:
        order_id = params["order_id"]
        order = self.engine.orders.get(order_id)   # None only if the call raises
        refund = self.engine.cancel_order(order_id)
        self._emit(action.time, order.owner, action.kind, "ok", order_id=order_id,
                   cash_delta=refund if refund else None)

    def _do_liquidate_check(self, action: Action, params: dict) -> None:
        # a sweep (no position_id) tries only the positions the engine flags
        targets = ([params["position_id"]] if "position_id" in params
                   else self.engine.liquidatable(action.time))
        for position_id in targets:
            pos = self.engine.positions.get(position_id)
            owner = pos.owner if pos is not None else action.actor
            try:
                receipt = self.engine.liquidate(position_id, action.time)
            except ProtocolError as exc:
                self._failed(action.time, owner, action.kind, exc, position_id=position_id)
            else:
                self._emit_settlement(action.time, owner, action.kind, receipt,
                                      None, position_id)


# -- Entrypoints --------------------------------------------------------------------

def run(scenario: Scenario, config, trace: list[PricePoint]) -> RunResult:
    """Run a loaded scenario against a parsed config and trace."""
    engine = Engine(config, treasury_fee_share=scenario.treasury_fee_share)
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
    """Write a UTF-8 text file via temp-file + atomic rename; `write(fh)` fills it."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="", encoding="utf-8") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv_atomic(path: str, header: list[str], lines) -> None:
    """Write a CSV via temp-file + atomic rename: the header's cells joined by
    ",", then `lines`, an iterable of rows already so joined, each ending in
    "\\n" (LF line endings), written as it yields them.

    No cell is quoted, since none can need it: an account name holds no ",",
    '"' or line break (`_accounts` refuses them), and numbers, error codes,
    action kinds, grid labels and a Decimal's str never do.
    """
    def write(fh) -> None:
        fh.write(",".join(header) + "\n")
        fh.writelines(lines)

    _write_atomic(path, write)


HASH_BLOCK = 1 << 16   # bytes of an input read at a time to hash it


def write_outputs(result: RunResult, out_dir: str, inputs: dict[str, str]) -> None:
    """Write snapshots.csv, receipts.csv, and a deterministic manifest.json."""
    import hashlib

    os.makedirs(out_dir, exist_ok=True)
    write_csv_atomic(os.path.join(out_dir, "snapshots.csv"), SNAPSHOT_HEADER,
                     (",".join(row.as_csv()) + "\n" for row in result.snapshots))
    write_csv_atomic(os.path.join(out_dir, "receipts.csv"), RECEIPT_HEADER,
                     (",".join(row.as_csv()) + "\n" for row in result.receipts))

    digests = {}
    for name, path in sorted(inputs.items()):
        digest = hashlib.sha256()
        with open(path, "rb") as fh:   # in blocks: an input is never held whole
            for block in iter(lambda: fh.read(HASH_BLOCK), b""):
                digest.update(block)
        digests[name] = digest.hexdigest()
    manifest = {
        "inputs": digests,
        "halted": result.halted,
        "snapshots": len(result.snapshots),
        "receipts": len(result.receipts),
    }
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    _write_atomic(os.path.join(out_dir, "manifest.json"), lambda fh: fh.write(text))
