"""Random scenarios through the runner: `perpamm run` on written files.

A Hypothesis strategy writes a small market config, price trace and
scenario from the stateful machine's menus (`test_stateful`): fees and
price deviation, LP deposits and redeems, market and limit opens, closes,
stop-losses and take-profits, cancels, settles, single liquidations and
sweeps, feed moves inside and across both oracle bands, and clock steps
that leave the feeds stale. Some examples start with a close whose payout
takes the whole pool, or one base unit more, which halts the run.

Each example runs the CLI twice and `run_files` once. The exit code is 0,
or 1 with one InsolventVault line; the two output directories are byte-
identical; and the result conserves money, keeps reserved == long OI +
short OI <= pool value in every snapshot, and ends with a snapshot at the
time of the last receipt and the last accrual. csv.reader reads back
from each CSV file exactly the cells of its header and rows. Conservation
is checked from the written receipts.csv: each account's cash is the sum of
its `cash_delta` cells, so a delta the file drops is a failure.

A few fixed scenarios (the golden one and two drawn cases) also run through
`python -m perpamm.cli run` in two fresh processes, under PYTHONHASHSEED 1
and 2: the output bytes must not depend on the string-hash seed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ledger_sum
from perpamm.cli import main
from perpamm.money import format_units, pct_of, to_units
from perpamm.scenario import RECEIPT_HEADER, SNAPSHOT_HEADER, run_files
import test_scenario
from test_stateful import (ASSETS, BAND, DIRECTIONS, DT, LEVERAGE, LPS, MOVE, OFFSET, PICK,
                           SIZE, TRADERS, shifted)

U = to_units
A = format_units    # an amount in base units as the scenario's decimal string
OPEN_CLOSE_FEE = U("0.1")
MAX_LEVERAGE = 20
ACCOUNTS = ["lp0", "lp1", "t0", "t1"]
# opens and price moves twice as often as the rest, so positions live through
# fee accrual and price moves
STEPS = st.sampled_from(["open", "advance", "feeds", "close", "open", "advance", "feeds",
                         "attach", "deposit", "redeem", "cancel", "settle", "liquidate",
                         "sweep", "crash"])


def market(k_delta, base_fee, m_max) -> dict:
    """The stateful machine's market (caps, margin, fees), with the given curves."""
    return {
        "market_id": "ETH-USD",
        "deviation": {"k_delta": k_delta, "c_d": 0},
        "base_fee": {"k_b": base_fee[0], "c_b": base_fee[1]},
        "dynamic_fee": {"m_max": m_max, "steepness": 0.0125},
        "max_open_interest": "40000", "max_leverage": MAX_LEVERAGE, "max_exposure": "30000",
        "maintenance_margin_rate": 4, "open_close_fee_rate": A(OPEN_CLOSE_FEE),
        "liquidation_fee_rate": 5,
        "oracle": {"max_age": 3600, "min_acceptable_deviation": "0.1",
                   "threshold_deviation": 1},
    }


class Script:
    """A scenario being written. Ids are the writer's guesses: the next order
    id counts the create_order actions so far, and position i + 1 is the i-th
    market open; a wrong guess is an error receipt, which the run also covers."""

    def __init__(self, price: int) -> None:
        self.t = 0
        self.trace: list[tuple[int, str, int]] = []
        self.actions: list[dict] = []
        self.orders = 0
        self.positions: list[tuple[str, str]] = []   # (owner, direction) per open
        self.publish(price)

    def publish(self, price: int, band: int = 0, above: bool = True) -> None:
        """The primary at `price`, the secondary `band` 0.01%s above or below it.
        The runner reads a time's prices before its actions, so a price that
        follows an action is published a second later."""
        if self.actions and self.actions[-1]["time"] == self.t:
            self.t += 1
        self.price = price
        gap = price * band // 10_000
        self.trace += [(self.t, "primary", price),
                       (self.t, "secondary", price + gap if above else max(price - gap, 1))]

    def act(self, actor: str, action: str, **params) -> None:
        self.actions.append({"time": self.t, "actor": actor, "action": action,
                             "params": params})

    def create(self, owner: str, kind: str, direction: str, refused: bool = False,
               **params) -> int:
        """The order's id; a refused create takes none."""
        self.act(owner, "create_order", kind=kind, direction=direction, **params)
        self.orders += not refused
        return self.orders

    def position(self, ref: int) -> tuple[int, str, str]:
        """(position id, owner, direction) of a known open, or an unknown id."""
        if ref % (len(self.positions) + 1) == len(self.positions):
            return 10**6, "t0", "long"
        index = ref % len(self.positions)
        return index + 1, *self.positions[index]


def drain(s: Script, over: int, deposit: int, share: int) -> None:
    """Open a long of size == entry price at t=0, then close it one second
    later where the payout takes the whole pool, plus `over` base units.
    The market has no deviation and no borrow rate, so the close is exact."""
    entry = s.price
    order_id = s.create("t0", "market_open", "long", size=A(entry), collateral=A(entry),
                        acceptable_price=A(entry), max_slippage="0")
    s.act("t0", "settle_order", order_id=order_id)
    s.positions.append(("t0", "long"))
    fee = pct_of(entry, OPEN_CLOSE_FEE)          # the open fee and the close fee
    cut = fee * share // U(100)
    assets = deposit + fee - cut
    exit_price = entry + assets + fee - cut + over
    s.publish(exit_price)
    order_id = s.create("t0", "market_close", "long", acceptable_price=A(exit_price),
                        max_slippage="0", position_id=1)
    s.act("t0", "settle_order", order_id=order_id)


@st.composite
def cases(draw):
    """(market config, trace rows, scenario) of one random run."""
    over = draw(st.sampled_from([None, None, None, None, 0, 1]))
    if over is None:
        k_delta = draw(st.sampled_from([0.0004, 0.0001, 0]))
        base_fee = draw(st.sampled_from([(0.005, 20), (0.01, 0), (0, 0)]))
        m_max = draw(st.sampled_from([300, 0]))
    else:
        k_delta, base_fee, m_max = 0, (0, 0), 0
    share = draw(st.sampled_from([U(25), 0, U(100)]))
    deposit = draw(st.sampled_from([U(20_000), U(50_000)]))
    s = Script(U(2000))
    s.act("lp0", "deposit", assets=A(deposit))
    if over is not None:
        drain(s, over, deposit, share)
    for _ in range(draw(st.integers(0, 25))):
        step = draw(STEPS)
        if step == "advance":
            s.t += draw(DT)
            if draw(st.booleans()):
                s.publish(shifted(s.price, draw(MOVE)))
        elif step == "feeds":
            s.publish(shifted(s.price, draw(MOVE)), draw(BAND), draw(st.booleans()))
        elif step == "deposit":
            s.act(draw(LPS), "deposit", assets=A(draw(ASSETS)))
        elif step == "redeem":
            s.act(draw(LPS), "redeem", shares=A(draw(ASSETS)))
        elif step == "open":
            owner, direction, size = draw(TRADERS), draw(DIRECTIONS).value, draw(SIZE)
            collateral = max(size // draw(LEVERAGE), 1)
            refused = size > MAX_LEVERAGE * collateral
            if draw(st.booleans()):
                kind, fields = "limit_open", {"trigger_price": A(shifted(s.price, draw(OFFSET)))}
            else:
                kind, fields = "market_open", {"acceptable_price": A(s.price),
                                               "max_slippage": A(U(5))}
            order_id = s.create(owner, kind, direction, refused, size=A(size),
                                collateral=A(collateral), **fields)
            if kind == "market_open" and not refused:
                s.act(owner, "settle_order", order_id=order_id)
                s.positions.append((owner, direction))
                protect = draw(st.sampled_from([None, "stop_loss", "take_profit"]))
                if protect:   # on the position just opened
                    s.create(owner, protect, direction, position_id=len(s.positions),
                             trigger_price=A(shifted(s.price, draw(OFFSET))),
                             max_slippage=A(U(20)))
        elif step == "close":
            pid, owner, direction = s.position(draw(PICK))
            order_id = s.create(owner, "market_close", direction, acceptable_price=A(s.price),
                                max_slippage=A(U(5)), position_id=pid)
            s.act(owner, "settle_order", order_id=order_id)
        elif step == "attach":
            pid, owner, direction = s.position(draw(PICK))
            kind = draw(st.sampled_from(["stop_loss", "take_profit"]))
            s.create(owner, kind, direction, trigger_price=A(shifted(s.price, draw(OFFSET))),
                     max_slippage=A(U(20)), position_id=pid)
        elif step in ("cancel", "settle"):
            order_id = draw(PICK) % (s.orders + 1) + 1
            s.act(draw(TRADERS), f"{step}_order", order_id=order_id)
        elif step == "crash":
            # two 20x longs, t0's with a stop-loss 2% down, then a 3% fall and
            # a sweep: a stop-loss fill and a liquidation, both paying out
            for owner in ("t0", "t1"):
                order_id = s.create(owner, "market_open", "long", size=A(U(2000)),
                                    collateral=A(U(100)), acceptable_price=A(s.price),
                                    max_slippage=A(U(5)))
                s.act(owner, "settle_order", order_id=order_id)
                s.positions.append((owner, "long"))
            s.create("t0", "stop_loss", "long", position_id=len(s.positions) - 1,
                     trigger_price=A(shifted(s.price, -20)), max_slippage=A(U(20)))
            s.publish(shifted(s.price, -30))
            s.act("lp1", "liquidate_check")
        elif step == "liquidate":
            s.act("lp1", "liquidate_check", position_id=s.position(draw(PICK))[0])
        else:
            s.act("lp1", "liquidate_check")
    scenario = {"market_config": "market.json", "price_trace": "trace.csv",
                "snapshot_interval": draw(st.sampled_from([0, 3600])), "accounts": ACCOUNTS,
                "treasury_fee_share": A(share), "actions": s.actions}
    return market(k_delta, base_fee, m_max), s.trace, scenario


def write_case(directory: str, config: dict, trace: list, scenario: dict) -> list[str]:
    """Write the three input files; the `perpamm run` arguments that read them."""
    paths = {name: os.path.join(directory, name)
             for name in ("market.json", "trace.csv", "scenario.json")}
    with open(paths["market.json"], "w") as fh:
        json.dump(config, fh)
    with open(paths["trace.csv"], "w") as fh:
        fh.write("timestamp,feed_id,price\n")
        fh.writelines(f"{t},{feed},{A(price)}\n" for t, feed, price in trace)
    with open(paths["scenario.json"], "w") as fh:
        json.dump(scenario, fh)
    return ["run", "--config", paths["market.json"], "--trace", paths["trace.csv"],
            "--scenario", paths["scenario.json"]]


def run_cli(argv: list[str], out_dir: str) -> dict[str, bytes]:
    """`perpamm run` into out_dir: exit 0, or 1 with one InsolventVault line; the files."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv + ["--out-dir", out_dir])
    lines = err.getvalue().splitlines()
    assert (code, lines) == (0, []) or (code == 1 and len(lines) == 1
                                        and lines[0].startswith("ERROR InsolventVault: "))
    files = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            files[name] = fh.read()
    return files


def csv_cells(data: bytes) -> list[list[str]]:
    """The cells csv.reader reads from a written file's bytes."""
    return list(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))


def written_cash(receipts_csv: bytes) -> dict[str, int]:
    """Each account's cash, folded from the cash_delta cells of a written receipts.csv."""
    header, *rows = csv_cells(receipts_csv)
    actor, delta = header.index("actor"), header.index("cash_delta")
    cash: dict[str, int] = {}
    for row in rows:
        if row[delta]:
            cash[row[actor]] = cash.get(row[actor], 0) + to_units(row[delta])
    return cash


def assert_conserved(receipts_csv: bytes, engine) -> None:
    """The cash a written receipts.csv records, plus all the engine holds, is 0."""
    assert ledger_sum(written_cash(receipts_csv), engine) == 0


@settings(max_examples=200, deadline=None)
@given(case=cases())
def test_random_scenarios_through_the_runner(case):
    with tempfile.TemporaryDirectory() as directory:
        argv = write_case(directory, *case)
        first = run_cli(argv, os.path.join(directory, "a"))
        assert run_cli(argv, os.path.join(directory, "b")) == first
        result = run_files(os.path.join(directory, "scenario.json"))
    assert json.loads(first["manifest.json"])["halted"] is result.halted
    assert csv_cells(first["snapshots.csv"]) == [SNAPSHOT_HEADER] + [
        row.as_csv() for row in result.snapshots]
    assert csv_cells(first["receipts.csv"]) == [RECEIPT_HEADER] + [
        row.as_csv() for row in result.receipts]
    assert_conserved(first["receipts.csv"], result.engine)
    for snap in result.snapshots:
        assert snap.reserved == snap.long_oi + snap.short_oi <= snap.pool_value
    last = result.snapshots[-1].time
    assert all(receipt.time <= last for receipt in result.receipts)
    assert result.engine.pool.last_accrual_time == last


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_with_hash_seed(argv: list[str], out_dir: str, hash_seed: str):
    """`perpamm run` into out_dir in a fresh process: (exit code, stderr, the files)."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-m", "perpamm.cli", *argv, "--out-dir", out_dir],
                          env=env, capture_output=True, text=True, timeout=120)
    files = {}
    for name in ("snapshots.csv", "receipts.csv", "manifest.json"):
        with open(os.path.join(out_dir, name), "rb") as fh:
            files[name] = fh.read()
    return proc.returncode, proc.stderr, files


def assert_same_bytes_across_hash_seeds(argv: list[str], directory: str) -> dict[str, bytes]:
    """The files, the same under both seeds."""
    first, second = (run_with_hash_seed(argv, os.path.join(directory, f"hash{seed}"), seed)
                     for seed in ("1", "2"))
    code, err, files = first
    assert (code, err) == (0, "") or (code == 1 and err.startswith("ERROR InsolventVault: "))
    assert second == first
    return files


def test_golden_scenario_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    test_scenario.test_golden_receipts_and_snapshots(tmp_path)   # writes its inputs there
    scenario = str(tmp_path / "scenario.json")
    argv = ["run", "--config", str(tmp_path / "market.json"),
            "--trace", str(tmp_path / "trace.csv"), "--scenario", scenario]
    files = assert_same_bytes_across_hash_seeds(argv, str(tmp_path))
    assert_conserved(files["receipts.csv"], run_files(scenario).engine)


@settings(max_examples=2, deadline=None)
@given(case=cases().filter(lambda case: len(case[2]["actions"]) >= 10))
def test_random_scenario_bytes_do_not_depend_on_the_hash_seed(case):
    with tempfile.TemporaryDirectory() as directory:
        assert_same_bytes_across_hash_seeds(write_case(directory, *case), directory)
