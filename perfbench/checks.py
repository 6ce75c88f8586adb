"""Output checks made from outside the program, on the files it wrote.

Nothing here imports perpamm. Replay outputs are checked for conservation
of money and for the reserved-liquidity bounds; curve tables are compared
row by row, on a seeded sample, with an exact evaluation of the curve.
"""

from __future__ import annotations

import csv
import decimal
import hashlib
import json
import os
import random
from collections import Counter
from decimal import Decimal
from fractions import Fraction

# error codes that mean the generator, not the market, got an action wrong
GENERATOR_CODES = {
    "UnknownOrder", "UnknownPosition", "DomainError", "ScenarioError",
    "LeverageExceeded", "InsufficientCollateral", "InsufficientShares",
    "ZeroShareMint", "OpenInterestCapExceeded", "ExposureCapExceeded",
    "InsufficientLiquidity", "SlippageExceeded", "UnknownMarket",
}
SETTLEMENTS = ("settle_order", "trigger_settle", "liquidate_check")
REPLAY_FILES = ("snapshots.csv", "receipts.csv", "manifest.json")


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def hashes(directory: str, names) -> dict[str, str]:
    return {name: sha256(os.path.join(directory, name)) for name in names}


def _units(text: str) -> int:
    """A six-fractional-digit money string as integer base units."""
    if not text:
        return 0
    whole, _, frac = text.partition(".")
    if len(frac) != 6:
        raise ValueError(f"money column without six fractional digits: {text!r}")
    return int(whole + frac)


def _read_csv(path: str) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# -- replay outputs --------------------------------------------------------------

def check_replay(out_dir: str) -> tuple[list[str], dict]:
    """Problems found in a replay's outputs, and counts read from them.

    At every snapshot, trader and LP cash (the sum of cash deltas so far),
    escrowed collateral of pending orders, open collateral, vault assets and
    treasury sum to zero within one base unit per settlement so far, and
    reserved == long_oi + short_oi <= pool_value.
    """
    problems: list[str] = []
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    snapshots = _read_csv(os.path.join(out_dir, "snapshots.csv"))
    receipts = _read_csv(os.path.join(out_dir, "receipts.csv"))
    if manifest.get("halted") is not False:
        problems.append("the run halted")
    if manifest.get("snapshots") != len(snapshots) or manifest.get("receipts") != len(receipts):
        problems.append("manifest row counts differ from the CSV files")

    cash = escrow_total = settlements = 0
    escrow: dict[str, int] = {}
    next_receipt = 0
    for snap in snapshots:
        time = int(snap["time"])
        while next_receipt < len(receipts) and int(receipts[next_receipt]["time"]) <= time:
            row = receipts[next_receipt]
            next_receipt += 1
            if row["status"] != "ok":
                continue
            delta = _units(row["cash_delta"])
            cash += delta
            action, order_id = row["action"], row["order_id"]
            if action == "create_order" and delta:
                escrow[order_id] = -delta
                escrow_total -= delta
            elif action in ("settle_order", "trigger_settle", "cancel_order"):
                escrow_total -= escrow.pop(order_id, 0)
            if action in SETTLEMENTS:
                settlements += 1
        drift = (cash + escrow_total + _units(snap["open_collateral"])
                 + _units(snap["pool_value"]) + _units(snap["treasury"]))
        if abs(drift) > settlements:
            problems.append(f"conservation off by {drift} units at time {time}")
        reserved, pool = _units(snap["reserved"]), _units(snap["pool_value"])
        if reserved != _units(snap["long_oi"]) + _units(snap["short_oi"]):
            problems.append(f"reserved != long_oi + short_oi at time {time}")
        if reserved > pool:
            problems.append(f"reserved above pool value at time {time}")
    if next_receipt != len(receipts):
        problems.append("receipts after the last snapshot")

    statuses = Counter(row["status"] for row in receipts)
    explicit = [row for row in receipts if row["action"] != "trigger_settle"]
    generator_errors = sum(1 for row in explicit if row["status"] in GENERATOR_CODES)
    if generator_errors * 100 > len(explicit):
        problems.append(f"{generator_errors} of {len(explicit)} actions failed on "
                        "errors the input generator caused")
    triggers = [row for row in receipts if row["action"] == "trigger_settle"]
    stats = {
        "receipts": len(receipts),
        "snapshots": len(snapshots),
        "statuses": dict(sorted(statuses.items())),
        "generator_errors": generator_errors,
        "trigger_attempts": len(triggers),
        "trigger_fills": sum(1 for row in triggers if row["status"] == "ok"),
        "liquidations": sum(1 for row in receipts if row["action"] == "liquidate_check"
                            and row["status"] == "ok"),
        "output_bytes": sum(os.path.getsize(os.path.join(out_dir, name))
                            for name in REPLAY_FILES),
    }
    return problems, stats


# -- curve tables ------------------------------------------------------------------

_CTX = decimal.Context(prec=60, rounding=decimal.ROUND_HALF_EVEN)
_NINE = Decimal("1e-9")
_REL_TOL = Fraction(1, 10**12)     # binary64 evaluation error is ~1e-15 relative
_ABS_TOL = Fraction(1, 10**15)


def _dec(x: Fraction) -> Decimal:
    return _CTX.divide(Decimal(x.numerator), Decimal(x.denominator))


def _round9(x: Fraction) -> Decimal:
    return _dec(x).quantize(_NINE, rounding=decimal.ROUND_HALF_EVEN, context=_CTX)


def _roundings(x: Fraction) -> set[Decimal]:
    """Every 9-digit half-even rounding of a value within tolerance of x."""
    tol = abs(x) * _REL_TOL + _ABS_TOL
    lo, hi = _round9(x - tol), _round9(x + tol)
    out, step = set(), Decimal("1e-9")
    value = lo
    while value <= hi:
        out.add(value)
        value += step
    return out


def _sigmoid(sigma: Fraction, m_max: Fraction, k: Fraction) -> Fraction:
    """m_max * (1 - e^{-k sigma}) / (1 + e^{-k sigma}) to 60 digits."""
    e = _CTX.exp(_dec(-k * sigma))
    one = Decimal(1)
    return Fraction(_CTX.divide(_CTX.multiply(_dec(m_max), _CTX.subtract(one, e)),
                                _CTX.add(one, e)))


def _series_labels(table: dict) -> list[str]:
    prefix = {"deviation_pct": "deviation_kd_", "base_fee": "base_fee_kb_",
              "dynamic_fee": "dynamic_fee_k_"}[table["kind"]]
    return [prefix + str(Decimal(c)) for c in table["coefs"]]


def _expected_header(table: dict) -> list[str]:
    if table["kind"] == "deviation_price":
        return ["utilization", "oracle_price", "deviated_price_long",
                "deviated_price_short"]
    first = "market_skew" if table["kind"] == "dynamic_fee" else "utilization"
    return [first] + _series_labels(table)


def _row_ok(table: dict, point: Fraction, cells: list[str]) -> bool:
    values = [Decimal(c) for c in cells]
    kind, const = table["kind"], Fraction(table["const"])
    coefs = [Fraction(c) for c in table["coefs"]]
    if kind == "deviation_price":
        price = Fraction(table["price"])
        if values[0] != _round9(price):
            return False
        for delta in _roundings(coefs[0] * point * point + const):
            shift = price * Fraction(delta) / 100
            if values[1:] == [_round9(price + shift), _round9(price - shift)]:
                return True
        return False
    for coef, value in zip(coefs, values):
        if kind == "dynamic_fee":
            exact = _sigmoid(point, const, coef)
        else:
            exact = coef * point * point + const
        if value not in _roundings(exact):
            return False
    return True


def check_curve_table(path: str, table: dict, rng: random.Random,
                      samples: int = 64) -> tuple[list[str], int]:
    """Problems found in one table, and its row count."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    if header != _expected_header(table):
        return [f"{table['kind']}: unexpected header {header}"], len(body)
    lo, hi, step = (Fraction(p) for p in table["grid"].split(":"))
    count = int((hi - lo) / step) + 1
    if len(body) != count:
        return [f"{table['kind']}: {len(body)} rows, expected {count}"], len(body)
    problems = []
    for i in sorted({0, count - 1, *rng.sample(range(count), min(count, samples))}):
        row = body[i]
        if len(row) != len(header) or any(len(c.partition(".")[2]) != 9 for c in row[1:]):
            problems.append(f"{table['kind']}: malformed row {i + 1}")
        elif Fraction(row[0]) != lo + i * step or not _row_ok(table, lo + i * step, row[1:]):
            problems.append(f"{table['kind']}: row {i + 1} differs from exact evaluation")
    return problems, len(body)
