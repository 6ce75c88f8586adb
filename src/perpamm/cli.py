"""Command-line interface: validate configs, emit curve tables, run scenarios.

Exit codes: 0 success, 1 domain error, 2 usage error. Domain errors print a
single machine-parseable ``ERROR <code>: <message>`` line on stderr. Output
files are written atomically (temp file + rename) and identical invocations
produce byte-identical files; run metadata lives in a separate manifest.
"""

from __future__ import annotations

import argparse
import json
import sys
from decimal import Decimal, InvalidOperation

from .config import load_market_config
from .errors import InvalidGrid, ProtocolError
from .figures import FIGURE_KINDS, Grid, emit_figure_data
from .scenario import run_files, write_csv_atomic, write_outputs


def _decimal(text: str) -> Decimal:
    try:
        return Decimal(text)
    except InvalidOperation:
        raise argparse.ArgumentTypeError(f"not a decimal: {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perpamm",
        description="AMM perpetual-futures engine: curve tables, scenario runs, "
                    "config validation.")
    sub = parser.add_subparsers(dest="command", required=True)

    curves = sub.add_parser("curves", help="emit figure-reproduction CSV tables")
    curves.add_argument("--kind", required=True, choices=FIGURE_KINDS)
    curves.add_argument("--grid", required=True,
                        help="inclusive range lo:hi:step (decimals)")
    curves.add_argument("--out", required=True, help="output CSV path")
    curves.add_argument("--params", help="JSON file with curve parameters")
    curves.add_argument("--price", type=_decimal, help="oracle price (deviation_price)")
    curves.add_argument("--kd", type=_decimal, action="append",
                        help="deviation coefficient (repeatable)")
    curves.add_argument("--cd", type=_decimal, help="deviation constant")
    curves.add_argument("--kb", type=_decimal, action="append",
                        help="base fee coefficient (repeatable)")
    curves.add_argument("--cb", type=_decimal, help="base fee constant")
    curves.add_argument("--m-max", type=_decimal, help="maximum dynamic fee")
    curves.add_argument("--k", type=_decimal, action="append",
                        help="sigmoid steepness (repeatable)")

    run_p = sub.add_parser("run", help="run a scenario and write CSV outputs")
    run_p.add_argument("--config", required=True, help="market config JSON")
    run_p.add_argument("--trace", required=True, help="price trace CSV")
    run_p.add_argument("--scenario", required=True, help="scenario JSON")
    run_p.add_argument("--out-dir", required=True, help="output directory")

    validate = sub.add_parser("validate", help="check a market config file")
    validate.add_argument("--config", required=True, help="market config JSON")

    return parser


_INLINE_KEYS = (("price", "price"), ("kd", "k_delta"), ("cd", "c_d"),
                ("kb", "k_b"), ("cb", "c_b"), ("m_max", "m_max"), ("k", "steepness"))
_LIST_KEYS = {"k_delta", "k_b", "steepness"}


def _curve_params(args: argparse.Namespace, parser: argparse.ArgumentParser) -> dict:
    inline = {target: getattr(args, attr) for attr, target in _INLINE_KEYS
              if getattr(args, attr) is not None}
    if args.params:
        if inline:
            parser.error("--params cannot be combined with inline parameter flags")
        with open(args.params) as fh:
            try:
                raw = json.load(fh, parse_float=Decimal, parse_int=Decimal)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise InvalidGrid(f"--params is not JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise InvalidGrid("--params must hold a JSON object")
        params = {}
        try:
            for key, value in raw.items():
                if key in _LIST_KEYS:
                    params[key] = [Decimal(str(v)) for v in (
                        value if isinstance(value, list) else [value])]
                else:
                    params[key] = Decimal(str(value))
        except InvalidOperation:
            raise InvalidGrid(f"--params {key} is not a number: {value!r}") from None
        return params
    return inline


def _cmd_curves(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    params = _curve_params(args, parser)
    table = emit_figure_data(args.kind, params, Grid.parse(args.grid))
    write_csv_atomic(args.out, table.header, table.rows)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    result = run_files(args.scenario, config_path=args.config,
                       trace_path=args.trace)
    write_outputs(result, args.out_dir, inputs={
        "config": args.config, "trace": args.trace, "scenario": args.scenario})
    if result.halted:
        print("ERROR InsolventVault: scenario halted; partial output flagged "
              "in manifest.json", file=sys.stderr)
        return 1
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    config = load_market_config(args.config)
    violations = config.violations()
    if violations:
        for violation in violations:
            print(f"violation: {violation}")
        return 1
    print("OK")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "curves":
            return _cmd_curves(args, parser)
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_validate(args)
    except ProtocolError as exc:
        print(f"ERROR {exc.code}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"ERROR IOError: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
