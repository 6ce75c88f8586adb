"""Command-line interface: validate configs, emit curve tables, run scenarios.

Exit codes: 0 success, 1 domain error, 2 usage error. Domain errors print a
single machine-parseable ``ERROR <code>: <message>`` line on stderr. Output
files are written atomically (temp file + rename) and identical invocations
produce byte-identical files; run metadata lives in a separate manifest.
"""

from __future__ import annotations

import argparse
import sys

from .config import load_market_config, read_json
from .errors import InsolventVault, InvalidGrid, ProtocolError
from .figures import FIGURE_KINDS, Grid, emit_figure_data
from .scenario import run_files, write_csv_atomic, write_outputs


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
    curves.add_argument("--price", help="oracle price (deviation_price)")
    curves.add_argument("--kd", action="append",
                        help="deviation coefficient (repeatable)")
    curves.add_argument("--cd", help="deviation constant")
    curves.add_argument("--kb", action="append",
                        help="base fee coefficient (repeatable)")
    curves.add_argument("--cb", help="base fee constant")
    curves.add_argument("--m-max", help="maximum dynamic fee")
    curves.add_argument("--k", action="append",
                        help="sigmoid steepness (repeatable)")

    run_p = sub.add_parser("run", help="run a scenario and write CSV outputs")
    run_p.add_argument("--config", required=True, help="market config JSON")
    run_p.add_argument("--trace", required=True, help="price trace CSV")
    run_p.add_argument("--scenario", required=True, help="scenario JSON")
    run_p.add_argument("--out-dir", required=True, help="output directory")

    validate = sub.add_parser("validate", help="check a market config file")
    validate.add_argument("--config", required=True, help="market config JSON")

    return parser


# flag attribute -> the curve-table params key it sets; a repeated flag gives a list
_CURVE_PARAMS = {"price": "price", "kd": "k_delta", "cd": "c_d", "kb": "k_b", "cb": "c_b",
                 "m_max": "m_max", "k": "steepness"}


def _curve_params(args: argparse.Namespace, parser: argparse.ArgumentParser):
    """The flags' params, or the raw --params object: emit_figure_data reads either."""
    inline = {key: getattr(args, attr) for attr, key in _CURVE_PARAMS.items()
              if getattr(args, attr) is not None}
    if args.params:
        if inline:
            parser.error("--params cannot be combined with inline parameter flags")
        return read_json(args.params, InvalidGrid, "--params")
    return inline


def _cmd_curves(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    params = _curve_params(args, parser)
    table = emit_figure_data(args.kind, params, Grid.parse(args.grid))
    write_csv_atomic(args.out, table.header, table.body)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    result = run_files(args.scenario, config_path=args.config,
                       trace_path=args.trace)
    write_outputs(result, args.out_dir, inputs={
        "config": args.config, "trace": args.trace, "scenario": args.scenario})
    if result.halted:
        raise InsolventVault("scenario halted; partial output flagged in manifest.json")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    load_market_config(args.config)
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
