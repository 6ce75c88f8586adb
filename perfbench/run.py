#!/usr/bin/env python3
"""perfbench: seeded end-to-end and per-layer benchmark of perpamm.

    python3 perfbench/run.py --workload replay_mixed --seed 1 --seconds 40 --trace 0

Run from the root of a checkout. The benchmark generates the workload's
inputs from the seed, then runs a single-threaded closed loop: one fresh
`perpamm` process at a time (``invoke.py``), the next started when the last
has exited, until the time budget is spent. After the loop it checks the
outputs from outside the program and prints one line per metric and, last,
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced invocations and reports the per-layer metrics, the
tracing overhead and whether the traced outputs hash the same as the
untraced ones. See README.md for every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

import checks
import gen
from tracing import COUNTED, ENGINE_OPS, FUNCTIONS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
INVOKE = os.path.join(HERE, "invoke.py")
RUN_LIMIT_S = 170            # a run, with its set-up and checks, ends within this
# A fixed string-hash seed gives every invocation the same dict layouts, and
# bytecode is cached (by the import-only warm-up) as an installed package's is.
CHILD_ENV = {key: value for key, value in os.environ.items()
             if key != "PYTHONDONTWRITEBYTECODE"}
CHILD_ENV["PYTHONHASHSEED"] = "0"

WORKLOADS = ("replay_mixed", "deep_book", "curves_tables")
SIZES = {
    "full": {"replay_mixed": gen.ReplaySpec(), "deep_book": gen.DeepSpec(),
             "curves_tables": gen.GRID},
    "tiny": {"replay_mixed": gen.ReplaySpec(steps=600, traders=8, opens=60, limits=15,
                                            lp_flows=10, sweeps=2),
             "deep_book": gen.DeepSpec(steps=80, opens=300, anchors=20, resting_limits=20),
             "curves_tables": "0:100:0.5"},
}

# (name, unit, better)
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("actions_per_s", "1/s", "higher"),
    ("rows_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]
STATUSES = ("ok", "StaleFeed", "DeviationTooHigh", "TriggerNotMet", "UnknownPosition",
            "UnknownOrder", "SlippageExceeded", "other")


def _per_layer() -> list[tuple[str, str, str]]:
    out = [
        ("config.load_market_config.s", "s", "lower"),
        ("oracle.load_trace.s", "s", "lower"),
        ("oracle.points", "count", "lower"),
        ("oracle.aggregate.calls", "count", "lower"),
        ("oracle.aggregate.s", "s", "lower"),
        ("oracle.aggregate.errors", "count", "lower"),
        ("oracle.ingest.calls", "count", "lower"),
        ("scenario.load_scenario.s", "s", "lower"),
        ("scenario.run.self_s", "s", "lower"),
        ("scenario.run.engine_share", "ratio", "lower"),
        ("scenario.write_outputs.s", "s", "lower"),
        ("scenario.output_bytes", "bytes", "lower"),
        ("scenario.receipts", "count", "lower"),
        ("scenario.snapshots", "count", "lower"),
    ]
    out += [(f"scenario.receipts.{status}", "count", "higher" if status == "ok" else "lower")
            for status in STATUSES]
    for op in ENGINE_OPS:
        out += [(f"engine.{op}.calls", "count", "lower"), (f"engine.{op}.s", "s", "lower"),
                (f"engine.{op}.p50_us", "us", "lower"), (f"engine.{op}.p99_us", "us", "lower"),
                (f"engine.{op}.errors", "count", "lower")]
    out += [
        ("engine.open_positions.peak", "count", "lower"),
        ("engine.pending_orders.peak", "count", "lower"),
        ("engine.state_items_per_call", "items/call", "lower"),
        ("engine.trigger_fill_ratio", "ratio", "higher"),
        ("engine.sweep_hit_ratio", "ratio", "higher"),
    ]
    out += [(name, "count", "lower") for name, *_ in COUNTED if name.startswith("vault.")]
    for name, *_ in FUNCTIONS:
        if name.startswith(("curves.", "money.")):
            out += [(f"{name}.calls", "count", "lower"), (f"{name}.s", "s", "lower")]
    out += [
        ("figures.emit_figure_data.s", "s", "lower"),
        ("figures.rows", "count", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.traced_wall_s", "s", "lower"),
        ("trace.untraced_wall_s", "s", "lower"),
    ]
    return out


PER_LAYER = _per_layer()


class Bench:
    def __init__(self, args: argparse.Namespace, src: str, work: str) -> None:
        self.args = args
        self.src = src
        self.work = work
        self.workload = args.workload
        self.problems: list[str] = []
        self.reference: dict[str, str] | None = None     # output hashes
        self.outputs_bad = False
        self.output_stats: dict = {}
        self.generated: dict | None = None               # what the generator predicted
        self.deadline = time.perf_counter() + RUN_LIMIT_S

    # -- inputs ------------------------------------------------------------------

    def prepare(self) -> dict:
        """Generate the inputs and return the job each invocation runs."""
        size = SIZES[self.args.size][self.workload]
        out_dir = os.path.join(self.work, "out")
        os.makedirs(out_dir)
        if self.workload == "curves_tables":
            self.tables = gen.curve_tables(self.args.seed, size)
            commands = [table["argv"] + ["--out", os.path.join(out_dir, f"{table['kind']}.csv")]
                        for table in self.tables]
            self.outputs = [f"{table['kind']}.csv" for table in self.tables]
            return {"mode": "curves", "commands": commands, "out_dir": out_dir}
        inputs = gen.GENERATORS[self.workload](self.args.seed, size)
        in_dir = os.path.join(self.work, "inputs")
        os.makedirs(in_dir)
        paths = gen.write_inputs(inputs, in_dir)
        self.generated = inputs.stats
        self.outputs = list(checks.REPLAY_FILES)
        job = {"mode": "replay", "out_dir": out_dir, "inputs": {
            "config": paths["market.json"], "trace": paths["trace.csv"],
            "scenario": paths["scenario.json"]}}
        if self.spawn(dict(job, mode="validate")) is None:
            self.problems.append("the generated market config fails `perpamm validate`")
        return job

    # -- invocations -------------------------------------------------------------

    def spawn(self, job: dict, traced: bool = False) -> dict | None:
        """Run one invocation to completion; its record, or None if it failed."""
        spec_path = os.path.join(self.work, "job.json")
        result_path = os.path.join(self.work, "result.json")
        if os.path.exists(result_path):
            os.unlink(result_path)
        with open(spec_path, "w") as fh:
            json.dump(dict(job, src=self.src, traced=traced,
                           spans=os.path.join(self.work, "spans.csv")), fh)
        spawned = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, INVOKE, spec_path, result_path],
                                  cwd=ROOT, capture_output=True, text=True,
                                  env=CHILD_ENV,
                                  timeout=max(1.0, self.deadline - spawned))
        except subprocess.TimeoutExpired:
            self.problems.append(f"an invocation ran past the {RUN_LIMIT_S} s run limit")
            return None
        if proc.returncode != 0 or not os.path.exists(result_path):
            self.problems.append(f"{job['mode']} invocation exited {proc.returncode}: "
                                 f"{proc.stderr.strip()[-500:]}")
            return None
        with open(result_path) as fh:
            record = json.load(fh)
        record["spawn"] = spawned
        return record

    def measured(self, job: dict, traced: bool) -> dict | None:
        """One invocation whose outputs are checked; None if it failed."""
        record = self.spawn(job, traced)
        if record is None:
            return None
        out_hashes = checks.hashes(job["out_dir"], self.outputs)
        if self.reference is None:
            # later invocations must match these outputs, so they share the verdict
            self.reference = out_hashes
            self.outputs_bad = bool(self.check_outputs(job["out_dir"]))
        elif out_hashes != self.reference:
            self.problems.append(f"{'traced' if traced else 'untraced'} invocation "
                                 "wrote outputs that differ from the first invocation")
            return None
        if self.outputs_bad:
            return None
        record["traced"] = traced
        return record

    def check_outputs(self, out_dir: str) -> list[str]:
        """Check one invocation's outputs; record and return the problems."""
        if self.workload != "curves_tables":
            problems, self.output_stats = checks.check_replay(out_dir)
            self.problems += problems
            return problems
        rng = random.Random(f"check:{self.args.seed}")
        problems, rows = [], 0
        for table, name in zip(self.tables, self.outputs):
            found, count = checks.check_curve_table(os.path.join(out_dir, name), table, rng)
            problems += found
            rows += count
        self.output_stats = {"rows": rows}
        self.problems += problems
        return problems

    def loop(self, job: dict) -> tuple[list[dict], int]:
        """Closed loop until the time budget is spent: (records, attempted)."""
        self.spawn({"mode": "import"})                  # compile bytecode
        pattern = [False, True] if self.args.trace else [False]
        records: list[dict] = []
        attempted = 0
        started = time.perf_counter()
        while True:
            traced = pattern[attempted % len(pattern)]
            begin = time.perf_counter()
            record = self.measured(job, traced)
            attempted += 1
            if record is not None:
                record["duration"] = time.perf_counter() - begin
                records.append(record)
            elapsed = time.perf_counter() - started
            durations = [r["duration"] for r in records] or [elapsed / attempted]
            if attempted >= len(pattern) and elapsed + statistics.median(durations) > self.args.seconds:
                return records, attempted

    # -- metrics -----------------------------------------------------------------

    def end_to_end(self, records: list[dict]) -> dict[str, tuple[float, int]]:
        """Median of each end-to-end metric over untraced invocations."""
        samples: dict[str, list[float]] = {name: [] for name, *_ in END_TO_END}
        for r in records:
            if r["traced"]:
                continue
            samples["setup_s"].append(r["ready"] - r["spawn"])
            samples["wall_s"].append(r["written"] - r["spawn"])
            samples["peak_rss_mb"].append(r["rss_mb"])
            work_s = r["written"] - r["ready"]
            if self.workload == "curves_tables":
                samples["actions_per_s"].append(len(self.tables) / work_s)
                samples["rows_per_s"].append(self.output_stats["rows"] / work_s)
            else:
                samples["actions_per_s"].append(r["actions"] / (r["ran"] - r["ready"]))
                samples["rows_per_s"].append((r["receipts"] + r["snapshots"]) / work_s)
        return {name: (statistics.median(v) if v else 0.0, len(v))
                for name, v in samples.items()}

    def per_layer(self, records: list[dict]) -> dict[str, float]:
        traced = [r for r in records if r["traced"]]
        untraced = [r for r in records if not r["traced"]]
        layers: dict[str, float] = {}
        for name, *_ in PER_LAYER:
            values = [r["layers"][name] for r in traced if name in r["layers"]]
            if values:
                layers[name] = statistics.median(values)
        stats = self.output_stats
        first = traced[0] if traced else {}
        statuses = dict(stats.get("statuses", {}))
        listed = {s: statuses.pop(s, 0) for s in STATUSES if s != "other"}
        layers.update({f"scenario.receipts.{s}": n for s, n in listed.items()})
        layers["scenario.receipts.other"] = sum(statuses.values())
        liquidate_calls = layers.get("engine.liquidate.calls", 0)
        layers.update({
            "oracle.points": first.get("points", 0),
            "scenario.output_bytes": stats.get("output_bytes", 0),
            "scenario.receipts": stats.get("receipts", 0),
            "scenario.snapshots": stats.get("snapshots", 0),
            "engine.trigger_fill_ratio": (stats["trigger_fills"] / stats["trigger_attempts"]
                                          if stats.get("trigger_attempts") else 0.0),
            "engine.sweep_hit_ratio": (stats.get("liquidations", 0) / liquidate_calls
                                       if liquidate_calls else 0.0),
            "figures.rows": stats.get("rows", 0),
        })
        walls = {kind: [r["written"] - r["spawn"] for r in group]
                 for kind, group in (("traced", traced), ("untraced", untraced))}
        for kind, values in walls.items():
            layers[f"trace.{kind}_wall_s"] = statistics.median(values) if values else 0.0
        layers["trace.overhead_s"] = layers["trace.traced_wall_s"] - layers["trace.untraced_wall_s"]
        return {name: layers.get(name, 0.0) for name, *_ in PER_LAYER}

    # -- run -----------------------------------------------------------------------

    def run(self) -> int:
        job = self.prepare()
        records, attempted = self.loop(job)
        failed = attempted - len(records)
        if self.args.trace:
            units = {name: unit for name, unit, _ in PER_LAYER}
            values = self.per_layer(records)
            for name, value in values.items():
                print(f"{name} = {value:.6g} {units[name]}")
            metrics = {name: {"value": values[name], "unit": units[name]} for name in values}
            if not any(r["traced"] for r in records):
                self.problems.append("no traced invocation completed")
        else:
            metrics = {}
            values = self.end_to_end(records)
            for name, unit, _ in END_TO_END:
                value, count = values[name]
                print(f"{name} = {value:.6g} {unit} (median of {count} invocations)")
                metrics[name] = {"value": value, "unit": unit}
        print(f"failed_frac = {failed}/{attempted} = {failed / attempted:.3g}")
        backend = records[0]["backend"] if records else "unknown"
        print(f"kernel backend: {backend}")
        for name, digest in (self.reference or {}).items():
            print(f"sha256 {name} {digest}")
        for problem in self.problems:
            print(f"CHECK FAILED: {problem}")
        report = {"workload": self.workload, "seed": self.args.seed,
                  "trace": self.args.trace, "backend": backend,
                  "hashes": self.reference, "output_stats": self.output_stats,
                  "generated": self.generated,
                  "problems": self.problems, "invocations": records}
        with open(os.path.join(self.work, "report.json"), "w") as fh:
            json.dump(report, fh, indent=1)
        correct = not self.problems and failed == 0 and bool(records)
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time budget of the measured loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="input size; 'tiny' is for the benchmark's own tests")
    args = parser.parse_args(argv)
    # SystemExit unwinds through subprocess.run, which then kills the invocation
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "perpamm", "__init__.py")):
        print(f"perfbench: no perpamm sources in {src}", file=sys.stderr)
        return 2
    work = os.path.join(ROOT, ".perfbench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    return Bench(args, src, work).run()


if __name__ == "__main__":
    sys.exit(main())
