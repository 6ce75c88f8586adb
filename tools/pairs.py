#!/usr/bin/env python3
"""Time two perpamm source trees in interleaved pairs of fresh processes.

    python3 tools/pairs.py BASE_TREE CHANGE_TREE --workload curves_tables --seed 1 --pairs 10

Each tree is the root of a checkout (the directory holding ``src/perpamm``).
The inputs come from ``perfbench/gen.py`` for the seed, as ``perfbench/run.py``
makes them, and every invocation is one ``perfbench/invoke.py`` process of
this checkout, so both trees run the same benchmark code. A pair runs one
invocation of each tree; which tree runs first alternates from pair to pair.

Printed: each pair's phase times in ms (``setup`` = spawn to ready, ``work``
= ready to written, ``wall`` = spawn to written), the ratio base/change of
each phase (above 1 means the change is faster), the median of the paired
ratios, each tree's minima, and the sha256 of every output of each tree,
which must agree. Standard library only; nothing under ``perfbench/`` is
written, the work directory is a temporary one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
INVOKE = os.path.join(PERFBENCH, "invoke.py")
sys.path.insert(0, PERFBENCH)

import gen  # noqa: E402

WORKLOADS = ("replay_mixed", "deep_book", "curves_tables")
PHASES = ("setup", "work", "wall")
# as perfbench/run.py runs its children: same dict layouts, bytecode cached
CHILD_ENV = {key: value for key, value in os.environ.items()
             if key != "PYTHONDONTWRITEBYTECODE"}
CHILD_ENV["PYTHONHASHSEED"] = "0"


def make_job(workload: str, seed: int, work: str) -> dict:
    """The invoke.py spec of one workload, without its src and out_dir."""
    if workload == "curves_tables":
        tables = gen.curve_tables(seed)
        return {"mode": "curves", "commands": [table["argv"] for table in tables],
                "outputs": [f"{table['kind']}.csv" for table in tables]}
    spec = {"replay_mixed": gen.ReplaySpec(), "deep_book": gen.DeepSpec()}[workload]
    in_dir = os.path.join(work, "inputs")
    os.makedirs(in_dir)
    paths = gen.write_inputs(gen.GENERATORS[workload](seed, spec), in_dir)
    return {"mode": "replay", "outputs": ["snapshots.csv", "receipts.csv", "manifest.json"],
            "inputs": {"config": paths["market.json"], "trace": paths["trace.csv"],
                       "scenario": paths["scenario.json"]}}


def invoke(job: dict, tree: str, name: str, work: str) -> dict:
    """One fresh invocation of a tree: its phase times in ms and output hashes."""
    out_dir = os.path.join(work, name)
    os.makedirs(out_dir, exist_ok=True)
    spec = dict(job, src=os.path.join(tree, "src"), out_dir=out_dir, traced=False,
                spans=os.path.join(work, "spans.csv"))
    if job["mode"] == "curves":
        spec["commands"] = [argv + ["--out", os.path.join(out_dir, output)]
                            for argv, output in zip(job["commands"], job["outputs"])]
    spec_path = os.path.join(work, "job.json")
    result_path = os.path.join(work, "result.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    spawned = time.perf_counter()
    proc = subprocess.run([sys.executable, INVOKE, spec_path, result_path], cwd=ROOT,
                          env=CHILD_ENV, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{name} invocation exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    with open(result_path) as fh:
        record = json.load(fh)
    os.unlink(result_path)
    if job["mode"] == "import":
        return {}
    hashes = {}
    for output in job["outputs"]:
        with open(os.path.join(out_dir, output), "rb") as fh:
            hashes[output] = hashlib.sha256(fh.read()).hexdigest()
    return {"setup": (record["ready"] - spawned) * 1e3,
            "work": (record["written"] - record["ready"]) * 1e3,
            "wall": (record["written"] - spawned) * 1e3,
            "rss_mb": record["rss_mb"], "hashes": hashes}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="root of the parent's checkout")
    parser.add_argument("change", help="root of the change's checkout")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    trees = {"base": os.path.abspath(args.base), "change": os.path.abspath(args.change)}
    with tempfile.TemporaryDirectory(prefix="pairs-") as work:
        job = make_job(args.workload, args.seed, work)
        for name, tree in trees.items():   # compile bytecode before timing
            invoke(dict(job, mode="import"), tree, name, work)
        pairs = []
        for n in range(args.pairs):
            order = ("base", "change") if n % 2 == 0 else ("change", "base")
            pair = {name: invoke(job, trees[name], name, work) for name in order}
            ratios = {phase: pair["base"][phase] / pair["change"][phase] for phase in PHASES}
            pairs.append((pair, ratios))
            print(f"pair {n + 1:2d} ({order[0]} first): " + "  ".join(
                f"{phase} {pair['base'][phase]:7.1f} -> {pair['change'][phase]:7.1f} "
                f"({ratios[phase]:.3f}x)" for phase in PHASES), flush=True)
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs; ratio = base / change")
    for phase in PHASES:
        ratios = [ratios[phase] for _, ratios in pairs]
        wins = sum(r > 1 for r in ratios)
        minima = {name: min(pair[name][phase] for pair, _ in pairs) for name in trees}
        print(f"{phase:5s}: median ratio {statistics.median(ratios):.3f}x, change faster in "
              f"{wins}/{len(ratios)}; minima {minima['base']:.1f} -> {minima['change']:.1f} ms "
              f"({minima['base'] / minima['change']:.3f}x)")
    rss = {name: statistics.median(pair[name]["rss_mb"] for pair, _ in pairs) for name in trees}
    print(f"ru_maxrss median: {rss['base']:.1f} -> {rss['change']:.1f} MB")
    hashes = {name: pairs[0][0][name]["hashes"] for name in trees}
    for output, digest in hashes["base"].items():
        same = "same" if hashes["change"][output] == digest else \
            f"DIFFERS: change {hashes['change'][output]}"
        print(f"sha256 {output} {digest} {same}")
    return 0 if hashes["base"] == hashes["change"] else 1


if __name__ == "__main__":
    sys.exit(main())
