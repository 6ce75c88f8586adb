"""Tests of the benchmark itself: inputs, output checks and a tiny run.

Run from the root of the checkout:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import csv
import json
import os
import random
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from perpamm import cli, scenario  # noqa: E402

TINY = run.SIZES["tiny"]


def _write(workload: str, seed: int, directory) -> dict[str, bytes]:
    inputs = gen.GENERATORS[workload](seed, TINY[workload])
    paths = gen.write_inputs(inputs, str(directory))
    out = {}
    for name, path in paths.items():
        with open(path, "rb") as fh:
            out[name] = fh.read()
    return out


def _replay(directory) -> str:
    """Run the scenario in `directory` the way `perpamm run` does; the out dir."""
    d = str(directory)
    paths = {"config": os.path.join(d, "market.json"), "trace": os.path.join(d, "trace.csv"),
             "scenario": os.path.join(d, "scenario.json")}
    result = scenario.run_files(paths["scenario"], paths["config"], paths["trace"])
    out_dir = os.path.join(d, "out")
    scenario.write_outputs(result, out_dir, inputs=paths)
    return out_dir


@pytest.mark.parametrize("workload", sorted(gen.GENERATORS))
def test_same_seed_same_bytes_other_seed_other_bytes(workload, tmp_path):
    first = _write(workload, 7, tmp_path / "a")
    again = _write(workload, 7, tmp_path / "b")
    other = _write(workload, 8, tmp_path / "c")
    assert first == again
    for name in first:
        assert first[name] != other[name], name


def test_curve_tables_are_seeded():
    assert gen.curve_tables(3) == gen.curve_tables(3)
    assert [t["argv"] for t in gen.curve_tables(3)] != [t["argv"] for t in gen.curve_tables(4)]


@pytest.mark.parametrize("workload", sorted(gen.GENERATORS))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generated_configs_validate(workload, seed, tmp_path, capsys):
    _write(workload, seed, tmp_path)
    assert cli.main(["validate", "--config", str(tmp_path / "market.json")]) == 0
    assert capsys.readouterr().out.strip() == "OK"


@pytest.mark.parametrize("workload", sorted(gen.GENERATORS))
def test_replay_matches_the_generator_mirror(workload, tmp_path):
    inputs = gen.GENERATORS[workload](5, TINY[workload])
    gen.write_inputs(inputs, str(tmp_path))
    problems, stats = checks.check_replay(_replay(tmp_path))
    assert problems == []
    assert stats["generator_errors"] == 0
    assert stats["trigger_attempts"] == inputs.stats["trigger_attempts"]
    assert stats["trigger_fills"] == inputs.stats["trigger_fills"]


def _rewrite_receipts(out_dir: str, edit) -> None:
    path = os.path.join(out_dir, "receipts.csv")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def test_corrupted_receipt_fails_the_checks(tmp_path):
    _write("replay_mixed", 5, tmp_path)
    out_dir = _replay(tmp_path)
    assert checks.check_replay(out_dir)[0] == []
    column = scenario.RECEIPT_HEADER.index("cash_delta")

    def corrupt(rows):
        row = next(r for r in rows[1:] if r[3] == "deposit")
        row[column] = f"{float(row[column]) - 1:.6f}"

    _rewrite_receipts(out_dir, corrupt)
    problems, _ = checks.check_replay(out_dir)
    assert any("conservation" in p for p in problems)


def test_corrupted_curve_row_fails_the_checks(tmp_path):
    tables = gen.curve_tables(2, TINY["curves_tables"])
    for table in tables:
        path = str(tmp_path / f"{table['kind']}.csv")
        assert cli.main(table["argv"] + ["--out", path]) == 0
        assert checks.check_curve_table(path, table, random.Random(0), samples=500)[0] == []
        with open(path) as fh:
            lines = fh.read().splitlines()
        cells = lines[100].split(",")
        cells[-1] = cells[-1][:-1] + str((int(cells[-1][-1]) + 1) % 10)
        lines[100] = ",".join(cells)
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        problems, _ = checks.check_curve_table(path, table, random.Random(0), samples=500)
        assert problems, table["kind"]


def test_benchmark_json_matches_the_metrics_reported():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        (name, unit, better) for name, unit, better in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert list(result["metrics"]) == [name for name, *_ in expected]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    elif workload == "curves_tables":
        engine = {k: m["value"] for k, m in result["metrics"].items()
                  if k.startswith("engine.") and k.endswith(".calls")}
        assert engine and not any(engine.values())
    else:
        assert result["metrics"]["engine.accrue.calls"]["value"] > 0
