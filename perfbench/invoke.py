"""One invocation of perpamm in a fresh interpreter, as a user would run it.

Usage: python3 perfbench/invoke.py SPEC.json RESULT.json

SPEC.json holds the mode and paths (see `run.py`). Modes:

* ``replay``: the calls `run_files` and `write_outputs` make, in the same
  order: load_scenario, load_market_config, load_trace, scenario.run,
  write_outputs;
* ``curves``: `perpamm.cli.main` once per curve table;
* ``validate``: `perpamm.cli.main(["validate", ...])`;
* ``import``: only the import, to compile bytecode before timing starts.

RESULT.json receives `time.perf_counter()` readings taken at fixed points.
On Linux that clock is CLOCK_MONOTONIC, shared by all processes, so the
parent subtracts the moment it started this process. With ``traced`` set,
the wrappers of `tracing.py` are installed after the import and the result
carries the per-layer summary.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    spec_path, result_path = sys.argv[1:3]
    with open(spec_path) as fh:
        spec = json.load(fh)
    src = spec["src"]
    sys.path.insert(0, src)
    import perpamm
    from perpamm import cli, config, errors, oracle, scenario

    if not os.path.abspath(perpamm.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"perpamm imported from {perpamm.__file__}, not {src}", file=sys.stderr)
        return 2
    tracer = None
    if spec.get("traced"):
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    record = {"start": START, "backend": perpamm.KERNEL_BACKEND}
    mode = spec["mode"]
    rc = 0
    if mode == "replay":
        paths = spec["inputs"]
        try:
            scen = scenario.load_scenario(paths["scenario"])
            cfg = config.load_market_config(paths["config"])
            trace = oracle.load_trace(paths["trace"])
            record["ready"] = time.perf_counter()
            result = scenario.run(scen, cfg, trace)
            record["ran"] = time.perf_counter()
            scenario.write_outputs(result, spec["out_dir"], inputs=paths)
            record["written"] = time.perf_counter()
        except errors.ProtocolError as exc:
            print(f"ERROR {exc.code}: {exc}", file=sys.stderr)
            return 1
        record.update(actions=len(scen.actions), points=len(trace),
                      receipts=len(result.receipts), snapshots=len(result.snapshots),
                      halted=result.halted)
        rc = 1 if result.halted else 0
    elif mode == "curves":
        record["ready"] = time.perf_counter()
        for argv in spec["commands"]:
            rc = rc or cli.main(argv)
        record["written"] = time.perf_counter()
    elif mode == "validate":
        rc = cli.main(["validate", "--config", spec["inputs"]["config"]])
    record["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        record["layers"] = tracer.summary()
        tracer.write(spec["spans"])
    with open(result_path, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
