"""Span tracing for the traced benchmark run, installed from outside perpamm.

`Tracer.install()` replaces the public functions of each perpamm module with
wrappers that record one span per call: name, start, end and parent. A
function imported into other modules (``quantize9``, ``aggregate``,
``compute_skew`` and the rest) is replaced under every name that refers to
it, so every call is counted. Engine entry points and the counted vault and
feed-store methods are replaced on their classes.

Spans stay in memory (four flat arrays) and are written when the invocation
ends. A span's self time is its duration minus the durations of the spans it
directly encloses; the program is single-threaded, so children nest.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from array import array

# (span name, module, function) for every traced free function
FUNCTIONS = [
    ("config.load_market_config", "perpamm.config", "load_market_config"),
    ("oracle.load_trace", "perpamm.oracle", "load_trace"),
    ("oracle.aggregate", "perpamm.oracle", "aggregate"),
    ("scenario.load_scenario", "perpamm.scenario", "load_scenario"),
    ("scenario.run", "perpamm.scenario", "run"),
    ("scenario.write_outputs", "perpamm.scenario", "write_outputs"),
    ("curves.total_borrow_rates", "perpamm.curves", "total_borrow_rates"),
    ("curves.quote_prices_units", "perpamm.curves", "quote_prices_units"),
    ("curves.eval_deviation", "perpamm.curves", "eval_deviation"),
    ("curves.eval_base_fee", "perpamm.curves", "eval_base_fee"),
    ("curves.eval_dynamic_fee", "perpamm.curves", "eval_dynamic_fee"),
    ("curves.compute_skew", "perpamm.curves", "compute_skew"),
    ("money.quantize9", "perpamm.money", "quantize9"),
    ("money.format9", "perpamm.money", "format9"),
    ("money.format_units", "perpamm.money", "format_units"),
    ("money.to_units", "perpamm.money", "to_units"),
    ("figures.emit_figure_data", "perpamm.figures", "emit_figure_data"),
]

ENGINE_OPS = ("create_order", "settle_order", "cancel_order", "liquidate", "accrue",
              "lp_deposit", "lp_redeem", "evaluate_triggers")

# (counter name, module, class, method): counted, not timed
COUNTED = [
    ("oracle.ingest.calls", "perpamm.oracle", "FeedStore", "ingest"),
    ("vault.clone.calls", "perpamm.vault", "VaultState", "clone"),
    ("vault.deposit.calls", "perpamm.vault", "VaultState", "deposit"),
    ("vault.redeem.calls", "perpamm.vault", "VaultState", "redeem"),
    ("vault.credit.calls", "perpamm.vault", "VaultState", "credit"),
    ("vault.debit.calls", "perpamm.vault", "VaultState", "debit"),
]


def _percentile_us(durations: array, q: float) -> float:
    """Nearest-rank percentile of nanosecond durations, in microseconds."""
    if not durations:
        return 0.0
    ordered = sorted(durations)
    return ordered[min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1)] / 1e3


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack: list[list[int]] = []           # [span index, child ns]
        self.stats: dict[str, list[int]] = {}      # name -> [calls, self ns, errors]
        self.durations: dict[str, array] = {}
        self.counts: dict[str, int] = {name: 0 for name, *_ in COUNTED}
        self.peak_positions = 0
        self.peak_orders = 0
        self.state_items = 0
        self.mutating_calls = 0

    # -- wrappers --------------------------------------------------------------

    def _span(self, name: str, fn, before=None):
        """Wrap fn in a span; `before(args)` runs first, outside the span's time."""
        nid = len(self.names)
        self.names.append(name)
        stat = self.stats[name] = [0, 0, 0]
        durations = self.durations[name] = array("q")
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = clock()
            idx = len(span_name)
            span_name.append(nid)
            span_parent.append(stack[-1][0] if stack else -1)
            span_end.append(0)
            frame = [idx, 0]
            stack.append(frame)
            if before is not None:
                before(args)
            start = clock()
            span_start.append(start)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat[2] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                span_end[idx] = end
                stat[0] += 1
                stat[1] += dur - frame[1]
                durations.append(dur)
                if stack:
                    # the parent's self time excludes this wrapper's own cost too
                    stack[-1][1] += clock() - entered

        return wrapper

    def _engine_op(self, op: str, fn):
        mutating = op != "evaluate_triggers"

        def sample_state(args) -> None:
            engine = args[0]
            positions, orders = len(engine.positions), len(engine.orders)
            self.peak_positions = max(self.peak_positions, positions)
            self.peak_orders = max(self.peak_orders, orders)
            if mutating:
                self.mutating_calls += 1
                self.state_items += (positions + orders + len(engine.escrow)
                                     + len(engine.vault.balances))

        return self._span(f"engine.{op}", fn, before=sample_state)

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function and method of the imported perpamm."""
        for _, module, _ in FUNCTIONS:
            importlib.import_module(module)
        importlib.import_module("perpamm.cli")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "perpamm" or name.startswith("perpamm.")]
        for name, module, attr in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            wrapper = self._span(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        engine_cls = sys.modules["perpamm.engine"].Engine
        for op in ENGINE_OPS:
            setattr(engine_cls, op, self._engine_op(op, getattr(engine_cls, op)))
        for name, module, cls_name, method in COUNTED:
            cls = getattr(sys.modules[module], cls_name)
            setattr(cls, method, self._counted(name, getattr(cls, method)))

    # -- results -------------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far."""
        out: dict[str, float] = dict(self.counts)
        for name, (calls, self_ns, errors) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = self_ns / 1e9
            out[f"{name}.errors"] = errors
            if name.startswith("engine."):
                out[f"{name}.p50_us"] = _percentile_us(self.durations[name], 0.50)
                out[f"{name}.p99_us"] = _percentile_us(self.durations[name], 0.99)
        out["scenario.run.self_s"] = out["scenario.run.s"]
        out["engine.open_positions.peak"] = self.peak_positions
        out["engine.pending_orders.peak"] = self.peak_orders
        out["engine.state_items_per_call"] = (
            self.state_items / self.mutating_calls if self.mutating_calls else 0.0)
        out["scenario.run.engine_share"] = self._engine_share()
        return out

    def _engine_share(self) -> float:
        """Share of scenario.run time spent inside engine entry points it called."""
        run_id = self.names.index("scenario.run")
        engine_ids = {i for i, name in enumerate(self.names) if name.startswith("engine.")}
        run_ns = engine_ns = 0
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        for i in range(len(names)):
            if names[i] == run_id:
                run_ns += ends[i] - starts[i]
            elif names[i] in engine_ids and parents[i] >= 0 and names[parents[i]] == run_id:
                engine_ns += ends[i] - starts[i]
        return engine_ns / run_ns if run_ns else 0.0

    def write(self, path: str) -> None:
        """All spans as CSV: id, parent, name, start_ns, end_ns."""
        names = self.names
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for i in range(len(self.span_name)):
                fh.write(f"{i},{self.span_parent[i]},{names[self.span_name[i]]},"
                         f"{self.span_start[i]},{self.span_end[i]}\n")
