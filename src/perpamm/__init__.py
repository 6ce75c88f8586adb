"""AMM-based perpetual futures: deterministic engine and scenario simulator.

Its modules map one-to-one onto the protocol pieces: ``curves`` (price
deviation and borrowing-fee curves), ``oracle`` (dual-feed aggregation),
``vault`` (auto-compounding LP shares), ``engine`` (order/position state
machine), ``scenario`` (event-driven replay harness), ``figures`` and
``cli`` (reporting front ends), over ``money`` (fixed-point amounts),
``errors`` and ``config`` (the input reader). Every record is a NamedTuple,
and one with limits checks them when built (``errors.checked``).
"""

__version__ = "0.1.0"

# Recorded by perfbench with every invocation; curve math is pure Python only.
KERNEL_BACKEND = "python"
