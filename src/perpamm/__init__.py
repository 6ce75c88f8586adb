"""AMM-based perpetual futures: deterministic engine and scenario simulator.

Subpackages map one-to-one onto the protocol pieces: ``curves`` (price
deviation and borrowing-fee curves), ``oracle`` (dual-feed aggregation),
``vault`` (auto-compounding LP shares), ``engine`` (order/position state
machine), ``scenario`` (event-driven replay harness), ``figures`` and
``cli`` (reporting front ends).
"""

__version__ = "0.1.0"

# Recorded by perfbench with every invocation; curve math is pure Python only.
KERNEL_BACKEND = "python"
