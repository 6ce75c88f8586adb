"""Shared builders for engine-level tests."""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from perpamm.curves import BaseFeeParams, DeviationParams, DynamicFeeParams
from perpamm.engine import Engine, MarketConfig
from perpamm.money import to_units
from perpamm.oracle import OracleConfig, PricePoint

BIG = to_units(10**9)

# Property tests draw the same examples on every run, so a suite run is
# repeatable; PERPAMM_HYPOTHESIS=random searches afresh (and keeps the
# example database) to look for new failures.
settings.register_profile("repeatable", derandomize=True)
settings.register_profile("random", derandomize=False)
settings.load_profile(os.environ.get("PERPAMM_HYPOTHESIS", "repeatable"))


def make_config(**overrides) -> MarketConfig:
    """Frictionless default market: zero fees, zero deviation, loose caps."""
    fields = dict(
        market_id="ETH-USD",
        deviation=DeviationParams(0.0, 0.0),
        base_fee=BaseFeeParams(0.0, 0.0),
        dynamic_fee=DynamicFeeParams(0.0, 0.0125),
        max_open_interest=BIG,
        max_leverage=to_units(10),
        max_exposure=BIG,
        maintenance_margin_rate=to_units(1),
        open_close_fee_rate=0,
        liquidation_fee_rate=0,
        oracle=OracleConfig(max_age=3600,
                            min_acceptable_deviation=to_units("0.1"),
                            threshold_deviation=to_units(1)),
    )
    fields.update(overrides)
    return MarketConfig(**fields)


def ledger_sum(cash: dict[str, int], engine: Engine) -> int:
    """Every account's cash plus all the engine holds: escrow, open collateral,
    vault assets and treasury. Every flow moves money between these, so the sum
    stays where it started (0 when the accounts start with no cash)."""
    return (sum(cash.values()) + sum(engine.escrow.values())
            + engine.open_collateral + engine.vault.total_assets
            + engine.treasury)


def make_engine(config: MarketConfig | None = None, **kw) -> Engine:
    return Engine(config if config is not None else make_config(), **kw)


def feed_both(engine: Engine, price_units: int, t: int) -> None:
    """Publish the same price on both feeds at time t."""
    engine.feeds.ingest(PricePoint("primary", price_units, t))
    engine.feeds.ingest(PricePoint("secondary", price_units, t))


@pytest.fixture
def engine() -> Engine:
    return make_engine()
