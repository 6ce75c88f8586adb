"""Error hierarchy for the protocol engine.

Every error carries a stable ``code`` (its class name) so the CLI can emit
machine-parseable ``ERROR <code>: <message>`` lines and tests can assert on
codes instead of message text.
"""

from __future__ import annotations


class ProtocolError(Exception):
    """Base class for all domain errors raised by this package."""

    @property
    def code(self) -> str:
        return type(self).__name__


class DomainError(ProtocolError):
    """Precondition violated (out-of-range argument, zero denominator, ...)."""


class ClockRegression(DomainError):
    """Accrual or settlement asked to move backwards in time."""


class QuoteError(ProtocolError):
    """Deviation of 100% or more: the short-side quote would be non-positive.
    A settlement also refuses a short quote that rounds below 1 base unit."""


class ConfigError(ProtocolError):
    """Market configuration file is malformed or violates invariants."""


class TraceError(ProtocolError):
    """Price trace file is malformed (bad header, decreasing timestamps, ...)."""


class ScenarioError(ProtocolError):
    """Scenario file is malformed or references undefined entities."""


class InvalidGrid(ProtocolError):
    """Figure grid (an inclusive lo:hi:step range) or figure parameters are malformed."""


# -- Oracle ------------------------------------------------------------------

class StaleFeed(ProtocolError):
    """A required feed is missing or older than the configured max age."""


class DeviationTooHigh(ProtocolError):
    """Feed disagreement above the threshold limit: settlement reverts."""


# -- Market engine -----------------------------------------------------------

class UnknownOrder(ProtocolError):
    """No pending order with that id."""


class UnknownPosition(ProtocolError):
    """No open position with that id."""


class LeverageExceeded(ProtocolError):
    """Open order's size/collateral ratio is above the market maximum."""


class SlippageExceeded(ProtocolError):
    """Execution price moved adversely beyond the order's tolerance."""


class OpenInterestCapExceeded(ProtocolError):
    """Post-trade open interest on one side would exceed the market cap."""


class ExposureCapExceeded(ProtocolError):
    """Post-trade net exposure |L - S| would exceed the market cap."""


class InsufficientLiquidity(ProtocolError):
    """Reserved liquidity would exceed pool value (open or LP withdrawal)."""


class InsufficientCollateral(ProtocolError):
    """Escrowed collateral cannot cover the open fee."""


class TriggerNotMet(ProtocolError):
    """Trigger order settled while its price condition does not hold."""


class NotLiquidatable(ProtocolError):
    """Position is above its maintenance margin at the current mark."""


# -- Vault -------------------------------------------------------------------

class ZeroShareMint(ProtocolError):
    """Deposit too small: floor share math would mint zero shares."""


class InsufficientShares(ProtocolError):
    """Redeem amount exceeds the account's share balance."""


class InsolventVault(ProtocolError):
    """Debit exceeds vault assets: the pool cannot cover trader profit."""
