"""Auto-compounding LP share accounting.

Deposits mint shares at the current share price and redemptions burn them;
fee credits and trader-profit debits move total assets while leaving the
share count untouched, which is what makes the share price compound.

All amounts are integer base units. Mint and redeem both round down
(in the vault's favor), the standard tokenized-vault convention.
"""

from __future__ import annotations

from .errors import (DomainError, InsolventVault, InsufficientLiquidity,
                     InsufficientShares, ZeroShareMint)
from .money import div_round_half_even


class VaultState:
    def __init__(self) -> None:
        self.total_assets: int = 0
        self.total_shares: int = 0
        self.balances: dict[str, int] = {}

    def deposit(self, account: str, assets: int) -> int:
        """Mint shares for a deposit; 1:1 when the vault holds no shares."""
        if assets <= 0:
            raise DomainError("deposit must be positive")
        if self.total_shares == 0:
            shares = assets
        elif self.total_assets == 0:    # shares priced at 0: EIP-4626's division reverts
            raise DomainError("vault holds no assets for its outstanding shares")
        else:
            shares = assets * self.total_shares // self.total_assets
        if shares == 0:
            raise ZeroShareMint("deposit too small to mint a share")
        self.total_assets += assets
        self.total_shares += shares
        self.balances[account] = self.balances.get(account, 0) + shares
        return shares

    def redeem(self, account: str, shares: int, locked: int = 0) -> int:
        """Burn shares and return the proportional assets (floor).

        Raises InsufficientLiquidity, writing nothing, if fewer than `locked`
        assets would remain."""
        if shares <= 0:
            raise DomainError("redeem must be positive")
        balance = self.balances.get(account, 0)
        if shares > balance:
            raise InsufficientShares(
                f"account {account!r} holds {balance} shares, asked {shares}")
        assets = shares * self.total_assets // self.total_shares
        if self.total_assets - assets < locked:
            raise InsufficientLiquidity(
                "redeem would leave the pool below reserved liquidity")
        self.total_assets -= assets
        self.total_shares -= shares
        remaining = balance - shares
        if remaining:
            self.balances[account] = remaining
        else:
            del self.balances[account]
        return assets

    def credit(self, amount: int) -> None:
        """Add fees/trader losses to assets; share count unchanged."""
        if amount < 0:
            raise DomainError("credit must be non-negative")
        self.total_assets += amount

    def debit(self, amount: int) -> None:
        """Pay trader profit out of assets; share count unchanged."""
        if amount < 0:
            raise DomainError("debit must be non-negative")
        if amount > self.total_assets:
            raise InsolventVault(
                f"debit {amount} exceeds vault assets {self.total_assets}")
        self.total_assets -= amount

    def share_price(self) -> int:
        """Assets per share in nanos (1e-9), rounded half-even; 10**9 for an empty vault."""
        if self.total_shares == 0:
            return 10**9
        return div_round_half_even(self.total_assets * 10**9, self.total_shares)

    def clone(self) -> "VaultState":
        """Independent copy; the engine never copies its vault, but perfbench counts calls."""
        copy = VaultState()
        copy.total_assets = self.total_assets
        copy.total_shares = self.total_shares
        copy.balances = dict(self.balances)
        return copy
