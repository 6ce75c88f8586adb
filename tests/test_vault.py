"""Vault share accounting: worked examples and rounding/conservation properties."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perpamm.errors import (
    DomainError,
    InsolventVault,
    InsufficientShares,
    ZeroShareMint,
)
from perpamm.money import to_units
from perpamm.vault import VaultState


class RationalVault:
    """Independent reference: same floor-rounding convention, math done in
    Fractions with math.floor instead of integer // arithmetic."""

    def __init__(self) -> None:
        self.assets = 0
        self.shares = 0
        self.balances: dict[str, int] = {}

    def deposit(self, account: str, assets: int) -> int:
        if self.shares == 0:
            minted = assets
        else:
            minted = math.floor(Fraction(assets * self.shares, self.assets))
        if minted == 0:
            raise ZeroShareMint("zero")
        self.assets += assets
        self.shares += minted
        self.balances[account] = self.balances.get(account, 0) + minted
        return minted

    def redeem(self, account: str, shares: int) -> int:
        out = math.floor(Fraction(shares * self.assets, self.shares))
        self.assets -= out
        self.shares -= shares
        self.balances[account] -= shares
        return out

    def credit(self, amount: int) -> None:
        self.assets += amount

    def debit(self, amount: int) -> None:
        self.assets -= amount


# -- Worked examples --------------------------------------------------------------

def test_bootstrap_deposit_is_one_to_one():
    v = VaultState()
    assert v.deposit("a", to_units(1000)) == to_units(1000)
    assert v.total_assets == v.total_shares == to_units(1000)


def test_deposit_at_inflated_share_price():
    v = VaultState()
    v.deposit("a", 1000)
    v.credit(100)  # assets 1100, shares 1000
    assert v.deposit("b", 110) == 100


def test_dust_deposit_rejected_as_zero_share_mint():
    v = VaultState()
    v.deposit("a", 1000)
    v.credit(100)
    with pytest.raises(ZeroShareMint):
        v.deposit("b", 1)


def test_zero_deposit_rejected():
    with pytest.raises(DomainError):
        VaultState().deposit("a", 0)


def test_immediate_roundtrip_returns_deposit():
    v = VaultState()
    v.deposit("a", to_units(1000))
    assert v.redeem("a", to_units(1000)) == to_units(1000)
    assert v.total_assets == 0 and v.total_shares == 0


def test_redeem_proportional_share():
    v = VaultState()
    v.deposit("a", 1000)
    v.credit(100)
    assert v.redeem("a", 500) == 550


def test_redeem_guards():
    v = VaultState()
    v.deposit("a", 1000)
    with pytest.raises(DomainError):
        v.redeem("a", 0)
    with pytest.raises(InsufficientShares):
        v.redeem("a", 1001)
    with pytest.raises(InsufficientShares):
        v.redeem("nobody", 1)


def test_credit_moves_share_price_not_share_count():
    v = VaultState()
    v.deposit("a", 1000)
    v.credit(100)
    assert v.total_shares == 1000
    assert v.share_price() == 1_100_000_000
    v.credit(0)
    assert v.total_assets == 1100


def test_debit_guards_and_insolvency():
    v = VaultState()
    v.deposit("a", 1000)
    v.debit(400)
    assert v.total_assets == 600
    with pytest.raises(InsolventVault):
        v.debit(601)
    with pytest.raises(DomainError):
        v.debit(-1)


# -- Properties ---------------------------------------------------------------------

@settings(max_examples=200)
@given(deposit=st.integers(min_value=1, max_value=10**12),
       credit=st.integers(min_value=0, max_value=10**12))
def test_no_dilution_roundtrip(deposit, credit):
    v = VaultState()
    v.deposit("seed", 10**6)
    v.credit(credit)
    price_before = Fraction(v.total_assets, v.total_shares)
    try:
        minted = v.deposit("a", deposit)
    except ZeroShareMint:
        return
    returned = v.redeem("a", minted)
    assert returned <= deposit
    # flooring the mint forfeits < 1 share, worth < price+1 base units
    assert deposit - returned <= math.ceil(price_before) + 1


@settings(max_examples=200)
@given(deposit=st.integers(min_value=1, max_value=10**12))
def test_no_dilution_two_unit_bound_at_par(deposit):
    # with share price at par the roundtrip shortfall stays within 2 units
    v = VaultState()
    v.deposit("seed", 10**6)
    minted = v.deposit("a", deposit)
    returned = v.redeem("a", minted)
    assert 0 <= deposit - returned <= 2


def test_share_price_never_drops_more_than_rounding():
    rng = random.Random(3)
    v = VaultState()
    v.deposit("seed", 10**9)
    price = Fraction(v.total_assets, v.total_shares)
    for _ in range(3000):
        op = rng.random()
        try:
            if op < 0.4:
                v.deposit("u", rng.randint(1, 10**8))
            elif op < 0.7 and v.balances.get("u", 0) > 1:
                v.redeem("u", rng.randint(1, v.balances["u"]))
            else:
                v.credit(rng.randint(0, 10**6))
        except ZeroShareMint:
            continue
        new_price = Fraction(v.total_assets, v.total_shares)
        # floor rounding only ever benefits remaining holders
        assert new_price >= price - Fraction(1, v.total_shares)
        price = new_price


def test_conservation_exact_integer_accounting():
    rng = random.Random(5)
    v = VaultState()
    total_in = total_out = 0
    v.deposit("seed", 500_000)
    total_in += 500_000
    for _ in range(2000):
        op = rng.random()
        try:
            if op < 0.35:
                amount = rng.randint(1, 10**7)
                v.deposit("u", amount)
                total_in += amount
            elif op < 0.6 and v.balances.get("u", 0) > 0:
                shares = rng.randint(1, v.balances["u"])
                total_out += v.redeem("u", shares)
            elif op < 0.8:
                amount = rng.randint(0, 10**5)
                v.credit(amount)
                total_in += amount
            else:
                amount = rng.randint(0, min(10**5, v.total_assets))
                v.debit(amount)
                total_out += amount
        except ZeroShareMint:
            continue
    assert v.total_assets == total_in - total_out


def test_matches_rational_reference_on_random_sequence():
    rng = random.Random(99)
    mine, ref = VaultState(), RationalVault()
    for _ in range(5000):
        op = rng.random()
        account = rng.choice(["a", "b", "c"])
        if op < 0.4:
            amount = rng.randint(1, 10**9)
            try:
                got = mine.deposit(account, amount)
            except ZeroShareMint:
                with pytest.raises(ZeroShareMint):
                    ref.deposit(account, amount)
                continue
            assert got == ref.deposit(account, amount)
        elif op < 0.7:
            balance = mine.balances.get(account, 0)
            if balance == 0:
                continue
            shares = rng.randint(1, balance)
            assert mine.redeem(account, shares) == ref.redeem(account, shares)
        elif op < 0.9:
            amount = rng.randint(0, 10**7)
            mine.credit(amount)
            ref.credit(amount)
        else:
            amount = rng.randint(0, mine.total_assets)
            mine.debit(amount)
            ref.debit(amount)
        assert mine.total_assets == ref.assets
        assert mine.total_shares == ref.shares
        assert mine.balances == {k: v for k, v in ref.balances.items() if v}
