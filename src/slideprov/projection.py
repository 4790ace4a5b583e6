"""Scalability extrapolation across network fee profiles.

Total gas scales exactly linearly in corpus size because registrations
cost near-constant gas.  Prices, costs and times are exact rationals
(``Fraction``); only text output rounds them, once, in
``reports.format_cell``, so projected tables are bit-stable across platforms.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from .ledger import CANONICAL_REGISTRATION_GAS, parse_number
from .records import Checked, load_json_entries, read_fields

GWEI = Fraction(1, 10**9)  # ETH per gwei


class _ProfileFields(NamedTuple):
    name: str
    gas_price_gwei: Fraction


class NetworkProfile(Checked, _ProfileFields):
    __slots__ = ()

    @classmethod
    def _check(cls, value: NetworkProfile) -> NetworkProfile:
        read_fields(value._asdict(), "profile config")  # null or 7 is no network name
        price = parse_number(value.gas_price_gwei, "gas_price_gwei")
        if price <= 0:
            raise ValueError("gas price must be positive")
        return tuple.__new__(cls, (value.name, price))


def preset_profiles() -> list[NetworkProfile]:
    """The three representative deployment environments."""
    return [
        NetworkProfile("ethereum-l1", Fraction(30)),
        NetworkProfile("polygon-pos", Fraction(5)),
        NetworkProfile("optimistic-l2", Fraction(1)),
    ]


def load_profiles(path: Path | str) -> list[NetworkProfile]:
    """Read custom profiles from a JSON list of {name, gas_price_gwei}, each name a JSON string, once."""
    return load_json_entries(path, "profile config", lambda e: NetworkProfile(e["name"], e["gas_price_gwei"]),
                             key=lambda profile: profile.name)


class Projection(NamedTuple):
    n_slides: int
    network: str
    gas_price_gwei: Fraction
    total_gas: int
    total_cost_eth: Fraction
    total_cost_usd: Fraction
    expected_seconds: Fraction


def project(
    n: int,
    mean_gas: int = CANONICAL_REGISTRATION_GAS,
    profiles: list[NetworkProfile] | None = None,
    eth_usd: object = 3000,
    throughput: object = 1.0,
) -> list[Projection]:
    """One projection per network profile for an n-slide corpus.

    total_gas is n * mean_gas; costs multiply it by the profile gas
    price and the ETH/USD rate, and time divides n by the throughput,
    all exactly.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if mean_gas < 1:
        raise ValueError("mean_gas must be >= 1")
    rate = parse_number(eth_usd, "eth_usd")
    speed = parse_number(throughput, "throughput")
    if rate <= 0 or speed <= 0:
        raise ValueError("eth_usd and throughput must be positive")
    profiles = profiles if profiles is not None else preset_profiles()

    total_gas = n * mean_gas
    expected_seconds = n / speed
    out = []
    for profile in profiles:
        cost_eth = total_gas * profile.gas_price_gwei * GWEI
        out.append(
            Projection(
                n_slides=n,
                network=profile.name,
                gas_price_gwei=profile.gas_price_gwei,
                total_gas=total_gas,
                total_cost_eth=cost_eth,
                total_cost_usd=cost_eth * rate,
                expected_seconds=expected_seconds,
            )
        )
    return out
