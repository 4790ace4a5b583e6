"""Scalability extrapolation across network fee profiles.

Total gas scales exactly linearly in corpus size because registrations
cost near-constant gas; currency math uses exact decimals so projected
tables are bit-stable across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from pathlib import Path

from .ledger import CANONICAL_REGISTRATION_GAS
from .records import load_json_entries

ETH_PER_GWEI = Decimal("1e-9")


def _as_decimal(value: object, name: str = "value") -> Decimal:
    """Exact decimal of a finite number; anything else raises ValueError."""
    try:
        number = value if isinstance(value, Decimal) else Decimal(str(value))
    except InvalidOperation:
        raise ValueError(f"{name} is not a number: {value!r}") from None
    if not number.is_finite():
        raise ValueError(f"{name} is not a finite number: {value!r}")
    return number


def _plain(value: Decimal) -> Decimal:
    """Strip insignificant trailing zeros and avoid scientific notation."""
    value = value.normalize()
    if value == value.to_integral_value():
        try:
            return value.quantize(Decimal(1))
        except InvalidOperation:
            return value
    return value


@dataclass(frozen=True)
class NetworkProfile:
    name: str
    gas_price_gwei: Decimal

    def __post_init__(self) -> None:
        object.__setattr__(self, "gas_price_gwei", _as_decimal(self.gas_price_gwei, "gas_price_gwei"))
        if self.gas_price_gwei <= 0:
            raise ValueError("gas price must be positive")


def preset_profiles() -> list[NetworkProfile]:
    """The three representative deployment environments."""
    return [
        NetworkProfile("ethereum-l1", Decimal(30)),
        NetworkProfile("polygon-pos", Decimal(5)),
        NetworkProfile("optimistic-l2", Decimal(1)),
    ]


def load_profiles(path: Path | str) -> list[NetworkProfile]:
    """Read custom profiles from a JSON list of {name, gas_price_gwei}."""
    return load_json_entries(
        path, "profile config", lambda e: NetworkProfile(str(e["name"]), e["gas_price_gwei"])
    )


@dataclass(frozen=True)
class Projection:
    n_slides: int
    network: str
    gas_price_gwei: Decimal
    total_gas: int
    total_cost_eth: Decimal
    total_cost_usd: Decimal
    expected_seconds: Decimal


def project(
    n: int,
    mean_gas: int = CANONICAL_REGISTRATION_GAS,
    profiles: list[NetworkProfile] | None = None,
    eth_usd: object = 3000,
    throughput: object = 1.0,
) -> list[Projection]:
    """One projection per network profile for an n-slide corpus.

    total_gas is exact integer arithmetic (n * mean_gas); costs multiply
    it by the profile gas price and the ETH/USD rate in exact decimal.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if mean_gas < 1:
        raise ValueError("mean_gas must be >= 1")
    rate = _as_decimal(eth_usd, "eth_usd")
    speed = _as_decimal(throughput, "throughput")
    if rate <= 0 or speed <= 0:
        raise ValueError("eth_usd and throughput must be positive")
    profiles = profiles if profiles is not None else preset_profiles()

    total_gas = n * mean_gas
    expected_seconds = Decimal(n) / speed
    out = []
    for profile in profiles:
        cost_eth = Decimal(total_gas) * profile.gas_price_gwei * ETH_PER_GWEI
        out.append(
            Projection(
                n_slides=n,
                network=profile.name,
                gas_price_gwei=profile.gas_price_gwei,
                total_gas=total_gas,
                total_cost_eth=_plain(cost_eth),
                total_cost_usd=_plain(cost_eth * rate),
                expected_seconds=_plain(expected_seconds),
            )
        )
    return out
