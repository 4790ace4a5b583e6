import json
from decimal import ROUND_HALF_EVEN, Context, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from slideprov import NetworkProfile, load_profiles, preset_profiles, project
from slideprov.ledger import CANONICAL_REGISTRATION_GAS
from slideprov.projection import decimal_text


def by_network(projections):
    return {p.network: p for p in projections}


class TestProject:
    def test_million_slide_l1_figures(self):
        p = by_network(project(10**6))["ethereum-l1"]
        assert p.total_gas == 231_430_000_000
        assert p.total_cost_eth == Decimal("6942.9")
        assert p.total_cost_usd == Decimal("20828700.0")
        assert p.expected_seconds == Decimal(10**6)

    def test_l1_to_l2_ratio_exactly_30(self):
        projections = by_network(project(10**6))
        ratio = projections["ethereum-l1"].total_cost_usd / projections["optimistic-l2"].total_cost_usd
        assert ratio == Decimal(30)

    def test_single_slide_base_case(self):
        p = by_network(project(1))["ethereum-l1"]
        assert p.total_gas == CANONICAL_REGISTRATION_GAS
        assert p.total_cost_eth == Decimal(CANONICAL_REGISTRATION_GAS) * 30 * Decimal("1e-9")
        assert p.expected_seconds == Decimal(1)

    @pytest.mark.parametrize("n", [1, 7, 1000, 123_456])
    def test_linearity(self, n):
        single = by_network(project(n))["polygon-pos"]
        double = by_network(project(2 * n))["polygon-pos"]
        assert double.total_gas == 2 * single.total_gas
        assert double.total_cost_eth == 2 * single.total_cost_eth

    def test_profile_ordering(self):
        projections = project(5000)
        ordered = sorted(projections, key=lambda p: p.gas_price_gwei)
        costs = [p.total_cost_usd for p in ordered]
        assert costs == sorted(costs)
        assert len(set(costs)) == len(costs)

    def test_currency_consistency(self):
        for p in project(31337, eth_usd=2417):
            assert p.total_cost_usd == p.total_cost_eth * 2417

    def test_throughput_scales_time(self):
        p = by_network(project(1000, throughput=2.0))["ethereum-l1"]
        assert p.expected_seconds == Decimal(500)

    def test_costs_are_exact(self):
        # 10**7 gas at 1/3 gwei and $3000/ETH is $10, with no rounding on the way
        p = project(1, mean_gas=10**7, profiles=[NetworkProfile("x", "1/3")])[0]
        assert p.total_cost_usd == 10
        assert decimal_text(p.total_cost_usd) == "10"

    @pytest.mark.parametrize("kwargs", [
        {"n": 0}, {"n": -5}, {"n": 10, "mean_gas": 0},
        {"n": 10, "eth_usd": 0}, {"n": 10, "throughput": 0},
    ])
    def test_rejects_non_positive_parameters(self, kwargs):
        with pytest.raises(ValueError):
            project(**kwargs)


class TestProfiles:
    def test_presets(self):
        presets = {p.name: p.gas_price_gwei for p in preset_profiles()}
        assert presets == {
            "ethereum-l1": Decimal(30),
            "polygon-pos": Decimal(5),
            "optimistic-l2": Decimal(1),
        }

    def test_gas_price_must_be_positive(self):
        with pytest.raises(ValueError):
            NetworkProfile("bad", Decimal(0))

    def test_load_custom_profiles(self, tmp_path):
        path = tmp_path / "profiles.json"
        path.write_text(json.dumps([
            {"name": "devnet", "gas_price_gwei": "0.1"},
            {"name": "mainnet", "gas_price_gwei": 42},
        ]), encoding="utf-8")
        profiles = load_profiles(path)
        assert [p.name for p in profiles] == ["devnet", "mainnet"]
        assert profiles[0].gas_price_gwei == Decimal("0.1")

    def test_load_rejects_empty(self, tmp_path):
        path = tmp_path / "profiles.json"
        path.write_text("[]", encoding="utf-8")
        with pytest.raises(ValueError):
            load_profiles(path)

    def test_custom_profiles_in_projection(self, tmp_path):
        p = by_network(project(100, profiles=[NetworkProfile("x", Decimal("2.5"))]))["x"]
        assert p.total_cost_eth == Decimal(100 * CANONICAL_REGISTRATION_GAS) * Decimal("2.5") * Decimal("1e-9")


def reference_text(value: Fraction) -> str:
    """28 significant digits by Decimal division; the point placed by hand."""
    with localcontext(Context(prec=28, rounding=ROUND_HALF_EVEN)):
        quotient = Decimal(value.numerator) / Decimal(value.denominator)
    _, digit_tuple, exponent = quotient.as_tuple()
    digits = "".join(map(str, digit_tuple))
    while digits.endswith("0"):
        digits, exponent = digits[:-1], exponent + 1
    if exponent >= 0:
        return digits + "0" * exponent
    point = len(digits) + exponent
    if point > 0:
        return digits[:point] + "." + digits[point:]
    return "0." + "0" * -point + digits


class TestDecimalText:
    @pytest.mark.parametrize("value, text", [
        (Fraction(69429, 10), "6942.9"),
        (Fraction(20828700), "20828700"),
        (Fraction(1, 3), "0." + "3" * 28),
        (Fraction(69429, 10**11), "0.00000069429"),
        (Fraction(10**30), "1" + "0" * 30),
        (Fraction(2**100), "1267650600228229401496703205000"),  # ...205|376 rounds down
        (Fraction(10**29 - 1, 10**29), "1"),  # 29 nines: rounding the 29th carries to 1
        (Fraction(5, 10**28) + 1, "1"),  # a tie rounds to the even digit
        (Fraction(15, 10**28) + 1, "1.000000000000000000000000002"),
    ])
    def test_table(self, value, text):
        assert decimal_text(value) == text
        assert reference_text(value) == text

    @given(numerator=st.integers(1, 10**40), denominator=st.integers(1, 10**40),
           scale=st.integers(-250, 250))
    def test_matches_decimal_reference(self, numerator, denominator, scale):
        value = Fraction(numerator, denominator) * Fraction(10) ** scale
        assert decimal_text(value) == reference_text(value)

    @pytest.mark.parametrize("value", [
        Fraction(10**400), Fraction(1, 10**400), Fraction(2**1024), Fraction(1, 2**1080),
    ])
    def test_rejects_values_no_float_holds(self, value):
        with pytest.raises(ValueError, match="^projected values exceed the floating-point range$"):
            decimal_text(value)
