"""Value types are NamedTuples, and the checked ones are checked on every route.

``Commitment``, ``GasConfig``, ``FeeConfig`` and ``NetworkProfile`` check
(and coerce) their fields.  A NamedTuple's ``_make`` and ``_replace`` build
the tuple without its constructor, so each route is tried here: a bad
field raises ValueError from the constructor, from ``_replace`` and from
``_make`` alike.
"""

from fractions import Fraction

import pytest

from slideprov import Commitment, FeeConfig, GasConfig, NetworkProfile, SlideRecord

# (type, a valid value's fields, a field, a bad value for it)
BAD = [
    (Commitment, {"digest": bytes(32)}, "digest", b"short"),
    (GasConfig, {}, "intrinsic", 0),
    (GasConfig, {}, "exec_base", -1),
    (GasConfig, {}, "zero_byte", "four"),
    (FeeConfig, {}, "block_interval", 0),
    (FeeConfig, {}, "eth_usd_rate", "-3000"),
    (FeeConfig, {}, "genesis_time", -1),
    (FeeConfig, {}, "initial_base_fee_gwei", "1e-10"),  # under 1 wei
    (FeeConfig, {}, "target_gas", True),
    (NetworkProfile, {"name": "l1", "gas_price_gwei": 30}, "gas_price_gwei", 0),
    (NetworkProfile, {"name": "l1", "gas_price_gwei": 30}, "gas_price_gwei", "thirty"),
    (NetworkProfile, {"name": "l1", "gas_price_gwei": 30}, "name", None),
]
ROUTES = {
    "constructor": lambda cls, good, field, bad: cls(**{**good, field: bad}),
    "_replace": lambda cls, good, field, bad: cls(**good)._replace(**{field: bad}),
    "_make": lambda cls, good, field, bad: cls._make({**cls(**good)._asdict(), field: bad}.values()),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("cls, good, field, bad", BAD, ids=[f"{c.__name__}-{f}-{b!r}" for c, _, f, b in BAD])
def test_a_bad_field_raises_on_every_route(route, cls, good, field, bad):
    with pytest.raises(ValueError):
        ROUTES[route](cls, good, field, bad)


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_every_route_coerces(route):
    fee = ROUTES[route](FeeConfig, {}, "eth_usd_rate", "2500.5")
    assert type(fee) is FeeConfig and fee.eth_usd_rate == Fraction(5001, 2)
    profile = ROUTES[route](NetworkProfile, {"name": "l1", "gas_price_gwei": 30}, "gas_price_gwei", 0.5)
    assert profile == ("l1", Fraction(1, 2))


def test_values_are_tuples_with_the_hash_of_their_fields():
    record = SlideRecord(1, 2, "0x" + "ab" * 32, "Lecture 1/Slide2.json", 1, bytes(20))
    assert record == tuple(record) and len(record) == 6 and hash(record) == hash(tuple(record))
    assert record._replace(slide_id=3).slide_id == 3 and record._fields[1] == "slide_id"
    assert GasConfig() == (21_000, 16, 4, 207_862)
