import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule
from hypothesis import strategies as st

from conftest import register_corpus
from keccak_reference import reference_keccak256
from slideprov.commitment import storage_key
from slideprov.ledger import LEDGER_FORMAT, MAX_EXPONENT, ExponentOutOfRange, checksum
from slideprov import (
    AlreadyRegistered,
    CorruptLedgerFile,
    FeeConfig,
    GasConfig,
    InvalidLecture,
    InvalidSlide,
    Ledger,
    SlideKey,
    canonical_uri,
    dev_accounts,
    estimate_gas,
)

HASH66 = "0x" + "ab" * 32
URI30 = "Lecture 1/Slide1.json".ljust(30, "x")


def test_first_registration_seals_block_one():
    ledger = Ledger()
    receipt = ledger.register_slide(SlideKey(1, 1), HASH66, "u")
    assert receipt.block_number == 1
    assert len(ledger.records) == 1
    assert len(ledger.events) == 1
    assert ledger.events[0].slide_hash == HASH66


def test_duplicate_rejected_state_unchanged():
    ledger = Ledger()
    ledger.register_slide(SlideKey(1, 1), HASH66, "u")
    before = ledger.export_bytes()
    with pytest.raises(AlreadyRegistered):
        ledger.register_slide(SlideKey(1, 1), "0x" + "cd" * 32, "other")
    assert ledger.export_bytes() == before
    assert ledger.get_slide(SlideKey(1, 1)).slide_hash == HASH66


@pytest.mark.parametrize("key,exc", [
    (SlideKey(0, 1), InvalidLecture),
    (SlideKey(1, 0), InvalidSlide),
    (SlideKey(-3, 1), InvalidLecture),
])
def test_zero_ids_rejected(key, exc):
    ledger = Ledger()
    before = ledger.export_bytes()
    with pytest.raises(exc):
        ledger.register_slide(key, HASH66, "u")
    assert ledger.export_bytes() == before


@pytest.mark.parametrize("key, exc, message", [
    (SlideKey(2**256, 1), InvalidLecture, "lectureId must be < 2\\*\\*256"),
    (SlideKey(1, 2**256), InvalidSlide, "slideId must be < 2\\*\\*256"),
], ids=["lecture", "slide"])
def test_ids_past_uint256_rejected(key, exc, message):
    # the contract's ids are uint256: storage_key cannot pack such an id
    ledger = Ledger()
    before = ledger.export_bytes()
    with pytest.raises(exc, match=message):
        ledger.register_slide(key, HASH66, "u")
    assert ledger.export_bytes() == before
    with pytest.raises(OverflowError):
        storage_key(key)


def test_largest_uint256_ids_registered():
    key = SlideKey(2**256 - 1, 2**256 - 1)
    Ledger().register_slide(key, HASH66, "u")
    assert len(storage_key(key)) == 32


def test_get_slide_absent_is_none():
    ledger = Ledger()
    assert ledger.get_slide(SlideKey(5, 5)) is None
    assert not ledger.is_registered(SlideKey(5, 5))


def test_timestamps_follow_sealing_rule():
    ledger = Ledger()
    keys = [SlideKey(1, i) for i in (1, 2, 3)]
    for key in keys:
        ledger.register_slide(key, HASH66, "u")
    genesis = ledger.fee_config.genesis_time
    interval = ledger.fee_config.block_interval
    for rank, key in enumerate(keys, start=1):
        assert ledger.get_slide(key).timestamp == genesis + rank * interval


class TestGasModel:
    def test_canonical_registration_costs_calibrated_constant(self):
        assert len(HASH66) == 66 and len(URI30) == 30
        assert estimate_gas(HASH66, URI30) == 231_430

    def test_gas_linear_in_nonzero_uri_bytes(self):
        base = estimate_gas(HASH66, URI30)
        assert estimate_gas(HASH66, URI30 + "y" * 32) == base + 32 * 16

    def test_equal_lengths_identical_gas(self):
        other_hash = "0x" + "ff" * 32
        other_uri = "Lecture 9/Slide9.json".ljust(30, "z")
        assert estimate_gas(HASH66, URI30) == estimate_gas(other_hash, other_uri)

    def test_custom_exec_base(self):
        cfg = GasConfig(exec_base=0)
        assert estimate_gas(HASH66, URI30, cfg) == 231_430 - GasConfig().exec_base


class TestFees:
    def test_first_block_price(self):
        ledger = Ledger()
        receipt = ledger.register_slide(SlideKey(1, 1), HASH66, URI30)
        # 0.77 gwei base fee plus the 1 gwei tip
        assert (receipt.gas_used, receipt.price_wei) == (231_430, 1_770_000_000)

    def test_price_non_increasing_bounded_by_tip(self):
        ledger = Ledger()
        prices = [
            ledger.register_slide(SlideKey(1, i), HASH66, URI30).price_wei
            for i in range(1, 40)
        ]
        tip = ledger.fee_config.priority_tip_wei
        assert all(a >= b for a, b in zip(prices, prices[1:]))
        assert all(p >= tip for p in prices)

    def test_decay_with_gas_below_target_shrinks_base(self):
        cfg = FeeConfig()
        assert cfg.next_base_fee_wei(10**9, 231_430) < 10**9

    def test_decay_reaches_the_tip_only_floor(self):
        cfg = FeeConfig()
        wei = cfg.initial_base_fee_wei
        for _ in range(500):
            wei = cfg.next_base_fee_wei(wei, 231_430)
        assert wei == 0

    def test_create_coerces_and_validates(self):
        cfg = FeeConfig(initial_base_fee_gwei=0.77, priority_tip_gwei="1.0", eth_usd_rate=3000,
                        target_gas="8")
        assert cfg == FeeConfig(target_gas=8)
        assert cfg.initial_base_fee_gwei == Fraction(77, 100)
        assert type(cfg.eth_usd_rate) is Fraction and type(cfg.target_gas) is int
        for bad in ({"initial_base_fee_gwei": 0}, {"priority_tip_gwei": "1e-10"},
                    {"eth_usd_rate": -3000}, {"target_gas": 0}, {"decay_denominator": -1}, {"block_interval": 0},
                    {"genesis_time": -1}, {"eth_usd_rate": "1/0"}, {"target_gas": float("inf")},
                    {"block_interval": True}, {"priority_tip_gwei": None}):
            with pytest.raises(ValueError):
                FeeConfig(**bad)

    @pytest.mark.parametrize("text,value", [
        ("1e4300", Fraction(10**4300)), ("3e-4300", Fraction(3, 10**4300)),
        ("1E+0004300", Fraction(10**4300)), ("2.5e4_300", Fraction(25 * 10**4299)),
        ("1e4301", None), ("1e-4301", None), ("1e-4_3_0_1", None), ("0.00001e99999 ", None),
    ])
    def test_decimal_exponent_bound(self, text, value):
        # the bound reads the exponent as written, whatever the value
        if value is not None:
            assert FeeConfig(eth_usd_rate=text).eth_usd_rate == value
            return
        with pytest.raises(ExponentOutOfRange, match=f"eth_usd_rate has an exponent past {MAX_EXPONENT}"):
            FeeConfig(eth_usd_rate=text)

    def test_gas_config_coerces_and_validates(self):
        assert GasConfig(exec_base="0") == GasConfig(exec_base=0)
        for bad in ({"intrinsic": 0}, {"nonzero_byte": -1}, {"zero_byte": -1},
                    {"exec_base": -300_000}, {"exec_base": "x"}):
            with pytest.raises(ValueError):
                GasConfig(**bad)


class TestBatch:
    def test_order_preserved_blocks_sequential(self):
        ledger = Ledger()
        items = [(SlideKey(2, 2), HASH66, URI30), (SlideKey(1, 1), HASH66, URI30)]
        receipts, summary = ledger.batch_register(items)
        assert [(r.lecture_id, r.slide_id) for r in receipts] == [(2, 2), (1, 1)]
        assert [r.block_number for r in receipts] == [1, 2]
        assert summary.registered == 2
        assert summary.total_gas == 2 * 231_430

    def test_failures_collected_not_fatal(self):
        ledger = Ledger()
        items = [
            (SlideKey(1, 1), HASH66, URI30),
            (SlideKey(1, 1), HASH66, URI30),
            (SlideKey(0, 1), HASH66, URI30),
            (SlideKey(1, 2), HASH66, URI30),
        ]
        receipts, summary = ledger.batch_register(items)
        assert summary.registered == 2
        assert len(summary.failures) == 2
        assert [r.block_number for r in receipts] == [1, 2]

    def test_summary_throughput(self):
        ledger = Ledger()
        items = [(SlideKey(1, i), HASH66, URI30) for i in range(1, 12)]
        _, summary = ledger.batch_register(items)
        assert summary.elapsed_seconds == 10
        assert summary.throughput == 11 / 10

    def test_single_item_summary(self):
        _, summary = Ledger().batch_register([(SlideKey(1, 1), HASH66, URI30)])
        assert summary.elapsed_seconds == 0
        assert summary.throughput == 1.0


class TestExportImport:
    def test_round_trip_equality(self, corpus):
        ledger = register_corpus(corpus)
        assert Ledger.from_document(json.loads(ledger.export_bytes())) == ledger

    def test_empty_export(self):
        doc = Ledger().to_document()
        assert sorted(doc) == ["checksum", "events", "fee_config", "format", "gas_config"]
        assert doc["format"] == LEDGER_FORMAT == "slideprov-ledger/v2"
        assert doc["events"] == []
        assert doc["checksum"] == checksum(doc)

    def test_checksum_is_sha256_of_the_other_four_keys(self, corpus):
        data = register_corpus(corpus).export_bytes()
        doc = json.loads(data)
        body = {name: value for name, value in doc.items() if name != "checksum"}
        canonical = json.dumps(body, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
        assert doc["checksum"] == "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        assert data == (json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
                        + "\n").encode("utf-8")

    def test_save_load_file(self, tmp_path, corpus):
        ledger = register_corpus(corpus)
        path = tmp_path / "ledger.json"
        ledger.save(path)
        assert Ledger.load(path) == ledger

    def test_replay_is_byte_identical(self, corpus):
        a = register_corpus(corpus).export_bytes()
        b = register_corpus(corpus).export_bytes()
        assert a == b

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "ledger.json"
        path.write_text("{ nope", encoding="utf-8")
        with pytest.raises(CorruptLedgerFile):
            Ledger.load(path)
        path.write_text(json.dumps({"format": "other"}), encoding="utf-8")
        with pytest.raises(CorruptLedgerFile):
            Ledger.load(path)

    def test_schema_mismatch_rejected(self):
        ledger = Ledger()
        ledger.register_slide(SlideKey(1, 1), HASH66, URI30)
        doc = json.loads(ledger.export_bytes())
        del doc["fee_config"]["genesis_time"]
        with pytest.raises(CorruptLedgerFile):
            Ledger.from_document(doc)


class TestReplay:
    """Loading replays ``events``; the file must hold the replay's export, checksum included."""

    @pytest.fixture
    def doc(self):
        ledger = Ledger()
        for i in range(1, 6):
            ledger.register_slide(SlideKey(1, i), HASH66, URI30)
        return json.loads(ledger.export_bytes())

    def test_truncated_log_rejected(self, doc):
        doc["events"] = doc["events"][:3]
        with pytest.raises(CorruptLedgerFile, match="does not match its checksum"):
            Ledger.from_document(doc)

    @pytest.mark.parametrize("name, value", [("timestamp", 1.0), ("lectureId", True), ("slideId", "1")])
    def test_same_number_written_otherwise_rejected(self, doc, name, value):
        # the replay reads each as the value it replaces, so only the checksum tells them apart
        doc["events"][0][name] = value
        with pytest.raises(CorruptLedgerFile, match="does not match its checksum"):
            Ledger.from_document(doc)

    def test_consistent_edit_with_recomputed_checksum_loads(self, doc):
        # the documented limit: whoever edits the file can recompute its checksum
        doc["events"][0]["slideHash"] = "0x" + "cd" * 32
        doc["checksum"] = checksum(doc)
        assert Ledger.from_document(doc).get_slide(SlideKey(1, 1)).slide_hash == "0x" + "cd" * 32

    # each edit below recomputes the checksum, so only the replay's
    # registration checks can reject it

    def test_zero_id_rejected_like_a_live_call(self, doc):
        doc["events"][0]["lectureId"] = 0
        doc["checksum"] = checksum(doc)
        with pytest.raises(CorruptLedgerFile, match="lectureId must be > 0"):
            Ledger.from_document(doc)

    def test_id_past_uint256_rejected_like_a_live_call(self, doc):
        doc["events"][0]["slideId"] = 2**256
        doc["checksum"] = checksum(doc)
        with pytest.raises(CorruptLedgerFile, match="slideId must be < 2\\*\\*256"):
            Ledger.from_document(doc)

    def test_duplicate_rejected_like_a_live_call(self, doc):
        doc["events"].append(dict(doc["events"][0], timestamp=doc["events"][-1]["timestamp"] + 1))
        doc["checksum"] = checksum(doc)
        with pytest.raises(CorruptLedgerFile, match="already registered"):
            Ledger.from_document(doc)

    def test_timestamp_off_the_sealing_rule_rejected(self, doc):
        doc["events"][-1]["timestamp"] += 1
        doc["checksum"] = checksum(doc)
        with pytest.raises(CorruptLedgerFile, match="out-of-rule timestamp"):
            Ledger.from_document(doc)

    def test_replayed_cursor_continues_the_chain(self, doc):
        ledger = Ledger.from_document(doc)
        assert (ledger.next_block_number, ledger.next_timestamp) == (6, 6)
        receipt = ledger.register_slide(SlideKey(2, 1), HASH66, URI30)
        assert (receipt.block_number, receipt.timestamp) == (6, 6)


def test_dev_accounts_fixed_and_distinct():
    accounts = dev_accounts()
    assert len(accounts) == 20
    assert all(len(a) == 20 for a in accounts)
    assert len(set(accounts)) == 20
    assert accounts == dev_accounts()
    assert accounts == [reference_keccak256(f"slideprov dev account {i}".encode())[12:] for i in range(20)]


def test_canonical_uri_shape():
    assert canonical_uri(SlideKey(3, 14)) == "Lecture 3/Slide14.json"


class LedgerMachine(RuleBasedStateMachine):
    """Append-only behavior under arbitrary interleavings."""

    def __init__(self):
        super().__init__()
        self.ledger = Ledger()
        self.shadow: dict[SlideKey, str] = {}

    @rule(lecture=st.integers(0, 4), slide=st.integers(0, 4),
          salt=st.integers(0, 2**32 - 1))
    def register(self, lecture, slide, salt):
        key = SlideKey(lecture, slide)
        slide_hash = "0x" + salt.to_bytes(32, "big").hex()
        if lecture < 1:
            with pytest.raises(InvalidLecture):
                self.ledger.register_slide(key, slide_hash, "u")
        elif slide < 1:
            with pytest.raises(InvalidSlide):
                self.ledger.register_slide(key, slide_hash, "u")
        elif key in self.shadow:
            with pytest.raises(AlreadyRegistered):
                self.ledger.register_slide(key, slide_hash, "u")
        else:
            self.ledger.register_slide(key, slide_hash, "u")
            self.shadow[key] = slide_hash

    @invariant()
    def stored_hashes_never_change(self):
        for key, slide_hash in self.shadow.items():
            stored = self.ledger.get_slide(key)
            assert stored is not None and stored.slide_hash == slide_hash

    @invariant()
    def block_cursor_counts_registrations(self):
        assert self.ledger.next_block_number == len(self.shadow) + 1


TestLedgerAppendOnly = LedgerMachine.TestCase
TestLedgerAppendOnly.settings = settings(max_examples=25, stateful_step_count=20, deadline=None)
