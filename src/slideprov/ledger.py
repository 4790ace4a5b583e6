"""Deterministic in-process slide registry with development-chain behavior.

Replicates the registry contract's observable semantics (validated ids,
reject-on-duplicate; a read of an unregistered slide gives ``None``, where
the contract reads a zeroed struct) plus the execution model of a
single-node dev chain: one block sealed per transaction, modeled
timestamps genesis + n * interval, a multiplicative base-fee adjustment per
block, and a parametric near-constant gas model per registration.

The ordered registration log is the only ledger state: the per-slide
index and the chain cursor are derived from it.  A ledger file holds the
configs, the log and a checksum of them; it is loaded by replaying the log
through the same checks a live registration passes, then rejected unless
the replay exports exactly the file's document, checksum included.  Each
registration made from a file also records that file's digest, bound to
its commitment, so ``verify`` can settle an unchanged file without
reading its record.

Fees are whole wei: a configured rational is read once into wei, and every
amount after is integer arithmetic, so replays are bit-identical across
platforms; nothing here touches a real network.
"""

from __future__ import annotations

import hashlib
import re
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from pathlib import Path
from typing import Callable, NamedTuple, TypeVar

from . import records
from .errors import AlreadyRegistered, CorruptLedgerFile, InvalidLecture, InvalidSlide, LedgerError
from .keccak import keccak256_many
from .records import Checked, SlideKey

# v3 added each event's file digest.  A file digest vouches for a commitment
# made by today's ``records.canonical_bytes``: a change to the canonical form
# must bump this format, so that no digest stands for a commitment of another form.
LEDGER_FORMAT = "slideprov-ledger/v3"

# Empirical per-registration gas for the canonical input shape
# (66-char hash, 30-char uri) under the default GasConfig.
CANONICAL_REGISTRATION_GAS = 231_430

_ACCOUNT_COUNT = 20

_T = TypeVar("_T")


@lru_cache(maxsize=1)
def _dev_account_set() -> tuple[bytes, ...]:
    labels = (f"slideprov dev account {i}".encode() for i in range(_ACCOUNT_COUNT))
    return tuple(digest[12:] for digest in keccak256_many(labels))


def dev_accounts() -> list[bytes]:
    """The fixed set of 20 deterministic 20-byte account identifiers."""
    return list(_dev_account_set())


def account_hex(account: bytes) -> str:
    return "0x" + account.hex()


# The default limit on the digits of integer text (sys.int_max_str_digits).
# The ledger file writes each config figure as such text, and register its
# gas totals and block timestamps, so no figure may have more digits.
MAX_DIGITS = 4300
_PAST_DIGITS = 10**MAX_DIGITS
# Fraction builds 10**exponent for decimal text such as "1e-2000000", which
# takes seconds at a few million, so an exponent past this bound is
# rejected before Fraction reads the text.  10**4299 is the largest power
# of ten with at most MAX_DIGITS digits.
MAX_EXPONENT = MAX_DIGITS - 1
_EXPONENT = re.compile(r"[eE][-+]?([0-9_]+)\s*\Z")


def _rational(value: object) -> Fraction:
    # floats go through str() so 0.77 becomes 77/100, not its binary expansion
    return Fraction(str(value) if isinstance(value, float) else value)  # type: ignore[arg-type]


def parse_number(value: object, name: str, convert: Callable[[object], _T] = _rational) -> _T:
    """``convert(value)``; by default the exact rational of ``value``.

    The default reads ints, Decimals, Fractions, floats (through their
    shortest text) and decimal or ``p/q`` text.  A value that is not a
    number, a bool included, raises ValueError naming ``name``, so a bad
    flag and a bad file fail alike.  The default raises it also for
    decimal text whose exponent is past ``MAX_EXPONENT``, unread.
    """
    if convert is _rational and isinstance(value, str) and (match := _EXPONENT.search(value)):
        digits = match.group(1).replace("_", "").lstrip("0")
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits or "0") > MAX_EXPONENT:
            raise ValueError(f"{name} has an exponent past {MAX_EXPONENT}: {value!r}")
    try:
        if isinstance(value, bool):
            raise TypeError
        return convert(value)
    except (TypeError, ValueError, ArithmeticError):
        raise ValueError(f"{name} is not a number: {value!r}") from None


def _check_digits(cfg: tuple) -> None:
    """ValueError naming the first field of ``cfg`` (an int, or a rational's terms) past ``MAX_DIGITS`` digits."""
    for name, value in zip(cfg._fields, cfg):  # type: ignore[attr-defined]
        if max(abs(value.numerator), value.denominator) >= _PAST_DIGITS:
            raise ValueError(f"{name} has more than {MAX_DIGITS} digits")


class _GasFields(NamedTuple):
    intrinsic: int = 21_000
    nonzero_byte: int = 16
    zero_byte: int = 4
    exec_base: int = 207_862


class GasConfig(Checked, _GasFields):
    """Linear calldata gas model, calibrated to the empirical constant.

    gas = intrinsic + 16*nonzero_bytes + 4*zero_bytes + exec_base, where
    calldata is modeled as a 4-byte selector, six 32-byte overhead words
    (four head words plus one length word per string, each counted as one
    nonzero and 31 zero bytes), the UTF-8 string contents (nonzero), and
    their pad-to-32 zero bytes.  exec_base is solved so the canonical
    registration costs exactly CANONICAL_REGISTRATION_GAS.
    """

    __slots__ = ()

    @classmethod
    def _check(cls, value: GasConfig) -> GasConfig:
        cfg = tuple.__new__(cls, [parse_number(v, name, int) for name, v in zip(cls._fields, value)])
        _check_digits(cfg)
        if cfg.intrinsic < 1:
            raise ValueError("intrinsic gas must be at least 1")
        if min(cfg.nonzero_byte, cfg.zero_byte, cfg.exec_base) < 0:
            raise ValueError("byte and execution gas must not be negative")
        return cfg


_SELECTOR_BYTES = 4
_OVERHEAD_WORDS = 6  # 4 head words + 2 string length words


def estimate_gas(slide_hash: str, uri: str, cfg: GasConfig | None = None) -> int:
    """Gas for registering the exact texts ``slide_hash`` and ``uri``."""
    cfg = cfg or GasConfig()
    h_len = len(slide_hash.encode("utf-8"))
    u_len = len(uri.encode("utf-8"))
    nonzero = h_len + u_len + _SELECTOR_BYTES + _OVERHEAD_WORDS
    zero = (-h_len) % 32 + (-u_len) % 32 + _OVERHEAD_WORDS * 31
    return cfg.intrinsic + cfg.nonzero_byte * nonzero + cfg.zero_byte * zero + cfg.exec_base


WEI_PER_GWEI = 10**9


class _FeeFields(NamedTuple):
    initial_base_fee_gwei: Fraction = Fraction(77, 100)
    priority_tip_gwei: Fraction = Fraction(1)
    target_gas: int = 15_000_000
    decay_denominator: int = 8
    eth_usd_rate: Fraction = Fraction(3000)
    block_interval: int = 1                          # seconds
    genesis_time: int = 0


class FeeConfig(Checked, _FeeFields):
    """Chain fee parameters.

    Base fee and tip are held to 1-wei resolution and the per-block
    adjustment uses integer floor division, matching on-chain fee
    arithmetic.  Defaults are calibrated so that per-registration cost
    starts near $1.23, decays toward the $0.69 tip-only floor, and a
    1,117-slide batch lands near $780 total at $3000/ETH.
    """

    __slots__ = ()

    @classmethod
    def _check(cls, value: FeeConfig) -> FeeConfig:
        """Coerce rationals and integers, then check every range.

        Rationals accept ints, decimal or ``p/q`` text, and floats (read
        through their shortest text).  ``genesis_time >= 0`` and
        ``block_interval >= 1`` keep every block timestamp > 0.
        """
        cfg = tuple.__new__(cls, [
            parse_number(v, name, _rational if isinstance(cls._field_defaults[name], Fraction) else int)
            for name, v in zip(cls._fields, value)])
        _check_digits(cfg)
        if cfg.initial_base_fee_wei < 1 or cfg.priority_tip_wei < 1:
            raise ValueError("fees must be at least 1 wei")
        for name in ("target_gas", "decay_denominator", "block_interval", "eth_usd_rate"):
            if getattr(cfg, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if cfg.genesis_time < 0:
            raise ValueError("genesis_time must not be negative")
        return cfg

    @property
    def initial_base_fee_wei(self) -> int:
        return int(self.initial_base_fee_gwei * WEI_PER_GWEI)

    @property
    def priority_tip_wei(self) -> int:
        return int(self.priority_tip_gwei * WEI_PER_GWEI)

    def next_base_fee_wei(self, base_fee_wei: int, gas_used: int) -> int:
        """Base fee (wei) of the following block given this block's gas.

        base' = base * (1 + (gas_used - target) / (denominator * target)),
        floored to whole wei; under-target blocks decay the base fee
        toward zero.
        """
        t = self.target_gas
        return base_fee_wei * ((self.decay_denominator - 1) * t + gas_used) // (
            self.decay_denominator * t
        )


class SlideRecord(NamedTuple):
    """One registration as the ledger file holds it, log entry and stored entry alike; timestamp > 0."""

    lecture_id: int
    slide_id: int
    slide_hash: str
    uri: str
    registrant: str  # account_hex of a 20-byte account
    timestamp: int
    file_digest: str  # file_digest(slide_hash, the file's bytes), or "" for a registration made without a file


class RegistrationReceipt(NamedTuple):
    """One registration's block and fee; it cost ``gas_used * price_wei`` wei."""

    lecture_id: int
    slide_id: int
    gas_used: int
    price_wei: int  # base fee plus tip, per gas
    block_number: int
    timestamp: int


class BatchSummary(NamedTuple):
    attempted: int
    registered: int
    failures: list[tuple[SlideKey, str]]
    min_gas: int
    max_gas: int
    total_gas: int
    total_cost_wei: int
    elapsed_seconds: int
    throughput: Fraction  # registrations per modeled second


def file_digest(slide_hash: str, data: bytes) -> str:
    """``"sha256:"`` and the SHA-256 hex digest of ``slide_hash``'s UTF-8 text (ASCII for a commitment), then ``data``.

    Binding the commitment in means that an edit of either the file or the
    registered commitment alone gives another digest.
    """
    digest = hashlib.sha256(slide_hash.encode("utf-8"))
    digest.update(data)
    return "sha256:" + digest.hexdigest()


def canonical_uri(key: SlideKey) -> str:
    """Canonical off-chain URI recorded alongside a commitment: the slide's file in the corpus layout."""
    return records.slide_file(key)


class Ledger:
    """Append-only slide registry held as one ordered registration log.

    ``records`` maps each ``SlideKey`` to its registration in block order
    and is the only state: ``events`` is its values; the next block number
    follows from its length, and its timestamp from the sealing rule every
    entry keeps (block n is stamped genesis + n * interval); the base fee
    is folded forward over each entry's gas as it is appended.  Ledgers
    are equal when ``export_bytes``, the one serializer, gives equal bytes.
    Reads never mutate; registrations must be serialized by the caller
    (the CLI and batch helpers do).
    """

    def __init__(self, fee_config: FeeConfig | None = None, gas_config: GasConfig | None = None) -> None:
        self.fee_config = fee_config or FeeConfig()
        self.gas_config = gas_config or GasConfig()
        self.records: dict[SlideKey, SlideRecord] = {}
        self.base_fee_wei = self.fee_config.initial_base_fee_wei
        self._tip_wei = self.fee_config.priority_tip_wei

    @property
    def events(self) -> list[SlideRecord]:
        """Every registration in block order."""
        return list(self.records.values())

    @property
    def next_block_number(self) -> int:
        return len(self.records) + 1

    @property
    def next_timestamp(self) -> int:
        return self.fee_config.genesis_time + self.next_block_number * self.fee_config.block_interval

    # -- reads ---------------------------------------------------------

    def get_slide(self, key: SlideKey) -> SlideRecord | None:
        return self.records.get(key)

    def is_registered(self, key: SlideKey) -> bool:
        return key in self.records

    # -- writes ----------------------------------------------------------

    def _append(self, record: SlideRecord) -> int:
        """Check ``record`` as the next block, append it, return its gas.

        The only mutation: live registrations and file replays both pass
        through here, so both reject the same entries, and a rejected
        entry leaves the state untouched.
        """
        key = SlideKey(record.lecture_id, record.slide_id)
        if key.lecture_id < 1:
            raise InvalidLecture("lectureId must be > 0")
        if key.slide_id < 1:
            raise InvalidSlide("slideId must be > 0")
        # the contract's ids are uint256
        if key.lecture_id >= 2**256:
            raise InvalidLecture("lectureId must be < 2**256")
        if key.slide_id >= 2**256:
            raise InvalidSlide("slideId must be < 2**256")
        if key in self.records:
            raise AlreadyRegistered(f"slide already registered: {key}")
        # FeeConfig keeps this > 0, since 0 reads as unregistered
        if record.timestamp != self.next_timestamp:
            raise ValueError(f"block {self.next_block_number} has out-of-rule timestamp {record.timestamp}")
        gas_used = estimate_gas(record.slide_hash, record.uri, self.gas_config)
        self.records[key] = record
        self.base_fee_wei = self.fee_config.next_base_fee_wei(self.base_fee_wei, gas_used)
        return gas_used

    def register_slide(self, key: SlideKey, slide_hash: str, uri: str, file_digest: str = "") -> RegistrationReceipt:
        """Register one slide from the first dev account, seal one block, return the receipt.

        ``file_digest`` is the slide's file's, by ``ledger.file_digest``; the
        empty default matches no file, so ``verify`` recomputes such a slide.
        Raises InvalidLecture/InvalidSlide for ids outside [1, 2**256)
        and AlreadyRegistered when the key exists; failed calls leave the
        state untouched.
        """
        timestamp = self.next_timestamp
        price_wei = self.base_fee_wei + self._tip_wei
        gas_used = self._append(
            SlideRecord(*key, slide_hash, uri, account_hex(_dev_account_set()[0]), timestamp, file_digest))
        return RegistrationReceipt(key.lecture_id, key.slide_id, gas_used, price_wei, len(self.records), timestamp)

    def batch_register(
        self, items: list[tuple[SlideKey, str, str]] | list[tuple[SlideKey, str, str, str]]
    ) -> tuple[list[RegistrationReceipt], BatchSummary]:
        """Register (key, slide_hash, uri[, file_digest]) items sequentially in input order."""
        receipts: list[RegistrationReceipt] = []
        failures: list[tuple[SlideKey, str]] = []
        for key, *registration in items:
            try:
                receipts.append(self.register_slide(key, *registration))
            except (InvalidLecture, InvalidSlide, AlreadyRegistered) as exc:
                failures.append((key, str(exc)))

        gases = [r.gas_used for r in receipts]
        interval = self.fee_config.block_interval
        elapsed = max(len(receipts) - 1, 0) * interval
        return receipts, BatchSummary(
            len(items), len(receipts), failures, min(gases, default=0), max(gases, default=0), sum(gases),
            sum(r.gas_used * r.price_wei for r in receipts),
            elapsed, Fraction(len(receipts), max(elapsed, interval)))

    # -- persistence -----------------------------------------------------

    def _body(self) -> dict:
        return {
            "format": LEDGER_FORMAT,
            # rationals are written as text
            "fee_config": {name: str(v) if isinstance(v, Fraction) else v
                           for name, v in self.fee_config._asdict().items()},
            "gas_config": self.gas_config._asdict(),
            "events": [_entry_document(e) for e in self.records.values()],
        }

    def export_bytes(self) -> bytes:
        """Canonical UTF-8 JSON export; identical states give identical bytes.

        It holds ``format``, both configs, the log, and the ``checksum`` of
        those four.  The checksum makes a lone edit of any value show;
        whoever edits the file can recompute it, so it does not catch a
        consistent rewrite.  The body is serialized once, for its checksum
        and for the file: ``"checksum"`` sorts before every other key, so it
        leads the object.
        """
        body = _canonical(self._body())
        return b'{"checksum":"' + _digest(body).encode("ascii") + b'",' + body[1:] + b"\n"

    @classmethod
    def from_document(cls, doc: object) -> "Ledger":
        """Rebuild a ledger by replaying the document's ``events``.

        Each section, event, config value and event field must be of its JSON kind in ``records.FIELDS``,
        read as it is; each event passes the checks of a live registration, the rebuilt ledger must export
        the values of ``doc``, and the checksum in ``doc`` must be theirs.  Anything else raises
        CorruptLedgerFile.
        """
        found = doc.get("format") if isinstance(doc, dict) else None
        if found != LEDGER_FORMAT:
            named = f" {found!r} (this version reads {LEDGER_FORMAT!r})" if isinstance(found, str) else ""
            raise CorruptLedgerFile(f"unrecognized ledger format{named}")
        try:
            sections = records.read_fields(doc, "ledger")
            fee = FeeConfig(**records.read_fields(sections["fee_config"], "fee_config", "fee_config"))
            gas = GasConfig(**records.read_fields(sections["gas_config"], "gas_config", "gas_config"))
            ledger = cls(fee, gas)
            for index, entry in enumerate(sections["events"]):
                values = _event_values(entry) if type(entry) is dict else None
                # dict equality takes 1.0 and true for 1, so a kind is checked here, not by the export
                if values is None or not all([test(value) for test, value in zip(_EVENT_TESTS, values)]):
                    records.read_fields(entry, "event", f"event {index}")  # raises, naming the event or field
                ledger._append(SlideRecord._make(values))
        except (LedgerError, KeyError, TypeError, ValueError, ArithmeticError) as exc:
            raise CorruptLedgerFile(f"ledger document rejected: {exc}") from exc
        # the checksum of the file's own values
        body = {name: value for name, value in doc.items() if name != "checksum"}
        if ledger._body() != body or checksum(body) != doc.get("checksum"):
            raise CorruptLedgerFile("ledger file does not match its checksum")
        return ledger

    def save(self, path: Path | str) -> None:
        from .reports import _atomic_write

        _atomic_write(Path(path), self.export_bytes())

    @classmethod
    def load(cls, path: Path | str) -> "Ledger":
        """The ledger in the file at ``path``; CorruptLedgerFile when it is missing or rejected."""
        path = Path(path)
        if not path.exists():
            raise CorruptLedgerFile(f"ledger file not found: {path}")
        try:
            _, doc = records.read_json(path)  # looked up at each call, as the corpus reader does
        except (OSError, ValueError) as exc:
            raise CorruptLedgerFile(f"cannot read ledger file {path}: {exc}") from exc
        try:
            return cls.from_document(doc)
        except CorruptLedgerFile as exc:
            raise CorruptLedgerFile(f"{path}: {exc}") from exc

    def __eq__(self, other: object) -> bool:
        return self.export_bytes() == other.export_bytes() if isinstance(other, Ledger) else NotImplemented


def _canonical(doc: dict) -> bytes:
    return records._dumps(doc).encode("utf-8")


def checksum(doc: dict) -> str:
    """``"sha256:"`` and the SHA-256 hex digest of the canonical bytes of ``doc`` less its ``checksum``."""
    return _digest(_canonical({name: value for name, value in doc.items() if name != "checksum"}))


def _digest(body: bytes) -> str:
    return "sha256:" + hashlib.sha256(body).hexdigest()


# each event field's key in the file and its JSON kind, in SlideRecord's order
_EVENT = records.FIELDS["event"]
_EVENT_TESTS = [test for _, test in _EVENT.values()]
_event_values = itemgetter(*_EVENT)


def _entry_document(r: SlideRecord) -> dict:
    return dict(zip(_EVENT, r))
