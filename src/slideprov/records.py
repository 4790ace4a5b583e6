"""Slide-level provenance records: schema, normalization, canonical bytes.

A record aggregates the semantic output of several extraction models for
one slide.  Normalization makes heterogeneous model output comparable
(lowercase, collapsed whitespace, deduplicated); canonical serialization
makes logically equal records byte-identical so they hash identically on
every platform.

One core, ``_tables``, reads a parsed document: it applies every rule
and check and gives the record, whose extractions map each element's
identity to its evidence or confidence; those maps' keys are the
identity sets ``analyze`` and ``compare-runs`` read.  One encoder,
``canonical_bytes``, writes a record.  ``normalize_record`` is the core
and a UTF-8 check; ``normalized_bytes``, for ``register`` and
``verify``, is the core and the encoder, whose output is that check.
"""

from __future__ import annotations

import gc
import json
import math
import os
import re
import sys
import threading
import warnings
from itertools import chain, starmap
from json.encoder import encode_basestring as _quote
from pathlib import Path
from typing import BinaryIO, Callable, Container, Iterable, Iterator, KeysView, NamedTuple, Sequence, TypeVar

from .errors import EmptyCorpus, MalformedDocument, MissingKey, ProvenanceWarning

# Descriptor recorded in metadata.hash_input_format when the source
# document does not carry one.
CANONICAL_FORMAT = "canonical-json/v1;sorted-keys;utf-8"

_LECTURE_DIR = re.compile(r"^Lecture\s*(\d+)$")
_SLIDE_FILE = re.compile(r"^Slide(\d+)\.json$")
_TRAILING_INT = re.compile(r"(\d+)\s*$")

_T = TypeVar("_T")


def normalize_text(value: object) -> str:
    """Lowercase, collapse interior whitespace runs, strip the ends.

    Returns "" for anything that is not a string; callers drop empties.
    """
    if not isinstance(value, str):
        return ""
    # str.split() splits on exactly the characters regex \s matches
    return " ".join(value.split()).lower()


class SlideKey(NamedTuple):
    """(lecture_id, slide_id) identity of one slide within a corpus, equal to that plain tuple.

    Both ids must be in [1, 2**256) for a registrable record; the
    registry enforces this so that rejection of such ids stays observable.
    """

    lecture_id: int
    slide_id: int

    def is_valid(self) -> bool:
        return self.lecture_id >= 1 and self.slide_id >= 1


class Checked(tuple):
    """Base of a value type listed before the NamedTuple of its fields: ``class C(Checked, _Fields)``.

    The constructor, ``_make`` and ``_replace`` (and unpickling) all return
    ``cls._check(value)``, which raises ValueError for bad fields and
    returns the value, coerced where it converts them.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        return cls._check(super().__new__(cls, *args, **kwargs))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class ModelExtraction(NamedTuple):
    """One model's normalized output for one slide.

    ``concepts`` maps each (category, term) identity to its evidence and
    ``triples`` each (s, p, o) identity to its confidence, in any order:
    ``normalize_record`` keeps the document's, the first entry with an
    identity winning.  evidence keeps source order and exact text.
    """

    concepts: dict[tuple[str, str], str | None]
    triples: dict[tuple[str, str, str], float | None]
    evidence: tuple[str, ...] = ()
    raw_output: str | None = None


class RecordPaths(NamedTuple):
    image: str = ""
    text: str = ""
    json: str = ""


class RecordMetadata(NamedTuple):
    timestamp: str = ""
    source: str = ""
    hash_input_format: str = CANONICAL_FORMAT


class ProvenanceRecord(NamedTuple):
    """Canonical multi-model provenance record for one slide: each model's extraction by name."""

    key: SlideKey
    lecture_label: str
    models: dict[str, ModelExtraction]
    paths: RecordPaths = RecordPaths()
    metadata: RecordMetadata = RecordMetadata()

    def identity_sets(self) -> dict[str, tuple[KeysView, KeysView]]:
        """Each model's concept and triple identity sets by name: the keys of its two maps."""
        return {name: (m.concepts.keys(), m.triples.keys()) for name, m in self.models.items()}


Corpus = dict[SlideKey, ProvenanceRecord]


def _dumps(doc: object) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def _number(value: object) -> str:
    """``_dumps(value)``, with the common case (a finite float) done directly."""
    if type(value) is float and math.isfinite(value):
        return float.__repr__(value)
    return _dumps(value)


# An element's canonical text is ``_dumps`` of its document, written with
# the keys in sorted order.

def _concept_text(identity: tuple[str, str], evidence: str | None) -> str:
    category, term = identity
    evidence = "" if evidence is None else f',"evidence":{_quote(evidence)}'
    return f'{{"category":{_quote(category)}{evidence},"term":{_quote(term)}}}'


def _triple_text(identity: tuple[str, str, str], confidence: float | None) -> str:
    s, p, o = identity
    confidence = "" if confidence is None else f'"confidence":{_number(confidence)},'
    return f'{{{confidence}"o":{_quote(o)},"p":{_quote(p)},"s":{_quote(s)}}}'


def _model_text(m: ModelExtraction) -> str:
    raw = "" if m.raw_output is None else f',"raw_output":{_quote(m.raw_output)}'
    return (f'{{"concepts":[{",".join(sorted(starmap(_concept_text, m.concepts.items())))}],'
            f'"evidence":[{",".join(map(_quote, m.evidence))}]{raw},'
            f'"triples":[{",".join(sorted(starmap(_triple_text, m.triples.items())))}]}}')


def canonical_bytes(record: ProvenanceRecord) -> bytes:
    """Deterministic UTF-8 encoding of a record: ``_dumps`` of its plain-JSON document.

    Concepts and triples are sorted by their own encoding; object keys by
    code point (equivalently UTF-8 byte order).  There is no
    insignificant whitespace, and floats use the shortest decimal form
    that round-trips.  Pure function of record content.  The text is
    written directly, keys in sorted order, without building the document.
    Raises UnicodeEncodeError for text with no UTF-8 form, which
    ``normalize_record`` rules out.
    """
    models = ",".join(f"{_quote(name)}:{_model_text(record.models[name])}" for name in sorted(record.models))
    paths, meta = record.paths, record.metadata
    return (
        f'{{"lecture":{_quote(record.lecture_label)},"lecture_id":{record.key.lecture_id},'
        f'"metadata":{{"hash_input_format":{_quote(meta.hash_input_format)},'
        f'"source":{_quote(meta.source)},"timestamp":{_quote(meta.timestamp)}}},'
        f'"models":{{{models}}},'
        f'"paths":{{"image":{_quote(paths.image)},"json":{_quote(paths.json)},'
        f'"text":{_quote(paths.text)}}},"slide_id":{record.key.slide_id}}}'
    ).encode("utf-8")


def _layout_base(root: Path | str) -> Path:
    """``root/by_slide`` when that directory exists, else ``root`` itself."""
    root = Path(root)
    return root / "by_slide" if (root / "by_slide").is_dir() else root


def slide_file(key: SlideKey) -> str:
    """A slide's file below the layout's base: ``Lecture <n>/Slide<m>.json``, also its registered URI."""
    return f"Lecture {key.lecture_id}/Slide{key.slide_id}.json"


def record_path(root: Path | str, key: SlideKey) -> Path:
    """On-disk location of a slide record under the corpus layout."""
    return _layout_base(root) / slide_file(key)


def scan_slide_files(root: Path | str) -> list[tuple[SlideKey, Path]]:
    """Every ``Lecture <n>/Slide<m>.json`` file under the corpus layout, by key.

    Only names are read: no file is opened or parsed.  Of the files of one
    key (``Slide1.json`` and ``Slide01.json``), the one at its ``slide_file``
    is kept, or else the first by name; a ProvenanceWarning names each other.
    """
    base = _layout_base(root)
    found: list[tuple[SlideKey, bool, Path]] = []  # (key, not at its slide_file, file)
    if base.is_dir():
        for lecture_dir in base.iterdir():
            match = _LECTURE_DIR.match(lecture_dir.name)
            if not match or not lecture_dir.is_dir():
                continue
            for path in lecture_dir.iterdir():
                s_match = _SLIDE_FILE.match(path.name)
                if s_match:
                    key = SlideKey(int(match.group(1)), int(s_match.group(1)))
                    found.append((key, f"{lecture_dir.name}/{path.name}" != slide_file(key), path))
    kept: dict[SlideKey, Path] = {}
    for key, _, path in sorted(found):
        if kept.setdefault(key, path) is not path:
            warnings.warn(f"skipped {path}: the same slide as {kept[key]}", ProvenanceWarning, stacklevel=2)
    return list(kept.items())


# --------------------------------------------------------------------------
# normalization: one core, ``_tables``, read by ``normalize_record`` and ``normalized_bytes``


def _as_entry_list(value: object) -> list:
    """Harmonize list / single object / null into a list of candidates."""
    if isinstance(value, list):
        return value
    if isinstance(value, dict):
        return [value]
    return []  # null, or a malformed container, treated as empty


def _extraction(value: object) -> ModelExtraction:
    """One model's extraction.  ``normalize_text`` is inlined here: ``" ".join(text.split()).lower()``."""
    if not isinstance(value, dict):
        value = {}
    concepts: dict[tuple[str, str], str | None] = {}
    for entry in _as_entry_list(value.get("concepts")):
        if isinstance(entry, dict):
            category, term = entry.get("category"), entry.get("term")
            if isinstance(category, str) and isinstance(term, str):
                identity = (" ".join(category.split()).lower(), " ".join(term.split()).lower())
                if identity[0] and identity[1] and identity not in concepts:
                    evidence = entry.get("evidence")
                    concepts[identity] = evidence if isinstance(evidence, str) else None
    triples: dict[tuple[str, str, str], float | None] = {}
    for entry in _as_entry_list(value.get("triples")):
        if isinstance(entry, dict):
            s, p, o = entry.get("s"), entry.get("p"), entry.get("o")
            if isinstance(s, str) and isinstance(p, str) and isinstance(o, str):
                identity = (" ".join(s.split()).lower(), " ".join(p.split()).lower(), " ".join(o.split()).lower())
                if identity[0] and identity[1] and identity[2] and identity not in triples:
                    c = entry.get("confidence")  # a number in [0, 1], not a bool
                    triples[identity] = (float(c) if isinstance(c, (int, float)) and not isinstance(c, bool)
                                         and 0.0 <= c <= 1.0 else None)
    evidence, raw_output = value.get("evidence"), value.get("raw_output")
    evidence = ((evidence,) if isinstance(evidence, str) else
                tuple(item for item in evidence if isinstance(item, str)) if isinstance(evidence, list) else ())
    return ModelExtraction(concepts, triples, evidence, raw_output if isinstance(raw_output, str) else None)


def _int_or_none(value: object) -> int | None:
    if isinstance(value, bool):
        return None
    if isinstance(value, int):
        return value
    if isinstance(value, str) and value.strip().isdigit():
        try:
            return int(value)
        except ValueError:  # digits int() does not read ("²"), or past its digit limit
            return None
    return None


def _document_key(raw: dict) -> SlideKey | None:
    lecture_id = _int_or_none(raw.get("lecture_id"))
    if lecture_id is None and isinstance(raw.get("lecture"), str):
        match = _TRAILING_INT.search(raw["lecture"])
        if match:
            lecture_id = _int_or_none(match.group(1))
    slide_id = _int_or_none(raw.get("slide_id"))
    if lecture_id is None or slide_id is None:
        return None
    return SlideKey(lecture_id, slide_id)


def _tables(raw: object, key: SlideKey | None) -> ProvenanceRecord:
    """The core: a parsed document's record, checked but for UTF-8.

    Only it and ``_extraction`` read a document.  Both readers call it
    themselves, so that an id-conflict warning names the reader's caller.
    """
    if not isinstance(raw, dict):
        raise MalformedDocument(f"expected a JSON object, got {type(raw).__name__}")

    doc_key = _document_key(raw)
    if key is None:
        key = doc_key
    elif doc_key is not None and doc_key != key:
        warnings.warn(f"document ids {doc_key} conflict with file-derived key {key}; file wins",
                      ProvenanceWarning, stacklevel=3)
    if key is None:
        raise MissingKey("cannot establish (lecture_id, slide_id) identity")
    if not key.is_valid():
        raise MissingKey(f"invalid slide identity {key}")

    models_raw = raw.get("models")
    if not isinstance(models_raw, dict) or not models_raw:
        raise MalformedDocument("record has no model extractions")
    models = {name: _extraction(value) for name, value in models_raw.items()}

    lecture_label = raw.get("lecture")
    if not isinstance(lecture_label, str) or not lecture_label:
        lecture_label = f"Lecture {key.lecture_id}"

    paths = raw.get("paths") if isinstance(raw.get("paths"), dict) else {}
    meta = raw.get("metadata") if isinstance(raw.get("metadata"), dict) else {}

    def text(container: dict, name: str, default: str = "") -> str:
        value = container.get(name)
        return value if isinstance(value, str) else default

    return ProvenanceRecord(key, lecture_label, models,
                            RecordPaths(text(paths, "image"), text(paths, "text"), text(paths, "json")),
                            RecordMetadata(text(meta, "timestamp"), text(meta, "source"),
                                           text(meta, "hash_input_format", CANONICAL_FORMAT)))


def normalize_record(raw: object, key: SlideKey | None = None) -> ProvenanceRecord:
    """Normalize a parsed document into a ProvenanceRecord.

    ``key`` is the file-derived identity when loading from the corpus
    layout; it wins over conflicting ids embedded in the document (a
    ProvenanceWarning is emitted on conflict).  Without ``key`` the
    identity must be recoverable from the document itself.

    Raises MalformedDocument when the input is not a record-shaped object
    or some of its text has no UTF-8 form, and MissingKey when no slide
    identity can be established.
    """
    record = _tables(raw, key)
    # JSON escapes can spell lone surrogates ("\ud800"), which Python strings
    # hold but UTF-8 cannot encode; such a record has no canonical bytes
    texts = [record.lecture_label, *record.paths, *record.metadata]
    for name, m in record.models.items():
        texts += (name, m.raw_output or "", *m.evidence)
        texts += chain.from_iterable(m.concepts)
        texts += filter(None, m.concepts.values())
        texts += chain.from_iterable(m.triples)
    try:
        "".join(texts).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise _not_utf8(exc) from None
    return record


def normalized_bytes(raw: object, key: SlideKey) -> bytes:
    """``canonical_bytes(normalize_record(raw, key))``, with no second pass over the record's text.

    Raises as ``normalize_record`` does: encoding the bytes is the UTF-8
    check, as every text of the record is part of them.
    """
    record = _tables(raw, key)
    try:
        return canonical_bytes(record)
    except UnicodeEncodeError as exc:
        raise _not_utf8(exc) from None


def _not_utf8(exc: UnicodeEncodeError) -> MalformedDocument:
    return MalformedDocument(f"text cannot be encoded as UTF-8: {exc.reason}")


# --------------------------------------------------------------------------
# corpus loading


KNOWN = object()  # the document ``read_json`` gives for bytes equal to its ``known``


def read_json(path: Path | str, known: bytes | None = None) -> tuple[bytes, object]:
    """The bytes of the file at ``path`` and the JSON document they hold.

    Every input file, corpus file and ledger alike, is opened here.  Bytes
    equal to ``known`` are not parsed: their document is ``KNOWN``.  Every
    way the bytes can fail to be JSON raises ValueError: bytes that are
    not UTF-8, bad syntax, nesting past the recursion limit, or an integer
    past the interpreter's digit limit.  OSError passes through.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data == known:
        return data, KNOWN
    text = data.decode("utf-8")
    if "\r" in text:  # line ends as a text-mode read gives them, so error positions stay put
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        return data, json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


_RATIONAL_TEXT = re.compile(r"-?[0-9]+(/[0-9]+)?")  # no exponent, so Fraction reads it at once
_ACCOUNT_TEXT = re.compile(r"0x[0-9a-f]{40}")


def _rational_text(value: object) -> bool:
    from fractions import Fraction  # only the ledger has rationals, and it imports fractions itself

    try:  # "1/0", or digits past int's limit, raise
        return type(value) is str and _RATIONAL_TEXT.fullmatch(value) is not None and str(Fraction(value)) == value
    except (ValueError, ZeroDivisionError):
        return False


# Each JSON kind that a field of an input file can have: its name in messages, and its test.
INTEGER = ("a JSON integer", lambda value: type(value) is int)  # a bool is an int, too
# NaN, infinities and ints past the float range are not finite
NUMBER = ("a finite number", lambda value: type(value) in (int, float) and abs(value) <= sys.float_info.max)
STRING = ("a JSON string", lambda value: type(value) is str)
RATIONAL = ("rational text in lowest terms", _rational_text)  # as str(Fraction) writes it: "77/100", "3000"
ACCOUNT = ("an account identifier", lambda value: type(value) is str and _ACCOUNT_TEXT.fullmatch(value) is not None)
OBJECT = ("a JSON object", lambda value: type(value) is dict)
LIST = ("a JSON list", lambda value: type(value) is list)

# The JSON kind of each field of every input file but a corpus file, less a profile's gas_price_gwei
# (any number ledger.parse_number reads).  An event's fields are a ledger.SlideRecord's, in order.
FIELDS = {
    "ledger": {"fee_config": OBJECT, "gas_config": OBJECT, "events": LIST},  # a ledger document's sections
    "time manifest": {"lecture_id": INTEGER, "slide_id": INTEGER, "t_local": NUMBER},
    "profile config": {"name": STRING},
    "fee_config": {"initial_base_fee_gwei": RATIONAL, "priority_tip_gwei": RATIONAL, "target_gas": INTEGER,
                   "decay_denominator": INTEGER, "eth_usd_rate": RATIONAL, "block_interval": INTEGER,
                   "genesis_time": INTEGER},
    "gas_config": dict.fromkeys(["intrinsic", "nonzero_byte", "zero_byte", "exec_base"], INTEGER),
    "event": {"lectureId": INTEGER, "slideId": INTEGER, "slideHash": STRING, "uri": STRING,
              "registrant": ACCOUNT, "timestamp": INTEGER},
}


def read_fields(entry: dict, what: str, where: str | None = None) -> dict:
    """``entry``'s value of each field of ``FIELDS[what]`` by name, in order; KeyError for a missing field.

    An ``entry`` that is not an object raises ValueError ``<where or what> is not a JSON object: <entry!r>``;
    the first value not of its field's kind ``[<where>: ]<field> is not <kind>: <value!r>``.
    """
    if type(entry) is not dict:
        raise ValueError(f"{where or what} is not {OBJECT[0]}: {entry!r}")
    values = {name: entry[name] for name in FIELDS[what]}
    for (name, value), (kind, test) in zip(values.items(), FIELDS[what].values()):
        if not test(value):
            raise ValueError(f"{'' if where is None else where + ': '}{name} is not {kind}: {value!r}")
    return values


class LoadFailure(NamedTuple):
    path: str
    key: SlideKey | None
    error: str


class CorpusReader:
    """Passes over a corpus's slide files in key order, leaving out the keys in ``skip``.

    The one way a command reads its corpus.  A file whose key is in
    ``skip`` is counted in ``skipped`` and never opened; ``paths`` holds
    the others by key.  Every pass counts the files that loaded in
    ``loaded`` and collects per-file parse and normalization failures in
    ``failures`` instead of aborting.
    """

    def __init__(self, root: Path | str, skip: Container[SlideKey] = frozenset()) -> None:
        self.root = root
        files = scan_slide_files(root)
        self.paths = {key: path for key, path in files if key not in skip}
        self.skipped = len(files) - len(self.paths)
        self.failures: list[LoadFailure] = []
        self.loaded = 0

    def read(self, load: Callable[[object, SlideKey], _T],
             keys: Iterable[SlideKey] | None = None) -> Iterator[tuple[SlideKey, _T]]:
        """``(key, load(document, key))`` for each file, or each of ``keys`` (keys of ``paths``) in their order.

        A pass over every file ends with ``require_loaded()``: EmptyCorpus when
        nothing loaded and nothing was skipped, as for a layout without files.
        """
        for key in self.paths if keys is None else keys:
            if item := self._load(key, load):
                yield key, item[1]
        if keys is None:
            self.require_loaded()

    def _load(self, key: SlideKey, load: Callable[[object, SlideKey], _T],
              known: tuple[bytes, _T] | None = None) -> tuple[bytes, _T] | None:
        """``key``'s file's bytes and ``load(document, key)``, or None with the failure recorded.

        Bytes equal to ``known``'s are neither parsed nor loaded: their value is ``known``'s.
        """
        path = self.paths[key]
        try:
            data, raw = read_json(path, None if known is None else known[0])
        except (OSError, ValueError) as exc:
            self.failures.append(LoadFailure(str(path), key, f"unparseable: {exc}"))
            return None
        try:
            value = known[1] if raw is KNOWN else load(raw, key)
        except (MalformedDocument, MissingKey) as exc:
            self.failures.append(LoadFailure(str(path), key, str(exc)))
            return None
        self.loaded += 1
        return data, value

    def require_loaded(self) -> None:
        """Raise EmptyCorpus when the reader's passes loaded no file and it skipped none."""
        if not self.loaded and not self.skipped:
            detail = f" ({len(self.failures)} files failed to parse)" if self.failures else ""
            raise EmptyCorpus(f"no provenance records loaded from {self.root}{detail}")


def read_runs(run_a: CorpusReader, run_b: CorpusReader, load: Callable[[object, SlideKey], _T],
              keys: Iterable[SlideKey] | None = None) -> Iterator[tuple[SlideKey, _T | None, _T | None]]:
    """``(key, a, b)`` for each key of either run in key order, or each of ``keys`` in theirs, that loads in either.

    ``a`` and ``b`` are each run's ``load(document, key)``, or None where it lacks the file or the
    file fails to load.  Run B's file with the bytes of run A's is neither parsed nor loaded: ``b is a``.
    """
    for key in sorted(run_a.paths.keys() | run_b.paths.keys()) if keys is None else keys:
        a = run_a._load(key, load) if key in run_a.paths else None
        b = run_b._load(key, load, a) if key in run_b.paths else None
        if a or b:
            yield key, a and a[1], b and b[1]


# The fewest files a process of a split pass reads.  On 2 vCPU, paper-scale
# files took 35 ms to hash split in two against 41 ms in one process at 64
# files, and about 26 ms either way at 32 (medians of 15).
MIN_FILES_PER_WORKER = 32


def split_pass(readers: Sequence[CorpusReader], work: Callable[[list[SlideKey]], list[_T]]) -> list[_T]:
    """``work(keys)`` over W contiguous ranges of the readers' keys in key order, its lists joined in order.

    The keys are the sorted union of the readers' ``paths``.  W =
    min(usable CPUs, len(keys) // MIN_FILES_PER_WORKER), or 1 without
    fork or with another thread alive.  This process works on the first
    range and a forked child on each other; a child's list, the readers'
    new load counts and failures, and its warnings are added here in key
    order, as one process's pass has them.  A child's exception is raised
    here, and no child outlives the call.  Then each reader's
    ``require_loaded()`` runs, in order: EmptyCorpus names the first
    reader that loaded no file and skipped none.
    """
    keys = sorted(set().union(*[reader.paths for reader in readers]))
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    serial = not hasattr(os, "fork") or threading.active_count() > 1
    n = 1 if serial else max(1, min(cpus, len(keys) // MIN_FILES_PER_WORKER))
    if n > 1:  # only a split pass uses them, and they take ~3 ms to import
        import pickle
        import signal
    ranges = [keys[len(keys) * i // n:len(keys) * (i + 1) // n] for i in range(n)]
    children: list[tuple[int, BinaryIO]] = []
    collecting = gc.isenabled()
    try:
        for part in ranges[1:]:
            children.append(_fork(readers, work, part))
        result = work(ranges[0])
        gc.disable()  # unpickling makes no garbage, and collecting as it goes doubled its time
        for pid, pipe in children:
            try:
                sent = pickle.load(pipe)
            except EOFError:  # it died before sending, as when the kernel kills it for memory
                raise ChildProcessError(f"process {pid} of a split pass ended without a result") from None
            if isinstance(sent, BaseException):
                raise sent
            result += sent[0]
            for reader, (loaded, failures) in zip(readers, sent[1]):
                reader.loaded += loaded
                reader.failures += failures
            for caught in sent[2]:
                warnings.warn_explicit(*caught, __name__, globals().setdefault("__warningregistry__", {}))
    finally:
        if collecting:
            gc.enable()
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    for reader in readers:
        reader.require_loaded()
    return result


def _fork(readers: Sequence[CorpusReader], work: Callable[[list[SlideKey]], list],
          keys: list[SlideKey]) -> tuple[int, BinaryIO]:
    """Fork a child that sends ``work(keys)``'s list, the readers' new loads and failures, its warnings, or its error."""
    import pickle  # not at the top, as in split_pass

    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write_end)
        return pid, os.fdopen(read_end, "rb")
    try:  # leaving through os._exit, the child flushes no inherited buffer and runs no caller's finally
        starts = [(reader.loaded, len(reader.failures)) for reader in readers]
        try:
            with warnings.catch_warnings(record=True) as caught:
                result = work(keys)
            sent = (result, [(reader.loaded - loaded, reader.failures[failed:])
                             for reader, (loaded, failed) in zip(readers, starts)],
                    [(w.message, w.category, w.filename, w.lineno) for w in caught])
        except BaseException as exc:
            sent = exc
        data = pickle.dumps(sent, pickle.HIGHEST_PROTOCOL)  # while the caller is at its range
        with os.fdopen(write_end, "wb") as pipe:
            pipe.write(data)
    finally:
        os._exit(0)


def load_corpus(root: Path | str) -> Corpus:
    """Every record under ``root`` that loads, by key: a library convenience over ``CorpusReader``."""
    return dict(CorpusReader(root).read(normalize_record))


def load_json_entries(path: Path | str, what: str, parse: Callable[[dict], object], key: Callable) -> list:
    """Parse each object of a non-empty JSON list file with ``parse``; no two may have one ``key``.

    A malformed file or entry, or a repeated key, raises ValueError naming
    the file and the entry's index, so a bad config file is a usage error.
    """
    try:
        _, entries = read_json(path)
    except ValueError as exc:
        raise ValueError(f"{path}: {what} is not valid JSON: {exc}") from None
    if not isinstance(entries, list) or not entries:
        raise ValueError(f"{path}: {what} must be a non-empty JSON list")
    parsed, first = [], {}
    for index, entry in enumerate(entries):
        try:
            if not isinstance(entry, dict):
                raise TypeError(f"expected an object, got {type(entry).__name__}")
            item = parse(entry)
            if (earlier := first.setdefault(key(item), index)) != index:
                raise ValueError(f"repeats entry {earlier}")
            parsed.append(item)
        except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
            detail = f"missing {exc}" if isinstance(exc, KeyError) else exc
            raise ValueError(f"{path}: {what} entry {index}: {detail}") from None
    return parsed


def write_record(record: ProvenanceRecord, root: Path | str) -> Path:
    """Write a record's canonical JSON to its corpus location."""
    path = record_path(root, record.key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(canonical_bytes(record))
    return path
