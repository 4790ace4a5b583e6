"""Slide-level provenance records: schema, normalization, canonical bytes.

A record aggregates the semantic output of several extraction models for
one slide.  Normalization makes heterogeneous model output comparable
(lowercase, collapsed whitespace, deduplicated); canonical serialization
makes logically equal records byte-identical so they hash identically on
every platform.

One core, ``_tables``, reads a parsed document: it applies every rule
and check and gives each model's identity tables (identity -> evidence
or confidence).  Three views derive from them: ``normalize_record``
(sorted records, for ``tamper`` and the library), ``normalized_bytes``
(canonical bytes, for ``register`` and ``verify``) and ``identity_tables``
(the tables themselves, whose keys are the identity sets that ``analyze``
and ``compare-runs`` read).
"""

from __future__ import annotations

import gc
import json
import math
import os
import re
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

_E = TypeVar("_E")
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


class Concept(NamedTuple):
    """Atomic (category, term) semantic unit; evidence rides along verbatim."""

    category: str
    term: str
    evidence: str | None = None

    @property
    def identity(self) -> tuple[str, str]:
        return (self.category, self.term)


class Triple(NamedTuple):
    """Relational assertion (s, p, o) with optional confidence in [0, 1]."""

    s: str
    p: str
    o: str
    confidence: float | None = None

    @property
    def identity(self) -> tuple[str, str, str]:
        return (self.s, self.p, self.o)


class ModelExtraction(NamedTuple):
    """One model's normalized output for one slide.

    concepts and triples are duplicate-free under their identity rules and
    stored in canonical-encoding order; evidence keeps source order and
    exact text.
    """

    model_name: str
    concepts: tuple[Concept, ...] = ()
    triples: tuple[Triple, ...] = ()
    evidence: tuple[str, ...] = ()
    raw_output: str | None = None

    def concept_identities(self) -> frozenset[tuple[str, str]]:
        return frozenset(c[:2] for c in self.concepts)

    def triple_identities(self) -> frozenset[tuple[str, str, str]]:
        return frozenset(t[:3] for t in self.triples)


class RecordPaths(NamedTuple):
    image: str = ""
    text: str = ""
    json: str = ""


class RecordMetadata(NamedTuple):
    timestamp: str = ""
    source: str = ""
    hash_input_format: str = CANONICAL_FORMAT


class ProvenanceRecord(NamedTuple):
    """Canonical multi-model provenance record for one slide."""

    key: SlideKey
    lecture_label: str
    models: dict[str, ModelExtraction]
    paths: RecordPaths = RecordPaths()
    metadata: RecordMetadata = RecordMetadata()


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


def _model_text(concept_texts: Iterable[str], triple_texts: Iterable[str],
                evidence: tuple[str, ...], raw_output: str | None) -> str:
    """A model's canonical text, from the texts of its concepts and of its triples in any order."""
    raw = "" if raw_output is None else f',"raw_output":{_quote(raw_output)}'
    return (f'{{"concepts":[{",".join(sorted(concept_texts))}],'
            f'"evidence":[{",".join(map(_quote, evidence))}]{raw},'
            f'"triples":[{",".join(sorted(triple_texts))}]}}')


def _record_bytes(record: ProvenanceRecord | DocumentTables, model_texts: dict[str, str]) -> bytes:
    """The record's canonical bytes, given each model's canonical text by name."""
    models = ",".join(f"{_quote(name)}:{model_texts[name]}" for name in sorted(model_texts))
    paths, meta = record.paths, record.metadata
    return (
        f'{{"lecture":{_quote(record.lecture_label)},"lecture_id":{record.key.lecture_id},'
        f'"metadata":{{"hash_input_format":{_quote(meta.hash_input_format)},'
        f'"source":{_quote(meta.source)},"timestamp":{_quote(meta.timestamp)}}},'
        f'"models":{{{models}}},'
        f'"paths":{{"image":{_quote(paths.image)},"json":{_quote(paths.json)},'
        f'"text":{_quote(paths.text)}}},"slide_id":{record.key.slide_id}}}'
    ).encode("utf-8")


def canonical_bytes(record: ProvenanceRecord) -> bytes:
    """Deterministic UTF-8 encoding of a record: ``_dumps`` of its plain-JSON document.

    Concepts and triples are sorted by their own encoding; object keys by
    code point (equivalently UTF-8 byte order).  There is no
    insignificant whitespace, and floats use the shortest decimal form
    that round-trips.  Pure function of record content.  The text is
    written directly, keys in sorted order, without building the document.
    """
    return _record_bytes(record, {
        name: _model_text([_concept_text(c[:2], c.evidence) for c in ext.concepts],
                          [_triple_text(t[:3], t.confidence) for t in ext.triples], ext.evidence, ext.raw_output)
        for name, ext in record.models.items()})


def table_bytes(tables: DocumentTables) -> bytes:
    """The canonical bytes of the record the tables hold, rendered from their items.

    Raises UnicodeEncodeError for text with no UTF-8 form, which
    ``identity_tables`` has already ruled out.
    """
    return _record_bytes(tables, {
        name: _model_text(starmap(_concept_text, m.concepts.items()), starmap(_triple_text, m.triples.items()),
                          m.evidence, m.raw_output)
        for name, m in tables.models.items()})


def record_tables(record: ProvenanceRecord) -> DocumentTables:
    """The tables of a record as ``normalize_record`` gives it, whose elements have distinct identities."""
    return DocumentTables(record.key, record.lecture_label, {
        name: ModelTables({c[:2]: c.evidence for c in ext.concepts}, {t[:3]: t.confidence for t in ext.triples},
                          ext.evidence, ext.raw_output)
        for name, ext in record.models.items()}, record.paths, record.metadata)


def _layout_base(root: Path | str) -> Path:
    """``root/by_slide`` when that directory exists, else ``root`` itself."""
    root = Path(root)
    return root / "by_slide" if (root / "by_slide").is_dir() else root


def record_path(root: Path | str, key: SlideKey) -> Path:
    """On-disk location of a slide record under the corpus layout."""
    return _layout_base(root) / f"Lecture {key.lecture_id}" / f"Slide{key.slide_id}.json"


def scan_slide_files(root: Path | str) -> list[tuple[SlideKey, Path]]:
    """Every ``Lecture <n>/Slide<m>.json`` file under the corpus layout, by key.

    Only names are read: no file is opened or parsed.  Of the files of one
    key (``Slide1.json`` and ``Slide01.json``), the one at its ``record_path``
    is kept, or else the first by name; a ProvenanceWarning names each other.
    """
    base = _layout_base(root)
    found: list[tuple[SlideKey, bool, Path]] = []  # (key, not at its record_path, file)
    if base.is_dir():
        for lecture_dir in base.iterdir():
            match = _LECTURE_DIR.match(lecture_dir.name)
            if not match or not lecture_dir.is_dir():
                continue
            lecture_id = int(match.group(1))
            aliased = lecture_dir.name != f"Lecture {lecture_id}"
            for slide_file in lecture_dir.iterdir():
                s_match = _SLIDE_FILE.match(slide_file.name)
                if s_match:
                    slide_id = int(s_match.group(1))
                    found.append((SlideKey(lecture_id, slide_id),
                                  aliased or slide_file.name != f"Slide{slide_id}.json", slide_file))
    kept: dict[SlideKey, Path] = {}
    for key, _, slide_file in sorted(found):
        if kept.setdefault(key, slide_file) is not slide_file:
            warnings.warn(f"skipped {slide_file}: the same slide as {kept[key]}", ProvenanceWarning, stacklevel=2)
    return list(kept.items())


# --------------------------------------------------------------------------
# normalization: one core, ``_tables``, and three views of its tables


class ModelTables(NamedTuple):
    """One model's normalized output: identity tables and its text fields.

    ``concepts`` maps each (category, term) identity to its evidence and
    ``triples`` each (s, p, o) identity to its confidence, in the order of
    the document, the first entry with an identity winning.  evidence
    keeps source order and exact text.
    """

    concepts: dict[tuple[str, str], str | None]
    triples: dict[tuple[str, str, str], float | None]
    evidence: tuple[str, ...]
    raw_output: str | None


class DocumentTables(NamedTuple):
    """A normalized document: each model's ``ModelTables`` by name, and the header fields.

    The fields are named as a ``ProvenanceRecord``'s, so both encode
    through ``_record_bytes``.
    """

    key: SlideKey
    lecture_label: str
    models: dict[str, ModelTables]
    paths: RecordPaths
    metadata: RecordMetadata

    def identity_sets(self) -> dict[str, tuple[KeysView, KeysView]]:
        """Each model's concept and triple identity sets by name: its tables' keys."""
        return {name: (m.concepts.keys(), m.triples.keys()) for name, m in self.models.items()}


def _as_entry_list(value: object) -> list:
    """Harmonize list / single object / null into a list of candidates."""
    if isinstance(value, list):
        return value
    if isinstance(value, dict):
        return [value]
    return []  # null, or a malformed container, treated as empty


def _model_tables(value: object) -> ModelTables:
    """One model's tables.  ``normalize_text`` is inlined here: ``" ".join(text.split()).lower()``."""
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
    return ModelTables(concepts, triples, evidence, raw_output if isinstance(raw_output, str) else None)


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


def _tables(raw: object, key: SlideKey | None) -> DocumentTables:
    """The core: a parsed document's tables, checked but for UTF-8.

    Only it and ``_model_tables`` read a document.  Every view calls it
    itself, so that an id-conflict warning names the view's caller.
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
    models = {name: _model_tables(value) for name, value in models_raw.items()}

    lecture_label = raw.get("lecture")
    if not isinstance(lecture_label, str) or not lecture_label:
        lecture_label = f"Lecture {key.lecture_id}"

    paths = raw.get("paths") if isinstance(raw.get("paths"), dict) else {}
    meta = raw.get("metadata") if isinstance(raw.get("metadata"), dict) else {}

    def text(container: dict, name: str, default: str = "") -> str:
        value = container.get(name)
        return value if isinstance(value, str) else default

    return DocumentTables(key, lecture_label, models,
                          RecordPaths(text(paths, "image"), text(paths, "text"), text(paths, "json")),
                          RecordMetadata(text(meta, "timestamp"), text(meta, "source"),
                                         text(meta, "hash_input_format", CANONICAL_FORMAT)))


def _require_utf8(tables: DocumentTables) -> None:
    """Raise MalformedDocument when some text the tables keep has no UTF-8 form.

    JSON escapes can spell lone surrogates (``"\\ud800"``), which Python
    strings hold but UTF-8 cannot encode; such a record has no canonical
    bytes.
    """
    texts = [tables.lecture_label, *tables.paths, *tables.metadata]
    for name, m in tables.models.items():
        texts += (name, m.raw_output or "", *m.evidence)
        texts += chain.from_iterable(m.concepts)
        texts += filter(None, m.concepts.values())
        texts += chain.from_iterable(m.triples)
    try:
        "".join(texts).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise _not_utf8(exc) from None


def identity_tables(raw: object, key: SlideKey | None = None) -> DocumentTables:
    """Normalize a parsed document into its tables, with no record built.

    The tables hold what ``normalize_record(raw, key)`` holds, unsorted.
    Raises as ``normalize_record`` does.
    """
    tables = _tables(raw, key)
    _require_utf8(tables)
    return tables


def _in_text_order(table: dict, text: Callable[[tuple, object], str], make: type[_E]) -> tuple[_E, ...]:
    """A ``make`` NamedTuple of each identity and value of ``table``, sorted by the item's canonical text."""
    # distinct identities have distinct texts, so no two tie; make._make calls tuple.__new__ so, and checks a length
    ordered = sorted([(text(identity, value), (*identity, value)) for identity, value in table.items()])
    return tuple([tuple.__new__(make, fields) for _, fields in ordered])


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
    tables = _tables(raw, key)
    _require_utf8(tables)
    models = {name: ModelExtraction(name, _in_text_order(m.concepts, _concept_text, Concept),
                                    _in_text_order(m.triples, _triple_text, Triple), m.evidence, m.raw_output)
              for name, m in tables.models.items()}
    return ProvenanceRecord(tables.key, tables.lecture_label, models, tables.paths, tables.metadata)


def normalized_bytes(raw: object, key: SlideKey) -> bytes:
    """``canonical_bytes(normalize_record(raw, key))``, rendered from the tables with no record built.

    Raises as ``normalize_record`` does: encoding the bytes is the UTF-8
    check, as every text of the record is part of them.
    """
    tables = _tables(raw, key)
    try:
        return table_bytes(tables)
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
             only: Container[SlideKey] | None = None) -> Iterator[tuple[SlideKey, _T]]:
        """``(key, load(document, key))`` for each file, or each file of ``only``, one at a time.

        A pass over every file ends with ``require_loaded()``: EmptyCorpus when
        nothing loaded and nothing was skipped, as for a layout without files.
        """
        for key in self.paths:
            if (only is None or key in only) and (item := self._load(key, load)):
                yield key, item[1]
        if only is None:
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
              only: Container[SlideKey] | None = None) -> Iterator[tuple[SlideKey, _T | None, _T | None]]:
    """``(key, a, b)`` in key order for each key of either run, or of ``only``, that loads in either.

    ``a`` and ``b`` are each run's ``load(document, key)``, or None where it lacks the file or the
    file fails to load.  Run B's file with the bytes of run A's is neither parsed nor loaded: ``b is a``.
    """
    keys = run_a.paths.keys() | run_b.paths.keys()
    for key in sorted(keys if only is None else [key for key in keys if key in only]):
        a = run_a._load(key, load) if key in run_a.paths else None
        b = run_b._load(key, load, a) if key in run_b.paths else None
        if a or b:
            yield key, a and a[1], b and b[1]


# The fewest files a process of a split pass reads.  On 2 vCPU, paper-scale
# files took 35 ms to hash split in two against 41 ms in one process at 64
# files, and about 26 ms either way at 32 (medians of 15).
MIN_FILES_PER_WORKER = 32


def split_pass(readers: Sequence[CorpusReader], keys: Sequence[SlideKey],
               work: Callable[[Container[SlideKey]], list[_T]]) -> list[_T]:
    """``work(only)`` over W contiguous ranges of ``keys``, its lists joined in key order.

    W = min(usable CPUs, len(keys) // MIN_FILES_PER_WORKER), or 1 without
    fork or with another thread alive.  This process works on the first
    range and a forked child on each other; a child's list, the readers'
    new load counts and failures, and its warnings are added here in key
    order, as one process's pass has them.  A child's exception is raised
    here, and no child outlives the call.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    serial = not hasattr(os, "fork") or threading.active_count() > 1
    n = 1 if serial else max(1, min(cpus, len(keys) // MIN_FILES_PER_WORKER))
    if n > 1:  # only a split pass uses them, and they take ~3 ms to import
        import pickle
        import signal
    ranges = [frozenset(keys[len(keys) * i // n:len(keys) * (i + 1) // n]) for i in range(n)]
    children: list[tuple[int, BinaryIO]] = []
    collecting = gc.isenabled()
    try:
        for only in ranges[1:]:
            children.append(_fork(readers, work, only))
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
    return result


def _fork(readers: Sequence[CorpusReader], work: Callable[[Container[SlideKey]], list],
          only: Container[SlideKey]) -> tuple[int, BinaryIO]:
    """Fork a child that sends ``work(only)``'s list, the readers' new loads and failures, its warnings, or its error."""
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
                result = work(only)
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
