"""Slide-level provenance records: schema, normalization, canonical bytes.

A record aggregates the semantic output of several extraction models for
one slide.  Normalization makes heterogeneous model output comparable
(lowercase, collapsed whitespace, deduplicated); canonical serialization
makes logically equal records byte-identical so they hash identically on
every platform.
"""

from __future__ import annotations

import gc
import json
import math
import os
import re
import threading
import warnings
from dataclasses import dataclass, field
from json.encoder import encode_basestring as _quote
from pathlib import Path
from typing import BinaryIO, Callable, Container, Iterable, Iterator, NamedTuple, Sequence, TypeVar

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


@dataclass(frozen=True)
class Concept:
    """Atomic (category, term) semantic unit; evidence rides along verbatim."""

    category: str
    term: str
    evidence: str | None = None

    @property
    def identity(self) -> tuple[str, str]:
        return (self.category, self.term)


@dataclass(frozen=True)
class Triple:
    """Relational assertion (s, p, o) with optional confidence in [0, 1]."""

    s: str
    p: str
    o: str
    confidence: float | None = None

    @property
    def identity(self) -> tuple[str, str, str]:
        return (self.s, self.p, self.o)


@dataclass(frozen=True)
class ModelExtraction:
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
        return frozenset(c.identity for c in self.concepts)

    def triple_identities(self) -> frozenset[tuple[str, str, str]]:
        return frozenset(t.identity for t in self.triples)


@dataclass(frozen=True)
class RecordPaths:
    image: str = ""
    text: str = ""
    json: str = ""


@dataclass(frozen=True)
class RecordMetadata:
    timestamp: str = ""
    source: str = ""
    hash_input_format: str = CANONICAL_FORMAT


@dataclass
class ProvenanceRecord:
    """Canonical multi-model provenance record for one slide."""

    key: SlideKey
    lecture_label: str
    models: dict[str, ModelExtraction]
    paths: RecordPaths = field(default_factory=RecordPaths)
    metadata: RecordMetadata = field(default_factory=RecordMetadata)


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

def _concept_text(c: Concept) -> str:
    evidence = "" if c.evidence is None else f',"evidence":{_quote(c.evidence)}'
    return f'{{"category":{_quote(c.category)}{evidence},"term":{_quote(c.term)}}}'


def _triple_text(t: Triple) -> str:
    confidence = "" if t.confidence is None else f'"confidence":{_number(t.confidence)},'
    return f'{{{confidence}"o":{_quote(t.o)},"p":{_quote(t.p)},"s":{_quote(t.s)}}}'


def _model_text(ext: ModelExtraction, concept_texts: list[str] | None = None,
                triple_texts: list[str] | None = None) -> str:
    """A model's canonical text.

    ``concept_texts`` and ``triple_texts``, when given, are the texts of
    its concepts and triples, already in sorted order.
    """
    if concept_texts is None:
        concept_texts = sorted(map(_concept_text, ext.concepts))
    if triple_texts is None:
        triple_texts = sorted(map(_triple_text, ext.triples))
    raw = "" if ext.raw_output is None else f',"raw_output":{_quote(ext.raw_output)}'
    return (f'{{"concepts":[{",".join(concept_texts)}],'
            f'"evidence":[{",".join(map(_quote, ext.evidence))}]{raw},'
            f'"triples":[{",".join(triple_texts)}]}}')


def _record_bytes(record: ProvenanceRecord, model_texts: dict[str, str]) -> bytes:
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
    return _record_bytes(record, {name: _model_text(ext) for name, ext in record.models.items()})


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
# normalization


def _as_entry_list(value: object) -> list:
    """Harmonize list / single object / null into a list of candidates."""
    if value is None:
        return []
    if isinstance(value, list):
        return value
    if isinstance(value, dict):
        return [value]
    return []  # malformed container treated as empty


def _in_text_order(elements: Iterable[_E], text: Callable[[_E], str],
                   texts: list[str] | None) -> tuple[_E, ...]:
    """``elements`` sorted by their canonical text.

    When ``texts`` is a list, the sorted texts are appended to it, for the
    caller to build the model's canonical text from.
    """
    if texts is None:
        return tuple(sorted(elements, key=text))
    by_text = {text(e): e for e in elements}  # distinct identities have distinct texts
    texts += sorted(by_text)
    return tuple(map(by_text.__getitem__, texts))


def _normalize_concepts(value: object, texts: list[str] | None = None) -> tuple[Concept, ...]:
    seen: dict[tuple[str, str], Concept] = {}
    for entry in _as_entry_list(value):
        if not isinstance(entry, dict):
            continue
        category = normalize_text(entry.get("category"))
        term = normalize_text(entry.get("term"))
        if not category or not term or (category, term) in seen:
            continue  # first occurrence wins
        evidence = entry.get("evidence")
        evidence = evidence if isinstance(evidence, str) else None
        seen[category, term] = Concept(category, term, evidence)
    return _in_text_order(seen.values(), _concept_text, texts)


def _normalize_confidence(value: object) -> float | None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    if 0.0 <= value <= 1.0:
        return float(value)
    return None


def _normalize_triples(value: object, texts: list[str] | None = None) -> tuple[Triple, ...]:
    seen: dict[tuple[str, str, str], Triple] = {}
    for entry in _as_entry_list(value):
        if not isinstance(entry, dict):
            continue
        s = normalize_text(entry.get("s"))
        p = normalize_text(entry.get("p"))
        o = normalize_text(entry.get("o"))
        if not (s and p and o) or (s, p, o) in seen:
            continue
        confidence = _normalize_confidence(entry.get("confidence"))
        seen[s, p, o] = Triple(s, p, o, confidence)
    return _in_text_order(seen.values(), _triple_text, texts)


def _normalize_evidence(value: object) -> tuple[str, ...]:
    if value is None:
        return ()
    if isinstance(value, str):
        return (value,)
    if not isinstance(value, list):
        return ()
    return tuple(item for item in value if isinstance(item, str))


def _normalize_model(name: str, value: object, model_texts: dict[str, str] | None) -> ModelExtraction:
    if not isinstance(value, dict):
        value = {}
    raw_output = value.get("raw_output")
    concept_texts, triple_texts = (None, None) if model_texts is None else ([], [])
    ext = ModelExtraction(
        model_name=name,
        concepts=_normalize_concepts(value.get("concepts"), concept_texts),
        triples=_normalize_triples(value.get("triples"), triple_texts),
        evidence=_normalize_evidence(value.get("evidence")),
        raw_output=raw_output if isinstance(raw_output, str) else None,
    )
    if model_texts is not None:
        model_texts[name] = _model_text(ext, concept_texts, triple_texts)
    return ext


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
    record = _normalize(raw, key, None)
    _require_utf8(record)
    return record


def normalized_bytes(raw: object, key: SlideKey) -> bytes:
    """``canonical_bytes(normalize_record(raw, key))``, without encoding any element twice.

    Normalization sorts each model's concepts and triples by their
    canonical text; here those texts are kept, for this record only, and
    joined into its bytes.  Raises as ``normalize_record`` does.
    """
    model_texts: dict[str, str] = {}
    record = _normalize(raw, key, model_texts)
    try:
        # every text of the record is part of its canonical text
        return _record_bytes(record, model_texts)
    except UnicodeEncodeError as exc:
        raise _not_utf8(exc) from None


def _normalize(raw: object, key: SlideKey | None,
               model_texts: dict[str, str] | None) -> ProvenanceRecord:
    """``normalize_record`` without the UTF-8 check; fills ``model_texts`` by model name if given."""
    if not isinstance(raw, dict):
        raise MalformedDocument(f"expected a JSON object, got {type(raw).__name__}")

    doc_key = _document_key(raw)
    if key is None:
        key = doc_key
    elif doc_key is not None and doc_key != key:
        warnings.warn(
            f"document ids {doc_key} conflict with file-derived key {key}; file wins",
            ProvenanceWarning,
            stacklevel=3,
        )
    if key is None:
        raise MissingKey("cannot establish (lecture_id, slide_id) identity")
    if not key.is_valid():
        raise MissingKey(f"invalid slide identity {key}")

    models_raw = raw.get("models")
    if not isinstance(models_raw, dict) or not models_raw:
        raise MalformedDocument("record has no model extractions")
    models = {name: _normalize_model(name, value, model_texts) for name, value in models_raw.items()}

    lecture_label = raw.get("lecture")
    if not isinstance(lecture_label, str) or not lecture_label:
        lecture_label = f"Lecture {key.lecture_id}"

    paths_raw = raw.get("paths") if isinstance(raw.get("paths"), dict) else {}
    meta_raw = raw.get("metadata") if isinstance(raw.get("metadata"), dict) else {}

    def text_field(container: dict, name: str, default: str = "") -> str:
        value = container.get(name)
        return value if isinstance(value, str) else default

    return ProvenanceRecord(
        key=key,
        lecture_label=lecture_label,
        models=models,
        paths=RecordPaths(
            image=text_field(paths_raw, "image"),
            text=text_field(paths_raw, "text"),
            json=text_field(paths_raw, "json"),
        ),
        metadata=RecordMetadata(
            timestamp=text_field(meta_raw, "timestamp"),
            source=text_field(meta_raw, "source"),
            hash_input_format=text_field(meta_raw, "hash_input_format", CANONICAL_FORMAT),
        ),
    )


def _require_utf8(record: ProvenanceRecord) -> None:
    """Raise MalformedDocument when some text of the record has no UTF-8 form.

    JSON escapes can spell lone surrogates (``"\\ud800"``), which Python
    strings hold but UTF-8 cannot encode; such a record has no canonical
    bytes.
    """
    texts = [record.lecture_label, record.paths.image, record.paths.text, record.paths.json,
             record.metadata.timestamp, record.metadata.source, record.metadata.hash_input_format]
    for name, ext in record.models.items():
        texts += (name, ext.raw_output or "", *ext.evidence)
        for c in ext.concepts:
            texts += (c.category, c.term, c.evidence or "")
        for t in ext.triples:
            texts += (t.s, t.p, t.o)
    try:
        "".join(texts).encode("utf-8")
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


@dataclass(frozen=True)
class LoadFailure:
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
