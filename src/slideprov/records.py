"""Slide-level provenance records: schema, normalization, canonical bytes.

A record aggregates the semantic output of several extraction models for
one slide.  Normalization makes heterogeneous model output comparable
(lowercase, collapsed whitespace, deduplicated); canonical serialization
makes logically equal records byte-identical so they hash identically on
every platform.
"""

from __future__ import annotations

import json
import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .errors import EmptyCorpus, MalformedDocument, MissingKey, ProvenanceWarning

# Descriptor recorded in metadata.hash_input_format when the source
# document does not carry one.
CANONICAL_FORMAT = "canonical-json/v1;sorted-keys;utf-8"

_WS_RUN = re.compile(r"\s+")
_LECTURE_DIR = re.compile(r"^Lecture\s*(\d+)$")
_SLIDE_FILE = re.compile(r"^Slide(\d+)\.json$")
_TRAILING_INT = re.compile(r"(\d+)\s*$")


def normalize_text(value: object) -> str:
    """Lowercase, collapse interior whitespace runs, strip the ends.

    Returns "" for anything that is not a string; callers drop empties.
    """
    if not isinstance(value, str):
        return ""
    return _WS_RUN.sub(" ", value).strip().lower()


@dataclass(frozen=True, order=True)
class SlideKey:
    """(lecture_id, slide_id) identity of one slide within a corpus.

    Both ids must be >= 1 for a registrable record; the registry enforces
    this so that rejection of zero ids stays observable.
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


def _concept_doc(c: Concept) -> dict:
    doc: dict = {"category": c.category, "term": c.term}
    if c.evidence is not None:
        doc["evidence"] = c.evidence
    return doc


def _triple_doc(t: Triple) -> dict:
    doc: dict = {"s": t.s, "p": t.p, "o": t.o}
    if t.confidence is not None:
        doc["confidence"] = t.confidence
    return doc


def to_document(record: ProvenanceRecord) -> dict:
    """Plain-JSON tree of a record, with set elements in canonical order.

    Concepts and triples are sorted by their own canonical encoding so
    that logically equal sets serialize identically regardless of the
    order extractors emitted them in; evidence keeps source order.
    """
    models_doc = {}
    for name, ext in record.models.items():
        model_doc: dict = {
            "concepts": sorted((_concept_doc(c) for c in ext.concepts), key=_dumps),
            "triples": sorted((_triple_doc(t) for t in ext.triples), key=_dumps),
            "evidence": list(ext.evidence),
        }
        if ext.raw_output is not None:
            model_doc["raw_output"] = ext.raw_output
        models_doc[name] = model_doc
    return {
        "lecture": record.lecture_label,
        "lecture_id": record.key.lecture_id,
        "slide_id": record.key.slide_id,
        "models": models_doc,
        "paths": {
            "image": record.paths.image,
            "text": record.paths.text,
            "json": record.paths.json,
        },
        "metadata": {
            "timestamp": record.metadata.timestamp,
            "source": record.metadata.source,
            "hash_input_format": record.metadata.hash_input_format,
        },
    }


def canonical_bytes(record: ProvenanceRecord) -> bytes:
    """Deterministic UTF-8 encoding of a record.

    Object keys are sorted by code point (equivalently UTF-8 byte order),
    there is no insignificant whitespace, and floats use the shortest
    decimal form that round-trips.  Pure function of record content.
    """
    return _dumps(to_document(record)).encode("utf-8")


def _layout_base(root: Path | str) -> Path:
    """``root/by_slide`` when that directory exists, else ``root`` itself."""
    root = Path(root)
    return root / "by_slide" if (root / "by_slide").is_dir() else root


def record_path(root: Path | str, key: SlideKey) -> Path:
    """On-disk location of a slide record under the corpus layout."""
    return _layout_base(root) / f"Lecture {key.lecture_id}" / f"Slide{key.slide_id}.json"


def scan_slide_files(root: Path | str) -> list[tuple[SlideKey, Path]]:
    """Every ``Lecture <n>/Slide<m>.json`` file under the corpus layout, by key.

    Only names are read: no file is opened or parsed.
    """
    base = _layout_base(root)
    slide_files: list[tuple[SlideKey, Path]] = []
    if base.is_dir():
        for lecture_dir in base.iterdir():
            match = _LECTURE_DIR.match(lecture_dir.name)
            if not match or not lecture_dir.is_dir():
                continue
            lecture_id = int(match.group(1))
            for slide_file in lecture_dir.iterdir():
                s_match = _SLIDE_FILE.match(slide_file.name)
                if s_match:
                    slide_files.append((SlideKey(lecture_id, int(s_match.group(1))), slide_file))
    slide_files.sort(key=lambda item: item[0])
    return slide_files


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


def _normalize_concepts(value: object) -> tuple[Concept, ...]:
    seen: dict[tuple[str, str], Concept] = {}
    for entry in _as_entry_list(value):
        if not isinstance(entry, dict):
            continue
        category = normalize_text(entry.get("category"))
        term = normalize_text(entry.get("term"))
        if not category or not term:
            continue
        evidence = entry.get("evidence")
        concept = Concept(category, term, evidence if isinstance(evidence, str) else None)
        seen.setdefault(concept.identity, concept)  # first occurrence wins
    return tuple(sorted(seen.values(), key=lambda c: _dumps(_concept_doc(c))))


def _normalize_confidence(value: object) -> float | None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    if 0.0 <= value <= 1.0:
        return float(value)
    return None


def _normalize_triples(value: object) -> tuple[Triple, ...]:
    seen: dict[tuple[str, str, str], Triple] = {}
    for entry in _as_entry_list(value):
        if not isinstance(entry, dict):
            continue
        s = normalize_text(entry.get("s"))
        p = normalize_text(entry.get("p"))
        o = normalize_text(entry.get("o"))
        if not (s and p and o):
            continue
        triple = Triple(s, p, o, _normalize_confidence(entry.get("confidence")))
        seen.setdefault(triple.identity, triple)
    return tuple(sorted(seen.values(), key=lambda t: _dumps(_triple_doc(t))))


def _normalize_evidence(value: object) -> tuple[str, ...]:
    if value is None:
        return ()
    if isinstance(value, str):
        return (value,)
    if not isinstance(value, list):
        return ()
    return tuple(item for item in value if isinstance(item, str))


def _normalize_model(name: str, value: object) -> ModelExtraction:
    if not isinstance(value, dict):
        value = {}
    raw_output = value.get("raw_output")
    return ModelExtraction(
        model_name=name,
        concepts=_normalize_concepts(value.get("concepts")),
        triples=_normalize_triples(value.get("triples")),
        evidence=_normalize_evidence(value.get("evidence")),
        raw_output=raw_output if isinstance(raw_output, str) else None,
    )


def _int_or_none(value: object) -> int | None:
    if isinstance(value, bool):
        return None
    if isinstance(value, int):
        return value
    if isinstance(value, str) and value.strip().isdigit():
        return int(value.strip())
    return None


def _document_key(raw: dict) -> SlideKey | None:
    lecture_id = _int_or_none(raw.get("lecture_id"))
    if lecture_id is None and isinstance(raw.get("lecture"), str):
        match = _TRAILING_INT.search(raw["lecture"])
        if match:
            lecture_id = int(match.group(1))
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
    and MissingKey when no slide identity can be established.
    """
    if not isinstance(raw, dict):
        raise MalformedDocument(f"expected a JSON object, got {type(raw).__name__}")

    doc_key = _document_key(raw)
    if key is None:
        key = doc_key
    elif doc_key is not None and doc_key != key:
        warnings.warn(
            f"document ids {doc_key} conflict with file-derived key {key}; file wins",
            ProvenanceWarning,
            stacklevel=2,
        )
    if key is None:
        raise MissingKey("cannot establish (lecture_id, slide_id) identity")
    if not key.is_valid():
        raise MissingKey(f"invalid slide identity {key}")

    models_raw = raw.get("models")
    if not isinstance(models_raw, dict) or not models_raw:
        raise MalformedDocument("record has no model extractions")
    models = {name: _normalize_model(name, value) for name, value in models_raw.items()}

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


# --------------------------------------------------------------------------
# corpus loading


@dataclass(frozen=True)
class LoadFailure:
    path: str
    key: SlideKey | None
    error: str


@dataclass
class CorpusLoadResult:
    records: Corpus
    failures: list[LoadFailure]


def load_corpus(root: Path | str) -> CorpusLoadResult:
    """Load every ``by_slide/Lecture <n>/Slide<m>.json`` under ``root``.

    Per-file parse or normalization failures are collected into the
    result instead of aborting the batch.  Raises EmptyCorpus when no
    record loads at all.
    """
    records: Corpus = {}
    failures: list[LoadFailure] = []
    for key, path in scan_slide_files(root):
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            failures.append(LoadFailure(str(path), key, f"unparseable: {exc}"))
            continue
        try:
            records[key] = normalize_record(raw, key=key)
        except (MalformedDocument, MissingKey) as exc:
            failures.append(LoadFailure(str(path), key, str(exc)))

    if not records:
        detail = f" ({len(failures)} files failed to parse)" if failures else ""
        raise EmptyCorpus(f"no provenance records loaded from {root}{detail}")
    return CorpusLoadResult(records=records, failures=failures)


def load_json_entries(path: Path | str, what: str, parse: Callable[[dict], object]) -> list:
    """Parse each object of a non-empty JSON list file with ``parse``.

    A malformed file or entry raises ValueError naming the file and the
    entry's index, so a bad config file is a usage error.
    """
    try:
        entries = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ValueError(f"{path}: {what} is not valid JSON: {exc}") from None
    if not isinstance(entries, list) or not entries:
        raise ValueError(f"{path}: {what} must be a non-empty JSON list")
    parsed = []
    for index, entry in enumerate(entries):
        try:
            if not isinstance(entry, dict):
                raise TypeError(f"expected an object, got {type(entry).__name__}")
            parsed.append(parse(entry))
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
