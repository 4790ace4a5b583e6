"""Reference canonical encoding used as an oracle in tests.

It writes a record the way the format was first defined: build the
plain-JSON document with ``to_document`` and let ``json.dumps`` sort the
keys.  ``canonical_bytes`` writes the same text by hand, without building
the document, and shares no code with this module.
"""

import json

from slideprov.records import Concept, ProvenanceRecord, Triple


def reference_dumps(doc: object) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def concept_doc(c: Concept) -> dict:
    doc: dict = {"category": c.category, "term": c.term}
    if c.evidence is not None:
        doc["evidence"] = c.evidence
    return doc


def triple_doc(t: Triple) -> dict:
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
            "concepts": sorted((concept_doc(c) for c in ext.concepts), key=reference_dumps),
            "triples": sorted((triple_doc(t) for t in ext.triples), key=reference_dumps),
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


def reference_bytes(record: ProvenanceRecord) -> bytes:
    return reference_dumps(to_document(record)).encode("utf-8")
