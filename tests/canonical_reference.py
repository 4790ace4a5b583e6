"""Reference canonical encoding used as an oracle in tests.

It writes a record the way the format was first defined: build the
plain-JSON document with ``to_document`` and let ``json.dumps`` sort the
keys.  ``canonical_bytes`` writes the same text by hand, without building
the document.
"""

import json

from slideprov.records import ProvenanceRecord, to_document


def reference_dumps(doc: object) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def reference_bytes(record: ProvenanceRecord) -> bytes:
    return reference_dumps(to_document(record)).encode("utf-8")
