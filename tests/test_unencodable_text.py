"""A corpus file whose text has no UTF-8 form is skipped like any malformed file."""

import json
import random
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from conftest import run_cli as run, synthetic_document, write_corpus
from slideprov import MalformedDocument, canonical_bytes, normalize_record


def _put(doc: dict, field: str, text: str) -> None:
    """Set one text field of a synthetic document to ``text``."""
    model = doc["models"]["vision-alpha"]
    if field == "term":
        model["concepts"][0]["term"] = text
    elif field == "concept evidence":
        model["concepts"][0]["evidence"] = text
    elif field == "evidence":
        model["evidence"].append(text)
    elif field == "triple":
        model["triples"][0]["o"] = text
    elif field == "raw_output":
        model["raw_output"] = text
    elif field == "model name":
        doc["models"][text] = doc["models"].pop("vision-alpha")
    elif field == "lecture label":
        doc["lecture"] = text
    elif field in ("image", "text", "json"):
        doc["paths"][field] = text
    else:
        doc["metadata"][field] = text


FIELDS = ["term", "concept evidence", "evidence", "triple", "raw_output", "model name",
          "lecture label", "image", "text", "json", "timestamp", "source"]


@given(field=st.sampled_from(FIELDS), surrogate=st.integers(0xD800, 0xDFFF),
       prefix=st.text(max_size=3))
@settings(max_examples=30, deadline=None)
def test_cli_skips_a_file_with_a_lone_surrogate(field, surrogate, prefix):
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        corpus = write_corpus(root / "corpus", n_lectures=1, slides_per_lecture=2)
        doc = synthetic_document(random.Random(5), 1, 2)
        _put(doc, field, f"{prefix}{chr(surrogate)}x")
        bad = corpus / "by_slide" / "Lecture 1" / "Slide2.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")  # ASCII: the surrogate as \u escape

        common = ["--corpus", str(corpus), "--out", str(root / "out")]
        code, out, err = run(["register", *common, "--ledger", str(root / "ledger.json")])
        assert code == 0
        assert out.startswith("registered 1/1 slides")
        assert err.count("warning: skipped") == 1 and "Slide2.json" in err
        assert "UTF-8" in err

        assert run(["compare-runs", str(corpus), str(corpus), "--out", str(root / "cmp")])[0] == 0
        assert run(["analyze", *common])[0] == 0


def test_normalize_record_rejects_unencodable_text():
    doc = synthetic_document(random.Random(1), 1, 1)
    doc["models"]["vision-beta"]["concepts"][0]["term"] = "x\ud800"
    with pytest.raises(MalformedDocument, match="UTF-8"):
        normalize_record(doc)


def test_surrogate_pairs_from_escapes_still_encode():
    doc = json.loads('{"lecture": "Lecture 1", "slide_id": 1, "models": {"m": {"concepts":'
                     ' [{"category": "c", "term": "\\ud83d\\ude00"}]}}}')
    record = normalize_record(doc)
    assert "\U0001f600".encode("utf-8") in canonical_bytes(record)
