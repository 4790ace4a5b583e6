"""The hand-written canonical encoder against ``json.dumps`` of the record document."""

import random
import re
import sys

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from canonical_reference import concept_doc, reference_bytes, reference_dumps, to_document, triple_doc
from conftest import synthetic_document
from slideprov.integrity import TamperKind, applicable_kinds, tamper_record
from slideprov.records import (
    ModelExtraction,
    ProvenanceRecord,
    RecordMetadata,
    RecordPaths,
    SlideKey,
    _concept_text,
    _triple_text,
    canonical_bytes,
    normalize_record,
    normalize_text,
)

# characters json.dumps treats specially: quote, backslash, controls, and
# U+2028/U+2029 (left raw with ensure_ascii=False), plus non-ASCII and astral text
_SPECIAL = st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\t", " ", " ",
                            "é", "ß", "Σ", "中", "\U0001f600", "\U00010348", " "])
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)) | _SPECIAL, max_size=12)
_CONFIDENCE = (st.none() | st.sampled_from([1e-07, 0.1, 1.0, 0.0, 1, 0, 5e-324, 0.30000000000000004])
               | st.floats(min_value=0.0, max_value=1.0) | st.integers(-3, 3)
               | st.floats() | st.booleans())

# an element is an (identity, evidence or confidence) item of its table
_concepts = st.tuples(st.tuples(_TEXT, _TEXT), st.none() | _TEXT)
_triples = st.tuples(st.tuples(_TEXT, _TEXT, _TEXT), _CONFIDENCE)
_extractions = st.builds(
    lambda concepts, triples, evidence, raw: ModelExtraction(dict(concepts), dict(triples), tuple(evidence), raw),
    st.lists(_concepts, max_size=3), st.lists(_triples, max_size=3),
    st.lists(_TEXT, max_size=2), st.none() | _TEXT,
)
# element items in any order: the encoder sorts them as to_document does
_records = st.builds(
    lambda lecture, slide, label, models, paths, meta: ProvenanceRecord(
        SlideKey(lecture, slide), label, models, RecordPaths(*paths), RecordMetadata(*meta)),
    st.integers(1, 10**6), st.integers(1, 10**6), _TEXT,
    st.dictionaries(_TEXT, _extractions, min_size=1, max_size=2),
    st.tuples(_TEXT, _TEXT, _TEXT), st.tuples(_TEXT, _TEXT, _TEXT),
)


@given(_records)
@settings(max_examples=60, deadline=None)
def test_canonical_bytes_equal_json_dumps_of_the_document(record):
    assert canonical_bytes(record) == reference_bytes(record)


@given(_concepts, _triples)
@settings(max_examples=100, deadline=None)
def test_element_text_equals_json_dumps(concept, triple):
    # an element's text is rendered from its identity and its evidence or confidence
    assert _concept_text(*concept) == reference_dumps(concept_doc(*concept))
    assert _triple_text(*triple) == reference_dumps(triple_doc(*triple))


def test_int_confidence_stays_int():
    assert _triple_text(("a", "b", "c"), 1) == '{"confidence":1,"o":"c","p":"b","s":"a"}'
    assert _triple_text(("a", "b", "c"), 1.0) == '{"confidence":1.0,"o":"c","p":"b","s":"a"}'
    assert _triple_text(("a", "b", "c"), 1e-07) == '{"confidence":1e-07,"o":"c","p":"b","s":"a"}'


@given(st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_normalized_and_tampered_records_match_the_reference(seed):
    rng = random.Random(seed)
    record = normalize_record(synthetic_document(rng, 1 + seed % 9, 1 + seed % 40))
    assert canonical_bytes(record) == reference_bytes(record)
    before = to_document(record)["models"]
    for kind in applicable_kinds(record):
        tampered, op = tamper_record(record, kind, rng)
        assert canonical_bytes(tampered) == reference_bytes(tampered)
        # an element's index names its place in the reference document, the one element edited
        _, name, field, *place = op.target.split("/")
        if field != "evidence" and place[0] != "+":
            after = to_document(tampered)["models"][name][field]
            assert before[name][field][int(place[0])] not in after
            assert len(after) == len(before[name][field]) - (kind is TamperKind.DELETE_TRIPLE)


def test_regex_whitespace_is_str_isspace_on_every_code_point():
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\s", every) == [c for c in every if c.isspace()]


@given(st.text(st.characters() | st.sampled_from(["\x1c", "\x85", "\xa0", " ", "　"])))
@settings(max_examples=200, deadline=None)
def test_normalize_text_matches_the_regex_definition(value):
    assert normalize_text(value) == re.sub(r"\s+", " ", value).strip().lower()
