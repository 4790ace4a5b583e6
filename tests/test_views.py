"""The three views of the one normalization core agree on every document.

``normalize_record`` (sorted records), ``normalized_bytes`` (canonical
bytes) and ``identity_tables`` (the tables ``analyze`` and ``compare-runs``
read) are generated here from documents with non-object entries, blank
and non-string fields, case and whitespace variants of one identity,
single-object and ``null`` containers, boolean, out-of-range and ``-0.0``
confidences, lone-surrogate escapes in any kept field, ids that conflict
with the file key, and missing or empty ``models``.
"""

import copy
import warnings

from hypothesis import given, settings, strategies as st

from slideprov.errors import MalformedDocument, MissingKey
from slideprov.integrity import compare_range
from slideprov.metrics import disagreement, slide_disagreement
from slideprov.records import (SlideKey, canonical_bytes, identity_tables, normalize_record, normalized_bytes,
                               record_tables, table_bytes)

SURROGATES = ["\ud800", "a\udfff"]  # what json.loads gives for "\ud800" and "a\udfff"
# spellings of few identities, so that duplicates and variants are common
WORDS = ["a", "A", " a ", "a\t b", "A B", "b", "é", '"q"', "\\", "", "   "]
TEXT = st.sampled_from(WORDS * 4 + SURROGATES)  # one text in 23 holds a lone surrogate
NOT_TEXT = st.sampled_from([None, 1, True, [], {}])
FIELD = st.sampled_from(WORDS * 4 + SURROGATES + [None, 1, True, [], {}])  # text in 46 of 51
CONFIDENCE = st.none() | st.sampled_from([0.0, -0.0, 0.5, 1.0, 1, 0, True, False, 1.5, -0.1, 2,
                                          float("nan"), "0.5"]) | st.floats(0, 1)
# hypothesis draws the first values of a sampled list the most, so the common ones lead
OFTEN = st.sampled_from([True] * 9 + [False])  # true nine times in ten


@st.composite
def entry(draw, fields: tuple[str, ...], value_field: str, value: st.SearchStrategy) -> object:
    """An element entry; any key may be absent, and an unknown one present."""
    if not draw(OFTEN):
        return draw(FIELD | st.just(42))  # a non-object entry
    doc = {name: draw(FIELD) for name in fields if draw(OFTEN)}
    if draw(st.booleans()):
        doc[value_field] = draw(value)
    if not draw(OFTEN):
        doc["unknown"] = draw(FIELD)
    return doc


def container(item: st.SearchStrategy) -> st.SearchStrategy:
    """A list of entries, one entry alone, ``null``, or a malformed container."""
    return st.lists(item, max_size=6) | item | st.sampled_from([None, "text", 7])


@st.composite
def model(draw) -> object:
    if not draw(OFTEN):
        return draw(NOT_TEXT)
    fields = {"concepts": container(entry(("category", "term"), "evidence", FIELD)),
              "triples": container(entry(("s", "p", "o"), "confidence", CONFIDENCE)),
              "evidence": st.lists(FIELD, max_size=3) | FIELD,
              "raw_output": FIELD}
    return {name: draw(value) for name, value in fields.items() if draw(OFTEN)}


IDS = st.sampled_from([1, 2, 3, "2", " 1 ", 0, "x", True, None])
MODELS = st.dictionaries(TEXT, model(), min_size=1, max_size=3)


@st.composite
def document(draw) -> object:
    """A document, an object nine times in ten, with models nine times in ten."""
    if not draw(OFTEN):
        return draw(NOT_TEXT | st.just([1, 2]))
    doc = {"models": draw(MODELS)} if draw(OFTEN) else {} if draw(st.booleans()) else {"models": draw(NOT_TEXT)}
    for name, value in {
        "lecture": FIELD | st.sampled_from(["Lecture 2", "Lecture 1"]),
        "lecture_id": IDS,
        "slide_id": IDS,
        "paths": st.fixed_dictionaries({}, optional={name: FIELD for name in ("image", "text", "json")}),
        "metadata": st.fixed_dictionaries(
            {}, optional={name: FIELD for name in ("timestamp", "source", "hash_input_format")}),
        "unknown": FIELD,
    }.items():
        if draw(st.booleans()):
            doc[name] = draw(value | NOT_TEXT)
    return doc


# mostly a valid file key; without one, the document's ids must give it
KEY = st.sampled_from([SlideKey(lecture, slide) for lecture in (1, 2) for slide in (1, 2)] * 2
                      + [None, SlideKey(0, 1)])


def _view(view, doc, key):
    """``view(doc, key)`` or the error it raises, and the warnings it gives."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = view(copy.deepcopy(doc), key)
        except (MalformedDocument, MissingKey) as exc:
            result = exc
    return result, [(w.category, str(w.message)) for w in caught]


def _sets(record) -> dict:
    return {name: (ext.concept_identities(), ext.triple_identities()) for name, ext in record.models.items()}


@given(doc=document(), key=KEY)
@settings(max_examples=300, deadline=None)
def test_every_view_of_a_document_agrees(doc, key):
    (record, shown), *others = [_view(view, doc, key) for view in (normalize_record, normalized_bytes,
                                                                    identity_tables)]
    (data, _), (tables, _) = others
    assert all(caught == shown for _, caught in others)  # the same warnings
    if isinstance(record, Exception):  # (c) each view fails alike
        assert all(type(r) is type(record) and str(r) == str(record) for r, _ in others)
        return
    # (a) the identity view is each extraction's identity sets
    assert tables.identity_sets() == _sets(record)
    # (b) analyze's summary is the record's
    assert slide_disagreement(tables.key, tables.identity_sets()) == disagreement(record)
    # (d) the bytes view, and the bytes rendered from the tables, are the record's canonical bytes
    assert data == table_bytes(tables) == canonical_bytes(record)
    assert record_tables(record) == tables


def _edits(draw, doc: dict) -> dict:
    """``doc`` with a few generated edits to its models, paths or header."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(0, 3))):
        models = doc["models"]
        name = draw(st.sampled_from(sorted(models)))
        model = models[name] if isinstance(models[name], dict) else {}
        kind = draw(st.sampled_from(["concept", "triple", "evidence", "raw", "model", "drop", "path", "variant"]))
        if kind == "concept":
            model["concepts"] = [*container_list(model.get("concepts")),
                                 draw(entry(("category", "term"), "evidence", FIELD))]
        elif kind == "triple":
            model["triples"] = [*container_list(model.get("triples")),
                                draw(entry(("s", "p", "o"), "confidence", CONFIDENCE))]
        elif kind == "evidence":
            model["evidence"] = draw(st.lists(TEXT, max_size=2))
        elif kind == "raw":
            model["raw_output"] = draw(FIELD)
        elif kind == "model":
            models[draw(st.sampled_from(WORDS))] = {}
        elif kind == "drop" and len(models) > 1:
            del models[name]
            continue
        elif kind == "path":
            doc["paths"] = {"image": draw(st.sampled_from(WORDS))}
        elif kind == "variant":  # an identity respelled: the same after normalization
            for item in container_list(model.get("concepts")):
                if isinstance(item, dict) and isinstance(item.get("term"), str):
                    item["term"] = f"  {item['term'].upper()} "
        models[name] = model
    return doc


def container_list(value: object) -> list:
    if isinstance(value, list):
        return value
    return [value] if isinstance(value, dict) else []


@st.composite
def two_runs(draw) -> tuple[dict, dict]:
    doc = draw(st.fixed_dictionaries({"models": st.dictionaries(st.sampled_from(["m1", "m2", "m3"]), model(),
                                                                min_size=1, max_size=3)},
                                     optional={"lecture": FIELD, "paths": st.just({"text": "t"})}))
    return doc, _edits(draw, doc)


@given(runs=two_runs())
@settings(max_examples=300, deadline=None)
def test_byte_equal_is_canonical_byte_equality(runs):
    key = SlideKey(1, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            records = [normalize_record(copy.deepcopy(doc), key) for doc in runs]
        except MalformedDocument:  # a lone surrogate in a kept field: compare-runs skips that file
            return
        tables = [identity_tables(copy.deepcopy(doc), key) for doc in runs]
    same_bytes = canonical_bytes(records[0]) == canonical_bytes(records[1])
    # (e) differing identity sets mean differing canonical bytes
    if _sets(records[0]) != _sets(records[1]):
        assert not same_bytes
    comparison = compare_range([(key, *tables)])
    assert comparison.byte_equal == {key: same_bytes}
