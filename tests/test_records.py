import json
import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from canonical_reference import to_document
from conftest import synthetic_document, write_corpus
from slideprov import records
from slideprov import (
    CorpusReader,
    EmptyCorpus,
    MalformedDocument,
    MissingKey,
    ProvenanceWarning,
    SlideKey,
    canonical_bytes,
    load_corpus,
    normalize_record,
    normalize_text,
)


def minimal_doc(**overrides) -> dict:
    doc = {
        "lecture": "Lecture 1",
        "slide_id": 1,
        "models": {"vision-alpha": {"concepts": [], "triples": [], "evidence": []}},
    }
    doc.update(overrides)
    return doc


class TestNormalizeText:
    def test_lowercases_and_collapses_whitespace(self):
        assert normalize_text("  X-Ray \t Imaging\n") == "x-ray imaging"

    def test_non_string_becomes_empty(self):
        assert normalize_text(None) == ""
        assert normalize_text(42) == ""


class TestNormalizeRecord:
    def test_concepts_dedup_after_normalization(self):
        doc = minimal_doc(models={"m": {"concepts": [
            {"category": "  Modality", "term": "X-Ray "},
            {"category": "modality", "term": "x-ray"},
        ]}})
        record = normalize_record(doc)
        assert record.models["m"].concepts == {("modality", "x-ray"): None}

    def test_null_triples_become_empty_set(self):
        doc = minimal_doc(models={"m": {"triples": None}})
        assert normalize_record(doc).models["m"].triples == {}

    def test_malformed_triples_become_empty_set(self):
        doc = minimal_doc(models={"m": {"triples": "not a list"}})
        assert normalize_record(doc).models["m"].triples == {}

    def test_empty_term_dropped(self):
        doc = minimal_doc(models={"m": {"concepts": [{"category": "x", "term": "  "}]}})
        assert normalize_record(doc).models["m"].concepts == {}

    def test_single_object_where_list_expected(self):
        doc = minimal_doc(models={"m": {"concepts": {"category": "a", "term": "b"}}})
        assert normalize_record(doc).models["m"].concepts == {("a", "b"): None}

    def test_evidence_preserved_verbatim(self):
        doc = minimal_doc(models={"m": {"evidence": ["  Mixed CASE  evidence "]}})
        assert normalize_record(doc).models["m"].evidence == ("  Mixed CASE  evidence ",)

    def test_evidence_single_string_harmonized(self):
        doc = minimal_doc(models={"m": {"evidence": "one snippet"}})
        assert normalize_record(doc).models["m"].evidence == ("one snippet",)

    def test_confidence_out_of_range_dropped(self):
        doc = minimal_doc(models={"m": {"triples": [
            {"s": "a", "p": "b", "o": "c", "confidence": 1.5},
            {"s": "a", "p": "b", "o": "d", "confidence": 0.75},
        ]}})
        triples = normalize_record(doc).models["m"].triples
        by_o = {o: confidence for (_, _, o), confidence in triples.items()}
        assert by_o == {"c": None, "d": 0.75}

    def test_missing_models_is_malformed(self):
        with pytest.raises(MalformedDocument):
            normalize_record(minimal_doc(models={}))
        with pytest.raises(MalformedDocument):
            normalize_record({"lecture": "Lecture 1", "slide_id": 1})

    def test_non_object_input_is_malformed(self):
        with pytest.raises(MalformedDocument):
            normalize_record([1, 2, 3])

    def test_identity_from_lecture_label(self):
        record = normalize_record(minimal_doc())
        assert record.key == SlideKey(1, 1)

    def test_missing_identity(self):
        doc = minimal_doc()
        del doc["slide_id"]
        with pytest.raises(MissingKey):
            normalize_record(doc)

    def test_file_key_wins_over_conflicting_document(self):
        doc = minimal_doc(slide_id=9)
        with pytest.warns(ProvenanceWarning):
            record = normalize_record(doc, key=SlideKey(1, 2))
        assert record.key == SlideKey(1, 2)

    def test_duplicate_identity_keeps_first_evidence(self):
        doc = minimal_doc(models={"m": {"concepts": [
            {"category": "c", "term": "t", "evidence": "first"},
            {"category": "C ", "term": " T", "evidence": "second"},
        ]}})
        assert normalize_record(doc).models["m"].concepts == {("c", "t"): "first"}


class TestCanonicalBytes:
    def test_sorted_keys_no_whitespace(self):
        record = normalize_record(minimal_doc())
        text = canonical_bytes(record).decode("utf-8")
        reencoded = json.dumps(
            json.loads(text), sort_keys=True, separators=(",", ":"), ensure_ascii=False
        )
        assert text == reencoded

    def test_insensitive_to_input_ordering(self):
        rng = random.Random(5)
        doc = synthetic_document(rng, 3, 4)
        shuffled = json.loads(json.dumps(doc))
        for model in shuffled["models"].values():
            rng.shuffle(model.get("concepts", []))
            rng.shuffle(model.get("triples", []))
        shuffled["models"] = dict(
            sorted(shuffled["models"].items(), key=lambda _: rng.random())
        )
        assert canonical_bytes(normalize_record(doc)) == canonical_bytes(
            normalize_record(shuffled)
        )

    def test_sensitive_to_concept_term(self):
        a = normalize_record(minimal_doc(models={"m": {"concepts": [{"category": "c", "term": "t1"}]}}))
        b = normalize_record(minimal_doc(models={"m": {"concepts": [{"category": "c", "term": "t2"}]}}))
        assert canonical_bytes(a) != canonical_bytes(b)

    def test_sensitive_to_triple_element(self):
        a = normalize_record(minimal_doc(models={"m": {"triples": [{"s": "x", "p": "r", "o": "y"}]}}))
        b = normalize_record(minimal_doc(models={"m": {"triples": [{"s": "x", "p": "r", "o": "z"}]}}))
        assert canonical_bytes(a) != canonical_bytes(b)

    def test_sensitive_to_single_evidence_character(self):
        a = normalize_record(minimal_doc(models={"m": {"evidence": ["snippet a"]}}))
        b = normalize_record(minimal_doc(models={"m": {"evidence": ["snippet b"]}}))
        assert canonical_bytes(a) != canonical_bytes(b)

    def test_sensitive_to_evidence_and_metadata(self):
        base = minimal_doc(metadata={"timestamp": "2025-01-01", "source": "s"})
        a = normalize_record(json.loads(json.dumps(base)))
        base["metadata"]["source"] = "s2"
        b = normalize_record(base)
        assert canonical_bytes(a) != canonical_bytes(b)

    def test_raw_output_participates_in_hash(self):
        a = normalize_record(minimal_doc(models={"m": {"raw_output": "one"}}))
        b = normalize_record(minimal_doc(models={"m": {"raw_output": "two"}}))
        c = normalize_record(minimal_doc(models={"m": {}}))
        encodings = {canonical_bytes(a), canonical_bytes(b), canonical_bytes(c)}
        assert len(encodings) == 3


# hypothesis strategies for raw documents ----------------------------------

_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=0, max_size=12
)
_concept_entry = st.fixed_dictionaries(
    {"category": _text, "term": _text},
    optional={"evidence": _text},
)
_triple_entry = st.fixed_dictionaries(
    {"s": _text, "p": _text, "o": _text},
    optional={"confidence": st.floats(min_value=0, max_value=1, allow_nan=False)},
)
_model_value = st.fixed_dictionaries(
    {},
    optional={
        "concepts": st.one_of(st.none(), st.lists(_concept_entry, max_size=5)),
        "triples": st.one_of(st.none(), st.lists(_triple_entry, max_size=5)),
        "evidence": st.one_of(st.none(), st.lists(_text, max_size=3)),
        "raw_output": _text,
    },
)
_documents = st.fixed_dictionaries(
    {
        "lecture": st.sampled_from(["Lecture 1", "Lecture 7"]),
        "slide_id": st.integers(min_value=1, max_value=40),
        "models": st.dictionaries(
            st.sampled_from(["m-a", "m-b", "m-c"]), _model_value, min_size=1, max_size=3
        ),
    }
)


@given(_documents)
@settings(max_examples=80, deadline=None)
def test_normalization_idempotent(doc):
    record = normalize_record(doc)
    again = normalize_record(json.loads(canonical_bytes(record).decode("utf-8")))
    assert again == record
    assert canonical_bytes(again) == canonical_bytes(record)


@given(_documents)
@settings(max_examples=80, deadline=None)
def test_sets_are_duplicate_free(doc):
    record = normalize_record(doc)
    for ext in record.models.values():
        # identities are keys, so duplicate-free once every part is normalized and non-empty
        for identity in [*ext.concepts, *ext.triples]:
            assert all(part and normalize_text(part) == part for part in identity)


def test_to_document_round_trips_structure():
    rng = random.Random(11)
    record = normalize_record(synthetic_document(rng, 2, 5))
    assert normalize_record(to_document(record)) == record


class TestLoadCorpus:
    def test_loads_layout(self, tmp_path):
        write_corpus(tmp_path, n_lectures=1, slides_per_lecture=2)
        assert set(load_corpus(tmp_path)) == {SlideKey(1, 1), SlideKey(1, 2)}
        reader = CorpusReader(tmp_path)
        assert [key for key, _ in reader.read(normalize_record)] == [SlideKey(1, 1), SlideKey(1, 2)]
        assert reader.failures == []

    def test_fault_isolation(self, tmp_path):
        write_corpus(tmp_path, n_lectures=1, slides_per_lecture=2)
        bad = tmp_path / "by_slide" / "Lecture 1" / "Slide3.json"
        bad.write_text("{ not json", encoding="utf-8")
        assert set(load_corpus(tmp_path)) == {SlideKey(1, 1), SlideKey(1, 2)}
        reader = CorpusReader(tmp_path)
        assert [key for key, _ in reader.read(normalize_record)] == [SlideKey(1, 1), SlideKey(1, 2)]
        assert [f.key for f in reader.failures] == [SlideKey(1, 3)]

    def test_empty_root(self, tmp_path):
        with pytest.raises(EmptyCorpus):
            load_corpus(tmp_path)

    def test_root_may_be_by_slide_dir(self, tmp_path):
        write_corpus(tmp_path, n_lectures=1, slides_per_lecture=1)
        assert set(load_corpus(tmp_path / "by_slide")) == {SlideKey(1, 1)}

    def test_ignores_unrelated_files(self, tmp_path):
        write_corpus(tmp_path, n_lectures=1, slides_per_lecture=1)
        (tmp_path / "by_slide" / "README.txt").write_text("hi")
        (tmp_path / "by_slide" / "Lecture 1" / "notes.json").write_text("{}")
        assert set(load_corpus(tmp_path)) == {SlideKey(1, 1)}


@pytest.mark.parametrize("kind, holds, fails", [
    (records.INTEGER, [0, -3, 10**400], [True, 1.0, "1", None]),
    (records.NUMBER, [0, -1.5, -0.0, 10**300, 1.7e308],
     [True, "5", float("nan"), float("inf"), 10**400, None]),
    (records.STRING, ["", "x"], [None, 5, b"x", ["x"]]),
    (records.RATIONAL, ["77/100", "3000", "-3/2", "0"],
     [3000, 0.77, "1.0", "6/4", "3/1", "-0", "0/1", " 3", "+3", "1e3", "1/0", "1e-100000000"]),
    (records.ACCOUNT, ["0x" + "ab" * 20], ["0x" + "AB" * 20, "0X" + "ab" * 20, "ab" * 21, "0x" + "ab" * 19 + "a",
                                         "0x" + "ab" * 19 + "ag", b"0x" + b"ab" * 20, None]),
    (records.OBJECT, [{}, {"a": 1}], [[], [("a", 1)], "abc", 5, None]),
    (records.LIST, [[], [1]], [{}, (1,), "abc", 5, None]),
], ids=["integer", "number", "string", "rational", "account", "object", "list"])
def test_json_kinds(kind, holds, fails):
    _, test = kind
    assert [value for value in holds if not test(value)] == []
    assert [value for value in fails if test(value)] == []


def test_read_fields_names_the_first_field_of_another_kind():
    entry = {"lecture_id": 1, "slide_id": True, "t_local": "5", "other": None}
    with pytest.raises(ValueError, match=r"^entry 3: slide_id is not a JSON integer: True$"):
        records.read_fields(entry, "time manifest", "entry 3")
    with pytest.raises(ValueError, match=r"^t_local is not a finite number: '5'$"):
        records.read_fields(dict(entry, slide_id=2), "time manifest")
    with pytest.raises(KeyError):
        records.read_fields({"lecture_id": 1}, "time manifest")
    with pytest.raises(ValueError, match=r"^entry 3 is not a JSON object: \[1\]$"):
        records.read_fields([1], "time manifest", "entry 3")
    with pytest.raises(ValueError, match=r"^time manifest is not a JSON object: 5$"):
        records.read_fields(5, "time manifest")
    values = records.read_fields(dict(entry, slide_id=2, t_local=5), "time manifest")
    assert list(values.items()) == [("lecture_id", 1), ("slide_id", 2), ("t_local", 5)]
