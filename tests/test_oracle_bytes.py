"""Normalization and commitments against the benchmark's oracle, which shares no code with slideprov.

``perfbench/oracle.py`` recomputes a raw document's canonical bytes and
commitment from the rules the README states, with a regex for whitespace
and the spec-literal Keccak of ``tests/keccak_reference.py``; it is
imported here as it is.  The generated documents hold whitespace that
``str.split`` and ``\\s`` both fold (tab, U+001C, U+00A0, U+3000), case
variants and duplicates of one identity, single-object, ``null`` and
non-object entries, confidences of every JSON kind, and non-string
evidence.  Their ``lecture``, ``paths`` and ``metadata`` values are
strings, and every model is an object, as the oracle reads them.
"""

import importlib.util
import json
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from conftest import run_cli
from slideprov.records import SlideKey, normalized_bytes

ORACLE = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
_spec = importlib.util.spec_from_file_location("perfbench_oracle", ORACLE)
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)

# spellings of three texts ("a", "a b", "é"), so that case variants and duplicate identities are common
WORD = st.sampled_from(["a", "A", " a\t", "a\x1cb", "A\xa0 B", "a\u3000b", "É", "é "])
TEXT = WORD | st.text(alphabet="aAbB é\t\x1c\xa0\u3000\"\\", max_size=5)
NOT_TEXT = st.sampled_from([None, 7, True, [], {}])
CONFIDENCE = st.sampled_from([0, -0.0, 1, 1.5, True, "0.5", 0.25, None]) | st.floats(0, 1)
# hypothesis draws the first values of a sampled list the most, so the common one leads
OFTEN = st.sampled_from([True] * 9 + [False])  # true nine times in ten


@st.composite
def field(draw) -> object:
    """One of the three texts nine times in ten, else any text or a value that is not text."""
    return draw(WORD) if draw(OFTEN) else draw(TEXT | NOT_TEXT)


@st.composite
def entry(draw, fields: tuple[str, ...], value_field: str, value: st.SearchStrategy) -> object:
    """An element entry, any field of which may be absent, or a value that is not an object."""
    if not draw(OFTEN):
        return draw(NOT_TEXT)
    doc = {name: draw(field()) for name in fields if draw(OFTEN)}
    if draw(st.booleans()):
        doc[value_field] = draw(value)
    return doc


def container(item: st.SearchStrategy) -> st.SearchStrategy:
    """A list of entries, one entry alone, or ``null``."""
    return st.lists(item, min_size=1, max_size=8) | item | st.none()


MODEL = st.fixed_dictionaries({
    "concepts": container(entry(("category", "term"), "evidence", field())),
    "triples": container(entry(("s", "p", "o"), "confidence", CONFIDENCE)),
}, optional={"evidence": st.lists(field(), max_size=3) | field(), "raw_output": field()})
DOCUMENT = st.fixed_dictionaries(
    {"lecture": TEXT.filter(bool), "models": st.dictionaries(TEXT, MODEL, min_size=1, max_size=3)},
    optional={"paths": st.fixed_dictionaries({}, optional=dict.fromkeys(("image", "text", "json"), TEXT)),
              "metadata": st.fixed_dictionaries(
                  {}, optional=dict.fromkeys(("timestamp", "source", "hash_input_format"), TEXT))})


@given(doc=DOCUMENT, key=st.sampled_from([SlideKey(1, 1), SlideKey(3, 12)]))
@settings(max_examples=500, deadline=None)
def test_normalized_bytes_are_the_oracles(doc, key):
    assert normalized_bytes(doc, key) == oracle.canonical_bytes(doc, key)


@given(docs=st.lists(DOCUMENT, min_size=1, max_size=4))
@settings(max_examples=5, deadline=None)
def test_registered_commitments_are_the_oracles(docs):
    with tempfile.TemporaryDirectory() as tmp:
        lecture = Path(tmp, "corpus", "by_slide", "Lecture 2")
        lecture.mkdir(parents=True)
        for slide, doc in enumerate(docs, 1):
            (lecture / f"Slide{slide}.json").write_text(json.dumps(doc), encoding="utf-8")
        ledger = Path(tmp, "ledger.json")
        code, _, err = run_cli(["register", "--corpus", str(lecture.parents[1]), "--ledger", str(ledger),
                                "--out", str(Path(tmp, "out"))])
        assert code == 0, err
        events = json.loads(ledger.read_bytes())["events"]
    assert [(e["lectureId"], e["slideId"]) for e in events] == [(2, slide) for slide in range(1, len(docs) + 1)]
    for event, doc in zip(events, docs):
        key = (event["lectureId"], event["slideId"])
        assert (event["slideHash"], event["uri"]) == (oracle.commitment(doc, key), oracle.uri(key))
