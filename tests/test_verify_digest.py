"""``verify`` settles a file by its file digest only where recomputing it gives the same verdict.

A corpus of 4 slides is registered once.  Each example restores it, makes
one generated edit, and runs ``verify`` at the command line.  The edit is
to the JSON of one registered file (a value, a key or entry added or
removed, a value of another JSON type, whitespace, bytes after the
document), or to one field of the ledger, ``slideHash`` or ``fileDigest``,
under a recomputed checksum.  Full recomputation is done here: each file
is read, ``records.normalized_bytes`` encodes it and ``keccak256`` hashes
it, against the event's ``slideHash``.  ``verify``'s verdicts, recomputed
commitments and exit code must be that recomputation's.  The ``file``
column must be ``same`` exactly where ``sha256(slideHash, file bytes)``
is the event's ``fileDigest``, and every ``Match`` that is not ``same``
prints one ``warning:`` line.
"""

import csv
import hashlib
import json
import re
import textwrap
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from conftest import run_cli, write_corpus
from slideprov import records
from slideprov.errors import MalformedDocument, MissingKey
from slideprov.keccak import keccak256
from slideprov.ledger import checksum
from slideprov.records import SlideKey

KEYS = [SlideKey(lecture, slide) for lecture in (1, 2) for slide in (1, 2)]


@pytest.fixture(scope="module")
def registered(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("verify-digest")
    corpus = write_corpus(tmp / "corpus", n_lectures=2, slides_per_lecture=2)
    ledger = tmp / "ledger.json"
    code, _, err = run_cli(["register", "--corpus", str(corpus), "--ledger", str(ledger), "--out", str(tmp / "r")])
    assert code == 0, err
    return {"tmp": tmp, "corpus": corpus, "ledger": ledger, "ledger_bytes": ledger.read_bytes(),
            "files": {key: records.record_path(corpus, key).read_bytes() for key in KEYS}}


def _digest(slide_hash: str, data: bytes) -> str:
    return "sha256:" + hashlib.sha256(slide_hash.encode("ascii") + data).hexdigest()


def _recomputed(corpus, key: SlideKey) -> str | None:
    """The commitment of ``key``'s file made the full way, or None when the file does not load."""
    try:
        _, raw = records.read_json(records.record_path(corpus, key))
        return "0x" + keccak256(records.normalized_bytes(raw, key)).hex()
    except (ValueError, MalformedDocument, MissingKey):
        return None


def verify_against_recomputation(ws, files: dict, doc: dict) -> list[dict]:
    """Write ``files`` and the ledger ``doc``, run ``verify``, and check it against full recomputation.

    Returns the verdict rows.
    """
    for key, data in files.items():
        records.record_path(ws["corpus"], key).write_bytes(data)
    ws["ledger"].write_text(json.dumps(doc), encoding="utf-8")
    out = ws["tmp"] / "out"
    code, stdout, err = run_cli(["verify", "--corpus", str(ws["corpus"]), "--ledger", str(ws["ledger"]),
                                 "--out", str(out)])
    with open(out / "verdicts.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))

    events = {(e["lectureId"], e["slideId"]): e for e in doc["events"]}
    expected, errors, warnings = [], [], []
    for key in KEYS:
        event = events[key]
        commitment = _recomputed(ws["corpus"], key)
        verdict = ("Missing" if commitment is None else
                   "Match" if commitment == event["slideHash"].lower() else "Mismatch")
        file = ("" if commitment is None else
                "same" if _digest(event["slideHash"], files[key]) == event["fileDigest"] else "changed")
        expected.append({"lecture_id": str(key[0]), "slide_id": str(key[1]), "recomputed": commitment or "",
                         "on_chain": event["slideHash"], "verdict": verdict, "file": file})
        if verdict != "Match":
            errors.append(f"error: ({key[0]},{key[1]}): {verdict}")
        elif file == "changed":
            warnings.append(f"warning: ({key[0]},{key[1]}): Match, but the file's bytes are not the ones registered")
    # a file that does not load also gets the reader's own line
    skipped = [line for line in err.splitlines() if line.startswith("warning: skipped ")]
    lines = [line for line in err.splitlines() if line not in skipped]
    # the verdicts first, then the file column
    assert [{**row, "file": None} for row in rows] == [{**row, "file": None} for row in expected]
    assert code == (1 if errors else 0)
    assert stdout == f"verified 4 slides: {4 - len(errors)} match, {len(errors)} fail\n"
    assert rows == expected
    assert sorted(lines) == sorted(errors + warnings), lines
    assert len(skipped) == [row["verdict"] for row in expected].count("Missing"), skipped
    return rows


# -- generated edits ------------------------------------------------------------

NAMES = st.sampled_from(["term", "category", "evidence", "s", "p", "o", "confidence", "concepts", "triples",
                         "raw_output", "lecture", "lecture_id", "slide_id", "models", "paths", "metadata"])
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(allow_nan=False, allow_infinity=False),
                    st.text(max_size=6))
VALUES = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(st.one_of(NAMES, st.text(max_size=4)), inner, max_size=3)),
    max_leaves=6)


def _places(doc):
    """Every (holder, key) below ``doc``: an object and its key, or a list and its index."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for name, value in items:
        yield doc, name
        yield from _places(value)


def _type_of(value) -> str:
    return "number" if type(value) in (int, float) else type(value).__name__


# (the registered file, the kind of edit, the random choices of the place and the new value, a JSON value)
FILE_EDITS = st.tuples(st.sampled_from(KEYS),
                       st.sampled_from(["value", "type", "add-key", "remove", "add-entry", "whitespace", "trailing"]),
                       st.randoms(use_true_random=False), VALUES)


def apply_file_edit(original: bytes, kind: str, rng, value) -> bytes:
    """``original``'s bytes after one edit of ``kind``: its place and new value drawn from ``rng`` and ``value``."""
    doc = json.loads(original)
    places = list(_places(doc))
    if kind == "whitespace":
        return json.dumps(doc, indent=rng.choice([None, 0, 1, 2, "\t"]),
                          separators=rng.choice([(",", ":"), (" , ", " : "), (",\n", ":\t")])).encode("utf-8")
    if kind == "trailing":
        return original + rng.choice([b"\n", b" ", b"\r\n", b"\t\n\n", b"x", b"}", b"\x00", b"[]"])
    if kind == "add-key":
        holders = [doc] + [holder[name] for holder, name in places if isinstance(holder[name], dict)]
        rng.choice(holders)[rng.choice(["term", "confidence", "extra", "models", "evidence", "s"])] = value
    elif kind == "add-entry":
        holders = [holder[name] for holder, name in places if isinstance(holder[name], list)]
        target = rng.choice(holders)
        target.insert(rng.randrange(len(target) + 1), value)
    else:
        holder, name = rng.choice(places)
        if kind == "remove":
            del holder[name]
        elif kind == "type":
            holder[name] = value if _type_of(value) != _type_of(holder[name]) else [value]
        elif isinstance(holder[name], str):
            holder[name] = rng.choice([holder[name] + "x", holder[name].upper(), f"  {holder[name]} ", ""])
        elif isinstance(holder[name], bool) or holder[name] is None:
            holder[name] = not holder[name]
        elif type(holder[name]) in (int, float):
            holder[name] = rng.choice([holder[name] + 1, -holder[name], 0, 1.5, holder[name] / 3])
        else:
            holder[name] = value
    return json.dumps(doc).encode("utf-8")


@settings(max_examples=150, deadline=None)
@given(edit=FILE_EDITS)
def test_a_file_edit_gets_the_verdict_of_full_recomputation(registered, edit):
    key, kind, rng, value = edit
    files = dict(registered["files"])
    files[key] = apply_file_edit(files[key], kind, rng, value)
    verify_against_recomputation(registered, files, json.loads(registered["ledger_bytes"]))


def _other_text(value: str, rng) -> str:
    return rng.choice([value.upper(), value[:-1] + ("0" if value[-1] != "0" else "1"), "", value + " ",
                       "0x" + "ab" * 32, "sha256:" + "cd" * 32, "not a digest"])


@settings(max_examples=60, deadline=None)
@given(index=st.integers(0, len(KEYS) - 1), name=st.sampled_from(["slideHash", "fileDigest"]),
       rng=st.randoms(use_true_random=False), other=st.booleans())
def test_a_ledger_field_edit_gets_the_verdict_of_full_recomputation(registered, index, name, rng, other):
    doc = json.loads(registered["ledger_bytes"])
    event = doc["events"][index]
    # another event's value, or another text
    event[name] = doc["events"][(index + 1) % len(KEYS)][name] if other else _other_text(event[name], rng)
    doc["checksum"] = checksum(doc)
    verify_against_recomputation(registered, registered["files"], doc)


# -- the edits normalization drops, and the limits --------------------------------


def _first(doc, test):
    """The first concept or triple of ``doc``, by model name, that ``test`` accepts."""
    return next(entry for _, model in sorted(doc["models"].items())
                for entry in model["concepts"] + model["triples"] if test(entry))


def _no_confidence(doc, value):
    _first(doc, lambda entry: "s" in entry and "confidence" not in entry)["confidence"] = value


def _recased(doc):
    concept = _first(doc, lambda entry: "term" in entry)
    concept["term"] = f"  {concept['term'].upper()}  "


# The file edits a commitment does not cover: each leaves the normalized record as it was.
DROPPED = {
    "non-object concept entry": lambda doc: doc["models"]["vision-alpha"]["concepts"].append(5),
    "concept without a term": lambda doc: doc["models"]["vision-alpha"]["concepts"].append({"category": "x"}),
    "unknown key in a model": lambda doc: doc["models"]["vision-alpha"].update(unknown="value"),
    "unknown top-level key": lambda doc: doc.update(unknown={"nested": [1, 2]}),
    "confidence 1.5 on a triple with none": lambda doc: _no_confidence(doc, 1.5),
    "confidence true on a triple with none": lambda doc: _no_confidence(doc, True),
    "term re-cased and padded": _recased,
}


@pytest.mark.parametrize("name", DROPPED)
def test_an_edit_normalization_drops_is_a_match_with_a_changed_file(registered, name):
    key = next(key for key in KEYS if any("confidence" not in triple for model in
                                          json.loads(registered["files"][key])["models"].values()
                                          for triple in model["triples"]))
    doc = json.loads(registered["files"][key])
    DROPPED[name](doc)
    files = {**registered["files"], key: json.dumps(doc).encode("utf-8")}
    rows = verify_against_recomputation(registered, files, json.loads(registered["ledger_bytes"]))
    assert [(row["verdict"], row["file"]) for row in rows] == [
        ("Match", "changed" if each == key else "same") for each in KEYS]


def test_a_lone_slide_hash_edit_is_a_mismatch(registered):
    doc = json.loads(registered["ledger_bytes"])
    doc["events"][1]["slideHash"] = "0x" + "cd" * 32
    doc["checksum"] = checksum(doc)
    rows = verify_against_recomputation(registered, registered["files"], doc)
    assert [(row["verdict"], row["file"]) for row in rows] == [
        ("Match", "same"), ("Mismatch", "changed"), ("Match", "same"), ("Match", "same")]


def test_register_records_the_file_digest_of_each_files_bytes(registered):
    events = json.loads(registered["ledger_bytes"])["events"]
    assert [(e["lectureId"], e["slideId"]) for e in events] == KEYS
    for event in events:
        data = registered["files"][event["lectureId"], event["slideId"]]
        assert event["fileDigest"] == _digest(event["slideHash"], data)


def test_a_consistent_rewrite_of_both_fields_passes(registered):
    # the documented limit: whoever edits the file can recompute the digest, the commitment and the checksum
    key = KEYS[0]
    doc = json.loads(registered["ledger_bytes"])
    edited = registered["files"][key].replace(b"fixture-pipeline", b"another-pipeline")
    event = doc["events"][0]
    event["slideHash"] = "0x" + "ef" * 32
    event["fileDigest"] = _digest(event["slideHash"], edited)
    doc["checksum"] = checksum(doc)
    for k, data in {**registered["files"], key: edited}.items():
        records.record_path(registered["corpus"], k).write_bytes(data)
    registered["ledger"].write_text(json.dumps(doc), encoding="utf-8")
    code, stdout, err = run_cli(["verify", "--corpus", str(registered["corpus"]), "--ledger",
                                 str(registered["ledger"]), "--out", str(registered["tmp"] / "out")])
    assert (code, stdout, err) == (0, "verified 4 slides: 4 match, 0 fail\n", "")


def _readme_recipe() -> str:
    """README's conversion of an earlier ledger file: its one code block that gives events their file digests."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    [block] = [block for block in re.findall(r"```python\n(.*?)```", readme, re.S) if "file_digest" in block]
    return textwrap.dedent(block)


@pytest.mark.parametrize("edited", [False, True], ids=["unchanged", "edited"])
def test_the_readme_recipe_converts_a_v2_ledger(registered, tmp_path, monkeypatch, edited):
    # a v2 file: the same events without their digests, under the v2 format and its own checksum
    doc = json.loads(registered["ledger_bytes"])
    for event in doc["events"]:
        del event["fileDigest"]
    doc["format"] = "slideprov-ledger/v2"
    doc["checksum"] = checksum(doc)
    v2 = json.dumps(doc).encode("utf-8")
    (tmp_path / "ledger.json").write_bytes(v2)
    (tmp_path / "corpus" / "by_slide").mkdir(parents=True)
    for key, data in registered["files"].items():
        path = records.record_path(tmp_path / "corpus", key)
        path.parent.mkdir(exist_ok=True)
        path.write_bytes(data.replace(b"term", b"TERM x") if edited and key == KEYS[2] else data)
    monkeypatch.chdir(tmp_path)
    if edited:  # the file no longer gives its commitment: refused, and the file is left as it was
        with pytest.raises(SystemExit, match=r"^slide \(2, 1\): its file no longer gives the registered commitment$"):
            exec(_readme_recipe(), {})
        assert (tmp_path / "ledger.json").read_bytes() == v2
    else:  # the file register wrote for the same corpus, byte for byte
        exec(_readme_recipe(), {})
        assert (tmp_path / "ledger.json").read_bytes() == registered["ledger_bytes"]
