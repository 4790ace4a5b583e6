"""``compare-runs`` reads both runs in one paired pass, ``records.read_runs``,
which loads a file of run B with the bytes of run A's once.

Whatever run B holds next to run A, the command must write the reports
that ``compare_corpora`` gives over two independently loaded corpora, in
which no record is shared, and the same warnings; also with its pass
split across processes.
"""

import contextlib
import io
import json
import random
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import forced_split, synthetic_document
from slideprov import load_corpus, records
from slideprov.cli import compare_reports, main
from slideprov.integrity import compare_corpora
from slideprov.records import CorpusReader, SlideKey, normalize_record, read_runs
from slideprov.reports import write_reports

KEYS = [SlideKey(lecture, slide) for lecture in (1, 2) for slide in (1, 2, 3, 4)]
ANCHOR = SlideKey(3, 1)  # valid and byte-identical in both runs, so the runs always share a key
A_KINDS = ["valid", "valid", "conflicting ids", "empty model", "unparseable", "not an object", "absent"]
B_KINDS = ["same bytes", "same bytes", "reserialized", "edited concept", "dropped model",
           "unparseable", "not an object", "absent"]


def _path(root: Path, key: SlideKey) -> Path:
    return root / "by_slide" / f"Lecture {key.lecture_id}" / f"Slide{key.slide_id}.json"


def _runs(root: Path, files: dict[SlideKey, tuple[str, str]], seed: int) -> tuple[Path, Path]:
    """Write run A and run B under ``root``; ``files`` gives each key's (A kind, B kind)."""
    rng = random.Random(seed)
    run_a, run_b = root / "run_a", root / "run_b"
    for key, (kind_a, kind_b) in files.items():
        doc = synthetic_document(rng, key.lecture_id, key.slide_id)
        if kind_a == "conflicting ids":
            doc["slide_id"] = key.slide_id + 100
        elif kind_a == "empty model":  # its concept and triple sets are empty in both runs
            doc["models"]["vision-gamma"].update(concepts=[], triples=[])
        data_a = {"unparseable": b'{"models": ', "not an object": b"[1, 2]",
                  "absent": None}.get(kind_a, json.dumps(doc).encode("ascii"))
        if kind_b == "reserialized":  # canonically equal, not byte-equal
            data_b = json.dumps(dict(reversed(doc.items())), indent=1).encode("ascii")
        elif kind_b == "edited concept":
            doc["models"]["vision-alpha"]["concepts"][0]["term"] += " rerun"
            data_b = json.dumps(doc).encode("ascii")
        elif kind_b == "dropped model":
            del doc["models"]["vision-delta"]
            data_b = json.dumps(doc).encode("ascii")
        else:
            data_b = {"same bytes": data_a, "unparseable": b"{", "not an object": b'"text"',
                      "absent": None}[kind_b]
        for run, data in ((run_a, data_a), (run_b, data_b)):
            if data is not None:
                _path(run, key).parent.mkdir(parents=True, exist_ok=True)
                _path(run, key).write_bytes(data)
    return run_a, run_b


@contextlib.contextmanager
def _warnings_as_printed():
    """The messages of the warnings a command would print, under the default filter."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")  # a repeated message from one place shows once
        yield caught


FILES = st.dictionaries(st.sampled_from(KEYS), st.tuples(st.sampled_from(A_KINDS), st.sampled_from(B_KINDS)),
                        max_size=8)


@given(files=FILES, seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_compare_runs_equals_comparing_two_loaded_corpora(files, seed):
    _check_compare_runs(files, seed, 1)


@pytest.mark.parametrize("ranges", (2, 3))
@given(files=FILES, seed=st.integers(0, 2**16))
@settings(max_examples=30, deadline=None)
def test_split_compare_runs_equals_comparing_two_loaded_corpora(ranges, files, seed):
    _check_compare_runs(files, seed, ranges)


def _check_compare_runs(files: dict, seed: int, ranges: int) -> None:
    """``compare-runs`` over ``ranges`` key ranges gives what comparing the two loaded corpora gives."""
    files = {**files, ANCHOR: ("valid", "same bytes")}
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        run_a, run_b = _runs(root, files, seed)

        with _warnings_as_printed() as caught:
            corpus_a, corpus_b = load_corpus(run_a), load_corpus(run_b)
            reference = compare_corpora(corpus_a.items(), corpus_b.items())
        reference_warnings = sorted(str(w.message) for w in caught)
        assert not any(corpus_a[key] is corpus_b[key] for key in corpus_a.keys() & corpus_b.keys())
        write_reports(root / "reference", compare_reports(reference), "json")

        stderr = io.StringIO()
        with forced_split(ranges) as forks, _warnings_as_printed() as caught, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(["compare-runs", str(run_a), str(run_b), "--out", str(root / "out"),
                         "--format", "json"])
        assert code == 0
        union = [key for key in files if _path(run_a, key).exists() or _path(run_b, key).exists()]
        assert len(forks) == min(ranges, len(union)) - 1
        for name in ("compare_runs.json", "compare_summary.json"):
            assert (root / "out" / name).read_bytes() == (root / "reference" / name).read_bytes(), name

        # the same warnings, each printed once: a byte-identical file with
        # conflicting ids too gives its conflict warning once
        messages = [str(w.message) for w in caught]
        assert sorted(messages) == reference_warnings
        assert len(set(messages)) == len(messages)
        # each file that does not load, run A's first, once
        failing = [_path(run, key) for run, corpus in ((run_a, corpus_a), (run_b, corpus_b))
                   for key in sorted(files) if _path(run, key).exists() and key not in corpus]
        skipped = stderr.getvalue().splitlines()
        assert len(skipped) == len(failing)
        assert all(line.startswith(f"warning: skipped {path}: ") for line, path in zip(skipped, failing))


def _write(root: Path, key: SlideKey, data: bytes) -> None:
    _path(root, key).parent.mkdir(parents=True, exist_ok=True)
    _path(root, key).write_bytes(data)


def _counting_parses(monkeypatch) -> list[Path]:
    """The paths ``records.read_json`` parses from now on, in order."""
    parsed: list[Path] = []

    def read_json(path, *known, read=records.read_json):
        data, doc = read(path, *known)
        if doc is not records.KNOWN:
            parsed.append(Path(path))
        return data, doc
    monkeypatch.setattr(records, "read_json", read_json)
    return parsed


def test_read_runs_loads_the_same_bytes_under_the_same_key_once(tmp_path, monkeypatch):
    data = json.dumps(synthetic_document(random.Random(1), 1, 1)).encode("ascii")
    for run in ("a", "b"):
        _write(tmp_path / run, SlideKey(1, 1), data)
    run_a, run_b = CorpusReader(tmp_path / "a"), CorpusReader(tmp_path / "b")
    parsed = _counting_parses(monkeypatch)

    [(key, a, b)] = read_runs(run_a, run_b, normalize_record)
    assert key == a.key == SlideKey(1, 1) and a is b
    assert parsed == [_path(tmp_path / "a", key)]
    assert (run_a.loaded, run_b.loaded) == (1, 1)


def test_read_runs_loads_run_a_bytes_under_another_key_on_their_own(tmp_path, monkeypatch):
    data = json.dumps(synthetic_document(random.Random(1), 1, 1)).encode("ascii")
    _write(tmp_path / "a", SlideKey(1, 1), data)
    _write(tmp_path / "b", SlideKey(1, 2), data)
    parsed = _counting_parses(monkeypatch)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        triples = list(read_runs(CorpusReader(tmp_path / "a"), CorpusReader(tmp_path / "b"), normalize_record))
    [(key_a, a, none_b), (key_b, none_a, b)] = triples
    assert (key_a, none_b, key_b, none_a) == (SlideKey(1, 1), None, SlideKey(1, 2), None)
    assert a.key == key_a and b.key == key_b
    assert parsed == [_path(tmp_path / "a", key_a), _path(tmp_path / "b", key_b)]
    assert [str(w.message) for w in caught] == [
        "document ids SlideKey(lecture_id=1, slide_id=1) conflict with file-derived key "
        "SlideKey(lecture_id=1, slide_id=2); file wins"]


@pytest.mark.parametrize("data", (b'{"models": ', b"[1, 2]"), ids=("unparseable", "not an object"))
def test_read_runs_names_a_file_that_fails_in_both_runs_once_per_run(tmp_path, data):
    valid = json.dumps(synthetic_document(random.Random(2), 1, 2)).encode("ascii")
    for run in ("a", "b"):
        _write(tmp_path / run, SlideKey(1, 1), data)
        _write(tmp_path / run, SlideKey(1, 2), valid)
    run_a, run_b = CorpusReader(tmp_path / "a"), CorpusReader(tmp_path / "b")

    [(key, a, b)] = read_runs(run_a, run_b, normalize_record)
    assert key == SlideKey(1, 2) and a is b
    for run, reader in (("a", run_a), ("b", run_b)):
        assert [(f.path, f.key) for f in reader.failures] == [(str(_path(tmp_path / run, SlideKey(1, 1))),
                                                               SlideKey(1, 1))]
        assert reader.loaded == 1


def test_read_runs_yields_no_key_that_neither_run_loads(tmp_path):
    valid = json.dumps(synthetic_document(random.Random(3), 2, 1)).encode("ascii")
    _write(tmp_path / "a", SlideKey(1, 1), b"{")
    _write(tmp_path / "b", SlideKey(1, 1), b'"text"')
    _write(tmp_path / "a", SlideKey(1, 2), b"[]")
    _write(tmp_path / "b", SlideKey(2, 1), valid)
    run_a, run_b = CorpusReader(tmp_path / "a"), CorpusReader(tmp_path / "b")

    assert [(key, a, b is not None) for key, a, b in read_runs(run_a, run_b, normalize_record)] == [
        (SlideKey(2, 1), None, True)]
    assert (len(run_a.failures), len(run_b.failures), run_a.loaded, run_b.loaded) == (2, 1, 0, 1)
    # only the given keys are read
    run_a, run_b = CorpusReader(tmp_path / "a"), CorpusReader(tmp_path / "b")
    assert list(read_runs(run_a, run_b, normalize_record, keys=[SlideKey(1, 2)])) == []
    assert [f.key for f in run_a.failures + run_b.failures] == [SlideKey(1, 2)]
