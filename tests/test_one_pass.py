"""Each input is built once: analyze and compare-runs read each document
once through the normalization core, compare-runs encodes only slides
whose identity sets agree, and time-gaps lists the corpus without
loading it."""

import contextlib
import io
import json
import shutil

from conftest import write_corpus
from slideprov import integrity, records
from slideprov.cli import main
from slideprov.integrity import local_mtimes
from slideprov.records import load_corpus


def quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def _normalized(monkeypatch) -> list:
    """The documents the normalization core ``_tables`` reads from now on, one entry per read."""
    docs = []

    def core(raw, key, tables=records._tables):
        docs.append(raw)  # held, so that no two documents share an id
        return tables(raw, key)
    monkeypatch.setattr(records, "_tables", core)
    return docs


def test_analyze_builds_each_identity_set_once(tmp_path, monkeypatch):
    corpus = write_corpus(tmp_path / "corpus", n_lectures=2, slides_per_lecture=4)
    docs = _normalized(monkeypatch)
    assert quiet_main(["analyze", "--corpus", str(corpus), "--out", str(tmp_path / "out")]) == 0
    assert len(docs) == len({id(doc) for doc in docs}) == 8


def test_compare_runs_normalizes_each_file_once_and_encodes_only_agreeing_slides(tmp_path, monkeypatch):
    run_a = write_corpus(tmp_path / "a", n_lectures=2, slides_per_lecture=4)
    run_b = tmp_path / "b"
    shutil.copytree(run_a, run_b)
    edited, reserialized = (run_b / "by_slide" / "Lecture 1" / f"Slide{i}.json" for i in (1, 2))
    doc = json.loads(edited.read_text(encoding="utf-8"))
    doc["models"]["vision-alpha"]["concepts"].append({"category": "revision", "term": "rerun"})
    edited.write_text(json.dumps(doc), encoding="utf-8")
    reserialized.write_text(json.dumps(json.loads(reserialized.read_text(encoding="utf-8")), indent=1),
                            encoding="utf-8")
    encoded = []
    monkeypatch.setattr(integrity, "canonical_bytes", lambda record: encoded.append(record.key) or b"")
    docs = _normalized(monkeypatch)

    assert quiet_main(["compare-runs", str(run_a), str(run_b), "--out", str(tmp_path / "out")]) == 0
    # run A's 8 files and run B's 2 that differ from them byte for byte
    assert len(docs) == len({id(doc) for doc in docs}) == 10
    # the edited slide's concept sets differ, so only the reserialized one is encoded, once per run
    assert encoded == [(1, 2), (1, 2)]
    summary = json.loads((tmp_path / "out" / "compare_summary.json").read_text(encoding="utf-8"))
    assert (summary["byte_equal"], summary["perfect_pairs"], summary["pairs"]) == (7, 31, 32)


def test_local_mtimes_never_normalizes(tmp_path, monkeypatch):
    corpus = write_corpus(tmp_path / "corpus")
    expected = sorted(load_corpus(corpus))

    def refuse(*args, **kwargs):
        raise AssertionError("local_mtimes normalized a record")
    monkeypatch.setattr(records, "normalize_record", refuse)
    assert sorted(local_mtimes(corpus)) == expected


def _registered(tmp_path):
    corpus = write_corpus(tmp_path / "corpus", n_lectures=2, slides_per_lecture=3)
    common = ["--corpus", str(corpus), "--ledger", str(tmp_path / "ledger.json"),
              "--out", str(tmp_path / "out")]
    assert quiet_main(["register", *common]) == 0
    return corpus, common


def test_time_gaps_audits_a_registered_file_that_no_longer_parses(tmp_path):
    corpus, common = _registered(tmp_path)
    (corpus / "by_slide" / "Lecture 2" / "Slide3.json").write_text("{not json", encoding="utf-8")
    assert quiet_main(["time-gaps", *common]) == 0
    summary = json.loads((tmp_path / "out" / "time_gap_summary.json").read_text(encoding="utf-8"))
    assert summary["count"] == 6


def test_time_gaps_rejects_an_unregistered_unparseable_file(tmp_path):
    corpus, common = _registered(tmp_path)
    (corpus / "by_slide" / "Lecture 9").mkdir()
    (corpus / "by_slide" / "Lecture 9" / "Slide1.json").write_text("{not json", encoding="utf-8")
    assert quiet_main(["time-gaps", *common]) == 1
