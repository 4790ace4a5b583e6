"""Each input is built once: one identity-set pass for analyze, a listing
without loading for time-gaps."""

import contextlib
import io
import json

from conftest import write_corpus
from slideprov import records
from slideprov.cli import main
from slideprov.integrity import local_mtimes
from slideprov.records import ModelExtraction, load_corpus


def quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def test_analyze_builds_each_identity_set_once(tmp_path, monkeypatch):
    corpus = write_corpus(tmp_path / "corpus", n_lectures=2, slides_per_lecture=4)
    slide_models = sum(len(r.models) for r in load_corpus(corpus).values())
    seen = {"concept_identities": [], "triple_identities": []}
    for name, calls in seen.items():
        original = getattr(ModelExtraction, name)

        def counted(self, original=original, calls=calls):
            calls.append(self)
            return original(self)
        monkeypatch.setattr(ModelExtraction, name, counted)

    assert quiet_main(["analyze", "--corpus", str(corpus), "--out", str(tmp_path / "out")]) == 0
    for name, calls in seen.items():
        assert len(calls) == slide_models, name
        assert len({id(ext) for ext in calls}) == slide_models, name


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
