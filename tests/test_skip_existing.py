"""``register --skip-existing`` reads only the files of unregistered slides."""

import json

from conftest import run_cli as run, write_corpus
from slideprov import commitment, records


def _registered(tmp_path, lectures=2, slides=3):
    corpus = write_corpus(tmp_path / "corpus", n_lectures=lectures, slides_per_lecture=slides)
    common = ["--corpus", str(corpus), "--ledger", str(tmp_path / "ledger.json"),
              "--out", str(tmp_path / "out")]
    assert run(["register", *common])[0] == 0
    return corpus, common


def _summary(tmp_path):
    return json.loads((tmp_path / "out" / "register_summary.json").read_text(encoding="utf-8"))


def test_normalizes_each_unregistered_file_once_and_no_registered_one(tmp_path, monkeypatch):
    corpus, common = _registered(tmp_path)
    write_corpus(tmp_path / "more", n_lectures=4, slides_per_lecture=2, seed=99)
    for lecture in (3, 4):
        (tmp_path / "more" / "by_slide" / f"Lecture {lecture}").rename(
            corpus / "by_slide" / f"Lecture {lecture}")
    calls = []
    original = commitment.normalized_bytes  # what register's one pass normalizes each file with

    def counted(raw, key):
        calls.append(key)
        return original(raw, key)
    monkeypatch.setattr(commitment, "normalized_bytes", counted)

    code, out, err = run(["register", *common, "--skip-existing"])
    assert (code, err) == (0, "")
    assert sorted(calls) == [records.SlideKey(lecture, slide)
                             for lecture in (3, 4) for slide in (1, 2)]
    assert out.startswith("registered 4/4 slides (skipped 6, failed 0)")


def test_registered_file_that_no_longer_parses_is_skipped_unread(tmp_path):
    # declared behaviour: such a file is not warned about, and counts as skipped
    corpus, common = _registered(tmp_path, lectures=1, slides=3)
    (corpus / "by_slide" / "Lecture 1" / "Slide2.json").write_text("{not json", encoding="utf-8")
    code, out, err = run(["register", *common, "--skip-existing"])
    assert (code, err) == (0, "")
    assert out.startswith("registered 0/0 slides (skipped 3, failed 0)")
    assert _summary(tmp_path)["skipped_existing"] == 3


def test_only_unregistered_file_malformed_warns_and_exits_0(tmp_path):
    corpus, common = _registered(tmp_path, lectures=1, slides=3)
    (corpus / "by_slide" / "Lecture 2").mkdir()
    (corpus / "by_slide" / "Lecture 2" / "Slide1.json").write_text("{not json", encoding="utf-8")
    code, out, err = run(["register", *common, "--skip-existing"])
    assert code == 0
    assert len(err.splitlines()) == 1 and err.startswith("warning: skipped ")
    assert "Lecture 2" in err
    assert out.startswith("registered 0/0 slides (skipped 3, failed 0)")


def test_empty_layout_still_exits_3(tmp_path):
    _, common = _registered(tmp_path)
    empty = tmp_path / "empty"
    empty.mkdir()
    code, _, err = run(["register", *common, "--corpus", str(empty), "--skip-existing"])
    assert code == 3 and "no provenance records loaded" in err
