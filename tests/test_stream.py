"""``register`` and ``verify`` hash the corpus in one streamed pass.

``commit_corpus`` reads, normalizes, encodes and hashes one file at a
time.  It must give the keys, commitments, load failures and warnings of
``commit_records`` over the records a ``normalize_record`` pass loads,
with each file's digest of the bytes it read, and the commands must write the same bytes whichever files share a
Keccak batch.
"""

import contextlib
import io
import json
import random
import tempfile
import warnings
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from conftest import synthetic_document
from slideprov import keccak
from slideprov.cli import main
from slideprov.commitment import commit_corpus, commit_records
from slideprov.errors import EmptyCorpus
from slideprov.ledger import file_digest
from slideprov.records import CorpusReader, SlideKey, normalize_record


def _document(kind: str, rng: random.Random, lecture: int, slide: int) -> bytes:
    """The bytes of one corpus file of the given kind."""
    doc = synthetic_document(rng, lecture, slide)
    if kind == "unparseable":
        return b'{"lecture": "Lecture 1", '
    if kind == "not UTF-8":
        return b'{"lecture": "Lecture \xff"}'
    if kind == "not an object":
        doc = [lecture, slide]
    elif kind == "lone surrogate":
        doc["models"]["vision-beta"]["evidence"].append("x\ud800")
    elif kind == "conflicting ids":
        doc["slide_id"] = slide + 100
    elif kind == "non-dict model":
        doc["models"]["vision-gamma"] = ["not", "a", "model"]
    elif kind == "no models":
        doc["models"] = []
    return json.dumps(doc).encode("ascii")  # a lone surrogate is written as its \u escape


KINDS = ["valid", "valid", "unparseable", "not UTF-8", "not an object", "lone surrogate",
         "conflicting ids", "non-dict model", "no models"]
KEYS = [SlideKey(lecture, slide) for lecture in (1, 2, 3) for slide in (1, 2, 3)]


def _path(root: Path, key: SlideKey) -> Path:
    return root / "by_slide" / f"Lecture {key.lecture_id}" / f"Slide{key.slide_id}.json"


def _write(root: Path, files: dict[SlideKey, str], seed: int) -> None:
    rng = random.Random(seed)
    for key, kind in files.items():
        _path(root, key).parent.mkdir(parents=True, exist_ok=True)
        _path(root, key).write_bytes(_document(kind, rng, key.lecture_id, key.slide_id))


def _caught(fn):
    """(fn() or the EmptyCorpus it raised, the messages of its warnings in order)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn()
        except EmptyCorpus as exc:
            result = exc
    return result, [str(w.message) for w in caught]


@given(files=st.dictionaries(st.sampled_from(KEYS), st.sampled_from(KINDS), max_size=9),
       skip=st.frozensets(st.sampled_from(KEYS)), seed=st.integers(0, 2**16),
       batch=st.sampled_from([1, 2, 3, keccak._BATCH]))
@settings(max_examples=60, deadline=None)
def test_streamed_pass_equals_loading_then_committing(files, skip, seed, batch):
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        _write(root, files, seed)
        written = {key: _path(root, key).read_bytes() for key in files}
        skipped = [key for key in sorted(files) if key in skip]
        # the reference loads the files left after the skipped ones are moved aside
        for key in skipped:
            _path(root, key).rename(_path(root, key).with_suffix(".aside"))
        reference = CorpusReader(root)
        loaded, loaded_warnings = _caught(lambda: dict(reference.read(normalize_record)))
        for key in skipped:
            _path(root, key).with_suffix(".aside").rename(_path(root, key))

        original_batch = keccak._BATCH
        keccak._BATCH = batch
        try:
            reader = CorpusReader(root, skip)
            streamed, streamed_warnings = _caught(lambda: commit_corpus(reader))
        finally:
            keccak._BATCH = original_batch

    assert reader.skipped == len(skipped)
    assert streamed_warnings == loaded_warnings
    if isinstance(loaded, EmptyCorpus):  # no file outside skip loads
        if skipped:
            assert streamed == {}
            assert str(loaded).endswith(f" ({len(reader.failures)} files failed to parse)"
                                        if reader.failures else str(root))
        else:
            assert isinstance(streamed, EmptyCorpus) and str(streamed) == str(loaded)
        return
    assert list(streamed) == sorted(loaded)
    assert [c for c, _ in streamed.values()] == commit_records(loaded[key] for key in sorted(loaded))
    assert [digest for _, digest in streamed.values()] == [
        file_digest(c, written[key]) for key, (c, _) in streamed.items()]
    assert reader.failures == reference.failures


def _run(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process run, each warning as a stderr line."""
    stdout, stderr = io.StringIO(), io.StringIO()

    def show(message, category, filename, lineno, file=None, line=None):
        stderr.write(f"{category.__name__}: {message}\n")

    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        warnings.showwarning = show
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def _register_then_verify(tmp_path: Path, corpus: Path, name: str) -> list[tuple[int, str, str]]:
    ledger = tmp_path / f"{name}.json"
    common = ["--corpus", str(corpus), "--ledger", str(ledger)]
    return [_run(["register", *common, "--out", str(tmp_path / name / "register")]),
            _run(["verify", *common, "--out", str(tmp_path / name / "verify")]),
            (0, ledger.read_text(encoding="utf-8"), "")]


def test_commands_write_the_same_bytes_at_any_batch_size(tmp_path, monkeypatch):
    # 11 files whose 6 loadable ones are hashed 3 at a time: the bad files are
    # read while a batch is drawn, before, inside and after each batch
    kinds = ["valid", "conflicting ids", "unparseable", "valid", "lone surrogate",
             "conflicting ids", "not an object", "no models", "unparseable", "valid",
             "conflicting ids"]
    files = {SlideKey(1 + i // 6, 1 + i % 6): kind for i, kind in enumerate(kinds)}
    assert list(files) == sorted(files)
    corpus = tmp_path / "corpus"
    _write(corpus, files, seed=3)

    default = _register_then_verify(tmp_path, corpus, "default")
    monkeypatch.setattr(keccak, "_BATCH", 3)
    small = _register_then_verify(tmp_path, corpus, "batch-3")
    assert small == default
    for report in ("register/receipts.csv", "register/events.csv", "verify/verdicts.csv"):
        assert ((tmp_path / "batch-3" / report).read_bytes()
                == (tmp_path / "default" / report).read_bytes()), report

    (code, out, err), (verify_code, verify_out, verify_err), _ = default
    assert (code, verify_code) == (0, 0)
    assert out.startswith("registered 6/6 slides (skipped 0, failed 0)")
    assert verify_out == "verified 6 slides: 6 match, 0 fail\n"
    lines = err.splitlines()
    # the conflict warnings come while the corpus is read, the skipped files after it
    assert [line.split(":")[0] for line in lines] == ["ProvenanceWarning"] * 3 + ["warning"] * 5
    # verify settles the six registered files by their digests, unparsed: no conflict warning
    assert verify_err.splitlines() == lines[3:]
    failed = [key for key, kind in files.items() if kind not in ("valid", "conflicting ids")]
    for line, key in zip(lines[3:], failed):
        assert line.startswith(f"warning: skipped {_path(corpus, key)}: "), line


@pytest.mark.parametrize("batch", [1, 3])
def test_skip_existing_at_small_batches(tmp_path, monkeypatch, batch):
    files = {key: "valid" for key in KEYS}
    corpus = tmp_path / "corpus"
    _write(corpus, files, seed=5)
    common = ["--corpus", str(corpus), "--ledger", str(tmp_path / "ledger.json")]
    whole = tmp_path / "whole.json"
    assert _run(["register", "--corpus", str(corpus), "--ledger", str(whole),
                 "--out", str(tmp_path / "whole")])[0] == 0

    monkeypatch.setattr(keccak, "_BATCH", batch)
    lecture_3 = corpus / "by_slide" / "Lecture 3"
    lecture_3.rename(tmp_path / "later")
    assert _run(["register", *common, "--out", str(tmp_path / "first")])[0] == 0
    (tmp_path / "later").rename(lecture_3)
    code, out, err = _run(["register", *common, "--skip-existing", "--out", str(tmp_path / "rest")])
    assert (code, err) == (0, "")
    assert out.startswith("registered 3/3 slides (skipped 6, failed 0)")
    assert (tmp_path / "ledger.json").read_bytes() == whole.read_bytes()
