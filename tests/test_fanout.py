"""The commit pass split across processes gives the output of one process's pass.

``commitment.commit_corpus`` splits its files into contiguous key ranges,
hashes the first in the calling process and each other in a forked child.
Here the per-worker minimum is patched to 1 and the usable CPUs to the
number of ranges wanted, so that small corpora split; each test checks
that the expected number of children was forked, and that none is left.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
import threading
import warnings
from pathlib import Path

import pytest

from conftest import write_corpus
from slideprov import commitment
from slideprov.commitment import commit, commit_corpus
from slideprov.errors import EmptyCorpus, ProvenanceWarning
from slideprov.records import CorpusReader, SlideKey, normalized_bytes
from test_golden import GOLDEN, golden_digests

RANGES = (1, 2, 3)


@pytest.fixture
def split(monkeypatch):
    """``split(n)`` makes the next passes use n ranges; gives the list of forks made."""
    forks: list[int] = []
    real_fork = os.fork

    def fork():
        forks.append(os.getpid())
        return real_fork()

    def use(n: int) -> list[int]:
        monkeypatch.setattr(commitment, "MIN_FILES_PER_WORKER", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        monkeypatch.setattr(os, "fork", fork)
        return forks

    yield use
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


def _corpus(root: Path) -> Path:
    """12 slides, keys (1,1)..(3,4): ids that conflict with the file name at
    the 2nd and 8th keys, a list at the 5th and bad JSON at the 11th, so
    that at 2 and 3 ranges the parent and the children each hold some."""
    write_corpus(root, n_lectures=3, slides_per_lecture=4)
    base = root / "by_slide"
    for name in ("Lecture 1/Slide2.json", "Lecture 2/Slide4.json"):
        doc = json.loads((base / name).read_text(encoding="utf-8"))
        doc["slide_id"] += 90
        (base / name).write_text(json.dumps(doc), encoding="utf-8")
    (base / "Lecture 2" / "Slide1.json").write_text("[1, 2]", encoding="utf-8")
    (base / "Lecture 3" / "Slide3.json").write_text("{ not json", encoding="utf-8")
    return root


def _pass(root: Path, commit_pass):
    """``commit_pass(reader)``, the reader's failures, and the warnings under the default filter."""
    reader = CorpusReader(root)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        result = commit_pass(reader)
    shown = [(w.category, str(w.message), w.filename, w.lineno) for w in caught]
    return result, reader.failures, shown


def _serial(reader: CorpusReader) -> dict:
    """The pass in this process alone, as it was before the split."""
    return {key: commit(data) for key, data in reader.read(normalized_bytes)}


@pytest.mark.parametrize("n", RANGES)
def test_split_pass_equals_the_serial_one(tmp_path, split, n):
    root = _corpus(tmp_path / "corpus")
    expected = _pass(root, _serial)
    forks = split(n)
    actual = _pass(root, commit_corpus)
    assert len(forks) == n - 1
    assert list(actual[0].items()) == list(expected[0].items())
    assert actual[1] == expected[1]
    assert [f.key for f in actual[1]] == [SlideKey(2, 1), SlideKey(3, 3)]
    assert actual[2] == expected[2]
    assert [message.split(" conflict with file-derived key ")[1] for _, message, *_ in actual[2]] == \
        [f"{SlideKey(1, 2)}; file wins", f"{SlideKey(2, 4)}; file wins"]
    assert all(category is ProvenanceWarning for category, *_ in actual[2])


@pytest.mark.parametrize("n", RANGES)
def test_nothing_loads_raises_the_same_empty_corpus(tmp_path, split, n):
    root = write_corpus(tmp_path / "corpus", n_lectures=2, slides_per_lecture=3)
    for path in root.rglob("Slide*.json"):
        path.write_text("[1]", encoding="utf-8")
    serial = CorpusReader(root)
    with pytest.raises(EmptyCorpus) as expected:
        _serial(serial)
    forks = split(n)
    reader = CorpusReader(root)
    with pytest.raises(EmptyCorpus) as actual:
        commit_corpus(reader)
    assert len(forks) == n - 1
    assert str(actual.value) == str(expected.value)
    assert "(6 files failed to parse)" in str(actual.value)
    assert reader.failures == serial.failures


@pytest.mark.parametrize("n", RANGES)
def test_golden_digests_hold_at_every_split(tmp_path, monkeypatch, split, n):
    for name in list(os.environ):
        if name.startswith("SLIDEPROV_"):
            monkeypatch.delenv(name)
    forks = split(n)
    actual = golden_digests(tmp_path)
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    steps = [name for name in expected if name.split("/")[2].startswith(("register", "verify"))]
    assert len(steps) == 16
    assert {name: actual[name] for name in steps} == {name: expected[name] for name in steps}
    assert len(forks) == (n - 1) * 16  # each register and verify step split its pass


@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("failing", ("parent", "child"))
def test_an_exception_in_a_range_is_raised_here(tmp_path, monkeypatch, split, n, failing):
    root = write_corpus(tmp_path / "corpus", n_lectures=2, slides_per_lecture=3)
    bad = SlideKey(1, 1) if failing == "parent" else SlideKey(2, 3)  # the first key, or the last

    def failing_bytes(raw, key):
        if key == bad:
            raise RuntimeError(f"cannot encode {key}")
        return normalized_bytes(raw, key)

    monkeypatch.setattr(commitment, "normalized_bytes", failing_bytes)
    forks = split(n)
    with pytest.raises(RuntimeError, match=r"cannot encode SlideKey\(lecture_id=%d" % bad.lecture_id):
        commit_corpus(CorpusReader(root))
    assert len(forks) == n - 1


def test_a_child_that_dies_without_a_result_is_an_error(tmp_path, monkeypatch, split):
    root = write_corpus(tmp_path / "corpus", n_lectures=2, slides_per_lecture=3)

    def dying_bytes(raw, key):
        if key == SlideKey(2, 3):
            os._exit(9)
        return normalized_bytes(raw, key)

    monkeypatch.setattr(commitment, "normalized_bytes", dying_bytes)
    forks = split(2)
    with pytest.raises(ChildProcessError, match="ended without a result"):
        commit_corpus(CorpusReader(root))
    assert len(forks) == 1


_WRAPPER = """
import os, sys
from slideprov import commitment
from slideprov.records import CorpusReader, normalized_bytes

commitment.MIN_FILES_PER_WORKER = 1
os.sched_getaffinity = lambda pid: set(range(3))
if sys.argv[3] == "child":
    def failing_bytes(raw, key):
        if key.lecture_id == 2:
            raise RuntimeError("failed in a child")
        return normalized_bytes(raw, key)
    commitment.normalized_bytes = failing_bytes

print("before the pass")  # stdout is a pipe, so this sits in the buffer across the fork
try:
    commitments = commitment.commit_corpus(CorpusReader(sys.argv[1]))
    print(f"{len(commitments)} commitments")
finally:  # as a span tracer's dump at the end of a command
    with open(sys.argv[2], "a", encoding="utf-8") as fh:
        fh.write(f"finally in {os.getpid()}\\n")
"""


@pytest.mark.parametrize("failing", ("none", "child"))
def test_children_neither_flush_stdout_nor_run_the_callers_finally(tmp_path, failing):
    root = write_corpus(tmp_path / "corpus", n_lectures=2, slides_per_lecture=3)
    finally_file = tmp_path / "finally.txt"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(commitment.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    with subprocess.Popen([sys.executable, "-c", textwrap.dedent(_WRAPPER), str(root),
                           str(finally_file), failing], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, env=env) as proc:
        stdout, stderr = proc.communicate(timeout=60)
    assert finally_file.read_text(encoding="utf-8") == f"finally in {proc.pid}\n"
    if failing == "none":
        assert (proc.returncode, stdout, stderr) == (0, "before the pass\n6 commitments\n", "")
    else:
        assert (proc.returncode, stdout) == (1, "before the pass\n")
        assert stderr.endswith("RuntimeError: failed in a child\n")


def test_stays_serial_below_two_workers_minimum_or_with_another_thread(tmp_path, monkeypatch, split):
    root = write_corpus(tmp_path / "corpus", n_lectures=2, slides_per_lecture=4)
    forks = split(3)
    monkeypatch.setattr(commitment, "MIN_FILES_PER_WORKER", 5)  # 8 files: fewer than 2 x 5
    assert len(commit_corpus(CorpusReader(root))) == 8
    monkeypatch.setattr(commitment, "MIN_FILES_PER_WORKER", 1)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert len(commit_corpus(CorpusReader(root))) == 8
    finally:
        release.set()
        thread.join()
    assert forks == []
    assert len(commit_corpus(CorpusReader(root))) == 8
    assert len(forks) == 2
