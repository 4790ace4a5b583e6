"""Passes split across processes give the output of one process's pass.

``records.split_pass`` splits a pass's keys into contiguous ranges, works
on the first in the calling process and on each other in a forked child;
``commit_corpus`` (``register``, ``verify``), ``analyze`` and
``compare-runs`` read their corpora through it.  Here ``forced_split``
patches the per-worker minimum to 1 and the usable CPUs to the number of
ranges wanted, so that small corpora split; each test checks that the
expected number of children was forked, and that none is left.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import textwrap
import threading
import warnings
from pathlib import Path

import pytest

from conftest import forced_split, run_cli, write_corpus
from slideprov import cli, commitment, records
from slideprov.commitment import commit, commit_corpus
from slideprov.errors import EmptyCorpus, ProvenanceWarning
from slideprov.ledger import file_digest
from slideprov.records import CorpusReader, SlideKey, normalized_bytes
from test_golden import GOLDEN, golden_digests

RANGES = (1, 2, 3)


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
def test_split_pass_equals_the_serial_one(tmp_path, n):
    root = _corpus(tmp_path / "corpus")
    expected = _pass(root, _serial)
    with forced_split(n) as forks:
        actual = _pass(root, commit_corpus)
    assert len(forks) == n - 1
    assert [(key, c) for key, (c, _) in actual[0].items()] == list(expected[0].items())
    assert [digest for _, digest in actual[0].values()] == [
        file_digest(c, records.record_path(root, key).read_bytes()) for key, c in expected[0].items()]
    assert actual[1] == expected[1]
    assert [f.key for f in actual[1]] == [SlideKey(2, 1), SlideKey(3, 3)]
    assert actual[2] == expected[2]
    assert [message.split(" conflict with file-derived key ")[1] for _, message, *_ in actual[2]] == \
        [f"{SlideKey(1, 2)}; file wins", f"{SlideKey(2, 4)}; file wins"]
    assert all(category is ProvenanceWarning for category, *_ in actual[2])


def _unloadable(root: Path) -> Path:
    for path in root.rglob("Slide*.json"):
        path.write_text("[1]", encoding="utf-8")
    return root


@pytest.mark.parametrize("n", RANGES)
def test_nothing_loads_raises_the_same_empty_corpus(tmp_path, n):
    root = _unloadable(write_corpus(tmp_path / "corpus", n_lectures=2, slides_per_lecture=3))
    serial = CorpusReader(root)
    with pytest.raises(EmptyCorpus) as expected:
        _serial(serial)
    reader = CorpusReader(root)
    with forced_split(n) as forks, pytest.raises(EmptyCorpus) as actual:
        commit_corpus(reader)
    assert len(forks) == n - 1
    assert str(actual.value) == str(expected.value)
    assert "(6 files failed to parse)" in str(actual.value)
    assert reader.failures == serial.failures


@pytest.mark.parametrize("n", RANGES)
@pytest.mark.parametrize("empty", ("a", "b", "both"))
def test_split_pass_names_the_first_reader_that_loads_nothing(tmp_path, n, empty):
    roots = {run: write_corpus(tmp_path / run, n_lectures=2, slides_per_lecture=3) for run in "ab"}
    for run in ("a", "b") if empty == "both" else (empty,):
        _unloadable(roots[run])
    run_a, run_b = CorpusReader(roots["a"]), CorpusReader(roots["b"])
    with forced_split(n) as forks, pytest.raises(EmptyCorpus) as raised:
        records.split_pass([run_a, run_b],
                           lambda keys: list(records.read_runs(run_a, run_b, records.normalize_record, keys)))
    assert len(forks) == n - 1
    named = roots["b" if empty == "b" else "a"]
    assert str(raised.value) == f"no provenance records loaded from {named} (6 files failed to parse)"
    assert [len(run_a.failures), len(run_b.failures)] == [6 if empty in (run, "both") else 0 for run in "ab"]


@pytest.mark.parametrize("n", RANGES)
def test_split_pass_checks_the_loads_even_when_work_returns_nothing(tmp_path, n):
    root = write_corpus(tmp_path / "corpus", n_lectures=2, slides_per_lecture=3)
    with forced_split(n) as forks, pytest.raises(EmptyCorpus, match="no provenance records loaded from"):
        records.split_pass([CorpusReader(root)], lambda keys: [])
    assert len(forks) == n - 1
    # a reader that skipped every file loaded none and is not empty
    skipping = CorpusReader(root, skip={key for key, _ in records.scan_slide_files(root)})
    assert records.split_pass([skipping], lambda keys: [keys]) == [[]]


@pytest.mark.parametrize("n", RANGES)
def test_golden_digests_hold_at_every_split(tmp_path, n):
    with forced_split(n) as forks:
        actual = golden_digests(tmp_path)
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    split_commands = ("register", "verify", "analyze", "compare-runs")
    steps = [name for name in expected if name.split("/")[2].startswith(split_commands)]
    # per size and format: 2 register, 4 verify, 2 analyze, 2 compare-runs;
    # per format, 2 analyze on the absent-model corpus
    assert len(steps) == 44
    assert {name: actual[name] for name in steps} == {name: expected[name] for name in steps}
    # each of those steps split its pass; verify's pass holds only the files their digests do not settle:
    # one after register (the file that is not a record, into one range), two after the edit (into two)
    assert len(forks) == (n - 1) * 36 + min(n - 1, 1) * 4


@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("failing", ("parent", "child"))
def test_an_exception_in_a_range_is_raised_here(tmp_path, monkeypatch, n, failing):
    root = write_corpus(tmp_path / "corpus", n_lectures=2, slides_per_lecture=3)
    bad = SlideKey(1, 1) if failing == "parent" else SlideKey(2, 3)  # the first key, or the last

    def failing_bytes(raw, key):
        if key == bad:
            raise RuntimeError(f"cannot encode {key}")
        return normalized_bytes(raw, key)

    monkeypatch.setattr(commitment, "normalized_bytes", failing_bytes)
    with forced_split(n) as forks:
        with pytest.raises(RuntimeError, match=r"cannot encode SlideKey\(lecture_id=%d" % bad.lecture_id):
            commit_corpus(CorpusReader(root))
    assert len(forks) == n - 1


def test_a_child_that_dies_without_a_result_is_an_error(tmp_path, monkeypatch):
    root = write_corpus(tmp_path / "corpus", n_lectures=2, slides_per_lecture=3)

    def dying_bytes(raw, key):
        if key == SlideKey(2, 3):
            os._exit(9)
        return normalized_bytes(raw, key)

    monkeypatch.setattr(commitment, "normalized_bytes", dying_bytes)
    with forced_split(2) as forks:
        with pytest.raises(ChildProcessError, match="ended without a result"):
            commit_corpus(CorpusReader(root))
    assert len(forks) == 1


_WRAPPER = """
import os, sys
from slideprov import commitment, records
from slideprov.records import CorpusReader, normalized_bytes

records.MIN_FILES_PER_WORKER = 1
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


def test_stays_serial_below_two_workers_minimum_or_with_another_thread(tmp_path):
    root = write_corpus(tmp_path / "corpus", n_lectures=2, slides_per_lecture=4)
    with forced_split(3) as forks:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(records, "MIN_FILES_PER_WORKER", 5)  # 8 files: fewer than 2 x 5
            assert len(commit_corpus(CorpusReader(root))) == 8
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


# --------------------------------------------------------------------------
# analyze and compare-runs


def _write_keys(root: Path, keys: list[tuple[int, int]], edit: dict[tuple[int, int], str] | None = None) -> Path:
    """A corpus holding ``write_corpus``'s documents (3 lectures of 4 slides) at ``keys``
    only; ``edit`` names a model to drop at some of them."""
    full = write_corpus(root.with_name(root.name + "-full"), n_lectures=3, slides_per_lecture=4)
    for lecture, slide in keys:
        name = Path("by_slide") / f"Lecture {lecture}" / f"Slide{slide}.json"
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        doc = json.loads((full / name).read_text(encoding="utf-8"))
        if edit and (lecture, slide) in edit:
            del doc["models"][edit[lecture, slide]]
        (root / name).write_text(json.dumps(doc), encoding="utf-8")
    shutil.rmtree(full)
    return root


def _compare(run_a: Path, run_b: Path, out: Path, n: int):
    """``compare-runs`` over n ranges: exit code, stdout and stderr lines, the warnings'
    messages, the reports' bytes, and the forks made."""
    with forced_split(n) as forks, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, stdout, stderr = run_cli(["compare-runs", str(run_a), str(run_b), "--out", str(out),
                                   "--format", "json"])
    reports = {path.name: path.read_bytes() for path in sorted(out.glob("*.json"))}
    return code, (stdout + stderr).splitlines(), [str(w.message) for w in caught], reports, forks


A_KEYS = [(1, 1), (1, 2), (1, 3), (1, 4)]
B_KEYS = [(1, 4), (2, 1), (2, 2), (2, 3)]  # sorted union: 7 keys, the 4th the only common one


@pytest.mark.parametrize("n", (2, 3))
def test_a_range_with_no_common_key_is_no_disjoint_corpora(tmp_path, n):
    # at 2 ranges the first holds no common key, at 3 the first and the last
    run_a, run_b = _write_keys(tmp_path / "a", A_KEYS), _write_keys(tmp_path / "b", B_KEYS)
    code, stderr, messages, reports, forks = _compare(run_a, run_b, tmp_path / "out", n)
    assert len(forks) == n - 1
    assert _compare(run_a, run_b, tmp_path / "serial", 1) == (code, stderr, messages, reports, [])
    assert code == 0
    summary = json.loads(reports["compare_summary.json"])
    assert (summary["common_keys"], summary["only_in_a"], summary["only_in_b"]) == (1, 3, 3)


@pytest.mark.parametrize("n", (1, 2, 3))
def test_runs_that_share_no_key_in_any_range_are_disjoint(tmp_path, n):
    run_a = _write_keys(tmp_path / "a", A_KEYS[:3])
    run_b = _write_keys(tmp_path / "b", B_KEYS[1:])
    code, stderr, _, reports, forks = _compare(run_a, run_b, tmp_path / "out", n)
    assert len(forks) == n - 1
    assert (code, stderr, reports) == (3, ["error: runs share no slide keys"], {})


@pytest.mark.parametrize("n", (2, 3))
def test_asymmetric_pairs_in_a_child_range_give_one_warning(tmp_path, n):
    keys = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)]
    run_a = _write_keys(tmp_path / "a", keys)
    run_b = _write_keys(tmp_path / "b", keys, edit={(1, 1): "vision-beta", (2, 3): "vision-alpha",
                                                    (2, 2): "vision-delta"})
    code, stderr, messages, reports, forks = _compare(run_a, run_b, tmp_path / "out", n)
    assert len(forks) == n - 1
    assert _compare(run_a, run_b, tmp_path / "serial", 1) == (code, stderr, messages, reports, [])
    assert code == 0 and len(stderr) == 1  # stdout's one line
    assert messages == ["3 (slide, model) pairs present in only one run; "
                        "reported separately, excluded from similarity counts"]
    assert json.loads(reports["compare_summary.json"])["asymmetric"] == 3
    # the one-run pairs' rows come last, their Jaccards empty
    assert json.loads(reports["compare_runs.json"])[-3:] == [
        {"lecture_id": str(lecture), "slide_id": str(slide), "model": model, "status": "only_in_a",
         "concept_jaccard": "", "triple_jaccard": ""}
        for lecture, slide, model in ((1, 1, "vision-beta"), (2, 2, "vision-delta"), (2, 3, "vision-alpha"))]


def _failing_in_the_last_range(monkeypatch):
    def failing_load(raw, key, load=records.normalize_record):
        if key == SlideKey(2, 3):  # the last key: always in the last range
            raise RuntimeError(f"cannot normalize {key}")
        return load(raw, key)

    # the loader of both commands; cli imports it as a command runs
    monkeypatch.setattr(records, "normalize_record", failing_load)


@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("command", ("analyze", "compare-runs"))
def test_an_exception_in_a_child_of_analyze_or_compare_runs_is_raised_here(tmp_path, monkeypatch,
                                                                           n, command):
    root = write_corpus(tmp_path / "corpus", n_lectures=2, slides_per_lecture=3)
    _failing_in_the_last_range(monkeypatch)
    argv = ["analyze", "--corpus", str(root)] if command == "analyze" else ["compare-runs", str(root), str(root)]
    with forced_split(n) as forks:
        with pytest.raises(RuntimeError, match=r"cannot normalize SlideKey\(lecture_id=2, slide_id=3\)"):
            run_cli([*argv, "--out", str(tmp_path / "out")])
    assert len(forks) == n - 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n", RANGES)
def test_analyze_at_every_split_equals_the_serial_run(tmp_path, n):
    root = _corpus(tmp_path / "corpus")
    runs = []
    for ranges in (1, n):
        out = tmp_path / f"out-{ranges}"
        with forced_split(ranges) as forks, warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, stdout, stderr = run_cli(["analyze", "--corpus", str(root), "--out", str(out)])
        reports = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
        runs.append((code, stdout, stderr, [str(w.message) for w in caught], reports))
    assert len(forks) == n - 1
    assert runs[1] == runs[0]
    code, _, stderr, messages, _ = runs[0]
    assert code == 0 and len(stderr.splitlines()) == 2 and len(messages) == 2  # two skipped, two conflicts
