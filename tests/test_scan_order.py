"""Which file a slide key reads does not depend on the order a directory lists its files in.

Names that differ only in how a number is spelled give one key:
``Slide1.json`` and ``Slide01.json``, or ``Lecture 1`` and ``Lecture01``.
The scan keeps the file at the key's ``record_path``, or else the first by
name, and warns of each file it leaves out.  Here ``Path.iterdir`` is
patched to list every directory in reverse, and each command must read
the same files, write the same reports and warn the same.
"""

import json
import os
import random
import warnings
from pathlib import Path

from conftest import run_cli, synthetic_document, write_corpus
from slideprov.integrity import local_mtimes
from slideprov.records import CorpusReader, SlideKey


def _aliased_corpus(root: Path) -> Path:
    """6 slides under their own names, each file with its own mtime, and
    three more files: another spelling of (1, 1) and of (2, 3), and two
    spellings of (3, 1), neither of them its record_path."""
    write_corpus(root, n_lectures=2, slides_per_lecture=3)
    base = root / "by_slide"
    rng = random.Random(7)
    for lecture_dir, slide_file, key in (("Lecture 1", "Slide01.json", (1, 1)),
                                         ("Lecture02", "Slide3.json", (2, 3)),
                                         ("Lecture3", "Slide1.json", (3, 1)),
                                         ("Lecture03", "Slide01.json", (3, 1))):
        (base / lecture_dir).mkdir(exist_ok=True)
        (base / lecture_dir / slide_file).write_text(json.dumps(synthetic_document(rng, *key)),
                                                     encoding="utf-8")
    for index, path in enumerate(sorted(base.rglob("*.json"))):
        os.utime(path, (1_000 + index, 1_000 + index))
    return root


def _listed_in_reverse(monkeypatch) -> None:
    iterdir = Path.iterdir
    monkeypatch.setattr(Path, "iterdir", lambda self: reversed(list(iterdir(self))))


def _analyze(root: Path, out: Path):
    """analyze's exit code, stdout, warnings and report bytes."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, stdout, _ = run_cli(["analyze", "--corpus", str(root), "--out", str(out)])
    return code, stdout, [str(w.message) for w in caught], \
        {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def test_analyze_reads_the_same_files_in_either_listing_order(tmp_path, monkeypatch):
    root = _aliased_corpus(tmp_path / "corpus")
    base = root / "by_slide"
    listed = _analyze(root, tmp_path / "listed")
    _listed_in_reverse(monkeypatch)
    assert _analyze(root, tmp_path / "reversed") == listed
    assert listed[0] == 0 and listed[1].startswith("analyzed 7 slides, 4 models;")
    assert listed[2] == [
        f"skipped {base / 'Lecture 1' / 'Slide01.json'}: the same slide as {base / 'Lecture 1' / 'Slide1.json'}",
        f"skipped {base / 'Lecture02' / 'Slide3.json'}: the same slide as {base / 'Lecture 2' / 'Slide3.json'}",
        f"skipped {base / 'Lecture3' / 'Slide1.json'}: the same slide as {base / 'Lecture03' / 'Slide01.json'}",
    ]


def test_the_reader_and_local_mtimes_keep_the_file_at_its_record_path(tmp_path, monkeypatch):
    root = _aliased_corpus(tmp_path / "corpus")
    base = root / "by_slide"
    kept = {SlideKey(1, 1): base / "Lecture 1" / "Slide1.json",
            SlideKey(2, 3): base / "Lecture 2" / "Slide3.json",
            SlideKey(3, 1): base / "Lecture03" / "Slide01.json"}  # neither is its record_path: the first by name
    for reverse in (False, True):
        if reverse:
            _listed_in_reverse(monkeypatch)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            paths = CorpusReader(root).paths
            mtimes = local_mtimes(root)
        assert len(caught) == 6  # each scan warns of the 3 files it leaves out
        assert list(paths) == sorted(paths) and len(paths) == 7
        assert {key: paths[key] for key in kept} == kept
        assert {key: mtimes[key] for key in kept} == {key: path.stat().st_mtime for key, path in kept.items()}
