"""Golden digests: the bytes of a fixed CLI command matrix, pinned across commits.

Each step of the matrix runs one ``slideprov`` command in process, from a
scratch working directory and with relative paths only, so no temporary
path enters a digest.  A step's digest is the SHA-256 of its exit code,
stdout, stderr, ``ledger.json`` and every report file it wrote.  A
warning counts as the stderr line ``<Category>: <message>``; where it was
raised in the source is not part of the contract.

``tests/golden/digests.json`` holds the expected digests.  A change that
alters an output on purpose rewrites that file in the same commit, with

    PYTHONPATH=src python tests/test_golden.py

which names each digest that changed, and says so; any other difference
is a defect.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

from conftest import synthetic_document, write_corpus
from slideprov.cli import main

GOLDEN = Path(__file__).parent / "golden" / "digests.json"
SEED = 1010
SIZES = {6: (2, 3), 30: (5, 6)}  # slides -> (lectures, slides per lecture)
FORMATS = ("csv", "json")
ABSENT = "vision-delta"  # left out of every third slide of the absent-model corpus
EMPTY = "vision-beta"    # with empty concept and triple lists on every fourth


def _digest(code: int, stdout: str, stderr: str, out: Path) -> str:
    h = hashlib.sha256()

    def part(name: str, data: bytes) -> None:
        h.update(f"{name}\0{len(data)}\0".encode("utf-8"))
        h.update(data)

    part("exit", str(code).encode("ascii"))
    part("stdout", stdout.encode("utf-8", "backslashreplace"))
    part("stderr", stderr.encode("utf-8", "backslashreplace"))
    ledger = Path("ledger.json")
    if ledger.exists():
        part("ledger.json", ledger.read_bytes())
    if out.is_dir():
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            part(path.relative_to(out).as_posix(), path.read_bytes())
    return h.hexdigest()


def _run(argv: list[str], out: Path) -> str:
    stdout, stderr = io.StringIO(), io.StringIO()

    def show(message, category, filename, lineno, file=None, line=None):
        stderr.write(f"{category.__name__}: {message}\n")

    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        warnings.showwarning = show
        code = main(argv + ["--out", str(out)])
    return _digest(code, stdout.getvalue(), stderr.getvalue(), out)


def _write_manifest(path: Path, keys: list[tuple[int, int]]) -> None:
    entries = [{"lecture_id": lecture, "slide_id": slide,
                "t_local": (lecture * 7 + slide * 3) % 11 - 5 + index}
               for index, (lecture, slide) in enumerate(keys)]
    path.write_text(json.dumps(entries), encoding="utf-8")


def _edit_slide(path: Path) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    model = sorted(doc["models"])[0]
    doc["models"][model]["concepts"][0]["term"] += " edited"
    path.write_text(json.dumps(doc), encoding="utf-8")


def _matrix(slides: int, fmt: str) -> dict[str, str]:
    """Digests of every step for one corpus size and format, run in the cwd."""
    lectures, per_lecture = SIZES[slides]
    corpus = write_corpus(Path("corpus"), n_lectures=lectures,
                          slides_per_lecture=per_lecture, seed=SEED)
    # one file that is valid JSON but not a record: skipped with a warning
    (corpus / "by_slide" / f"Lecture {lectures + 2}").mkdir()
    (corpus / "by_slide" / f"Lecture {lectures + 2}" / "Slide1.json").write_text("[1, 2]")
    keys = [(lecture, slide) for lecture in range(1, lectures + 1)
            for slide in range(1, per_lecture + 1)]
    _write_manifest(Path("manifest.json"), keys)

    common = ["--corpus", "corpus", "--format", fmt]
    with_ledger = common + ["--ledger", "ledger.json"]
    steps: list[tuple[str, list[str]]] = [
        # first, so that no ledger.json is there yet to enter their digests
        ("project-million", ["project", "-n", "1000000", "--format", fmt]),
        ("project-small", ["project", "-n", "1", "--eth-usd", "0.0001", "--throughput", "3",
                           "--format", fmt]),
        ("register", ["register", *with_ledger]),
        ("verify", ["verify", *with_ledger]),
        ("analyze", ["analyze", *common]),
        ("analyze-baseline", ["analyze", *common, "--baseline-model", "vision-gamma"]),
        ("tamper-seed-7", ["tamper", *with_ledger, "-n", "3", "--seed", "7"]),
        ("tamper-seed-11", ["tamper", *with_ledger, "-n", str(slides), "--seed", "11"]),
        ("time-gaps", ["time-gaps", *with_ledger, "--manifest", "manifest.json"]),
    ]
    digests = {f"{slides}/{fmt}/{name}": _run(argv, Path("out") / name) for name, argv in steps}

    rng = random.Random(SEED + 1)
    new_lecture = corpus / "by_slide" / f"Lecture {lectures + 1}"
    new_lecture.mkdir()
    for slide in (1, 2):
        doc = synthetic_document(rng, lectures + 1, slide)
        (new_lecture / f"Slide{slide}.json").write_text(json.dumps(doc), encoding="utf-8")
    digests[f"{slides}/{fmt}/register-skip-existing"] = _run(
        ["register", *with_ledger, "--skip-existing"], Path("out") / "register-skip-existing")

    shutil.copytree(corpus, "before-edit")
    _edit_slide(corpus / "by_slide" / "Lecture 1" / "Slide1.json")
    digests[f"{slides}/{fmt}/verify-edited"] = _run(
        ["verify", *with_ledger], Path("out") / "verify-edited")
    digests[f"{slides}/{fmt}/compare-runs"] = _run(
        ["compare-runs", "before-edit", "corpus", "--format", fmt], Path("out") / "compare-runs")

    # --write rewrites files no report shows; the next verify's verdicts
    # hold each rewritten file's Keccak, so its digest pins their bytes
    digests[f"{slides}/{fmt}/tamper-write"] = _run(
        ["tamper", *with_ledger, "--write", "-n", str(slides), "--seed", "5"],
        Path("out") / "tamper-write")
    digests[f"{slides}/{fmt}/verify-tampered"] = _run(
        ["verify", *with_ledger], Path("out") / "verify-tampered")

    # a registered file deleted and an unregistered slide added: the
    # Missing row has no recomputed commitment, the Unregistered no on-chain one
    (corpus / "by_slide" / "Lecture 1" / "Slide2.json").unlink()
    doc = synthetic_document(rng, lectures + 1, 3)
    (new_lecture / "Slide3.json").write_text(json.dumps(doc), encoding="utf-8")
    digests[f"{slides}/{fmt}/verify-missing"] = _run(
        ["verify", *with_ledger], Path("out") / "verify-missing")

    # run B drops a model from one slide: that pair is in one run only, with no Jaccards
    shutil.copytree(corpus, "dropped-model")
    path = Path("dropped-model") / "by_slide" / "Lecture 1" / "Slide3.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    del doc["models"][sorted(doc["models"])[-1]]
    path.write_text(json.dumps(doc), encoding="utf-8")
    digests[f"{slides}/{fmt}/compare-runs-dropped-model"] = _run(
        ["compare-runs", "corpus", "dropped-model", "--format", fmt], Path("out") / "compare-runs-dropped-model")
    return digests


def _absent_model_matrix(fmt: str) -> dict[str, str]:
    """``analyze`` on 30 slides where models differ in which slides they cover.

    ABSENT is missing from every third slide and EMPTY extracts nothing from
    every fourth; on the first slide no model extracts anything, so every
    union is empty.
    """
    lectures, per_lecture = SIZES[30]
    corpus = write_corpus(Path("corpus"), n_lectures=lectures,
                          slides_per_lecture=per_lecture, seed=SEED)
    keys = [(lecture, slide) for lecture in range(1, lectures + 1) for slide in range(1, per_lecture + 1)]
    for index, (lecture, slide) in enumerate(keys):
        path = corpus / "by_slide" / f"Lecture {lecture}" / f"Slide{slide}.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        emptied = doc["models"] if index == 0 else [EMPTY] if index % 4 == 0 else []
        for model in emptied:
            doc["models"][model]["concepts"] = doc["models"][model]["triples"] = []
        if index % 3 == 0:
            del doc["models"][ABSENT]
        path.write_text(json.dumps(doc), encoding="utf-8")
    common = ["--corpus", "corpus", "--format", fmt]
    steps = [("analyze", ["analyze", *common]),
             ("analyze-baseline", ["analyze", *common, "--baseline-model", ABSENT])]
    return {f"absent/{fmt}/{name}": _run(argv, Path("out") / name) for name, argv in steps}


def golden_digests(workdir: Path) -> dict[str, str]:
    """Every digest of the matrix, each (size, format) run in its own directory."""
    digests: dict[str, str] = {}
    home = os.getcwd()
    try:
        for slides in SIZES:
            for fmt in FORMATS:
                run_dir = workdir / f"{slides}-{fmt}"
                run_dir.mkdir()
                os.chdir(run_dir)
                digests.update(_matrix(slides, fmt))
        for fmt in FORMATS:
            run_dir = workdir / f"absent-{fmt}"
            run_dir.mkdir()
            os.chdir(run_dir)
            digests.update(_absent_model_matrix(fmt))
    finally:
        os.chdir(home)
    return digests


def test_golden_digests(tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = golden_digests(tmp_path)
    assert list(actual) == list(expected), "the command matrix changed"
    differing = [name for name in expected if actual[name] != expected[name]]
    assert not differing, (
        f"first differing digest: {differing[0]} ({len(differing)} of {len(expected)} differ)")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        result = golden_digests(Path(scratch))
    previous = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    # added, removed or changed: the steps an intended format change moved
    changed = [name for name in {**previous, **result} if previous.get(name) != result.get(name)]
    for name in changed:
        print(f"changed: {name}", file=sys.stderr)
    print(f"wrote {len(result)} digests to {GOLDEN}, {len(changed)} changed", file=sys.stderr)
