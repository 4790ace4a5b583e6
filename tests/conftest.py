import contextlib
import io
import json
import os
import random
from pathlib import Path

import pytest

from slideprov import Ledger, SlideKey, canonical_uri, commit_record, load_corpus, records
from slideprov.cli import main

MODEL_NAMES = ["vision-alpha", "vision-beta", "vision-gamma", "vision-delta"]

CATEGORIES = ["modality", "anatomy", "workflow", "physics", "software"]
PREDICATES = ["uses", "produces", "depends on", "is part of"]


def synthetic_document(rng: random.Random, lecture_id: int, slide_id: int,
                       model_names=MODEL_NAMES) -> dict:
    """One raw slide document with material for every tamper kind."""
    models = {}
    for name in model_names:
        concepts = []
        for _ in range(rng.randrange(1, 7)):
            entry = {"category": rng.choice(CATEGORIES), "term": f"term {rng.randrange(40)}"}
            if rng.random() < 0.4:
                entry["evidence"] = f"seen near item {rng.randrange(99)}"
            concepts.append(entry)
        triples = []
        for _ in range(rng.randrange(1, 5)):
            entry = {
                "s": f"entity {rng.randrange(20)}",
                "p": rng.choice(PREDICATES),
                "o": f"entity {rng.randrange(20)}",
            }
            if rng.random() < 0.5:
                entry["confidence"] = round(rng.random(), 3)
            triples.append(entry)
        models[name] = {
            "concepts": concepts,
            "triples": triples,
            "evidence": [f"transcript fragment {rng.randrange(1000)}"
                         for _ in range(rng.randrange(1, 4))],
        }
        if rng.random() < 0.3:
            models[name]["raw_output"] = f"raw model text {rng.randrange(1000)}"
    return {
        "lecture": f"Lecture {lecture_id}",
        "slide_id": slide_id,
        "models": models,
        "paths": {
            "image": f"Lecture{lecture_id}/Images/Slide{slide_id}.jpg",
            "text": f"Lecture{lecture_id}/Texts/Slide{slide_id}.txt",
            "json": f"Lecture {lecture_id}/Slide{slide_id}.json",
        },
        "metadata": {"timestamp": "2025-11-03T10:00:00", "source": "fixture-pipeline"},
    }


def write_corpus(root: Path, n_lectures: int = 2, slides_per_lecture: int = 3,
                 seed: int = 1234, model_names=MODEL_NAMES) -> Path:
    rng = random.Random(seed)
    for lecture in range(1, n_lectures + 1):
        lecture_dir = root / "by_slide" / f"Lecture {lecture}"
        lecture_dir.mkdir(parents=True, exist_ok=True)
        for slide in range(1, slides_per_lecture + 1):
            doc = synthetic_document(rng, lecture, slide, model_names)
            (lecture_dir / f"Slide{slide}.json").write_text(
                json.dumps(doc), encoding="utf-8"
            )
    return root


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run the CLI in process: (exit code, stdout, stderr)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


@contextlib.contextmanager
def forced_split(n: int):
    """Split passes in the block over n key ranges, one per file at most; yields the list of forks made.

    ``records.MIN_FILES_PER_WORKER`` is patched to 1 and the usable CPUs
    to n, so that small corpora split.  On leaving, no child may be left.
    """
    forks: list[int] = []
    real_fork = os.fork

    def fork():
        forks.append(os.getpid())
        return real_fork()

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(records, "MIN_FILES_PER_WORKER", 1)
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        patch.setattr(os, "fork", fork)
        yield forks
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


def register_corpus(corpus, ledger: Ledger | None = None) -> Ledger:
    ledger = ledger or Ledger()
    for key in sorted(corpus):
        ledger.register_slide(key, commit_record(corpus[key]), canonical_uri(key))
    return ledger


@pytest.fixture
def corpus_dir(tmp_path) -> Path:
    return write_corpus(tmp_path / "corpus")


@pytest.fixture
def corpus(corpus_dir):
    return load_corpus(corpus_dir)


@pytest.fixture
def registered(corpus):
    return corpus, register_corpus(corpus)


@pytest.fixture
def key11() -> SlideKey:
    return SlideKey(1, 1)
