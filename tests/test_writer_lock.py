"""One ledger writer at a time: ``register`` holds ``<ledger>.lock``.

``register`` takes an exclusive ``flock`` on the lock file beside the
ledger before it loads the ledger and keeps it until its new file is
renamed into place, so a second ``register`` loads the first one's events
and keeps them.  Each command here runs as its own process.  Neither numpy
nor hypothesis is needed.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import register_corpus, write_corpus
from slideprov import load_corpus

fcntl = pytest.importorskip("fcntl")  # no flock, no lock: writers are not serialized there

SRC = Path(__file__).resolve().parent.parent / "src"


def start_register(corpus: Path, ledger: Path, out: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONWARNINGS", None)
    return subprocess.Popen([sys.executable, "-m", "slideprov.cli", "register", "--corpus", str(corpus),
                             "--ledger", str(ledger), "--out", str(out)],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def split_corpus(root: Path, n_lectures: int, slides_per_lecture: int) -> tuple[Path, Path]:
    """Two corpora with no slide key in common: the first half of the lectures, and the rest."""
    first = write_corpus(root / "first", n_lectures=n_lectures, slides_per_lecture=slides_per_lecture)
    second = root / "second" / "by_slide"
    second.mkdir(parents=True)
    for lecture in range(n_lectures // 2 + 1, n_lectures + 1):
        (first / "by_slide" / f"Lecture {lecture}").rename(second / f"Lecture {lecture}")
    return first, second.parent


def event_keys(ledger: Path) -> list[tuple[int, int]]:
    return [(e["lectureId"], e["slideId"]) for e in json.loads(ledger.read_bytes())["events"]]


def test_register_waits_for_the_lock_and_then_loads_the_ledger(tmp_path):
    first, second = split_corpus(tmp_path, n_lectures=4, slides_per_lecture=3)
    ledger = tmp_path / "ledger.json"
    with open(f"{ledger}.lock", "ab") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        waiting = start_register(second, ledger, tmp_path / "out")
        try:
            time.sleep(1)
            assert waiting.poll() is None, waiting.communicate()
            # the first writer: it saves the ledger while it holds the lock
            register_corpus(load_corpus(first)).save(ledger)
        except BaseException:
            waiting.kill()
            waiting.communicate()
            raise
    stdout, stderr = waiting.communicate(timeout=120)
    assert waiting.returncode == 0, stderr
    assert stdout.startswith("registered 6/6 slides"), stdout
    assert event_keys(ledger) == sorted(load_corpus(first)) + sorted(load_corpus(second))


def test_two_racing_registers_keep_every_event(tmp_path):
    first, second = split_corpus(tmp_path, n_lectures=32, slides_per_lecture=10)  # 160 slides each
    ledger = tmp_path / "ledger.json"
    racers = [start_register(corpus, ledger, tmp_path / f"out-{corpus.name}") for corpus in (first, second)]
    try:
        for racer in racers:
            _, stderr = racer.communicate(timeout=120)
            assert racer.returncode == 0, stderr
    finally:
        for racer in racers:
            racer.kill()  # none is left running, also when one fails
            racer.wait()
    keys = event_keys(ledger)
    assert len(keys) == len(set(keys)) == 320
    assert set(keys) == set(load_corpus(first)) | set(load_corpus(second))
