"""The three workloads: their inputs, their command rounds and their checks.

A workload builds its inputs once per set-up (``setup``), works out the
expected outputs apart from the program (``prepare``), and then runs
identical rounds of ``slideprov`` commands (``round``), each command
followed by the check of its report files.
"""

from __future__ import annotations

import random
import shutil
from pathlib import Path

import checks
import gen
import oracle

CORPUS = ["--corpus", "corpus", "--ledger", "ledger.json"]
SAMPLED_COMMITMENTS = 8    # per corpus, recomputed with the reference Keccak
TAMPER_COUNT = 20
# Assumed shapes, with no measured source (see README, "Sourced and assumed").
SEMANTIC_SCALE = 4         # semantic-analytics corpus, in paper corpora
CHANGE_SHARE = 0.10        # of (slide, model) outputs edited in the second run
DROP_SHARE = 0.02          # of slides that lose one model output in the second run
INCREMENTS, INCREMENT_SLIDES = 6, 8


class Workload:
    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.dir = Path()

    def rng(self, purpose: str) -> random.Random:
        return random.Random(f"{self.name}/{purpose}/{self.seed}")

    def setup(self, directory: Path, runner) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        raise NotImplementedError

    def round(self, runner) -> None:
        raise NotImplementedError


class IngestCommit(Workload):
    """register into a fresh ledger, then verify, over a paper-scale corpus."""

    name = "ingest-commit"
    def setup(self, directory: Path, runner) -> None:
        self.dir = directory
        self.docs = gen.corpus_docs(self.rng("corpus"), gen.PAPER_SLIDES)
        gen.write_docs(directory / "corpus", self.docs)

    def prepare(self) -> None:
        self.keys = sorted(self.docs)
        sample = self.rng("sample").sample(self.keys, SAMPLED_COMMITMENTS)
        self.commitments = {key: oracle.commitment(self.docs[key], key) for key in sample}

    def round(self, runner) -> None:
        (self.dir / "ledger.json").unlink(missing_ok=True)
        n = len(self.keys)
        runner.run(self.dir, ["register", *CORPUS, "--out", "out/register"], n,
                   lambda: checks.check_register(self.dir / "out/register", self.keys, 0,
                                                 self.commitments, oracle.INITIAL_BASE_FEE_WEI))
        runner.run(self.dir, ["verify", *CORPUS, "--out", "out/verify"], n,
                   lambda: checks.check_verify(self.dir / "out/verify", self.keys, self.commitments))


class SemanticAnalytics(Workload):
    """analyze, then compare-runs against a seeded second extraction run."""

    name = "semantic-analytics"

    def setup(self, directory: Path, runner) -> None:
        self.dir = directory
        self.docs = gen.corpus_docs(self.rng("corpus"), SEMANTIC_SCALE * gen.PAPER_SLIDES)
        run_b, self.changed, self.dropped = gen.second_run(
            self.rng("second-run"), self.docs, CHANGE_SHARE, DROP_SHARE)
        gen.write_docs(directory / "run_a", self.docs)
        gen.write_docs(directory / "run_b", run_b)

    def prepare(self) -> None:
        self.expected = oracle.analytics(self.docs)
        self.changed_concepts = {
            (key, model): len(oracle.concepts(self.docs[key]["models"][model]))
            for key, model in self.changed
        }

    def round(self, runner) -> None:
        n = len(self.docs)
        runner.run(self.dir, ["analyze", "--corpus", "run_a", "--out", "out/analyze"], n,
                   lambda: checks.check_analyze(self.dir / "out/analyze", self.expected))
        runner.run(self.dir, ["compare-runs", "run_a", "run_b", "--out", "out/compare"], n,
                   lambda: checks.check_compare(self.dir / "out/compare", n, len(gen.MODELS),
                                                self.changed_concepts, self.dropped))


class IncrementalAudit(Workload):
    """Small lectures added one by one to a registered paper-scale corpus,
    each followed by ``register --skip-existing``; then tamper and time-gaps."""

    name = "incremental-audit"

    def setup(self, directory: Path, runner) -> None:
        self.dir = directory
        self.docs = gen.corpus_docs(self.rng("corpus"), gen.PAPER_SLIDES)
        gen.write_docs(directory / "corpus", self.docs)
        first = max(lecture for lecture, _ in self.docs) + 1
        self.added = gen.corpus_docs(self.rng("increments"), INCREMENTS * INCREMENT_SLIDES,
                                     first_lecture=first, n_lectures=INCREMENTS)
        self.lectures = sorted({lecture for lecture, _ in self.added})
        self._remove_increments()
        (directory / "ledger.json").unlink(missing_ok=True)
        runner.setup_command(directory, ["register", *CORPUS, "--out", "out/base"])

    def _remove_increments(self) -> None:
        for lecture in self.lectures:
            shutil.rmtree(self.dir / "corpus" / "by_slide" / f"Lecture {lecture}", ignore_errors=True)

    def prepare(self) -> None:
        base = sorted(self.docs)
        self.base_blocks = {key: block for block, key in enumerate(base, start=1)}
        checks.check_register(self.dir / "out/base", base, 0, {}, oracle.INITIAL_BASE_FEE_WEI)
        self.base_ledger = (self.dir / "ledger.json").read_bytes()
        rng = self.rng("sample")
        self.commitments = {}
        for lecture in self.lectures:
            keys = sorted(key for key in self.added if key[0] == lecture)
            for key in rng.sample(keys, 2):
                self.commitments[key] = oracle.commitment(self.added[key], key)
        corpus = self.dir / "corpus"
        self.paths = {key: gen.slide_path(corpus, key) for key in [*self.docs, *self.added]}

    def round(self, runner) -> None:
        corpus = self.dir / "corpus"
        self._remove_increments()
        (self.dir / "ledger.json").write_bytes(self.base_ledger)

        blocks = dict(self.base_blocks)
        for lecture in self.lectures:
            lecture_docs = {key: doc for key, doc in self.added.items() if key[0] == lecture}
            gen.write_docs(corpus, lecture_docs)
            new = sorted(lecture_docs)
            before = len(blocks)
            sample = {key: self.commitments[key] for key in new if key in self.commitments}
            runner.run(self.dir, ["register", *CORPUS, "--out", "out/register", "--skip-existing"],
                       before + len(new),
                       lambda: checks.check_register(self.dir / "out/register", new, before, sample))
            blocks.update((key, before + i) for i, key in enumerate(new, start=1))

        keys = set(blocks)
        runner.run(self.dir, ["tamper", *CORPUS, "--out", "out/tamper",
                              "-n", str(TAMPER_COUNT), "--seed", str(self.seed)], len(keys),
                   lambda: checks.check_tamper(self.dir / "out/tamper", keys, TAMPER_COUNT))
        runner.run(self.dir, ["time-gaps", *CORPUS, "--out", "out/time-gaps"], len(keys),
                   lambda: checks.check_time_gaps(self.dir / "out/time-gaps", blocks, self.paths))


WORKLOADS = {w.name: w for w in (IngestCommit, SemanticAnalytics, IncrementalAudit)}
