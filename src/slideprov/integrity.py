"""Audit protocols: hash verification, tamper injection, time gaps, dual runs.

Tampering operates on in-memory copies only; persisting a tampered
record back to disk is an explicit, separate step (``tamper --write``
calls ``records.write_record``).  All randomized choices flow from a
caller-supplied seed so every experiment replays exactly.  Each tamper
kind is one table row.  Time gaps from file mtimes list the corpus files
without loading them.
"""

from __future__ import annotations

import math
import random
import statistics
import warnings
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .commitment import Commitment, commit_records
from .errors import DisjointCorpora, EmptyCorpus, ProvenanceWarning, UnregisteredCorpus
from .ledger import Ledger
from .metrics import jaccard
from .records import (
    Concept,
    Corpus,
    ModelExtraction,
    ProvenanceRecord,
    SlideKey,
    Triple,
    canonical_bytes,
    load_corpus,
    load_json_entries,
    scan_slide_files,
)

MATCH = "Match"
MISMATCH = "Mismatch"
UNREGISTERED = "Unregistered"


@dataclass(frozen=True)
class VerificationResult:
    key: SlideKey
    recomputed: Commitment
    on_chain: str | None
    verdict: str


def verify_commitments(commitments: Iterable[tuple[SlideKey, Commitment]],
                       ledger: Ledger) -> list[VerificationResult]:
    """Compare each recomputed commitment with the hash stored for its key.

    Hex comparison is case-insensitive; absence of a registry entry is a
    value (Unregistered), not an error.
    """
    results = []
    for key, recomputed in commitments:
        stored = ledger.get_slide(key)
        if stored is None:
            results.append(VerificationResult(key, recomputed, None, UNREGISTERED))
            continue
        verdict = MATCH if recomputed.matches_hex(stored.slide_hash) else MISMATCH
        results.append(VerificationResult(key, recomputed, stored.slide_hash, verdict))
    return results


def verify_records(records: Sequence[ProvenanceRecord], ledger: Ledger) -> list[VerificationResult]:
    """Recompute each record's commitment, in one batch, and compare with the stored hash."""
    return verify_commitments(zip((r.key for r in records), commit_records(records)), ledger)


def verify_corpus(corpus: Corpus, ledger: Ledger) -> list[VerificationResult]:
    return verify_records([corpus[key] for key in sorted(corpus)], ledger)


# --------------------------------------------------------------------------
# tamper injection


class TamperKind(Enum):
    MODIFY_CONCEPT_TERM = "ModifyConceptTerm"
    ALTER_TRIPLE = "AlterTriple"
    DELETE_TRIPLE = "DeleteTriple"
    INJECT_SPURIOUS_ELEMENT = "InjectSpuriousElement"
    EDIT_EVIDENCE = "EditEvidence"


@dataclass(frozen=True)
class TamperOp:
    kind: TamperKind
    target: str   # path into the record, e.g. models/<name>/triples/2
    payload: str  # replacement or injected text ("" for deletions)


def _fresh(rng: random.Random, taken: frozenset, make: Callable[[int], tuple]) -> tuple:
    """First ``make(n)`` outside ``taken``, drawing n = rng.randrange(10**6)."""
    while (identity := make(rng.randrange(10**6))) in taken:
        pass
    return identity


def _set_at(items: tuple, index: int, value: object) -> tuple:
    return items[:index] + (value,) + items[index + 1:]


def _modify_concept_term(ext: ModelExtraction, rng: random.Random) -> tuple[dict, str, str]:
    idx = rng.randrange(len(ext.concepts))
    old = ext.concepts[idx]
    _, term = _fresh(rng, ext.concept_identities(),
                     lambda n: (old.category, f"{old.term} tampered {n}"))
    concepts = _set_at(ext.concepts, idx, Concept(old.category, term, old.evidence))
    return {"concepts": concepts}, f"concepts/{idx}/term", term


def _alter_triple(ext: ModelExtraction, rng: random.Random) -> tuple[dict, str, str]:
    idx = rng.randrange(len(ext.triples))
    old = ext.triples[idx]
    _, _, o = _fresh(rng, ext.triple_identities(), lambda n: (old.s, old.p, f"{old.o} tampered {n}"))
    triples = _set_at(ext.triples, idx, Triple(old.s, old.p, o, old.confidence))
    return {"triples": triples}, f"triples/{idx}/o", o


def _delete_triple(ext: ModelExtraction, rng: random.Random) -> tuple[dict, str, str]:
    idx = rng.randrange(len(ext.triples))
    return {"triples": ext.triples[:idx] + ext.triples[idx + 1:]}, f"triples/{idx}", ""


def _inject_spurious_element(ext: ModelExtraction, rng: random.Random) -> tuple[dict, str, str]:
    if rng.random() < 0.5:
        _, term = _fresh(rng, ext.concept_identities(), lambda n: ("tampered", f"spurious {n}"))
        return {"concepts": ext.concepts + (Concept("tampered", term),)}, "concepts/+", term
    triple = Triple(*_fresh(rng, ext.triple_identities(),
                            lambda n: (f"spurious {n}", "relates to", "tampered target")))
    return {"triples": ext.triples + (triple,)}, "triples/+", triple.s


def _edit_evidence(ext: ModelExtraction, rng: random.Random) -> tuple[dict, str, str]:
    idx = rng.randrange(len(ext.evidence))
    edited = f"{ext.evidence[idx]} [tampered {rng.randrange(10**6)}]"
    return {"evidence": _set_at(ext.evidence, idx, edited)}, f"evidence/{idx}", edited


# kind -> (extraction field a model needs non-empty, or None for any model;
#          edit(ext, rng) -> (field changes, target below models/<name>/, payload))
_TAMPERS = {
    TamperKind.MODIFY_CONCEPT_TERM: ("concepts", _modify_concept_term),
    TamperKind.ALTER_TRIPLE: ("triples", _alter_triple),
    TamperKind.DELETE_TRIPLE: ("triples", _delete_triple),
    TamperKind.INJECT_SPURIOUS_ELEMENT: (None, _inject_spurious_element),
    TamperKind.EDIT_EVIDENCE: ("evidence", _edit_evidence),
}


def applicable_kinds(record: ProvenanceRecord) -> list[TamperKind]:
    """Tamper kinds that have material to act on in this record."""
    kinds = [kind for kind, (field, _) in _TAMPERS.items()
             if field is None or any(getattr(ext, field) for ext in record.models.values())]
    return sorted(kinds, key=lambda k: k.value)


def tamper_record(
    record: ProvenanceRecord, kind: TamperKind, rng: random.Random
) -> tuple[ProvenanceRecord, TamperOp]:
    """Apply one perturbation of the given kind to a copy of the record.

    The returned record is guaranteed to have different canonical bytes.
    Raises ValueError when the record lacks material for the kind.
    """
    if kind not in applicable_kinds(record):
        raise ValueError(f"{kind.value} not applicable to record {record.key}")
    field, edit = _TAMPERS[kind]
    name = rng.choice(sorted(model for model, ext in record.models.items()
                             if field is None or getattr(ext, field)))
    ext = record.models[name]
    changes, target, payload = edit(ext, rng)
    tampered = replace(record, models={**record.models, name: replace(ext, **changes)})
    op = TamperOp(kind, f"models/{name}/{target}", payload)
    if canonical_bytes(tampered) == canonical_bytes(record):
        raise AssertionError(f"tamper op {op} produced identical canonical bytes")
    return tampered, op


@dataclass(frozen=True)
class TamperTrial:
    key: SlideKey
    op: TamperOp
    verdict: str
    tampered: ProvenanceRecord


@dataclass
class TamperReport:
    trials: list[TamperTrial]
    seed: int

    @property
    def total(self) -> int:
        return len(self.trials)

    @property
    def detected(self) -> int:
        return sum(1 for t in self.trials if t.verdict == MISMATCH)

    @property
    def detection_rate(self) -> float:
        # vacuously perfect for the empty protocol (0/0)
        return self.detected / self.total if self.total else 1.0


def tamper_experiment(corpus: Corpus, ledger: Ledger, n: int, seed: int) -> TamperReport:
    """Seeded tamper-detection protocol.

    Selects n slides, applies one randomly chosen applicable perturbation
    to an in-memory copy of each, and verifies the copies against the
    registry.  Requires every corpus slide to be registered.
    """
    if n < 0 or n > len(corpus):
        raise ValueError(f"tamper count {n} out of range for corpus of {len(corpus)}")
    missing = [key for key in sorted(corpus) if not ledger.is_registered(key)]
    if missing:
        raise UnregisteredCorpus(f"{len(missing)} corpus slides unregistered, first: {missing[0]}")

    rng = random.Random(seed)
    chosen = rng.sample(sorted(corpus), n)
    tampered = []
    for key in chosen:
        record = corpus[key]
        tampered.append(tamper_record(record, rng.choice(applicable_kinds(record)), rng))
    results = verify_records([record for record, _ in tampered], ledger)
    trials = [TamperTrial(key, op, result.verdict, record)
              for key, (record, op), result in zip(chosen, tampered, results)]
    return TamperReport(trials=trials, seed=seed)


# --------------------------------------------------------------------------
# time gaps


@dataclass(frozen=True)
class TimeGap:
    key: SlideKey
    delta_seconds: float  # chain time minus local time
    anomaly: bool         # chain earlier than local


@dataclass(frozen=True)
class TimeGapSummary:
    count: int
    mean: float
    minimum: float
    maximum: float
    stddev: float
    anomalies: int


_OUT_OF_RANGE = "time gaps exceed the floating-point range"


def time_gaps(
    local_times: dict[SlideKey, float], ledger: Ledger
) -> tuple[list[TimeGap], TimeGapSummary]:
    """Per-slide chain-minus-local deltas with distribution summary.

    Negative deltas (chain earlier than local creation) are flagged as
    ordering anomalies.  Every slide in ``local_times`` must be
    registered.
    """
    if not local_times:
        raise ValueError("time gaps need at least one slide")
    keys = sorted(local_times)
    missing = [key for key in keys if not ledger.is_registered(key)]
    if missing:
        raise UnregisteredCorpus(f"{len(missing)} slides unregistered, first: {missing[0]}")
    try:  # a block timestamp past the largest float
        deltas = [float(ledger.get_slide(key).timestamp - local_times[key]) for key in keys]
    except OverflowError:
        raise ValueError(_OUT_OF_RANGE) from None
    gaps = [TimeGap(key, delta, delta < 0) for key, delta in zip(keys, deltas)]
    try:
        mean = statistics.fmean(deltas)
        # population stddev; statistics.pstdev rounds differently across Python versions
        stddev = math.sqrt(statistics.fmean((d - mean) ** 2 for d in deltas))
    except (OverflowError, ValueError):  # fsum or ** past the largest float, or inf - inf
        mean = stddev = math.inf
    summary = TimeGapSummary(count=len(gaps), mean=mean, minimum=min(deltas), maximum=max(deltas),
                             stddev=stddev, anomalies=sum(1 for g in gaps if g.anomaly))
    if not all(map(math.isfinite, (summary.mean, summary.maximum, summary.minimum, summary.stddev))):
        raise ValueError(_OUT_OF_RANGE)
    return gaps, summary


def local_mtimes(root: Path | str) -> dict[SlideKey, float]:
    """Filesystem mtimes of every slide file in the corpus layout.

    Files are listed, not loaded: a file that no longer parses is still
    listed.  Raises EmptyCorpus when the layout holds no slide file.
    """
    files = scan_slide_files(root)
    if not files:
        raise EmptyCorpus(f"no slide files found under {root}")
    return {key: path.stat().st_mtime for key, path in files}


def load_time_manifest(path: Path | str) -> dict[SlideKey, float]:
    """Read local creation times from a JSON manifest.

    Format: a non-empty list of objects with lecture_id, slide_id, and
    t_local (seconds).  Manifests make time-gap experiments reproducible
    where mtimes are not portable.  A malformed manifest, or a t_local
    that is not finite, raises ValueError.
    """
    return dict(load_json_entries(path, "time manifest", lambda e: (
        SlideKey(int(e["lecture_id"]), int(e["slide_id"])), _finite(e["t_local"], "t_local"))))


def _finite(value: object, name: str) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{name} is not a finite number: {value!r}")
    return number


# --------------------------------------------------------------------------
# dual-run comparison


@dataclass(frozen=True)
class RunPair:
    key: SlideKey
    model: str
    concept_jaccard: float
    triple_jaccard: float


@dataclass(frozen=True)
class AsymmetricPair:
    key: SlideKey
    model: str
    present_in: str  # "a" or "b"


@dataclass
class RunComparison:
    pairs: list[RunPair]
    asymmetric: list[AsymmetricPair]
    byte_equal: dict[SlideKey, bool]
    only_in_a: list[SlideKey]
    only_in_b: list[SlideKey]

    @property
    def n_pairs(self) -> int:
        return len(self.pairs)

    @property
    def n_concept_perfect(self) -> int:
        return sum(1 for p in self.pairs if p.concept_jaccard == 1.0)

    @property
    def n_triple_perfect(self) -> int:
        return sum(1 for p in self.pairs if p.triple_jaccard == 1.0)

    @property
    def n_perfect(self) -> int:
        return sum(1 for p in self.pairs if p.concept_jaccard == 1.0 and p.triple_jaccard == 1.0)

    @property
    def n_byte_equal(self) -> int:
        return sum(1 for equal in self.byte_equal.values() if equal)

    @property
    def identical(self) -> bool:
        return (
            not self.asymmetric
            and self.n_perfect == self.n_pairs
            and self.n_byte_equal == len(self.byte_equal)
        )


def compare_corpora(corpus_a: Corpus, corpus_b: Corpus) -> RunComparison:
    """Model-by-model Jaccard between two runs over their common slides."""
    common = sorted(set(corpus_a) & set(corpus_b))
    if not common:
        raise DisjointCorpora("runs share no slide keys")

    pairs: list[RunPair] = []
    asymmetric: list[AsymmetricPair] = []
    byte_equal: dict[SlideKey, bool] = {}
    for key in common:
        rec_a, rec_b = corpus_a[key], corpus_b[key]
        byte_equal[key] = canonical_bytes(rec_a) == canonical_bytes(rec_b)
        for model in sorted(set(rec_a.models) | set(rec_b.models)):
            in_a, in_b = model in rec_a.models, model in rec_b.models
            if in_a and in_b:
                pairs.append(
                    RunPair(
                        key,
                        model,
                        jaccard(rec_a.models[model].concept_identities(),
                                rec_b.models[model].concept_identities()),
                        jaccard(rec_a.models[model].triple_identities(),
                                rec_b.models[model].triple_identities()),
                    )
                )
            else:
                asymmetric.append(AsymmetricPair(key, model, "a" if in_a else "b"))
    if asymmetric:
        warnings.warn(
            f"{len(asymmetric)} (slide, model) pairs present in only one run; "
            "reported separately, excluded from similarity counts",
            ProvenanceWarning,
            stacklevel=2,
        )
    return RunComparison(
        pairs=pairs,
        asymmetric=asymmetric,
        byte_equal=byte_equal,
        only_in_a=sorted(set(corpus_a) - set(corpus_b)),
        only_in_b=sorted(set(corpus_b) - set(corpus_a)),
    )


def compare_runs(root_a: Path | str, root_b: Path | str) -> RunComparison:
    """Load two corpus directories and compare them slide by slide."""
    corpus_a = load_corpus(root_a).records
    corpus_b = load_corpus(root_b).records
    return compare_corpora(corpus_a, corpus_b)
