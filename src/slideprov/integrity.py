"""Audit protocols: hash verification, tamper injection, time gaps, dual runs.

Tampering operates on in-memory copies only; persisting a tampered
record back to disk is an explicit, separate step (``tamper --write``
calls ``records.write_record``).  All randomized choices flow from a
caller-supplied seed so every experiment replays exactly.  Each tamper
kind is one table row; an edit draws its element in the order of the
record's canonical bytes, where its target index points.  Tamper opens
only the files of the slides it draws, and time gaps from file mtimes
list the corpus files without loading them.  A dual-run comparison takes the two runs' records paired
by key (``records.read_runs``); it renders canonical bytes only for a
slide whose identity sets agree in both runs.
"""

from __future__ import annotations

import math
import random
import warnings
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Container, Iterable, Mapping, NamedTuple

from .errors import DisjointCorpora, EmptyCorpus, ProvenanceWarning, UnregisteredCorpus
from .records import (
    CorpusReader,
    ModelExtraction,
    ProvenanceRecord,
    SlideKey,
    _concept_text,
    _triple_text,
    canonical_bytes,
    load_json_entries,
    normalize_record,
    read_fields,
    scan_slide_files,
)

if TYPE_CHECKING:
    from .ledger import Ledger

MATCH = "Match"
MISMATCH = "Mismatch"
UNREGISTERED = "Unregistered"
MISSING = "Missing"  # registered, but the corpus no longer yields the slide


class VerificationResult(NamedTuple):
    key: SlideKey
    recomputed: str | None         # the commitment's 0x text; None for a Missing slide
    on_chain: str | None           # None for an Unregistered slide
    verdict: str


def _verdict(recomputed: str | None, on_chain: str | None) -> str:
    """The one verdict rule; hex comparison is case-insensitive (a commitment's own text is lowercase)."""
    if recomputed is None:
        return MISSING
    if on_chain is None:
        return UNREGISTERED
    return MATCH if recomputed == on_chain.lower() else MISMATCH


def verify_corpus(commitments: Mapping[SlideKey, str], ledger: Ledger) -> list[VerificationResult]:
    """One verdict per key that is recomputed or registered, in key order.

    Absence on either side is a verdict (Unregistered, Missing), not an
    error.
    """
    results = []
    for key in sorted(commitments.keys() | ledger.records.keys()):
        recomputed = commitments.get(key)
        stored = ledger.get_slide(key)
        on_chain = None if stored is None else stored.slide_hash
        results.append(VerificationResult(key, recomputed, on_chain, _verdict(recomputed, on_chain)))
    return results


# --------------------------------------------------------------------------
# tamper injection


class TamperKind(Enum):
    MODIFY_CONCEPT_TERM = "ModifyConceptTerm"
    ALTER_TRIPLE = "AlterTriple"
    DELETE_TRIPLE = "DeleteTriple"
    INJECT_SPURIOUS_ELEMENT = "InjectSpuriousElement"
    EDIT_EVIDENCE = "EditEvidence"


class TamperOp(NamedTuple):
    kind: TamperKind
    target: str   # path into the record, e.g. models/<name>/triples/2
    payload: str  # replacement or injected text ("" for deletions)


def _fresh(rng: random.Random, taken: Container, make: Callable[[int], tuple]) -> tuple:
    """First ``make(n)`` outside ``taken``, drawing n = rng.randrange(10**6)."""
    while (identity := make(rng.randrange(10**6))) in taken:
        pass
    return identity


def _draw(table: dict, text: Callable[[tuple, object], str], rng: random.Random) -> tuple[int, tuple, object]:
    """A uniform draw from ``table``: an item's index in the order of canonical bytes, identity and value.

    Items sort by their canonical text, as ``records.canonical_bytes`` writes
    them, so an index names a place in the record's bytes; distinct
    identities have distinct texts, so no two tie.
    """
    items = sorted(table.items(), key=lambda item: text(*item))
    idx = rng.randrange(len(items))
    return idx, *items[idx]


def _rename(table: dict, text: Callable[[tuple, object], str], rng: random.Random) -> tuple[dict, int, str]:
    """``table`` with a drawn identity's last part made fresh, value kept; the draw's index, and the new part."""
    idx, old, _ = _draw(table, text, rng)
    new = _fresh(rng, table.keys(), lambda n: (*old[:-1], f"{old[-1]} tampered {n}"))
    renamed = dict(table)
    renamed[new] = renamed.pop(old)
    return renamed, idx, new[-1]


def _modify_concept_term(ext: ModelExtraction, rng: random.Random) -> tuple[dict, str, str]:
    concepts, idx, term = _rename(ext.concepts, _concept_text, rng)
    return {"concepts": concepts}, f"concepts/{idx}/term", term


def _alter_triple(ext: ModelExtraction, rng: random.Random) -> tuple[dict, str, str]:
    triples, idx, o = _rename(ext.triples, _triple_text, rng)
    return {"triples": triples}, f"triples/{idx}/o", o


def _delete_triple(ext: ModelExtraction, rng: random.Random) -> tuple[dict, str, str]:
    idx, old, _ = _draw(ext.triples, _triple_text, rng)
    triples = dict(ext.triples)
    del triples[old]
    return {"triples": triples}, f"triples/{idx}", ""


def _inject_spurious_element(ext: ModelExtraction, rng: random.Random) -> tuple[dict, str, str]:
    if rng.random() < 0.5:
        new = _fresh(rng, ext.concepts.keys(), lambda n: ("tampered", f"spurious {n}"))
        return {"concepts": {**ext.concepts, new: None}}, "concepts/+", new[1]
    new = _fresh(rng, ext.triples.keys(), lambda n: (f"spurious {n}", "relates to", "tampered target"))
    return {"triples": {**ext.triples, new: None}}, "triples/+", new[0]


def _edit_evidence(ext: ModelExtraction, rng: random.Random) -> tuple[dict, str, str]:
    idx = rng.randrange(len(ext.evidence))
    edited = f"{ext.evidence[idx]} [tampered {rng.randrange(10**6)}]"
    return {"evidence": (*ext.evidence[:idx], edited, *ext.evidence[idx + 1:])}, f"evidence/{idx}", edited


# kind -> (extraction field a model needs non-empty, or None for any model;
#          edit(ext, rng) -> (field changes, target below models/<name>/, payload)),
# in the order of the kinds' values: tamper draws a kind from the applicable ones in this order
_TAMPERS = {
    TamperKind.ALTER_TRIPLE: ("triples", _alter_triple),
    TamperKind.DELETE_TRIPLE: ("triples", _delete_triple),
    TamperKind.EDIT_EVIDENCE: ("evidence", _edit_evidence),
    TamperKind.INJECT_SPURIOUS_ELEMENT: (None, _inject_spurious_element),
    TamperKind.MODIFY_CONCEPT_TERM: ("concepts", _modify_concept_term),
}


def applicable_kinds(record: ProvenanceRecord) -> list[TamperKind]:
    """Tamper kinds that have material to act on in this record, in ``_TAMPERS``' order."""
    return [kind for kind, (field, _) in _TAMPERS.items()
            if field is None or any(getattr(ext, field) for ext in record.models.values())]


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
    tampered = record._replace(models={**record.models, name: ext._replace(**changes)})
    op = TamperOp(kind, f"models/{name}/{target}", payload)
    if canonical_bytes(tampered) == canonical_bytes(record):
        raise AssertionError(f"tamper op {op} produced identical canonical bytes")
    return tampered, op


class TamperTrial(NamedTuple):
    key: SlideKey
    op: TamperOp
    verdict: str
    tampered: ProvenanceRecord


class TamperReport(NamedTuple):
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


def tamper_experiment(reader: CorpusReader, ledger: Ledger, n: int, seed: int) -> TamperReport:
    """Seeded tamper-detection protocol over n of the reader's registered slides.

    Only the drawn files are opened; a drawn file that fails to load is
    in ``reader.failures``.  Each copy that loads gets one random
    applicable perturbation and is verified against the registry.
    """
    from .commitment import commit_records

    if not reader.paths:
        raise EmptyCorpus(f"no slide files found under {reader.root}")
    pool = [key for key in reader.paths if ledger.is_registered(key)]
    if n < 0 or n > len(pool):
        raise ValueError(f"tamper count {n} out of range for {len(pool)} registered slides")

    rng = random.Random(seed)
    chosen = rng.sample(pool, n)
    loaded = dict(reader.read(normalize_record, sorted(chosen)))
    drawn = [key for key in chosen if key in loaded]
    tampered = [tamper_record(loaded[key], rng.choice(applicable_kinds(loaded[key])), rng) for key in drawn]
    commitments = commit_records(record for record, _ in tampered)
    trials = [TamperTrial(key, op, _verdict(recomputed, ledger.get_slide(key).slide_hash), record)
              for key, (record, op), recomputed in zip(drawn, tampered, commitments)]
    return TamperReport(trials=trials, seed=seed)


# --------------------------------------------------------------------------
# time gaps


class TimeGap(NamedTuple):
    key: SlideKey
    delta_seconds: float  # chain time minus local time
    anomaly: bool         # chain earlier than local


class TimeGapSummary(NamedTuple):  # its fields are the time_gap_summary report's names
    count: int
    mean: float
    min: float
    max: float
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
    stored = [ledger.get_slide(key) for key in keys]  # None: unregistered
    missing = [key for key, record in zip(keys, stored) if record is None]
    if missing:
        raise UnregisteredCorpus(f"{len(missing)} slides unregistered, first: {missing[0]}")
    try:  # a block timestamp, a sum or a square past the largest float
        deltas = [float(record.timestamp - local_times[key]) for key, record in zip(keys, stored)]
        mean = math.fsum(deltas) / len(deltas)  # statistics.fmean's; its pstdev rounds differently across versions
        stddev = math.sqrt(math.fsum((d - mean) ** 2 for d in deltas) / len(deltas))  # population stddev
    except OverflowError:
        raise ValueError(_OUT_OF_RANGE) from None
    if not math.isfinite(stddev):  # a delta or a d - mean past the largest float makes it inf or nan
        raise ValueError(_OUT_OF_RANGE)
    gaps = [TimeGap(key, delta, delta < 0) for key, delta in zip(keys, deltas)]
    return gaps, TimeGapSummary(len(gaps), mean, min(deltas), max(deltas), stddev, sum(1 for g in gaps if g.anomaly))


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
    """Local creation times from a JSON manifest: a non-empty list of objects with lecture_id, slide_id, t_local.

    Manifests make time-gap experiments reproducible where mtimes are not
    portable.  A malformed manifest, a field not of its kind in
    ``records.FIELDS`` or a slide listed twice raises ValueError.
    """
    return dict(load_json_entries(path, "time manifest", _manifest_entry, key=lambda item: item[0]))


def _manifest_entry(entry: dict) -> tuple[SlideKey, float]:
    lecture_id, slide_id, t_local = read_fields(entry, "time manifest").values()
    return SlideKey(lecture_id, slide_id), float(t_local)


# --------------------------------------------------------------------------
# dual-run comparison


class RunPair(NamedTuple):
    key: SlideKey
    model: str
    concept_jaccard: float
    triple_jaccard: float


class AsymmetricPair(NamedTuple):
    key: SlideKey
    model: str
    present_in: str  # "a" or "b"


class RunComparison(NamedTuple):
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


def compare_corpora(run_a: Iterable[tuple[SlideKey, ProvenanceRecord]],
                    run_b: Iterable[tuple[SlideKey, ProvenanceRecord]]) -> RunComparison:
    """Model-by-model Jaccard between two runs over their common slides.

    Each run is ``(key, record)`` pairs in any order, such as a corpus's
    items or the stream of ``CorpusReader.read``; both are held by key and
    paired.  When both runs give the same record object for a key, the
    slide is byte-equal and each model's Jaccard is ``jaccard(s, s)``.
    """
    a, b = dict(run_a), dict(run_b)
    return join_ranges([compare_range((key, a.get(key), b.get(key)) for key in sorted(a.keys() | b.keys()))])


def compare_range(runs: Iterable[tuple[SlideKey, ProvenanceRecord | None, ProvenanceRecord | None]]
                  ) -> RunComparison:
    """``compare_corpora`` over one key range's ``records.read_runs`` triples, without the whole-run checks.

    A slide whose runs differ in a model name or an identity set is not
    byte-equal, as each identity's text is part of the canonical bytes;
    only a slide whose sets all agree has both runs' bytes rendered.
    """
    from .metrics import EMPTY_SET_JACCARD, jaccard  # here, so that verify, tamper and time-gaps load no metrics

    pairs: list[RunPair] = []
    asymmetric: list[AsymmetricPair] = []
    byte_equal: dict[SlideKey, bool] = {}
    only_in: tuple[list[SlideKey], list[SlideKey]] = ([], [])
    for key, record_a, record_b in runs:
        if record_a is None or record_b is None:  # a key of one run only: run A's at 0, run B's at 1
            only_in[record_a is None].append(key)
            continue
        if record_a is record_b:  # one document for both runs: each identity set s gets jaccard(s, s)
            byte_equal[key] = True
            pairs += (RunPair(key, model, 1.0 if m.concepts else EMPTY_SET_JACCARD,
                              1.0 if m.triples else EMPTY_SET_JACCARD)
                      for model, m in sorted(record_a.models.items()))
            continue
        models_a, models_b = record_a.models, record_b.models
        same = models_a.keys() == models_b.keys()
        for model in sorted(models_a.keys() | models_b.keys()):
            in_a, in_b = model in models_a, model in models_b
            if in_a and in_b:
                concepts_a, concepts_b = models_a[model].concepts.keys(), models_b[model].concepts.keys()
                triples_a, triples_b = models_a[model].triples.keys(), models_b[model].triples.keys()
                pairs.append(RunPair(key, model, jaccard(concepts_a, concepts_b), jaccard(triples_a, triples_b)))
                same = same and concepts_a == concepts_b and triples_a == triples_b
            else:
                asymmetric.append(AsymmetricPair(key, model, "a" if in_a else "b"))
        byte_equal[key] = same and canonical_bytes(record_a) == canonical_bytes(record_b)
    return RunComparison(pairs, asymmetric, byte_equal, *only_in)


def join_ranges(parts: Iterable[RunComparison]) -> RunComparison:
    """Two runs' comparison from ``compare_range``'s over consecutive key ranges.

    Raises DisjointCorpora when no range has a common key; warns once of every range's asymmetric pairs.
    """
    joined = RunComparison([], [], {}, [], [])
    for part in parts:
        joined.pairs.extend(part.pairs)
        joined.asymmetric.extend(part.asymmetric)
        joined.byte_equal.update(part.byte_equal)
        joined.only_in_a.extend(part.only_in_a)
        joined.only_in_b.extend(part.only_in_b)
    if not joined.byte_equal:
        raise DisjointCorpora("runs share no slide keys")
    if joined.asymmetric:
        warnings.warn(f"{len(joined.asymmetric)} (slide, model) pairs present in only one run; reported "
                      "separately, excluded from similarity counts", ProvenanceWarning, stacklevel=2)
    return joined
