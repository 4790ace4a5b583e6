"""Set-based analytics over a normalized corpus.

All metrics operate on exact post-normalization identities: concepts as
(category, term) pairs and triples as (s, p, o).  Nothing here scores
correctness; the numbers describe how much the models' outputs overlap
and diverge.

One pass builds every input: corpus_disagreement reads each model's
identity sets once per slide, and every other metric takes its output.
"""

from __future__ import annotations

import statistics
import warnings
from dataclasses import dataclass
from typing import Literal

from .errors import InsufficientModels, ProvenanceWarning, TooFewSlides, UnknownBaselineModel
from .records import Corpus, ProvenanceRecord, SlideKey

SetKind = Literal["concepts", "triples"]

# Jaccard of two empty sets.  Pinned to 1.0: two extractors that both
# return nothing are in perfect agreement, which is also what makes
# dual-run comparisons of empty triple sets report 1.0.
EMPTY_SET_JACCARD = 1.0

STABLE = "Stable"
MODERATE = "Moderate"
UNSTABLE = "Unstable"


def jaccard(a: frozenset, b: frozenset) -> float:
    """|a ∩ b| / |a ∪ b|, with the empty/empty convention above."""
    if not a and not b:
        return EMPTY_SET_JACCARD
    return len(a & b) / len(a | b)


# --------------------------------------------------------------------------
# the per-slide pass


@dataclass(frozen=True)
class SlideDisagreement:
    """One slide's identity sets: each model's, and their union per kind."""

    key: SlideKey
    concepts: dict[str, frozenset]  # model name -> concept identities
    triples: dict[str, frozenset]   # model name -> triple identities
    concept_union: frozenset
    triple_union: frozenset

    @property
    def concept_union_size(self) -> int:
        return len(self.concept_union)

    @property
    def triple_union_size(self) -> int:
        return len(self.triple_union)


BySlide = dict[SlideKey, SlideDisagreement]


def disagreement(record: ProvenanceRecord) -> SlideDisagreement:
    """Each model's identity sets and their unions; union size is total semantic breadth."""
    concepts = {name: ext.concept_identities() for name, ext in record.models.items()}
    triples = {name: ext.triple_identities() for name, ext in record.models.items()}
    return SlideDisagreement(record.key, concepts, triples,
                             frozenset().union(*concepts.values()),
                             frozenset().union(*triples.values()))


def corpus_disagreement(corpus: Corpus) -> BySlide:
    """The one pass over the corpus: per-slide summaries in key order."""
    return {key: disagreement(corpus[key]) for key in sorted(corpus)}


def corpus_models(by_slide: BySlide) -> list[str]:
    """All model names appearing on any slide, sorted."""
    return sorted({name for d in by_slide.values() for name in d.concepts})


# --------------------------------------------------------------------------
# pairwise similarity


@dataclass
class JaccardMatrix:
    models: list[str]
    values: list[list[float]]  # symmetric, diagonal 1.0
    kind: SetKind

    def pair_mean(self, a: str, b: str) -> float:
        return self.values[self.models.index(a)][self.models.index(b)]


def pairwise_jaccard(
    by_slide: BySlide, kind: SetKind
) -> tuple[JaccardMatrix, dict[tuple[str, str], dict[SlideKey, float]]]:
    """Per-slide Jaccard for every unordered model pair plus per-pair means.

    Means are unweighted across all slides; a model missing from a slide
    contributes an empty set.  Raises InsufficientModels when fewer than
    two models appear corpus-wide.
    """
    models = corpus_models(by_slide)
    if len(models) < 2:
        raise InsufficientModels(f"pairwise similarity needs >= 2 models, found {len(models)}")

    sets = {key: d.concepts if kind == "concepts" else d.triples for key, d in by_slide.items()}
    per_slide: dict[tuple[str, str], dict[SlideKey, float]] = {}
    n = len(models)
    values = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            pair = (models[i], models[j])
            slide_values = {
                key: jaccard(model_sets.get(pair[0], frozenset()), model_sets.get(pair[1], frozenset()))
                for key, model_sets in sets.items()
            }
            per_slide[pair] = slide_values
            mean = sum(slide_values.values()) / len(by_slide)
            values[i][j] = values[j][i] = mean
    return JaccardMatrix(models=models, values=values, kind=kind), per_slide


# --------------------------------------------------------------------------
# lecture aggregation


@dataclass(frozen=True)
class LectureAggregate:
    lecture_id: int
    slide_count: int
    mean_concept_disagreement: float
    mean_triple_disagreement: float


def lecture_aggregate(by_slide: BySlide) -> dict[int, LectureAggregate]:
    """Arithmetic mean of per-slide disagreement within each lecture."""
    by_lecture: dict[int, list[SlideDisagreement]] = {}
    for key, d in by_slide.items():
        by_lecture.setdefault(key.lecture_id, []).append(d)
    return {
        lecture_id: LectureAggregate(
            lecture_id=lecture_id,
            slide_count=len(items),
            mean_concept_disagreement=sum(d.concept_union_size for d in items) / len(items),
            mean_triple_disagreement=sum(d.triple_union_size for d in items) / len(items),
        )
        for lecture_id, items in sorted(by_lecture.items())
    }


# --------------------------------------------------------------------------
# stability classification


@dataclass(frozen=True)
class StabilityLabel:
    key: SlideKey
    label: str  # STABLE / MODERATE / UNSTABLE
    d_concept: int


def stability_bands(values: list[int]) -> tuple[float, float]:
    """(Q1, Q3) of the values, linear interpolation between order statistics."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def classify_stability(by_slide: BySlide) -> list[StabilityLabel]:
    """Three-band labels from quartiles of concept disagreement.

    d <= Q1 is Stable, d > Q3 is Unstable, anything between is Moderate;
    every slide receives exactly one label.
    """
    if len(by_slide) < 4:
        raise TooFewSlides(f"stability classification needs >= 4 slides, got {len(by_slide)}")
    d_values = [d.concept_union_size for d in by_slide.values()]
    q1, q3 = stability_bands(d_values)
    labels = []
    for key, d in zip(by_slide, d_values):
        if d <= q1:
            label = STABLE
        elif d > q3:
            label = UNSTABLE
        else:
            label = MODERATE
        labels.append(StabilityLabel(key, label, d))
    return labels


# --------------------------------------------------------------------------
# per-model footprint


@dataclass(frozen=True)
class ModelFootprint:
    model: str
    mean_concepts: float
    mean_triples: float


def model_footprint(by_slide: BySlide) -> dict[str, ModelFootprint]:
    """Per-model mean concept/triple counts over all slides.

    A model missing from a slide counts as zero on that slide; one
    warning is emitted per model with missing slides.
    """
    result: dict[str, ModelFootprint] = {}
    for model in corpus_models(by_slide):
        missing = sum(1 for d in by_slide.values() if model not in d.concepts)
        if missing:
            warnings.warn(
                f"model {model!r} missing from {missing} of {len(by_slide)} slides; counted as 0",
                ProvenanceWarning,
                stacklevel=2,
            )
        result[model] = ModelFootprint(
            model=model,
            mean_concepts=sum(len(d.concepts.get(model, ())) for d in by_slide.values()) / len(by_slide),
            mean_triples=sum(len(d.triples.get(model, ())) for d in by_slide.values()) / len(by_slide),
        )
    return result


def densest_model(by_slide: BySlide) -> str:
    """Model with the highest mean concept count (ties break lexicographically)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ProvenanceWarning)
        footprints = model_footprint(by_slide)
    return max(sorted(footprints), key=lambda m: footprints[m].mean_concepts)


# --------------------------------------------------------------------------
# single-model coverage loss


@dataclass(frozen=True)
class CoverageLoss:
    key: SlideKey
    concept_loss: float
    triple_loss: float
    baseline_model: str


@dataclass
class CoverageReport:
    baseline_model: str
    losses: list[CoverageLoss]
    concept_mean: float
    concept_median: float
    triple_mean: float
    triple_median: float


def coverage_loss(by_slide: BySlide, baseline_model: str | None = None) -> CoverageReport:
    """Fraction of the multi-model union missed by a single baseline model.

    loss = |U \\ S_baseline| / |U| per slide, defined 0 when U is empty.
    The default baseline is the densest model by mean concept count.
    """
    if baseline_model is None:
        baseline_model = densest_model(by_slide)
    elif baseline_model not in corpus_models(by_slide):
        raise UnknownBaselineModel(f"baseline model {baseline_model!r} not present in corpus")

    def loss(union: frozenset, model_sets: dict[str, frozenset]) -> float:
        return len(union - model_sets.get(baseline_model, frozenset())) / len(union) if union else 0.0

    losses = [
        CoverageLoss(key, loss(d.concept_union, d.concepts), loss(d.triple_union, d.triples),
                     baseline_model)
        for key, d in by_slide.items()
    ]

    c_vals = [l.concept_loss for l in losses]
    t_vals = [l.triple_loss for l in losses]
    return CoverageReport(
        baseline_model=baseline_model,
        losses=losses,
        concept_mean=sum(c_vals) / len(c_vals),
        concept_median=statistics.median(c_vals),
        triple_mean=sum(t_vals) / len(t_vals),
        triple_median=statistics.median(t_vals),
    )
