"""Set-based analytics over a normalized corpus.

All metrics operate on exact post-normalization identities: concepts as
(category, term) pairs and triples as (s, p, o).  Nothing here scores
correctness; the numbers describe how much the models' outputs overlap
and diverge.

One pass builds every input: ``slide_disagreement`` reads each model's
identity sets once per slide and keeps only their sizes, those of their
unions and of each model pair's intersections; ``disagreement`` gives it
a record's ``identity_sets()``.  Every other metric is a ratio of those
sizes and takes its output.
"""

from __future__ import annotations

import math
import statistics
import sys
import warnings
from itertools import combinations
from typing import AbstractSet, Iterable, Literal, Mapping, NamedTuple

from .errors import InsufficientModels, ProvenanceWarning, TooFewSlides, UnknownBaselineModel
from .records import ProvenanceRecord, SlideKey

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


class SlideDisagreement(NamedTuple):
    """One slide's set sizes, per kind: the union's, each model's, and each model pair's intersection's."""

    key: SlideKey
    d_concept: int  # the disagreement: the size of the union of every model's set
    d_triple: int
    counts: dict[str, tuple[int, int]]               # model -> (concepts, triples)
    common: dict[tuple[str, str], tuple[int, int]]   # (a, b), a < b -> (concepts, triples) in both


BySlide = dict[SlideKey, SlideDisagreement]
_PAIRS: dict[tuple[str, str], tuple[str, str]] = {}  # one ``common`` key per model pair, for every slide


def slide_disagreement(key: SlideKey, sets: Mapping[str, tuple[AbstractSet, AbstractSet]]) -> SlideDisagreement:
    """Sizes of each model's identity sets, their unions (total semantic breadth) and each pair's intersections.

    ``sets`` maps each model name to its concept and triple identity sets.
    """
    names = sorted(map(sys.intern, sets))  # so the held summaries share one copy of each name
    concepts = {name: sets[name][0] for name in names}
    triples = {name: sets[name][1] for name in names}
    return SlideDisagreement(
        key, len(frozenset().union(*concepts.values())), len(frozenset().union(*triples.values())),
        {name: (len(concepts[name]), len(triples[name])) for name in names},
        {_PAIRS.setdefault((a, b), (a, b)): (len(concepts[a] & concepts[b]), len(triples[a] & triples[b]))
         for a, b in combinations(names, 2)})


def disagreement(record: ProvenanceRecord) -> SlideDisagreement:
    """``slide_disagreement`` of a record's identity sets."""
    return slide_disagreement(record.key, record.identity_sets())


def corpus_disagreement(records: Iterable[tuple[SlideKey, ProvenanceRecord]]) -> BySlide:
    """The one pass: per-slide summaries in key order, from (key, record) pairs or a reader's stream."""
    by_slide = {key: disagreement(record) for key, record in records}
    return {key: by_slide[key] for key in sorted(by_slide)}


def corpus_models(by_slide: BySlide) -> list[str]:
    """All model names appearing on any slide, sorted."""
    return sorted({name for d in by_slide.values() for name in d.counts})


# --------------------------------------------------------------------------
# pairwise similarity


class JaccardMatrix(NamedTuple):
    models: list[str]
    values: list[list[float]]  # symmetric, diagonal 1.0
    kind: SetKind

    def pair_mean(self, a: str, b: str) -> float:
        return self.values[self.models.index(a)][self.models.index(b)]


def pairwise_jaccard(
    by_slide: BySlide, kind: SetKind
) -> tuple[JaccardMatrix, dict[tuple[str, str], dict[SlideKey, float]]]:
    """Per-slide Jaccard for every unordered model pair plus per-pair means.

    A slide's Jaccard is common / (n_a + n_b - common).  Means are unweighted across all slides,
    with ``math.fsum`` (``sum`` rounds otherwise from Python 3.12 on); a model missing from a
    slide contributes an empty set.  Raises InsufficientModels when fewer than two models appear.
    """
    models = corpus_models(by_slide)
    if len(models) < 2:
        raise InsufficientModels(f"pairwise similarity needs >= 2 models, found {len(models)}")

    k = 0 if kind == "concepts" else 1
    per_slide: dict[tuple[str, str], dict[SlideKey, float]] = {}
    n = len(models)
    values = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            pair = (models[i], models[j])
            slide_values = per_slide[pair] = {}
            for key, d in by_slide.items():
                common = d.common.get(pair, (0, 0))[k]
                union = d.counts.get(pair[0], (0, 0))[k] + d.counts.get(pair[1], (0, 0))[k] - common
                slide_values[key] = common / union if union else EMPTY_SET_JACCARD
            mean = math.fsum(slide_values.values()) / len(by_slide)
            values[i][j] = values[j][i] = mean
    return JaccardMatrix(models=models, values=values, kind=kind), per_slide


# --------------------------------------------------------------------------
# lecture aggregation


class LectureAggregate(NamedTuple):
    lecture_id: int
    slide_count: int
    mean_d_concept: float
    mean_d_triple: float


def lecture_aggregate(by_slide: BySlide) -> dict[int, LectureAggregate]:
    """Arithmetic mean of per-slide disagreement within each lecture."""
    by_lecture: dict[int, list[SlideDisagreement]] = {}
    for key, d in by_slide.items():
        by_lecture.setdefault(key.lecture_id, []).append(d)
    return {
        lecture_id: LectureAggregate(
            lecture_id=lecture_id,
            slide_count=len(items),
            mean_d_concept=sum(d.d_concept for d in items) / len(items),
            mean_d_triple=sum(d.d_triple for d in items) / len(items),
        )
        for lecture_id, items in sorted(by_lecture.items())
    }


# --------------------------------------------------------------------------
# stability classification


class StabilityLabel(NamedTuple):
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
    d_values = [d.d_concept for d in by_slide.values()]
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


class ModelFootprint(NamedTuple):
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
        missing = sum(1 for d in by_slide.values() if model not in d.counts)
        if missing:
            warnings.warn(
                f"model {model!r} missing from {missing} of {len(by_slide)} slides; counted as 0",
                ProvenanceWarning,
                stacklevel=2,
            )
        counts = [d.counts.get(model, (0, 0)) for d in by_slide.values()]
        result[model] = ModelFootprint(model, sum(c for c, _ in counts) / len(by_slide),
                                       sum(t for _, t in counts) / len(by_slide))
    return result


def densest_model(by_slide: BySlide) -> str:
    """Model with the highest concept count over all slides (ties break lexicographically)."""
    return max(corpus_models(by_slide),
               key=lambda model: sum(d.counts.get(model, (0, 0))[0] for d in by_slide.values()))


# --------------------------------------------------------------------------
# single-model coverage loss


class CoverageLoss(NamedTuple):
    key: SlideKey
    concept_loss: float
    triple_loss: float
    baseline_model: str


class CoverageReport(NamedTuple):
    baseline_model: str
    losses: list[CoverageLoss]
    concept_mean: float
    concept_median: float
    triple_mean: float
    triple_median: float


def coverage_loss(by_slide: BySlide, baseline_model: str | None = None) -> CoverageReport:
    """Fraction of the multi-model union missed by a single baseline model.

    loss = |U \\ S_baseline| / |U| = (|U| - |S_baseline|) / |U| per slide, as
    S_baseline lies inside U, defined 0 when U is empty; means use ``math.fsum``.
    The default baseline is the densest model by mean concept count.
    """
    if baseline_model is None:
        baseline_model = densest_model(by_slide)
    elif baseline_model not in corpus_models(by_slide):
        raise UnknownBaselineModel(f"baseline model {baseline_model!r} not present in corpus")

    def loss(d: SlideDisagreement, k: int) -> float:
        union = (d.d_concept, d.d_triple)[k]
        return (union - d.counts.get(baseline_model, (0, 0))[k]) / union if union else 0.0

    losses = [CoverageLoss(key, loss(d, 0), loss(d, 1), baseline_model) for key, d in by_slide.items()]

    c_vals = [l.concept_loss for l in losses]
    t_vals = [l.triple_loss for l in losses]
    return CoverageReport(
        baseline_model=baseline_model,
        losses=losses,
        concept_mean=math.fsum(c_vals) / len(c_vals),
        concept_median=statistics.median(c_vals),
        triple_mean=math.fsum(t_vals) / len(t_vals),
        triple_median=statistics.median(t_vals),
    )
