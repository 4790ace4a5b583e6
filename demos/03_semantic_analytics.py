"""Semantic disagreement analytics over a small hand-built corpus.

Three extractors look at the same six slides and mostly disagree.  The
metrics quantify that: per-slide union sizes, pairwise Jaccard overlap,
lecture-level averages, quartile stability bands, and how much a single
"best" model would miss.
"""

from slideprov import ModelExtraction, ProvenanceRecord, SlideKey
from slideprov.metrics import (
    classify_stability,
    corpus_disagreement,
    coverage_loss,
    lecture_aggregate,
    model_footprint,
    pairwise_jaccard,
)


def extraction(terms, objects=()):
    # each element's identity maps to its evidence (concepts) or confidence (triples)
    return ModelExtraction(
        concepts={("topic", t): None for t in terms},
        triples={("slide", "mentions", o): None for o in objects},
    )


def record(lecture, slide, per_model):
    models = {name: extraction(*sets) for name, sets in per_model.items()}
    return ProvenanceRecord(SlideKey(lecture, slide), f"Lecture {lecture}", models)


corpus = {
    SlideKey(1, 1): record(1, 1, {
        "dense": (["attenuation", "beam", "contrast", "dose"], ["detector"]),
        "medium": (["attenuation", "contrast"], ["detector"]),
        "sparse": (["attenuation"], []),
    }),
    SlideKey(1, 2): record(1, 2, {
        "dense": (["fourier", "sampling", "aliasing"], ["nyquist limit"]),
        "medium": (["sampling", "windowing"], []),
        "sparse": (["fourier"], []),
    }),
    SlideKey(1, 3): record(1, 3, {
        "dense": (["projection", "sinogram", "backprojection", "filter", "ramp"], []),
        "medium": (["sinogram", "noise"], []),
        "sparse": ([], []),
    }),
    SlideKey(2, 1): record(2, 1, {
        "dense": (["echo", "transducer"], ["pulse"]),
        "medium": (["echo", "transducer"], ["pulse"]),
        "sparse": (["echo"], []),
    }),
    SlideKey(2, 2): record(2, 2, {
        "dense": (["doppler", "flow", "frequency shift"], []),
        "medium": (["doppler"], []),
        "sparse": (["velocity"], []),
    }),
    SlideKey(2, 3): record(2, 3, {
        "dense": (["speckle"], []),
        "medium": (["speckle"], []),
        "sparse": (["speckle"], []),
    }),
}

# One pass reads every model's sets; all the metrics below start from it.
by_slide = corpus_disagreement(corpus.items())

print("per-slide disagreement (union of all models' sets):")
for key, d in by_slide.items():
    print(f"  ({key.lecture_id},{key.slide_id}): "
          f"{d.concept_union_size} concepts, {d.triple_union_size} triples")

matrix, _ = pairwise_jaccard(by_slide, "concepts")
print("\nmean pairwise concept Jaccard:")
print("             " + "  ".join(f"{m:>7}" for m in matrix.models))
for name, values in zip(matrix.models, matrix.values):
    row = "  ".join(f"{value:7.3f}" for value in values)
    print(f"  {name:>10} {row}")

print("\nlecture-level mean disagreement:")
for agg in lecture_aggregate(by_slide).values():
    print(f"  Lecture {agg.lecture_id}: concepts {agg.mean_d_concept:.2f},"
          f" triples {agg.mean_d_triple:.2f} over {agg.slide_count} slides")

print("\nstability bands from concept-disagreement quartiles:")
for label in classify_stability(by_slide):
    print(f"  ({label.key.lecture_id},{label.key.slide_id}) d={label.d_concept}: {label.label}")

footprints = model_footprint(by_slide)
print("\nmean concepts per model:",
      {m: round(f.mean_concepts, 2) for m, f in footprints.items()})

report = coverage_loss(by_slide)  # defaults to the densest model as baseline
print(f"\ncoverage loss vs single-model baseline {report.baseline_model!r}:")
print(f"  mean concept loss {report.concept_mean:.2%}, median {report.concept_median:.2%}")
print("  even the densest model misses what the other extractors contribute.")
