import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracle_metrics import oracle_coverage, oracle_pair_means
from slideprov import (
    InsufficientModels,
    ModelExtraction,
    ProvenanceRecord,
    ProvenanceWarning,
    SlideKey,
    TooFewSlides,
    UnknownBaselineModel,
)
from slideprov.metrics import (
    MODERATE,
    STABLE,
    UNSTABLE,
    classify_stability,
    corpus_disagreement,
    corpus_models,
    coverage_loss,
    densest_model,
    disagreement,
    jaccard,
    lecture_aggregate,
    model_footprint,
    pairwise_jaccard,
    stability_bands,
)


def make_record(lecture, slide, model_sets, lecture_label=None):
    """model_sets: name -> (concept terms, triple objects); identity-level fixtures."""
    models = {}
    for name, (terms, objects) in model_sets.items():
        models[name] = ModelExtraction(
            concepts={("cat", t): None for t in terms},
            triples={("s", "p", o): None for o in objects},
        )
    return ProvenanceRecord(
        key=SlideKey(lecture, slide),
        lecture_label=lecture_label or f"Lecture {lecture}",
        models=models,
    )


class TestJaccard:
    def test_partial_overlap(self):
        assert jaccard(frozenset("ab"), frozenset("bc")) == pytest.approx(1 / 3)

    def test_identical_non_empty(self):
        assert jaccard(frozenset("ab"), frozenset("ab")) == 1.0

    def test_disjoint(self):
        assert jaccard(frozenset("ab"), frozenset("cd")) == 0.0

    def test_empty_empty_convention(self):
        assert jaccard(frozenset(), frozenset()) == 1.0

    def test_empty_vs_nonempty(self):
        assert jaccard(frozenset(), frozenset("a")) == 0.0


class TestDisagreement:
    def test_identical_sets(self):
        record = make_record(1, 1, {"a": (["x"], []), "b": (["x"], [])})
        d = disagreement(record)
        assert d.d_concept == 1

    def test_union_of_distinct(self):
        record = make_record(1, 1, {
            "a": (["x", "y"], []), "b": (["z"], []), "c": ([], []), "d": ([], []),
        })
        assert disagreement(record).d_concept == 3

    def test_all_empty(self):
        record = make_record(1, 1, {"a": ([], []), "b": ([], [])})
        d = disagreement(record)
        assert (d.d_concept, d.d_triple) == (0, 0)

    def test_union_at_least_each_model(self):
        record = make_record(1, 1, {"a": (["x", "y"], ["q"]), "b": (["y", "z", "w"], [])})
        d = disagreement(record)
        for ext in record.models.values():
            assert d.d_concept >= len(ext.concepts)
            assert d.d_triple >= len(ext.triples)

    def test_slides_share_pair_keys_and_model_names(self):
        # each slide's names are their own str objects, as when each file is parsed alone
        def names():
            return ["".join(["vision-", suffix]) for suffix in ("alpha", "beta", "gamma")]
        first, second = (disagreement(make_record(1, slide, {name: (["x"], []) for name in names()}))
                         for slide in (1, 2))
        assert list(first.common) == list(second.common)
        assert all(a is b for a, b in zip(first.common, second.common))
        assert all(a is b for a, b in zip(first.counts, second.counts))


class TestPairwiseJaccard:
    def corpus(self):
        return {
            SlideKey(1, 1): make_record(1, 1, {"a": (["x", "y"], []), "b": (["y", "z"], [])}),
            SlideKey(1, 2): make_record(1, 2, {"a": (["x"], []), "b": (["x"], [])}),
        }

    def test_matrix_values(self):
        matrix, per_slide = pairwise_jaccard(corpus_disagreement(self.corpus().items()), "concepts")
        assert matrix.models == ["a", "b"]
        assert matrix.pair_mean("a", "b") == pytest.approx((1 / 3 + 1.0) / 2)
        assert per_slide[("a", "b")][SlideKey(1, 1)] == pytest.approx(1 / 3)

    def test_symmetric_unit_diagonal(self):
        matrix, _ = pairwise_jaccard(corpus_disagreement(self.corpus().items()), "concepts")
        values = matrix.values
        n = len(matrix.models)
        assert all(values[i][j] == values[j][i] for i in range(n) for j in range(n))
        assert all(values[i][i] == 1.0 for i in range(n))
        assert all(0 <= v <= 1 for row in values for v in row)

    def test_missing_model_counts_as_empty(self):
        corpus = {
            SlideKey(1, 1): make_record(1, 1, {"a": (["x"], []), "b": (["x"], [])}),
            SlideKey(1, 2): make_record(1, 2, {"a": (["x"], [])}),  # b missing -> J = 0
        }
        matrix, _ = pairwise_jaccard(corpus_disagreement(corpus.items()), "concepts")
        assert matrix.pair_mean("a", "b") == pytest.approx(0.5)

    def test_single_model_rejected(self):
        corpus = {SlideKey(1, 1): make_record(1, 1, {"a": (["x"], [])})}
        with pytest.raises(InsufficientModels):
            pairwise_jaccard(corpus_disagreement(corpus.items()), "concepts")

    def test_triples_kind(self):
        corpus = {SlideKey(1, 1): make_record(1, 1, {"a": ([], ["o1"]), "b": ([], ["o1", "o2"])})}
        matrix, _ = pairwise_jaccard(corpus_disagreement(corpus.items()), "triples")
        assert matrix.pair_mean("a", "b") == pytest.approx(0.5)


class TestLectureAggregate:
    def test_mean_of_two_slides(self):
        corpus = {
            SlideKey(1, 1): make_record(1, 1, {"a": (["x", "y"], [])}),
            SlideKey(1, 2): make_record(1, 2, {"a": (["x", "y", "z", "w"], [])}),
        }
        agg = lecture_aggregate(corpus_disagreement(corpus.items()))
        assert agg[1].mean_d_concept == 3.0
        assert agg[1].slide_count == 2

    def test_single_slide_lecture(self):
        corpus = {SlideKey(4, 1): make_record(4, 1, {"a": (["x"], [])})}
        assert lecture_aggregate(corpus_disagreement(corpus.items()))[4].mean_d_concept == 1.0

    def test_corpus_mean_is_weighted_lecture_mean(self):
        rng = random.Random(9)
        corpus = {}
        for lecture in range(1, 5):
            for slide in range(1, rng.randrange(2, 6)):
                terms = [f"t{i}" for i in range(rng.randrange(0, 9))]
                corpus[SlideKey(lecture, slide)] = make_record(lecture, slide, {"a": (terms, [])})
        agg = lecture_aggregate(corpus_disagreement(corpus.items()))
        weighted = sum(a.mean_d_concept * a.slide_count for a in agg.values())
        total = sum(a.slide_count for a in agg.values())
        direct = sum(disagreement(r).d_concept for r in corpus.values()) / len(corpus)
        assert weighted / total == pytest.approx(direct, rel=1e-12)


def stability_corpus(d_values):
    return {
        SlideKey(1, i + 1): make_record(1, i + 1, {"m": ([f"t{j}" for j in range(d)], [])})
        for i, d in enumerate(d_values)
    }


class TestStability:
    def test_interpolated_quartiles_one_to_eight(self):
        assert stability_bands(list(range(1, 9))) == (2.75, 6.25)

    def test_three_band_labels(self):
        labels = classify_stability(corpus_disagreement(stability_corpus(range(1, 9)).items()))
        by_d = {l.d_concept: l.label for l in labels}
        assert by_d == {1: STABLE, 2: STABLE, 3: MODERATE, 4: MODERATE,
                        5: MODERATE, 6: MODERATE, 7: UNSTABLE, 8: UNSTABLE}

    def test_degenerate_band_all_equal(self):
        labels = classify_stability(corpus_disagreement(stability_corpus([5, 5, 5, 5]).items()))
        assert all(l.label == STABLE for l in labels)

    def test_large_strictly_increasing_quarter_split(self):
        labels = classify_stability(corpus_disagreement(stability_corpus(range(1, 1001)).items()))
        stable = sum(1 for l in labels if l.label == STABLE)
        unstable = sum(1 for l in labels if l.label == UNSTABLE)
        assert abs(stable - 250) <= 1
        assert abs(unstable - 250) <= 1

    def test_partition_covers_every_slide_once(self):
        corpus = stability_corpus([3, 1, 4, 1, 5, 9, 2, 6])
        labels = classify_stability(corpus_disagreement(corpus.items()))
        assert sorted(l.key for l in labels) == sorted(corpus)
        assert all(l.label in (STABLE, MODERATE, UNSTABLE) for l in labels)

    def test_too_few_slides(self):
        with pytest.raises(TooFewSlides):
            classify_stability(corpus_disagreement(stability_corpus([1, 2, 3]).items()))


class TestFootprint:
    def test_mean_counts(self):
        corpus = {
            SlideKey(1, 1): make_record(1, 1, {"m": (["a", "b"], [])}),
            SlideKey(1, 2): make_record(1, 2, {"m": (["a", "b", "c", "d"], [])}),
        }
        assert model_footprint(corpus_disagreement(corpus.items()))["m"].mean_concepts == 3.0

    def test_missing_model_counts_zero_with_warning(self):
        corpus = {
            SlideKey(1, 1): make_record(1, 1, {"m": (["a", "b"], []), "n": (["a"], [])}),
            SlideKey(1, 2): make_record(1, 2, {"m": (["a"], [])}),
        }
        with pytest.warns(ProvenanceWarning):
            footprints = model_footprint(corpus_disagreement(corpus.items()))
        assert footprints["n"].mean_concepts == 0.5

    def test_denser_model_orders_higher(self):
        corpus = {
            SlideKey(1, i): make_record(1, i, {
                "dense": ([f"t{j}" for j in range(6)], []),
                "sparse": (["t0"], []),
            })
            for i in (1, 2)
        }
        footprints = model_footprint(corpus_disagreement(corpus.items()))
        assert footprints["dense"].mean_concepts > footprints["sparse"].mean_concepts
        assert densest_model(corpus_disagreement(corpus.items())) == "dense"


class TestCoverageLoss:
    def test_two_thirds_loss(self):
        corpus = {SlideKey(1, 1): make_record(1, 1, {
            "base": (["a"], []), "other": (["b", "c"], []),
        })}
        report = coverage_loss(corpus_disagreement(corpus.items()), "base")
        assert report.losses[0].concept_loss == pytest.approx(2 / 3)

    def test_baseline_equals_union(self):
        corpus = {SlideKey(1, 1): make_record(1, 1, {
            "base": (["a", "b"], []), "other": (["a"], []),
        })}
        assert coverage_loss(corpus_disagreement(corpus.items()), "base").losses[0].concept_loss == 0.0

    def test_empty_baseline_full_loss(self):
        corpus = {SlideKey(1, 1): make_record(1, 1, {
            "base": ([], []), "other": ([], ["o1", "o2"]),
        })}
        assert coverage_loss(corpus_disagreement(corpus.items()), "base").losses[0].triple_loss == 1.0

    def test_empty_union_defined_zero(self):
        corpus = {SlideKey(1, 1): make_record(1, 1, {"base": ([], []), "other": ([], [])})}
        report = coverage_loss(corpus_disagreement(corpus.items()), "base")
        assert report.losses[0].concept_loss == 0.0
        assert report.losses[0].triple_loss == 0.0

    def test_unknown_baseline(self):
        corpus = {SlideKey(1, 1): make_record(1, 1, {"m": (["a"], [])})}
        with pytest.raises(UnknownBaselineModel):
            coverage_loss(corpus_disagreement(corpus.items()), "nope")

    def test_default_baseline_is_densest(self):
        corpus = {SlideKey(1, 1): make_record(1, 1, {
            "dense": (["a", "b", "c"], []), "sparse": (["a"], []),
        })}
        assert coverage_loss(corpus_disagreement(corpus.items())).baseline_model == "dense"

    def test_antitone_in_baseline(self):
        # small's concepts are a subset of big's on every slide
        corpus = {
            SlideKey(1, i): make_record(1, i, {
                "small": ([f"t{j}" for j in range(i)], []),
                "big": ([f"t{j}" for j in range(i + 2)], []),
                "extra": ([f"u{j}" for j in range(3)], []),
            })
            for i in (1, 2, 3)
        }
        small = coverage_loss(corpus_disagreement(corpus.items()), "small")
        big = coverage_loss(corpus_disagreement(corpus.items()), "big")
        for s, b in zip(small.losses, big.losses):
            assert b.concept_loss <= s.concept_loss


def test_metrics_invariant_under_model_and_slide_order():
    rng = random.Random(21)
    model_sets = {
        name: ([f"t{rng.randrange(9)}" for _ in range(4)], [f"o{rng.randrange(5)}"])
        for name in ("a", "b", "c")
    }
    forward = {
        SlideKey(1, i): make_record(1, i, model_sets) for i in (1, 2, 3, 4)
    }
    reversed_models = {
        key: make_record(key.lecture_id, key.slide_id,
                         dict(reversed(list(model_sets.items()))))
        for key in reversed(sorted(forward))
    }
    m1, _ = pairwise_jaccard(corpus_disagreement(forward.items()), "concepts")
    m2, _ = pairwise_jaccard(corpus_disagreement(reversed_models.items()), "concepts")
    assert m1.values == m2.values and m1.models == m2.models
    assert [l.label for l in classify_stability(corpus_disagreement(forward.items()))] == [
        l.label for l in classify_stability(corpus_disagreement(reversed_models.items()))
    ]
    assert (corpus_models(corpus_disagreement(forward.items()))
            == corpus_models(corpus_disagreement(reversed_models.items())))


# numpy is kept here as the reference that the stdlib statistics must match
@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 10_000), min_size=2, max_size=60))
def test_stability_bands_equal_numpy_percentile(values):
    q1, q3 = np.percentile(np.asarray(values, dtype=float), [25, 75])
    assert stability_bands(values) == (float(q1), float(q3))


@st.composite
def model_sets(draw):
    """One slide's models among a, b and c, each with its concept terms and triple objects, either possibly empty."""
    elements = st.lists(st.integers(0, 9).map(str), max_size=6, unique=True)
    return {m: (draw(elements), draw(elements)) for m in sorted(draw(st.sets(st.sampled_from("abc"), min_size=1)))}


def holds_a_set(value) -> bool:
    if isinstance(value, (set, frozenset)):
        return True
    if isinstance(value, dict):
        return any(holds_a_set(k) or holds_a_set(v) for k, v in value.items())
    return isinstance(value, tuple) and any(map(holds_a_set, value))


@settings(max_examples=200, deadline=None)
@given(st.lists(model_sets(), min_size=1, max_size=30))
def test_coverage_medians_equal_numpy_median(slides):
    corpus = {SlideKey(1, i): make_record(1, i, sets) for i, sets in enumerate(slides, start=1)}
    by_slide = corpus_disagreement(corpus.items())
    # the summaries keep counts only: the identity sets are dropped in the pass
    assert not any(holds_a_set(getattr(d, name)) for d in by_slide.values() for name in d._fields)
    for baseline in corpus_models(by_slide):
        report = coverage_loss(by_slide, baseline)
        assert report.concept_median == float(np.median([l.concept_loss for l in report.losses]))
        assert report.triple_median == float(np.median([l.triple_loss for l in report.losses]))
        assert {l.key: (l.concept_loss, l.triple_loss) for l in report.losses} == \
            oracle_coverage(corpus, baseline)
    if len(corpus_models(by_slide)) > 1:
        for kind in ("concepts", "triples"):
            _, per_slide = pairwise_jaccard(by_slide, kind)
            assert per_slide == {pair: values for pair, (_, values) in oracle_pair_means(corpus, kind).items()}


def test_means_are_correctly_rounded():
    # ten slides with pair Jaccard 0.1 and baseline concept loss 0.9: summed
    # left to right (the built-in sum before Python 3.12), the means come out
    # as 0.09999999999999999 and 0.9000000000000001
    sets = {"a": (["t0"], []), "b": ([f"t{i}" for i in range(10)], [])}
    by_slide = corpus_disagreement((SlideKey(1, i), make_record(1, i, sets)) for i in range(1, 11))
    matrix, per_slide = pairwise_jaccard(by_slide, "concepts")
    assert set(per_slide["a", "b"].values()) == {0.1}
    assert matrix.pair_mean("a", "b") == 0.1
    report = coverage_loss(by_slide, "a")
    assert {l.concept_loss for l in report.losses} == {0.9}
    assert report.concept_mean == 0.9
