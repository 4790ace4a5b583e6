"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts.
"""

import json
import random
import shutil
import time
from decimal import Decimal
from pathlib import Path

from conftest import register_corpus, write_corpus
from oracle_metrics import (
    oracle_coverage,
    oracle_disagreement,
    oracle_lecture_means,
    oracle_median,
    oracle_pair_means,
    oracle_stability,
)
from keccak_reference import reference_keccak256
from slideprov import (
    AlreadyRegistered,
    CorpusReader,
    FeeConfig,
    InvalidLecture,
    InvalidSlide,
    Ledger,
    ModelExtraction,
    ProvenanceRecord,
    SlideKey,
    canonical_bytes,
    commit,
    load_corpus,
    normalize_record,
    storage_key,
)
from slideprov.cli import main as cli_main
from slideprov.integrity import compare_corpora, tamper_experiment
from slideprov.keccak import keccak256, keccak256_many
from slideprov.ledger import estimate_gas
from slideprov.metrics import (
    classify_stability,
    corpus_disagreement,
    coverage_loss,
    lecture_aggregate,
    pairwise_jaccard,
    stability_bands,
)
from slideprov.projection import project

HASH66 = "0x" + "5a" * 32
URI30 = "u" * 30


def _verdict(number: int, name: str, ok: bool) -> None:
    print(f"\n[criterion {number:2d}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def _close(value: float, target: float, rel: float) -> bool:
    return abs(value - target) <= rel * abs(target)


def test_criterion_01_contract_semantics_parity():
    start = time.monotonic()
    ok = True
    rng = random.Random(101)

    ledger = Ledger()
    for _ in range(50):
        key = SlideKey(rng.randrange(1, 10**6), rng.randrange(1, 10**6))
        if ledger.is_registered(key):
            continue
        ledger.register_slide(key, HASH66, URI30)
        try:
            ledger.register_slide(key, HASH66, URI30)
            ok = False  # duplicate accepted
        except AlreadyRegistered:
            pass

    for _ in range(25):
        try:
            ledger.register_slide(SlideKey(0, rng.randrange(1, 10**6)), HASH66, URI30)
            ok = False
        except InvalidLecture:
            pass
        try:
            ledger.register_slide(SlideKey(rng.randrange(1, 10**6), 0), HASH66, URI30)
            ok = False
        except InvalidSlide:
            pass

    for _ in range(100):
        lecture = rng.randrange(1, 2**64)
        slide = rng.randrange(1, 2**64)
        packed = lecture.to_bytes(32, "big") + slide.to_bytes(32, "big")
        if storage_key(SlideKey(lecture, slide)) != reference_keccak256(packed):
            ok = False

    elapsed = time.monotonic() - start
    _verdict(1, f"contract-semantics parity ({elapsed:.2f}s)", ok and elapsed < 5.0)


def test_criterion_02_hash_correctness(tmp_path):
    start = time.monotonic()
    expected_empty = "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"
    ok = keccak256(b"").hex() == expected_empty
    ok &= reference_keccak256(b"").hex() == expected_empty
    ok &= commit(b"") == "0x" + expected_empty

    rng = random.Random(202)
    for _ in range(1000):
        data = rng.randbytes(rng.randrange(0, 200))
        if keccak256(data) != reference_keccak256(data):
            ok = False
            break

    corpus = load_corpus(write_corpus(tmp_path / "corpus"))
    messages = [canonical_bytes(record) for record in corpus.values()]
    references = [reference_keccak256(data) for data in messages]
    ok &= [keccak256(data) for data in messages] == references
    ok &= keccak256_many(messages) == references

    elapsed = time.monotonic() - start
    _verdict(2, f"hash correctness ({elapsed:.2f}s)", ok and elapsed < 5.0)


def test_criterion_03_gas_constancy_and_calibration():
    ok = estimate_gas(HASH66, URI30) == 231_430
    ok &= len(HASH66) == 66 and len(URI30) == 30

    rng = random.Random(303)
    for _ in range(20):
        other_hash = "0x" + "".join(rng.choice("0123456789abcdef") for _ in range(64))
        other_uri = "".join(rng.choice("abcxyz/._-") for _ in range(30))
        ok &= estimate_gas(other_hash, other_uri) == 231_430

    n = 137
    ledger = Ledger()
    items = [(SlideKey(1, i + 1), HASH66, URI30) for i in range(n)]
    receipts, summary = ledger.batch_register(items)
    ok &= all(r.gas_used == 231_430 for r in receipts)
    ok &= summary.total_gas == n * 231_430

    _verdict(3, "gas constancy and calibration", ok)


def _paper_scale_run():
    ledger = Ledger()
    items = [(SlideKey(1 + i // 60, 1 + i % 60), HASH66, URI30) for i in range(1117)]
    return ledger.batch_register(items)


def test_criterion_04_cost_envelope():
    start = time.monotonic()
    receipts, summary = _paper_scale_run()
    usd_per_wei = FeeConfig().eth_usd_rate / 10**18
    first = float(receipts[0].gas_used * receipts[0].price_wei * usd_per_wei)
    floor = float(min(r.gas_used * r.price_wei for r in receipts) * usd_per_wei)
    total = float(summary.total_cost_wei * usd_per_wei)
    ok = _close(first, 1.23, 0.02)
    ok &= _close(floor, 0.69, 0.02)
    ok &= _close(total, 780.0, 0.05)
    elapsed = time.monotonic() - start
    _verdict(
        4,
        f"cost envelope (first ${first:.4f}, floor ${floor:.4f}, total ${total:.2f}, {elapsed:.2f}s)",
        ok and elapsed < 10.0,
    )


def test_criterion_05_throughput_model():
    _, summary = _paper_scale_run()
    ok = summary.elapsed_seconds == 1116
    ok &= abs(summary.throughput - 1.0009) <= 0.0001
    _verdict(5, f"throughput model ({summary.throughput:.5f} slides/sec)", ok)


def test_criterion_06_tamper_detection(tmp_path):
    start = time.monotonic()
    root = write_corpus(tmp_path / "corpus", n_lectures=4, slides_per_lecture=6, seed=606)
    corpus = load_corpus(root)
    ledger = register_corpus(corpus)

    total = detected = 0
    for seed in range(200):
        report = tamper_experiment(CorpusReader(root), ledger, n=20, seed=seed)
        total += report.total
        detected += report.detected
    ok = total == 200 * 20 and detected == total
    elapsed = time.monotonic() - start
    _verdict(6, f"tamper detection ({detected}/{total}, {elapsed:.1f}s)", ok and elapsed < 30.0)


def test_criterion_07_reproducibility(tmp_path):
    root_a = write_corpus(tmp_path / "run_a", n_lectures=3, slides_per_lecture=4, seed=707)
    root_b = tmp_path / "run_b"
    shutil.copytree(root_a, root_b)

    comparison = compare_corpora(CorpusReader(root_a).read(normalize_record),
                                 CorpusReader(root_b).read(normalize_record))
    ok = comparison.n_pairs > 0 and not comparison.asymmetric
    ok &= all(p.concept_jaccard == 1.0 and p.triple_jaccard == 1.0 for p in comparison.pairs)
    ok &= comparison.n_byte_equal == len(comparison.byte_equal) == 12
    _verdict(7, f"reproducibility ({comparison.n_pairs} pairs all 1.0)", ok)


# -- criterion 8 ------------------------------------------------------------

_CATS = [f"c{i}" for i in range(4)]
_TERMS = [f"t{i}" for i in range(8)]
_OBJS = [f"o{i}" for i in range(8)]


def _random_oracle_corpus(rng: random.Random):
    n_models = rng.randint(2, 6)
    models = [f"model-{chr(ord('a') + i)}" for i in range(n_models)]
    n_slides = rng.choice([rng.randint(4, 20), rng.randint(4, 64)])
    n_lectures = rng.randint(1, 4)
    corpus = {}
    slide_counter = {}
    for _ in range(n_slides):
        lecture = rng.randint(1, n_lectures)
        slide_counter[lecture] = slide_counter.get(lecture, 0) + 1
        key = SlideKey(lecture, slide_counter[lecture])
        present = [m for m in models if rng.random() > 0.1] or [models[0]]
        extractions = {}
        for name in present:
            concepts = {
                (rng.choice(_CATS), rng.choice(_TERMS)) for _ in range(rng.randint(0, 6))
            }
            triples = {
                ("s", "p", rng.choice(_OBJS)) for _ in range(rng.randint(0, 4))
            }
            extractions[name] = ModelExtraction(
                concepts=dict.fromkeys(sorted(concepts)),
                triples=dict.fromkeys(sorted(triples)),
            )
        corpus[key] = ProvenanceRecord(key=key, lecture_label=f"Lecture {lecture}", models=extractions)
    return corpus, models


def _rel_ok(value: float, target: float) -> bool:
    return abs(value - target) <= 1e-12 * max(1.0, abs(target))


def test_criterion_08_metric_oracles():
    start = time.monotonic()
    rng = random.Random(808)
    ok = True
    for _ in range(1000):
        corpus, _ = _random_oracle_corpus(rng)

        for key, d in corpus_disagreement(corpus.items()).items():
            expected = oracle_disagreement(corpus[key])
            ok &= (d.d_concept, d.d_triple) == expected

        for kind in ("concepts", "triples"):
            matrix, per_slide = pairwise_jaccard(corpus_disagreement(corpus.items()), kind)
            for pair, (mean, values) in oracle_pair_means(corpus, kind).items():
                ok &= _rel_ok(matrix.pair_mean(*pair), mean)
                for key, value in values.items():
                    ok &= _rel_ok(per_slide[pair][key], value)

        for lecture_id, agg in lecture_aggregate(corpus_disagreement(corpus.items())).items():
            exp_c, exp_t = oracle_lecture_means(corpus)[lecture_id]
            ok &= _rel_ok(agg.mean_d_concept, exp_c)
            ok &= _rel_ok(agg.mean_d_triple, exp_t)

        expected_labels, (exp_q1, exp_q3) = oracle_stability(corpus)
        d_values = [oracle_disagreement(corpus[k])[0] for k in sorted(corpus)]
        q1, q3 = stability_bands(d_values)
        ok &= _rel_ok(q1, exp_q1) and _rel_ok(q3, exp_q3)
        for label in classify_stability(corpus_disagreement(corpus.items())):
            ok &= label.label == expected_labels[label.key]

        baseline = rng.choice(sorted({m for r in corpus.values() for m in r.models}))
        report = coverage_loss(corpus_disagreement(corpus.items()), baseline)
        expected_losses = oracle_coverage(corpus, baseline)
        for loss in report.losses:
            exp_c, exp_t = expected_losses[loss.key]
            ok &= _rel_ok(loss.concept_loss, exp_c) and _rel_ok(loss.triple_loss, exp_t)
        c_vals = [c for c, _ in expected_losses.values()]
        t_vals = [t for _, t in expected_losses.values()]
        ok &= _rel_ok(report.concept_mean, sum(c_vals) / len(c_vals))
        ok &= _rel_ok(report.concept_median, oracle_median(c_vals))
        ok &= _rel_ok(report.triple_mean, sum(t_vals) / len(t_vals))
        ok &= _rel_ok(report.triple_median, oracle_median(t_vals))

        if not ok:
            break

    elapsed = time.monotonic() - start
    _verdict(8, f"metric oracles (1000 corpora, {elapsed:.1f}s)", ok and elapsed < 60.0)


def test_criterion_09_scaling_projection():
    projections = {p.network: p for p in project(10**6)}
    ok = projections["ethereum-l1"].total_gas == 231_430_000_000
    ok &= all(p.total_gas == 231_430_000_000 for p in projections.values())
    ratio = projections["ethereum-l1"].total_cost_usd / projections["optimistic-l2"].total_cost_usd
    ok &= ratio == Decimal(30)
    _verdict(9, "scaling projection", ok)


def test_criterion_10_full_pipeline_determinism(tmp_path):
    corpus_root = write_corpus(tmp_path / "corpus", n_lectures=2, slides_per_lecture=3, seed=1010)

    def pipeline(tag: str) -> dict[str, bytes]:
        ledger = tmp_path / f"ledger_{tag}.json"
        out = tmp_path / f"out_{tag}"
        base = ["--corpus", str(corpus_root), "--out", str(out)]
        assert cli_main(["register", *base, "--ledger", str(ledger)]) == 0
        assert cli_main(["analyze", *base]) == 0
        assert cli_main(["tamper", *base, "--ledger", str(ledger), "-n", "6", "--seed", "9"]) == 0
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        files["ledger.json"] = ledger.read_bytes()
        return files

    first = pipeline("a")
    second = pipeline("b")
    ok = set(first) == set(second) and len(first) >= 10
    for name in first:
        ok &= first[name] == second.get(name)
    _verdict(10, f"pipeline determinism ({len(first)} artifacts byte-identical)", ok)
