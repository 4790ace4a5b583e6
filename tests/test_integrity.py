import json
import random
import shutil
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st

from conftest import register_corpus, synthetic_document, write_corpus
from slideprov import (
    CorruptLedgerFile,
    DisjointCorpora,
    Ledger,
    ProvenanceWarning,
    SlideKey,
    UnregisteredCorpus,
    canonical_bytes,
    commit_record,
    commit_records,
    load_corpus,
    normalize_record,
)
from slideprov.integrity import (
    MATCH,
    MISMATCH,
    MISSING,
    UNREGISTERED,
    RunPair,
    TamperKind,
    applicable_kinds,
    compare_corpora,
    load_time_manifest,
    tamper_experiment,
    tamper_record,
    time_gaps,
    verify_corpus,
)
from slideprov.commitment import commit_corpus
from slideprov.ledger import checksum
from slideprov.records import CorpusReader


def commitments(records):
    """{key: commitment} of ``records``, as ``commit_corpus`` returns it for files."""
    records = sorted(records, key=lambda r: r.key)
    return dict(zip((r.key for r in records), commit_records(records)))


class TestVerifySlide:
    def test_unchanged_record_matches(self, registered):
        corpus, ledger = registered
        results = verify_corpus(commitments(corpus.values()), ledger)
        assert [r.key for r in results] == sorted(corpus)
        assert all(r.verdict == MATCH for r in results)

    def test_single_character_flip_mismatches(self, registered):
        corpus, ledger = registered
        key = sorted(corpus)[0]
        record = corpus[key]
        name = sorted(record.models)[0]
        ext = record.models[name]
        # ensure there is a concept to flip
        assert ext.concepts
        concepts = dict(ext.concepts)
        (category, term), evidence = concepts.popitem()
        concepts[category, term[:-1] + ("a" if term[-1] != "a" else "b")] = evidence
        record.models[name] = ext._replace(concepts=concepts)
        assert verify_corpus(commitments([record]), ledger)[0].verdict == MISMATCH

    def test_never_registered_key(self, corpus):
        ledger = Ledger()
        key = sorted(corpus)[0]
        [result] = verify_corpus(commitments([corpus[key]]), ledger)
        assert result.verdict == UNREGISTERED
        assert result.on_chain is None

    def test_registered_key_not_recomputed_is_missing(self, registered):
        corpus, ledger = registered
        key = sorted(corpus)[-1]
        result = verify_corpus(commitments(r for k, r in corpus.items() if k != key), ledger)[-1]
        assert (result.key, result.verdict, result.recomputed) == (key, MISSING, None)
        assert result.on_chain == ledger.get_slide(key).slide_hash

    def test_case_insensitive_hash_comparison(self, corpus):
        key = sorted(corpus)[0]
        ledger = Ledger()
        ledger.register_slide(key, commit_record(corpus[key]).upper().replace("0X", "0x"), "u")
        assert verify_corpus(commitments([corpus[key]]), ledger)[0].verdict == MATCH

    @staticmethod
    def _flip_stored_hash(doc, name):
        """Flip the last hex digit of ``name`` (``checksum``, or the first event's ``slideHash``)."""
        entry = doc["events"][0] if name == "slideHash" else doc
        entry[name] = entry[name][:-1] + ("0" if entry[name][-1] != "0" else "1")
        return SlideKey(doc["events"][0]["lectureId"], doc["events"][0]["slideId"])

    def test_tampered_export_surfaces_on_verification(self, registered):
        # flip one hex character of a stored hash inside an exported ledger,
        # recompute the file's checksum so the edit is consistent, re-import,
        # and check the corruption shows up as exactly one Mismatch
        corpus, ledger = registered
        doc = json.loads(ledger.export_bytes())
        bad_key = self._flip_stored_hash(doc, "slideHash")
        doc["checksum"] = checksum(doc)
        reimported = Ledger.from_document(doc)

        verdicts = {r.key: r.verdict for r in verify_corpus(commitments(corpus.values()), reimported)}
        assert verdicts.pop(bad_key) == MISMATCH
        assert all(v == MATCH for v in verdicts.values())

    @pytest.mark.parametrize("section", ["events", "checksum"])
    def test_hash_flipped_in_one_section_rejected(self, registered, section):
        _, ledger = registered
        doc = json.loads(ledger.export_bytes())
        self._flip_stored_hash(doc, "slideHash" if section == "events" else "checksum")
        with pytest.raises(CorruptLedgerFile, match="does not match its checksum"):
            Ledger.from_document(doc)


_SLIDE_CHANGES = st.lists(st.sampled_from(["keep", "delete", "edit"]), min_size=6, max_size=6)


@given(changes=_SLIDE_CHANGES, added=st.sets(st.integers(4, 9), max_size=3))
@settings(max_examples=25, deadline=None)
def test_verify_corpus_gives_each_key_its_verdict(changes, added):
    # register a 2x3 corpus, then delete, edit and add slide files on disk;
    # every key on either side gets exactly its verdict, in key order
    assume(added or set(changes) != {"delete"})  # no file left: EmptyCorpus
    with tempfile.TemporaryDirectory() as tmp:
        root = write_corpus(Path(tmp) / "corpus", seed=1010)
        ledger = register_corpus(load_corpus(root))
        expected = {}
        for key, change in zip(sorted(ledger.records), changes):
            path = root / "by_slide" / f"Lecture {key.lecture_id}" / f"Slide{key.slide_id}.json"
            if change == "delete":
                path.unlink()
                expected[key] = MISSING
            elif change == "edit":
                doc = json.loads(path.read_text(encoding="utf-8"))
                doc["models"][sorted(doc["models"])[0]]["evidence"].append("edited after registration")
                path.write_text(json.dumps(doc), encoding="utf-8")
                expected[key] = MISMATCH
            else:
                expected[key] = MATCH
        rng = random.Random(0)
        for slide in sorted(added):
            path = root / "by_slide" / "Lecture 2" / f"Slide{slide}.json"
            path.write_text(json.dumps(synthetic_document(rng, 2, slide)), encoding="utf-8")
            expected[SlideKey(2, slide)] = UNREGISTERED
        results = verify_corpus({key: c for key, (c, _) in commit_corpus(CorpusReader(root)).items()}, ledger)
    assert [(r.key, r.verdict) for r in results] == sorted(expected.items())
    for r in results:
        assert (r.recomputed is None) == (r.verdict == MISSING)
        assert (r.on_chain is None) == (r.verdict == UNREGISTERED)


class TestTamperRecord:
    @pytest.mark.parametrize("kind", list(TamperKind))
    def test_each_kind_changes_canonical_bytes(self, corpus, kind):
        rng = random.Random(0)
        for record in corpus.values():
            if kind not in applicable_kinds(record):
                continue
            tampered, op = tamper_record(record, kind, rng)
            assert canonical_bytes(tampered) != canonical_bytes(record)
            assert op.kind is kind
            # original untouched
            assert commit_record(record) == commit_record(record)

    def test_inapplicable_kind_rejected(self):
        doc = {"lecture": "Lecture 1", "slide_id": 1, "models": {"m": {}}}
        record = normalize_record(doc)
        assert TamperKind.DELETE_TRIPLE not in applicable_kinds(record)
        with pytest.raises(ValueError):
            tamper_record(record, TamperKind.DELETE_TRIPLE, random.Random(0))

    def test_injection_always_applicable(self):
        doc = {"lecture": "Lecture 1", "slide_id": 1, "models": {"m": {}}}
        record = normalize_record(doc)
        tampered, _ = tamper_record(record, TamperKind.INJECT_SPURIOUS_ELEMENT, random.Random(3))
        assert canonical_bytes(tampered) != canonical_bytes(record)


@st.composite
def tamperable_documents(draw):
    lecture = draw(st.integers(1, 3))
    slide = draw(st.integers(1, 30))
    seed = draw(st.integers(0, 2**16))
    return synthetic_document(random.Random(seed), lecture, slide)


@given(tamperable_documents(), st.sampled_from(list(TamperKind)), st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_tamper_completeness_property(doc, kind, seed):
    record = normalize_record(doc)
    if kind not in applicable_kinds(record):
        return
    tampered, _ = tamper_record(record, kind, random.Random(seed))
    assert commit_record(tampered) != commit_record(record)


class TestTamperExperiment:
    def test_full_protocol_all_detected(self, corpus_dir, registered):
        corpus, ledger = registered
        report = tamper_experiment(CorpusReader(corpus_dir), ledger, n=len(corpus), seed=7)
        assert report.total == len(corpus)
        assert report.detected == report.total
        assert report.detection_rate == 1.0
        assert all(t.verdict == MISMATCH for t in report.trials)

    def test_zero_trials(self, corpus_dir, registered):
        _, ledger = registered
        report = tamper_experiment(CorpusReader(corpus_dir), ledger, n=0, seed=1)
        assert report.total == 0 and report.detected == 0
        assert report.detection_rate == 1.0

    def test_seed_determinism(self, corpus_dir, registered):
        _, ledger = registered
        a = tamper_experiment(CorpusReader(corpus_dir), ledger, n=4, seed=42)
        b = tamper_experiment(CorpusReader(corpus_dir), ledger, n=4, seed=42)
        assert [(t.key, t.op) for t in a.trials] == [(t.key, t.op) for t in b.trials]

    def test_different_seeds_differ(self, corpus_dir, registered):
        _, ledger = registered
        a = tamper_experiment(CorpusReader(corpus_dir), ledger, n=4, seed=1)
        b = tamper_experiment(CorpusReader(corpus_dir), ledger, n=4, seed=2)
        assert [(t.key, t.op) for t in a.trials] != [(t.key, t.op) for t in b.trials]

    def test_unregistered_corpus_rejected(self, corpus_dir):
        # unregistered slides are outside the pool: an empty pool has no room for one trial
        with pytest.raises(ValueError, match="out of range for 0 registered slides"):
            tamper_experiment(CorpusReader(corpus_dir), Ledger(), n=1, seed=0)

    def test_count_out_of_range(self, corpus_dir, registered):
        corpus, ledger = registered
        with pytest.raises(ValueError):
            tamper_experiment(CorpusReader(corpus_dir), ledger, n=len(corpus) + 1, seed=0)

    def test_corpus_on_disk_untouched(self, corpus_dir, tmp_path):
        snapshot = tmp_path / "snapshot"
        shutil.copytree(corpus_dir, snapshot)
        ledger = register_corpus(load_corpus(corpus_dir))
        tamper_experiment(CorpusReader(corpus_dir), ledger, n=3, seed=5)
        for path in sorted(snapshot.rglob("*.json")):
            relative = path.relative_to(snapshot)
            assert (corpus_dir / relative).read_bytes() == path.read_bytes()


class TestTimeGaps:
    def test_simple_delta(self, registered):
        corpus, ledger = registered
        key = sorted(corpus)[0]
        chain_t = ledger.get_slide(key).timestamp
        gaps, summary = time_gaps({key: chain_t - 3}, ledger)
        assert gaps[0].delta_seconds == 3.0
        assert not gaps[0].anomaly
        assert summary.count == 1 and summary.mean == 3.0

    def test_constant_gap_distribution(self, registered):
        corpus, ledger = registered
        local = {key: ledger.get_slide(key).timestamp - 3300 for key in corpus}
        _, summary = time_gaps(local, ledger)
        assert summary.mean == 3300.0
        assert summary.stddev == 0.0
        assert summary.min == summary.max == 3300.0

    def test_negative_delta_flagged(self, registered):
        corpus, ledger = registered
        key = sorted(corpus)[0]
        chain_t = ledger.get_slide(key).timestamp
        gaps, summary = time_gaps({key: chain_t + 10}, ledger)
        assert gaps[0].delta_seconds == -10.0
        assert gaps[0].anomaly
        assert summary.anomalies == 1

    def test_translation_consistency(self, registered):
        corpus, ledger = registered
        local = {key: float(ledger.get_slide(key).timestamp) for key in corpus}
        shifted = {key: t + 17.0 for key, t in local.items()}
        base, _ = time_gaps(local, ledger)
        moved, _ = time_gaps(shifted, ledger)
        for a, b in zip(base, moved):
            assert b.delta_seconds == a.delta_seconds - 17.0

    def test_one_lookup_per_slide(self, registered, monkeypatch):
        corpus, ledger = registered
        lookups = []
        for name in ("get_slide", "is_registered"):
            def counted(self, key, original=getattr(Ledger, name)):
                lookups.append(key)
                return original(self, key)
            monkeypatch.setattr(Ledger, name, counted)
        time_gaps({key: 0.0 for key in corpus}, ledger)
        assert len(lookups) == len(corpus) == 6

    def test_unregistered_rejected(self, corpus):
        with pytest.raises(UnregisteredCorpus):
            time_gaps({sorted(corpus)[0]: 0.0}, Ledger())

    def test_manifest_round_trip(self, tmp_path):
        manifest = [
            {"lecture_id": 1, "slide_id": 1, "t_local": 100.5},
            {"lecture_id": 2, "slide_id": 3, "t_local": 200},
        ]
        path = tmp_path / "times.json"
        path.write_text(json.dumps(manifest), encoding="utf-8")
        loaded = load_time_manifest(path)
        assert loaded == {SlideKey(1, 1): 100.5, SlideKey(2, 3): 200.0}


class TestCompareRuns:
    def test_self_comparison_is_identical(self, corpus_dir, tmp_path):
        copy_dir = tmp_path / "copy"
        shutil.copytree(corpus_dir, copy_dir)
        comparison = compare_corpora(load_corpus(corpus_dir).items(),
                                     load_corpus(copy_dir).items())
        assert comparison.identical
        assert comparison.n_pairs == comparison.n_perfect
        assert all(p.concept_jaccard == 1.0 and p.triple_jaccard == 1.0
                   for p in comparison.pairs)
        assert comparison.n_byte_equal == len(comparison.byte_equal)

    def test_one_deleted_triple_is_localized(self, corpus_dir, tmp_path):
        copy_dir = tmp_path / "copy"
        shutil.copytree(corpus_dir, copy_dir)
        target = copy_dir / "by_slide" / "Lecture 1" / "Slide1.json"
        doc = json.loads(target.read_text(encoding="utf-8"))
        name = sorted(doc["models"])[0]
        assert doc["models"][name]["triples"], "fixture needs a triple to delete"
        del doc["models"][name]["triples"][0]
        target.write_text(json.dumps(doc), encoding="utf-8")

        comparison = compare_corpora(load_corpus(corpus_dir).items(),
                                     load_corpus(copy_dir).items())
        imperfect = [p for p in comparison.pairs if p.triple_jaccard < 1.0]
        assert len(imperfect) == 1
        assert imperfect[0].key == SlideKey(1, 1)
        assert imperfect[0].model == name
        assert comparison.n_byte_equal == len(comparison.byte_equal) - 1

    def test_asymmetric_model_reported_separately(self, corpus):
        import copy as copymod

        other = copymod.deepcopy(corpus)
        key = sorted(other)[0]
        dropped = sorted(other[key].models)[0]
        del other[key].models[dropped]
        with pytest.warns(ProvenanceWarning):
            comparison = compare_corpora(corpus.items(), other.items())
        assert comparison.asymmetric == [RunPair(key, dropped, "only_in_a", None, None)]
        assert not comparison.identical

    def test_disjoint_corpora(self, corpus):
        shifted = {SlideKey(99, k.slide_id): r for k, r in corpus.items()}
        with pytest.raises(DisjointCorpora):
            compare_corpora(corpus.items(), shifted.items())

    def test_extra_keys_counted(self, corpus):
        import copy as copymod

        smaller = {k: corpus[k] for k in sorted(corpus)[:-1]}
        comparison = compare_corpora(corpus.items(), copymod.deepcopy(smaller).items())
        assert comparison.only_in_a == [sorted(corpus)[-1]]
        assert comparison.only_in_b == []
