"""Integrity audits end to end: verify, tamper, time gaps, dual runs.

Builds a small corpus on disk, anchors every record's commitment in the
registry, then runs the three audit protocols against it.  A slide
deleted after registration gets its own verdict, Missing.  Tamper and
the dual-run comparison read the corpus through a ``CorpusReader``, as
the commands do: tamper opens only the files of the slides it draws, and
the comparison merges the two runs' record streams in key order.
"""

import atexit
import json
import random
import shutil
import tempfile
from pathlib import Path

from slideprov import CorpusReader, Ledger, canonical_uri, commit_records, load_corpus, normalize_record
from slideprov.integrity import compare_corpora, tamper_experiment, time_gaps, verify_corpus

workdir = Path(tempfile.mkdtemp(prefix="provenance-demo-"))
atexit.register(shutil.rmtree, workdir, ignore_errors=True)
print("working in", workdir)

# -- build a 2x4 corpus on disk ---------------------------------------------
rng = random.Random(2024)
root = workdir / "corpus"
for lecture in (1, 2):
    lecture_dir = root / "by_slide" / f"Lecture {lecture}"
    lecture_dir.mkdir(parents=True)
    for slide in range(1, 5):
        doc = {
            "lecture": f"Lecture {lecture}",
            "slide_id": slide,
            "models": {
                name: {
                    "concepts": [{"category": "topic", "term": f"term {rng.randrange(30)}"}
                                 for _ in range(rng.randrange(1, 5))],
                    "triples": [{"s": "slide", "p": "shows", "o": f"item {rng.randrange(9)}"}],
                    "evidence": [f"fragment {rng.randrange(100)}"],
                }
                for name in ("vision-a", "vision-b")
            },
        }
        (lecture_dir / f"Slide{slide}.json").write_text(json.dumps(doc))


def commitments_of(records):
    """{key: commitment} in key order, hashed in one batch."""
    keys = sorted(records)
    return dict(zip(keys, commit_records(records[key] for key in keys)))


def records_of(run):
    """The run's (key, record) stream, one file at a time, in key order."""
    return CorpusReader(run).read(normalize_record)


corpus = load_corpus(root)
commitments = commitments_of(corpus)
ledger = Ledger()
for key, commitment in commitments.items():
    ledger.register_slide(key, commitment, canonical_uri(key))
print(f"registered {len(corpus)} slides in blocks 1..{len(corpus)}")

# -- verification ------------------------------------------------------------
verdicts = verify_corpus(commitments, ledger)
print("\nverification of the untouched corpus:",
      {v.verdict for v in verdicts}, "for all", len(verdicts), "slides")

# a copy of the corpus with one registered slide file deleted
pruned = workdir / "pruned"
shutil.copytree(root, pruned)
(pruned / "by_slide" / "Lecture 2" / "Slide3.json").unlink()
verdicts = verify_corpus(commitments_of(load_corpus(pruned)), ledger)
[gone] = [v for v in verdicts if v.verdict != "Match"]
print(f"after deleting Lecture 2/Slide3.json: ({gone.key.lecture_id},{gone.key.slide_id})"
      f" -> {gone.verdict} (on chain {gone.on_chain[:10]}..., recomputed {gone.recomputed});"
      f" the other {len(verdicts) - 1} match")

# -- seeded tamper experiment -------------------------------------------------
report = tamper_experiment(CorpusReader(root), ledger, n=5, seed=7)
print("\ntamper protocol (5 slides, seed 7):")
for trial in report.trials:
    print(f"  ({trial.key.lecture_id},{trial.key.slide_id}) {trial.op.kind.value:<24}"
          f" -> {trial.verdict}")
print(f"detected {report.detected}/{report.total}"
      f" (rate {report.detection_rate:.0%}); replaying seed 7 gives the same choices")

# -- time-gap audit -----------------------------------------------------------
# a synthetic manifest: every record was "created" 3300s before its block
local_times = {key: ledger.get_slide(key).timestamp - 3300 for key in corpus}
gaps, summary = time_gaps(local_times, ledger)
print(f"\ntime gaps: mean {summary.mean:.0f}s, stddev {summary.stddev:.0f},"
      f" anomalies {summary.anomalies}")

# -- dual-run comparison --------------------------------------------------------
run_b = workdir / "rerun"
shutil.copytree(root, run_b)
comparison = compare_corpora(records_of(root), records_of(run_b))
print(f"\nrun-vs-rerun: {comparison.n_perfect}/{comparison.n_pairs} (slide, model)"
      f" pairs at Jaccard 1.0, {comparison.n_byte_equal} byte-identical records")

# now make run B drift on one slide and look again
target = run_b / "by_slide" / "Lecture 1" / "Slide2.json"
doc = json.loads(target.read_text())
doc["models"]["vision-a"]["triples"] = []
target.write_text(json.dumps(doc))
drifted = compare_corpora(records_of(root), records_of(run_b))
moved = [p for p in drifted.pairs if p.triple_jaccard < 1.0]
print(f"after deleting one model's triples in the rerun: {len(moved)} pair diverges"
      f" -> ({moved[0].key.lecture_id},{moved[0].key.slide_id}) {moved[0].model}")
