"""Seeded benchmark inputs: slide corpora in the layout ``slideprov`` reads.

Every function here is a pure function of its ``random.Random``: the same
seed gives the same documents, byte for byte.  The documents exercise the
normalization the program documents (case and whitespace variants,
duplicate identities, blank entries, null containers), so the oracle in
``oracle.py`` has real work to redo.  Record sizes follow a fixed
log-normal profile that each seed only shuffles, so every seed hashes
about the same number of Keccak blocks and the work per run stays level.
"""

from __future__ import annotations

import json
import math
import os
import random
import statistics
from pathlib import Path

MODELS = ("vision-alpha", "vision-beta", "vision-gamma", "vision-delta")
PAPER_SLIDES = 1117
SLIDES_PER_LECTURE = 45

# Raw document size profile in bytes: log-normal, median 1.7 KB, clipped;
# canonical records then average about 2.1 KB (7 to 59 Keccak blocks).
# Only the mean has a source (~2.07 KB in tests/conftest.py::write_corpus);
# the shape, median, sigma and clipping are assumed.
SIZE_MEDIAN = 1700
SIZE_SIGMA = 0.55
SIZE_MIN = 600
SIZE_MAX = 8000
RICHNESS_BYTES = 2600  # raw bytes per unit of concept and triple pool size

CATEGORIES = ("modality", "anatomy", "workflow", "physics", "software", "statistics")
PREDICATES = ("uses", "produces", "depends on", "is part of", "measures")
FILLER_WORDS = (
    "scanner", "contrast", "gradient", "sequence", "voxel", "slice", "echo",
    "signal", "noise", "filter", "phase", "field", "coil", "pulse", "tissue",
    "lesion", "volume", "protocol", "artifact", "calibration",
)

Document = dict
CorpusDocs = dict[tuple[int, int], Document]


def size_targets(n: int, rng: random.Random) -> list[int]:
    """n record sizes at the fixed profile's quantiles, in seeded order."""
    unit = statistics.NormalDist()
    sizes = [
        min(SIZE_MAX, max(SIZE_MIN, round(SIZE_MEDIAN * math.exp(
            SIZE_SIGMA * unit.inv_cdf((i + 0.5) / n)))))
        for i in range(n)
    ]
    rng.shuffle(sizes)
    return sizes


def lecture_sizes(total: int, n_lectures: int, rng: random.Random) -> list[int]:
    """Split ``total`` slides over ``n_lectures`` lectures of at least 10 each
    (or of equal size, when there are fewer than 10 per lecture)."""
    floor = min(10, total // n_lectures)
    spare = total - floor * n_lectures
    cuts = sorted(rng.randrange(spare + 1) for _ in range(n_lectures - 1))
    bounds = [0] + cuts + [spare]
    return [floor + bounds[i + 1] - bounds[i] for i in range(n_lectures)]


def _render(text: str, rng: random.Random) -> str:
    """A surface variant of ``text`` that normalizes back to it."""
    choice = rng.randrange(6)
    if choice == 0:
        return text.upper()
    if choice == 1:
        return text.title()
    if choice == 2:
        return "  " + text.replace(" ", " \t ") + " "
    return text


def slide_document(rng: random.Random, lecture_id: int, slide_id: int,
                   target: int, filler: str) -> Document:
    """One raw slide document of roughly ``target`` bytes of compact JSON."""
    richness = target / RICHNESS_BYTES
    concept_pool = [(rng.choice(CATEGORIES), f"term {rng.randrange(60)}")
                    for _ in range(max(2, round(7 * richness)))]
    triple_pool = [(f"entity {rng.randrange(30)}", rng.choice(PREDICATES),
                    f"entity {rng.randrange(30)}")
                   for _ in range(max(1, round(5 * richness)))]
    models: dict[str, dict] = {}
    for name in MODELS:
        concepts: list[dict] = []
        for category, term in concept_pool:
            if rng.random() < 0.6:
                entry = {"category": _render(category, rng), "term": _render(term, rng)}
                if rng.random() < 0.4:
                    entry["evidence"] = f"seen near item {rng.randrange(99)}"
                concepts.append(entry)
        if concepts and rng.random() < 0.2:  # same identity in another spelling
            dup = dict(rng.choice(concepts))
            dup["term"] = _render(dup["term"].strip().lower(), rng)
            concepts.append(dup)
        if rng.random() < 0.05:  # blank term: dropped by normalization
            concepts.append({"category": "modality", "term": "   "})
        triples: list[dict] | None = []
        for s, p, o in triple_pool:
            if rng.random() < 0.5:
                entry = {"s": _render(s, rng), "p": p, "o": _render(o, rng)}
                if rng.random() < 0.5:
                    entry["confidence"] = round(rng.random(), 3)
                triples.append(entry)
        if not triples and rng.random() < 0.3:
            triples = None
        models[name] = {
            "concepts": concepts,
            "triples": triples,
            "evidence": [f"transcript fragment {rng.randrange(1000)}"
                         for _ in range(rng.randrange(1, 4))],
        }
    doc = {
        "lecture": f"Lecture {lecture_id}",
        "slide_id": slide_id,
        "models": models,
        "paths": {
            "image": f"Lecture{lecture_id}/Images/Slide{slide_id}.jpg",
            "text": f"Lecture{lecture_id}/Texts/Slide{slide_id}.txt",
            "json": f"Lecture {lecture_id}/Slide{slide_id}.json",
        },
        "metadata": {"timestamp": "2025-11-03T10:00:00", "source": "perfbench"},
    }
    pad = target - len(json.dumps(doc, separators=(",", ":")))
    if pad > 20:
        start = rng.randrange(len(filler) - pad)
        models[rng.choice(MODELS)]["raw_output"] = filler[start:start + pad - 16]
    return doc


def filler_text(rng: random.Random) -> str:
    return " ".join(rng.choice(FILLER_WORDS) for _ in range(4 * SIZE_MAX // 6))


def corpus_docs(rng: random.Random, n_slides: int, first_lecture: int = 1,
                n_lectures: int | None = None) -> CorpusDocs:
    """Documents for ``n_slides`` slides in consecutive lectures."""
    if n_lectures is None:
        n_lectures = max(1, round(n_slides / SLIDES_PER_LECTURE))
    filler = filler_text(rng)
    targets = iter(size_targets(n_slides, rng))
    docs: CorpusDocs = {}
    for offset, count in enumerate(lecture_sizes(n_slides, n_lectures, rng)):
        lecture = first_lecture + offset
        for slide in range(1, count + 1):
            docs[(lecture, slide)] = slide_document(rng, lecture, slide, next(targets), filler)
    return docs


def slide_path(root: Path, key: tuple[int, int]) -> Path:
    return root / "by_slide" / f"Lecture {key[0]}" / f"Slide{key[1]}.json"


def write_docs(root: Path, docs: CorpusDocs) -> None:
    """Write each document as JSON, over any earlier copy of the file.

    The file is opened without O_TRUNC and cut to length after the write:
    ext4 flushes a file at close when it was truncated to zero and
    rewritten, which would make rebuilding inputs cost disk writes.
    """
    made: set[Path] = set()
    for key, doc in docs.items():
        path = slide_path(root, key)
        if path.parent not in made:
            path.parent.mkdir(parents=True, exist_ok=True)
            made.add(path.parent)
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o644), "wb") as fh:
            fh.write(json.dumps(doc).encode("utf-8"))
            fh.truncate()


def second_run(rng: random.Random, docs: CorpusDocs, change_share: float,
               drop_share: float) -> tuple[CorpusDocs, set, set]:
    """A second extraction run of ``docs`` with seeded edits.

    ``change_share`` of all (slide, model) outputs gain one concept whose
    identity no model has, so their concept Jaccard falls below 1.
    ``drop_share`` of the slides lose one model output each.  Returns the
    new documents with the changed and the dropped (key, model) pairs.
    """
    keys = sorted(docs)
    dropped = {(key, rng.choice(MODELS))
               for key in rng.sample(keys, round(drop_share * len(keys)))}
    kept = [(key, model) for key in keys for model in MODELS if (key, model) not in dropped]
    changed = set(rng.sample(kept, round(change_share * len(keys) * len(MODELS))))
    run_b: CorpusDocs = {}
    for key in keys:
        models = dict(docs[key]["models"])
        for model in MODELS:
            if (key, model) in dropped:
                del models[model]
            elif (key, model) in changed:
                output = dict(models[model])
                output["concepts"] = output["concepts"] + [
                    {"category": "Revision", "term": f"Rerun {key[0]}-{key[1]}-{model}"}]
                models[model] = output
        run_b[key] = {**docs[key], "models": models}
    return run_b, changed, dropped
