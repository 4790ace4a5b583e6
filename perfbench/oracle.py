"""What slideprov's outputs must be, recomputed without slideprov.

Nothing here imports the program.  Each function follows the rules the
program documents (README "Corpus layout" and "Model notes", and the
docstrings they point to): normalization, canonical encoding, the calldata
gas formula, the per-block base-fee rule, and the set metrics.  Keccak-256
is the repository's spec-literal reference, ``tests/keccak_reference.py``.
The benchmark compares the program's report files with these.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from fractions import Fraction
from pathlib import Path

_TESTS = Path(__file__).resolve().parent.parent / "tests"

# --------------------------------------------------------------------------
# normalization and canonical bytes

# metadata.hash_input_format recorded when a document carries none
CANONICAL_FORMAT = "canonical-json/v1;sorted-keys;utf-8"
_WS = re.compile(r"\s+")


def norm(value: object) -> str:
    """Lowercase, collapse whitespace runs, strip; "" for non-strings."""
    return _WS.sub(" ", value).strip().lower() if isinstance(value, str) else ""


def _entries(value: object) -> list:
    if isinstance(value, list):
        return [e for e in value if isinstance(e, dict)]
    return [value] if isinstance(value, dict) else []


def _dumps(doc: object) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def concepts(output: dict) -> dict[tuple[str, str], dict]:
    """Identity -> canonical entry; the first spelling of an identity wins."""
    found: dict[tuple[str, str], dict] = {}
    for entry in _entries(output.get("concepts")):
        identity = (norm(entry.get("category")), norm(entry.get("term")))
        if all(identity) and identity not in found:
            doc = {"category": identity[0], "term": identity[1]}
            if isinstance(entry.get("evidence"), str):
                doc["evidence"] = entry["evidence"]
            found[identity] = doc
    return found


def triples(output: dict) -> dict[tuple[str, str, str], dict]:
    found: dict[tuple[str, str, str], dict] = {}
    for entry in _entries(output.get("triples")):
        identity = (norm(entry.get("s")), norm(entry.get("p")), norm(entry.get("o")))
        if all(identity) and identity not in found:
            doc: dict = {"s": identity[0], "p": identity[1], "o": identity[2]}
            conf = entry.get("confidence")
            if isinstance(conf, (int, float)) and not isinstance(conf, bool) and 0 <= conf <= 1:
                doc["confidence"] = float(conf)
            found[identity] = doc
    return found


def canonical_bytes(doc: dict, key: tuple[int, int]) -> bytes:
    """Sorted keys, no whitespace, UTF-8; set elements ordered by their encoding."""
    models = {}
    for name, output in doc["models"].items():
        evidence = output.get("evidence")
        model = {
            "concepts": sorted(concepts(output).values(), key=_dumps),
            "triples": sorted(triples(output).values(), key=_dumps),
            "evidence": [e for e in evidence if isinstance(e, str)] if isinstance(evidence, list)
            else [evidence] if isinstance(evidence, str) else [],
        }
        if isinstance(output.get("raw_output"), str):
            model["raw_output"] = output["raw_output"]
        models[name] = model
    paths, meta = doc.get("paths", {}), doc.get("metadata", {})
    return _dumps({
        "lecture": doc["lecture"],
        "lecture_id": key[0],
        "slide_id": key[1],
        "models": models,
        "paths": {name: paths.get(name, "") for name in ("image", "text", "json")},
        "metadata": {
            "timestamp": meta.get("timestamp", ""),
            "source": meta.get("source", ""),
            "hash_input_format": meta.get("hash_input_format", CANONICAL_FORMAT),
        },
    }).encode("utf-8")


def keccak256(data: bytes) -> bytes:
    """EVM Keccak-256 by the reference written apart from the program."""
    if str(_TESTS) not in sys.path:
        sys.path.append(str(_TESTS))
    from keccak_reference import reference_keccak256

    return reference_keccak256(data)


def commitment(doc: dict, key: tuple[int, int]) -> str:
    return "0x" + keccak256(canonical_bytes(doc, key)).hex()


# --------------------------------------------------------------------------
# registry: URI, gas and fees

CANONICAL_GAS = 231_430  # a 66-char hash with a 30-char URI costs exactly this
INTRINSIC_GAS, NONZERO_GAS, ZERO_GAS = 21_000, 16, 4
INITIAL_BASE_FEE_WEI = 770_000_000  # 0.77 gwei
TIP_WEI = 1_000_000_000             # 1.0 gwei
TARGET_GAS, FEE_DENOMINATOR = 15_000_000, 8
ETH_USD = 3000
BLOCK_INTERVAL = 1
GENESIS_TIME = 0


def uri(key: tuple[int, int]) -> str:
    return f"Lecture {key[0]}/Slide{key[1]}.json"


def _calldata_gas(hash_len: int, uri_len: int) -> int:
    """Selector, six one-nonzero-byte words, the strings and their padding."""
    nonzero = hash_len + uri_len + 4 + 6
    zero = -hash_len % 32 + -uri_len % 32 + 6 * 31
    return INTRINSIC_GAS + NONZERO_GAS * nonzero + ZERO_GAS * zero


EXEC_BASE_GAS = CANONICAL_GAS - _calldata_gas(66, 30)


def gas(hash_len: int, uri_len: int) -> int:
    return _calldata_gas(hash_len, uri_len) + EXEC_BASE_GAS


def next_base_fee(base_wei: int, gas_used: int) -> int:
    """base * (1 + (gas - target) / (denominator * target)), floored to wei."""
    return base_wei * ((FEE_DENOMINATOR - 1) * TARGET_GAS + gas_used) // (FEE_DENOMINATOR * TARGET_GAS)


def block_timestamp(block: int) -> int:
    return GENESIS_TIME + block * BLOCK_INTERVAL


# --------------------------------------------------------------------------
# set metrics


def jaccard(a: frozenset, b: frozenset) -> float:
    return 1.0 if not a and not b else len(a & b) / len(a | b)


def identity_sets(docs: dict) -> dict:
    """key -> model -> (concept identities, triple identities)."""
    return {
        key: {name: (frozenset(concepts(out)), frozenset(triples(out)))
              for name, out in doc["models"].items()}
        for key, doc in docs.items()
    }


def analytics(docs: dict) -> dict:
    """Every number ``slideprov analyze`` reports, from the raw documents."""
    sets = identity_sets(docs)
    keys = sorted(sets)
    models = sorted({name for per_model in sets.values() for name in per_model})
    empty = (frozenset(), frozenset())
    unions = {}
    for key in keys:
        c: set = set()
        t: set = set()
        for cs, ts in sets[key].values():
            c |= cs
            t |= ts
        unions[key] = (c, t)
    d_concept = {key: len(unions[key][0]) for key in keys}
    d_triple = {key: len(unions[key][1]) for key in keys}

    lectures: dict[int, list] = {}
    for key in keys:
        lectures.setdefault(key[0], []).append(key)
    lecture_means = {
        lecture: (len(ks), sum(d_concept[k] for k in ks) / len(ks),
                  sum(d_triple[k] for k in ks) / len(ks))
        for lecture, ks in lectures.items()
    }

    matrices = {}
    for kind, idx in (("concepts", 0), ("triples", 1)):
        matrix = [[1.0] * len(models) for _ in models]
        for i, a in enumerate(models):
            for j in range(i + 1, len(models)):
                b = models[j]
                mean = sum(jaccard(sets[k].get(a, empty)[idx], sets[k].get(b, empty)[idx])
                           for k in keys) / len(keys)
                matrix[i][j] = matrix[j][i] = mean
        matrices[kind] = matrix

    q1, _, q3 = statistics.quantiles([d_concept[k] for k in keys], n=4, method="inclusive")
    labels = {k: "Stable" if d_concept[k] <= q1 else "Unstable" if d_concept[k] > q3
              else "Moderate" for k in keys}

    mean_concepts = {m: sum(len(sets[k].get(m, empty)[0]) for k in keys) / len(keys)
                     for m in models}
    baseline = max(models, key=lambda m: mean_concepts[m])  # first of equals wins
    coverage = {}
    for k in keys:
        c, t = unions[k]
        base_c, base_t = sets[k].get(baseline, empty)
        coverage[k] = (len(c - base_c) / len(c) if c else 0.0,
                       len(t - base_t) / len(t) if t else 0.0)
    return {
        "models": models, "d_concept": d_concept, "d_triple": d_triple,
        "lecture_means": lecture_means, "matrices": matrices, "bands": (q1, q3),
        "labels": labels, "baseline": baseline, "coverage": coverage,
    }


def fraction_float(numerator: int, denominator: int) -> float:
    return float(Fraction(numerator, denominator))
