"""Output checks: each reads one command's report files and raises
``CheckFailed`` at the first value that disagrees with ``oracle.py`` or with
a property the method must have.  No expected value is a copy of earlier
program output.
"""

from __future__ import annotations

import csv
import json
import math
import os
from pathlib import Path

import oracle

Key = tuple[int, int]


class CheckFailed(Exception):
    pass


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_json(path: Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _key(row: dict, lecture: str = "lecture_id", slide: str = "slide_id") -> Key:
    return int(row[lecture]), int(row[slide])


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


# --------------------------------------------------------------------------
# register and verify


def check_register(out: Path, new_keys: list[Key], skipped: int,
                   commitments: dict[Key, str], base_fee_wei: int | None = None) -> None:
    """One ``register`` run that appended ``new_keys`` after ``skipped`` slides.

    Blocks continue from ``skipped + 1`` with one block per slide and
    timestamps at genesis + block x interval.  Gas follows the calldata
    formula from the hash and URI lengths.  With ``base_fee_wei`` (a fresh
    ledger) the price, ETH and USD cost of every receipt follow the
    per-block base-fee rule in integer wei.  Every key in ``commitments``
    must carry that independently computed hash.
    """
    summary = read_json(out / "register_summary.json")
    expect(summary["attempted"] == len(new_keys), f"attempted {summary['attempted']} != {len(new_keys)}")
    expect(summary["registered"] == len(new_keys), f"registered {summary['registered']} != {len(new_keys)}")
    expect(summary["skipped_existing"] == skipped,
           f"skipped {summary['skipped_existing']} != {skipped}")
    expect(summary["failed"] == 0, f"{summary['failed']} registrations failed")

    events = read_csv(out / "events.csv")
    expect(len(events) == skipped + len(new_keys), f"{len(events)} events for {skipped + len(new_keys)} slides")
    by_key = {_key(e, "lectureId", "slideId"): e for e in events}
    expect(len(by_key) == len(events), "a slide has two registration events")

    receipts = read_csv(out / "receipts.csv")
    expect(len(receipts) == len(new_keys), f"{len(receipts)} receipts for {len(new_keys)} new slides")
    for i, (row, key) in enumerate(zip(receipts, new_keys)):
        block = skipped + 1 + i
        expect(_key(row) == key, f"receipt {i} is for {_key(row)}, expected {key}")
        expect(int(row["block"]) == block, f"{key}: block {row['block']} != {block}")
        expect(int(row["timestamp"]) == oracle.block_timestamp(block),
               f"{key}: timestamp {row['timestamp']} != {oracle.block_timestamp(block)}")
        event = by_key.get(key)
        expect(event is not None, f"{key}: no registration event")
        expect(event["uri"] == oracle.uri(key), f"{key}: uri {event['uri']!r}")
        gas = oracle.gas(len(event["slideHash"].encode()), len(event["uri"].encode()))
        expect(int(row["gas_used"]) == gas, f"{key}: gas {row['gas_used']} != {gas}")
        if base_fee_wei is not None:
            price = base_fee_wei + oracle.TIP_WEI
            expect(float(row["effective_gas_price_gwei"]) == oracle.fraction_float(price, 10**9),
                   f"{key}: price {row['effective_gas_price_gwei']} gwei, base fee {base_fee_wei} wei")
            expect(float(row["cost_eth"]) == oracle.fraction_float(gas * price, 10**18),
                   f"{key}: cost {row['cost_eth']} ETH")
            expect(float(row["cost_usd"]) == oracle.fraction_float(gas * price * oracle.ETH_USD, 10**18),
                   f"{key}: cost {row['cost_usd']} USD")
            base_fee_wei = oracle.next_base_fee(base_fee_wei, gas)
    for key, digest in commitments.items():
        expect(by_key[key]["slideHash"] == digest, f"{key}: commitment {by_key[key]['slideHash']} != {digest}")


def check_verify(out: Path, keys: list[Key], commitments: dict[Key, str]) -> None:
    rows = read_csv(out / "verdicts.csv")
    expect([_key(r) for r in rows] == keys, "verdicts do not cover the corpus in key order")
    for row in rows:
        expect(row["verdict"] == "Match", f"{_key(row)}: verdict {row['verdict']}")
        expect(row["recomputed"] == row["on_chain"], f"{_key(row)}: recomputed != on-chain")
    by_key = {_key(r): r for r in rows}
    for key, digest in commitments.items():
        expect(by_key[key]["recomputed"] == digest, f"{key}: recomputed {by_key[key]['recomputed']} != {digest}")


# --------------------------------------------------------------------------
# analyze and compare-runs


def check_analyze(out: Path, expected: dict) -> None:
    """Every analyze report against ``oracle.analytics`` of the generated documents."""
    rows = read_csv(out / "disagreement.csv")
    expect([_key(r) for r in rows] == sorted(expected["d_concept"]), "disagreement rows != corpus")
    for row in rows:
        key = _key(row)
        expect(int(row["d_concept"]) == expected["d_concept"][key],
               f"{key}: concept union {row['d_concept']} != {expected['d_concept'][key]}")
        expect(int(row["d_triple"]) == expected["d_triple"][key],
               f"{key}: triple union {row['d_triple']} != {expected['d_triple'][key]}")

    rows = read_csv(out / "lecture_aggregates.csv")
    expect(sorted(int(r["lecture_id"]) for r in rows) == sorted(expected["lecture_means"]),
           "lecture aggregates do not cover the lectures")
    for row in rows:
        count, mean_c, mean_t = expected["lecture_means"][int(row["lecture_id"])]
        expect(int(row["slide_count"]) == count, f"lecture {row['lecture_id']}: {row['slide_count']} slides")
        expect(_close(float(row["mean_d_concept"]), mean_c),
               f"lecture {row['lecture_id']}: mean concept union {row['mean_d_concept']} != {mean_c}")
        expect(_close(float(row["mean_d_triple"]), mean_t),
               f"lecture {row['lecture_id']}: mean triple union {row['mean_d_triple']} != {mean_t}")

    models = expected["models"]
    for kind, matrix in expected["matrices"].items():
        rows = read_csv(out / f"jaccard_{kind}.csv")
        expect([r["model"] for r in rows] == models, f"jaccard_{kind}: models {[r['model'] for r in rows]}")
        values = [[float(r[m]) for m in models] for r in rows]
        for i in range(len(models)):
            expect(values[i][i] == 1.0, f"jaccard_{kind}: diagonal {values[i][i]}")
            for j in range(len(models)):
                expect(values[i][j] == values[j][i], f"jaccard_{kind}: not symmetric at {i},{j}")
                expect(_close(values[i][j], matrix[i][j]),
                       f"jaccard_{kind}[{models[i]}][{models[j]}] {values[i][j]} != {matrix[i][j]}")

    rows = read_csv(out / "stability.csv")
    expect([_key(r) for r in rows] == sorted(expected["labels"]), "stability rows != corpus")
    q1, q3 = expected["bands"]
    for row in rows:
        key = _key(row)
        expect(row["label"] == expected["labels"][key],
               f"{key}: {row['label']} with d={row['d_concept']}, bands ({q1}, {q3})")

    rows = read_csv(out / "coverage_loss.csv")
    expect([_key(r) for r in rows] == sorted(expected["coverage"]), "coverage rows != corpus")
    for row in rows:
        key = _key(row)
        expect(row["baseline_model"] == expected["baseline"],
               f"baseline {row['baseline_model']} != {expected['baseline']}")
        concept_loss, triple_loss = expected["coverage"][key]
        expect(_close(float(row["concept_loss"]), concept_loss), f"{key}: concept loss {row['concept_loss']}")
        expect(_close(float(row["triple_loss"]), triple_loss), f"{key}: triple loss {row['triple_loss']}")


def check_compare(out: Path, n_slides: int, n_models: int, changed: dict, dropped: set) -> None:
    """Counts and rows of ``compare-runs`` against the generator's edits.

    ``changed`` maps each edited (key, model) to its concept count in the
    first run; the edit adds one new identity, so that pair's concept
    Jaccard is n / (n + 1) and its triple Jaccard stays 1.
    """
    touched = {key for key, _ in changed} | {key for key, _ in dropped}
    pairs = n_slides * n_models - len(dropped)
    summary = read_json(out / "compare_summary.json")
    for name, want in (("common_keys", n_slides), ("only_in_a", 0), ("only_in_b", 0),
                       ("pairs", pairs), ("perfect_pairs", pairs - len(changed)),
                       ("concept_perfect", pairs - len(changed)), ("triple_perfect", pairs),
                       ("asymmetric", len(dropped)), ("byte_equal", n_slides - len(touched)),
                       ("identical", False)):
        expect(summary[name] == want, f"compare summary {name} = {summary[name]}, expected {want}")

    imperfect, only_in_a = set(), set()
    for row in read_csv(out / "compare_runs.csv"):
        pair = (_key(row), row["model"])
        if row["status"] == "only_in_a":
            only_in_a.add(pair)
        elif row["concept_jaccard"] != "1.0" or row["triple_jaccard"] != "1.0":
            imperfect.add(pair)
            n = changed.get(pair)
            expect(n is not None and float(row["concept_jaccard"]) == n / (n + 1)
                   and row["triple_jaccard"] == "1.0",
                   f"{pair}: jaccard {row['concept_jaccard']}, {row['triple_jaccard']}")
    expect(imperfect == set(changed), f"{len(imperfect)} imperfect pairs, {len(changed)} changed")
    expect(only_in_a == dropped, f"{len(only_in_a)} pairs only in run A, {len(dropped)} dropped")


# --------------------------------------------------------------------------
# audits


def check_tamper(out: Path, keys: set, n: int) -> None:
    summary = read_json(out / "tamper_summary.json")
    expect(summary["total"] == n and summary["detected"] == n,
           f"tamper detected {summary['detected']}/{summary['total']}, expected {n}/{n}")
    rows = read_csv(out / "tamper_report.csv")
    expect(len(rows) == n, f"{len(rows)} tamper trials")
    expect(len({_key(r) for r in rows}) == n, "a slide was tampered twice")
    for row in rows:
        expect(_key(row) in keys, f"{_key(row)} is not in the corpus")
        expect(row["verdict"] == "Mismatch", f"{_key(row)}: tamper {row['kind']} verdict {row['verdict']}")


def check_time_gaps(out: Path, blocks: dict[Key, int], paths: dict[Key, Path]) -> None:
    """Delta = ledger timestamp - the file's mtime; anomaly exactly when negative."""
    rows = read_csv(out / "time_gaps.csv")
    expect([_key(r) for r in rows] == sorted(blocks), "time gaps do not cover the corpus")
    negative = 0
    for row in rows:
        key = _key(row)
        delta = float(oracle.block_timestamp(blocks[key]) - os.stat(paths[key]).st_mtime)
        expect(float(row["delta_seconds"]) == delta, f"{key}: delta {row['delta_seconds']} != {delta}")
        expect(row["anomaly"] == ("true" if delta < 0 else "false"), f"{key}: anomaly {row['anomaly']}")
        negative += delta < 0
    summary = read_json(out / "time_gap_summary.json")
    expect(summary["count"] == len(rows), f"time-gap count {summary['count']}")
    expect(summary["anomalies"] == negative, f"{summary['anomalies']} anomalies, {negative} negative deltas")
