"""Tests of the benchmark's own checks and oracle.

Each check first passes on real output of the program, run in-process on a
small generated corpus, and must then fail on a corrupted copy of it.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import csv
import json
import random
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import oracle  # noqa: E402
from slideprov.cli import main as slideprov  # noqa: E402
from slideprov.records import SlideKey, canonical_bytes, normalize_record  # noqa: E402

SLIDES = 60


def _edit_csv(path: Path, edit) -> None:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    fields = list(rows[0])
    edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _edit_json(path: Path, **changes) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc.update(changes)
    path.write_text(json.dumps(doc), encoding="utf-8")


def _copy(out: Path, tmp_path: Path) -> Path:
    return Path(shutil.copytree(out, tmp_path / out.name))


@pytest.fixture(scope="module")
def registry(tmp_path_factory):
    """A corpus registered into a fresh ledger, verified, tampered and audited."""
    root = tmp_path_factory.mktemp("registry")
    docs = gen.corpus_docs(random.Random(7), SLIDES, n_lectures=3)
    gen.write_docs(root / "corpus", docs)
    common = ["--corpus", str(root / "corpus"), "--ledger", str(root / "ledger.json")]
    for command, *extra in (["register"], ["verify"], ["tamper", "-n", "20"], ["time-gaps"]):
        assert slideprov([command, *common, "--out", str(root / command), *extra]) == 0
    keys = sorted(docs)
    return {
        "root": root,
        "docs": docs,
        "keys": keys,
        "commitments": {key: oracle.commitment(docs[key], key) for key in keys[:5]},
    }


@pytest.fixture(scope="module")
def analytics(tmp_path_factory):
    root = tmp_path_factory.mktemp("analytics")
    docs = gen.corpus_docs(random.Random(8), SLIDES, n_lectures=3)
    run_b, changed, dropped = gen.second_run(random.Random(9), docs, 0.1, 0.1)
    gen.write_docs(root / "run_a", docs)
    gen.write_docs(root / "run_b", run_b)
    assert slideprov(["analyze", "--corpus", str(root / "run_a"), "--out", str(root / "analyze")]) == 0
    assert slideprov(["compare-runs", str(root / "run_a"), str(root / "run_b"),
                      "--out", str(root / "compare")]) == 0
    return {
        "root": root,
        "expected": oracle.analytics(docs),
        "changed": {pair: len(oracle.concepts(docs[pair[0]]["models"][pair[1]])) for pair in changed},
        "dropped": dropped,
    }


# --------------------------------------------------------------------------
# oracle


def test_oracle_keccak_is_the_reference_keccak():
    # tests/test_keccak.py compares the reference with the program.
    empty = "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"
    assert oracle.keccak256(b"").hex() == empty


def test_canonical_bytes_match_program_on_generated_documents():
    docs = gen.corpus_docs(random.Random(2), 40, n_lectures=2)
    for key, doc in docs.items():
        record = normalize_record(json.loads(json.dumps(doc)), SlideKey(*key))
        assert oracle.canonical_bytes(doc, key) == canonical_bytes(record)


def test_gas_formula_is_calibrated():
    assert oracle.gas(66, 30) == oracle.CANONICAL_GAS
    # nine fewer URI bytes: nine nonzero calldata bytes become padding zeros
    assert oracle.gas(66, 21) == oracle.CANONICAL_GAS - 9 * (16 - 4)


def test_size_profile_is_the_same_for_every_seed():
    assert sorted(gen.size_targets(500, random.Random(1))) == sorted(gen.size_targets(500, random.Random(2)))


# --------------------------------------------------------------------------
# register and verify


def _check_register(out: Path, reg: dict) -> None:
    checks.check_register(out, reg["keys"], 0, reg["commitments"], oracle.INITIAL_BASE_FEE_WEI)


def test_register_check_passes(registry):
    _check_register(registry["root"] / "register", registry)


@pytest.mark.parametrize("file,column,row,value", [
    ("receipts.csv", "block", 5, "7"),                        # a skipped block number
    ("receipts.csv", "timestamp", 3, "99"),
    ("receipts.csv", "gas_used", 2, "231430"),
    ("receipts.csv", "effective_gas_price_gwei", 4, "1.77"),  # base fee not decayed
    ("events.csv", "slideHash", 0, "0x" + "ab" * 32),
    ("events.csv", "uri", 1, "Lecture 1/Slide9.json"),
])
def test_register_check_fails_on_corrupted_receipts(registry, tmp_path, file, column, row, value):
    out = _copy(registry["root"] / "register", tmp_path)

    def edit(rows):
        rows[row][column] = value
    _edit_csv(out / file, edit)
    with pytest.raises(checks.CheckFailed):
        _check_register(out, registry)


def test_register_check_fails_on_wrong_skip_count(registry, tmp_path):
    out = _copy(registry["root"] / "register", tmp_path)
    _edit_json(out / "register_summary.json", skipped_existing=3)
    with pytest.raises(checks.CheckFailed):
        _check_register(out, registry)


def test_verify_check(registry, tmp_path):
    checks.check_verify(registry["root"] / "verify", registry["keys"], registry["commitments"])
    out = _copy(registry["root"] / "verify", tmp_path)

    def flip(rows):
        rows[10]["verdict"] = "Mismatch"
    _edit_csv(out / "verdicts.csv", flip)
    with pytest.raises(checks.CheckFailed):
        checks.check_verify(out, registry["keys"], registry["commitments"])


# --------------------------------------------------------------------------
# audits


def test_tamper_check(registry, tmp_path):
    keys = set(registry["keys"])
    checks.check_tamper(registry["root"] / "tamper", keys, 20)
    out = _copy(registry["root"] / "tamper", tmp_path)

    def undetected(rows):
        rows[0]["verdict"] = "Match"
    _edit_csv(out / "tamper_report.csv", undetected)
    with pytest.raises(checks.CheckFailed):
        checks.check_tamper(out, keys, 20)
    _edit_json(out / "tamper_summary.json", detected=19)
    with pytest.raises(checks.CheckFailed):
        checks.check_tamper(out, keys, 20)


def _time_gap_inputs(reg: dict):
    blocks = {key: block for block, key in enumerate(reg["keys"], start=1)}
    paths = {key: gen.slide_path(reg["root"] / "corpus", key) for key in reg["keys"]}
    return blocks, paths


@pytest.mark.parametrize("column,value", [("delta_seconds", "-5.0"), ("anomaly", "false")])
def test_time_gaps_check(registry, tmp_path, column, value):
    blocks, paths = _time_gap_inputs(registry)
    checks.check_time_gaps(registry["root"] / "time-gaps", blocks, paths)
    out = _copy(registry["root"] / "time-gaps", tmp_path)

    def edit(rows):
        rows[0][column] = value
    _edit_csv(out / "time_gaps.csv", edit)
    with pytest.raises(checks.CheckFailed):
        checks.check_time_gaps(out, blocks, paths)


def test_time_gaps_check_uses_its_own_stat(registry, tmp_path):
    blocks, paths = _time_gap_inputs(registry)
    moved = dict(paths)
    first = registry["keys"][0]
    moved[first] = tmp_path / "newer.json"
    moved[first].write_text("{}")
    with pytest.raises(checks.CheckFailed):
        checks.check_time_gaps(registry["root"] / "time-gaps", blocks, moved)


# --------------------------------------------------------------------------
# analyze and compare-runs


def test_analyze_check_passes(analytics):
    checks.check_analyze(analytics["root"] / "analyze", analytics["expected"])


@pytest.mark.parametrize("file,row,column,value", [
    ("disagreement.csv", 4, "d_concept", None),         # a wrong union size
    ("disagreement.csv", 6, "d_triple", None),
    ("lecture_aggregates.csv", 1, "mean_d_concept", None),
    ("jaccard_concepts.csv", 0, "vision-beta", None),    # no longer symmetric
    ("jaccard_triples.csv", 3, "vision-gamma", "0.5"),   # a diagonal other than 1
    ("stability.csv", 3, "label", None),
    ("coverage_loss.csv", 0, "baseline_model", None),
])
def test_analyze_check_fails_on_corrupted_reports(analytics, tmp_path, file, row, column, value):
    out = _copy(analytics["root"] / "analyze", tmp_path)

    def edit(rows):
        old = rows[row][column]
        if value is not None:
            rows[row][column] = value
        elif column == "label":
            rows[row][column] = "Stable" if old != "Stable" else "Unstable"
        elif column == "baseline_model":
            rows[row][column] = next(m for m in gen.MODELS if m != old)
        elif "." in old:
            rows[row][column] = repr(float(old) + 0.125)
        else:
            rows[row][column] = str(int(old) + 1)
    _edit_csv(out / file, edit)
    with pytest.raises(checks.CheckFailed):
        checks.check_analyze(out, analytics["expected"])


def _check_compare(out: Path, data: dict) -> None:
    checks.check_compare(out, SLIDES, len(gen.MODELS), data["changed"], data["dropped"])


def test_compare_check(analytics, tmp_path):
    _check_compare(analytics["root"] / "compare", analytics)
    out = _copy(analytics["root"] / "compare", tmp_path)
    summary = json.loads((out / "compare_summary.json").read_text())
    _edit_json(out / "compare_summary.json", perfect_pairs=summary["perfect_pairs"] + 1)
    with pytest.raises(checks.CheckFailed):
        _check_compare(out, analytics)


def test_compare_check_fails_when_a_changed_pair_reads_perfect(analytics, tmp_path):
    out = _copy(analytics["root"] / "compare", tmp_path)
    changed = {(f"{k[0]}", f"{k[1]}", m) for k, m in analytics["changed"]}

    def perfect(rows):
        for row in rows:
            if (row["lecture_id"], row["slide_id"], row["model"]) in changed:
                row["concept_jaccard"] = "1.0"
                return
    _edit_csv(out / "compare_runs.csv", perfect)
    with pytest.raises(checks.CheckFailed):
        _check_compare(out, analytics)


def test_run_refuses_a_directory_without_sources(tmp_path, monkeypatch, capsys):
    import run

    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "ingest-commit", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_runner_counts_a_command_with_a_wrong_exit_code_as_failed_and_incorrect(tmp_path):
    import run

    runner = run.Runner(Path(__file__).resolve().parent.parent / "src", tmp_path, trace=False)
    checked = []
    runner.run(tmp_path, ["verify", "--corpus", "missing", "--ledger", "missing.json"], 1117,
               lambda: checked.append(True))
    assert (runner.attempted, runner.failed, runner.correct) == (1, 1, False)
    assert (runner.slides, runner.wall_s, runner.peak_rss_kb) == (0, 0.0, 0)
    assert runner.spent_s > 0 and checked == []
