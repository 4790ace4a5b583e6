"""How the command line reads its input files.

Every input file goes through ``records.read_json``.  A file that is not
JSON in any way (deep nesting, an over-long integer, bytes that are not
UTF-8) gets its documented outcome and never a traceback: a corpus file
is skipped with a warning, a ledger exits 3, a time manifest or a
profiles file exits 2.  The ledger is opened before the corpus is read,
so a missing or corrupt one stops a command before any corpus file is
opened, and ``verify`` can name registered slides the corpus no longer
yields.
"""

import contextlib
import csv
import json
import random
import shutil
from pathlib import Path

import pytest

from conftest import run_cli, synthetic_document, write_corpus
from slideprov import records
from slideprov.ledger import checksum

FORMS = {
    "deep-array": b"[" * 200_000 + b"]" * 200_000,
    "long-integer": b"1" * 5000,
    "not-utf8": '["café"]'.encode("latin-1"),
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A registered 6-slide corpus and its ledger."""
    tmp = tmp_path_factory.mktemp("inputs")
    corpus = write_corpus(tmp / "corpus", n_lectures=2, slides_per_lecture=3)
    ledger = tmp / "ledger.json"
    code, _, err = run_cli(["register", "--corpus", str(corpus), "--ledger", str(ledger),
                            "--out", str(tmp / "out")])
    assert code == 0, err
    return {"corpus": corpus, "ledger": ledger}


def _runs(ws, tmp_path, data):
    """(input, argv, the bad file, expected exit code) for each input holding ``data``."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    corpus = tmp_path / "corpus"
    shutil.copytree(ws["corpus"], corpus)
    (corpus / "by_slide" / "Lecture 3").mkdir()
    bad_slide = corpus / "by_slide" / "Lecture 3" / "Slide1.json"
    bad_slide.write_bytes(data)
    out = ["--out", str(tmp_path / "out")]
    good = ["--corpus", str(ws["corpus"])] + out
    yield ("corpus", ["register", "--corpus", str(corpus),
                      "--ledger", str(tmp_path / "new-ledger.json")] + out, bad_slide, 0)
    for command in ("register", "verify", "tamper", "time-gaps"):
        yield (f"ledger ({command})", [command, *good, "--ledger", str(bad)], bad, 3)
    yield ("manifest", ["time-gaps", *good, "--ledger", str(ws["ledger"]),
                        "--manifest", str(bad)], bad, 2)
    yield ("profiles", ["project", "--profiles", str(bad)] + out, bad, 2)


@pytest.mark.parametrize("form", FORMS)
def test_malformed_input_file_gets_its_documented_outcome(workspace, tmp_path, form):
    for name, argv, bad, expected in _runs(workspace, tmp_path, FORMS[form]):
        code, _, err = run_cli(argv)  # a traceback would escape main and fail here
        lines = err.splitlines()
        assert code == expected, (name, lines)
        assert "Traceback" not in err, name
        prefix = "warning: skipped " if expected == 0 else "error: "
        assert len(lines) == 1 and lines[0].startswith(prefix), (name, lines)
        assert str(bad) in lines[0], (name, lines)


def _refuse(*_):
    raise AssertionError("a corpus file was read")


@pytest.mark.parametrize("command, ledger_bytes, message", [
    ("verify", None, "error: ledger file not found: "),
    ("tamper", None, "error: ledger file not found: "),
    ("register", b"{not json", "error: cannot read ledger file "),
])
def test_bad_ledger_stops_the_command_before_the_corpus_is_read(
        workspace, tmp_path, monkeypatch, command, ledger_bytes, message):
    ledger = tmp_path / "ledger.json"
    if ledger_bytes is not None:
        ledger.write_bytes(ledger_bytes)
    monkeypatch.setattr(records.CorpusReader, "read", _refuse)
    code, _, err = run_cli([command, "--corpus", str(workspace["corpus"]), "--ledger", str(ledger),
                            "--out", str(tmp_path / "out")])
    lines = err.splitlines()
    assert code == 3
    assert len(lines) == 1 and lines[0].startswith(f"{message}{ledger}"), lines
    assert not (tmp_path / "out").exists()


def test_compare_runs_warns_about_each_failed_file_of_each_run(workspace, tmp_path):
    runs = []
    for name, failing in (("a", (1,)), ("b", (1, 2))):
        run = tmp_path / name
        shutil.copytree(workspace["corpus"], run)
        (run / "by_slide" / "Lecture 3").mkdir()
        for slide in failing:
            (run / "by_slide" / "Lecture 3" / f"Slide{slide}.json").write_text("[1, 2]")
        runs.append(run)
    code, _, err = run_cli(["compare-runs", *map(str, runs), "--out", str(tmp_path / "out")])
    assert code == 0
    failed = [runs[0] / "by_slide" / "Lecture 3" / "Slide1.json",
              *(runs[1] / "by_slide" / "Lecture 3" / f"Slide{slide}.json" for slide in (1, 2))]
    assert err.splitlines() == [f"warning: skipped {path}: expected a JSON object, got list"
                                for path in failed]


# -- a corpus none of whose files loads ---------------------------------------


@pytest.mark.parametrize("command", ["register", "verify", "analyze", "compare-runs"])
def test_a_corpus_where_nothing_loads_names_its_failed_files_before_the_error(
        workspace, tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c" / "by_slide" / "Lecture 9").mkdir(parents=True)
    (tmp_path / "c" / "by_slide" / "Lecture 9" / "Slide1.json").write_text("[]", encoding="utf-8")
    shutil.copy(workspace["ledger"], "ledger.json")
    argv = {"register": ["register", "--corpus", "c", "--ledger", "fresh.json"],
            "verify": ["verify", "--corpus", "c"],
            "analyze": ["analyze", "--corpus", "c"],
            "compare-runs": ["compare-runs", "c", "c"]}[command]
    code, out, err = run_cli(argv)
    skipped = "warning: skipped c/by_slide/Lecture 9/Slide1.json: expected a JSON object, got list"
    # compare-runs reads both runs before it checks either: one line for each
    expected = [skipped] * (2 if command == "compare-runs" else 1)
    assert (code, out) == (3, "")
    assert err.splitlines() == [*expected, "error: no provenance records loaded from c (1 files failed to parse)"]
    assert not Path("fresh.json").exists()


# -- verify: registered slides the corpus no longer yields --------------------


def _verify_after(tmp_path, change):
    corpus = write_corpus(tmp_path / "corpus", n_lectures=2, slides_per_lecture=3)
    common = ["--corpus", str(corpus), "--ledger", str(tmp_path / "ledger.json"),
              "--out", str(tmp_path / "out")]
    assert run_cli(["register", *common])[0] == 0
    stored = json.loads((tmp_path / "ledger.json").read_text(encoding="utf-8"))["events"]
    change(corpus / "by_slide" / "Lecture 1" / "Slide2.json")
    code, out, err = run_cli(["verify", *common])
    with open(tmp_path / "out" / "verdicts.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return code, out, err, rows, {(r["lectureId"], r["slideId"]): r["slideHash"] for r in stored}


@pytest.mark.parametrize("change", [
    lambda path: path.unlink(),
    lambda path: path.write_text("{not json", encoding="utf-8"),
], ids=["deleted", "garbage"])
def test_verify_reports_a_registered_slide_the_corpus_no_longer_yields(tmp_path, change):
    code, out, err, rows, stored = _verify_after(tmp_path, change)
    assert code == 1
    missing = [row for row in rows if row["verdict"] == "Missing"]
    assert missing == [{"lecture_id": "1", "slide_id": "2", "recomputed": "",
                        "on_chain": stored[1, 2], "verdict": "Missing"}]
    assert [row["verdict"] for row in rows].count("Match") == 5
    assert [(row["lecture_id"], row["slide_id"]) for row in rows] == [
        (str(lecture), str(slide)) for lecture in (1, 2) for slide in (1, 2, 3)]
    assert [line for line in err.splitlines() if line.startswith("error: ")] == [
        "error: (1,2): Missing"]
    assert out == "verified 6 slides: 5 match, 1 fail\n"


# -- ids that int() rejects ---------------------------------------------------


@pytest.mark.parametrize("field, value", [
    ("slide_id", "²"),
    ("slide_id", "7" * 5000),
    ("lecture", "Lecture " + "7" * 5000),
], ids=["superscript-two", "long-slide-id", "long-lecture-number"])
def test_id_that_int_rejects_is_absent_and_the_file_key_wins(tmp_path, field, value):
    corpus = write_corpus(tmp_path / "corpus", n_lectures=1, slides_per_lecture=2)
    doc = synthetic_document(random.Random(5), 1, 3)
    doc[field] = value
    (corpus / "by_slide" / "Lecture 1" / "Slide3.json").write_text(json.dumps(doc),
                                                                   encoding="utf-8")
    code, out, err = run_cli(["register", "--corpus", str(corpus),
                              "--ledger", str(tmp_path / "ledger.json"),
                              "--out", str(tmp_path / "out")])
    assert (code, err) == (0, "")
    assert out.startswith("registered 3/3 slides (skipped 0, failed 0)")


# -- ids past the registry's uint256 ------------------------------------------


@pytest.mark.parametrize("lecture, slide, message", [
    (1, 2**256, f"error: (1,{2**256}): slideId must be < 2**256"),
    (2**256, 1, f"error: ({2**256},1): lectureId must be < 2**256"),
], ids=["slide-id", "lecture-id"])
def test_register_fails_only_the_slide_whose_id_is_past_uint256(tmp_path, lecture, slide, message):
    corpus = write_corpus(tmp_path / "corpus", n_lectures=2, slides_per_lecture=3)
    (corpus / "by_slide" / f"Lecture {lecture}").mkdir(exist_ok=True)
    (corpus / "by_slide" / f"Lecture {lecture}" / f"Slide{slide}.json").write_text(
        json.dumps(synthetic_document(random.Random(5), lecture, slide)), encoding="utf-8")
    ledger = tmp_path / "ledger.json"
    code, out, err = run_cli(["register", "--corpus", str(corpus), "--ledger", str(ledger),
                              "--out", str(tmp_path / "out")])
    assert (code, err.splitlines()) == (1, [message])
    assert out.startswith("registered 6/7 slides (skipped 0, failed 1)")
    summary = json.loads((tmp_path / "out" / "register_summary.json").read_text(encoding="utf-8"))
    assert (summary["registered"], summary["failed"]) == (6, 1)
    assert len(json.loads(ledger.read_text(encoding="utf-8"))["events"]) == 6


def test_ledger_file_holding_an_id_past_uint256_exits_3(workspace, tmp_path):
    doc = json.loads(workspace["ledger"].read_text(encoding="utf-8"))
    doc["events"][-1]["slideId"] = 2**256
    ledger = tmp_path / "ledger.json"
    ledger.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run_cli(["verify", "--corpus", str(workspace["corpus"]), "--ledger", str(ledger),
                            "--out", str(tmp_path / "out")])
    assert (code, err.splitlines()) == (
        3, [f"error: {ledger}: ledger document rejected: slideId must be < 2**256"])


# (edit, the error it gets): each value is the JSON kind's near twin, under a recomputed checksum
KIND_EDITS = {
    "lectureId true": (lambda d: d["events"][0].update(lectureId=True),
                       "event 0: lectureId is not a JSON integer: True"),
    "timestamp float": (lambda d: d["events"][1].update(timestamp=float(d["events"][1]["timestamp"])),
                        "event 1: timestamp is not a JSON integer: 2.0"),
    "exec_base float": (lambda d: d["gas_config"].update(exec_base=207862.0),
                        "gas_config: exec_base is not a JSON integer: 207862.0"),
    "target_gas float": (lambda d: d["fee_config"].update(target_gas=15000000.0),
                         "fee_config: target_gas is not a JSON integer: 15000000.0"),
    "uri number": (lambda d: d["events"][2].update(uri=5), "event 2: uri is not a JSON string with a UTF-8 form: 5"),
    # a lone surrogate: a string that UTF-8 cannot encode
    "uri lone surrogate": (lambda d: d["events"][2].update(uri="x\ud800"),
                           "event 2: uri is not a JSON string with a UTF-8 form: 'x\\ud800'"),
    # a rational that is not the text the ledger writes: the export comparison alone took it for a bad checksum
    "eth_usd_rate int": (lambda d: d["fee_config"].update(eth_usd_rate=3000),
                         "fee_config: eth_usd_rate is not rational text in lowest terms: 3000"),
    "initial_base_fee_gwei float": (lambda d: d["fee_config"].update(initial_base_fee_gwei=0.77),
                                    "fee_config: initial_base_fee_gwei is not rational text in lowest terms: 0.77"),
    "priority_tip_gwei decimal text": (lambda d: d["fee_config"].update(priority_tip_gwei="1.0"),
                                       "fee_config: priority_tip_gwei is not rational text in lowest terms: '1.0'"),
    # a section or event of another kind: Python's own wording named no key
    "fee_config int": (lambda d: d.update(fee_config=5), "fee_config is not a JSON object: 5"),
    "gas_config list": (lambda d: d.update(gas_config=[1]), "gas_config is not a JSON object: [1]"),
    "events int": (lambda d: d.update(events=5), "events is not a JSON list: 5"),
    "events object": (lambda d: d.update(events={"a": 1}), "events is not a JSON list: {'a': 1}"),
    "events string": (lambda d: d.update(events="abc"), "events is not a JSON list: 'abc'"),
    "event int": (lambda d: d["events"].__setitem__(0, 5), "event 0 is not a JSON object: 5"),
}


@pytest.mark.parametrize("edit", KIND_EDITS)
def test_ledger_value_of_another_json_kind_exits_3_naming_its_field(workspace, tmp_path, edit):
    apply, message = KIND_EDITS[edit]
    doc = json.loads(workspace["ledger"].read_text(encoding="utf-8"))
    apply(doc)
    with contextlib.suppress(UnicodeEncodeError):  # text with no UTF-8 form has no checksum: the old one stays
        doc["checksum"] = checksum(doc)  # a consistent rewrite: only the kind is wrong
    ledger = tmp_path / "ledger.json"
    ledger.write_text(json.dumps(doc), encoding="utf-8")
    data = ledger.read_bytes()
    common = ["--corpus", str(workspace["corpus"]), "--ledger", str(ledger), "--out", str(tmp_path / "out")]
    for argv in (["verify", *common], ["register", *common, "--skip-existing"]):
        code, _, err = run_cli(argv)
        assert (code, err.splitlines()) == (3, [f"error: {ledger}: ledger document rejected: {message}"]), argv
    assert ledger.read_bytes() == data  # register did not rewrite the value
