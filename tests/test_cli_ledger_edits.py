"""Edited ledger files are rejected at the command line.

A ledger written by ``register`` gets one edit, and every command that
reads a ledger must then exit 3 with a single ``error:`` line, print no
traceback and leave the file's bytes as they were.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import write_corpus
from slideprov.cli import main
from slideprov.ledger import account_hex, dev_accounts

CHAIN_CURSOR = ["next_block_number", "next_timestamp", "last_timestamp", "base_fee_wei"]
RECORD_FIELDS = ["lectureId", "slideId", "slideHash", "uri", "timestamp", "registrant"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ledger-edits")
    corpus = write_corpus(tmp / "corpus", n_lectures=2, slides_per_lecture=3)
    ledger = tmp / "ledger.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["register", "--corpus", str(corpus), "--ledger", str(ledger),
                     "--out", str(tmp / "reports")]) == 0
    manifest = tmp / "times.json"
    manifest.write_text(json.dumps([{"lecture_id": l, "slide_id": s, "t_local": 0}
                                    for l in (1, 2) for s in (1, 2, 3)]), encoding="utf-8")
    return {"tmp": tmp, "corpus": corpus, "ledger": ledger, "manifest": manifest,
            "doc": json.loads(ledger.read_text(encoding="utf-8"))}


def commands(ws):
    common = ["--corpus", str(ws["corpus"]), "--ledger", str(ws["tmp"] / "edited.json"),
              "--out", str(ws["tmp"] / "out")]
    return {
        "verify": ["verify", *common],
        "tamper": ["tamper", *common, "-n", "2"],
        "time-gaps": ["time-gaps", *common, "--manifest", str(ws["manifest"])],
        "register": ["register", *common, "--skip-existing"],
    }


def _changed(value):
    """A different value of the same JSON type."""
    if isinstance(value, int):
        return value + 1
    if value.startswith("0x") and len(value) == 42:
        return next(account_hex(a) for a in dev_accounts() if account_hex(a) != value)
    if value.startswith("0x"):
        return value[:-1] + ("0" if value[-1] != "0" else "1")
    return value + "x"


@st.composite
def edits(draw):
    """(description, function editing a ledger document in place)."""
    n = 6
    kind = draw(st.sampled_from(["drop", "swap", "duplicate", "chain", "record", "zero-id", "extra-key"]))
    i = draw(st.integers(0, n - 1))
    if kind == "drop":
        return kind, lambda d: d["events"].pop(i)
    if kind == "swap":
        j = draw(st.integers(0, n - 1).filter(lambda j: j != i))

        def swap(d):
            d["events"][i], d["events"][j] = d["events"][j], d["events"][i]
        return f"{kind} {i},{j}", swap
    if kind == "duplicate":
        j = draw(st.integers(0, n))
        return f"{kind} {i}->{j}", lambda d: d["events"].insert(j, dict(d["events"][i]))
    if kind == "chain":
        name = draw(st.sampled_from(CHAIN_CURSOR))
        delta = draw(st.integers(-3, 3).filter(bool))
        return f"{kind} {name}{delta:+}", lambda d: d["chain"].update({name: d["chain"][name] + delta})
    if kind == "record":
        name = draw(st.sampled_from(RECORD_FIELDS))
        return f"{kind} {i}.{name}", lambda d: d["records"][i].update({name: _changed(d["records"][i][name])})
    if kind == "zero-id":
        section = draw(st.sampled_from(["events", "records"]))
        name = draw(st.sampled_from(["lectureId", "slideId"]))
        return f"{kind} {section}[{i}].{name}", lambda d: d[section][i].update({name: 0})
    key = draw(st.text(min_size=1, max_size=8).filter(
        lambda k: k not in {"format", "chain", "fee_config", "gas_config", "records", "events"}))
    value = draw(st.one_of(st.none(), st.integers(), st.text(max_size=8)))
    return f"{kind} {key!r}", lambda d: d.update({key: value})


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edit=edits())
def test_edited_ledger_rejected_by_every_reader(workspace, edit):
    _, apply = edit
    doc = json.loads(json.dumps(workspace["doc"]))
    apply(doc)
    path = workspace["tmp"] / "edited.json"
    data = json.dumps(doc).encode("utf-8")
    path.write_bytes(data)
    for name, argv in commands(workspace).items():
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        lines = err.getvalue().splitlines()
        assert code == 3, (name, lines)
        assert len(lines) == 1 and lines[0].startswith("error: "), (name, lines)
        assert "Traceback" not in err.getvalue()
        assert path.read_bytes() == data, name


def test_truncated_log_with_advanced_cursor_rejected(tmp_path, capsys):
    # 30 registered slides; keep 3 events and claim block 7 is next
    corpus = write_corpus(tmp_path / "corpus", n_lectures=5, slides_per_lecture=6)
    ledger = tmp_path / "ledger.json"
    common = ["--corpus", str(corpus), "--ledger", str(ledger), "--out", str(tmp_path / "out")]
    assert main(["register", *common]) == 0
    doc = json.loads(ledger.read_text(encoding="utf-8"))
    doc["events"] = doc["events"][:3]
    doc["chain"]["next_block_number"] = 7
    ledger.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()

    for argv in (["verify", *common], ["tamper", *common], ["register", *common, "--skip-existing"]):
        assert main(argv) == 3
        assert "disagree with its event log" in capsys.readouterr().err
