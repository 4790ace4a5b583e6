"""Edited ledger files are rejected at the command line.

A ledger written by ``register`` gets one edit, and every command that
reads a ledger must then exit 3 with a single ``error:`` line, print no
traceback and leave the file's bytes as they were; so must a ledger file
of the earlier v1 or v2 format.  A value of another JSON kind in any field,
section or event, under a recomputed checksum, gets the line that names
the file, the config or event, and the field.  The same fee and gas values out of
range given as ``register`` flags exit 2 and write no ledger, or leave
an existing one as it was.  Fee and gas values whose costs are past the
float range are registered, and their costs written exactly; a figure
past the interpreter's 4,300-digit limit on integer text exits 2 with
one line before anything is saved.
"""

import contextlib
import io
import json
import re
import sys
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, example, given, settings, strategies as st

from conftest import run_cli, write_corpus
from slideprov.cli import main
from slideprov.ledger import MAX_DIGITS, FeeConfig, GasConfig, Ledger, account_hex, checksum, dev_accounts

EVENT_FIELDS = ["lectureId", "slideId", "slideHash", "uri", "timestamp", "registrant", "fileDigest"]

# a fee below 1 wei, zero and negative fees included; rationals are file text
_BELOW_ONE_WEI = st.fractions(max_value=Fraction(1, 10**9)).filter(lambda f: f < Fraction(1, 10**9)).map(str)
# (section, file key) -> values out of the field's range
OUT_OF_RANGE = {
    ("fee_config", "initial_base_fee_gwei"): _BELOW_ONE_WEI,
    ("fee_config", "priority_tip_gwei"): _BELOW_ONE_WEI,
    ("fee_config", "eth_usd_rate"): st.fractions(max_value=0).map(str),
    ("fee_config", "target_gas"): st.integers(max_value=0),
    ("fee_config", "decay_denominator"): st.integers(max_value=0),
    ("fee_config", "block_interval"): st.integers(max_value=0),
    ("fee_config", "genesis_time"): st.integers(max_value=-1),
    ("gas_config", "intrinsic"): st.integers(max_value=0),
    ("gas_config", "nonzero_byte"): st.integers(max_value=-1),
    ("gas_config", "zero_byte"): st.integers(max_value=-1),
    ("gas_config", "exec_base"): st.integers(max_value=-1),
}
# json.dumps writes inf as Infinity, which json.loads reads back
NOT_A_NUMBER = st.sampled_from(["abc", "", "1/0", "nan", None, True, False, [], {}, float("inf")])


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
    if value.startswith(("0x", "sha256:")):
        return value[:-1] + ("0" if value[-1] != "0" else "1")
    return value + "x"


def _valid_change(value):
    """A different value in a config field's range: rationals are file text."""
    return str(Fraction(value) + 1) if isinstance(value, str) else value + 1


def _edit(section, name, value):
    return f"{section}.{name}={value!r}", lambda d: d[section].update({name: value})


@st.composite
def edits(draw):
    """(description, function editing a ledger document in place)."""
    n = 6
    kind = draw(st.sampled_from(["drop", "swap", "duplicate", "event", "zero-id", "extra-key",
                                 "config", "config-value", "checksum"]))
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
    if kind == "event":
        name = draw(st.sampled_from(EVENT_FIELDS))
        return f"{kind} {i}.{name}", lambda d: d["events"][i].update({name: _changed(d["events"][i][name])})
    if kind == "zero-id":
        name = draw(st.sampled_from(["lectureId", "slideId"]))
        return f"{kind} {i}.{name}", lambda d: d["events"][i].update({name: 0})
    if kind == "config":
        section, name = draw(st.sampled_from(sorted(OUT_OF_RANGE)))
        return _edit(section, name, draw(st.one_of(OUT_OF_RANGE[section, name], NOT_A_NUMBER)))
    if kind == "config-value":
        section, name = draw(st.sampled_from(sorted(OUT_OF_RANGE)))
        return f"{kind} {section}.{name}", lambda d: d[section].update({name: _valid_change(d[section][name])})
    if kind == "checksum":
        if draw(st.booleans()):
            return f"{kind} dropped", lambda d: d.pop("checksum")
        return f"{kind} altered", lambda d: d.update(checksum=_changed(d["checksum"]))
    key = draw(st.text(min_size=1, max_size=8).filter(
        lambda k: k not in {"format", "fee_config", "gas_config", "events", "checksum"}))
    value = draw(st.one_of(st.none(), st.integers(), st.text(max_size=8)))
    return f"{kind} {key!r}", lambda d: d.update({key: value})


def assert_rejected_by_every_reader(ws, data):
    """Each ledger reader exits 3 on a ledger file of bytes ``data``; returns the error lines."""
    path = ws["tmp"] / "edited.json"
    path.write_bytes(data)
    errors = []
    for name, argv in commands(ws).items():
        code, _, err = run_cli(argv)
        lines = err.splitlines()
        assert code == 3, (name, lines)
        assert len(lines) == 1 and lines[0].startswith("error: "), (name, lines)
        assert "Traceback" not in err
        assert path.read_bytes() == data, name
        errors.append(lines[0])
    return errors


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edit=edits())
@example(edit=_edit("fee_config", "eth_usd_rate", "3001"))  # v1 files held no copy of it: exit 0
@example(edit=("drop the last event", lambda d: d["events"].pop()))
@example(edit=_edit("fee_config", "eth_usd_rate", "-3000"))
@example(edit=_edit("fee_config", "priority_tip_gwei", "0"))
@example(edit=_edit("fee_config", "block_interval", 0))
@example(edit=_edit("fee_config", "target_gas", float("inf")))
@example(edit=_edit("gas_config", "exec_base", -300000))
@example(edit=("events[0].timestamp=inf", lambda d: d["events"][0].update(timestamp=float("inf"))))
@example(edit=("events[2].fileDigest dropped", lambda d: d["events"][2].pop("fileDigest")))
@example(edit=("events[2].fileDigest altered", lambda d: d["events"][2].update(fileDigest=_changed(
    d["events"][2]["fileDigest"]))))
def test_edited_ledger_rejected_by_every_reader(workspace, edit):
    _, apply = edit
    doc = json.loads(json.dumps(workspace["doc"]))
    apply(doc)
    assert_rejected_by_every_reader(workspace, json.dumps(doc).encode("utf-8"))


def _lowest_terms(text):
    try:
        return str(Fraction(text)) == text
    except (ValueError, ZeroDivisionError):
        return False


# what json.loads gives for a value that is neither a JSON integer nor a JSON string
_NEITHER = st.one_of(st.none(), st.booleans(), st.floats(), st.lists(st.integers(), max_size=2),
                     st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))
_JSON = st.one_of(_NEITHER, st.integers(), st.text(max_size=6))
_ACCOUNT = account_hex(dev_accounts()[0])
# each kind as the error names it, and values not of it: near twins first
OTHER_KIND = {
    "a JSON integer": st.one_of(st.sampled_from([True, False, 1.0, "1", -0.0]), _NEITHER, st.text(max_size=6)),
    "a JSON string with a UTF-8 form": st.one_of(st.sampled_from(["x\ud800", "\udfff"]), _NEITHER, st.integers()),
    "an account identifier": st.one_of(
        st.sampled_from(["0x" + _ACCOUNT[2:].upper(), "0X" + _ACCOUNT[2:], _ACCOUNT[2:], _ACCOUNT[:-1],
                         _ACCOUNT + "0", "zz" + _ACCOUNT[2:], _ACCOUNT[:2] + "g" + _ACCOUNT[3:],
                         _ACCOUNT.encode().hex()]),
        _JSON),  # no text of 6 characters is an account
    "rational text in lowest terms": st.one_of(
        st.sampled_from([3000, 0.77, "1.0", "0.77", "6/4", "3/1", "-0", "0/1", " 3", "+3", "1e3", "1e-100000000"]),
        _NEITHER, st.integers(), st.text(max_size=6).filter(lambda v: not _lowest_terms(v))),
    "a JSON object": st.one_of(st.sampled_from([[], [1], "abc", 5]), _NEITHER.filter(lambda v: type(v) is not dict),
                               st.integers(), st.text(max_size=6)),
    "a JSON list": st.one_of(st.sampled_from([{}, {"a": 1}, "abc", 5]), _NEITHER.filter(lambda v: type(v) is not list),
                             st.integers(), st.text(max_size=6)),
}
# (section, field) of every section, config value and event field -> its kind; ("events", None) is an event itself
FIELD_KINDS = {
    (None, "fee_config"): "a JSON object",
    (None, "gas_config"): "a JSON object",
    (None, "events"): "a JSON list",
    ("events", None): "a JSON object",
    **{("fee_config", name): "rational text in lowest terms"
       for name in ("initial_base_fee_gwei", "priority_tip_gwei", "eth_usd_rate")},
    **{("fee_config", name): "a JSON integer"
       for name in ("target_gas", "decay_denominator", "block_interval", "genesis_time")},
    **{("gas_config", name): "a JSON integer" for name in ("intrinsic", "nonzero_byte", "zero_byte", "exec_base")},
    **{("events", name): "a JSON integer" for name in ("lectureId", "slideId", "timestamp")},
    **{("events", name): "a JSON string with a UTF-8 form" for name in ("slideHash", "uri", "fileDigest")},
    ("events", "registrant"): "an account identifier",
}


@st.composite
def other_kinds(draw):
    """(section, or None for the file itself; event index; field; a value of another JSON kind than the field's)."""
    section, name = draw(st.sampled_from([*FIELD_KINDS, (None, "format"), (None, "checksum")]))
    kind = FIELD_KINDS.get((section, name))
    value = draw(OTHER_KIND[kind] if kind else _JSON.filter(lambda v: v != "slideprov-ledger/v3"))
    return section, draw(st.integers(0, 5)), name, value


def _place(doc, section, index, name):
    """The holder of a field of ``section`` and its key there: the document itself, a config or event ``index``.

    With no field, the list of events and ``index``: the event itself.
    """
    if section is None:
        return doc, name
    if section == "events":
        return (doc["events"], index) if name is None else (doc["events"][index], name)
    return doc[section], name


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=other_kinds())
@example(case=("fee_config", 0, "eth_usd_rate", 3000))
@example(case=("events", 5, "registrant", "0x" + _ACCOUNT[2:].upper()))
@example(case=(None, 0, "format", 2))
@example(case=(None, 0, "checksum", None))
@example(case=(None, 0, "fee_config", 5))
@example(case=(None, 0, "gas_config", [1]))
@example(case=(None, 0, "events", {"a": 1}))
@example(case=("events", 0, None, 5))
@example(case=("events", 1, "uri", "x\ud800"))  # a lone surrogate
def test_every_field_of_another_json_kind_rejected_naming_it(workspace, case):
    section, index, name, value = case
    doc = json.loads(json.dumps(workspace["doc"]))
    holder, key = _place(doc, section, index, name)
    holder[key] = value
    if name != "checksum":  # a consistent rewrite: only the kind is wrong
        with contextlib.suppress(UnicodeEncodeError):  # text with no UTF-8 form has no checksum: the old one stays
            doc["checksum"] = checksum(doc)
    data = json.dumps(doc).encode("utf-8")
    holder, key = _place(json.loads(data), section, index, name)
    value = holder[key]  # as the file holds it: NaN and -0.0 included
    path = workspace["tmp"] / "edited.json"
    if name == "format":
        named = f" {value!r} (this version reads 'slideprov-ledger/v3')" if isinstance(value, str) else ""
        expected = f"error: {path}: unrecognized ledger format{named}"
    elif name == "checksum":
        expected = f"error: {path}: ledger file does not match its checksum"
    else:
        where = f"event {index}" if section == "events" else section
        named = name if where is None else where if name is None else f"{where}: {name}"  # a section, an event, a field
        expected = (f"error: {path}: ledger document rejected: {named} is not"
                    f" {FIELD_KINDS[section, name]}: {value!r}")
    assert assert_rejected_by_every_reader(workspace, data) == [expected] * 4


def test_ledger_file_not_utf8_rejected(workspace):
    path = workspace["tmp"] / "edited.json"
    for line in assert_rejected_by_every_reader(workspace, bytes([0xFF, 0xFE, 0x7B, 0x7D])):
        assert line.startswith(f"error: cannot read ledger file {path}: "), line


# register flag -> (section, file key) of the field it sets
FEE_FLAGS = {
    "--base-fee-gwei": ("fee_config", "initial_base_fee_gwei"),
    "--tip-gwei": ("fee_config", "priority_tip_gwei"),
    "--eth-usd": ("fee_config", "eth_usd_rate"),
    "--block-interval": ("fee_config", "block_interval"),
    "--gas-exec-base": ("gas_config", "exec_base"),
}


# (flag, value) with a value out of the flag's range
OUT_OF_RANGE_FLAG = st.sampled_from(sorted(FEE_FLAGS)).flatmap(
    lambda f: st.tuples(st.just(f), OUT_OF_RANGE[FEE_FLAGS[f]].map(str)))


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(flag=st.one_of(OUT_OF_RANGE_FLAG, st.tuples(st.sampled_from(sorted(FEE_FLAGS)),
                                                   st.sampled_from(["abc", "", "1/0", "nan", "inf"]))))
@example(flag=("--gas-exec-base", "-300000"))
@example(flag=("--eth-usd", "1/0"))
def test_out_of_range_fee_flag_exit_2(workspace, flag):
    name, value = flag
    ledger = workspace["tmp"] / "flagged.json"
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(["register", "--corpus", str(workspace["corpus"]), "--ledger", str(ledger),
                         "--out", str(workspace["tmp"] / "out"), f"{name}={value}"])
        except SystemExit as exc:  # argparse rejects a non-integer --block-interval
            code = exc.code
    assert code == 2, err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert not ledger.exists()


@pytest.fixture(scope="module")
def partly_registered(tmp_path_factory):
    """A corpus of 2 lectures with a ledger that registers only the first."""
    tmp = tmp_path_factory.mktemp("partly-registered")
    corpus = write_corpus(tmp / "corpus", n_lectures=1, slides_per_lecture=2)
    ledger = tmp / "ledger.json"
    code, _, err = run_cli(["register", "--corpus", str(corpus), "--ledger", str(ledger),
                            "--out", str(tmp / "out")])
    assert code == 0, err
    write_corpus(corpus, n_lectures=2, slides_per_lecture=2)  # same seed: lecture 1 unchanged
    return {"tmp": tmp, "corpus": corpus, "data": ledger.read_bytes()}


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(flags=st.lists(OUT_OF_RANGE_FLAG, min_size=1, max_size=2), skip_existing=st.booleans())
@example(flags=[("--eth-usd", "-5"), ("--gas-exec-base", "-300000")], skip_existing=True)
def test_out_of_range_fee_flag_exit_2_with_existing_ledger(partly_registered, flags, skip_existing):
    # the file's own configs would be used, but the flags are still checked
    ws = partly_registered
    ledger = ws["tmp"] / "existing.json"
    ledger.write_bytes(ws["data"])
    argv = ["register", "--corpus", str(ws["corpus"]), "--ledger", str(ledger),
            "--out", str(ws["tmp"] / "out"), *(f"{name}={value}" for name, value in flags)]
    code, _, err = run_cli(argv + ["--skip-existing"] * skip_existing)
    lines = err.splitlines()
    assert code == 2, lines
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert ledger.read_bytes() == ws["data"]


# register flag -> the config and field it sets, for the flags that scale a cost
COST_FLAGS = {
    "--base-fee-gwei": (FeeConfig, "initial_base_fee_gwei"),
    "--tip-gwei": (FeeConfig, "priority_tip_gwei"),
    "--eth-usd": (FeeConfig, "eth_usd_rate"),
    "--gas-exec-base": (GasConfig, "exec_base"),
}


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(flag=st.sampled_from(sorted(COST_FLAGS)), exponent=st.integers(320, 400), existing=st.booleans())
@example(flag="--eth-usd", exponent=400, existing=False)
@example(flag="--gas-exec-base", exponent=400, existing=False)
def test_cost_past_float_range_exit_0(workspace, flag, exponent, existing):
    # 10**exponent puts the costs past the float range: the reports write them exactly all the same
    ledger = workspace["tmp"] / "costly.json"
    ledger.unlink(missing_ok=True)
    value = 10**exponent
    config, name = COST_FLAGS[flag]
    if existing:  # a file whose own configs hold the value: they win over the flags
        configs = {config: config(**{name: value})}
        Ledger(configs.get(FeeConfig), configs.get(GasConfig)).save(ledger)
    out = workspace["tmp"] / "costly-out"
    text = str(value) if flag == "--gas-exec-base" else f"1e{exponent}"
    code, stdout, err = run_cli(["register", "--corpus", str(workspace["corpus"]), "--ledger", str(ledger),
                                 "--out", str(out), f"{flag}={text}"] + ["--skip-existing"] * existing)
    assert (code, err) == (0, "")
    saved = Ledger.load(ledger)
    assert len(saved.events) == 6
    assert getattr(saved.fee_config if config is FeeConfig else saved.gas_config, name) == value
    usd = json.loads((out / "register_summary.json").read_text(encoding="utf-8"))["total_cost_usd"]
    assert Fraction(usd) > sys.float_info.max and usd.isdigit()
    # stdout rounds the same cost to the cent, the report to 28 digits
    dollars = re.fullmatch(r"registered 6/6 slides .*, cost \$([0-9]+\.[0-9]{2})\n", stdout)[1]
    assert abs(Fraction(dollars) - Fraction(usd)) <= Fraction(usd) / 10**27


NINES = "9" * MAX_DIGITS  # the largest integer whose text the interpreter writes by default
# register flag -> (the config and field it sets, the one error line); each figure passes the digit limit
PAST_THE_DIGIT_LIMIT = {
    f"--gas-exec-base={NINES}": (GasConfig, "exec_base", "total gas has more than 4300 digits"),
    f"--block-interval={NINES}": (FeeConfig, "block_interval", "the last block's timestamp has more than 4300 digits"),
    "--eth-usd=1e4300": (FeeConfig, None, "eth_usd_rate has an exponent past 4299: '1e4300'"),
    "--eth-usd=99e4299": (FeeConfig, None, "eth_usd_rate has more than 4300 digits"),
}


@pytest.mark.parametrize("existing", [False, True], ids=["new-ledger", "existing-ledger"])
@pytest.mark.parametrize("flag", PAST_THE_DIGIT_LIMIT, ids=lambda flag: flag.split("=")[0] + "-" + flag[-6:])
def test_a_figure_past_the_digit_limit_exits_2_before_anything_is_saved(workspace, flag, existing):
    config, name, line = PAST_THE_DIGIT_LIMIT[flag]
    ledger, out = workspace["tmp"] / "digits.json", workspace["tmp"] / "digits-out"
    ledger.unlink(missing_ok=True)
    if existing:  # a file whose own configs hold the figure: they win over the flags, which are checked all the same
        configs = {config: config(**{name: int(NINES)})} if name else {}
        Ledger(configs.get(FeeConfig), configs.get(GasConfig)).save(ledger)
        before = ledger.read_bytes()
    code, stdout, err = run_cli(["register", "--corpus", str(workspace["corpus"]), "--ledger", str(ledger),
                                 "--out", str(out), flag])
    assert (code, stdout, err) == (2, "", f"error: {line}\n")
    assert ledger.read_bytes() == before if existing else not ledger.exists()
    assert not out.exists()


def test_truncated_log_rejected(tmp_path, capsys):
    # 30 registered slides; keep 3 events under the checksum of all 30
    corpus = write_corpus(tmp_path / "corpus", n_lectures=5, slides_per_lecture=6)
    ledger = tmp_path / "ledger.json"
    common = ["--corpus", str(corpus), "--ledger", str(ledger), "--out", str(tmp_path / "out")]
    assert main(["register", *common]) == 0
    doc = json.loads(ledger.read_text(encoding="utf-8"))
    doc["events"] = doc["events"][:3]
    ledger.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()

    for argv in (["verify", *common], ["tamper", *common], ["register", *common, "--skip-existing"]):
        assert main(argv) == 3
        assert capsys.readouterr().err == f"error: {ledger}: ledger file does not match its checksum\n"


def test_v1_ledger_rejected_naming_its_format(workspace):
    # the v1 layout: the same configs and log, plus their records and chain copies
    doc = {name: value for name, value in workspace["doc"].items() if name != "checksum"}
    events = doc["events"]
    doc.update(format="slideprov-ledger/v1", records=sorted(events, key=lambda e: (e["lectureId"], e["slideId"])),
               chain={"next_block_number": len(events) + 1, "next_timestamp": len(events) + 1,
                      "last_timestamp": len(events), "base_fee_wei": 0, "wall_clock": False})
    path = workspace["tmp"] / "edited.json"
    for line in assert_rejected_by_every_reader(workspace, json.dumps(doc).encode("utf-8")):
        assert line == (f"error: {path}: unrecognized ledger format 'slideprov-ledger/v1'"
                        " (this version reads 'slideprov-ledger/v3')"), line


def test_v2_ledger_rejected_naming_its_format(workspace):
    # the v2 layout: the same document, its events without a file digest, under its own checksum
    doc = json.loads(json.dumps(workspace["doc"]))
    for event in doc["events"]:
        del event["fileDigest"]
    doc["format"] = "slideprov-ledger/v2"
    doc["checksum"] = checksum(doc)
    path = workspace["tmp"] / "edited.json"
    for line in assert_rejected_by_every_reader(workspace, json.dumps(doc).encode("utf-8")):
        assert line == (f"error: {path}: unrecognized ledger format 'slideprov-ledger/v2'"
                        " (this version reads 'slideprov-ledger/v3')"), line
