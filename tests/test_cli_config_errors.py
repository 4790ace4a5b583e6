"""Malformed config input is a usage error at the command line.

``main()`` is driven with generated malformed time manifests (non-finite
times, times that are not JSON numbers and a slide listed twice
included), profiles files (names that are not JSON strings, prices that
are not numbers and a name listed twice included) and ``--eth-usd``
values.  A value of another kind in any field of either file gets the
whole line ``<file>: <what> entry <i>: <field> is not <kind>: <value>``.
``project`` reads ``--eth-usd`` and gas prices in the grammar of
``register``'s fee flags, ``p/q`` text included.
Each run must exit 2 without a traceback; a bad file must be named in
a single ``error:`` line together with the offending entry.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from conftest import write_corpus
from slideprov.cli import main
from slideprov.ledger import FeeConfig
from slideprov.reports import write_json

SLIDES = [(lecture, slide) for lecture in (1, 2) for slide in (1, 2, 3)]
FUZZ = settings(max_examples=40, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def run_main(argv):
    """(exit code, stderr) of one in-process run; argparse exits count too."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def assert_config_error(code, err, path=None):
    lines = err.splitlines()
    assert code == 2, lines
    assert "Traceback" not in err
    if path is not None:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert str(path) in lines[0], lines


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("config-errors")
    corpus = write_corpus(tmp / "corpus", n_lectures=2, slides_per_lecture=3)
    ledger = tmp / "ledger.json"
    code, err = run_main(["register", "--corpus", str(corpus), "--ledger", str(ledger),
                          "--out", str(tmp / "reports")])
    assert code == 0, err
    return {"tmp": tmp, "corpus": corpus, "ledger": ledger}


def _parses(convert, text):
    try:
        convert(text)
    except (ValueError, ArithmeticError):
        return False
    return True


def _positive_rational(text):
    # the number grammar of register's fee flags, project's --eth-usd and profile gas prices
    if Fraction(text) <= 0:
        raise ValueError(text)


not_an_object = st.one_of(st.none(), st.integers(), st.text(max_size=5), st.lists(st.integers(), max_size=2))
not_an_int = st.one_of(st.none(), st.lists(st.integers(), max_size=2), st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
                       st.text(max_size=6).filter(lambda s: not _parses(int, s)))
not_a_float = st.one_of(st.none(), st.lists(st.integers(), max_size=2),
                        st.text(max_size=6).filter(lambda s: not _parses(float, s)))
# json.dumps writes these as NaN, Infinity and -Infinity, which json.loads reads back
not_finite = st.one_of(st.sampled_from([float("nan"), float("inf"), float("-inf")]),
                       st.sampled_from(["nan", "NaN", "inf", "-Infinity", "1e999"]))
# what json.loads gives for a value that is not a JSON number, or not a JSON string
not_a_json_number = st.one_of(st.booleans(), st.text(max_size=4), st.integers(-3, 3).map(str), st.none(),
                              st.lists(st.integers(), max_size=2))
not_a_json_string = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
                              st.lists(st.text(max_size=2), max_size=2), st.sampled_from(["x\ud800", "\udfff"]))
not_a_price = st.one_of(st.none(), st.lists(st.integers(), max_size=2), st.integers(max_value=0),
                        st.sampled_from(["NaN", "Infinity", "-1.5", "0"]),
                        st.text(max_size=6).filter(lambda s: not _parses(_positive_rational, s)))


@st.composite
def malformed_entries(draw, valid, bad_values):
    """A JSON text: a valid list of entries with one entry broken, or a broken list.

    Any field of an entry may be dropped; ``bad_values`` maps the fields
    that can also hold a wrong value to a strategy for one.
    """
    entries = [dict(entry) for entry in valid]
    kind = draw(st.sampled_from(["drop-field", "bad-value", "not-object", "empty", "not-list", "not-json"]))
    i = draw(st.integers(0, len(entries) - 1))
    if kind == "drop-field":
        del entries[i][draw(st.sampled_from(sorted(entries[i])))]
    elif kind == "bad-value":
        name = draw(st.sampled_from(sorted(bad_values)))
        entries[i][name] = draw(bad_values[name])
    elif kind == "not-object":
        entries[i] = draw(not_an_object)
    elif kind == "empty":
        entries = []
    elif kind == "not-list":
        entries = draw(st.one_of(st.none(), st.integers(), st.text(max_size=5), st.just({"a": 1})))
    else:
        return draw(st.sampled_from(["", "[", "{\"a\":", "[1,]", "\x00"]))
    return json.dumps(entries)


VALID_MANIFEST = [{"lecture_id": l, "slide_id": s, "t_local": 0} for l, s in SLIDES]
MANIFEST_BAD_VALUES = {"lecture_id": not_an_int, "slide_id": not_an_int,
                       "t_local": st.one_of(not_a_float, not_finite, not_a_json_number)}
VALID_PROFILES = [{"name": "l1", "gas_price_gwei": 30}, {"name": "l2", "gas_price_gwei": "0.5"}]
PROFILE_BAD_VALUES = {"gas_price_gwei": not_a_price, "name": not_a_json_string}


@FUZZ
@given(text=malformed_entries(VALID_MANIFEST, MANIFEST_BAD_VALUES))
def test_malformed_time_manifest_exit_2(workspace, text):
    path = workspace["tmp"] / "times.json"
    path.write_text(text, encoding="utf-8")
    code, err = run_main(["time-gaps", "--corpus", str(workspace["corpus"]),
                          "--ledger", str(workspace["ledger"]), "--manifest", str(path),
                          "--out", str(workspace["tmp"] / "out")])
    assert_config_error(code, err, path)


@FUZZ
@given(text=malformed_entries(VALID_PROFILES, PROFILE_BAD_VALUES))
def test_malformed_profiles_exit_2(workspace, text):
    path = workspace["tmp"] / "profiles.json"
    path.write_text(text, encoding="utf-8")
    code, err = run_main(["project", "--profiles", str(path), "--out", str(workspace["tmp"] / "out")])
    assert_config_error(code, err, path)


@FUZZ
@given(rate=st.text(min_size=1, max_size=8).filter(lambda s: not _parses(_positive_rational, s)))
def test_bad_eth_usd_exit_2(workspace, rate):
    code, err = run_main(["project", f"--eth-usd={rate}", "--out", str(workspace["tmp"] / "out")])
    assert_config_error(code, err)
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err


def test_seed_variable_is_ignored_outside_tamper(tmp_path, workspace, monkeypatch):
    corpus, ledger, out = str(workspace["corpus"]), str(tmp_path / "ledger.json"), str(tmp_path / "out")
    monkeypatch.setenv("SLIDEPROV_SEED", "abc")
    for argv in (["register", "--corpus", corpus, "--ledger", ledger],
                 ["verify", "--corpus", corpus, "--ledger", ledger],
                 ["analyze", "--corpus", corpus],
                 ["compare-runs", corpus, corpus],
                 ["time-gaps", "--corpus", corpus, "--ledger", ledger],
                 ["project"]):
        code, err = run_main([*argv, "--out", out])
        assert code == 0, (argv, err)

@pytest.mark.parametrize("entry, detail", [
    ({"lecture_id": 1, "t_local": 0}, "missing 'slide_id'"),
    (1, "entry 0"),
    ({"lecture_id": 1, "slide_id": 1, "t_local": float("nan")}, "t_local is not a finite number"),
])
def test_manifest_messages_name_the_entry(tmp_path, workspace, entry, detail):
    path = tmp_path / "times.json"
    path.write_text(json.dumps([entry]), encoding="utf-8")
    code, err = run_main(["time-gaps", "--corpus", str(workspace["corpus"]),
                          "--ledger", str(workspace["ledger"]), "--manifest", str(path),
                          "--out", str(tmp_path / "out")])
    assert_config_error(code, err, path)
    assert detail in err


@FUZZ
@given(first=st.integers(0, len(SLIDES) - 1), offset=st.integers(1, len(SLIDES)), t_local=st.integers(-5, 5))
@example(first=0, offset=len(SLIDES), t_local=100)  # slide (1, 1) at 0 s and again, last, at 100 s
def test_slide_listed_twice_in_manifest_exit_2(tmp_path, workspace, first, offset, t_local):
    entries = [dict(entry) for entry in VALID_MANIFEST]
    repeat = min(first + offset, len(entries))
    entries.insert(repeat, dict(entries[first], t_local=t_local))
    path = tmp_path / "times.json"
    path.write_text(json.dumps(entries), encoding="utf-8")
    code, err = run_main(["time-gaps", "--corpus", str(workspace["corpus"]),
                          "--ledger", str(workspace["ledger"]), "--manifest", str(path),
                          "--out", str(tmp_path / "out")])
    assert_config_error(code, err, path)
    assert err == f"error: {path}: time manifest entry {repeat}: repeats entry {first}\n", err
    assert not (tmp_path / "out").exists()


# what json.loads gives for a value that is not a JSON integer
not_a_json_integer = st.one_of(st.booleans(), st.floats(), st.integers(-3, 3).map(str), st.text(max_size=4),
                               st.none(), st.lists(st.integers(), max_size=2))


@FUZZ
@given(index=st.integers(0, len(SLIDES) - 1), field=st.sampled_from(["lecture_id", "slide_id"]),
       value=not_a_json_integer)
@example(index=0, field="lecture_id", value=1.9)  # read as 1 by int()
@example(index=0, field="slide_id", value="2")
@example(index=3, field="lecture_id", value=True)  # a bool is an int
def test_manifest_id_that_is_not_a_json_integer_exit_2(tmp_path, workspace, index, field, value):
    entries = [dict(entry) for entry in VALID_MANIFEST]
    entries[index][field] = value
    path = tmp_path / "times.json"
    path.write_text(json.dumps(entries), encoding="utf-8")
    code, err = run_main(["time-gaps", "--corpus", str(workspace["corpus"]),
                          "--ledger", str(workspace["ledger"]), "--manifest", str(path),
                          "--out", str(tmp_path / "out")])
    assert_config_error(code, err, path)
    loaded = json.loads(path.read_text(encoding="utf-8"))[index][field]
    assert err == f"error: {path}: time manifest entry {index}: {field} is not a JSON integer: {loaded!r}\n", err
    assert not (tmp_path / "out").exists()


@FUZZ
@given(index=st.integers(0, len(SLIDES) - 1), value=not_a_json_number)
@example(index=0, value=True)  # read as 1.0 s by float()
@example(index=4, value="5")  # read as 5.0 s by float()
def test_manifest_time_that_is_not_a_json_number_exit_2(tmp_path, workspace, index, value):
    entries = [dict(entry) for entry in VALID_MANIFEST]
    entries[index]["t_local"] = value
    path = tmp_path / "times.json"
    path.write_text(json.dumps(entries), encoding="utf-8")
    code, err = run_main(["time-gaps", "--corpus", str(workspace["corpus"]),
                          "--ledger", str(workspace["ledger"]), "--manifest", str(path),
                          "--out", str(tmp_path / "out")])
    assert_config_error(code, err, path)
    loaded = json.loads(path.read_text(encoding="utf-8"))[index]["t_local"]
    assert err == f"error: {path}: time manifest entry {index}: t_local is not a finite number: {loaded!r}\n", err
    assert not (tmp_path / "out").exists()


@FUZZ
@given(index=st.integers(0, len(VALID_PROFILES) - 1), value=not_a_json_string)
@example(index=0, value=None)  # the network 'None' by str()
@example(index=1, value=7)  # the network '7' by str()
@example(index=0, value="x\ud800")  # a lone surrogate: a string that UTF-8 cannot encode
def test_profile_name_that_is_not_a_json_string_exit_2(tmp_path, index, value):
    entries = [dict(entry) for entry in VALID_PROFILES]
    entries[index]["name"] = value
    path = tmp_path / "profiles.json"
    path.write_text(json.dumps(entries), encoding="utf-8")
    code, err = run_main(["project", "--profiles", str(path), "--out", str(tmp_path / "out")])
    assert_config_error(code, err, path)
    loaded = json.loads(path.read_text(encoding="utf-8"))[index]["name"]
    assert err == (f"error: {path}: profile config entry {index}: name is not a JSON string with a UTF-8 form:"
                   f" {loaded!r}\n"), err
    assert not (tmp_path / "out").exists()


# what json.loads gives for a value that is neither a JSON number nor number text
not_a_number = st.one_of(st.none(), st.booleans(), st.lists(st.integers(), max_size=2),
                         st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
                         st.sampled_from([float("nan"), float("inf"), float("-inf")]),
                         st.text(max_size=6).filter(lambda s: not _parses(Fraction, s)))


@FUZZ
@given(index=st.integers(0, len(VALID_PROFILES) - 1), value=not_a_number)
@example(index=0, value=True)  # a bool is an int, but no price
@example(index=1, value="5 gwei")
def test_profile_price_that_is_not_a_number_exit_2(tmp_path, index, value):
    entries = [dict(entry) for entry in VALID_PROFILES]
    entries[index]["gas_price_gwei"] = value
    path = tmp_path / "profiles.json"
    path.write_text(json.dumps(entries), encoding="utf-8")
    code, err = run_main(["project", "--profiles", str(path), "--out", str(tmp_path / "out")])
    assert_config_error(code, err, path)
    loaded = json.loads(path.read_text(encoding="utf-8"))[index]["gas_price_gwei"]
    assert err == f"error: {path}: profile config entry {index}: gas_price_gwei is not a number: {loaded!r}\n", err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("names, repeat, first", [
    (["l1", "l1"], 1, 0),
    (["l1", "l2", "l3", "l2"], 3, 1),
])
def test_profile_name_listed_twice_exit_2(tmp_path, names, repeat, first):
    path = tmp_path / "profiles.json"
    path.write_text(json.dumps([{"name": name, "gas_price_gwei": index + 1} for index, name in enumerate(names)]),
                    encoding="utf-8")
    code, err = run_main(["project", "--profiles", str(path), "--out", str(tmp_path / "out")])
    assert_config_error(code, err, path)
    assert err == f"error: {path}: profile config entry {repeat}: repeats entry {first}\n", err
    assert not (tmp_path / "out").exists()


def test_empty_manifest_message(tmp_path, workspace):
    path = tmp_path / "times.json"
    path.write_text("[]", encoding="utf-8")
    code, err = run_main(["time-gaps", "--corpus", str(workspace["corpus"]),
                          "--ledger", str(workspace["ledger"]), "--manifest", str(path),
                          "--out", str(tmp_path / "out")])
    assert_config_error(code, err, path)
    assert "zero-size" not in err


def test_gaps_out_of_float_range_exit_2(tmp_path, workspace):
    # each t_local is finite, but their deltas sum past the largest float
    path = tmp_path / "times.json"
    path.write_text(json.dumps([{"lecture_id": l, "slide_id": s, "t_local": -1.7e308}
                                for l, s in SLIDES]), encoding="utf-8")
    code, err = run_main(["time-gaps", "--corpus", str(workspace["corpus"]),
                          "--ledger", str(workspace["ledger"]), "--manifest", str(path),
                          "--out", str(tmp_path / "out")])
    assert_config_error(code, err)
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("t_local", [
    [-1.7e308, 1.7e308, 1.7e308],  # deltas [1.7e308, -1.7e308, -1.7e308]: d - mean is inf
    [-1e200, 1e200],               # deltas [1e200, -1e200]: ** overflows
], ids=["deviation-inf", "square-overflows"])
def test_gaps_deviation_out_of_float_range_exit_2(tmp_path, workspace, t_local):
    # the mean is finite; the deviation from it is not
    path = tmp_path / "times.json"
    path.write_text(json.dumps([{"lecture_id": l, "slide_id": s, "t_local": t}
                                for (l, s), t in zip(SLIDES, t_local)]), encoding="utf-8")
    code, err = run_main(["time-gaps", "--corpus", str(workspace["corpus"]),
                          "--ledger", str(workspace["ledger"]), "--manifest", str(path),
                          "--out", str(tmp_path / "out")])
    assert_config_error(code, err)
    assert err == "error: time gaps exceed the floating-point range\n", err
    assert not (tmp_path / "out").exists()


def test_gaps_timestamp_out_of_float_range_exit_2(tmp_path, workspace):
    # block timestamps from 10**400 on: ints that no float holds
    ledger = tmp_path / "ledger.json"
    code, err = run_main(["register", "--corpus", str(workspace["corpus"]), "--ledger", str(ledger),
                          "--out", str(tmp_path / "reports"), "--block-interval", str(10**400)])
    assert code == 0, err
    manifest = tmp_path / "times.json"
    manifest.write_text(json.dumps(VALID_MANIFEST), encoding="utf-8")
    code, err = run_main(["time-gaps", "--corpus", str(workspace["corpus"]), "--ledger", str(ledger),
                          "--manifest", str(manifest), "--out", str(tmp_path / "out")])
    assert_config_error(code, err)
    assert err == "error: time gaps exceed the floating-point range\n", err
    assert not (tmp_path / "out").exists()


@FUZZ
@given(rate=st.one_of(st.text(max_size=8).filter(lambda s: "\x00" not in s),
                      st.from_regex(r"\A[-+]?[0-9]{1,4}(\.[0-9]{0,3}|/[0-9]{1,3})?(e-?[0-9])?\Z")))
@example(rate="6000/2")
@example(rate="1/0")
def test_eth_usd_one_grammar(workspace, rate):
    # project accepts exactly the --eth-usd values that register's FeeConfig accepts; with "=" a
    # leading "-" is the value, not a flag
    try:
        FeeConfig(eth_usd_rate=rate)
    except ValueError:
        expected = 2
    else:
        expected = 0
    code, err = run_main(["project", "-n", "1000", f"--eth-usd={rate}",
                          "--out", str(workspace["tmp"] / "grammar")])
    assert code == expected, err
    assert "Traceback" not in err


def test_report_json_rejects_non_finite(tmp_path):
    with pytest.raises(ValueError):
        write_json(tmp_path / "r.json", {"mean": float("nan")})
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("flags", [
    ["--eth-usd", "1e400"],
    ["--eth-usd", "1e-400"],
    ["--eth-usd", "1e800000"],
    ["--eth-usd", "1e-800000"],
    ["--profiles", "profiles.json"],
], ids=["rate-1e400", "rate-1e-400", "rate-1e800000", "rate-1e-800000", "profile-price-1e400"])
def test_projection_out_of_float_range_exit_2(tmp_path, flags):
    # exact rationals, but a float holds no cost of theirs
    (tmp_path / "profiles.json").write_text(json.dumps([{"name": "x", "gas_price_gwei": "1e400"}]),
                                            encoding="utf-8")
    flags = [str(tmp_path / flag) if flag == "profiles.json" else flag for flag in flags]
    code, err = run_main(["project", *flags, "--out", str(tmp_path / "out")])
    assert_config_error(code, err)
    assert err == "error: projected values exceed the floating-point range\n", err
    assert not (tmp_path / "out").exists()


# Fraction would build 10**100000000 from this text: minutes of work, so a
# run that reaches Fraction outlasts the timeout below.
HUGE_EXPONENT = "1e-100000000"


def run_process(argv, cwd):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    return subprocess.run([sys.executable, "-m", "slideprov.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=30)


def test_exponent_past_bound_is_rejected_before_fraction_reads_it(tmp_path, workspace):
    doc = json.loads(workspace["ledger"].read_text(encoding="utf-8"))
    doc["fee_config"]["eth_usd_rate"] = HUGE_EXPONENT
    (tmp_path / "ledger.json").write_text(json.dumps(doc), encoding="utf-8")
    (tmp_path / "list.json").write_text("[1, 2]", encoding="utf-8")
    corpus = str(workspace["corpus"])
    runs = [  # (argv, exit code, the one stderr line)
        (["register", "--corpus", corpus, "--ledger", "new.json", "--eth-usd", HUGE_EXPONENT],
         2, f"error: eth_usd_rate has an exponent past 4300: '{HUGE_EXPONENT}'"),
        (["register", "--corpus", corpus, "--ledger", "new.json", "--tip-gwei", HUGE_EXPONENT],
         2, f"error: priority_tip_gwei has an exponent past 4300: '{HUGE_EXPONENT}'"),
        (["verify", "--corpus", corpus, "--ledger", "ledger.json"],
         3, f"error: ledger.json: ledger document rejected: fee_config: eth_usd_rate is not rational text"
            f" in lowest terms: '{HUGE_EXPONENT}'"),
        (["verify", "--corpus", corpus, "--ledger", "list.json"],
         3, "error: list.json: unrecognized ledger format"),
        (["project", "--eth-usd", HUGE_EXPONENT],
         2, "error: projected values exceed the floating-point range"),
    ]
    for argv, code, line in runs:
        proc = run_process([*argv, "--out", "out"], tmp_path)
        assert (proc.returncode, proc.stderr.splitlines()) == (code, [line]), argv
    assert not (tmp_path / "out").exists() and not (tmp_path / "new.json").exists()
