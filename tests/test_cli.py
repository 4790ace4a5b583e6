import csv
import json
import os
import random
import re
import shutil
import stat
from collections import Counter
from pathlib import Path

import pytest

from conftest import synthetic_document, write_corpus
from slideprov import canonical_bytes, load_corpus, normalize_record, records
from slideprov.cli import build_parser, main
from slideprov.integrity import compare_corpora
from slideprov.reports import Table, write_reports


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture
def env(tmp_path):
    """6-slide corpus plus scratch paths for ledger and reports."""
    corpus = write_corpus(tmp_path / "corpus", n_lectures=2, slides_per_lecture=3)
    return {
        "corpus": str(corpus),
        "ledger": str(tmp_path / "ledger.json"),
        "out": str(tmp_path / "reports"),
        "tmp": tmp_path,
    }


def run(command, env, *extra):
    args = [command, "--out", env["out"]]
    if command not in ("project", "compare-runs"):
        args += ["--corpus", env["corpus"]]
    if command in ("register", "verify", "tamper", "time-gaps"):
        args += ["--ledger", env["ledger"]]
    return main(args + list(extra))


class TestRegister:
    def test_six_slides_sequential_blocks(self, env):
        assert run("register", env) == 0
        receipts = read_csv(Path(env["out"]) / "receipts.csv")
        assert len(receipts) == 6
        assert [int(r["block"]) for r in receipts] == [1, 2, 3, 4, 5, 6]
        assert [int(r["timestamp"]) for r in receipts] == [1, 2, 3, 4, 5, 6]
        events = read_csv(Path(env["out"]) / "events.csv")
        assert len(events) == 6
        assert all(e["slideHash"].startswith("0x") for e in events)
        assert Path(env["ledger"]).exists()

    def test_rerun_without_flag_fails(self, env, capsys):
        assert run("register", env) == 0
        assert run("register", env) == 1
        assert "already registered" in capsys.readouterr().err

    def test_rerun_with_skip_existing(self, env, capsys):
        assert run("register", env) == 0
        capsys.readouterr()
        assert run("register", env, "--skip-existing") == 0
        out, err = capsys.readouterr()
        assert out.startswith("registered 0/0 slides (skipped 6, failed 0)") and err == ""
        summary = json.loads((Path(env["out"]) / "register_summary.json").read_text())
        assert summary["registered"] == 0
        assert summary["skipped_existing"] == 6

    def test_files_follow_umask(self, env):
        old = os.umask(0o022)
        try:
            assert run("register", env) == 0
        finally:
            os.umask(old)
        for path in (Path(env["ledger"]), Path(env["out"]) / "receipts.csv"):
            assert stat.S_IMODE(path.stat().st_mode) == 0o644

    def test_missing_corpus_exit_3(self, env):
        env = dict(env, corpus=str(env["tmp"] / "nowhere"))
        assert run("register", env) == 3


class TestVerify:
    def test_untouched_corpus_all_match(self, env):
        run("register", env)
        assert run("verify", env) == 0
        verdicts = read_csv(Path(env["out"]) / "verdicts.csv")
        assert all(v["verdict"] == "Match" for v in verdicts)

    def test_edited_file_flagged(self, env, capsys):
        run("register", env)
        target = Path(env["corpus"]) / "by_slide" / "Lecture 1" / "Slide2.json"
        doc = json.loads(target.read_text(encoding="utf-8"))
        name = sorted(doc["models"])[0]
        doc["models"][name]["concepts"].append({"category": "edited", "term": "entry"})
        target.write_text(json.dumps(doc), encoding="utf-8")

        assert run("verify", env) == 1
        verdicts = {(v["lecture_id"], v["slide_id"]): v["verdict"]
                    for v in read_csv(Path(env["out"]) / "verdicts.csv")}
        assert verdicts[("1", "2")] == "Mismatch"
        assert sum(1 for v in verdicts.values() if v != "Match") == 1

    def test_missing_ledger_exit_3(self, env, capsys):
        assert run("verify", env) == 3
        assert "not found" in capsys.readouterr().err


ANALYZE_FILES = {
    "disagreement.csv": ["lecture_id", "slide_id", "d_concept", "d_triple"],
    "jaccard_concepts.csv": None,  # model-name headers, checked separately
    "jaccard_triples.csv": None,
    "lecture_aggregates.csv": ["lecture_id", "slide_count", "mean_d_concept", "mean_d_triple"],
    "stability.csv": ["lecture_id", "slide_id", "d_concept", "label"],
    "coverage_loss.csv": ["lecture_id", "slide_id", "baseline_model", "concept_loss", "triple_loss"],
}


class TestAnalyze:
    def test_all_six_reports_with_headers(self, env):
        assert run("analyze", env) == 0
        out = Path(env["out"])
        for name, header in ANALYZE_FILES.items():
            path = out / name
            assert path.exists(), f"missing report {name}"
            if header is not None:
                with open(path, newline="", encoding="utf-8") as fh:
                    assert next(csv.reader(fh)) == header
        with open(out / "jaccard_concepts.csv", newline="", encoding="utf-8") as fh:
            header = next(csv.reader(fh))
        assert header[0] == "model" and len(header) == 5  # 4 fixture models

    def test_single_model_corpus_skips_jaccard(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path / "solo", model_names=["only-model"])
        out = tmp_path / "reports"
        assert main(["analyze", "--corpus", str(corpus), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "Jaccard matrices skipped" in captured.err
        assert not (out / "jaccard_concepts.csv").exists()
        assert (out / "disagreement.csv").exists()

    def test_rerun_byte_identical(self, env):
        run("analyze", env)
        first = {p.name: p.read_bytes() for p in Path(env["out"]).iterdir()}
        run("analyze", env)
        second = {p.name: p.read_bytes() for p in Path(env["out"]).iterdir()}
        assert first == second

    def test_unknown_baseline_exit_2(self, env, capsys):
        assert run("analyze", env, "--baseline-model", "missing-model") == 2
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("error: ")] == [err[-1]]
        # every report is built before the first is written: none is left behind
        assert not Path(env["out"]).exists()

    def test_json_format(self, env):
        assert run("analyze", env, "--format", "json") == 0
        rows = json.loads((Path(env["out"]) / "disagreement.json").read_text())
        assert len(rows) == 6 and "d_concept" in rows[0]


class TestTamper:
    def test_protocol_detects_everything(self, env):
        run("register", env)
        assert run("tamper", env, "-n", "6", "--seed", "7") == 0
        summary = json.loads((Path(env["out"]) / "tamper_summary.json").read_text())
        assert summary == {"seed": 7, "total": 6, "detected": 6, "detection_rate": 1.0}
        rows = read_csv(Path(env["out"]) / "tamper_report.csv")
        assert all(r["verdict"] == "Mismatch" for r in rows)

    def test_same_seed_identical_reports(self, env):
        run("register", env)
        run("tamper", env, "-n", "5", "--seed", "3")
        first = (Path(env["out"]) / "tamper_report.csv").read_bytes()
        run("tamper", env, "-n", "5", "--seed", "3")
        assert (Path(env["out"]) / "tamper_report.csv").read_bytes() == first

    def test_corpus_untouched_without_write_flag(self, env):
        run("register", env)
        before = {p: p.read_bytes() for p in Path(env["corpus"]).rglob("*.json")}
        run("tamper", env, "-n", "6", "--seed", "1")
        after = {p: p.read_bytes() for p in Path(env["corpus"]).rglob("*.json")}
        assert before == after

    def test_write_mode_persists_then_verify_fails(self, env):
        run("register", env)
        assert run("tamper", env, "-n", "3", "--seed", "1", "--write") == 0
        assert run("verify", env) == 1

    def test_unregistered_files_are_outside_the_pool(self, env, capsys, monkeypatch):
        run("register", env)
        extra = Path(env["corpus"]) / "by_slide" / "Lecture 3"
        extra.mkdir()
        (extra / "Slide1.json").write_text("[1, 2]")
        shutil.copy(Path(env["corpus"]) / "by_slide" / "Lecture 1" / "Slide1.json", extra / "Slide2.json")
        opened = _count_reads(monkeypatch)
        capsys.readouterr()
        assert run("tamper", env, "-n", "6", "--seed", "0") == 0
        assert capsys.readouterr().err == ""  # neither opened nor warned about
        assert opened[0] == Path(env["ledger"])
        assert len(opened) == 1 + 6 and extra not in {path.parent for path in opened}
        summary = json.loads((Path(env["out"]) / "tamper_summary.json").read_text())
        assert (summary["total"], summary["detected"]) == (6, 6)
        # the pool is the 6 registered slides, whatever else the layout holds
        assert run("tamper", env, "-n", "7", "--seed", "0") == 2
        assert capsys.readouterr().err == "error: tamper count 7 out of range for 6 registered slides\n"

    def test_opens_only_the_drawn_files(self, env, monkeypatch):
        run("register", env)
        opened = _count_reads(monkeypatch)
        assert run("tamper", env, "-n", "3", "--seed", "4") == 0
        rows = read_csv(Path(env["out"]) / "tamper_report.csv")
        drawn = {(r["lecture_id"], r["slide_id"]) for r in rows}
        # the ledger first, then the drawn slides' files only
        assert len(opened) == 1 + 3 and opened[0] == Path(env["ledger"])
        assert {(path.parent.name.split()[1], path.stem[5:]) for path in opened[1:]} == drawn

    def test_drawn_file_that_no_longer_loads_is_warned_about_with_no_trial(self, env, capsys):
        run("register", env)
        broken = Path(env["corpus"]) / "by_slide" / "Lecture 1" / "Slide2.json"
        broken.write_text("{ not json", encoding="utf-8")
        capsys.readouterr()
        assert run("tamper", env, "-n", "6", "--seed", "0") == 1  # a trial it could not run
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and err[0].startswith(f"warning: skipped {broken}: unparseable: ")
        assert err[1] == "error: (1,2): Missing, no trial run"
        rows = read_csv(Path(env["out"]) / "tamper_report.csv")
        assert len(rows) == 5 and ("1", "2") not in {(r["lecture_id"], r["slide_id"]) for r in rows}
        summary = json.loads((Path(env["out"]) / "tamper_summary.json").read_text())
        assert (summary["total"], summary["detected"]) == (5, 5)

    def test_no_drawn_file_loads_exit_1(self, env, capsys):
        run("register", env)
        for path in sorted(Path(env["corpus"]).rglob("Slide*.json")):
            path.write_text("[1]", encoding="utf-8")
        capsys.readouterr()
        assert run("tamper", env, "-n", "3", "--seed", "0") == 1
        out, err = capsys.readouterr()
        assert out == "tamper protocol: 0/0 detected (rate 1.0000, seed 0)\n"
        lines = err.splitlines()
        warned, errors = lines[:3], lines[3:]
        assert all(line.startswith("warning: skipped ") and line.endswith(": expected a JSON object, got list")
                   for line in warned)
        drawn = [re.search(r"Lecture (\d+)/Slide(\d+)\.json", line).groups() for line in warned]
        assert errors == [f"error: ({lecture},{slide}): Missing, no trial run" for lecture, slide in drawn]
        assert read_csv(Path(env["out"]) / "tamper_report.csv") == []


def _count_reads(monkeypatch) -> list[Path]:
    """The paths ``records.read_json`` is called on from now, in call order."""
    opened: list[Path] = []

    def read_json(path, *known, read=records.read_json):
        opened.append(Path(path))
        return read(path, *known)
    monkeypatch.setattr(records, "read_json", read_json)
    return opened


class TestCompareRuns:
    def test_self_comparison_summary(self, env, tmp_path):
        copy_dir = tmp_path / "run_b"
        shutil.copytree(env["corpus"], copy_dir)
        assert main(["compare-runs", env["corpus"], str(copy_dir), "--out", env["out"]]) == 0
        summary = json.loads((Path(env["out"]) / "compare_summary.json").read_text())
        assert summary["identical"] is True
        assert summary["pairs"] == summary["perfect_pairs"] == 24  # 6 slides x 4 models
        assert summary["byte_equal"] == summary["common_keys"] == 6

    def test_parses_each_file_once_but_the_edited_ones(self, env, tmp_path, monkeypatch):
        run_b = tmp_path / "run_b"
        shutil.copytree(env["corpus"], run_b)
        edited = [run_b / "by_slide" / "Lecture 1" / "Slide2.json",
                  run_b / "by_slide" / "Lecture 2" / "Slide3.json"]
        for path in edited:
            doc = json.loads(path.read_text(encoding="utf-8"))
            doc["models"]["vision-alpha"]["concepts"][0]["term"] += " rerun"
            path.write_text(json.dumps(doc), encoding="utf-8")
        # a slide of run A only, just before a byte-identical one
        (run_b / "by_slide" / "Lecture 2" / "Slide1.json").unlink()
        parsed: list[tuple[str, str]] = []

        def read_json(path, *known, read=records.read_json):
            data, doc = read(path, *known)
            if doc is not records.KNOWN:
                parsed.append((Path(path).parent.name, Path(path).name))
            return data, doc
        monkeypatch.setattr(records, "read_json", read_json)
        assert main(["compare-runs", env["corpus"], str(run_b), "--out", env["out"]]) == 0
        assert len(parsed) == 6 + len(edited)  # run A's files, and run B's edited ones
        # each slide once, whichever run reads it first, and each edited slide once per run
        twice = {(path.parent.name, path.name) for path in edited}
        names = [(path.parent.name, path.name) for path in Path(env["corpus"]).rglob("Slide*.json")]
        assert Counter(parsed) == {name: 1 + (name in twice) for name in names}
        summary = json.loads((Path(env["out"]) / "compare_summary.json").read_text())
        assert (summary["common_keys"], summary["byte_equal"], summary["only_in_a"]) == (5, 3, 1)

    @pytest.mark.filterwarnings("ignore:document ids")
    def test_disjoint_exit_3(self, env, tmp_path):
        other = write_corpus(tmp_path / "other", n_lectures=1, slides_per_lecture=1, seed=5)
        shutil.move(str(other / "by_slide" / "Lecture 1"), str(other / "by_slide" / "Lecture 9"))
        assert main(["compare-runs", env["corpus"], str(other), "--out", env["out"]]) == 3

    def test_merge_gives_what_set_operations_give(self, tmp_path, capsys):
        # run A: the common keys plus odd slides, run B: plus even slides, interleaved in
        # key order; one file of each run fails to load, B's before A's in key order
        common = [(1, 1), (1, 4), (2, 2), (2, 5), (3, 1)]
        extra = {"a": [(1, 3), (2, 1), (2, 7), (4, 1)], "b": [(1, 2), (2, 4), (2, 6), (3, 2)]}
        runs = {name: tmp_path / f"run_{name}" for name in extra}
        for name, root in runs.items():
            for lecture, slide in common + extra[name]:
                doc = synthetic_document(random.Random(lecture * 100 + slide), lecture, slide)
                if name == "b" and (lecture, slide) in ((1, 4), (2, 5)):
                    doc["models"]["vision-beta"]["concepts"][0]["term"] += " rerun"
                path = root / "by_slide" / f"Lecture {lecture}" / f"Slide{slide}.json"
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(json.dumps(doc), encoding="utf-8")
        failing = {"a": runs["a"] / "by_slide" / "Lecture 2" / "Slide9.json",
                   "b": runs["b"] / "by_slide" / "Lecture 1" / "Slide8.json"}
        for path in failing.values():
            path.write_text("[1, 2]")

        a, b = load_corpus(runs["a"]), load_corpus(runs["b"])
        keys = sorted(a.keys() & b.keys())
        pairs = [(key, model) for key in keys
                 for model in sorted(a[key].models.keys() & b[key].models.keys())]
        byte_equal = {key: canonical_bytes(a[key]) == canonical_bytes(b[key]) for key in keys}
        comparison = compare_corpora(*(records.CorpusReader(root).read(normalize_record)
                                       for root in runs.values()))
        assert comparison.only_in_a == sorted(a.keys() - b.keys())
        assert comparison.only_in_b == sorted(b.keys() - a.keys())
        assert [(p.key, p.model) for p in comparison.pairs] == pairs
        assert comparison.byte_equal == byte_equal and list(byte_equal.values()).count(False) == 2

        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["compare-runs", *map(str, runs.values()), "--out", str(out)]) == 0
        summary = json.loads((out / "compare_summary.json").read_text())
        assert (summary["only_in_a"], summary["only_in_b"], summary["pairs"], summary["byte_equal"]) == (
            len(a.keys() - b.keys()), len(b.keys() - a.keys()), len(pairs), sum(byte_equal.values()))
        rows = read_csv(out / "compare_runs.csv")
        assert [((int(r["lecture_id"]), int(r["slide_id"])), r["model"]) for r in rows] == [
            ((key.lecture_id, key.slide_id), model) for key, model in pairs]
        warned = [f"warning: skipped {failing[name]}: expected a JSON object, got list" for name in "ab"]
        assert capsys.readouterr().err.splitlines() == warned

        # no common key: still DisjointCorpora, after both runs' warnings
        for lecture, slide in common:
            (runs["b"] / "by_slide" / f"Lecture {lecture}" / f"Slide{slide}.json").unlink()
        assert main(["compare-runs", *map(str, runs.values()), "--out", str(tmp_path / "out2")]) == 3
        assert capsys.readouterr().err.splitlines() == [*warned, "error: runs share no slide keys"]


class TestTimeGaps:
    def test_manifest_gaps(self, env):
        run("register", env)
        manifest = env["tmp"] / "times.json"
        entries = [
            {"lecture_id": lecture, "slide_id": slide, "t_local": -3300 + rank}
            for rank, (lecture, slide) in enumerate(
                [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)], start=1
            )
        ]
        manifest.write_text(json.dumps(entries), encoding="utf-8")
        assert run("time-gaps", env, "--manifest", str(manifest)) == 0
        summary = json.loads((Path(env["out"]) / "time_gap_summary.json").read_text())
        # chain timestamps are 1..6 and local times are rank-3300, so every gap is 3300
        assert summary["mean"] == 3300.0
        assert summary["stddev"] == 0.0
        assert summary["anomalies"] == 0

    def test_mtime_mode_runs(self, env):
        run("register", env)
        assert run("time-gaps", env) == 0
        rows = read_csv(Path(env["out"]) / "time_gaps.csv")
        assert len(rows) == 6


class TestProject:
    def test_table_matches_module(self, env):
        assert main(["project", "-n", "1000000", "--out", env["out"]]) == 0
        rows = read_csv(Path(env["out"]) / "projections.csv")
        by_network = {r["network"]: r for r in rows}
        assert by_network["ethereum-l1"]["total_gas"] == "231430000000"
        assert by_network["ethereum-l1"]["eth"] == "6942.9"
        assert by_network["ethereum-l1"]["usd"] == "20828700"
        assert by_network["optimistic-l2"]["eth"] == "231.43"
        assert by_network["ethereum-l1"]["seconds"] == "1000000"

    def test_custom_profiles(self, env, tmp_path):
        profiles = tmp_path / "profiles.json"
        profiles.write_text(json.dumps([{"name": "devnet", "gas_price_gwei": 2}]))
        assert main(["project", "-n", "10", "--profiles", str(profiles),
                     "--out", env["out"]]) == 0
        rows = read_csv(Path(env["out"]) / "projections.csv")
        assert [r["network"] for r in rows] == ["devnet"]


    @pytest.mark.parametrize("flag, value, spelling", [
        *(pytest.param("eth-usd", "3000", rate, id=rate)
          for rate in ["6000/2", "3000.0", "3e3", " 3000 ", "3000/1"]),
        *(pytest.param("throughput", "3", speed, id=f"throughput-{speed}")
          for speed in ["6/2", "3.0", "3e0"]),
    ])
    def test_eth_usd_spellings_give_one_table(self, env, flag, value, spelling):
        # register's grammar: every spelling of a number gives the bytes of its plain form
        reference = env["tmp"] / "reference"
        assert main(["project", f"--{flag}", value, "--out", str(reference)]) == 0
        assert main(["project", f"--{flag}={spelling}", "--out", env["out"]]) == 0
        written = (Path(env["out"]) / "projections.csv").read_bytes()
        assert written == (reference / "projections.csv").read_bytes()


# Each name of a variable the command line once read, set to a value that changed a run or
# failed it, and the names the flags that never had one would give: a run reads none of them.
IGNORED_VARIABLES = {
    "CORPUS": "{tmp}/elsewhere", "LEDGER": "{tmp}/missing/ledger.json", "OUT": "{tmp}/elsewhere",
    "FORMAT": "xml", "SEED": "abc", "ETH_USD": "-1", "BASE_FEE_GWEI": "0", "TIP_GWEI": "abc",
    "BLOCK_INTERVAL": "abc", "GAS_EXEC_BASE": "1.5", "BASELINE_MODEL": "no-such-model",
    "MANIFEST": "{tmp}/missing.json", "PROFILES": "{tmp}/missing.json",
    "COUNT": "abc", "MEAN_GAS": "abc", "THROUGHPUT": "abc", "SKIP_EXISTING": "1", "WRITE": "1",
}
# every command and its exit code, with only the flags a run cannot do without; --ledger and --out
# keep their defaults, and a second register exits 1 unless something turns on --skip-existing
DEFAULT_RUNS = [(["register", "--corpus", "{corpus}"], 0), (["register", "--corpus", "{corpus}"], 1),
                (["verify", "--corpus", "{corpus}"], 0), (["analyze", "--corpus", "{corpus}"], 0),
                (["tamper", "--corpus", "{corpus}"], 0), (["compare-runs", "{corpus}", "{corpus}"], 0),
                (["time-gaps", "--corpus", "{corpus}"], 0), (["project"], 0)]


def test_no_environment_variable_changes_a_run(tmp_path, monkeypatch, capsys):
    corpus = write_corpus(tmp_path / "corpus", n_lectures=4, slides_per_lecture=5)  # tamper's 20 slides

    def session(cwd, variables):
        """Each command's (exit code, stdout, stderr) in ``cwd``, then the bytes of every file left there."""
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        for name, value in variables.items():
            monkeypatch.setenv(f"SLIDEPROV_{name}", value.format(tmp=tmp_path))
        outcomes = []
        for argv, _ in DEFAULT_RUNS:
            code = main([arg.format(corpus=corpus) for arg in argv])
            outcomes.append((argv[0], code, *capsys.readouterr()))
        return outcomes, {str(path.relative_to(cwd)): path.read_bytes() for path in sorted(cwd.rglob("*"))
                          if path.is_file()}

    plain = session(tmp_path / "plain", {})
    assert [code for _, code, *_ in plain[0]] == [code for _, code in DEFAULT_RUNS], plain[0]
    assert session(tmp_path / "set", IGNORED_VARIABLES) == plain
    assert not (tmp_path / "elsewhere").exists()

    monkeypatch.setenv("SLIDEPROV_CORPUS", str(corpus))
    with pytest.raises(SystemExit) as excinfo:
        main(["analyze"])
    assert excinfo.value.code == 2 and "--corpus" in capsys.readouterr().err
    monkeypatch.setenv("SLIDEPROV_FORMAT", "csv")
    with pytest.raises(SystemExit) as excinfo:
        main(["register", "--corpus", str(corpus), "--ledger", "new.json", "--format", "xml"])
    assert excinfo.value.code == 2 and "--format" in capsys.readouterr().err
    assert not Path("new.json").exists()


# flags whose names would give a SLIDEPROV_* variable: (command, that variable's suffix)
NO_ENV_FLAGS = [
    ("tamper", "COUNT"),
    ("project", "COUNT"),
    ("project", "MEAN_GAS"),
    ("project", "THROUGHPUT"),
    ("register", "SKIP_EXISTING"),
    ("tamper", "WRITE"),
]


def parsed_defaults(command: str) -> dict:
    argv = [command] if command == "project" else [command, "--corpus", "corpus"]
    return vars(build_parser().parse_args(argv))


class TestEnvironmentOverrides:
    @pytest.fixture(autouse=True)
    def no_variables(self, monkeypatch):
        for name in [n for n in os.environ if n.startswith("SLIDEPROV_")]:
            monkeypatch.delenv(name)

    @pytest.mark.parametrize("command, variable", [
        pytest.param(*case, id="-".join(case)) for case in NO_ENV_FLAGS])
    def test_flag_reads_no_variable(self, monkeypatch, command, variable):
        without = parsed_defaults(command)
        monkeypatch.setenv(f"SLIDEPROV_{variable}", "3")
        assert parsed_defaults(command) == without


def test_write_reports_rejects_unknown_format(tmp_path):
    # the parser checks --format; a library caller gets the same refusal, not JSON
    with pytest.raises(ValueError, match="unknown report format 'xml'"):
        write_reports(tmp_path / "out", {"t": Table(["a"], [[1]]), "s": {"a": 1}}, "xml")
    assert not (tmp_path / "out").exists()


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["register"])  # --corpus missing
    assert excinfo.value.code == 2
