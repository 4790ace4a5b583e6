import csv
import json
import os
import shutil
import stat
from pathlib import Path

import pytest

from conftest import write_corpus
from slideprov.cli import main


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

    def test_unknown_baseline_exit_2(self, env):
        assert run("analyze", env, "--baseline-model", "missing-model") == 2

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

    def test_unregistered_corpus_exit_1(self, env):
        run("register", env)
        extra = Path(env["corpus"]) / "by_slide" / "Lecture 2" / "Slide9.json"
        src = Path(env["corpus"]) / "by_slide" / "Lecture 1" / "Slide1.json"
        doc = json.loads(src.read_text(encoding="utf-8"))
        doc["lecture"], doc["slide_id"] = "Lecture 2", 9
        extra.write_text(json.dumps(doc), encoding="utf-8")
        assert run("tamper", env, "-n", "2", "--seed", "0") == 1


class TestCompareRuns:
    def test_self_comparison_summary(self, env, tmp_path):
        copy_dir = tmp_path / "run_b"
        shutil.copytree(env["corpus"], copy_dir)
        assert main(["compare-runs", env["corpus"], str(copy_dir), "--out", env["out"]]) == 0
        summary = json.loads((Path(env["out"]) / "compare_summary.json").read_text())
        assert summary["identical"] is True
        assert summary["pairs"] == summary["perfect_pairs"] == 24  # 6 slides x 4 models
        assert summary["byte_equal"] == summary["common_keys"] == 6

    @pytest.mark.filterwarnings("ignore:document ids")
    def test_disjoint_exit_3(self, env, tmp_path):
        other = write_corpus(tmp_path / "other", n_lectures=1, slides_per_lecture=1, seed=5)
        shutil.move(str(other / "by_slide" / "Lecture 1"), str(other / "by_slide" / "Lecture 9"))
        assert main(["compare-runs", env["corpus"], str(other), "--out", env["out"]]) == 3


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


    @pytest.mark.parametrize("rate", ["6000/2", "3000.0", "3e3", " 3000 ", "3000/1"])
    def test_eth_usd_spellings_give_one_table(self, env, rate):
        # register's grammar: every spelling of 3000 gives the bytes of --eth-usd 3000
        reference = env["tmp"] / "reference"
        assert main(["project", "--eth-usd", "3000", "--out", str(reference)]) == 0
        assert main(["project", f"--eth-usd={rate}", "--out", env["out"]]) == 0
        written = (Path(env["out"]) / "projections.csv").read_bytes()
        assert written == (reference / "projections.csv").read_bytes()


class TestEnvironmentOverrides:
    def test_seed_from_environment(self, env, monkeypatch):
        run("register", env)
        monkeypatch.setenv("SLIDEPROV_SEED", "11")
        run("tamper", env, "-n", "4")
        summary = json.loads((Path(env["out"]) / "tamper_summary.json").read_text())
        assert summary["seed"] == 11

    def test_out_from_environment(self, env, monkeypatch):
        alt = str(env["tmp"] / "alt_reports")
        monkeypatch.setenv("SLIDEPROV_OUT", alt)
        assert main(["analyze", "--corpus", env["corpus"]]) == 0
        assert (Path(alt) / "disagreement.csv").exists()


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["register"])  # --corpus missing
    assert excinfo.value.code == 2
