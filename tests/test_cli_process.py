"""The CLI run as its own process: what it loads and what reaches stderr.

numpy serves only batched Keccak hashing, so the commands that hash no
batch must run, and write the same reports, in an interpreter where numpy
cannot be imported.  A ``ProvenanceWarning`` reaches stderr as one
``warning: <message>`` line, with no source path in it.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from conftest import run_cli, write_corpus

SRC = Path(__file__).resolve().parent.parent / "src"
# sys.modules[name] = None makes every later import of name raise ImportError
WITHOUT_NUMPY = ("import sys; sys.modules['numpy'] = None;"
                 " from slideprov.cli import main; sys.exit(main(sys.argv[1:]))")


def run_process(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for name in [n for n in env if n.startswith("SLIDEPROV_") or n == "PYTHONWARNINGS"]:
        del env[name]
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def report_bytes(out: Path) -> dict[str, bytes]:
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def test_commands_run_without_numpy(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_corpus(Path("corpus"), n_lectures=2, slides_per_lecture=3)
    shutil.copytree("corpus", "rerun")
    Path("rerun/by_slide/Lecture 2/Slide3.json").unlink()
    Path("times.json").write_text(json.dumps(
        [{"lecture_id": l, "slide_id": s, "t_local": s - l} for l in (1, 2) for s in (1, 2, 3)]))
    code, _, err = run_cli(["register", "--corpus", "corpus", "--ledger", "ledger.json",
                            "--out", "registered"])
    assert code == 0, err
    commands = {
        "analyze": ["analyze", "--corpus", "corpus"],
        "compare-runs": ["compare-runs", "corpus", "rerun"],
        "time-gaps": ["time-gaps", "--corpus", "corpus", "--ledger", "ledger.json",
                      "--manifest", "times.json"],
        "project": ["project", "-n", "1000"],
    }
    for name, argv in commands.items():
        proc = run_process(["-c", WITHOUT_NUMPY, *argv, "--out", f"blocked/{name}"], tmp_path)
        assert proc.returncode == 0, (name, proc.stderr)
        assert run_cli([*argv, "--out", f"in-process/{name}"])[0] == 0
        blocked = report_bytes(Path("blocked", name))
        assert blocked and blocked == report_bytes(Path("in-process", name)), name


def test_provenance_warning_is_one_line(tmp_path):
    write_corpus(tmp_path / "a", n_lectures=1, slides_per_lecture=2)
    shutil.copytree(tmp_path / "a", tmp_path / "b")
    slide = tmp_path / "b" / "by_slide" / "Lecture 1" / "Slide1.json"
    doc = json.loads(slide.read_text(encoding="utf-8"))
    del doc["models"][sorted(doc["models"])[0]]
    slide.write_text(json.dumps(doc), encoding="utf-8")

    proc = run_process(["-m", "slideprov.cli", "compare-runs", "a", "b", "--out", "out"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == [
        "warning: 1 (slide, model) pairs present in only one run;"
        " reported separately, excluded from similarity counts"]
    assert ".py:" not in proc.stderr
