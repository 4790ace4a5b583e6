"""The CLI run as its own process: what it loads and what reaches stderr.

No command needs numpy, hashing ones included: each must run, and write
the same ledger, reports and stdout, in an interpreter where numpy cannot
be imported.  A ``ProvenanceWarning`` reaches stderr as one
``warning: <message>`` line, with no source path in it.
"""

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

from conftest import run_cli, synthetic_document, write_corpus

SRC = Path(__file__).resolve().parent.parent / "src"
# sys.modules[name] = None makes every later import of name raise ImportError
WITHOUT_NUMPY = ("import sys; sys.modules['numpy'] = None;"
                 " from slideprov.cli import main; sys.exit(main(sys.argv[1:]))")


def run_process(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONWARNINGS", None)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def report_bytes(out: Path) -> dict[str, bytes]:
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def test_commands_run_without_numpy(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_corpus(Path("corpus"), n_lectures=2, slides_per_lecture=3)
    shutil.copytree("corpus", "rerun")
    Path("rerun/by_slide/Lecture 2/Slide3.json").unlink()
    shutil.copytree("corpus", "grown")
    Path("grown/by_slide/Lecture 2/Slide4.json").write_text(
        json.dumps(synthetic_document(random.Random(4), 2, 4)), encoding="utf-8")
    Path("times.json").write_text(json.dumps(
        [{"lecture_id": l, "slide_id": s, "t_local": s - l} for l in (1, 2) for s in (1, 2, 3)]))
    code, _, err = run_cli(["register", "--corpus", "corpus", "--ledger", "ledger.json",
                            "--out", "registered"])
    assert code == 0, err
    # Each command runs in a directory of its own that starts with a copy of
    # the registered ledger, once in a process without numpy and once in this
    # one; the two directories must then hold the same bytes.
    commands = {
        "register": ["register", "--corpus", "../../corpus", "--ledger", "new-ledger.json"],
        "register-skip-existing": ["register", "--corpus", "../../grown", "--skip-existing"],
        "verify": ["verify", "--corpus", "../../corpus"],
        "tamper": ["tamper", "--corpus", "../../corpus", "-n", "2"],
        "analyze": ["analyze", "--corpus", "../../corpus"],
        "compare-runs": ["compare-runs", "../../corpus", "../../rerun"],
        "time-gaps": ["time-gaps", "--corpus", "../../corpus", "--manifest", "../../times.json"],
        "project": ["project", "-n", "1000"],
    }
    for name, argv in commands.items():
        blocked, in_process = tmp_path / "blocked" / name, tmp_path / "in-process" / name
        for work in (blocked, in_process):
            work.mkdir(parents=True)
            shutil.copy("ledger.json", work)
        proc = run_process(["-c", WITHOUT_NUMPY, *argv], blocked)
        assert proc.returncode == 0, (name, proc.stderr)
        monkeypatch.chdir(in_process)
        assert run_cli(argv)[:2] == (0, proc.stdout), name
        monkeypatch.chdir(tmp_path)
        written = report_bytes(blocked)
        assert any(path.startswith("reports/") for path in written), name
        assert written == report_bytes(in_process), name
    # --skip-existing registered the added slide, hashing it alone
    assert Path("blocked/register-skip-existing/ledger.json").read_bytes() != Path("ledger.json").read_bytes()


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
