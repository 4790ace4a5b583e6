"""README's "Report files" table is the column spec of every report.

Each command runs once on a small corpus; the files it writes must be the
ones its row lists, and each listed column list must be the header of the
CSV file the command wrote.  A Jaccard matrix, listed without columns, is
headed ``model`` and then each model's name.
"""

import csv
import re
from pathlib import Path

import pytest

from conftest import MODEL_NAMES, run_cli, write_corpus

README = Path(__file__).resolve().parent.parent / "README.md"
MATRICES = {"jaccard_concepts", "jaccard_triples"}


def report_files_table() -> dict[str, dict[str, list[str] | None]]:
    """Each command's listed files: a tabular report's columns, None for a matrix; a ``.json`` file by its name."""
    section = README.read_text(encoding="utf-8").split("### Report files", 1)[1].split("\n\n", 2)[1]
    table = {}
    for row in section.splitlines()[2:]:
        command, files = (cell.strip() for cell in row.strip("|").split("|"))
        table[command] = {}
        for name, listed in re.findall(r"`([\w.]+)`(?: \(([^)]*)\))?", files):
            columns = listed.split(", ") if re.fullmatch(r"\w+(, \w+)*", listed) else None
            table[command][name] = columns
    return table


TABLE = report_files_table()


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """Each command's --out directory after one run on a 6-slide corpus."""
    tmp = tmp_path_factory.mktemp("columns")
    corpus = str(write_corpus(tmp / "corpus"))
    ledger = str(tmp / "ledger.json")
    runs = {
        "register": ["--corpus", corpus, "--ledger", ledger],
        "verify": ["--corpus", corpus, "--ledger", ledger],
        "analyze": ["--corpus", corpus],
        "tamper": ["--corpus", corpus, "--ledger", ledger, "-n", "2"],
        "compare-runs": [corpus, corpus],
        "time-gaps": ["--corpus", corpus, "--ledger", ledger],
        "project": ["-n", "1000"],
    }
    for command, argv in runs.items():
        code, _, err = run_cli([command, *argv, "--out", str(tmp / command)])
        assert code == 0, (command, err)
    return {command: tmp / command for command in runs}


def test_the_table_lists_every_command():
    assert sorted(TABLE) == ["analyze", "compare-runs", "project", "register", "tamper", "time-gaps", "verify"]


@pytest.mark.parametrize("command", sorted(TABLE))
def test_each_listed_column_list_is_the_header_written(written, command):
    listed = TABLE[command]
    out = written[command]
    tabular = {name: columns for name, columns in listed.items() if not name.endswith(".json")}
    assert sorted(path.name for path in out.iterdir()) == sorted(
        [f"{name}.csv" for name in tabular] + [name for name in listed if name.endswith(".json")])
    for name, columns in tabular.items():
        with open(out / f"{name}.csv", newline="", encoding="utf-8") as fh:
            header = next(csv.reader(fh))
        if columns is None:
            assert name in MATRICES, f"{command}: {name} is listed without columns"
            assert header == ["model", *sorted(MODEL_NAMES)]
        else:
            assert header == columns, (command, name)
