"""The CI job ``no-extras`` installs pytest alone, so its test files must run without numpy or hypothesis.

Its pytest list is kept by hand in ``.github/workflows/tests.yml``.  Each
listed file must exist and import neither, directly or through a local
test module it imports (``conftest``, ``oracle_metrics``,
``keccak_reference``, ``test_golden`` and so on), at module level or
inside a function.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = ROOT / "tests"
EXTRAS = {"numpy", "hypothesis"}


def no_extras_files() -> list[str]:
    """The test files of the ``no-extras`` job's pytest line."""
    job = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8").split("\n  no-extras:\n", 1)[1]
    [line] = re.findall(r"run: python -m pytest -q (.+)", job)
    return line.split()


def imported(path: Path) -> set[str]:
    """The top-level names of the modules ``path`` imports anywhere in it."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def reached(path: Path) -> set[str]:
    """What ``path`` imports, with all that the local modules it imports, from its own directory, import."""
    seen, todo, names = set(), [path], set()
    while todo:
        module = todo.pop()
        if module in seen:
            continue
        seen.add(module)
        for name in imported(module):
            names.add(name)
            if (path.parent / f"{name}.py").exists():
                todo.append(path.parent / f"{name}.py")
    return names


def test_every_listed_file_exists_and_imports_no_extra():
    files = no_extras_files()
    assert files and all(name.startswith("tests/test_") and name.endswith(".py") for name in files), files
    for name in files:
        path = ROOT / name
        assert path.exists(), name
        modules = reached(path) | reached(TESTS / "conftest.py")  # pytest loads conftest.py for every file
        assert not modules & EXTRAS, (name, sorted(modules & EXTRAS))


def test_the_check_sees_an_import_through_a_local_module(tmp_path):
    (tmp_path / "test_a.py").write_text("from helper import f\nimport slideprov.cli\n", encoding="utf-8")
    (tmp_path / "helper.py").write_text("import json\n\ndef f():\n    import numpy.linalg\n", encoding="utf-8")
    assert imported(tmp_path / "test_a.py") == {"helper", "slideprov"}
    assert reached(tmp_path / "test_a.py") == {"helper", "slideprov", "json", "numpy"}
    assert "hypothesis" in reached(TESTS / "test_compare_reuse.py")
