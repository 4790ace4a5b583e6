"""A command imports only the modules it runs.

Each command runs in a fresh interpreter, which then lists the
``slideprov.*`` modules it loaded, and ``statistics`` if it did: an
in-process test cannot see an import that another test happened to make
first.  ``import slideprov`` alone
loads no submodule; its public names resolve on first use to the objects
of their home modules.  No module imports ``dataclasses``, whose import
pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``.

Neither numpy nor hypothesis is needed, and the package is found where the
test process finds it, installed or on ``PYTHONPATH``.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import slideprov
from conftest import run_cli, write_corpus

PACKAGE = Path(slideprov.__file__).resolve().parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")
# the modules run() reports, whatever else the command loads: the package's by their short names, and statistics
LISTED = ("sorted(m.split('.')[1] if m.startswith('slideprov.') else m for m in sys.modules"
          " if m.startswith('slideprov.') or m == 'statistics')")


def run(code: str, *args: str) -> list[str]:
    """The ``slideprov.*`` modules a fresh interpreter holds after ``code``, which may read ``args``."""
    paths = [str(PACKAGE.parent), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    done = subprocess.run([sys.executable, "-c", f"import json, sys\n{code}\nprint(json.dumps({LISTED}))", *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("startup")
    corpus, ledger = write_corpus(tmp / "corpus"), tmp / "ledger.json"
    code, _, err = run_cli(["register", "--corpus", str(corpus), "--ledger", str(ledger), "--out", str(tmp / "r")])
    assert code == 0, err
    return tmp, corpus, ledger


# command -> modules it must not load; only the metrics of analyze and compare-runs need statistics
NOT_LOADED = {
    "register": {"integrity", "metrics", "projection", "statistics"},
    "verify": {"metrics", "projection", "statistics"},
    "analyze": {"commitment", "integrity", "projection"},
    "tamper": {"metrics", "projection", "statistics"},
    "compare-runs": {"projection"},
    "time-gaps": {"metrics", "projection", "statistics"},
    "project": {"commitment", "integrity", "metrics", "statistics"},
}


@pytest.mark.parametrize("command", sorted(NOT_LOADED))
def test_command_loads_only_what_it_runs(workspace, command):
    tmp, corpus, ledger = workspace
    argv = {
        "register": ["--corpus", corpus, "--ledger", ledger, "--skip-existing"],
        "verify": ["--corpus", corpus, "--ledger", ledger],
        "analyze": ["--corpus", corpus],
        "tamper": ["-n", "2", "--corpus", corpus, "--ledger", ledger],
        "compare-runs": [corpus, corpus],
        "time-gaps": ["--corpus", corpus, "--ledger", ledger],
        "project": [],
    }[command]
    loaded = run("from slideprov.cli import main\nassert main(sys.argv[1:]) == 0",
                 command, *map(str, argv), "--out", str(tmp / command))
    assert "cli" in loaded
    assert not NOT_LOADED[command] & set(loaded), loaded
    assert ("projection" in loaded) == (command == "project")


def test_package_import_loads_no_submodule():
    assert run("import slideprov") == []


def test_every_public_name_is_its_home_modules_object():
    modules = [vars(importlib.import_module(f"slideprov.{name}")) for name in MODULES]
    assert len(set(slideprov.__all__)) == 87  # the names exported before they were lazy, less Concept, Triple and Commitment
    for name in slideprov.__all__:
        held = [module[name] for module in modules if name in module]  # by its home, and by importers
        assert held and all(value is getattr(slideprov, name) for value in held), name
    assert set(slideprov.__all__) <= set(dir(slideprov))
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        slideprov.not_a_name  # noqa: B018


def test_lazy_names_load_their_module_on_first_use():
    assert run("from slideprov import SlideKey") == ["errors", "records"]
    assert run("import slideprov\nslideprov.__all__, dir(slideprov)") == []


def test_no_module_imports_dataclasses():
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            assert "dataclasses" not in names, f"{path.name}:{node.lineno}"
