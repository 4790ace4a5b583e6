"""The names of the package that the benchmark's span tracer reads.

``perfbench/tracer.py`` wraps the package's public functions and methods,
and its ``HOOKS`` add counters from the spans of a few of them by name:
``ledger.saved_slides`` counts ``len(ledger.records)`` in ``Ledger.save``,
and ``reports.files`` (which the traced benchmark run requires to be above
0) counts the calls of ``reports.write_csv`` and ``reports.write_json``.
A renamed function or attribute would leave its counter at 0 or raise in
the traced run only; so would a command that stops calling the function a
per-layer figure is named after, as ``analyze`` once did with
``metrics.corpus_disagreement``.  The tracer file is imported here as it is.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

from conftest import run_cli, write_corpus
from slideprov import Ledger, metrics

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owner(span: str) -> tuple[object, str]:
    """The module or class that holds the function a span is named after, and its attribute name."""
    layer, *path, attr = span.split(".")
    owner = importlib.import_module(f"slideprov.{layer}")
    for name in path:
        owner = getattr(owner, name)
    return owner, attr


def test_every_hooked_span_names_a_function_of_the_package():
    tracer = _tracer()
    assert "ledger.Ledger.save" in tracer.HOOKS and "reports.write_csv" in tracer.HOOKS
    for span in tracer.HOOKS:
        assert span.split(".")[0] in tracer.LAYERS, span
        owner, attr = _owner(span)
        function = vars(owner).get(attr)  # the tracer wraps what the module or class itself defines
        assert inspect.isfunction(function), span
        assert function.__module__ == f"slideprov.{span.split('.')[0]}", span


def test_the_hooks_count_the_saved_events_and_the_reports_written(tmp_path, monkeypatch):
    root = write_corpus(tmp_path / "corpus", n_lectures=2, slides_per_lecture=3)
    ledger_path = tmp_path / "ledger.json"
    assert run_cli(["register", "--corpus", str(root), "--ledger", str(ledger_path),
                    "--out", str(tmp_path / "first")])[0] == 0
    write_corpus(tmp_path / "more", n_lectures=3, slides_per_lecture=3)
    (tmp_path / "more" / "by_slide" / "Lecture 3").rename(root / "by_slide" / "Lecture 3")

    module = _tracer()
    tracer = module.Tracer()
    for span in module.HOOKS:
        owner, attr = _owner(span)
        monkeypatch.setattr(owner, attr, tracer.wrap(span, getattr(owner, attr)))
    out = tmp_path / "out"
    assert run_cli(["register", "--corpus", str(root), "--ledger", str(ledger_path), "--skip-existing",
                    "--out", str(out)])[0] == 0

    events = json.loads(ledger_path.read_bytes())["events"]
    assert tracer.counters["ledger.saved_slides"] == len(Ledger.load(ledger_path).records) == len(events) == 9
    assert tracer.counters["ledger.file_bytes"] == ledger_path.stat().st_size
    assert tracer.counters["reports.files"] == len(list(out.iterdir())) == 3


def test_analyze_calls_the_traced_per_slide_pass(tmp_path, monkeypatch):
    root = write_corpus(tmp_path / "corpus", n_lectures=2, slides_per_lecture=3)  # one process: under 64 files
    tracer = _tracer().Tracer()
    span = "metrics.corpus_disagreement"
    monkeypatch.setattr(metrics, "corpus_disagreement", tracer.wrap(span, metrics.corpus_disagreement))
    assert run_cli(["analyze", "--corpus", str(root), "--out", str(tmp_path / "out")])[0] == 0
    assert list(tracer.ids).count(tracer.names.index(span)) >= 1
