"""Span tracing for one ``slideprov`` command process, and its per-layer sums.

Run as ``python3 tracer.py SPANS_FILE [slideprov arguments...]``.  Before it
calls ``slideprov.cli.main`` it wraps every public function and every
public method of the package's modules.  Each call then records a span
(name, start, end, parent) in flat integer arrays; a few spans also add to
counters (bytes hashed, files loaded, bytes written).  Spans stay in
memory and are written out when the command ends: ``SPANS_FILE`` gets the
arrays and ``SPANS_FILE.json`` the names, counters and timing of main.

``layer_metrics`` in the benchmark process reads those files back and
derives the per-layer figures, including each layer's self time: its
spans' time minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from array import array
from pathlib import Path

LAYERS = ("records", "keccak", "commitment", "ledger", "integrity", "metrics", "reports", "cli")
COMMANDS = ("register", "verify", "analyze", "compare-runs", "tamper", "time-gaps")
_RATE = 136  # Keccak-256 rate in bytes: one permutation per started block


def _keccak(args, result):
    n = len(args[0])
    return {"keccak.bytes": n, "keccak.permutations": n // _RATE + 1}


def _load_corpus(args, result):
    return {"records.files_loaded": len(result.records) + len(result.failures),
            "records.slide_models": sum(len(r.models) for r in result.records.values())}


def _save(args, result):
    return {"ledger.file_bytes": os.path.getsize(args[1]), "ledger.saved_slides": len(args[0].records)}


def _report(args, result):
    return {"reports.files": 1, "reports.bytes": os.path.getsize(result)}


# span name -> counters to add from (args, result) after a call returns
HOOKS = {
    "keccak.keccak256": _keccak,
    "records.canonical_bytes": lambda args, result: {"records.canonical_bytes": len(result)},
    "records.load_corpus": _load_corpus,
    "ledger.Ledger.save": _save,
    "reports.write_csv": _report,
    "reports.write_json": _report,
    "integrity.local_mtimes": lambda args, result: {"integrity.listed": len(result)},
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.ids = array("q")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.stack = [-1]
        self.counters: dict[str, int] = {}

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        ids, parents, starts, ends, stack = self.ids, self.parents, self.starts, self.ends, self.stack
        counters = self.counters
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(ids)
            ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if hook is not None:
                for counter, amount in hook(args, result).items():
                    counters[counter] = counters.get(counter, 0) + amount
            return result

        return traced

    def install(self) -> None:
        """Wrap public functions and methods, then rebind every imported name."""
        modules = {layer: importlib.import_module(f"slideprov.{layer}") for layer in LAYERS}
        replaced: dict[int, object] = {}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    replaced[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
                elif (inspect.isclass(obj) and obj.__module__ == module.__name__
                      and not issubclass(obj, BaseException)):
                    self._wrap_methods(layer, obj)
        for module in [sys.modules["slideprov"], *modules.values()]:
            for attr, obj in list(vars(module).items()):
                if id(obj) in replaced:
                    setattr(module, attr, replaced[id(obj)])

    def _wrap_methods(self, layer: str, cls: type) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(obj, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, obj.__func__)))
            elif isinstance(obj, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(name, obj.__func__)))
            elif inspect.isfunction(obj):
                setattr(cls, attr, self.wrap(name, obj))

    def dump(self, path: Path, meta: dict) -> None:
        with open(path, "wb") as fh:
            for column in (self.ids, self.parents, self.starts, self.ends):
                column.tofile(fh)
        meta = dict(meta, names=self.names, counters=self.counters, spans=len(self.ids))
        Path(f"{path}.json").write_text(json.dumps(meta), encoding="utf-8")


def main() -> int:
    spans_file, argv = Path(sys.argv[1]), sys.argv[2:]
    import slideprov.cli

    install_start = time.perf_counter_ns()
    tracer = Tracer()
    tracer.install()
    install_ns = time.perf_counter_ns() - install_start
    main_start = time.time_ns()
    code = 1
    try:
        code = slideprov.cli.main(argv)
    finally:
        tracer.dump(spans_file, {"main_start_ns": main_start, "install_ns": install_ns})
    return code


# --------------------------------------------------------------------------
# aggregation, in the benchmark process


class Totals:
    """Sums over every traced command of a run."""

    def __init__(self) -> None:
        self.time_ns: dict[str, int] = {}        # span name -> summed duration
        self.calls: dict[str, int] = {}          # span name -> span count
        self.outer_ns: dict[str, int] = {}       # layer -> time in spans entered from another layer
        self.self_ns: dict[str, int] = {}        # layer -> self time
        self.counters: dict[str, int] = {}
        self.command_ns: dict[str, int] = {}     # cli command -> time in main
        self.startup_ns = 0
        self.lookup_hashes = 0                   # storage keys hashed inside a lookup
        self.listing_normalized = 0              # records normalized inside local_mtimes

    def add(self, spans_file: Path, command: str, spawn_ns: int) -> None:
        import numpy as np

        meta_file = Path(f"{spans_file}.json")
        meta = json.loads(meta_file.read_text(encoding="utf-8"))
        n = meta["spans"]
        columns = np.fromfile(spans_file, dtype=np.int64).reshape(4, n)
        spans_file.unlink()
        meta_file.unlink()
        ids, parents, starts, ends = columns
        names = meta["names"]
        layer_of = np.array([LAYERS.index(name.split(".")[0]) for name in names], dtype=np.int64)
        duration = ends - starts

        time_by_name = np.bincount(ids, weights=duration, minlength=len(names))
        calls_by_name = np.bincount(ids, minlength=len(names))
        for name_id in calls_by_name.nonzero()[0]:
            name = names[name_id]
            self.time_ns[name] = self.time_ns.get(name, 0) + int(time_by_name[name_id])
            self.calls[name] = self.calls.get(name, 0) + int(calls_by_name[name_id])

        has_parent = parents >= 0
        child_ns = np.bincount(parents[has_parent], weights=duration[has_parent], minlength=n)
        span_layer = layer_of[ids]
        parent_layer = np.where(has_parent, span_layer[np.maximum(parents, 0)], -1)
        self_by_layer = np.bincount(span_layer, weights=duration - child_ns, minlength=len(LAYERS))
        outer = span_layer != parent_layer
        outer_by_layer = np.bincount(span_layer[outer], weights=duration[outer], minlength=len(LAYERS))
        for i, layer in enumerate(LAYERS):
            self.self_ns[layer] = self.self_ns.get(layer, 0) + int(self_by_layer[i])
            self.outer_ns[layer] = self.outer_ns.get(layer, 0) + int(outer_by_layer[i])

        self.lookup_hashes += _inside(names, ids, parents, "commitment.storage_key",
                                      {"ledger.Ledger.get_slide", "ledger.Ledger.is_registered"})
        self.listing_normalized += _inside(names, ids, parents, "records.normalize_record",
                                           {"integrity.local_mtimes"})
        for counter, amount in meta["counters"].items():
            self.counters[counter] = self.counters.get(counter, 0) + amount
        main_ns = int(duration[ids == names.index("cli.main")].sum())
        self.command_ns[command] = self.command_ns.get(command, 0) + main_ns
        self.startup_ns += meta["main_start_ns"] - spawn_ns - meta["install_ns"]


def _inside(names: list[str], ids, parents, name: str, ancestors: set[str]) -> int:
    """How many spans called ``name`` have an ancestor among ``ancestors``."""
    if name not in names:
        return 0
    wanted = {names.index(a) for a in ancestors if a in names}
    count = 0
    for index in (ids == names.index(name)).nonzero()[0]:
        parent = parents[index]
        while parent >= 0 and ids[parent] not in wanted:
            parent = parents[parent]
        count += parent >= 0
    return count


def layer_metrics(t: Totals, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures per round: name -> (value, unit)."""
    def s(name: str) -> float:
        return t.time_ns.get(name, 0) / 1e9 / rounds

    def calls(*names: str) -> float:
        return sum(t.calls.get(name, 0) for name in names) / rounds

    def count(name: str) -> float:
        return t.counters.get(name, 0) / rounds

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    lookups = ("ledger.Ledger.get_slide", "ledger.Ledger.is_registered")
    identity = ("records.ModelExtraction.concept_identities", "records.ModelExtraction.triple_identities")
    m: dict[str, tuple[float, str]] = {
        "records.load_corpus.s": (s("records.load_corpus"), "s"),
        "records.files_loaded": (count("records.files_loaded"), "count"),
        "records.us_per_file": (ratio(s("records.load_corpus") * 1e6, count("records.files_loaded")), "us"),
        "records.canonical_bytes.s": (s("records.canonical_bytes"), "s"),
        "records.canonical_bytes.calls": (calls("records.canonical_bytes"), "count"),
        "records.canonical_bytes.mb": (count("records.canonical_bytes") / 1e6, "MB"),
        "keccak.calls": (calls("keccak.keccak256"), "count"),
        "keccak.mb": (count("keccak.bytes") / 1e6, "MB"),
        "keccak.permutations": (count("keccak.permutations"), "count"),
        "keccak.s": (s("keccak.keccak256"), "s"),
        "keccak.mb_per_s": (ratio(count("keccak.bytes") / 1e6, s("keccak.keccak256")), "MB/s"),
        "keccak.us_per_permutation": (ratio(s("keccak.keccak256") * 1e6, count("keccak.permutations")), "us"),
        "commitment.commit_record.calls": (calls("commitment.commit_record"), "count"),
        "commitment.commit_record.s": (s("commitment.commit_record"), "s"),
        "commitment.storage_key.calls": (calls("commitment.storage_key"), "count"),
        "commitment.storage_key.s": (s("commitment.storage_key"), "s"),
        "ledger.register_slide.calls": (calls("ledger.Ledger.register_slide"), "count"),
        "ledger.register_slide.s": (s("ledger.Ledger.register_slide"), "s"),
        "ledger.load.s": (s("ledger.Ledger.load"), "s"),
        "ledger.save.s": (s("ledger.Ledger.save"), "s"),
        "ledger.file_bytes": (count("ledger.file_bytes"), "bytes"),
        "ledger.bytes_per_slide": (ratio(count("ledger.file_bytes"), count("ledger.saved_slides")), "bytes"),
        "ledger.lookups": (calls(*lookups), "count"),
        "ledger.lookup.s": (sum(s(name) for name in lookups), "s"),
        "ledger.hashes_per_lookup": (ratio(t.lookup_hashes / rounds, calls(*lookups)), "ratio"),
        "integrity.verify_corpus.s": (s("integrity.verify_corpus"), "s"),
        "integrity.tamper_experiment.s": (s("integrity.tamper_experiment"), "s"),
        "integrity.local_mtimes.s": (s("integrity.local_mtimes"), "s"),
        "integrity.time_gaps.s": (s("integrity.time_gaps"), "s"),
        "integrity.normalized_per_listed": (ratio(t.listing_normalized, t.counters.get("integrity.listed", 0)), "ratio"),
        "integrity.compare_corpora.s": (s("integrity.compare_corpora"), "s"),
        "metrics.corpus_disagreement.s": (s("metrics.corpus_disagreement"), "s"),
        "metrics.pairwise_jaccard.s": (s("metrics.pairwise_jaccard"), "s"),
        "metrics.lecture_aggregate.s": (s("metrics.lecture_aggregate"), "s"),
        "metrics.classify_stability.s": (s("metrics.classify_stability"), "s"),
        "metrics.coverage_loss.s": (s("metrics.coverage_loss"), "s"),
        "metrics.identity_sets": (calls(*identity), "count"),
        "metrics.identity_sets_per_slide_model": (ratio(calls(*identity), count("records.slide_models")), "ratio"),
        "reports.write.s": (t.outer_ns.get("reports", 0) / 1e9 / rounds, "s"),
        "reports.files": (count("reports.files"), "count"),
        "reports.mb": (count("reports.bytes") / 1e6, "MB"),
    }
    for command in COMMANDS:
        m[f"cli.{command}.s"] = (t.command_ns.get(command, 0) / 1e9 / rounds, "s")
    m["cli.startup_s"] = (t.startup_ns / 1e9 / rounds, "s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (t.self_ns.get(layer, 0) / 1e9 / rounds, "s")
    return m


if __name__ == "__main__":
    sys.exit(main())
