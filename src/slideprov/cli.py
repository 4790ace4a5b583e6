"""Batch command-line front end.

Pipeline: ingest -> normalize -> hash -> register -> verify -> analyze ->
audit -> project.  Every command is deterministic given (corpus, ledger,
config); the one randomized protocol, tamper, draws from its --seed.

Exit codes: 0 success, 1 verification/integrity failure, 2 usage or
config error, 3 I/O or corpus failure.

Every command reads its corpus through ``records.CorpusReader`` (both runs
of ``compare-runs`` paired by ``records.read_runs``), all but ``tamper`` in
one ``records.split_pass``, which takes the readers' keys and raises
EmptyCorpus for a reader that loaded nothing; ``_skip_lines`` then prints
a ``warning: skipped`` line per failed file, also before that error.
``verify`` first settles each file that holds the bytes registered with
its commitment (``integrity.settle``), and passes over the others only.

Each command returns (exit code, reports keyed by file stem, stdout text);
``main`` writes every report with one ``reports.write_reports`` call, then
prints the text, so a command that stops on an error leaves --out untouched.

A command imports the modules it runs inside its ``cmd_*``, so that it
loads no other: ``register`` never loads ``integrity``, ``metrics`` or
``projection``, and ``verify`` loads ``commitment`` only for files it
does not settle.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from .errors import (
    CorruptLedgerFile,
    DisjointCorpora,
    EmptyCorpus,
    InsufficientModels,
    TooFewSlides,
    UnknownBaselineModel,
    UnregisteredCorpus,
)
from .reports import KEY, Table, format_cell, table, write_reports

if TYPE_CHECKING:
    from .integrity import RunComparison
    from .records import CorpusReader

EXIT_OK = 0
EXIT_INTEGRITY = 1
EXIT_USAGE = 2
EXIT_IO = 3

def _err(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


@contextlib.contextmanager
def _skip_lines(*readers: CorpusReader) -> Iterator[None]:
    """After the block, also when it raises, a line for each file the readers failed to load."""
    try:
        yield
    finally:
        for failure in (failure for reader in readers for failure in reader.failures):
            print(f"warning: skipped {failure.path}: {failure.error}", file=sys.stderr)


# --------------------------------------------------------------------------
# commands


Result = tuple[int, dict[str, Table | dict], str]


def cmd_register(args: argparse.Namespace) -> Result:
    from decimal import Decimal
    from fractions import Fraction

    from .commitment import commit_corpus
    from .ledger import MAX_DIGITS, FeeConfig, GasConfig, Ledger, canonical_uri
    from .records import FIELDS, CorpusReader

    # The fee and gas flags are checked even where an existing file's configs win.
    fee = FeeConfig(initial_base_fee_gwei=args.base_fee_gwei, priority_tip_gwei=args.tip_gwei,
                    eth_usd_rate=args.eth_usd, block_interval=args.block_interval)
    gas = GasConfig() if args.gas_exec_base is None else GasConfig(exec_base=args.gas_exec_base)
    try:
        import fcntl
    except ImportError:  # no flock on this platform: concurrent writers are not serialized
        fcntl = None
    path = Path(args.ledger)
    path.parent.mkdir(parents=True, exist_ok=True)
    # One writer at a time: a second register waits here until the first has
    # renamed its file into place, then loads it.  The lock file stays.
    with open(f"{path}.lock", "ab") as lock:
        if fcntl:
            fcntl.flock(lock, fcntl.LOCK_EX)
        # The ledger is read before the corpus: a bad one stops the command
        # first, and with --skip-existing the files of registered slides are
        # passed over unread.
        ledger = Ledger.load(path) if path.exists() else Ledger(fee, gas)
        reader = CorpusReader(args.corpus, ledger.records if args.skip_existing else ())
        with _skip_lines(reader):
            commitments = commit_corpus(reader)

        items = [(key, commitment, canonical_uri(key), digest) for key, (commitment, digest) in commitments.items()]

        receipts, summary = ledger.batch_register(items)
        # Gas figures and seconds are written as integer text: the total gas bounds every gas
        # figure, and the last block's timestamp every timestamp and elapsed_seconds.
        for name, figure in (("total gas", summary.total_gas),
                             ("the last block's timestamp", ledger.next_timestamp - ledger.fee_config.block_interval)):
            if figure >= 10**MAX_DIGITS:
                raise ValueError(f"{name} has more than {MAX_DIGITS} digits")
        ledger.save(args.ledger)

    # each figure is the exact rational of its whole wei; the report writer rounds it
    eth_usd = ledger.fee_config.eth_usd_rate
    total_usd = Fraction(summary.total_cost_wei, 10**18) * eth_usd
    receipt_rows = [[r.lecture_id, r.slide_id, r.block_number, r.timestamp, r.gas_used,
                     Fraction(r.price_wei, 10**9), eth := Fraction(r.gas_used * r.price_wei, 10**18),
                     eth * eth_usd] for r in receipts]
    reports = {
        "receipts": Table(["lecture_id", "slide_id", "block", "timestamp", "gas_used",
                           "effective_gas_price_gwei", "cost_eth", "cost_usd"], receipt_rows),
        "events": Table(list(FIELDS["event"]), ledger.events),
        "register_summary": {
            "attempted": summary.attempted,
            "registered": summary.registered,
            "skipped_existing": reader.skipped,
            "failed": len(summary.failures),
            "min_gas": summary.min_gas,
            "mean_gas": Fraction(summary.total_gas, max(summary.registered, 1)),  # 0 if none registered
            "max_gas": summary.max_gas,
            "total_gas": summary.total_gas,
            "total_cost_eth": Fraction(summary.total_cost_wei, 10**18),
            "total_cost_usd": total_usd,
            "elapsed_seconds": summary.elapsed_seconds,
            "throughput": summary.throughput,
        },
    }
    for key, reason in summary.failures:
        _err(f"({key.lecture_id},{key.slide_id}): {reason}")
    # whole cents, rounded half-even; a Decimal prints past the 4300 digits where str(int) stops
    cents = Decimal(round(total_usd * 100)).as_tuple()._replace(exponent=-2)
    text = (f"registered {summary.registered}/{summary.attempted} slides"
            f" (skipped {reader.skipped}, failed {len(summary.failures)});"
            f" total gas {summary.total_gas}, cost ${Decimal(cents):f}")
    return (EXIT_INTEGRITY if summary.failures else EXIT_OK), reports, text


def cmd_verify(args: argparse.Namespace) -> Result:
    from .integrity import CHANGED, MATCH, settle, verify_corpus
    from .ledger import Ledger
    from .records import CorpusReader

    ledger = Ledger.load(args.ledger)
    reader = CorpusReader(args.corpus)
    commitments = settled = settle(reader, ledger)
    if reader.paths or not settled:  # the files left, or over no file at all the EmptyCorpus check
        from .commitment import commit_corpus

        with _skip_lines(reader):
            commitments = {**settled, **{key: c for key, (c, _) in commit_corpus(reader).items()}}
    results = verify_corpus(commitments, ledger, settled)

    reports = {"verdicts": table(results, *KEY, "recomputed", "on_chain", "verdict", "file")}
    bad = [v for v in results if v.verdict != MATCH]
    for v in results:
        if v.verdict != MATCH:
            _err(f"({v.key.lecture_id},{v.key.slide_id}): {v.verdict}")
        elif v.file == CHANGED:
            print(f"warning: ({v.key.lecture_id},{v.key.slide_id}): {MATCH}, but the file's bytes are not"
                  " the ones registered", file=sys.stderr)
    text = f"verified {len(results)} slides: {len(results) - len(bad)} match, {len(bad)} fail"
    return (EXIT_INTEGRITY if bad else EXIT_OK), reports, text


def cmd_analyze(args: argparse.Namespace) -> Result:
    from . import metrics
    from .records import CorpusReader, normalize_record, split_pass

    reader = CorpusReader(args.corpus)
    with _skip_lines(reader):
        by_slide = dict(split_pass([reader], lambda keys: list(
            metrics.corpus_disagreement(reader.read(normalize_record, keys)).items())))
    reports: dict[str, Table | dict] = {"disagreement": table(by_slide.values(), *KEY, "d_concept", "d_triple")}

    try:
        for kind in ("concepts", "triples"):
            matrix, _ = metrics.pairwise_jaccard(by_slide, kind)
            reports[f"jaccard_{kind}"] = Table(
                ["model", *matrix.models],
                [[model, *values] for model, values in zip(matrix.models, matrix.values)],
            )
    except InsufficientModels as exc:
        print(f"note: Jaccard matrices skipped: {exc}", file=sys.stderr)

    reports["lecture_aggregates"] = table(metrics.lecture_aggregate(by_slide).values(),
                                          "lecture_id", "slide_count", "mean_d_concept", "mean_d_triple")

    try:
        reports["stability"] = table(metrics.classify_stability(by_slide), *KEY, "d_concept", "label")
    except TooFewSlides as exc:
        print(f"note: stability classification skipped: {exc}", file=sys.stderr)

    report = metrics.coverage_loss(by_slide, args.baseline_model)
    reports["coverage_loss"] = table(report.losses, *KEY, "baseline_model", "concept_loss", "triple_loss")

    text = (f"analyzed {len(by_slide)} slides, {len(metrics.corpus_models(by_slide))} models;"
            f" coverage baseline {report.baseline_model}"
            f" (mean concept loss {report.concept_mean:.3f})")
    return EXIT_OK, reports, text


def cmd_tamper(args: argparse.Namespace) -> Result:
    from . import integrity
    from .ledger import Ledger
    from .records import CorpusReader, write_record

    ledger = Ledger.load(args.ledger)
    reader = CorpusReader(args.corpus)
    with _skip_lines(reader):
        report = integrity.tamper_experiment(reader, ledger, args.count, args.seed)
    for failure in reader.failures:  # a drawn slide with no trial: the rate leaves it out
        _err(f"({failure.key.lecture_id},{failure.key.slide_id}): {integrity.MISSING}, no trial run")

    reports = {
        "tamper_report": table(report.trials, *KEY, "op.kind", "op.target", "verdict"),
        "tamper_summary": {name: getattr(report, name) for name in ("seed", "total", "detected", "detection_rate")},
    }
    text = (f"tamper protocol: {report.detected}/{report.total} detected"
            f" (rate {report.detection_rate:.4f}, seed {report.seed})")
    if args.write:
        for trial in report.trials:
            write_record(trial.tampered, args.corpus)
        text = f"wrote {report.total} tampered records back into {args.corpus}\n{text}"
    return (EXIT_INTEGRITY if reader.failures else EXIT_OK), reports, text


def cmd_compare_runs(args: argparse.Namespace) -> Result:
    from .integrity import compare_range, join_ranges
    from .records import CorpusReader, normalize_record, read_runs, split_pass

    def compare(keys):  # a file both runs hold byte for byte is loaded once
        return [compare_range(read_runs(run_a, run_b, normalize_record, keys))]

    run_a, run_b = CorpusReader(args.run_a), CorpusReader(args.run_b)
    with _skip_lines(run_a, run_b):
        comparison = join_ranges(split_pass([run_a, run_b], compare))

    text = (f"compared {comparison.n_pairs} (slide, model) pairs over"
            f" {len(comparison.byte_equal)} common slides:"
            f" {comparison.n_perfect} perfect, {comparison.n_byte_equal} byte-identical")
    return EXIT_OK, compare_reports(comparison), text


def compare_reports(comparison: RunComparison) -> dict[str, Table | dict]:
    """The reports of ``compare-runs``: the compared pairs' rows, then the one-run pairs'."""
    return {
        "compare_runs": table(comparison.pairs + comparison.asymmetric, *KEY, "model", "status",
                              "concept_jaccard", "triple_jaccard"),
        "compare_summary": {
            "common_keys": len(comparison.byte_equal),
            "only_in_a": len(comparison.only_in_a),
            "only_in_b": len(comparison.only_in_b),
            "pairs": comparison.n_pairs,
            "concept_perfect": comparison.n_concept_perfect,
            "triple_perfect": comparison.n_triple_perfect,
            "perfect_pairs": comparison.n_perfect,
            "asymmetric": len(comparison.asymmetric),
            "byte_equal": comparison.n_byte_equal,
            "identical": comparison.identical,
        },
    }


def cmd_time_gaps(args: argparse.Namespace) -> Result:
    from . import integrity
    from .ledger import Ledger

    ledger = Ledger.load(args.ledger)
    if args.manifest:
        local = integrity.load_time_manifest(args.manifest)
    else:
        local = integrity.local_mtimes(args.corpus)
    gaps, summary = integrity.time_gaps(local, ledger)

    reports = {
        "time_gaps": table(gaps, *KEY, "delta_seconds", "anomaly"),
        "time_gap_summary": summary._asdict(),
    }
    text = (f"time gaps over {summary.count} slides: mean {summary.mean:.1f}s,"
            f" stddev {summary.stddev:.1f}s, {summary.anomalies} anomalies")
    return EXIT_OK, reports, text


def cmd_project(args: argparse.Namespace) -> Result:
    from . import projection

    profiles = projection.load_profiles(args.profiles) if args.profiles else None
    projections = projection.project(
        n=args.count,
        mean_gas=projection.CANONICAL_REGISTRATION_GAS if args.mean_gas is None else args.mean_gas,
        profiles=profiles,
        eth_usd=args.eth_usd,
        throughput=args.throughput,
    )
    rows = [[p.n_slides, p.network, p.total_gas, p.total_cost_eth, p.total_cost_usd, p.expected_seconds]
            for p in projections]
    reports = {"projections": Table(["n", "network", "total_gas", "eth", "usd", "seconds"], rows)}
    return EXIT_OK, reports, "\n".join(
        f"{network:>15}: {total_gas} gas, {format_cell(eth)} ETH, ${format_cell(usd)}, ~{format_cell(seconds)}s"
        for _, network, total_gas, eth, usd, seconds in rows)


# --------------------------------------------------------------------------
# parser


def _add_common(parser: argparse.ArgumentParser, *, corpus: bool = True, ledger: bool = False) -> None:
    if corpus:
        parser.add_argument("--corpus", required=True,
                            help="corpus root containing by_slide/Lecture <n>/Slide<m>.json")
    if ledger:
        parser.add_argument("--ledger", default="ledger.json",
                            help="ledger export file (default ledger.json)")
    parser.add_argument("--out", default="reports",
                        help="output directory for report files (default reports/)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="tabular report format (default csv)")


def _add_fee_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--eth-usd", default="3000",
                        help="ETH/USD reference rate (default 3000)")
    parser.add_argument("--base-fee-gwei", default="0.77",
                        help="initial base fee in gwei (default 0.77)")
    parser.add_argument("--tip-gwei", default="1.0",
                        help="priority tip in gwei (default 1.0)")
    parser.add_argument("--block-interval", type=int, default=1,
                        help="modeled seconds per block (default 1)")
    parser.add_argument("--gas-exec-base", type=int, help="execution-gas calibration constant")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slideprov",
        description="Slide provenance toolkit: canonical records, commitments, "
                    "a deterministic registry, semantic analytics, and audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("register", help="hash and register every corpus slide")
    _add_common(p, ledger=True)
    _add_fee_flags(p)
    p.add_argument("--skip-existing", action="store_true",
                   help="silently skip already-registered slides")
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("verify", help="recompute commitments and compare with the registry")
    _add_common(p, ledger=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("analyze", help="semantic disagreement, similarity, and coverage reports")
    _add_common(p)
    p.add_argument("--baseline-model", help="coverage-loss baseline (default: densest model)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("tamper", help="seeded tamper-detection protocol")
    _add_common(p, ledger=True)
    p.add_argument("-n", "--count", type=int, default=20, help="slides to perturb (default 20)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the slide and perturbation choices (default 0)")
    p.add_argument("--write", action="store_true",
                   help="destructive: persist tampered records into the corpus")
    p.set_defaults(func=cmd_tamper)

    p = sub.add_parser("compare-runs", help="Jaccard and byte comparison of two corpus directories")
    p.add_argument("run_a", help="first corpus root")
    p.add_argument("run_b", help="second corpus root")
    _add_common(p, corpus=False)
    p.set_defaults(func=cmd_compare_runs)

    p = sub.add_parser("time-gaps", help="chain-minus-local registration delay audit")
    _add_common(p, ledger=True)
    p.add_argument("--manifest",
                   help="JSON manifest of local creation times (default: file mtimes)")
    p.set_defaults(func=cmd_time_gaps)

    p = sub.add_parser("project", help="gas/cost/time projection across network profiles")
    _add_common(p, corpus=False)
    p.add_argument("-n", "--count", type=int, default=1_000_000,
                   help="corpus size to project (default 1e6)")
    p.add_argument("--mean-gas", type=int, help="mean gas per registration")
    p.add_argument("--eth-usd", default="3000", help="ETH/USD rate")
    p.add_argument("--throughput", default=1.0, help="registrations per second")
    p.add_argument("--profiles", help="JSON file with custom network profiles")
    p.set_defaults(func=cmd_project)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    format_warning = warnings.formatwarning
    # one line without the source location, so stderr is the same from any checkout
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        code, reports, text = args.func(args)
        write_reports(args.out, reports, args.format)
    except (UnknownBaselineModel, ValueError) as exc:
        _err(str(exc))
        return EXIT_USAGE
    except (EmptyCorpus, CorruptLedgerFile, DisjointCorpora, OSError) as exc:
        _err(str(exc))
        return EXIT_IO
    except UnregisteredCorpus as exc:
        _err(str(exc))
        return EXIT_INTEGRITY
    finally:
        warnings.formatwarning = format_warning
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
