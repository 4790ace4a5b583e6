"""Batch command-line front end.

Pipeline: ingest -> normalize -> hash -> register -> verify -> analyze ->
audit -> project.  Every command is deterministic given (corpus, ledger,
seed, config); all randomness flows from --seed.

Exit codes: 0 success, 1 verification/integrity failure, 2 usage or
config error, 3 I/O or corpus failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from pathlib import Path

from . import integrity, metrics, projection
from .commitment import commit_corpus
from .errors import (
    CorruptLedgerFile,
    DisjointCorpora,
    EmptyCorpus,
    InsufficientModels,
    TooFewSlides,
    UnknownBaselineModel,
    UnregisteredCorpus,
)
from .ledger import CANONICAL_REGISTRATION_GAS, FeeConfig, GasConfig, Ledger, account_hex, canonical_uri
from .records import CorpusLoadResult, CorpusReader, LoadFailure, load_corpus, write_record
from .reports import write_json, write_table

EXIT_OK = 0
EXIT_INTEGRITY = 1
EXIT_USAGE = 2
EXIT_IO = 3

ENV_PREFIX = "SLIDEPROV_"


def _env(flag: str, fallback: str | None = None) -> str | None:
    return os.environ.get(ENV_PREFIX + flag.upper().replace("-", "_"), fallback)


def _err(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _warn_failures(failures: list[LoadFailure]) -> None:
    for failure in failures:
        print(f"warning: skipped {failure.path}: {failure.error}", file=sys.stderr)


def _load(args: argparse.Namespace) -> CorpusLoadResult:
    result = load_corpus(args.corpus)
    _warn_failures(result.failures)
    return result


def _open_ledger(args: argparse.Namespace) -> Ledger:
    path = Path(args.ledger)
    if not path.exists():
        raise CorruptLedgerFile(f"ledger file not found: {path}")
    return Ledger.load(path)


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# --------------------------------------------------------------------------
# commands


def cmd_register(args: argparse.Namespace) -> int:
    # The fee and gas flags are checked even where an existing file's configs win.
    fee = FeeConfig(initial_base_fee=args.base_fee_gwei, priority_tip=args.tip_gwei,
                    eth_usd_rate=args.eth_usd, block_interval=args.block_interval)
    gas = GasConfig(exec_base=args.gas_exec_base)
    # With --skip-existing an existing ledger is read first, so that the
    # files of registered slides are passed over unread.
    path = Path(args.ledger)
    ledger = Ledger.load(path) if args.skip_existing and path.exists() else None
    reader = CorpusReader(args.corpus, ledger.records if ledger is not None else frozenset())
    commitments = commit_corpus(reader)
    _warn_failures(reader.failures)
    if ledger is None:
        ledger = Ledger.load(path) if path.exists() else Ledger(fee, gas)

    items = [(key, c.hex, canonical_uri(key)) for key, c in commitments.items()]

    receipts, summary = ledger.batch_register(items)
    # The reports give costs as floats: a cost past the float range fails
    # here, before the ledger file is written.
    try:
        receipt_rows = [[r.lecture_id, r.slide_id, r.block_number, r.timestamp, r.gas_used,
                         float(r.effective_gas_price), float(r.tx_cost_eth), float(r.tx_cost_usd)]
                        for r in receipts]
        summary_doc = {
            "attempted": summary.attempted,
            "registered": summary.registered,
            "skipped_existing": reader.skipped,
            "failed": len(summary.failures),
            "min_gas": summary.min_gas,
            "mean_gas": float(summary.mean_gas),
            "max_gas": summary.max_gas,
            "total_gas": summary.total_gas,
            "total_cost_eth": float(summary.total_cost_eth),
            "total_cost_usd": float(summary.total_cost_usd),
            "elapsed_seconds": summary.elapsed_seconds,
            "throughput": summary.throughput,
        }
    except OverflowError:
        raise ValueError("registration costs exceed the floating-point range") from None
    ledger.save(args.ledger)

    out = _out_dir(args)
    write_table(
        out / "receipts",
        ["lecture_id", "slide_id", "block", "timestamp", "gas_used",
         "effective_gas_price_gwei", "cost_eth", "cost_usd"],
        receipt_rows,
        args.format,
    )
    write_table(
        out / "events",
        ["lectureId", "slideId", "slideHash", "uri", "registrant", "timestamp"],
        [[e.lecture_id, e.slide_id, e.slide_hash, e.uri, account_hex(e.registrant), e.timestamp]
         for e in ledger.events],
        args.format,
    )
    write_json(out / "register_summary.json", summary_doc)

    for key, reason in summary.failures:
        _err(f"({key.lecture_id},{key.slide_id}): {reason}")
    print(
        f"registered {summary.registered}/{summary.attempted} slides"
        f" (skipped {reader.skipped}, failed {len(summary.failures)});"
        f" total gas {summary.total_gas}, cost ${summary_doc['total_cost_usd']:.2f}"
    )
    return EXIT_INTEGRITY if summary.failures else EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    reader = CorpusReader(args.corpus)
    commitments = commit_corpus(reader)
    _warn_failures(reader.failures)
    ledger = _open_ledger(args)
    verdicts = integrity.verify_commitments(commitments.items(), ledger)

    out = _out_dir(args)
    write_table(
        out / "verdicts",
        ["lecture_id", "slide_id", "recomputed", "on_chain", "verdict"],
        [[v.key.lecture_id, v.key.slide_id, v.recomputed.hex, v.on_chain or "", v.verdict]
         for v in verdicts],
        args.format,
    )
    bad = [v for v in verdicts if v.verdict != integrity.MATCH]
    for v in bad:
        _err(f"({v.key.lecture_id},{v.key.slide_id}): {v.verdict}")
    print(f"verified {len(verdicts)} slides: {len(verdicts) - len(bad)} match, {len(bad)} fail")
    return EXIT_INTEGRITY if bad else EXIT_OK


def _write_matrix(path: Path, matrix: metrics.JaccardMatrix, fmt: str) -> None:
    rows = [[model, *values] for model, values in zip(matrix.models, matrix.values)]
    write_table(path, ["model", *matrix.models], rows, fmt)


def cmd_analyze(args: argparse.Namespace) -> int:
    by_slide = metrics.corpus_disagreement(_load(args).records)
    out = _out_dir(args)
    fmt = args.format

    write_table(
        out / "disagreement",
        ["lecture_id", "slide_id", "d_concept", "d_triple"],
        [[d.key.lecture_id, d.key.slide_id, d.concept_union_size, d.triple_union_size]
         for d in by_slide.values()],
        fmt,
    )

    try:
        for kind in ("concepts", "triples"):
            matrix, _ = metrics.pairwise_jaccard(by_slide, kind)
            _write_matrix(out / f"jaccard_{kind}", matrix, fmt)
    except InsufficientModels as exc:
        print(f"note: Jaccard matrices skipped: {exc}", file=sys.stderr)

    aggregates = metrics.lecture_aggregate(by_slide)
    write_table(
        out / "lecture_aggregates",
        ["lecture_id", "slide_count", "mean_d_concept", "mean_d_triple"],
        [[a.lecture_id, a.slide_count, a.mean_concept_disagreement, a.mean_triple_disagreement]
         for a in aggregates.values()],
        fmt,
    )

    try:
        labels = metrics.classify_stability(by_slide)
        write_table(
            out / "stability",
            ["lecture_id", "slide_id", "d_concept", "label"],
            [[l.key.lecture_id, l.key.slide_id, l.d_concept, l.label] for l in labels],
            fmt,
        )
    except TooFewSlides as exc:
        print(f"note: stability classification skipped: {exc}", file=sys.stderr)

    report = metrics.coverage_loss(by_slide, args.baseline_model)
    write_table(
        out / "coverage_loss",
        ["lecture_id", "slide_id", "baseline_model", "concept_loss", "triple_loss"],
        [[l.key.lecture_id, l.key.slide_id, l.baseline_model, l.concept_loss, l.triple_loss]
         for l in report.losses],
        fmt,
    )

    print(
        f"analyzed {len(by_slide)} slides, {len(metrics.corpus_models(by_slide))} models;"
        f" coverage baseline {report.baseline_model}"
        f" (mean concept loss {report.concept_mean:.3f})"
    )
    return EXIT_OK


def cmd_tamper(args: argparse.Namespace) -> int:
    result = _load(args)
    ledger = _open_ledger(args)
    report = integrity.tamper_experiment(result.records, ledger, args.count, args.seed)

    out = _out_dir(args)
    write_table(
        out / "tamper_report",
        ["lecture_id", "slide_id", "kind", "target", "verdict"],
        [[t.key.lecture_id, t.key.slide_id, t.op.kind.value, t.op.target, t.verdict]
         for t in report.trials],
        args.format,
    )
    write_json(out / "tamper_summary.json", {
        "seed": report.seed,
        "total": report.total,
        "detected": report.detected,
        "detection_rate": report.detection_rate,
    })

    if args.write:
        for trial in report.trials:
            write_record(trial.tampered, args.corpus)
        print(f"wrote {report.total} tampered records back into {args.corpus}")

    print(f"tamper protocol: {report.detected}/{report.total} detected"
          f" (rate {report.detection_rate:.4f}, seed {report.seed})")
    return EXIT_OK


def cmd_compare_runs(args: argparse.Namespace) -> int:
    comparison = integrity.compare_runs(args.run_a, args.run_b)

    out = _out_dir(args)
    rows: list[list[object]] = [
        [p.key.lecture_id, p.key.slide_id, p.model, "compared", p.concept_jaccard, p.triple_jaccard]
        for p in comparison.pairs
    ]
    rows += [
        [a.key.lecture_id, a.key.slide_id, a.model, f"only_in_{a.present_in}", "", ""]
        for a in comparison.asymmetric
    ]
    write_table(
        out / "compare_runs",
        ["lecture_id", "slide_id", "model", "status", "concept_jaccard", "triple_jaccard"],
        rows,
        args.format,
    )
    write_json(out / "compare_summary.json", {
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
    })

    print(
        f"compared {comparison.n_pairs} (slide, model) pairs over"
        f" {len(comparison.byte_equal)} common slides:"
        f" {comparison.n_perfect} perfect, {comparison.n_byte_equal} byte-identical"
    )
    return EXIT_OK


def cmd_time_gaps(args: argparse.Namespace) -> int:
    ledger = _open_ledger(args)
    if args.manifest:
        local = integrity.load_time_manifest(args.manifest)
    else:
        local = integrity.local_mtimes(args.corpus)
    gaps, summary = integrity.time_gaps(local, ledger)

    out = _out_dir(args)
    write_table(
        out / "time_gaps",
        ["lecture_id", "slide_id", "delta_seconds", "anomaly"],
        [[g.key.lecture_id, g.key.slide_id, g.delta_seconds, g.anomaly] for g in gaps],
        args.format,
    )
    write_json(out / "time_gap_summary.json", {
        "count": summary.count,
        "mean": summary.mean,
        "min": summary.minimum,
        "max": summary.maximum,
        "stddev": summary.stddev,
        "anomalies": summary.anomalies,
    })
    print(f"time gaps over {summary.count} slides: mean {summary.mean:.1f}s,"
          f" stddev {summary.stddev:.1f}s, {summary.anomalies} anomalies")
    return EXIT_OK


def cmd_project(args: argparse.Namespace) -> int:
    profiles = projection.load_profiles(args.profiles) if args.profiles else None
    projections = projection.project(
        n=args.count,
        mean_gas=args.mean_gas,
        profiles=profiles,
        eth_usd=args.eth_usd,
        throughput=args.throughput,
    )
    # every value is rendered before --out is created: one out of range writes nothing
    text = projection.decimal_text
    rows = [[p.n_slides, p.network, p.total_gas, text(p.total_cost_eth), text(p.total_cost_usd),
             text(p.expected_seconds)] for p in projections]
    out = _out_dir(args)
    write_table(out / "projections", ["n", "network", "total_gas", "eth", "usd", "seconds"],
                rows, args.format)
    for _, network, total_gas, eth, usd, seconds in rows:
        print(f"{network:>15}: {total_gas} gas, {eth} ETH, ${usd}, ~{seconds}s")
    return EXIT_OK


# --------------------------------------------------------------------------
# parser


def _report_format(text: str) -> str:
    # a type, not choices: argparse checks choices only on the command line,
    # while a type also converts an environment-supplied default
    if text not in ("csv", "json"):
        raise argparse.ArgumentTypeError(f"invalid choice: {text!r} (choose from 'csv', 'json')")
    return text


def _add_common(parser: argparse.ArgumentParser, *, corpus: bool = True, ledger: bool = False) -> None:
    if corpus:
        parser.add_argument("--corpus", default=_env("corpus"), required=_env("corpus") is None,
                            help="corpus root containing by_slide/Lecture <n>/Slide<m>.json")
    if ledger:
        parser.add_argument("--ledger", default=_env("ledger", "ledger.json"),
                            help="ledger export file (default ledger.json)")
    parser.add_argument("--out", default=_env("out", "reports"),
                        help="output directory for report files (default reports/)")
    parser.add_argument("--format", type=_report_format, metavar="{csv,json}",
                        default=_env("format", "csv"), help="tabular report format (default csv)")
    parser.add_argument("--seed", type=int, default=_env("seed", "0"),
                        help="seed for all randomized protocols (default 0)")


def _add_fee_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--eth-usd", default=_env("eth_usd", "3000"),
                        help="ETH/USD reference rate (default 3000)")
    parser.add_argument("--base-fee-gwei", default=_env("base_fee_gwei", "0.77"),
                        help="initial base fee in gwei (default 0.77)")
    parser.add_argument("--tip-gwei", default=_env("tip_gwei", "1.0"),
                        help="priority tip in gwei (default 1.0)")
    parser.add_argument("--block-interval", type=int, default=_env("block_interval", "1"),
                        help="modeled seconds per block (default 1)")
    parser.add_argument("--gas-exec-base", type=int,
                        default=_env("gas_exec_base", str(GasConfig().exec_base)),
                        help="execution-gas calibration constant")


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
    p.add_argument("--baseline-model", default=_env("baseline_model"),
                   help="coverage-loss baseline (default: densest model)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("tamper", help="seeded tamper-detection protocol")
    _add_common(p, ledger=True)
    p.add_argument("-n", "--count", type=int, default=20, help="slides to perturb (default 20)")
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
    p.add_argument("--manifest", default=_env("manifest"),
                   help="JSON manifest of local creation times (default: file mtimes)")
    p.set_defaults(func=cmd_time_gaps)

    p = sub.add_parser("project", help="gas/cost/time projection across network profiles")
    _add_common(p, corpus=False)
    p.add_argument("-n", "--count", type=int, default=1_000_000,
                   help="corpus size to project (default 1e6)")
    p.add_argument("--mean-gas", type=int, default=CANONICAL_REGISTRATION_GAS,
                   help="mean gas per registration")
    p.add_argument("--eth-usd", default=_env("eth_usd", "3000"), help="ETH/USD rate")
    p.add_argument("--throughput", default=1.0, help="registrations per second")
    p.add_argument("--profiles", default=_env("profiles"),
                   help="JSON file with custom network profiles")
    p.set_defaults(func=cmd_project)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    format_warning = warnings.formatwarning
    # one line without the source location, so stderr is the same from any checkout
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        return args.func(args)
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


if __name__ == "__main__":
    sys.exit(main())
