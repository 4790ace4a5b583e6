"""Slide provenance toolkit.

Canonical multi-model provenance records, Keccak-256 commitments, a
deterministic registry with dev-chain gas and fee behavior, semantic
disagreement analytics, tamper and reproducibility audits, and
multi-network cost projection.

The public names below resolve lazily: ``import slideprov`` loads no
submodule, and ``slideprov.Ledger`` (or ``from slideprov import Ledger``)
imports ``slideprov.ledger`` on first use and is the object it holds.
"""

import importlib

_MODULE_NAMES = {
    "commitment": "StorageKey commit commit_record commit_records storage_key",
    "errors": "AlreadyRegistered CorruptLedgerFile DisjointCorpora EmptyCorpus InsufficientModels IntegrityError"
              " InvalidLecture InvalidSlide LedgerError MalformedDocument MetricsError MissingKey ProvenanceError"
              " ProvenanceWarning TooFewSlides UnknownBaselineModel UnregisteredCorpus",
    "integrity": "MATCH MISMATCH MISSING UNREGISTERED RunComparison TamperKind TamperOp TamperReport TimeGap"
                 " VerificationResult compare_corpora load_time_manifest local_mtimes tamper_experiment"
                 " tamper_record time_gaps verify_corpus",
    "keccak": "keccak256 keccak256_many",
    "ledger": "CANONICAL_REGISTRATION_GAS BatchSummary FeeConfig GasConfig Ledger RegistrationReceipt SlideRecord"
              " canonical_uri dev_accounts estimate_gas",
    "metrics": "CoverageLoss CoverageReport JaccardMatrix LectureAggregate ModelFootprint SlideDisagreement"
               " StabilityLabel classify_stability corpus_disagreement corpus_models coverage_loss disagreement"
               " jaccard lecture_aggregate model_footprint pairwise_jaccard",
    "projection": "NetworkProfile Projection load_profiles preset_profiles project",
    "records": "CANONICAL_FORMAT Corpus CorpusReader LoadFailure ModelExtraction ProvenanceRecord RecordMetadata"
               " RecordPaths SlideKey canonical_bytes load_corpus normalize_record normalize_text record_path"
               " write_record",
}
_HOME = {name: module for module, names in _MODULE_NAMES.items() for name in names.split()}  # name -> module

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str) -> object:
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
