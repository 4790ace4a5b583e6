"""Slide provenance toolkit.

Canonical multi-model provenance records, Keccak-256 commitments, a
deterministic registry with dev-chain gas and fee behavior, semantic
disagreement analytics, tamper and reproducibility audits, and
multi-network cost projection.
"""

from .commitment import Commitment, StorageKey, commit, commit_record, commit_records, storage_key
from .errors import (
    AlreadyRegistered,
    CorruptLedgerFile,
    DisjointCorpora,
    EmptyCorpus,
    InsufficientModels,
    IntegrityError,
    InvalidLecture,
    InvalidSlide,
    LedgerError,
    MalformedDocument,
    MetricsError,
    MissingKey,
    ProvenanceError,
    ProvenanceWarning,
    TooFewSlides,
    UnknownBaselineModel,
    UnregisteredCorpus,
)
from .integrity import (
    MATCH,
    MISMATCH,
    MISSING,
    UNREGISTERED,
    RunComparison,
    TamperKind,
    TamperOp,
    TamperReport,
    TimeGap,
    VerificationResult,
    compare_corpora,
    load_time_manifest,
    local_mtimes,
    tamper_experiment,
    tamper_record,
    time_gaps,
    verify_corpus,
)
from .keccak import keccak256, keccak256_many
from .ledger import (
    CANONICAL_REGISTRATION_GAS,
    BatchSummary,
    FeeConfig,
    GasConfig,
    Ledger,
    RegistrationReceipt,
    SlideRecord,
    canonical_uri,
    dev_accounts,
    estimate_gas,
)
from .metrics import (
    CoverageLoss,
    CoverageReport,
    JaccardMatrix,
    LectureAggregate,
    ModelFootprint,
    SlideDisagreement,
    StabilityLabel,
    classify_stability,
    corpus_disagreement,
    corpus_models,
    coverage_loss,
    disagreement,
    jaccard,
    lecture_aggregate,
    model_footprint,
    pairwise_jaccard,
)
from .projection import NetworkProfile, Projection, load_profiles, preset_profiles, project
from .records import (
    CANONICAL_FORMAT,
    Concept,
    Corpus,
    CorpusReader,
    LoadFailure,
    ModelExtraction,
    ProvenanceRecord,
    RecordMetadata,
    RecordPaths,
    SlideKey,
    Triple,
    canonical_bytes,
    load_corpus,
    normalize_record,
    normalize_text,
    record_path,
    write_record,
)

__version__ = "0.1.0"
