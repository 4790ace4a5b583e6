"""Exception types raised across the toolkit.

Everything derives from ProvenanceError so callers can catch broadly;
the CLI maps subfamilies onto distinct exit codes.
"""


class ProvenanceError(Exception):
    """Base class for all slideprov errors."""


# -- record model -----------------------------------------------------------

class MalformedDocument(ProvenanceError):
    """Input document is not parseable as a provenance record."""


class MissingKey(ProvenanceError):
    """Lecture/slide identity cannot be established for a document."""


class EmptyCorpus(ProvenanceError):
    """Zero records could be loaded from a corpus root."""


# -- ledger -----------------------------------------------------------------

class LedgerError(ProvenanceError):
    """Base class for registry failures."""


class InvalidLecture(LedgerError):
    """lecture_id must be in [1, 2**256)."""


class InvalidSlide(LedgerError):
    """slide_id must be in [1, 2**256)."""


class AlreadyRegistered(LedgerError):
    """A slide may be registered exactly once; duplicates are rejected."""


class CorruptLedgerFile(LedgerError):
    """Ledger export does not match the expected schema."""


# -- metrics ----------------------------------------------------------------

class MetricsError(ProvenanceError):
    """Base class for analytics failures."""


class InsufficientModels(MetricsError):
    """Pairwise comparison needs at least two models in the corpus."""


class TooFewSlides(MetricsError):
    """Quartile-based classification needs at least four slides."""


class UnknownBaselineModel(MetricsError):
    """Requested coverage baseline does not appear in the corpus."""


# -- integrity --------------------------------------------------------------

class IntegrityError(ProvenanceError):
    """Base class for audit-protocol failures."""


class UnregisteredCorpus(IntegrityError):
    """Audit protocols require every corpus slide to be registered."""


class DisjointCorpora(IntegrityError):
    """Run comparison requires at least one common slide key."""


class ProvenanceWarning(UserWarning):
    """Non-fatal data irregularity (key conflicts, missing models, ...)."""
