"""Exception hierarchy shared across the package.

Two error families matter to callers: :class:`InputError` for anything wrong
with user-supplied data or configuration, and :class:`DegeneracyError` for
numerically degenerate situations encountered during an otherwise valid
computation. The command-line interface maps them to exit codes 2 and 3.
"""


class BidirMrError(Exception):
    """Base class for all package errors."""


class InputError(BidirMrError):
    """User-supplied data or configuration violates a contract."""


class GwasParseError(InputError):
    """A summary-statistics file could not be parsed.

    Carries the offending path and 1-based line number when known.
    """

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.message = message
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix = f"{path}:"
            if line is not None:
                prefix += f"{line}:"
            prefix += " "
        super().__init__(prefix + message)


class DuplicateVariantError(GwasParseError):
    """The same variant id appears more than once in one file."""


class NonPositiveSEError(GwasParseError):
    """A standard-error column contains a value <= 0."""


class EmptyIntersectionError(InputError):
    """Harmonization left no variants shared between the two studies."""


class DegeneracyError(BidirMrError):
    """A computation hit a numerically degenerate configuration."""


class DegenerateTruncationError(DegeneracyError):
    """The truncation window carries (numerically) zero probability mass."""


class EmptyFocusedSetError(DegeneracyError):
    """An estimator was asked to aggregate over an empty focused set."""


class EmptyRelevantSetError(DegeneracyError):
    """No SNP passes the relevance screening threshold."""


class ZeroDenominatorError(DegeneracyError):
    """A per-SNP ratio estimate has an exactly zero exposure association."""


class RankDeficientError(DegeneracyError):
    """A regression design matrix does not have full column rank."""
