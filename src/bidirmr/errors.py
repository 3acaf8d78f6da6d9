"""Exception hierarchy shared across the package, and the checkers that raise input errors.

Two error families matter to callers: :class:`InputError` for anything wrong
with user-supplied data or configuration, and :class:`DegeneracyError` for
numerically degenerate situations encountered during an otherwise valid
computation. The command-line interface maps them to exit codes 2 and 3.

The value types (``Panel``, ``SeedEffects``, ``TruthConfig``, ``FocusConfig``,
``ScenarioConfig`` and ``TruncSpec``) check every field, and functions their
arguments, with :func:`_number`, :func:`_count`, :func:`_floats`, :func:`_finite`,
:func:`_vectors` and :func:`_instance`: a refused value is an :class:`InputError`
``"<field> must be <what>, got <value!r>"``.
"""

import numbers
import reprlib

import numpy as np


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


def _shown(value) -> str:
    """``repr(value)``, cut short as by :func:`reprlib.repr`."""
    try:
        return reprlib.repr(value)
    except ValueError:  # an int past the interpreter's limit on digits
        return "an integer too long to print"


def _refused(name: str, what: str, value) -> InputError:
    return InputError(f"{name} must be {what}, got {_shown(value)}")


def _number(name: str, value, ok, what: str) -> float:
    """``value`` as a float, if it is a real number other than a bool for which ``ok`` holds."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            raise InputError(f"{name} must be {what}, got a number too large for a float") from None
        if ok(number):
            return number
    raise _refused(name, what, value)


def _count(name: str, value, low: int) -> int:
    """``value`` as an int, if it is an integer other than a bool and at least ``low``."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= low:
        return int(value)
    raise _refused(name, f"an integer of at least {low}", value)


def _instance(name: str, value, cls: type):
    """``value``, if it is a ``cls``."""
    if isinstance(value, cls):
        return value
    raise _refused(name, f"a {cls.__name__}", value)


def _floats(name: str, value) -> np.ndarray:
    """``value`` as a new float64 array, if it holds real numbers; a complex one is
    refused rather than cut to its real part."""
    try:
        if not np.iscomplexobj(value):
            return np.array(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        pass
    raise _refused(name, "a vector of real numbers", value)


def _finite(name: str, arr: np.ndarray, positive: bool) -> np.ndarray:
    """``arr``, if every value is finite, and positive if asked; else the refusal of its first
    other value."""
    ok = np.isfinite(arr) & (arr > 0.0) if positive else np.isfinite(arr)
    if not ok.all():
        raise _refused(name, "finite and positive" if positive else "finite", float(arr[~ok][0]))
    return arr


def _vectors(owner, size: int | None, positive: tuple[str, ...], *, least: int = 1,
             **columns) -> None:
    """Set each column on ``owner`` as a read-only float64 copy of ``size`` values (the first
    column's count if ``None``, and at least ``least``), finite, and positive if named in
    ``positive``."""
    for name, value in columns.items():
        arr = _floats(name, value)
        size = arr.size if size is None else size
        _count(f"the SNP count of {type(owner).__name__}", size, least)
        if arr.shape != (size,):
            raise InputError(f"{name} must have length {size}, got shape {arr.shape}")
        _finite(name, arr, name in positive).setflags(write=False)
        object.__setattr__(owner, name, arr)
