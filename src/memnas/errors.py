"""Exception types shared across the package, and the readers of JSON fields
and values that raise them."""

import math


class ValidationError(ValueError):
    """An input value or structure violates its contract."""


class ChainError(ValidationError):
    """Consecutive layers of a network skeleton do not chain."""


class ResolutionError(ValidationError):
    """A spatial size cannot be divided through the stride stages."""


class FieldError(ValidationError):
    """A JSON field is missing or mistyped; the message starts with its path."""


class InfeasibleError(RuntimeError):
    """No admissible value exists under the given constraint.

    Attributes carry context for diagnostics: ``stage`` (planner stage
    index, if any) and ``tightest_peak`` (for a search, the exact smallest
    peak that any configuration of the space reaches).
    """

    def __init__(self, message, stage=None, tightest_peak=None):
        super().__init__(message)
        self.stage = stage
        self.tightest_peak = tightest_peak


class PartialDatasetError(RuntimeError):
    """Balanced sampling ran out of retry budget before filling buckets.

    ``occupancy`` maps bucket index to the number of rows collected.
    """

    def __init__(self, message, occupancy):
        super().__init__(message)
        self.occupancy = dict(occupancy)


class TrainingError(RuntimeError):
    """The regression problem is degenerate (e.g. singular with l2=0)."""


def json_field(d, key: str, kind: type | None = None, path: str = ""):
    """``d[key]`` from parsed JSON, checked to be a ``kind`` if given; a
    missing or mistyped field raises FieldError naming its path, with
    ``path`` the path of ``d`` itself."""
    where = f"{path}.{key}" if path else key
    if not isinstance(d, dict):
        raise FieldError(f"{path or 'top level'}: expected an object, got {d!r}")
    if key not in d:
        raise FieldError(f"{where}: missing")
    value = d[key]
    if kind is not None and not isinstance(value, kind):
        raise FieldError(f"{where}: expected a {kind.__name__}, got {value!r}")
    return value


def require_number(
    path: str, value, kind: type | tuple[type, ...] = (int, float), sign: str = ""
) -> None:
    """Raise FieldError naming ``path`` unless ``value`` is a finite ``kind``
    that is ``sign``: "positive", "non-negative" or, if empty, anything; a
    bool, which JSON gives for true and false, is no number here."""
    ok = not isinstance(value, bool) and isinstance(value, kind) and -math.inf < value < math.inf
    if ok and sign:
        ok = value > 0 if sign == "positive" else value >= 0
    if not ok:
        what = f"{sign} {'integer' if kind is int else 'number'}".strip()
        article = "an" if what[0] in "aeiou" else "a"
        raise FieldError(f"{path}: expected {article} {what}, got {value!r}")
