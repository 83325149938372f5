"""Exception types shared across the package, and the readers of JSON fields
and values that raise them.  The command line exits 2 on a ValidationError,
malformed JSON included, and 3 on an InfeasibleError."""

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
    """No admissible value exists under the given constraint (a planner
    stage, a search cap, a peak band, a dataset bucket).

    Attributes carry context for diagnostics: ``stage`` (planner stage
    index, if any) and ``tightest_peak`` (for a search, the exact smallest
    peak that any configuration of the space reaches).
    """

    def __init__(self, message, stage=None, tightest_peak=None):
        super().__init__(message)
        self.stage = stage
        self.tightest_peak = tightest_peak


def json_field(d, key: str, kind: type | None = None, path: str = "", index: int | None = None):
    """``d[key]`` from parsed JSON, checked to be a ``kind`` if given; a
    missing or mistyped field raises FieldError naming its path, with
    ``path`` the path of ``d`` itself or, given an ``index``, of the list
    that holds ``d`` at that index.  The path is built only for an error."""
    if not isinstance(d, dict):
        raise FieldError(f"{_path(path, index) or 'top level'}: expected an object, got {d!r}")
    if key not in d:
        raise FieldError(f"{_path(path, index, key)}: missing")
    value = d[key]
    if kind is not None and not isinstance(value, kind):
        raise FieldError(f"{_path(path, index, key)}: expected a {kind.__name__}, got {value!r}")
    return value


def _path(path: str, index: int | None, key: str = "") -> str:
    if index is not None:
        path = f"{path}[{index}]"
    return f"{path}.{key}" if path and key else path or key


def require_number(
    path: str,
    value,
    kind: type | tuple[type, ...] = (int, float),
    sign: str = "",
    limit: int | None = None,
) -> None:
    """Raise FieldError naming ``path`` unless ``value`` is a finite ``kind``
    that is ``sign``: "positive", "non-negative" or, if empty, anything, and
    at most ``limit`` if given; a bool, which JSON gives for true and false,
    is no number here."""
    ok = not isinstance(value, bool) and isinstance(value, kind) and -math.inf < value < math.inf
    if ok and sign:
        ok = value > 0 if sign == "positive" else value >= 0
    if not ok or limit is not None and value > limit:
        what = f"{sign} {'integer' if kind is int else 'number'}".strip()
        article = "an" if what[0] in "aeiou" else "a"
        # the bound is named only when it is the one check the number fails
        bound = f" of at most {limit}" if ok else ""
        raise FieldError(f"{path}: expected {article} {what}{bound}, got {_shown(value)}")


def _shown(value) -> str:
    """``repr(value)``, or the bit length of an integer too long to read."""
    if isinstance(value, int) and value.bit_length() > 64:
        return f"an integer of {value.bit_length()} bits"
    return repr(value)
