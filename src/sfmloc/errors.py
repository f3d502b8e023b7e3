"""Exception hierarchy shared by all sfmloc modules, and check_setting,
the one rule book of every setting (this module imports none of them)."""

import math
import numbers


class LocalizationError(Exception):
    """Base class for every error raised by this package."""


# --- dataset parsing -------------------------------------------------------

class MalformedHeader(LocalizationError):
    """File does not start with the expected magic/header line."""


class TruncatedFile(LocalizationError):
    """Input ended mid-record or holds a value that cannot be read."""


class IndexOutOfRange(LocalizationError):
    """A view list references a camera that does not exist."""


class DimensionMismatch(LocalizationError):
    """Descriptors are not 128-D: a keyfile header's length, or a matrix
    to index that is not (n, 128)."""


class CameraListMismatch(LocalizationError):
    """The camera list does not name one image per model camera, names
    two images with one stem, which would share a keyfile, or names an
    image whose stem is ".", ".." or a file the run writes, such as
    mesh.ply."""


class UnknownQuery(LocalizationError):
    """A query image name is missing from the camera list or, when one
    query is selected by name, from the query list."""


class DuplicateQuery(LocalizationError):
    """The query list names an image twice."""


class EmptyTrack(LocalizationError):
    """Descriptor averaging was asked for an empty track."""


# --- matching --------------------------------------------------------------

class EmptyInput(LocalizationError):
    """An operation that needs at least one element got none, or
    backmatching got a model without mean descriptors."""


# --- robust estimation -----------------------------------------------------

class InsufficientMatches(LocalizationError):
    """Fewer distinct correspondences than the minimal sample size."""


class SamplingExhausted(LocalizationError):
    """Co-occurrence sampling hit its restart cap without a full sample."""


class NoSolution(LocalizationError):
    """No solver applies, or no candidate reached the minimum fitted count."""


# --- benchmark / cli -------------------------------------------------------

class MalformedMetadata(LocalizationError):
    """A meta.txt line is malformed or repeats an image, or a query has
    no meta.txt entry."""


class InvalidParams(LocalizationError):
    """Parameter combination violates a documented precondition."""


def check_setting(name: str, value, kind: type = int, choices=(),
                  positive: bool = False, ratio: bool = False, most: float = math.inf) -> None:
    """Raise InvalidParams, naming the setting, unless value passes its rule.

    A ratio is a number in (0, 1], so a tie of the two nearest points
    fails the ratio test; a value with choices is one of them; a float is
    a number within the float range, > 0 if positive; an int is an
    integer in 0..most; None passes where kind admits it.  numpy numbers
    count, a bool does not.
    """
    number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if ratio:
        ok, rule = number and 0 < value <= 1, "in (0, 1]"
    elif choices:
        ok, rule = value in choices, f"one of {', '.join(choices)}"
    elif isinstance(0.5, kind):  # float, or float | None
        try:
            ok = number and math.isfinite(value) and (value > 0 or not positive)
        except OverflowError:  # an int beyond the float range
            ok = False
        rule = "a finite number > 0" if positive else "a finite number"
    else:
        ok = number and isinstance(value, numbers.Integral) and 0 <= value <= most
        rule = "an integer >= 0" if most == math.inf else f"an integer in 0..{most}"
    if not (ok or value is None and isinstance(None, kind)):
        raise InvalidParams(f"{name} {value!r} is not {rule}")
