"""Exception hierarchy shared by all sfmloc modules."""


class LocalizationError(Exception):
    """Base class for every error raised by this package."""


# --- dataset parsing -------------------------------------------------------

class MalformedHeader(LocalizationError):
    """File does not start with the expected magic/header line."""


class TruncatedFile(LocalizationError):
    """Input ended in the middle of a record."""


class IndexOutOfRange(LocalizationError):
    """A view list references a camera that does not exist."""


class DimensionMismatch(LocalizationError):
    """Descriptor length in a keyfile header is not 128."""


class CameraListMismatch(LocalizationError):
    """The camera list does not name one image per model camera."""


class UnknownQuery(LocalizationError):
    """A query image name is not present in the camera list."""


class EmptyTrack(LocalizationError):
    """Descriptor averaging was asked for an empty track."""


# --- matching --------------------------------------------------------------

class EmptyInput(LocalizationError):
    """An operation that needs at least one element got none."""


# --- minimal solvers -------------------------------------------------------

class DegenerateConfiguration(LocalizationError):
    """Input geometry is degenerate (collinear points, coincident rays)."""


class NoRealSolution(LocalizationError):
    """The solver polynomial has no physically valid real root."""


# --- robust estimation -----------------------------------------------------

class InsufficientMatches(LocalizationError):
    """Fewer distinct correspondences than the minimal sample size."""


class SamplingExhausted(LocalizationError):
    """Co-occurrence sampling hit its restart cap without a full sample."""


class NoSolution(LocalizationError):
    """No solver applies, or no candidate reached the minimum fitted count."""


# --- benchmark / cli -------------------------------------------------------

class MalformedMetadata(LocalizationError):
    """A meta.txt line is malformed, or a query has no meta.txt entry."""


class InvalidParams(LocalizationError):
    """Parameter combination violates a documented precondition."""
