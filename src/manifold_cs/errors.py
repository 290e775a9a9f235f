"""Shared exception types, and the one check that refuses a parameter out of its range, shape or finiteness."""


class ResourceLimitError(RuntimeError):
    """An operation was refused because its projected cost exceeds the desk-scale budget."""


class CsvParseError(ValueError):
    """A CSV point-cloud file could not be parsed; carries the offending row number."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class TooFewPointsError(ValueError):
    """A cloud has fewer points than a dictionary build needs to fit its planes."""


class FileFormatError(ValueError):
    """A dictionary/matrix container file is malformed or has an unknown version."""


class BoundOverflowError(ArithmeticError):
    """A closed-form bound, or a step on the way to it, is not a finite float64 at the given parameters."""


class ParameterError(ValueError):
    """A parameter out of its range: "<name> must be <need>, got <value!r>", name the library parameter's."""

    def __init__(self, name, need, value):
        self.name, self.need, self.value = name, need, value
        super().__init__(self.renamed({}))

    def renamed(self, names):
        """The message with the parameter named as names maps it (a flag, a config key), or as itself."""
        return "%s must be %s, got %r" % (names.get(self.name, self.name), self.need, self.value)


def is_number(value, integer=False):
    """Whether value is a Python or numpy real number, not a bool; with integer, a Python or numpy integer."""
    if isinstance(value, bool):
        return False
    if isinstance(value, int) or isinstance(value, float) and not integer:
        return True
    kind = getattr(getattr(value, "dtype", None), "kind", "?")
    return getattr(value, "ndim", None) == 0 and kind in ("iu" if integer else "iuf")


def require(ok, name, value, need):
    """Raise ParameterError(name, need, value) unless ok."""
    if not ok:
        raise ParameterError(name, need, value)


def require_integer(name, value, low, high=None):
    """value as an int; ParameterError unless it is an integer (``is_number``) in [low, high] ([low, inf) for None)."""
    need = "an integer >= %d" % low if high is None else "an integer in [%d, %d]" % (low, high)
    require(is_number(value, integer=True) and low <= value and (high is None or value <= high), name, value, need)
    return int(value)


def require_shape(name, array, *dims):
    """ParameterError unless array's shape is dims: an int fixes that length, a str (its symbol) leaves it free."""
    shape = tuple(array.shape)
    ok = len(shape) == len(dims) and all(isinstance(want, str) or want == got for want, got in zip(dims, shape))
    require(ok, name, shape, "shaped (%s%s)" % (", ".join(map(str, dims)), "," if len(dims) == 1 else ""))


def require_finite(name, array):
    """ParameterError unless a numpy array is finite, naming its first row (a vector's first entry) that is not."""
    finite = abs(array) < float("inf")  # False at NaN and at either infinity
    if not finite.all():
        k = int(finite.argmin())  # the first entry that is not, in row-major order
        at = "at entry %d" % k if array.ndim < 2 else "in row %d" % (k // (array.size // len(array)))
        raise ParameterError(name, "finite " + at, float(array.flat[k]))
