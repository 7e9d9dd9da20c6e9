"""Shared exception types, and how their messages write an int."""

from reprlib import Repr


class GraphError(ValueError):
    """Invalid graph construction or a graph-operation precondition failure."""


class IdealError(ValueError):
    """Invalid monomial-ideal data or operation arguments."""


class GraphFileError(ValueError):
    """Unparseable graph file; carries a 1-based line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ResourceLimitError(RuntimeError):
    """A configured resource budget (box volume, pivot cap, cycle cap) was hit.

    Budgets fail loudly instead of degrading; the message names the bound.
    """


def _size_text(value):
    """An int in at most 20 digits, else as a power-of-two bound from its
    bit length: str() of an int past Python's int-string digit limit
    raises ValueError."""
    if value.bit_length() <= 64:
        return str(value)
    bound = "at most -2^" if value < 0 else "at least 2^"
    return f"{bound}{value.bit_length() - 1}"


class _Quote(Repr):
    """reprlib's abridged values for error messages, with every int, also
    one inside a tuple or list, written by _size_text: repr() of an int past
    Python's int-string digit limit raises ValueError."""

    def repr_int(self, x, level):
        return _size_text(x)


_quote = _Quote().repr
