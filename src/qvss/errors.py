"""Exception types shared across the package, and its one integer check.

Every argument check goes through ``int_in_range`` (counts, seeds, indices),
``statevector.check_subset`` (1-based subsets of participants, qubits or
share rows) or ``image_io.check_sides`` (image sides), and raises the
built-in ValueError: numpy integers count as ints, and floats, strings,
out-of-range values and repeated subset members are refused at the call.
Two checks raise IndexError instead: a gate's qubit and
``BinaryImage.pixel``'s index.  The classes here cover failures that
callers (notably the CLI) need to tell apart for exit-code purposes.
"""

import operator


def int_in_range(value, low: int, high: int, message: str) -> int:
    """``value`` as a Python int in ``low..high``, numpy integers included;
    anything else (floats and strings too) raises ``ValueError(message.format(value))``."""
    try:
        value = operator.index(value)
    except TypeError:
        pass
    if not (isinstance(value, int) and low <= value <= high):
        raise ValueError(message.format(value))
    return value


class QvssError(Exception):
    """Base class for scheme-specific failures."""


class StateCorruptionError(QvssError):
    """A register's norm drifted beyond the runtime guard."""


class FormatError(QvssError):
    """A byte stream or image violates its format contract."""


class IntegrityError(QvssError):
    """Shares and session do not belong together."""


class IncompleteSharesError(QvssError):
    """Recovery was attempted without all n distinct shares."""
