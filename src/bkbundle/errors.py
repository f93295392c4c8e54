"""Exception types shared across the package, plus the NotInvertible value."""

from dataclasses import dataclass

__all__ = [
    "AlgebraError",
    "MismatchError",
    "PreconditionError",
    "ConvergenceError",
    "CertificationError",
    "NonFiniteError",
    "ScenarioError",
    "NotInvertible",
]


class AlgebraError(Exception):
    """Base class for every error raised by this package."""


class MismatchError(AlgebraError):
    """Operands live over different spaces, bundles, or fiber descriptors."""


class PreconditionError(AlgebraError):
    """A documented precondition failed.

    Carries the offending atom identifier when one is known, so callers
    can report exactly where a hypothesis broke down.
    """

    def __init__(self, message, atom=None):
        super().__init__(message)
        self.atom = atom


class ConvergenceError(AlgebraError):
    """An iteration hit its cap without meeting its tolerance.

    ``partial`` holds whatever intermediate result existed when the
    iteration gave up; it is not certified.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class CertificationError(AlgebraError):
    """A computed result failed its own a-posteriori certificate."""


class NonFiniteError(AlgebraError, ValueError):
    """An element would hold an infinite or NaN entry, for example after
    arithmetic overflowed."""


class ScenarioError(AlgebraError):
    """A scenario file failed to parse or validate.

    ``path`` is a dotted/indexed location inside the JSON document, for
    example ``sections[1].values.w2``.
    """

    def __init__(self, message, path=""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


@dataclass(frozen=True)
class NotInvertible:
    """The definite answer "no inverse exists"; a value, not a failure.

    ``atoms`` names where invertibility broke down when the question was
    asked of a section; it is empty for a single fiber element.  Falsy so
    callers can branch on the result directly.
    """

    atoms: tuple[str, ...] = ()

    def __bool__(self):
        return False
