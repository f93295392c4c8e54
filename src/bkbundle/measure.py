"""Finite atomic measure spaces and the function algebra over them.

The base space is a finite tuple of named atoms carrying strictly
positive masses.  Every atom has positive mass, so "almost everywhere"
collapses to "at every atom" and a measurable function is just one
complex value per atom.  Order convergence of a sequence of functions is
plain pointwise convergence on the atoms, idempotents are indicator
functions of atom subsets, and mixing along a partition of unity is
exact piecewise selection.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import MismatchError, NonFiniteError, PreconditionError

__all__ = [
    "AtomicMeasureSpace",
    "EFunction",
    "Idempotent",
    "PartitionOfUnity",
    "mix",
]


@dataclass(frozen=True)
class AtomicMeasureSpace:
    """A finite purely atomic measure space.

    ``atoms`` are unique identifiers, ``weights`` the (finite, strictly
    positive) masses in the same order.
    """

    atoms: tuple[str, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        atoms = tuple(str(a) for a in self.atoms)
        weights = tuple(float(w) for w in self.weights)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)
        if not atoms:
            raise ValueError("a measure space needs at least one atom")
        if len(set(atoms)) != len(atoms):
            raise ValueError("atom identifiers must be unique")
        if len(weights) != len(atoms):
            raise ValueError("one weight per atom required")
        for atom, w in zip(atoms, weights):
            if not (w > 0.0 and np.isfinite(w)):
                raise ValueError(f"atom {atom!r} needs a finite positive weight")

    @classmethod
    def from_weights(cls, weights: dict[str, float]) -> "AtomicMeasureSpace":
        return cls(tuple(weights), tuple(weights.values()))

    @classmethod
    def uniform(cls, atoms) -> "AtomicMeasureSpace":
        atoms = tuple(atoms)
        return cls(atoms, (1.0,) * len(atoms))

    def __len__(self) -> int:
        return len(self.atoms)

    def index(self, atom: str) -> int:
        try:
            return self.atoms.index(atom)
        except ValueError:
            raise MismatchError(f"unknown atom {atom!r}") from None

    def weight(self, atom: str) -> float:
        return self.weights[self.index(atom)]

    def ordered(self, table: dict) -> list:
        """The values of an atom-keyed dict, in atom order.

        Raises ``MismatchError`` naming the first atom (in atom order)
        the dict lacks, or else the first key that is not an atom.
        """
        missing = [a for a in self.atoms if a not in table]
        if missing:
            raise MismatchError(f"missing value for atom {missing[0]!r}")
        if len(table) != len(self.atoms):
            extra = [a for a in table if a not in self.atoms]
            raise MismatchError(f"unknown atom {extra[0]!r}")
        return [table[a] for a in self.atoms]

    # --- constructors for functions over this space ---

    def efunction(self, values) -> "EFunction":
        return EFunction(self, values)

    def constant(self, value: complex) -> "EFunction":
        return EFunction(self, np.full(len(self), complex(value)))

    def zeros(self) -> "EFunction":
        return self.constant(0.0)

    def ones(self) -> "EFunction":
        return self.constant(1.0)

    def indicator(self, atoms) -> "Idempotent":
        return Idempotent.from_atoms(self, atoms)


def _coerce_values(space: AtomicMeasureSpace, values) -> np.ndarray:
    if isinstance(values, EFunction):
        values = values.values
    if isinstance(values, dict):
        values = space.ordered(values)
    arr = np.asarray(values, dtype=complex)
    if arr.shape != (len(space),):
        raise MismatchError(
            f"expected {len(space)} values, got shape {arr.shape}"
        )
    if not np.isfinite(arr.view(float)).all():
        raise NonFiniteError("function values must be finite")
    return arr


class EFunction:
    """A complex-valued function on the atoms, the working model of the base
    function algebra.  Immutable; arithmetic is pointwise."""

    __slots__ = ("space", "_values")

    def __init__(self, space: AtomicMeasureSpace, values):
        arr = _coerce_values(space, values).copy()
        arr.setflags(write=False)
        self.space = space
        self._values = arr

    @property
    def values(self) -> np.ndarray:
        return self._values

    def value(self, atom: str) -> complex:
        return complex(self._values[self.space.index(atom)])

    def _check_space(self, other: "EFunction"):
        if self.space != other.space:
            raise MismatchError("functions live over different spaces")

    # --- pointwise algebra ---

    def __add__(self, other):
        if isinstance(other, EFunction):
            self._check_space(other)
            return EFunction(self.space, self._values + other._values)
        if isinstance(other, numbers.Complex):
            return EFunction(self.space, self._values + complex(other))
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, EFunction):
            self._check_space(other)
            return EFunction(self.space, self._values - other._values)
        if isinstance(other, numbers.Complex):
            return EFunction(self.space, self._values - complex(other))
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, numbers.Complex):
            return EFunction(self.space, complex(other) - self._values)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, EFunction):
            self._check_space(other)
            return EFunction(self.space, self._values * other._values)
        if isinstance(other, numbers.Complex):
            return EFunction(self.space, self._values * complex(other))
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return EFunction(self.space, -self._values)

    def __abs__(self) -> "EFunction":
        return EFunction(self.space, np.abs(self._values))

    def conj(self) -> "EFunction":
        return EFunction(self.space, np.conj(self._values))

    def reciprocal(self) -> "EFunction":
        """Pointwise inverse; every value must be nonzero."""
        zero = np.abs(self._values) == 0.0
        if zero.any():
            atom = self.space.atoms[int(np.argmax(zero))]
            raise PreconditionError(
                f"function vanishes at atom {atom!r}, not invertible", atom=atom
            )
        return EFunction(self.space, 1.0 / self._values)

    def sqrt(self) -> "EFunction":
        arr = self.real_array()
        if (arr < 0.0).any():
            atom = self.space.atoms[int(np.argmax(arr < 0.0))]
            raise PreconditionError(f"negative value at atom {atom!r}", atom=atom)
        return EFunction(self.space, np.sqrt(arr))

    # --- order structure (real-valued functions only) ---

    def is_real(self) -> bool:
        return bool((self._values.imag == 0.0).all())

    def real_array(self) -> np.ndarray:
        if not self.is_real():
            atom = self.space.atoms[int(np.argmax(self._values.imag != 0.0))]
            raise PreconditionError(
                f"function is not real-valued at atom {atom!r}", atom=atom
            )
        return self._values.real

    def leq(self, other: "EFunction", slack: float = 0.0) -> bool:
        """Pointwise <= against another real-valued function.

        ``slack`` loosens the comparison, useful when either side carries
        floating point noise.
        """
        self._check_space(other)
        return bool((self.real_array() <= other.real_array() + slack).all())

    def strict_lt(self, other: "EFunction") -> bool:
        self._check_space(other)
        return bool((self.real_array() < other.real_array()).all())

    def support(self, tol: float = 0.0) -> "Idempotent":
        """Indicator of the atoms where |value| exceeds ``tol``."""
        return Idempotent(self.space, np.abs(self._values) > tol)

    def max_abs(self) -> float:
        """The sup norm over the atoms."""
        return float(np.abs(self._values).max())

    # --- misc ---

    def __eq__(self, other):
        if not isinstance(other, EFunction):
            return NotImplemented
        return self.space == other.space and bool(
            (self._values == other._values).all()
        )

    __hash__ = None

    def __repr__(self):
        pairs = ", ".join(
            f"{a}: {v:.6g}" for a, v in zip(self.space.atoms, self._values)
        )
        return f"EFunction({pairs})"


class Idempotent:
    """An indicator function of a subset of atoms.

    These are exactly the idempotents of the function algebra; they form
    a Boolean algebra under meet, join, and complement.
    """

    __slots__ = ("space", "_mask")

    def __init__(self, space: AtomicMeasureSpace, mask):
        arr = np.asarray(mask, dtype=bool).copy()
        if arr.shape != (len(space),):
            raise MismatchError(f"expected {len(space)} mask entries")
        arr.setflags(write=False)
        self.space = space
        self._mask = arr

    @classmethod
    def from_atoms(cls, space: AtomicMeasureSpace, atoms) -> "Idempotent":
        mask = np.zeros(len(space), dtype=bool)
        for atom in atoms:
            mask[space.index(atom)] = True
        return cls(space, mask)

    @property
    def mask(self) -> np.ndarray:
        return self._mask

    def atoms(self) -> tuple[str, ...]:
        return tuple(a for a, m in zip(self.space.atoms, self._mask) if m)

    def as_efunction(self) -> EFunction:
        return EFunction(self.space, self._mask.astype(complex))

    def complement(self) -> "Idempotent":
        return Idempotent(self.space, ~self._mask)

    __invert__ = complement

    def _check_space(self, other: "Idempotent"):
        if self.space != other.space:
            raise MismatchError("idempotents live over different spaces")

    def __and__(self, other: "Idempotent") -> "Idempotent":
        self._check_space(other)
        return Idempotent(self.space, self._mask & other._mask)

    def __or__(self, other: "Idempotent") -> "Idempotent":
        self._check_space(other)
        return Idempotent(self.space, self._mask | other._mask)

    def disjoint_from(self, other: "Idempotent") -> bool:
        self._check_space(other)
        return not bool((self._mask & other._mask).any())

    def is_zero(self) -> bool:
        return not bool(self._mask.any())

    def is_unit(self) -> bool:
        return bool(self._mask.all())

    def __mul__(self, other):
        if isinstance(other, Idempotent):
            return self & other
        if isinstance(other, EFunction):
            if self.space != other.space:
                raise MismatchError("idempotent and function spaces differ")
            return EFunction(other.space, np.where(self._mask, other.values, 0.0))
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Idempotent):
            return NotImplemented
        return self.space == other.space and bool((self._mask == other._mask).all())

    __hash__ = None

    def __repr__(self):
        return f"Idempotent({list(self.atoms())!r})"


class PartitionOfUnity:
    """A finite family of pairwise disjoint idempotents joining to 1.

    Zero members are allowed; they simply select nothing.
    """

    __slots__ = ("space", "parts")

    def __init__(self, parts):
        parts = tuple(parts)
        if not parts:
            raise ValueError("a partition needs at least one part")
        space = parts[0].space
        combined = np.zeros(len(space), dtype=int)
        for part in parts:
            if part.space != space:
                raise MismatchError("partition parts live over different spaces")
            combined += part.mask.astype(int)
        if (combined > 1).any():
            atom = space.atoms[int(np.argmax(combined > 1))]
            raise ValueError(f"partition parts overlap at atom {atom!r}")
        if (combined == 0).any():
            atom = space.atoms[int(np.argmax(combined == 0))]
            raise ValueError(f"partition misses atom {atom!r}")
        self.space = space
        self.parts = parts

    @classmethod
    def trivial(cls, space: AtomicMeasureSpace) -> "PartitionOfUnity":
        return cls((Idempotent(space, np.ones(len(space), dtype=bool)),))

    @classmethod
    def from_labels(cls, space: AtomicMeasureSpace, labels) -> "PartitionOfUnity":
        """Group atoms by label; one part per distinct label, in first-seen order."""
        labels = list(labels)
        if len(labels) != len(space):
            raise MismatchError("one label per atom required")
        seen: dict = {}
        for i, lab in enumerate(labels):
            seen.setdefault(lab, []).append(i)
        parts = []
        for lab, idxs in seen.items():
            mask = np.zeros(len(space), dtype=bool)
            mask[idxs] = True
            parts.append(Idempotent(space, mask))
        return cls(parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i) -> Idempotent:
        return self.parts[i]

    def __repr__(self):
        return f"PartitionOfUnity({len(self.parts)} parts over {len(self.space)} atoms)"


def mix(partition: PartitionOfUnity, functions) -> EFunction:
    """Glue functions along a partition: on each part, take that member.

    The result agrees with ``functions[k]`` exactly (bitwise) on the atoms
    of ``partition[k]``; no arithmetic touches the selected values.
    """
    functions = list(functions)
    if len(functions) != len(partition):
        raise MismatchError(
            f"{len(partition)} parts but {len(functions)} functions"
        )
    space = partition.space
    out = np.zeros(len(space), dtype=complex)
    for part, fn in zip(partition, functions):
        if not isinstance(fn, EFunction):
            raise TypeError("mix expects EFunction members")
        if fn.space != space:
            raise MismatchError("mix member lives over a different space")
        out[part.mask] = fn.values[part.mask]
    return EFunction(space, out)
