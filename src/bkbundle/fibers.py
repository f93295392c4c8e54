"""Concrete unital Banach algebras used as fibers.

Two algebras are provided:

* ``matrix(n)``: n x n complex matrices (1 <= n <= 8) with the operator
  norm (largest singular value),
* ``function(k)``: pointwise algebras of k complex values with the sup
  norm; a finite stand-in for a C(K) algebra.  The ``scalar`` kind, the
  complex numbers with the modulus, is the pointwise algebra on one point.

Both have submultiplicative norms with ``norm(unit) == 1``, and
``FiberElement.basis`` gives the element with a single 1 at a flat position.
Invertibility is decided by the smallest singular value against a
threshold, never by whether elimination happens to break down, so "not
invertible" is an answer rather than an error.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    CertificationError,
    ConvergenceError,
    MismatchError,
    NonFiniteError,
    NotInvertible,
)

__all__ = ["FiberDescriptor", "FiberElement", "KINDS", "fill_norms", "smallest_singular_values"]

KINDS = ("scalar", "matrix", "function")

MAX_MATRIX_DIM = 8
MAX_FUNCTION_POINTS = 64

# The package-wide defaults: the certification tolerance, and the
# smallest singular value at or below which an element is not invertible.
DEFAULT_TOL = 1e-8
SIGMA_TOL = 1e-10


@dataclass(frozen=True)
class FiberDescriptor:
    """Which concrete algebra sits at an atom.

    ``size`` is the matrix dimension n, the point count k, or 1 for
    scalars.
    """

    kind: str
    size: int = 1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown fiber kind {self.kind!r}")
        if self.kind == "scalar" and self.size != 1:
            raise ValueError("scalar fibers have size 1")
        if self.kind == "matrix" and not 1 <= self.size <= MAX_MATRIX_DIM:
            raise ValueError(
                f"matrix dimension must lie in 1..{MAX_MATRIX_DIM}, got {self.size}"
            )
        if self.kind == "function" and not 1 <= self.size <= MAX_FUNCTION_POINTS:
            raise ValueError(
                f"function point count must lie in 1..{MAX_FUNCTION_POINTS}"
            )

    @classmethod
    def scalar(cls) -> "FiberDescriptor":
        return cls("scalar", 1)

    @classmethod
    def matrix(cls, n: int) -> "FiberDescriptor":
        return cls("matrix", int(n))

    @classmethod
    def function(cls, k: int) -> "FiberDescriptor":
        return cls("function", int(k))

    @property
    def dim(self) -> int:
        """Linear dimension of the algebra."""
        if self.kind == "matrix":
            return self.size * self.size
        return self.size

    @property
    def shape(self) -> tuple[int, ...]:
        if self.kind == "scalar":
            return ()
        if self.kind == "matrix":
            return (self.size, self.size)
        return (self.size,)

    def label(self) -> str:
        if self.kind == "scalar":
            return "scalar"
        return f"{self.kind}({self.size})"

    def has_zero_divisors(self) -> bool:
        """True when the algebra contains nonzero x, y with x y = 0."""
        return self.dim > 1


class FiberElement:
    """An element of one concrete fiber algebra.  Immutable; its norm is
    computed on first use and kept.  The public constructors copy their
    input and check its shape and finiteness; the results of ``+ - * @``,
    unary minus and scalar multiplication are checked for finiteness only."""

    __slots__ = ("descriptor", "_data", "_norm")

    def __init__(self, descriptor: FiberDescriptor, data):
        arr = np.asarray(data, dtype=complex).copy()
        if arr.shape != descriptor.shape:
            raise MismatchError(
                f"{descriptor.label()} element needs shape {descriptor.shape}, "
                f"got {arr.shape}"
            )
        self._set(descriptor, arr)

    def _set(self, descriptor: FiberDescriptor, arr: np.ndarray) -> "FiberElement":
        """Keep ``arr``, read-only, as the data once it is checked finite."""
        if not np.isfinite(arr).all():
            raise NonFiniteError("fiber element entries must be finite")
        arr.setflags(write=False)
        self.descriptor, self._data, self._norm = descriptor, arr, None
        return self

    @classmethod
    def _from_result(cls, descriptor: FiberDescriptor, data) -> "FiberElement":
        """Wrap a fresh arithmetic result without a copy (``np.asarray`` keeps
        a 0-d one an ndarray); data from outside goes through ``__init__``."""
        return object.__new__(cls)._set(descriptor, np.asarray(data))

    # --- constructors ---

    @classmethod
    def scalar(cls, value: complex) -> "FiberElement":
        return cls(FiberDescriptor.scalar(), complex(value))

    @classmethod
    def matrix(cls, entries) -> "FiberElement":
        arr = np.asarray(entries, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise MismatchError("matrix element needs a square array")
        return cls(FiberDescriptor.matrix(arr.shape[0]), arr)

    @classmethod
    def function(cls, values) -> "FiberElement":
        arr = np.asarray(values, dtype=complex)
        if arr.ndim != 1:
            raise MismatchError("function element needs a flat value list")
        return cls(FiberDescriptor.function(arr.shape[0]), arr)

    @classmethod
    def unit(cls, descriptor: FiberDescriptor) -> "FiberElement":
        if descriptor.kind == "matrix":
            return cls(descriptor, np.eye(descriptor.size))
        return cls(descriptor, np.ones(descriptor.shape))

    @classmethod
    def zero(cls, descriptor: FiberDescriptor) -> "FiberElement":
        return cls(descriptor, np.zeros(descriptor.shape))

    @classmethod
    def basis(cls, descriptor: FiberDescriptor, k: int) -> "FiberElement":
        """The element with a single 1 at flat position k: the matrix unit
        E_ij at k = i * n + j, or the coordinate indicator e_k."""
        return cls(descriptor, np.eye(descriptor.dim)[k].reshape(descriptor.shape))

    # --- data access ---

    @property
    def data(self) -> np.ndarray:
        return self._data

    def is_zero(self) -> bool:
        return bool((self._data == 0.0).all())

    def _check_descriptor(self, other: "FiberElement"):
        if self.descriptor != other.descriptor:
            raise MismatchError(
                f"cannot combine {self.descriptor.label()} with "
                f"{other.descriptor.label()}"
            )

    # --- algebra ---

    def __add__(self, other):
        if isinstance(other, FiberElement):
            self._check_descriptor(other)
            return self._from_result(self.descriptor, self._data + other._data)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, FiberElement):
            self._check_descriptor(other)
            return self._from_result(self.descriptor, self._data - other._data)
        return NotImplemented

    def __neg__(self):
        return self._from_result(self.descriptor, -self._data)

    def __mul__(self, other):
        if isinstance(other, FiberElement):
            self._check_descriptor(other)
            if self.descriptor.kind == "matrix":
                return self._from_result(self.descriptor, self._data @ other._data)
            return self._from_result(self.descriptor, self._data * other._data)
        if isinstance(other, numbers.Complex):
            return self._from_result(self.descriptor, self._data * complex(other))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, numbers.Complex):
            return self._from_result(self.descriptor, self._data * complex(other))
        return NotImplemented

    # --- analysis ---

    def norm(self) -> float:
        """The Banach algebra norm: modulus, operator norm, or sup norm."""
        if self._norm is None:
            if self.descriptor.kind != "matrix":
                self._norm = float(np.abs(self._data).max())
            elif self.descriptor.size == 1:
                self._norm = float(abs(self._data[0, 0]))
            else:
                self._norm = linalg.operator_norm(self._data)
        return self._norm

    def smallest_singular_value(self) -> float:
        return smallest_singular_values([self])[0]

    def inverse(
        self, tol: float = SIGMA_TOL, sigma: float | None = None
    ) -> "FiberElement | NotInvertible":
        """Multiplicative inverse, or the falsy NotInvertible value.

        Not invertible means: smallest singular value <= tol; a caller that
        already has that value passes it as ``sigma``.  For the
        matrix kind the result is certified by its left and right
        residuals R, first by frobenius(R) >= norm(R) and by the operator
        norms only when that bound misses ``tol``; a Newton refinement
        step follows each miss, for at most three checks.
        """
        if (self.smallest_singular_value() if sigma is None else sigma) <= tol:
            return NotInvertible()
        # Scalars keep Python's complex division, which seeded reports carry:
        # numpy's 1 / z rounds differently for 26,092 of 100,000 normal z.
        if self.descriptor.kind == "scalar":
            return FiberElement(self.descriptor, 1.0 / complex(self._data))
        if self.descriptor.kind == "function":
            return FiberElement(self.descriptor, 1.0 / self._data)

        a = self._data
        n = self.descriptor.size
        inv = linalg.gauss_jordan_inverse(a)
        eye = np.eye(n)
        for _ in range(3):
            left, right = a @ inv - eye, inv @ a - eye
            if max(linalg.frobenius(left), linalg.frobenius(right)) <= tol:
                return FiberElement(self.descriptor, inv)
            residual = max(linalg.operator_norm(left), linalg.operator_norm(right))
            if residual <= tol:
                return FiberElement(self.descriptor, inv)
            inv = inv @ (2.0 * eye - a @ inv)
        raise CertificationError(
            f"inverse residual {residual:.3e} not certifiable at tolerance {tol:.1e}"
        )

    def spectrum(self, tol: float = DEFAULT_TOL) -> tuple[complex, ...]:
        """All eigenvalues (with multiplicity), sorted by (real, imag).

        Scalars, function elements and 1 x 1 matrices read their spectra
        off directly.  A larger matrix x returns the diagonal of its Schur
        form (``linalg.schur``), accepted when the backward error bound
        delta is at most tol max(1, norm(x)): the values are then exactly
        the spectrum of some x + E with norm(E) <= delta, so none is
        missing, each has sigma_min(x - z e) <= delta and
        |z| <= norm(x) + delta.  Otherwise it raises ConvergenceError.
        """
        if self.descriptor.kind != "matrix" or self.descriptor.size == 1:
            values = [complex(v) for v in self._data.reshape(-1)]
        else:
            values = self._matrix_spectrum(tol)
        return tuple(sorted(values, key=lambda z: (z.real, z.imag)))

    def _matrix_spectrum(self, tol: float) -> list[complex]:
        _, t, delta = linalg.schur(self._data)
        values = t.diagonal().tolist()
        bound = tol * max(1.0, self.norm())
        if not delta <= bound:
            raise ConvergenceError(
                f"Schur backward error {delta:.3e} exceeds {bound:.3e}", partial=values
            )
        return values

    # --- misc ---

    def __eq__(self, other):
        if not isinstance(other, FiberElement):
            return NotImplemented
        return self.descriptor == other.descriptor and bool(
            (self._data == other._data).all()
        )

    __hash__ = None

    def __repr__(self):
        return f"FiberElement({self.descriptor.label()}, {self._data!r})"


def _matrix_stacks(elements, least: int = 1) -> list[tuple[list[int], np.ndarray]]:
    """(positions, stack) for each matrix size with at least ``least`` elements."""
    groups: dict[int, list[int]] = {}
    for i, el in enumerate(elements):
        if el.descriptor.kind == "matrix":
            groups.setdefault(el.descriptor.size, []).append(i)
    stacks = [p for p in groups.values() if len(p) >= least]
    return [(p, np.stack([elements[i]._data for i in p])) for p in stacks]


def fill_norms(elements) -> None:
    """Compute the missing norms of the matrix elements of size >= 3.

    The elements of each size that has at least two of them go to
    ``linalg.singular_values`` as one stack, and each keeps the top value
    as its norm.  A lone element is left to ``norm()``.
    """
    pending = [el for el in elements if el._norm is None and el.descriptor.size >= 3]
    for positions, stack in _matrix_stacks(pending, least=2):
        for i, top in zip(positions, linalg.singular_values(stack)[:, -1].tolist()):
            pending[i]._norm = top


def smallest_singular_values(elements) -> list[float]:
    """``smallest_singular_value()`` of each element of a sequence: one
    ``linalg.singular_values`` stack per matrix size, a lone matrix
    included, gives bitwise the one-matrix values."""
    sigmas = [float(np.abs(el._data).min()) for el in elements]
    for positions, stack in _matrix_stacks(elements):
        for i, low in zip(positions, linalg.singular_values(stack)[:, 0].tolist()):
            sigmas[i] = low
    return sigmas
