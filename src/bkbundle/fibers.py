"""Concrete unital Banach algebras used as fibers.

Three kinds are provided:

* ``scalar``: the complex numbers with the modulus norm,
* ``matrix(n)``: n x n complex matrices (1 <= n <= 8) with the operator
  norm (largest singular value),
* ``function(k)``: pointwise algebras of k complex values with the sup
  norm; a finite stand-in for a C(K) algebra.

All three have submultiplicative norms with ``norm(unit) == 1``.
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

__all__ = ["FiberDescriptor", "FiberElement", "KINDS", "fill_norms"]

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
    computed on first use and kept."""

    __slots__ = ("descriptor", "_data", "_norm")

    def __init__(self, descriptor: FiberDescriptor, data):
        arr = np.asarray(data, dtype=complex).copy()
        if arr.shape != descriptor.shape:
            raise MismatchError(
                f"{descriptor.label()} element needs shape {descriptor.shape}, "
                f"got {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise NonFiniteError("fiber element entries must be finite")
        arr.setflags(write=False)
        self.descriptor = descriptor
        self._data = arr
        self._norm = None

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
        if descriptor.kind == "scalar":
            return cls(descriptor, 1.0)
        if descriptor.kind == "matrix":
            return cls(descriptor, np.eye(descriptor.size))
        return cls(descriptor, np.ones(descriptor.size))

    @classmethod
    def zero(cls, descriptor: FiberDescriptor) -> "FiberElement":
        return cls(descriptor, np.zeros(descriptor.shape))

    @classmethod
    def matrix_unit(cls, n: int, i: int, j: int) -> "FiberElement":
        """The matrix with a single 1 in row i, column j (zero-based)."""
        m = np.zeros((n, n))
        m[i, j] = 1.0
        return cls(FiberDescriptor.matrix(n), m)

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
            return FiberElement(self.descriptor, self._data + other._data)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, FiberElement):
            self._check_descriptor(other)
            return FiberElement(self.descriptor, self._data - other._data)
        return NotImplemented

    def __neg__(self):
        return FiberElement(self.descriptor, -self._data)

    def __mul__(self, other):
        if isinstance(other, FiberElement):
            self._check_descriptor(other)
            if self.descriptor.kind == "matrix":
                return FiberElement(self.descriptor, self._data @ other._data)
            return FiberElement(self.descriptor, self._data * other._data)
        if isinstance(other, numbers.Complex):
            return FiberElement(self.descriptor, self._data * complex(other))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, numbers.Complex):
            return FiberElement(self.descriptor, self._data * complex(other))
        return NotImplemented

    # --- analysis ---

    def norm(self) -> float:
        """The Banach algebra norm: modulus, operator norm, or sup norm."""
        if self._norm is None:
            if self.descriptor.kind == "scalar":
                self._norm = float(abs(self._data))
            elif self.descriptor.kind == "function":
                self._norm = float(np.abs(self._data).max())
            elif self.descriptor.size == 1:
                self._norm = float(abs(self._data[0, 0]))
            else:
                self._norm = linalg.operator_norm(self._data)
        return self._norm

    def smallest_singular_value(self) -> float:
        if self.descriptor.kind == "scalar":
            return float(abs(self._data))
        if self.descriptor.kind == "function":
            return float(np.abs(self._data).min())
        return linalg.smallest_singular_value(self._data)

    def inverse(self, tol: float = SIGMA_TOL) -> "FiberElement | NotInvertible":
        """Multiplicative inverse, or the falsy NotInvertible value.

        Not invertible means: smallest singular value <= tol.  For the
        matrix kind the result is certified by its left and right
        residuals R, first by frobenius(R) >= norm(R) and by the operator
        norms only when that bound misses ``tol``; a Newton refinement
        step follows each miss, for at most three checks.
        """
        if self.smallest_singular_value() <= tol:
            return NotInvertible()
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

        Scalars and function elements read their spectra off directly.
        Matrices go through the characteristic polynomial and a
        Durand-Kerner root iteration; every returned root is certified
        against the polynomial with a residual scaled to the polynomial's
        magnitude, and against the spectral radius bound |lambda| <=
        norm + tol.
        """
        if self.descriptor.kind == "scalar":
            values = [complex(self._data)]
        elif self.descriptor.kind == "function":
            values = [complex(v) for v in self._data]
        else:
            values = self._matrix_spectrum(tol)
        return tuple(sorted(values, key=lambda z: (z.real, z.imag)))

    def _matrix_spectrum(self, tol: float) -> list[complex]:
        a = self._data
        n = self.descriptor.size
        if n == 1:
            return [complex(a[0, 0])]
        norm = self.norm()
        coeffs = linalg.characteristic_polynomial(a)
        roots, _, iterations = linalg.polynomial_roots(coeffs, norm + 1.0)

        # Certify every root against det(z I - a).  The residual scale
        # makes the test mean "root of a relatively perturbed polynomial",
        # which is what double precision can actually promise.  A NaN
        # root (overflowed coefficients) fails both comparisons.
        for z in roots:
            powers = np.abs(z) ** np.arange(len(coeffs) - 1, -1, -1)
            scale = max(1.0, float((np.abs(coeffs) * powers).sum()))
            residual = abs(complex(np.polyval(coeffs, z)))
            if not (residual <= tol * scale and abs(z) <= norm + tol):
                raise ConvergenceError(
                    f"eigenvalue iteration failed certification after "
                    f"{iterations} iterations",
                    partial=[complex(z) for z in roots],
                )
        return [complex(z) for z in roots]

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


def fill_norms(elements) -> None:
    """Compute the missing norms of the matrix elements of size >= 3.

    The elements of each size that has at least two of them go to
    ``linalg.singular_values`` as one stack, and each keeps the top value
    as its norm.  A lone element is left to ``norm()``.
    """
    stacks: dict[int, list[FiberElement]] = {}
    for el in elements:
        if el._norm is None and el.descriptor.kind == "matrix" and el.descriptor.size >= 3:
            stacks.setdefault(el.descriptor.size, []).append(el)
    for group in stacks.values():
        if len(group) >= 2:
            tops = linalg.singular_values(np.stack([el._data for el in group]))[:, -1]
            for el, top in zip(group, tops.tolist()):
                el._norm = top
