"""Measurable bundles of fiber algebras and their section algebra.

A bundle assigns one concrete fiber algebra to each atom of a finite
atomic measure space.  A section picks one fiber element per atom.  With
the function-valued norm ``section.norm()`` (one fiber norm per atom)
the sections form a Banach-Kantorovich algebra over the base function
algebra: the norm is function-valued, multiplication is fiberwise, and
the base algebra acts by pointwise scaling.

Because every atom carries positive mass, a class of measurable sections
has exactly one everywhere-defined representative; the lifting maps that
select representatives are therefore identities here, but they are kept
as named operations because everything downstream is phrased through
them.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import MismatchError, PreconditionError
from .fibers import FiberDescriptor, FiberElement, fill_norms
from .measure import AtomicMeasureSpace, EFunction, Idempotent, PartitionOfUnity

__all__ = [
    "Bundle",
    "Section",
    "d_decompose",
    "lifting",
    "vector_lifting",
    "mix_sections",
]


@dataclass(frozen=True)
class Bundle:
    """A fiber algebra for every atom of the base space."""

    space: AtomicMeasureSpace
    descriptors: tuple[FiberDescriptor, ...]

    def __post_init__(self):
        descriptors = tuple(self.descriptors)
        object.__setattr__(self, "descriptors", descriptors)
        if len(descriptors) != len(self.space):
            raise MismatchError("one fiber descriptor per atom required")
        for d in descriptors:
            if not isinstance(d, FiberDescriptor):
                raise TypeError("descriptors must be FiberDescriptor instances")

    @classmethod
    def of(cls, space: AtomicMeasureSpace, descriptors) -> "Bundle":
        """Build from a mapping atom -> descriptor, or one descriptor for all."""
        if isinstance(descriptors, FiberDescriptor):
            return cls(space, (descriptors,) * len(space))
        if isinstance(descriptors, dict):
            return cls(space, tuple(space.ordered(descriptors)))
        return cls(space, tuple(descriptors))

    def descriptor(self, atom: str) -> FiberDescriptor:
        return self.descriptors[self.space.index(atom)]

    def section(self, values) -> "Section":
        return Section(self, values)

    def unit(self) -> "Section":
        return Section(self, [FiberElement.unit(d) for d in self.descriptors])

    def zero(self) -> "Section":
        return Section(self, [FiberElement.zero(d) for d in self.descriptors])

    def is_scalar_like(self) -> bool:
        """True when every fiber is one-dimensional."""
        return all(d.dim == 1 for d in self.descriptors)

    def __repr__(self):
        labels = ", ".join(
            f"{a}: {d.label()}" for a, d in zip(self.space.atoms, self.descriptors)
        )
        return f"Bundle({labels})"


class Section:
    """One fiber element per atom; the elements of the section algebra."""

    __slots__ = ("bundle", "_values")

    def __init__(self, bundle: Bundle, values):
        if isinstance(values, dict):
            values = bundle.space.ordered(values)
        values = tuple(values)
        if len(values) != len(bundle.space):
            raise MismatchError("one fiber element per atom required")
        for atom, d, v in zip(bundle.space.atoms, bundle.descriptors, values):
            if not isinstance(v, FiberElement):
                raise TypeError(f"value at atom {atom!r} is not a FiberElement")
            if v.descriptor != d:
                raise MismatchError(
                    f"atom {atom!r} expects a {d.label()} element, got "
                    f"{v.descriptor.label()}"
                )
        self.bundle = bundle
        self._values = values

    @property
    def values(self) -> tuple[FiberElement, ...]:
        return self._values

    def value(self, atom: str) -> FiberElement:
        return self._values[self.bundle.space.index(atom)]

    def _check_bundle(self, other: "Section"):
        if self.bundle != other.bundle:
            raise MismatchError("sections live over different bundles")

    # --- algebra ---

    def __add__(self, other):
        if isinstance(other, Section):
            self._check_bundle(other)
            return Section(
                self.bundle, [a + b for a, b in zip(self._values, other._values)]
            )
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, Section):
            self._check_bundle(other)
            return Section(
                self.bundle, [a - b for a, b in zip(self._values, other._values)]
            )
        return NotImplemented

    def __neg__(self):
        return Section(self.bundle, [-a for a in self._values])

    def __mul__(self, other):
        if isinstance(other, Section):
            self._check_bundle(other)
            return Section(
                self.bundle, [a * b for a, b in zip(self._values, other._values)]
            )
        if isinstance(other, numbers.Complex):
            return Section(self.bundle, [a * complex(other) for a in self._values])
        if isinstance(other, EFunction):
            return self._module_mul(other)
        if isinstance(other, Idempotent):
            return self._module_mul(other.as_efunction())
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (numbers.Complex, EFunction, Idempotent)):
            return self.__mul__(other)
        return NotImplemented

    def _module_mul(self, a: EFunction) -> "Section":
        """The module action of the base algebra: scale the fiber at each
        atom by the function value there."""
        if a.space != self.bundle.space:
            raise MismatchError("function and section live over different spaces")
        return Section(
            self.bundle,
            [complex(c) * v for c, v in zip(a.values, self._values)],
        )

    # --- norm ---

    def norm(self) -> EFunction:
        """The function-valued norm: at each atom, the fiber norm there.

        Matrix fibers of one size are normed in one stacked kernel call
        (see :func:`fibers.fill_norms`).
        """
        fill_norms(self._values)
        return EFunction(
            self.bundle.space, np.array([v.norm() for v in self._values])
        )

    def sup_norm(self) -> float:
        return self.norm().max_abs()

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self._values)

    def __eq__(self, other):
        if not isinstance(other, Section):
            return NotImplemented
        return self.bundle == other.bundle and all(
            a == b for a, b in zip(self._values, other._values)
        )

    __hash__ = None

    def __repr__(self):
        return f"Section over {self.bundle!r}"


def lifting(a: EFunction) -> EFunction:
    """Select the everywhere-defined representative of a function class.

    On a finite atomic space each class has exactly one representative,
    so this is the identity; it exists so algebraic identities can be
    stated and tested in the same shape they hold in general.
    """
    if not isinstance(a, EFunction):
        raise TypeError("lifting applies to EFunction values")
    return a


def vector_lifting(u: Section) -> Section:
    """Representative selection for sections; the identity map here.

    Together with :func:`lifting` it satisfies, and the test suite
    checks: linearity, compatibility with the module action, unit
    preservation, norm compatibility, multiplicativity, and positivity
    of the selected representatives' norms.
    """
    if not isinstance(u, Section):
        raise TypeError("vector_lifting applies to Section values")
    return u


def d_decompose(u: Section, lam1: EFunction, lam2: EFunction) -> tuple[Section, Section]:
    """Split u into x1 + x2 with ``norm(x_k) == lam_k``.

    The weights must be real, nonnegative, disjointly supported, and sum
    to ``u.norm()``.  Each atom's fiber element goes wholly to the side
    whose weight is positive there; atoms where both weights vanish get
    the zero element on both sides.
    """
    space = u.bundle.space
    for name, lam in (("lam1", lam1), ("lam2", lam2)):
        if lam.space != space:
            raise MismatchError(f"{name} lives over a different space")
        arr = lam.real_array()
        if (arr < -1e-12).any():
            atom = space.atoms[int(np.argmax(arr < -1e-12))]
            raise PreconditionError(
                f"{name} is negative at atom {atom!r}", atom=atom
            )

    a1 = lam1.real_array()
    a2 = lam2.real_array()
    norms = u.norm().real_array()

    bad_sum = np.abs(a1 + a2 - norms) > 1e-10
    if bad_sum.any():
        atom = space.atoms[int(np.argmax(bad_sum))]
        raise PreconditionError(
            f"weights do not sum to the norm at atom {atom!r}", atom=atom
        )
    bad_prod = np.abs(a1 * a2) > 1e-12
    if bad_prod.any():
        atom = space.atoms[int(np.argmax(bad_prod))]
        raise PreconditionError(
            f"weights are not disjointly supported at atom {atom!r}", atom=atom
        )

    mask1 = a1 > 0.0
    mask2 = (a2 > 0.0) & ~mask1
    x1 = Idempotent(space, mask1) * u
    x2 = Idempotent(space, mask2) * u
    return x1, x2


def mix_sections(partition: PartitionOfUnity, sections) -> Section:
    """Glue sections along a partition of the base space.

    All members must live over one common bundle.  On the atoms of
    ``partition[k]`` the result is exactly ``sections[k]``; the glue is
    selection, not arithmetic, so no rounding enters.
    """
    sections = list(sections)
    if len(sections) != len(partition):
        raise MismatchError(
            f"{len(partition)} parts but {len(sections)} sections"
        )
    if not sections:
        raise ValueError("nothing to mix")
    bundle = sections[0].bundle
    for s in sections:
        if not isinstance(s, Section):
            raise TypeError("mix_sections expects Section members")
        if s.bundle != bundle:
            raise MismatchError("mix members live over different bundles")
    if partition.space != bundle.space:
        raise MismatchError("partition and sections live over different spaces")

    values = list(bundle.zero().values)
    for part, s in zip(partition, sections):
        for i in np.flatnonzero(part.mask):
            values[i] = s.values[i]
    return Section(bundle, values)
