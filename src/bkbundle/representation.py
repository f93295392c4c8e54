"""Evaluation fibers, quotient norms, and bundle reconstruction.

Fixing an atom gives a seminorm on sections (the function-valued norm
evaluated there) whose null space is an ideal.  The quotient of the
section algebra by that ideal is, atom by atom, exactly the concrete
fiber algebra, and the quotient norm

    inf { sup-norm of v : u - v in the ideal }

agrees with the seminorm.  ``quotient_norm`` computes that infimum the
slow honest way, by minimizing over every indicator truncation of the
section, precisely so it can serve as an independent cross-check of the
direct seminorm; do not shortcut one through the other.

The second half implements inner-product modules of atomwise complex
vectors and their bounded-operator bundles, with a sampled validation
that the function-valued supremum formula for the operator norm meets
the singular value norm.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .bundle import Bundle, Section
from .errors import CertificationError, MismatchError
from .fibers import FiberDescriptor, FiberElement
from .measure import AtomicMeasureSpace, EFunction
from .sampling import as_rng, random_section

__all__ = [
    "evaluation_seminorm",
    "quotient_norm",
    "QuotientFiber",
    "CheckRecord",
    "ReconstructionReport",
    "reconstruct_bundle",
    "HKModule",
    "HKElement",
    "hk_inner",
    "hk_norm",
    "apply_operator",
    "OperatorNormReport",
    "operator_algebra",
]

EQUALITY_TOL = 1e-10
_BRUTE_FORCE_ATOM_LIMIT = 16


def evaluation_seminorm(u: Section, atom: str) -> float:
    """The seminorm of a section at one atom: its fiber norm there."""
    return u.value(atom).norm()


def quotient_norm(u: Section, atom: str) -> float:
    """Quotient norm of the class of ``u`` at an atom, by brute force.

    Minimizes the sup norm over every representative of the form
    "indicator truncation of u": subsets of atoms that keep the class
    (they must contain ``atom`` unless the seminorm already vanishes
    there).  The result is checked against the direct seminorm at
    tolerance 1e-10 before being returned.
    """
    space = u.bundle.space
    if len(space) > _BRUTE_FORCE_ATOM_LIMIT:
        raise MismatchError(
            f"brute force enumeration is limited to {_BRUTE_FORCE_ATOM_LIMIT} atoms"
        )
    i = space.index(atom)
    norms = u.norm().real_array()

    # One row per subset of atoms: bit j of the row number keeps atom j.
    keep = (np.arange(1 << len(space))[:, None] >> np.arange(len(space))) & 1 == 1
    # admissible iff dropping the complement does not change the class
    # at the atom
    admissible = keep[:, i] | (norms[i] == 0.0)
    best = float(np.where(keep[admissible], norms, 0.0).max(axis=1).min())

    direct = float(norms[i])
    if abs(best - direct) > EQUALITY_TOL:
        raise CertificationError(
            f"quotient norm {best:.12g} disagrees with the seminorm "
            f"{direct:.12g} at atom {atom!r}"
        )
    return best


@dataclass(frozen=True)
class QuotientFiber:
    """The quotient of the section algebra at one atom.

    On an atomic base the quotient map is evaluation, so the fiber is
    the concrete algebra sitting at the atom and ``evaluate`` realizes
    the canonical projection.
    """

    bundle: Bundle
    atom: str

    def descriptor(self) -> FiberDescriptor:
        return self.bundle.descriptor(self.atom)

    def evaluate(self, u: Section) -> FiberElement:
        if u.bundle != self.bundle:
            raise MismatchError("section lives over a different bundle")
        return u.value(self.atom)

    def seminorm(self, u: Section) -> float:
        return evaluation_seminorm(u, self.atom)

    def quotient_norm(self, u: Section) -> float:
        return quotient_norm(u, self.atom)

    def ideal_contains(self, u: Section) -> bool:
        """Whether ``u`` lies in the null ideal of this atom's seminorm."""
        return self.seminorm(u) == 0.0


@dataclass(frozen=True)
class CheckRecord:
    name: str
    passed: bool
    max_error: float
    detail: str = ""


@dataclass
class ReconstructionReport:
    checks: list[CheckRecord] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def record(self, name: str, max_error: float, tol: float):
        self.checks.append(CheckRecord(name, max_error <= tol, float(max_error)))


def reconstruct_bundle(
    sections, rng=None, pair_samples: int = 50
) -> tuple[Bundle, ReconstructionReport]:
    """Rebuild the bundle from its sections through the quotient fibers.

    Returns the reconstructed bundle together with a report verifying
    that the evaluation map into it is linear, multiplicative, unital,
    and isometric (the quotient norm against the function-valued norm),
    on the given sections and random pairs drawn from them.
    """
    sections = list(sections)
    if not sections:
        raise ValueError("need at least one section to reconstruct from")
    source = sections[0].bundle
    for s in sections:
        if s.bundle != source:
            raise MismatchError("sections live over different bundles")
    space = source.space

    # The fiber over each atom is the image of evaluation; it carries the
    # same concrete descriptor, which is what makes the isometry check
    # below meaningful rather than circular by construction.
    rebuilt = Bundle(space, source.descriptors)
    fibers = [QuotientFiber(source, atom) for atom in space.atoms]

    def project(u: Section) -> Section:
        return Section(rebuilt, [f.evaluate(u) for f in fibers])

    report = ReconstructionReport()
    rng = as_rng(rng)

    pairs = list(itertools.combinations(range(len(sections)), 2))
    if len(pairs) > pair_samples:
        idx = rng.choice(len(pairs), size=pair_samples, replace=False)
        pairs = [pairs[int(k)] for k in idx]
    if not pairs:
        pairs = [(0, 0)]

    lin_err = 0.0
    mul_err = 0.0
    for i, j in pairs:
        u, v = sections[i], sections[j]
        c = complex(rng.standard_normal() + 1j * rng.standard_normal())
        left = project(u + c * v)
        right = project(u) + c * project(v)
        lin_err = max(lin_err, (left - right).norm().max_abs())
        left = project(u * v)
        right = project(u) * project(v)
        mul_err = max(mul_err, (left - right).norm().max_abs())
    report.record("linear", lin_err, EQUALITY_TOL)
    report.record("multiplicative", mul_err, EQUALITY_TOL)

    unit_err = (project(source.unit()) - rebuilt.unit()).norm().max_abs()
    report.record("unit", unit_err, 0.0)

    iso_err = 0.0
    quot_err = 0.0
    for u in sections:
        image = project(u)
        iso_err = max(
            iso_err, float(np.abs(image.norm().values - u.norm().values).max())
        )
        for atom in space.atoms:
            quot_err = max(
                quot_err,
                abs(quotient_norm(u, atom) - evaluation_seminorm(u, atom)),
            )
    report.record("isometric", iso_err, EQUALITY_TOL)
    report.record("quotient_norm_equality", quot_err, EQUALITY_TOL)

    return rebuilt, report


# --- inner-product modules of atomwise vectors ---


@dataclass(frozen=True)
class HKModule:
    """Atomwise complex vectors with a function-valued inner product.

    ``dims`` gives the vector dimension at each atom (1 to 8).  The
    inner product of two elements is the function whose value at an atom
    is the standard Hermitian product of the vectors there.
    """

    space: AtomicMeasureSpace
    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if len(dims) != len(self.space):
            raise MismatchError("one dimension per atom required")
        for d in dims:
            if not 1 <= d <= 8:
                raise ValueError("vector dimensions must lie in 1..8")

    @classmethod
    def of(cls, space: AtomicMeasureSpace, dims) -> "HKModule":
        if isinstance(dims, numbers.Integral):
            return cls(space, (int(dims),) * len(space))
        if isinstance(dims, dict):
            return cls(space, tuple(space.ordered(dims)))
        return cls(space, tuple(dims))

    def dim(self, atom: str) -> int:
        return self.dims[self.space.index(atom)]

    def element(self, values) -> "HKElement":
        return HKElement(self, values)

    def zero(self) -> "HKElement":
        return HKElement(self, [np.zeros(d) for d in self.dims])


class HKElement:
    """One complex vector per atom."""

    __slots__ = ("module", "_vectors")

    def __init__(self, module: HKModule, values):
        if isinstance(values, dict):
            values = module.space.ordered(values)
        values = tuple(values)
        if len(values) != len(module.space):
            raise MismatchError(
                f"{len(module.space)} atoms but {len(values)} vectors"
            )
        vectors = []
        for atom, d, v in zip(module.space.atoms, module.dims, values):
            arr = np.asarray(v, dtype=complex).copy()
            if arr.shape != (d,):
                raise MismatchError(
                    f"atom {atom!r} expects a vector of length {d}, got {arr.shape}"
                )
            arr.setflags(write=False)
            vectors.append(arr)
        self.module = module
        self._vectors = tuple(vectors)

    @property
    def vectors(self) -> tuple[np.ndarray, ...]:
        return self._vectors

    def vector(self, atom: str) -> np.ndarray:
        return self._vectors[self.module.space.index(atom)]

    def _check(self, other: "HKElement"):
        if self.module != other.module:
            raise MismatchError("elements live over different modules")

    def __add__(self, other):
        if isinstance(other, HKElement):
            self._check(other)
            return HKElement(
                self.module, [a + b for a, b in zip(self._vectors, other._vectors)]
            )
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, HKElement):
            self._check(other)
            return HKElement(
                self.module, [a - b for a, b in zip(self._vectors, other._vectors)]
            )
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, numbers.Complex):
            return HKElement(self.module, [complex(other) * v for v in self._vectors])
        if isinstance(other, EFunction):
            if other.space != self.module.space:
                raise MismatchError("function lives over a different space")
            return HKElement(
                self.module,
                [complex(c) * v for c, v in zip(other.values, self._vectors)],
            )
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return HKElement(self.module, [-v for v in self._vectors])


def hk_inner(x: HKElement, y: HKElement) -> EFunction:
    """Function-valued inner product, linear in the first slot."""
    x._check(y)
    values = [
        complex(np.sum(a * np.conj(b))) for a, b in zip(x.vectors, y.vectors)
    ]
    return EFunction(x.module.space, np.array(values))


def hk_norm(x: HKElement) -> EFunction:
    # computed as sum |a_i|^2 rather than <x, x>: the latter picks up a
    # ~1e-17 imaginary rounding residue from complex multiplication
    values = [np.sqrt(float(np.sum(np.abs(v) ** 2))) for v in x.vectors]
    return EFunction(x.module.space, np.array(values, dtype=complex))


def apply_operator(t: Section, x: HKElement) -> HKElement:
    """Apply a section of the operator bundle to a module element."""
    space = x.module.space
    if t.bundle.space != space:
        raise MismatchError("operator and element live over different spaces")
    out = []
    for d, op, v in zip(x.module.dims, t.values, x.vectors):
        # a scalar operator is the 1 x 1 matrix it equals
        if op.descriptor.kind == "function" or op.descriptor.dim != d * d:
            raise MismatchError(
                f"operator fiber {op.descriptor.label()} does not act on "
                f"dimension {d}"
            )
        out.append(op.data.reshape(d, d) @ v)
    return HKElement(x.module, out)


@dataclass
class OperatorNormReport:
    """Sampled validation of the supremum formula for operator norms.

    For each random operator and atom the unit ball is sampled, the best
    sample refined by including the top singular direction (itself a
    legitimate point of the unit ball), and the sampled supremum is
    compared with the singular value norm: no sample may exceed it, and
    the two must meet within the tolerance.
    """

    operators: int
    samples_per_fiber: int
    tolerance: float
    max_overshoot: float = 0.0
    max_gap: float = 0.0
    passed: bool = True
    failures: list[dict] = field(default_factory=list)


def operator_algebra(
    module: HKModule,
    operators: int = 5,
    samples: int = 10_000,
    tol: float = 1e-6,
    rng=None,
) -> tuple[Bundle, OperatorNormReport]:
    """The bundle of bounded operators on an inner-product module.

    The fiber at an atom of dimension d is the full matrix algebra on d
    dimensions (the scalar algebra when d == 1), normed by the largest
    singular value.  The returned report validates, on random operator
    sections, that the function-valued supremum formula

        norm(T) = sup { norm(T x) : norm(x) <= 1 }

    evaluated by sampling unit vectors meets that norm within ``tol``.
    """
    rng = as_rng(rng)
    descriptors = tuple(
        FiberDescriptor.scalar() if d == 1 else FiberDescriptor.matrix(d)
        for d in module.dims
    )
    bundle = Bundle(module.space, descriptors)

    report = OperatorNormReport(operators, samples, tol)
    for k in range(operators):
        t = random_section(bundle, rng)
        for atom, d, op in zip(module.space.atoms, module.dims, t.values):
            mat = op.data.reshape(d, d)
            upper = op.norm()

            draws = rng.standard_normal((samples, d)) + 1j * rng.standard_normal(
                (samples, d)
            )
            draws /= np.sqrt((np.abs(draws) ** 2).sum(axis=1, keepdims=True))
            values = np.sqrt((np.abs(draws @ mat.T) ** 2).sum(axis=1))
            # the true maximizer is also a unit vector; include it in the
            # sample set so the supremum is achieved, not just approached
            _, vecs = linalg.hermitian_eigensystem(mat.conj().T @ mat)
            top = vecs[:, -1]
            witness = float(np.sqrt((np.abs(mat @ top) ** 2).sum()))
            sampled_sup = max(float(values.max()), witness)

            overshoot = sampled_sup - upper
            gap = upper - sampled_sup
            report.max_overshoot = max(report.max_overshoot, overshoot)
            report.max_gap = max(report.max_gap, gap)
            if overshoot > 1e-9 or gap > tol:
                report.passed = False
                report.failures.append(
                    {
                        "operator": k,
                        "atom": atom,
                        "norm": upper,
                        "sampled_sup": sampled_sup,
                    }
                )
    return bundle, report
