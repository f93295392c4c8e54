"""Checkers for the scalar-representation hypotheses.

Two classical collapse criteria are probed on concrete bundles.

Unit support: if every section whose norm has full support is
invertible, the section algebra is isomorphic to the base function
algebra.  On a bundle whose fibers are all one-dimensional that
hypothesis holds and the isomorphism is exhibited and verified; any
fiber of higher dimension admits a norm-one non-invertible element, and
planting it (padded with units elsewhere) produces a full-support
non-invertible section, a verified counterexample.

Reverse bound: if ``norm(x) * norm(y) <= m * norm(x y)`` for some base
function m >= 1 and all sections, the same collapse follows.  On
one-dimensional fibers the two sides are equal (m == 1 works); any
fiber with zero divisors kills every candidate m, witnessed by a pair
with ``x y == 0`` but nonvanishing norms.  Mixed bundles are handled by
partitioning the base by fiber class, deciding each part, and gluing
the per-part verdicts along the partition; ``bound_partition`` exposes
the level-set partition used to reduce an arbitrary candidate bound to
constant bounds per part.

Each theorem has one structured probe (``unit_support_probe``,
``zero_divisor_probe``) and one replay predicate
(``is_unit_support_witness``, ``is_zero_divisor_witness``); the checkers,
the CLI and the ``verify`` suite all replay witnesses through these
predicates.  The probes verify on every fiber the package admits, so a
probe that fails its predicate raises ``CertificationError`` rather than
becoming a verdict.

Every verdict is conservative: "isomorphic" only after the isomorphism
checks pass on fresh samples, "counterexample" only after the witness
has been replayed, and "inconclusive" only on one-dimensional parts,
when no sample was evaluated or an isomorphism check failed.  A
negative tolerance is rejected with ``PreconditionError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bundle import Bundle, Section
from .errors import CertificationError, MismatchError, PreconditionError
from .fibers import DEFAULT_TOL, FiberElement
from .inversion import _check_tolerance, is_invertible
from .measure import EFunction, Idempotent, PartitionOfUnity, mix
from .sampling import as_rng, random_section

__all__ = [
    "GMVerdict",
    "PartVerdict",
    "scalarize",
    "unit_support_probe",
    "is_unit_support_witness",
    "zero_divisor_probe",
    "is_zero_divisor_witness",
    "check_unit_support_hypothesis",
    "check_reverse_bound_hypothesis",
    "BoundPartition",
    "bound_partition",
    "ReverseBoundCertificate",
    "certify_reverse_bound",
]

ISO_TOL = 1e-10
# The default number of random samples a hypothesis check evaluates.
DEFAULT_SAMPLES = 500


@dataclass(frozen=True)
class PartVerdict:
    """Outcome of a hypothesis check restricted to one part of the base."""

    part: Idempotent
    outcome: str
    detail: str = ""


@dataclass
class GMVerdict:
    """Result of a hypothesis check.

    ``outcome`` is one of ``"isomorphic"``, ``"counterexample"``,
    ``"inconclusive"``.  Counterexamples carry a replayable witness
    section (or pair) plus the idempotent that localizes the failure;
    isomorphic verdicts carry the measured errors of the isomorphism
    checks.  ``checks_run`` counts the probes and samples actually
    evaluated before the verdict was reached.
    """

    outcome: str
    checks_run: int
    tolerance: float
    witness: Section | None = None
    witness_pair: tuple[Section, Section] | None = None
    localizing: Idempotent | None = None
    iso_errors: dict = field(default_factory=dict)
    parts: list[PartVerdict] = field(default_factory=list)
    detail: str = ""


def scalarize(u: Section) -> EFunction:
    """The base function behind a section of a one-dimensional bundle."""
    values = []
    for atom, v in zip(u.bundle.space.atoms, u.values):
        if v.descriptor.dim != 1:
            raise MismatchError(
                f"fiber at atom {atom!r} is not one-dimensional"
            )
        values.append(complex(v.data.reshape(-1)[0]))
    return EFunction(u.bundle.space, np.array(values))


def _unscalarize(bundle: Bundle, a: EFunction) -> Section:
    values = []
    for d, z in zip(bundle.descriptors, a.values):
        values.append(complex(z) * FiberElement.unit(d))
    return Section(bundle, values)


def _multi_dim_part(bundle: Bundle) -> Idempotent:
    mask = np.array([d.dim > 1 for d in bundle.descriptors])
    return Idempotent(bundle.space, mask)


def unit_support_probe(bundle: Bundle) -> Section:
    """A norm-one section that is not invertible on the part of the base
    where the fiber has dimension > 1.

    Matrix fibers get the corner matrix unit E_00, function fibers the
    first coordinate indicator e_0: both have norm exactly 1 and smallest
    singular value exactly 0.  One-dimensional fibers get the unit.
    """
    return Section(
        bundle,
        [
            FiberElement.unit(d) if d.dim == 1 else FiberElement.basis(d, 0)
            for d in bundle.descriptors
        ],
    )


def is_unit_support_witness(witness: Section, tol: float) -> bool:
    """Replay of a unit-support counterexample: the norm of ``witness``
    has full support, yet ``witness`` is not invertible at ``tol``."""
    return witness.norm().support(0.0).is_unit() and not is_invertible(witness, tol)


def zero_divisor_probe(bundle: Bundle) -> tuple[Section, Section]:
    """Sections x, y with ``x y == 0`` and both norms 1 on the part of the
    base where the fiber has zero divisors, zero elsewhere.

    Matrix fibers get x == y == E_01 (a nilpotent matrix unit), function
    fibers the disjointly supported indicators e_0 and e_1.
    """
    xs = []
    ys = []
    for d in bundle.descriptors:
        if not d.has_zero_divisors():
            x = y = FiberElement.zero(d)
        elif d.kind == "matrix":
            x = y = FiberElement.basis(d, 1)
        else:
            x, y = FiberElement.basis(d, 0), FiberElement.basis(d, 1)
        xs.append(x)
        ys.append(y)
    return Section(bundle, xs), Section(bundle, ys)


def is_zero_divisor_witness(x: Section, y: Section, part: Idempotent) -> bool:
    """Replay of a reverse-bound counterexample: ``x y`` vanishes
    everywhere while the norms of x and y are both positive on ``part``."""
    if (x * y).norm().max_abs() != 0.0:
        return False
    return bool(
        (x.norm().real_array()[part.mask] > 0.0).all()
        and (y.norm().real_array()[part.mask] > 0.0).all()
    )


def check_unit_support_hypothesis(
    bundle: Bundle, samples: int = DEFAULT_SAMPLES, tol: float = DEFAULT_TOL, rng=None
) -> GMVerdict:
    """Decide "every full-support section is invertible" for a bundle.

    A bundle with a fiber of dimension > 1 is refuted by
    ``unit_support_probe``, replayed through ``is_unit_support_witness``
    before it is returned; no sampling is needed.  Purely
    one-dimensional bundles get the isomorphism, verified on fresh
    random sections.  Raises ``PreconditionError`` when ``tol < 0`` and
    ``CertificationError`` if the probe fails its replay.
    """
    _check_tolerance(tol)
    rng = as_rng(rng)
    space = bundle.space
    multi = _multi_dim_part(bundle)

    if not multi.is_zero():
        witness = unit_support_probe(bundle)
        if not is_unit_support_witness(witness, tol):
            raise CertificationError("unit-support probe failed its replay")
        return GMVerdict(
            outcome="counterexample",
            checks_run=1,
            tolerance=tol,
            witness=witness,
            localizing=multi,
            detail="rank-deficient unit-support probe",
        )

    # Every fiber is one-dimensional: the hypothesis holds and the
    # evaluation map IS the isomorphism.  Verify its properties on
    # fresh samples rather than asserting them.
    if samples < 1:
        return GMVerdict(
            outcome="inconclusive",
            checks_run=0,
            tolerance=tol,
            detail="no samples evaluated",
        )
    max_norm_err = 0.0
    max_mult_err = 0.0
    max_lin_err = 0.0
    invertible_checked = 0
    for _ in range(samples):
        x = random_section(bundle, rng)
        y = random_section(bundle, rng)
        ax = scalarize(x)
        ay = scalarize(y)
        max_norm_err = max(
            max_norm_err,
            float(np.abs(x.norm().values - np.abs(ax.values)).max()),
        )
        max_mult_err = max(
            max_mult_err,
            float(np.abs(scalarize(x * y).values - (ax * ay).values).max()),
        )
        max_lin_err = max(
            max_lin_err,
            float(np.abs(scalarize(x + y).values - (ax + ay).values).max()),
        )
        # surjectivity and the hypothesis itself on a full-support draw
        if x.norm().support(0.0).is_unit():
            invertible_checked += 1
            if not is_invertible(x, tol):
                return GMVerdict(
                    outcome="counterexample",
                    checks_run=samples,
                    tolerance=tol,
                    witness=x,
                    localizing=Idempotent(space, np.ones(len(space), dtype=bool)),
                    detail="random full-support section failed to invert",
                )
        back = _unscalarize(bundle, ax)
        if (back - x).norm().max_abs() > ISO_TOL:
            return GMVerdict(
                outcome="inconclusive",
                checks_run=samples,
                tolerance=tol,
                detail="scalarization failed to invert on a sample",
            )

    errors = {
        "isometry": max_norm_err,
        "multiplicative": max_mult_err,
        "linear": max_lin_err,
    }
    if max(errors.values()) > ISO_TOL:
        return GMVerdict(
            outcome="inconclusive",
            checks_run=samples,
            tolerance=tol,
            iso_errors=errors,
            detail="isomorphism checks exceeded tolerance",
        )
    return GMVerdict(
        outcome="isomorphic",
        checks_run=samples,
        tolerance=tol,
        iso_errors={**errors, "invertibility_samples": invertible_checked},
        detail="evaluation map verified as isometric algebra isomorphism",
    )


def check_reverse_bound_hypothesis(
    bundle: Bundle, samples: int = DEFAULT_SAMPLES, tol: float = DEFAULT_TOL, rng=None
) -> GMVerdict:
    """Decide whether some base function m can satisfy
    ``norm(x) norm(y) <= m norm(x y)`` for all sections.

    The base is split by fiber class; each part is decided on its own
    and the per-part verdicts glue along that partition.  One
    dimensional parts certify m == 1 by sampled pointwise equality;
    parts with zero divisors refute every m with ``zero_divisor_probe``,
    replayed through ``is_zero_divisor_witness`` and localized by the
    part's idempotent.  Raises ``PreconditionError`` when ``tol < 0`` and
    ``CertificationError`` if the probe fails its replay.
    """
    _check_tolerance(tol)
    rng = as_rng(rng)
    multi = _multi_dim_part(bundle)
    ones_part = multi.complement()

    parts: list[PartVerdict] = []
    checks = 0

    max_eq_err = 0.0
    if not ones_part.is_zero():
        for _ in range(samples):
            x = random_section(bundle, rng)
            y = random_section(bundle, rng)
            lhs = (x.norm() * y.norm()).real_array()
            rhs = (x * y).norm().real_array()
            err = float(np.abs((lhs - rhs)[ones_part.mask]).max())
            max_eq_err = max(max_eq_err, err)
            checks += 1
        if checks == 0:
            parts.append(PartVerdict(ones_part, "inconclusive", "no samples evaluated"))
        elif max_eq_err <= ISO_TOL:
            parts.append(
                PartVerdict(
                    ones_part,
                    "isomorphic",
                    f"m == 1 certified, max equality error {max_eq_err:.2e}",
                )
            )
        else:
            parts.append(
                PartVerdict(ones_part, "inconclusive", "equality check failed")
            )

    if not multi.is_zero():
        witness_pair = zero_divisor_probe(bundle)
        checks += 1
        if not is_zero_divisor_witness(*witness_pair, multi):
            raise CertificationError("zero divisor probe failed its replay")
        parts.append(
            PartVerdict(
                multi,
                "counterexample",
                "zero divisor pair: norms are 1 on the part, product is 0",
            )
        )
        return GMVerdict(
            outcome="counterexample",
            checks_run=checks,
            tolerance=tol,
            witness_pair=witness_pair,
            localizing=multi,
            parts=parts,
            detail="no base function can dominate a zero divisor part",
        )
    if parts[0].outcome == "isomorphic":
        return GMVerdict(
            outcome="isomorphic",
            checks_run=checks,
            tolerance=tol,
            iso_errors={"equality": max_eq_err},
            parts=parts,
            detail="m == 1 certified on every part",
        )
    return GMVerdict(
        outcome="inconclusive",
        checks_run=checks,
        tolerance=tol,
        parts=parts,
        detail="no part produced a definite verdict",
    )


@dataclass(frozen=True)
class BoundPartition:
    """Level sets of a candidate bound: part k collects the atoms where
    ``levels[k] <= m < levels[k] + 1``."""

    partition: PartitionOfUnity
    levels: tuple[int, ...]


def bound_partition(m: EFunction) -> BoundPartition:
    """Partition the base by the integer level sets of a bound function.

    The candidate must be real and >= 1 everywhere (plugging the unit
    into the reverse bound forces that).  On each returned part the
    bound is dominated by the constant ``level + 1``, which is what
    makes per-part certification possible for unbounded-looking
    candidates.
    """
    arr = m.real_array()
    if (arr < 1.0 - 1e-12).any():
        atom = m.space.atoms[int(np.argmax(arr < 1.0 - 1e-12))]
        raise PreconditionError(
            f"a reverse bound must be >= 1; fails at atom {atom!r}", atom=atom
        )
    # The floors stay floats: a cast to a fixed-width integer would wrap
    # a candidate at or above 2**63.  Python ints hold any floor exactly.
    floors = np.floor(np.maximum(arr, 1.0))
    levels = sorted(set(floors.tolist()))
    parts = [Idempotent(m.space, floors == level) for level in levels]
    return BoundPartition(PartitionOfUnity(parts), tuple(int(v) for v in levels))


@dataclass
class ReverseBoundCertificate:
    """Per-part certification of a candidate reverse bound.

    Each entry decides ``norm(x) norm(y) <= (level + 1) norm(x y)`` on
    its part by sampling; a pass glues to the function bound
    ``mix(partition, [level_k + 1])``, recorded as ``glued_bound``.
    """

    passed: bool
    parts: list[dict] = field(default_factory=list)
    glued_bound: EFunction | None = None


def certify_reverse_bound(
    bundle: Bundle,
    m: EFunction,
    samples: int = 200,
    tol: float = DEFAULT_TOL,
    rng=None,
) -> ReverseBoundCertificate:
    """Check a candidate reverse bound part by part.

    The base is partitioned by the candidate's level sets; on the part
    with level n the constant bound n + 1 dominates the candidate, and
    the sampled inequality ``norm(x) norm(y) <= (n + 1) norm(x y)`` is
    tested pointwise there.  When every part passes, the per-part
    constants glue to a single certified bound function.  Raises
    ``PreconditionError`` when ``tol < 0`` or NaN.
    """
    _check_tolerance(tol)
    if m.space != bundle.space:
        raise MismatchError("bound and bundle live over different spaces")
    rng = as_rng(rng)
    bp = bound_partition(m)
    cert = ReverseBoundCertificate(passed=True)
    # random pairs rarely come close to a nilpotent direction, so a large
    # candidate would sail through sampling alone; probe the structured
    # zero-divisor pair first, which refutes every finite bound where it
    # exists
    probe = zero_divisor_probe(bundle)

    for level, part in zip(bp.levels, bp.partition):
        bound = float(level + 1)
        worst = 0.0
        witness = None
        pairs = [probe] + [
            (random_section(bundle, rng), random_section(bundle, rng))
            for _ in range(samples)
        ]
        for x, y in pairs:
            lhs = (x.norm() * y.norm()).real_array()
            rhs = bound * (x * y).norm().real_array()
            violation = float((lhs - rhs)[part.mask].max())
            if violation > worst:
                worst = violation
                if violation > tol:
                    witness = (x, y)
        entry = {
            "level": level,
            "atoms": list(part.atoms()),
            "bound": bound,
            "max_violation": worst,
            "passed": worst <= tol,
        }
        if witness is not None:
            entry["witness"] = witness
        cert.parts.append(entry)
        if worst > tol:
            cert.passed = False

    if cert.passed:
        constants = [
            bundle.space.constant(float(level + 1)) for level in bp.levels
        ]
        cert.glued_bound = mix(bp.partition, constants)
    return cert
