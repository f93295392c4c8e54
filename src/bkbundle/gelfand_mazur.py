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

Every verdict is conservative: "isomorphic" only after the isomorphism
checks pass on fresh samples, "counterexample" only after the witness
has been re-verified, and "inconclusive" whenever neither could be
established.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bundle import Bundle, Section
from .errors import MismatchError, PreconditionError
from .fibers import FiberElement
from .inversion import is_invertible
from .measure import EFunction, Idempotent, PartitionOfUnity, mix
from .sampling import as_rng, random_section, rank_deficient_unit, zero_divisor_pair

__all__ = [
    "GMVerdict",
    "PartVerdict",
    "scalarize",
    "check_unit_support_hypothesis",
    "check_reverse_bound_hypothesis",
    "BoundPartition",
    "bound_partition",
    "ReverseBoundCertificate",
    "certify_reverse_bound",
]

ISO_TOL = 1e-10


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


def check_unit_support_hypothesis(
    bundle: Bundle, samples: int = 500, tol: float = 1e-8, rng=None
) -> GMVerdict:
    """Decide "every full-support section is invertible" for a bundle.

    Structured probes run before any random sampling: a rank-deficient
    norm-one element planted at every higher-dimensional fiber is
    already a counterexample, and it is re-verified before being
    returned.  Purely one-dimensional bundles get the isomorphism,
    verified on fresh random sections.
    """
    rng = as_rng(rng)
    space = bundle.space
    multi = _multi_dim_part(bundle)

    if not multi.is_zero():
        # structured probe; no sampling needed
        values = []
        for d in bundle.descriptors:
            probe = rank_deficient_unit(d)
            values.append(probe if probe is not None else FiberElement.unit(d))
        witness = Section(bundle, values)
        support_ok = witness.norm().support(0.0).is_unit()
        non_invertible = not is_invertible(witness, tol)
        if support_ok and non_invertible:
            return GMVerdict(
                outcome="counterexample",
                checks_run=1,
                tolerance=tol,
                witness=witness,
                localizing=multi,
                detail="rank-deficient unit-support probe",
            )
        # probe did not verify: fall back to random full-support draws
        checks = 1
        for _ in range(samples):
            x = random_section(bundle, rng)
            if not x.norm().support(0.0).is_unit():
                continue
            checks += 1
            if not is_invertible(x, tol):
                return GMVerdict(
                    outcome="counterexample",
                    checks_run=checks,
                    tolerance=tol,
                    witness=x,
                    localizing=multi,
                    detail="random full-support section failed to invert",
                )
        return GMVerdict(
            outcome="inconclusive",
            checks_run=checks,
            tolerance=tol,
            detail="no counterexample found; hypothesis unprovable by sampling "
            "on higher-dimensional fibers",
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


def _zero_divisor_sections(bundle: Bundle) -> tuple[Section, Section]:
    """Structured probe pair: a zero-divisor pair at every atom whose fiber
    has one, the zero element elsewhere."""
    xs = []
    ys = []
    for d in bundle.descriptors:
        pair = zero_divisor_pair(d)
        if pair is None:
            xs.append(FiberElement.zero(d))
            ys.append(FiberElement.zero(d))
        else:
            xs.append(pair[0])
            ys.append(pair[1])
    return Section(bundle, xs), Section(bundle, ys)


def check_reverse_bound_hypothesis(
    bundle: Bundle, samples: int = 500, tol: float = 1e-8, rng=None
) -> GMVerdict:
    """Decide whether some base function m can satisfy
    ``norm(x) norm(y) <= m norm(x y)`` for all sections.

    The base is split by fiber class; each part is decided on its own
    and the per-part verdicts glue along that partition.  One
    dimensional parts certify m == 1 by sampled pointwise equality;
    parts with zero divisors refute every m with a verified witness
    pair, localized by the part's idempotent.
    """
    rng = as_rng(rng)
    space = bundle.space
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

    witness_pair = None
    if not multi.is_zero():
        x, y = _zero_divisor_sections(bundle)
        checks += 1
        # verify: the product vanishes while both norms survive on the part
        prod_zero = (x * y).norm().max_abs() == 0.0
        norms_live = bool(
            (x.norm().real_array()[multi.mask] > 0.0).all()
            and (y.norm().real_array()[multi.mask] > 0.0).all()
        )
        if prod_zero and norms_live:
            witness_pair = (x, y)
            parts.append(
                PartVerdict(
                    multi,
                    "counterexample",
                    "zero divisor pair: norms are 1 on the part, product is 0",
                )
            )
        else:
            # no structured refutation: record the empirical pointwise
            # ratio norm(x) norm(y) / norm(x y) on the part as data
            ratio = 0.0
            for _ in range(samples):
                xs_r = random_section(bundle, rng)
                ys_r = random_section(bundle, rng)
                num = (xs_r.norm() * ys_r.norm()).real_array()[multi.mask]
                den = (xs_r * ys_r).norm().real_array()[multi.mask]
                live = den > tol
                if live.any():
                    ratio = max(ratio, float((num[live] / den[live]).max()))
                checks += 1
            parts.append(
                PartVerdict(
                    multi,
                    "inconclusive",
                    f"zero divisor probe did not verify; empirical max "
                    f"ratio {ratio:.3e}",
                )
            )

    # glue along the partition of the base
    outcomes = {p.outcome for p in parts}
    if "counterexample" in outcomes:
        return GMVerdict(
            outcome="counterexample",
            checks_run=checks,
            tolerance=tol,
            witness_pair=witness_pair,
            localizing=multi,
            parts=parts,
            detail="no base function can dominate a zero divisor part",
        )
    if outcomes == {"isomorphic"}:
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
    levels_per_atom = np.floor(np.maximum(arr, 1.0)).astype(int)
    levels = sorted(set(int(v) for v in levels_per_atom))
    parts = [
        Idempotent(m.space, levels_per_atom == level) for level in levels
    ]
    return BoundPartition(PartitionOfUnity(parts), tuple(levels))


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
    tol: float = 1e-8,
    rng=None,
) -> ReverseBoundCertificate:
    """Check a candidate reverse bound part by part.

    The base is partitioned by the candidate's level sets; on the part
    with level n the constant bound n + 1 dominates the candidate, and
    the sampled inequality ``norm(x) norm(y) <= (n + 1) norm(x y)`` is
    tested pointwise there.  When every part passes, the per-part
    constants glue to a single certified bound function.
    """
    if m.space != bundle.space:
        raise MismatchError("bound and bundle live over different spaces")
    rng = as_rng(rng)
    bp = bound_partition(m)
    cert = ReverseBoundCertificate(passed=True)
    # random pairs rarely come close to a nilpotent direction, so a large
    # candidate would sail through sampling alone; probe the structured
    # zero-divisor pair first, which refutes every finite bound where it
    # exists
    probe = _zero_divisor_sections(bundle)

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
