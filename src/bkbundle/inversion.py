"""Invertibility in the section algebra, with certified error bounds.

Two routes to an inverse coexist deliberately.  ``inverse`` works
atomwise through exact fiber inversion and answers ``NotInvertible``
(a value, not an exception) when some fiber fails the singular value
threshold.  ``neumann_inverse`` sums the geometric series for
``(e - x)^{-1}`` under the strict contraction hypothesis, by repeated
squaring, and returns a certificate: the order summed, the achieved
residual, and both sides of the function-valued tail bound

    norm((e - x)^{-1} - e)  <=  norm(x) * (1 - norm(x))^{-1}.

``perturbed_inverse`` composes the two: it certifies the quantitative
perturbation bound

    norm((x + h)^{-1} - x^{-1})  <=  2 * norm(x^{-1})^2 * norm(h)

pointwise, valid whenever 2 * norm(h) is strictly below norm(x^{-1})^{-1}
at every atom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bundle import Section, mix_sections
from .errors import CertificationError, NotInvertible, PreconditionError
from .fibers import DEFAULT_TOL, SIGMA_TOL, fill_norms, smallest_singular_values
from .measure import EFunction, PartitionOfUnity

__all__ = [
    "NotInvertible",
    "InverseCertificate",
    "neumann_inverse",
    "is_invertible",
    "inverse",
    "perturbed_inverse",
    "inverse_of_mix",
    "NEUMANN_ORDER_CAP",
]

NEUMANN_ORDER_CAP = 10**6
BOUND_SLACK_TOL = 1e-9
MIX_AGREEMENT_TOL = 1e-10


@dataclass(frozen=True)
class InverseCertificate:
    """An inverse together with the evidence that it is one.

    ``residual`` is the function-valued defect ``norm(x * inv - e)``
    for the element that was inverted.  ``truncation_order`` is the
    highest power of the series that was summed, or the string
    ``"exact"`` when the series terminated early because a power
    vanished.  ``achieved`` and ``bound`` are the two sides of the
    certificate's pointwise inequality ``achieved <= bound``;
    ``bound_slack`` is their gap, nonnegative up to rounding.
    """

    inverse: Section
    residual: EFunction
    truncation_order: int | str
    achieved: EFunction
    bound: EFunction

    @property
    def bound_slack(self) -> EFunction:
        return self.bound - self.achieved


def _strict_contraction_order(r: float, tol: float) -> int:
    """Smallest N with r^(N+1) / (1 - r) <= tol, for 0 <= r < 1."""
    if r <= 0.0:
        return 0
    target = tol * (1.0 - r)
    if target >= r:
        return 0
    n = max(0, math.ceil(math.log(target) / math.log(r)) - 1)
    while r ** (n + 1) > target and n < NEUMANN_ORDER_CAP + 1:
        n += 1
    return n


def neumann_inverse(x: Section, tol: float = DEFAULT_TOL) -> InverseCertificate:
    """Certified inverse of ``e - x`` by summing the geometric series.

    Requires ``tol > 0`` and ``x.norm() < 1`` strictly at every atom.  The
    required order N is chosen atomwise from the tail bound and the maximum
    is used for all atoms; orders beyond 10**6 are refused.  The partial sum
    is formed by repeated squaring, (e + x)(e + x^2)(e + x^4)..., until
    the highest power summed, 2^k - 1, reaches N: about 2 log2(N)
    section products instead of N.  The residual and tail sections are
    normed together, one singular value stack per matrix size.
    """
    if not tol > 0.0:
        raise PreconditionError(f"tolerance must be > 0, got {tol!r}")
    bundle = x.bundle
    space = bundle.space
    r = x.norm()
    ones = space.ones()
    rvals = r.real_array()
    if (rvals >= 1.0).any():
        atom = space.atoms[int(np.argmax(rvals >= 1.0))]
        raise PreconditionError(
            f"norm(x) must be strictly below 1 everywhere; fails at atom "
            f"{atom!r} with value {rvals[space.index(atom)]:.6g}",
            atom=atom,
        )

    orders = [_strict_contraction_order(float(v), tol) for v in rvals]
    order = max(orders)
    if order > NEUMANN_ORDER_CAP:
        worst = space.atoms[int(np.argmax(orders))]
        raise PreconditionError(
            f"series order {order} exceeds the cap {NEUMANN_ORDER_CAP} "
            f"(worst atom {worst!r})",
            atom=worst,
        )

    e = bundle.unit()
    total = e
    power = x  # x^(summed + 1), a power of two
    summed = 0  # total is e + x + ... + x^summed
    while summed < order and not power.is_zero():
        total = total + total * power
        summed = 2 * summed + 1
        if summed < order:
            power = power * power
    truncation = summed if summed >= order else "exact"

    defect, tail = (e - x) * total - e, total - e
    fill_norms(defect.values + tail.values)
    residual, lhs = defect.norm(), tail.norm()
    rhs = r * (ones - r).reciprocal()
    slack = rhs - lhs

    if not residual.leq(space.constant(tol), slack=1e-15):
        raise CertificationError(
            f"series residual {residual.max_abs():.3e} misses tolerance {tol:.1e}"
        )
    if (slack.real_array() < -BOUND_SLACK_TOL).any():
        raise CertificationError(
            "tail bound violated beyond rounding slack "
            f"({slack.real_array().min():.3e})"
        )
    return InverseCertificate(total, residual, truncation, lhs, rhs)


def _check_tolerance(tol: float):
    if not tol >= 0.0:
        raise PreconditionError(f"tolerance must be >= 0, got {tol!r}")


def inverse(x: Section, tol: float = SIGMA_TOL) -> Section | NotInvertible:
    """Atomwise exact inverse, or ``NotInvertible`` naming the failing atoms.

    An atom fails exactly when the fiber's smallest singular value, taken
    first for all fibers in one stack per matrix size, is at most ``tol``.
    Raises ``PreconditionError`` when ``tol < 0`` or NaN.
    """
    _check_tolerance(tol)
    sigmas = smallest_singular_values(x.values)
    values = [v.inverse(tol, sigma=s) for v, s in zip(x.values, sigmas)]
    failed = [a for a, v in zip(x.bundle.space.atoms, values) if isinstance(v, NotInvertible)]
    if failed:
        return NotInvertible(tuple(failed))
    return Section(x.bundle, values)


def is_invertible(x: Section, tol: float = SIGMA_TOL) -> bool:
    return isinstance(inverse(x, tol), Section)


def perturbed_inverse(x: Section, h: Section, tol: float = DEFAULT_TOL) -> InverseCertificate:
    """Certified inverse of ``x + h`` for a small perturbation ``h``.

    Requires ``tol > 0``, ``x`` invertible and ``2 * norm(h) * norm(x^{-1})
    < 1`` at every atom.  Writes ``x + h = (e + h x^{-1}) x`` and inverts the
    bracket with the geometric series, so the result is
    ``x^{-1} * (e + h x^{-1})^{-1}``.  The certificate's ``achieved``
    and ``bound`` are the two sides of the perturbation inequality above.
    """
    if not tol > 0.0:
        raise PreconditionError(f"tolerance must be > 0, got {tol!r}")
    if h.bundle != x.bundle:
        raise PreconditionError("x and h live over different bundles")
    space = x.bundle.space

    xinv = inverse(x)
    if isinstance(xinv, NotInvertible):
        raise PreconditionError(
            f"x is not invertible at atoms {list(xinv.atoms)}", atom=xinv.atoms[0]
        )
    ninv = xinv.norm()

    margin = 2.0 * h.norm() * ninv
    mvals = margin.real_array()
    if (mvals >= 1.0).any():
        atom = space.atoms[int(np.argmax(mvals >= 1.0))]
        raise PreconditionError(
            "perturbation too large: 2 norm(h) norm(x^-1) must stay below 1, "
            f"fails at atom {atom!r}",
            atom=atom,
        )

    # (x + h)^{-1} = x^{-1} (e + h x^{-1})^{-1}; the bracket is e - y
    # with y = -h x^{-1} and norm(y) < 1/2.
    y = -(h * xinv)
    series = neumann_inverse(y, tol=tol / 2.0)
    result = xinv * series.inverse

    residual = ((x + h) * result - x.bundle.unit()).norm()
    if not residual.leq(space.constant(tol), slack=1e-15):
        raise CertificationError(
            f"perturbed inverse residual {residual.max_abs():.3e} misses "
            f"tolerance {tol:.1e}"
        )

    lhs = (result - xinv).norm()
    rhs = 2.0 * ninv * ninv * h.norm()
    slack = rhs - lhs
    if (slack.real_array() < -BOUND_SLACK_TOL).any():
        raise CertificationError(
            "perturbation bound violated beyond rounding slack "
            f"({slack.real_array().min():.3e})"
        )
    return InverseCertificate(result, residual, series.truncation_order, lhs, rhs)


def inverse_of_mix(partition: PartitionOfUnity, sections) -> Section:
    """Inverse of a mixture, checked against the mixture of inverses.

    Every member must be invertible.  The two evaluation orders (mix
    then invert, invert then mix) are compared pointwise and must agree
    within ``MIX_AGREEMENT_TOL``; they select identical fiber
    computations here, so the comparison is exact up to bitwise identity.
    """
    sections = list(sections)
    member_inverses = []
    for k, s in enumerate(sections):
        inv = inverse(s)
        if isinstance(inv, NotInvertible):
            raise PreconditionError(
                f"mix member {k} is not invertible at atoms {list(inv.atoms)}",
                atom=inv.atoms[0],
            )
        member_inverses.append(inv)

    mixed = mix_sections(partition, sections)
    direct = inverse(mixed)
    if isinstance(direct, NotInvertible):
        raise CertificationError(
            f"mixture lost invertibility at atoms {list(direct.atoms)}"
        )
    glued = mix_sections(partition, member_inverses)

    gap = (direct - glued).norm().max_abs()
    if gap > MIX_AGREEMENT_TOL:
        raise CertificationError(
            f"mix/invert order disagreement {gap:.3e} exceeds {MIX_AGREEMENT_TOL:.1e}"
        )
    return direct
