"""The full invariant suite behind the ``verify`` command.

Each check draws its own deterministic stream (seed plus check name), so
checks can run in any order, or alone, without shifting each other's
samples.  A check is a generator: for each case it judges it yields one
``_Evidence`` record (the cases judged, the error folded into
``max_error``, the witnesses that failed, an optional note).  One runner,
``_outcome``, keeps the books of a check: it sums the cases, keeps the
largest error and the first five witnesses, and fails a check that
judged no case.  An ``AlgebraError`` raised inside a check (arithmetic on
an overflowing scenario section, say) fails that check alone, with the
message as its witness and the cases it judged before; the other checks
still run.  The report passes only when every check does.

The suite intentionally re-derives expected values through independent
routes where the library offers two (series inverse against exact
inverse, brute-force quotient norm against the direct seminorm, spectrum
membership through eigenvalue tables against singular value tests).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import gelfand_mazur, representation, spectrum
from .bundle import Bundle, Section, d_decompose, lifting, mix_sections, vector_lifting
from .errors import AlgebraError
from .fibers import DEFAULT_TOL, FiberElement, fill_norms
from .inversion import (
    NotInvertible,
    inverse,
    inverse_of_mix,
    neumann_inverse,
    perturbed_inverse,
)
from .measure import EFunction, Idempotent, mix
from .sampling import (
    derive_rng,
    random_efunction,
    random_fiber_element,
    random_invertible_section,
    random_partition,
    random_real_efunction,
    random_section,
    random_section_with_norm,
)

__all__ = ["CheckOutcome", "VerificationReport", "run_verification"]


@dataclass
class CheckOutcome:
    name: str
    passed: bool
    cases: int
    max_error: float = 0.0
    failures: list[dict] = field(default_factory=list)
    detail: str = ""

    def fail(self, witness: dict):
        self.passed = False
        if len(self.failures) < 5:
            self.failures.append(witness)


@dataclass
class VerificationReport:
    seed: int
    samples: int
    tolerance: float
    checks: list[CheckOutcome] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


class _Evidence(NamedTuple):
    """What a check yields: ``cases`` judged (0 for a failure that judged
    no case), the error folded into ``max_error``, the witnesses of the
    laws that failed, and a note for the report."""

    cases: int = 1
    error: float = 0.0
    failed: Sequence[dict] = ()
    note: str = ""


def _case(*judged, error=0.0, cases=1, note="") -> _Evidence:
    """The record of one case from its ``(failed, witness)`` law pairs."""
    return _Evidence(cases, error, [witness for failed, witness in judged if failed], note)


def _outcome(name: str, evidence) -> CheckOutcome:
    """The outcome of one check from the records it yields, in order."""
    out = CheckOutcome(name, True, 0)
    try:
        for ev in evidence:
            out.cases += ev.cases
            out.max_error = max(out.max_error, ev.error)
            for witness in ev.failed:
                out.fail(witness)
            if ev.note:
                out.detail = ev.note
    except AlgebraError as exc:
        out.fail({"error": str(exc)})
    if out.cases == 0:
        out.fail({"law": "at least one case evaluated"})
    return out


def _distinct_descriptors(bundle: Bundle):
    return list(dict.fromkeys(bundle.descriptors))


# --- base algebra checks ---


def _check_efunction_laws(rng, bundle, sections, samples, tol, cap):
    space = bundle.space
    for _ in range(min(samples, 200)):
        a = random_efunction(space, rng)
        b = random_efunction(space, rng)
        c = random_efunction(space, rng)
        checks = {
            "assoc-add": ((a + b) + c) - (a + (b + c)),
            "assoc-mul": ((a * b) * c) - (a * (b * c)),
            "comm-mul": (a * b) - (b * a),
            "distrib": (a * (b + c)) - (a * b + a * c),
            "unit": (a * space.ones()) - a,
        }
        errors = {name: diff.max_abs() for name, diff in checks.items()}
        yield _case(*[(err > 1e-12, {"law": name, "error": err}) for name, err in errors.items()],
                    error=max(errors.values()))


def _check_mix_locality(rng, bundle, sections, samples, tol, cap):
    space = bundle.space
    for _ in range(min(samples, 200)):
        p = random_partition(space, rng)
        fns = [random_efunction(space, rng) for _ in p]
        mixed = mix(p, fns)
        yield _case(*[
            (not np.array_equal(mixed.values[part.mask], fn.values[part.mask]),
             {"law": "selection is exact"})
            for part, fn in zip(p, fns)
        ])


def _check_order_convergence(rng, bundle, sections, samples, tol, cap):
    # On a finite atomic base, order convergence is pointwise convergence;
    # a geometric perturbation must converge at every atom and uniformly.
    space = bundle.space
    for _ in range(min(samples, 50)):
        a = random_efunction(space, rng)
        b = random_efunction(space, rng)
        sup_gaps = []
        for n in range(0, 61, 10):
            an = a + (2.0 ** (-n)) * b
            sup_gaps.append((an - a).max_abs())
        yield _case(
            (not all(x >= y for x, y in zip(sup_gaps, sup_gaps[1:])), {"law": "monotone decrease"}),
            (sup_gaps[-1] > 1e-15 * max(1.0, b.max_abs()),
             {"law": "limit reached", "residual": sup_gaps[-1]}),
        )


# --- fiber checks ---


def _check_fiber_norm_axioms(rng, bundle, sections, samples, tol, cap):
    for desc in _distinct_descriptors(bundle):
        kind = desc.label()
        yield _case(
            (FiberElement.unit(desc).norm() != 1.0, {"kind": kind, "law": "unit norm"}),
            (FiberElement.zero(desc).norm() != 0.0, {"kind": kind, "law": "zero norm"}),
            cases=0,
        )
        for _ in range(min(samples, 300)):
            a = random_fiber_element(desc, rng)
            b = random_fiber_element(desc, rng)
            c = complex(rng.standard_normal() + 1j * rng.standard_normal())
            na, nb = a.norm(), b.norm()
            err = abs((c * a).norm() - abs(c) * na)
            err = max(err, (a + b).norm() - (na + nb))
            scale = max(1.0, abs(c) * na)
            yield _case((err > 1e-9 * scale, {"kind": kind, "error": err}), error=err / scale)


def _check_fiber_submultiplicative(rng, bundle, sections, samples, tol, cap):
    # the norms of each block of 1,000 (a, b, a b) triples are taken in
    # one stacked kernel call per matrix size
    for desc in _distinct_descriptors(bundle):
        kind = desc.label()
        cases = max(samples, 1000)
        for start in range(0, cases, 1000):
            triples = []
            for _ in range(min(1000, cases - start)):
                a = random_fiber_element(desc, rng)
                b = random_fiber_element(desc, rng)
                triples.append((a, b, a * b))
            fill_norms([el for triple in triples for el in triple])
            for a, b, ab in triples:
                gap = ab.norm() - a.norm() * b.norm()
                bound = 1e-9 * max(1.0, a.norm() * b.norm())
                yield _case((gap > bound, {"kind": kind, "gap": gap}), error=gap)


def _check_fiber_spectral_radius(rng, bundle, sections, samples, tol, cap):
    for desc in _distinct_descriptors(bundle):
        kind = desc.label()
        for _ in range(min(samples, 100)):
            a = random_fiber_element(desc, rng)
            radius = max(abs(z) for z in a.spectrum(tol))
            gap = radius - a.norm()
            yield _case((gap > 1e-8, {"kind": kind, "excess": gap}), error=gap)


def _check_fiber_inverse_involution(rng, bundle, sections, samples, tol, cap):
    for desc in _distinct_descriptors(bundle):
        kind = desc.label()
        count = 0
        while count < min(samples, 200):
            a = random_fiber_element(desc, rng)
            if a.smallest_singular_value() <= 0.05:
                continue
            count += 1
            inv = a.inverse()
            if isinstance(inv, NotInvertible):
                yield _Evidence(0, failed=[{"kind": kind, "law": "inverse exists"}])
                continue
            back = inv.inverse()
            if isinstance(back, NotInvertible):
                yield _Evidence(0, failed=[{"kind": kind, "law": "inverse invertible"}])
                continue
            err = (back - a).norm()
            yield _case((err > 1e-8 * max(1.0, a.norm()), {"kind": kind, "error": err}), error=err)


# --- section algebra checks ---


def _check_bk_axioms(rng, bundle, sections, samples, tol, cap):
    space = bundle.space
    unit_gap = (bundle.unit().norm() - space.ones()).max_abs()
    yield _case(
        (unit_gap > 1e-12, {"law": "unit norm", "error": unit_gap}),
        (bundle.zero().norm().max_abs() != 0.0, {"law": "zero norm"}),
        cases=0,
    )
    for _ in range(samples):
        u = random_section(bundle, rng)
        v = random_section(bundle, rng)
        a = random_efunction(space, rng)
        nu = u.norm().real_array()
        nv = v.norm().real_array()
        hom = np.abs((a * u).norm().real_array() - np.abs(a.values) * nu)
        tri = (u + v).norm().real_array() - (nu + nv)
        sub = (u * v).norm().real_array() - nu * nv
        scale = max(1.0, float(nu.max()), float((nu * nv).max()))
        err = max(float(hom.max()), float(tri.max()), float(sub.max()))
        yield _case(
            ((nu < 0.0).any(), {"law": "positivity"}),
            (float(hom.max()) > 1e-9 * max(1.0, float((np.abs(a.values) * nu).max())),
             {"law": "module homogeneity", "error": float(hom.max())}),
            (float(tri.max()) > 1e-9 * scale, {"law": "triangle", "error": float(tri.max())}),
            (float(sub.max()) > 1e-9 * scale, {"law": "submultiplicative", "error": float(sub.max())}),
            error=err / scale,
        )


def _check_norm_decomposition(rng, bundle, sections, samples, tol, cap):
    space = bundle.space
    for _ in range(min(samples, 100)):
        u = random_section(bundle, rng)
        split = rng.random(len(space)) < 0.5
        norm = u.norm()
        lam1 = Idempotent(space, split) * norm
        lam2 = Idempotent(space, ~split) * norm
        x1, x2 = d_decompose(u, lam1, lam2)
        err = max(
            ((x1 + x2) - u).norm().max_abs(),
            (x1.norm() - lam1).max_abs(),
            (x2.norm() - lam2).max_abs(),
        )
        yield _case((err > 1e-10 * max(1.0, norm.max_abs()), {"error": err}), error=err)


def _check_lifting_axioms(rng, bundle, sections, samples, tol, cap):
    space = bundle.space
    for _ in range(min(samples, 100)):
        u = random_section(bundle, rng)
        v = random_section(bundle, rng)
        a = random_efunction(space, rng)
        pos = abs(random_efunction(space, rng))
        laws = {
            "additive": (vector_lifting(u + v) - (vector_lifting(u) + vector_lifting(v))).norm().max_abs(),
            "module": (vector_lifting(a * u) - lifting(a) * vector_lifting(u)).norm().max_abs(),
            "norm": (vector_lifting(u).norm() - lifting(u.norm())).max_abs(),
            "multiplicative": (vector_lifting(u * v) - vector_lifting(u) * vector_lifting(v)).norm().max_abs(),
            "unital": (vector_lifting(bundle.unit()) - bundle.unit()).norm().max_abs(),
            "positive": 0.0 if (lifting(pos).real_array() >= 0.0).all() else 1.0,
        }
        yield _case(*[(err > 1e-12, {"law": name, "error": err}) for name, err in laws.items()],
                    error=max(laws.values()))


# --- inversion checks ---


def _contraction_section(bundle, rng):
    space = bundle.space
    profile = random_real_efunction(space, rng, 0.02, 0.9)
    return random_section_with_norm(bundle, rng, profile)


def _check_neumann_vs_exact(rng, bundle, sections, samples, tol, cap):
    e = bundle.unit()
    for _ in range(min(samples, 200)):
        x = _contraction_section(bundle, rng)
        cert = neumann_inverse(x, tol)
        direct = inverse(e - x)
        if isinstance(direct, NotInvertible):
            yield _Evidence(0, failed=[{"law": "exact route invertible"}])
            continue
        gap = (cert.inverse - direct).norm().max_abs()
        yield _case((gap > 2.0 * tol, {"gap": gap}), error=gap)


def _check_neumann_tail_bound(rng, bundle, sections, samples, tol, cap):
    for _ in range(min(samples, 200)):
        x = _contraction_section(bundle, rng)
        cert = neumann_inverse(x, tol)
        slack = float(cert.bound_slack.real_array().min())
        residual = float(cert.residual.real_array().max())
        yield _case((slack < -1e-9, {"slack": slack}), (residual > tol, {"residual": residual}),
                    error=-slack)


def _admissible_pair(bundle, rng):
    space = bundle.space
    x = random_invertible_section(bundle, rng, min_sigma=0.15)
    xinv = inverse(x)
    assert isinstance(xinv, Section)
    ninv = xinv.norm()
    theta = random_real_efunction(space, rng, 0.05, 0.95)
    target = theta * (2.0 * ninv).reciprocal()
    h = random_section_with_norm(bundle, rng, target)
    return x, h


def _check_perturbation_bound(rng, bundle, sections, samples, tol, cap):
    for _ in range(samples):
        x, h = _admissible_pair(bundle, rng)
        cert = perturbed_inverse(x, h, tol)
        slack = float(cert.bound_slack.real_array().min())
        yield _case((slack < -1e-9, {"slack": slack}), error=-slack)


def _check_inversion_continuity(rng, bundle, sections, samples, tol, cap):
    # x_n -> x entails inverse(x_n) -> inverse(x), at the quantitative
    # rate of the perturbation bound.
    for _ in range(min(samples, 25)):
        x, h = _admissible_pair(bundle, rng)
        xinv = inverse(x)
        assert isinstance(xinv, Section)
        diffs = []
        for n in range(0, 13, 3):
            hn = (2.0 ** (-n)) * h
            cert = perturbed_inverse(x, hn, tol)
            diffs.append((cert.inverse - xinv).norm().max_abs())
        yield _case(
            (not all(a >= b - 1e-12 for a, b in zip(diffs, diffs[1:])),
             {"law": "monotone approach", "diffs": diffs}),
            (diffs[-1] > max(1e-9, diffs[0] * 2.0 ** (-10)), {"law": "vanishing limit", "diffs": diffs}),
        )


def _check_inversion_mixing(rng, bundle, sections, samples, tol, cap):
    space = bundle.space
    for _ in range(min(samples, 100)):
        p = random_partition(space, rng)
        xs = [random_invertible_section(bundle, rng, 0.1) for _ in p]
        mixed_inv = inverse_of_mix(p, xs)
        glued = mix_sections(p, [inverse(x) for x in xs])
        gap = (mixed_inv - glued).norm().max_abs()
        yield _case((gap > 1e-10, {"gap": gap}), error=gap)


# --- spectrum checks ---


def _random_selection(table, space, rng) -> EFunction:
    """One eigenvalue drawn from ``table`` per atom, in atom order."""
    picks = [
        table.per_atom[atom][int(rng.integers(0, len(table.per_atom[atom])))]
        for atom in space.atoms
    ]
    return EFunction(space, np.array(picks, dtype=complex))


def _check_membership_crosscheck(rng, bundle, sections, samples, tol, cap):
    # Membership through eigenvalue tables must agree with membership
    # through non-invertibility of a e - x.  Draws avoid the tolerance
    # boundary: either exact selections or generic points.
    space = bundle.space
    done = 0
    while done < samples:
        x = random_section(bundle, rng)
        table = spectrum.spectrum_table(x, tol)
        for _ in range(10):
            if done >= samples:
                break
            if rng.random() < 0.5:
                a = _random_selection(table, space, rng)
            else:
                a = random_efunction(space, rng, scale=2.0)
            table_member = spectrum.selection_spectrum_contains(x, a, tol, table=table)
            sigma_member = all(
                (complex(av) * FiberElement.unit(xv.descriptor) - xv)
                .smallest_singular_value()
                <= tol
                for av, xv in zip(a.values, x.values)
            )
            done += 1
            yield _case((table_member != sigma_member, {"table": table_member, "sigma": sigma_member}))


def _check_spectrum_scaling(rng, bundle, sections, samples, tol, cap):
    # Membership is stable under the normalizing rescale by (1 + norm)^-1.
    space = bundle.space
    for _ in range(min(samples, 100)):
        x = random_section(bundle, rng)
        table = spectrum.spectrum_table(x, tol)
        c = (space.ones() + x.norm()).reciprocal()
        xs = c * x
        ts = spectrum.spectrum_table(xs, tol)
        a = _random_selection(table, space, rng)
        inside = spectrum.selection_spectrum_contains(xs, c * a, tol, table=ts)
        b = random_efunction(space, rng, scale=3.0)
        moved = spectrum.selection_spectrum_contains(x, b, tol, table=table) != \
            spectrum.selection_spectrum_contains(xs, c * b, tol, table=ts)
        yield _case(
            (not inside, {"law": "scaled member stays inside"}),
            (moved, {"law": "scaling preserves non-members"}),
        )


def _check_selection_implies_somewhere(rng, bundle, sections, samples, tol, cap):
    # Every atomwise selection is in particular a spectrum member; the
    # reverse containment is not asserted.
    for _ in range(min(samples, 50)):
        x = random_section(bundle, rng)
        table = spectrum.spectrum_table(x, tol)
        enum = spectrum.enumerate_selection_spectrum(x, cap=cap, tol=tol, table=table)
        for row in enum.selections[:20]:
            member = spectrum.spectrum_contains(x, bundle.space.efunction(row), tol, table=table)
            yield _case((not member, {"law": "selection is a member"}))


def _check_selection_properties(rng, bundle, sections, samples, tol, cap):
    for _ in range(5):
        x = random_section(bundle, rng)
        report = spectrum.selection_spectrum_properties(
            x, samples=max(10, samples // 10), tol=tol, cap=cap, rng=rng
        )
        yield _case((not report.passed, {"failures": report.failures}))


# --- representation checks ---


def _check_quotient_equality(rng, bundle, sections, samples, tol, cap):
    pool = list(sections.values()) if sections else []
    for _ in range(min(samples, 50)):
        u = random_section(bundle, rng)
        pool.append(u)
    for u in pool:
        for atom in bundle.space.atoms:
            gap = abs(
                representation.quotient_norm(u, atom)
                - representation.evaluation_seminorm(u, atom)
            )
            yield _case((gap > 1e-10, {"atom": atom, "gap": gap}), error=gap)


def _check_quotient_ideal(rng, bundle, sections, samples, tol, cap):
    # The null space of the seminorm at an atom absorbs products.
    space = bundle.space
    for _ in range(min(samples, 100)):
        atom = space.atoms[int(rng.integers(0, len(space)))]
        fiber = representation.QuotientFiber(bundle, atom)
        u = random_section(bundle, rng)
        killer = Idempotent.from_atoms(space, [atom]).complement()
        in_ideal = killer * u
        projected = fiber.ideal_contains(in_ideal)
        v = random_section(bundle, rng)
        yield _case(
            (not projected, {"law": "projection lands in ideal"}),
            (not fiber.ideal_contains(in_ideal * v), {"law": "ideal absorbs products"}),
            (not fiber.ideal_contains(v * in_ideal), {"law": "ideal absorbs products (left)"}),
        )


def _check_reconstruction(rng, bundle, sections, samples, tol, cap):
    pool = list(sections.values()) if sections else []
    while len(pool) < 10:
        pool.append(random_section(bundle, rng))
    rebuilt, report = representation.reconstruct_bundle(pool, rng=rng)
    yield _case((rebuilt.descriptors != bundle.descriptors, {"law": "fibers match"}), cases=0)
    for c in report.checks:
        yield _case((not c.passed, {"check": c.name, "error": c.max_error}), error=c.max_error)


def _hk_module_for(bundle):
    dims = tuple(
        d.size if d.kind == "matrix" else 1 if d.kind == "scalar" else min(d.size, 8)
        for d in bundle.descriptors
    )
    return representation.HKModule(bundle.space, dims)


def _check_hk_inner_axioms(rng, bundle, sections, samples, tol, cap):
    module = _hk_module_for(bundle)
    space = bundle.space
    for _ in range(min(samples, 200)):
        x = module.element(
            [rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in module.dims]
        )
        y = module.element(
            [rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in module.dims]
        )
        a = random_efunction(space, rng)
        self_prod = representation.hk_inner(x, x)
        scale = max(1.0, self_prod.max_abs())
        herm = (representation.hk_inner(x, y) - representation.hk_inner(y, x).conj()).max_abs()
        lin = (
            representation.hk_inner(a * x, y) - a * representation.hk_inner(x, y)
        ).max_abs()
        err = max(herm, lin)
        yield _case(
            (float(np.abs(self_prod.values.imag).max()) > 1e-12 * scale, {"law": "self product is real"}),
            ((self_prod.values.real < 0.0).any(), {"law": "positivity"}),
            (err > 1e-10 * max(1.0, self_prod.max_abs()), {"law": "hermitian/linear", "error": err}),
            (representation.hk_norm(module.zero()).max_abs() != 0.0, {"law": "definiteness"}),
            error=err,
        )


def _check_hk_operator_norms(rng, bundle, sections, samples, tol, cap):
    module = _hk_module_for(bundle)
    opbundle, report = representation.operator_algebra(
        module, operators=3, samples=10_000, tol=1e-6, rng=rng
    )
    failed = [] if report.passed else report.failures[:5]
    error = max(report.max_gap, report.max_overshoot)
    yield _Evidence(report.operators * len(bundle.space), error, failed)
    # the operator bundle acts contractively: norm(T x) <= norm(T) norm(x)
    for _ in range(min(samples, 100)):
        t = random_section(opbundle, rng)
        x = module.element(
            [rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in module.dims]
        )
        lhs = representation.hk_norm(representation.apply_operator(t, x)).real_array()
        rhs = (t.norm() * representation.hk_norm(x)).real_array()
        gap = float((lhs - rhs).max())
        yield _case((gap > 1e-9 * max(1.0, float(rhs.max())), {"law": "operator bound", "gap": gap}))


# --- hypothesis checker checks ---


def _check_unit_support_verdict(rng, bundle, sections, samples, tol, cap):
    verdict = gelfand_mazur.check_unit_support_hypothesis(
        bundle, samples=max(20, samples // 10), tol=tol, rng=rng
    )
    expected = "isomorphic" if bundle.is_scalar_like() else "counterexample"
    w = verdict.witness
    yield _case(
        (verdict.outcome != expected, {"expected": expected, "got": verdict.outcome}),
        (verdict.outcome == "counterexample"
         and (w is None or not gelfand_mazur.is_unit_support_witness(w, tol)),
         {"law": "witness replays"}),
        cases=verdict.checks_run, note=verdict.outcome,
    )


def _check_reverse_bound_verdict(rng, bundle, sections, samples, tol, cap):
    verdict = gelfand_mazur.check_reverse_bound_hypothesis(
        bundle, samples=max(20, samples // 10), tol=tol, rng=rng
    )
    scalar_like = bundle.is_scalar_like()
    expected = "isomorphic" if scalar_like else "counterexample"
    if scalar_like:
        # a certified m glues along its level partition
        cert = gelfand_mazur.certify_reverse_bound(
            bundle, bundle.space.ones(), samples=max(20, samples // 10), tol=tol, rng=rng
        )
        law = (not cert.passed or cert.glued_bound is None, {"law": "constant bound certifies"})
    else:
        pair = verdict.witness_pair
        replays = pair is None or gelfand_mazur.is_zero_divisor_witness(*pair, verdict.localizing)
        law = (not replays, {"law": "witness pair replays"})
    yield _case(
        (verdict.outcome != expected, {"expected": expected, "got": verdict.outcome}),
        law,
        cases=verdict.checks_run, note=verdict.outcome,
    )


# The suite, in report order: each check's name is its report entry and
# the label of its random stream.
_CHECKS = {
    "efunction-algebra-laws": _check_efunction_laws,
    "mix-locality": _check_mix_locality,
    "order-convergence": _check_order_convergence,
    "fiber-norm-axioms": _check_fiber_norm_axioms,
    "fiber-submultiplicative": _check_fiber_submultiplicative,
    "fiber-spectral-radius": _check_fiber_spectral_radius,
    "fiber-inverse-involution": _check_fiber_inverse_involution,
    "bk-algebra-axioms": _check_bk_axioms,
    "norm-decomposition": _check_norm_decomposition,
    "lifting-axioms": _check_lifting_axioms,
    "neumann-vs-exact": _check_neumann_vs_exact,
    "neumann-tail-bound": _check_neumann_tail_bound,
    "perturbation-bound": _check_perturbation_bound,
    "inversion-continuity": _check_inversion_continuity,
    "inversion-mixing": _check_inversion_mixing,
    "spectrum-membership-crosscheck": _check_membership_crosscheck,
    "spectrum-scaling": _check_spectrum_scaling,
    "selection-implies-somewhere": _check_selection_implies_somewhere,
    "selection-spectrum-properties": _check_selection_properties,
    "quotient-norm-equality": _check_quotient_equality,
    "quotient-ideal": _check_quotient_ideal,
    "reconstruction": _check_reconstruction,
    "hk-inner-axioms": _check_hk_inner_axioms,
    "hk-operator-norms": _check_hk_operator_norms,
    "unit-support-verdict": _check_unit_support_verdict,
    "reverse-bound-verdict": _check_reverse_bound_verdict,
}


def run_verification(
    bundle: Bundle,
    sections: dict[str, Section] | None = None,
    seed: int = 0,
    samples: int = gelfand_mazur.DEFAULT_SAMPLES,
    tol: float = DEFAULT_TOL,
    cap: int = spectrum.DEFAULT_SELECTION_CAP,
) -> VerificationReport:
    """Run the whole invariant suite against a bundle.

    ``sections`` (named, e.g. from a scenario file) join the random pool
    where that makes sense.  Same seed, same report, bit for bit.  A
    check that evaluated no case fails: a pass needs evidence, and a
    check that raised an ``AlgebraError`` fails with its message.
    """
    sections = dict(sections or {})
    report = VerificationReport(seed=seed, samples=samples, tolerance=tol)
    for name, check in _CHECKS.items():
        evidence = check(derive_rng(seed, name), bundle, sections, samples, tol, cap)
        report.checks.append(_outcome(name, evidence))
    return report
