"""The full invariant suite behind the ``verify`` command.

Each check draws its own deterministic stream (seed plus check name), so
checks can run in any order, or alone, without shifting each other's
samples.  ``run_verification`` hands each check a fresh ``CheckOutcome``
and that stream; the check counts its cases and records at most a
handful of replayable witnesses.  The report passes only when every
check does.

The suite intentionally re-derives expected values through independent
routes where the library offers two (series inverse against exact
inverse, brute-force quotient norm against the direct seminorm, spectrum
membership through eigenvalue tables against singular value tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def _distinct_descriptors(bundle: Bundle):
    seen = []
    for d in bundle.descriptors:
        if d not in seen:
            seen.append(d)
    return seen


# --- base algebra checks ---


def _check_efunction_laws(out, rng, bundle, sections, samples, tol, cap):
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
        for name, diff in checks.items():
            err = diff.max_abs()
            out.max_error = max(out.max_error, err)
            if err > 1e-12:
                out.fail({"law": name, "error": err})
        out.cases += 1


def _check_mix_locality(out, rng, bundle, sections, samples, tol, cap):
    space = bundle.space
    for _ in range(min(samples, 200)):
        p = random_partition(space, rng)
        fns = [random_efunction(space, rng) for _ in p]
        mixed = mix(p, fns)
        for part, fn in zip(p, fns):
            if not np.array_equal(
                mixed.values[part.mask], fn.values[part.mask]
            ):
                out.fail({"law": "selection is exact"})
        out.cases += 1


def _check_order_convergence(out, rng, bundle, sections, samples, tol, cap):
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
        if not all(x >= y for x, y in zip(sup_gaps, sup_gaps[1:])):
            out.fail({"law": "monotone decrease"})
        if sup_gaps[-1] > 1e-15 * max(1.0, b.max_abs()):
            out.fail({"law": "limit reached", "residual": sup_gaps[-1]})
        out.cases += 1


# --- fiber checks ---


def _check_fiber_norm_axioms(out, rng, bundle, sections, samples, tol, cap):
    for desc in _distinct_descriptors(bundle):
        if FiberElement.unit(desc).norm() != 1.0:
            out.fail({"kind": desc.label(), "law": "unit norm"})
        if FiberElement.zero(desc).norm() != 0.0:
            out.fail({"kind": desc.label(), "law": "zero norm"})
        for _ in range(min(samples, 300)):
            a = random_fiber_element(desc, rng)
            b = random_fiber_element(desc, rng)
            c = complex(rng.standard_normal() + 1j * rng.standard_normal())
            na, nb = a.norm(), b.norm()
            err = abs((c * a).norm() - abs(c) * na)
            err = max(err, (a + b).norm() - (na + nb))
            scale = max(1.0, abs(c) * na)
            out.max_error = max(out.max_error, err / scale)
            if err > 1e-9 * scale:
                out.fail({"kind": desc.label(), "error": err})
            out.cases += 1


def _check_fiber_submultiplicative(out, rng, bundle, sections, samples, tol, cap):
    # the norms of each block of 1,000 (a, b, a b) triples are taken in
    # one stacked kernel call per matrix size
    for desc in _distinct_descriptors(bundle):
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
                out.max_error = max(out.max_error, gap)
                if gap > 1e-9 * max(1.0, a.norm() * b.norm()):
                    out.fail({"kind": desc.label(), "gap": gap})
                out.cases += 1


def _check_fiber_spectral_radius(out, rng, bundle, sections, samples, tol, cap):
    for desc in _distinct_descriptors(bundle):
        for _ in range(min(samples, 100)):
            a = random_fiber_element(desc, rng)
            radius = max(abs(z) for z in a.spectrum(tol))
            gap = radius - a.norm()
            out.max_error = max(out.max_error, gap)
            if gap > 1e-8:
                out.fail({"kind": desc.label(), "excess": gap})
            out.cases += 1


def _check_fiber_inverse_involution(out, rng, bundle, sections, samples, tol, cap):
    for desc in _distinct_descriptors(bundle):
        count = 0
        while count < min(samples, 200):
            a = random_fiber_element(desc, rng)
            if a.smallest_singular_value() <= 0.05:
                continue
            count += 1
            inv = a.inverse()
            if isinstance(inv, NotInvertible):
                out.fail({"kind": desc.label(), "law": "inverse exists"})
                continue
            back = inv.inverse()
            if isinstance(back, NotInvertible):
                out.fail({"kind": desc.label(), "law": "inverse invertible"})
                continue
            err = (back - a).norm()
            out.max_error = max(out.max_error, err)
            if err > 1e-8 * max(1.0, a.norm()):
                out.fail({"kind": desc.label(), "error": err})
            out.cases += 1


# --- section algebra checks ---


def _check_bk_axioms(out, rng, bundle, sections, samples, tol, cap):
    space = bundle.space
    ones = space.ones()
    unit_gap = (bundle.unit().norm() - ones).max_abs()
    if unit_gap > 1e-12:
        out.fail({"law": "unit norm", "error": unit_gap})
    if bundle.zero().norm().max_abs() != 0.0:
        out.fail({"law": "zero norm"})
    for _ in range(samples):
        u = random_section(bundle, rng)
        v = random_section(bundle, rng)
        a = random_efunction(space, rng)
        nu = u.norm().real_array()
        nv = v.norm().real_array()
        if (nu < 0.0).any():
            out.fail({"law": "positivity"})
        hom = np.abs((a * u).norm().real_array() - np.abs(a.values) * nu)
        tri = (u + v).norm().real_array() - (nu + nv)
        sub = (u * v).norm().real_array() - nu * nv
        scale = max(1.0, float(nu.max()), float((nu * nv).max()))
        err = max(float(hom.max()), float(tri.max()), float(sub.max()))
        out.max_error = max(out.max_error, err / scale)
        if float(hom.max()) > 1e-9 * max(1.0, float((np.abs(a.values) * nu).max())):
            out.fail({"law": "module homogeneity", "error": float(hom.max())})
        if float(tri.max()) > 1e-9 * scale:
            out.fail({"law": "triangle", "error": float(tri.max())})
        if float(sub.max()) > 1e-9 * scale:
            out.fail({"law": "submultiplicative", "error": float(sub.max())})
        out.cases += 1


def _check_norm_decomposition(out, rng, bundle, sections, samples, tol, cap):
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
        out.max_error = max(out.max_error, err)
        if err > 1e-10 * max(1.0, norm.max_abs()):
            out.fail({"error": err})
        out.cases += 1


def _check_lifting_axioms(out, rng, bundle, sections, samples, tol, cap):
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
        for name, err in laws.items():
            out.max_error = max(out.max_error, err)
            if err > 1e-12:
                out.fail({"law": name, "error": err})
        out.cases += 1


# --- inversion checks ---


def _contraction_section(bundle, rng):
    space = bundle.space
    profile = random_real_efunction(space, rng, 0.02, 0.9)
    return random_section_with_norm(bundle, rng, profile)


def _check_neumann_vs_exact(out, rng, bundle, sections, samples, tol, cap):
    e = bundle.unit()
    for _ in range(min(samples, 200)):
        x = _contraction_section(bundle, rng)
        cert = neumann_inverse(x, tol)
        direct = inverse(e - x)
        if isinstance(direct, NotInvertible):
            out.fail({"law": "exact route invertible"})
            continue
        gap = (cert.inverse - direct).norm().max_abs()
        out.max_error = max(out.max_error, gap)
        if gap > 2.0 * tol:
            out.fail({"gap": gap})
        out.cases += 1


def _check_neumann_tail_bound(out, rng, bundle, sections, samples, tol, cap):
    for _ in range(min(samples, 200)):
        x = _contraction_section(bundle, rng)
        cert = neumann_inverse(x, tol)
        slack = float(cert.bound_slack.real_array().min())
        out.max_error = max(out.max_error, -slack)
        if slack < -1e-9:
            out.fail({"slack": slack})
        if float(cert.residual.real_array().max()) > tol:
            out.fail({"residual": float(cert.residual.real_array().max())})
        out.cases += 1


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


def _check_perturbation_bound(out, rng, bundle, sections, samples, tol, cap):
    for _ in range(samples):
        x, h = _admissible_pair(bundle, rng)
        try:
            cert = perturbed_inverse(x, h, tol)
        except AlgebraError as exc:
            out.fail({"error": str(exc)})
            continue
        slack = float(cert.bound_slack.real_array().min())
        out.max_error = max(out.max_error, -slack)
        if slack < -1e-9:
            out.fail({"slack": slack})
        out.cases += 1


def _check_inversion_continuity(out, rng, bundle, sections, samples, tol, cap):
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
        if not all(a >= b - 1e-12 for a, b in zip(diffs, diffs[1:])):
            out.fail({"law": "monotone approach", "diffs": diffs})
        if diffs[-1] > max(1e-9, diffs[0] * 2.0 ** (-10)):
            out.fail({"law": "vanishing limit", "diffs": diffs})
        out.cases += 1


def _check_inversion_mixing(out, rng, bundle, sections, samples, tol, cap):
    space = bundle.space
    for _ in range(min(samples, 100)):
        p = random_partition(space, rng)
        xs = [random_invertible_section(bundle, rng, 0.1) for _ in p]
        try:
            mixed_inv = inverse_of_mix(p, xs)
        except AlgebraError as exc:
            out.fail({"error": str(exc)})
            continue
        glued = mix_sections(p, [inverse(x) for x in xs])
        gap = (mixed_inv - glued).norm().max_abs()
        out.max_error = max(out.max_error, gap)
        if gap > 1e-10:
            out.fail({"gap": gap})
        out.cases += 1


# --- spectrum checks ---


def _random_selection(table, space, rng) -> EFunction:
    """One eigenvalue drawn from ``table`` per atom, in atom order."""
    picks = [
        table.per_atom[atom][int(rng.integers(0, len(table.per_atom[atom])))]
        for atom in space.atoms
    ]
    return EFunction(space, np.array(picks, dtype=complex))


def _check_membership_crosscheck(out, rng, bundle, sections, samples, tol, cap):
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
            if table_member != sigma_member:
                out.fail(
                    {
                        "table": table_member,
                        "sigma": sigma_member,
                    }
                )
            done += 1
            out.cases += 1


def _check_spectrum_scaling(out, rng, bundle, sections, samples, tol, cap):
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
        if not inside:
            out.fail({"law": "scaled member stays inside"})
        b = random_efunction(space, rng, scale=3.0)
        if spectrum.selection_spectrum_contains(x, b, tol, table=table) != \
                spectrum.selection_spectrum_contains(xs, c * b, tol, table=ts):
            out.fail({"law": "scaling preserves non-members"})
        out.cases += 1


def _check_selection_implies_somewhere(out, rng, bundle, sections, samples, tol, cap):
    # Every atomwise selection is in particular a spectrum member; the
    # reverse containment is not asserted.
    for _ in range(min(samples, 50)):
        x = random_section(bundle, rng)
        table = spectrum.spectrum_table(x, tol)
        enum = spectrum.enumerate_selection_spectrum(x, cap=cap, tol=tol, table=table)
        for row in enum.selections[:20]:
            if not spectrum.spectrum_contains(x, bundle.space.efunction(row), tol, table=table):
                out.fail({"law": "selection is a member"})
            out.cases += 1


def _check_selection_properties(out, rng, bundle, sections, samples, tol, cap):
    for _ in range(5):
        x = random_section(bundle, rng)
        report = spectrum.selection_spectrum_properties(
            x, samples=max(10, samples // 10), tol=tol, cap=cap, rng=rng
        )
        if not report.passed:
            out.fail({"failures": report.failures})
        out.cases += 1


# --- representation checks ---


def _check_quotient_equality(out, rng, bundle, sections, samples, tol, cap):
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
            out.max_error = max(out.max_error, gap)
            if gap > 1e-10:
                out.fail({"atom": atom, "gap": gap})
            out.cases += 1


def _check_quotient_ideal(out, rng, bundle, sections, samples, tol, cap):
    # The null space of the seminorm at an atom absorbs products.
    space = bundle.space
    for _ in range(min(samples, 100)):
        atom = space.atoms[int(rng.integers(0, len(space)))]
        fiber = representation.QuotientFiber(bundle, atom)
        u = random_section(bundle, rng)
        killer = Idempotent.from_atoms(space, [atom]).complement()
        in_ideal = killer * u
        if not fiber.ideal_contains(in_ideal):
            out.fail({"law": "projection lands in ideal"})
        v = random_section(bundle, rng)
        if not fiber.ideal_contains(in_ideal * v):
            out.fail({"law": "ideal absorbs products"})
        if not fiber.ideal_contains(v * in_ideal):
            out.fail({"law": "ideal absorbs products (left)"})
        out.cases += 1


def _check_reconstruction(out, rng, bundle, sections, samples, tol, cap):
    pool = list(sections.values()) if sections else []
    while len(pool) < 10:
        pool.append(random_section(bundle, rng))
    rebuilt, report = representation.reconstruct_bundle(pool, rng=rng)
    out.cases = len(report.checks)
    out.max_error = max((c.max_error for c in report.checks), default=0.0)
    if rebuilt.descriptors != bundle.descriptors:
        out.fail({"law": "fibers match"})
    for c in report.checks:
        if not c.passed:
            out.fail({"check": c.name, "error": c.max_error})


def _hk_module_for(bundle):
    dims = tuple(
        d.size if d.kind == "matrix" else 1 if d.kind == "scalar" else min(d.size, 8)
        for d in bundle.descriptors
    )
    return representation.HKModule(bundle.space, dims)


def _check_hk_inner_axioms(out, rng, bundle, sections, samples, tol, cap):
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
        if float(np.abs(self_prod.values.imag).max()) > 1e-12 * scale:
            out.fail({"law": "self product is real"})
        if (self_prod.values.real < 0.0).any():
            out.fail({"law": "positivity"})
        herm = (representation.hk_inner(x, y) - representation.hk_inner(y, x).conj()).max_abs()
        lin = (
            representation.hk_inner(a * x, y) - a * representation.hk_inner(x, y)
        ).max_abs()
        err = max(herm, lin)
        out.max_error = max(out.max_error, err)
        if err > 1e-10 * max(1.0, self_prod.max_abs()):
            out.fail({"law": "hermitian/linear", "error": err})
        if representation.hk_norm(module.zero()).max_abs() != 0.0:
            out.fail({"law": "definiteness"})
        out.cases += 1


def _check_hk_operator_norms(out, rng, bundle, sections, samples, tol, cap):
    module = _hk_module_for(bundle)
    opbundle, report = representation.operator_algebra(
        module, operators=3, samples=10_000, tol=1e-6, rng=rng
    )
    out.cases = report.operators * len(bundle.space)
    out.max_error = max(report.max_gap, report.max_overshoot)
    if not report.passed:
        for f in report.failures[:5]:
            out.fail(f)
    # the operator bundle acts contractively: norm(T x) <= norm(T) norm(x)
    for _ in range(min(samples, 100)):
        t = random_section(opbundle, rng)
        x = module.element(
            [rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in module.dims]
        )
        lhs = representation.hk_norm(representation.apply_operator(t, x)).real_array()
        rhs = (t.norm() * representation.hk_norm(x)).real_array()
        gap = float((lhs - rhs).max())
        if gap > 1e-9 * max(1.0, float(rhs.max())):
            out.fail({"law": "operator bound", "gap": gap})
        out.cases += 1


# --- hypothesis checker checks ---


def _check_unit_support_verdict(out, rng, bundle, sections, samples, tol, cap):
    verdict = gelfand_mazur.check_unit_support_hypothesis(
        bundle, samples=max(20, samples // 10), tol=tol, rng=rng
    )
    out.cases = verdict.checks_run
    scalar_like = bundle.is_scalar_like()
    if scalar_like and verdict.outcome != "isomorphic":
        out.fail({"expected": "isomorphic", "got": verdict.outcome})
    if not scalar_like and verdict.outcome != "counterexample":
        out.fail({"expected": "counterexample", "got": verdict.outcome})
    if verdict.outcome == "counterexample":
        w = verdict.witness
        if w is None or not gelfand_mazur.is_unit_support_witness(w, tol):
            out.fail({"law": "witness replays"})
    out.detail = verdict.outcome


def _check_reverse_bound_verdict(out, rng, bundle, sections, samples, tol, cap):
    verdict = gelfand_mazur.check_reverse_bound_hypothesis(
        bundle, samples=max(20, samples // 10), tol=tol, rng=rng
    )
    out.cases = verdict.checks_run
    scalar_like = bundle.is_scalar_like()
    if scalar_like:
        if verdict.outcome != "isomorphic":
            out.fail({"expected": "isomorphic", "got": verdict.outcome})
        # a certified m glues along its level partition
        m = bundle.space.ones()
        cert = gelfand_mazur.certify_reverse_bound(
            bundle, m, samples=max(20, samples // 10), tol=tol, rng=rng
        )
        if not cert.passed or cert.glued_bound is None:
            out.fail({"law": "constant bound certifies"})
    else:
        if verdict.outcome != "counterexample":
            out.fail({"expected": "counterexample", "got": verdict.outcome})
        pair = verdict.witness_pair
        if pair is not None and not gelfand_mazur.is_zero_divisor_witness(*pair, verdict.localizing):
            out.fail({"law": "witness pair replays"})
    out.detail = verdict.outcome


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
    check that evaluated no case fails: a pass needs evidence.
    """
    sections = dict(sections or {})
    report = VerificationReport(seed=seed, samples=samples, tolerance=tol)
    for name, check in _CHECKS.items():
        out = CheckOutcome(name, True, 0)
        check(out, derive_rng(seed, name), bundle, sections, samples, tol, cap)
        if out.cases == 0:
            out.fail({"law": "at least one case evaluated"})
        report.checks.append(out)
    return report
