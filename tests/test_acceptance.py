"""Acceptance suite: nine numbered criteria, one test and one printed
pass/fail line each.  Tolerances and sample counts are pinned here on
purpose; loosening them is not a fix, it is a finding."""

import itertools
import json
import subprocess
import sys
import time

from bkbundle import (
    AtomicMeasureSpace,
    Bundle,
    FiberDescriptor,
    NotInvertible,
    PartitionOfUnity,
    bound_partition,
    certify_reverse_bound,
    check_reverse_bound_hypothesis,
    check_unit_support_hypothesis,
    enumerate_selection_spectrum,
    evaluation_seminorm,
    inverse,
    inverse_of_mix,
    is_invertible,
    mix,
    mix_sections,
    neumann_inverse,
    perturbed_inverse,
    quotient_norm,
    reconstruct_bundle,
    selection_spectrum_contains,
    spectrum_table,
)
from bkbundle.sampling import (
    derive_rng,
    random_efunction,
    random_invertible_section,
    random_section,
    random_section_with_norm,
)
from conftest import checkout_env


def report(number, text):
    print(f"criterion {number}: PASS - {text}")


def homogeneous(space, descriptor):
    return Bundle.of(space, {a: descriptor for a in space.atoms})


def three_atoms():
    return AtomicMeasureSpace.from_weights({"a": 0.5, "b": 0.3, "c": 0.2})


def mixed_four():
    space = AtomicMeasureSpace.from_weights(
        {"w0": 0.4, "w1": 0.3, "w2": 0.2, "w3": 0.1}
    )
    return Bundle.of(
        space,
        {
            "w0": FiberDescriptor.scalar(),
            "w1": FiberDescriptor.matrix(2),
            "w2": FiberDescriptor.function(3),
            "w3": FiberDescriptor.matrix(3),
        },
    )


def admissible_pair(bundle, rng):
    """Random (x, h) with x invertible and 2 norm(h) norm(xinv) < 1."""
    x = random_invertible_section(bundle, rng, min_sigma=0.15)
    xinv = inverse(x)
    margin = xinv.norm().reciprocal().real_array().min()
    h = random_section(bundle, rng)
    if h.sup_norm() < 1e-12:
        h = bundle.unit()
    theta = rng.uniform(0.05, 0.95)
    h = bundle.space.constant(theta / 2.0 * margin / h.sup_norm()) * h
    return x, xinv, h


def test_criterion_1_bk_algebra_axiom_suite():
    started = time.perf_counter()
    bundles = [
        homogeneous(three_atoms(), FiberDescriptor.scalar()),
        homogeneous(three_atoms(), FiberDescriptor.matrix(2)),
        mixed_four(),
    ]
    tol = 1e-9
    for index, bundle in enumerate(bundles):
        rng = derive_rng(0, "acceptance", "axioms", str(index))
        space = bundle.space
        e_gap = (bundle.unit().norm() - space.ones()).max_abs()
        assert e_gap <= tol
        for _ in range(1000):
            u = random_section(bundle, rng)
            v = random_section(bundle, rng)
            a = random_efunction(space, rng)
            nu, nv = u.norm(), v.norm()
            assert min(nu.real_array()) >= 0.0
            assert ((a * u).norm() - abs(a) * nu).max_abs() <= tol * max(
                1.0, a.max_abs() * u.sup_norm()
            )
            assert max(((u + v).norm() - (nu + nv)).real_array()) <= tol
            assert max(((u * v).norm() - nu * nv).real_array()) <= tol
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(1, f"3 bundles x 1000 pairs, tol 1e-9, {elapsed:.1f}s")


def test_criterion_2_certified_neumann_inversion():
    started = time.perf_counter()
    kinds = {
        "scalar": FiberDescriptor.scalar(),
        "matrix": FiberDescriptor.matrix(3),
        "function": FiberDescriptor.function(5),
    }
    for label, desc in kinds.items():
        bundle = homogeneous(three_atoms(), desc)
        space = bundle.space
        rng = derive_rng(0, "acceptance", "neumann", label)
        for _ in range(500):
            profile = space.efunction(
                {atom: rng.uniform(0.02, 0.9) for atom in space.atoms}
            )
            x = random_section_with_norm(bundle, rng, profile)
            assert x.sup_norm() <= 0.9 + 1e-12
            cert = neumann_inverse(x, tol=1e-8)
            exact = inverse(bundle.unit() - x)
            assert not isinstance(exact, NotInvertible)
            residual_vs_exact = (cert.inverse - exact).norm()
            assert residual_vs_exact.max_abs() <= 1e-8 * 2
            lhs = (cert.inverse - bundle.unit()).norm()
            rhs = x.norm() * (space.ones() - x.norm()).reciprocal()
            assert min((rhs - lhs).real_array()) >= -1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(2, f"500 sections x 3 kinds, residual<=1e-8, slack>=-1e-9, {elapsed:.1f}s")


def test_criterion_3_perturbation_bound():
    bundle = mixed_four()
    rng = derive_rng(0, "acceptance", "perturbation")
    for _ in range(500):
        x, xinv, h = admissible_pair(bundle, rng)
        cert = perturbed_inverse(x, h, tol=1e-10)
        lhs = (cert.inverse - xinv).norm()
        rhs = bundle.space.constant(2.0) * xinv.norm() * xinv.norm() * h.norm()
        assert min((rhs - lhs).real_array()) >= -1e-9
        assert min(cert.bound_slack.real_array()) >= -1e-9
    report(3, "500 admissible pairs, slack >= -1e-9")


def test_criterion_4_mixing_and_continuity():
    bundle = mixed_four()
    space = bundle.space
    rng = derive_rng(0, "acceptance", "mixing")
    for _ in range(200):
        labels = [int(rng.integers(0, 3)) for _ in space.atoms]
        p = PartitionOfUnity.from_labels(space, labels)
        xs = [
            random_invertible_section(bundle, rng, min_sigma=0.15)
            for _ in p.parts
        ]
        direct = inverse_of_mix(p, xs)
        glued = mix_sections(p, [inverse(x) for x in xs])
        assert (direct - glued).sup_norm() <= 1e-10

    for _ in range(100):
        x, xinv, h0 = admissible_pair(bundle, rng)
        previous = None
        for n in range(8):
            h = space.constant(2.0 ** -n) * h0
            cert = perturbed_inverse(x, h, tol=1e-12)
            gap = (cert.inverse - xinv).sup_norm()
            bound = (
                space.constant(2.0) * xinv.norm() * xinv.norm() * h.norm()
            ).real_array().max()
            assert gap <= bound + 1e-9
            if previous is not None:
                assert gap <= previous + 1e-12
            previous = gap
        assert previous <= 2.0 ** -7 * (
            space.constant(2.0) * xinv.norm() * xinv.norm() * h0.norm()
        ).real_array().max() + 1e-9
    report(4, "200 mixes at 1e-10, 100 convergent sequences bounded")


def test_criterion_5_selection_spectrum_suite():
    bundle = homogeneous(three_atoms(), FiberDescriptor.matrix(2))
    space = bundle.space
    rng = derive_rng(0, "acceptance", "spectrum")
    mixes_checked = 0
    for _ in range(200):
        x = random_section(bundle, rng)
        enum = enumerate_selection_spectrum(x, cap=512)
        assert enum.total_count >= 1
        cap_fn = x.norm() + space.constant(1e-8)
        members = [space.efunction(row) for row in enum.selections]
        for a in members:
            assert (cap_fn - abs(a)).real_array().min() >= -1e-12
        if len(members) >= 2 and mixes_checked < 100:
            labels = [int(rng.integers(0, 2)) for _ in space.atoms]
            p = PartitionOfUnity.from_labels(space, labels)
            picks = [
                members[int(rng.integers(0, len(members)))] for _ in p.parts
            ]
            mixed_member = mix(p, picks)
            assert selection_spectrum_contains(x, mixed_member)
            mixes_checked += 1
        # order closedness probe: perturb a member, shrink the noise, land
        # back on the member
        a = members[int(rng.integers(0, len(members)))]
        noisy = a + space.constant(1e-3 * 2.0 ** -20)
        table = spectrum_table(x)
        projected = space.efunction(
            {
                atom: min(
                    table.per_atom[atom], key=lambda z: abs(z - noisy.value(atom))
                )
                for atom in space.atoms
            }
        )
        assert selection_spectrum_contains(x, projected)
    assert mixes_checked == 100

    agreements = 0
    for trial in range(500):
        x = random_section(bundle, rng)
        table = spectrum_table(x)
        if trial % 2 == 0:
            a = space.efunction(
                {
                    atom: table.per_atom[atom][
                        int(rng.integers(0, len(table.per_atom[atom])))
                    ]
                    for atom in space.atoms
                }
            )
        else:
            a = random_efunction(space, rng, scale=2.0)
        via_table = selection_spectrum_contains(x, a, tol=1e-8, table=table)
        via_sigma = all(
            (a.value(atom) * bundle.unit().value(atom) - x.value(atom))
            .smallest_singular_value()
            <= 1e-8
            for atom in space.atoms
        )
        assert via_table == via_sigma
        agreements += 1
    report(5, f"200 sections, 100 mixes, {agreements} membership crosschecks")


def test_criterion_6_quotient_norm_equality():
    bundle = mixed_four()
    space = bundle.space
    rng = derive_rng(0, "acceptance", "quotient")

    def oracle(u, atom):
        norms = {a: u.norm().value(a).real for a in space.atoms}
        best = None
        for keep in itertools.product([False, True], repeat=len(space.atoms)):
            chosen = dict(zip(space.atoms, keep))
            if not chosen[atom]:
                continue
            sup = max((norms[a] for a in space.atoms if chosen[a]), default=0.0)
            best = sup if best is None else min(best, sup)
        return best

    for _ in range(100):
        u = random_section(bundle, rng)
        for atom in space.atoms:
            q = quotient_norm(u, atom)
            assert abs(q - oracle(u, atom)) <= 1e-12 * max(1.0, q)
            assert abs(q - evaluation_seminorm(u, atom)) <= 1e-10 * max(1.0, q)

    sections = [random_section(bundle, rng) for _ in range(50)]
    rebuilt, rec_report = reconstruct_bundle(sections, rng=rng, pair_samples=50)
    assert rec_report.passed
    for atom in space.atoms:
        assert rebuilt.descriptor(atom) == bundle.descriptor(atom)
    report(6, "100 sections x 4 atoms at 1e-10, 50-section reconstruction")


def test_criterion_7_unit_support_theorem():
    scalar_bundle = homogeneous(three_atoms(), FiberDescriptor.scalar())
    verdict = check_unit_support_hypothesis(
        scalar_bundle, samples=500, rng=derive_rng(0, "acceptance", "gm-scalar")
    )
    assert verdict.outcome == "isomorphic"
    assert verdict.checks_run >= 500
    for key in ("isometry", "multiplicative", "linear"):
        assert verdict.iso_errors[key] <= 1e-10

    matrix_bundle = homogeneous(three_atoms(), FiberDescriptor.matrix(2))
    refuted = check_unit_support_hypothesis(
        matrix_bundle, samples=100, rng=derive_rng(0, "acceptance", "gm-matrix")
    )
    assert refuted.outcome == "counterexample"
    w = refuted.witness
    assert w.norm().support(0.0).is_unit()
    assert not is_invertible(w)
    report(7, "scalar isomorphic at 1e-10 on 500 pairs; matrix(2) witness re-verified")


def test_criterion_8_reverse_bound_theorem():
    scalar_bundle = homogeneous(three_atoms(), FiberDescriptor.scalar())
    space = scalar_bundle.space
    verdict = check_reverse_bound_hypothesis(
        scalar_bundle, samples=500, rng=derive_rng(0, "acceptance", "rb-scalar")
    )
    assert verdict.outcome == "isomorphic"
    rng = derive_rng(0, "acceptance", "rb-equality")
    for _ in range(500):
        x = random_section(scalar_bundle, rng)
        y = random_section(scalar_bundle, rng)
        gap = (x.norm() * y.norm() - (x * y).norm()).max_abs()
        assert gap <= 1e-10 * max(1.0, x.sup_norm() * y.sup_norm())

    matrix_bundle = homogeneous(three_atoms(), FiberDescriptor.matrix(2))
    refuted = check_reverse_bound_hypothesis(
        matrix_bundle, samples=100, rng=derive_rng(0, "acceptance", "rb-matrix")
    )
    assert refuted.outcome == "counterexample"
    x, y = refuted.witness_pair
    prod_norms = x.norm() * y.norm()
    assert (prod_norms - space.ones()).max_abs() <= 1e-12
    assert (x * y).sup_norm() == 0.0

    mixed = mixed_four()
    parts_verdict = check_reverse_bound_hypothesis(
        mixed, samples=100, rng=derive_rng(0, "acceptance", "rb-mixed")
    )
    assert parts_verdict.outcome == "counterexample"
    outcomes = {
        tuple(p.part.atoms()): p.outcome for p in parts_verdict.parts
    }
    assert outcomes[("w0",)] == "isomorphic"
    assert outcomes[("w1", "w2", "w3")] == "counterexample"

    # Case-2 glue: a non-constant candidate bound is split into level
    # sets, certified per part, and the per-part ceilings reassemble
    m = scalar_bundle.space.efunction({"a": 1.2, "b": 5.5, "c": 2.0})
    bp = bound_partition(m)
    assert bp.levels == (1, 2, 5)
    cert = certify_reverse_bound(
        scalar_bundle, m, samples=200, rng=derive_rng(0, "acceptance", "rb-cert")
    )
    assert cert.passed
    glued = cert.glued_bound
    assert glued.value("a").real == 2.0
    assert glued.value("b").real == 6.0
    assert glued.value("c").real == 3.0
    assert (glued - m).real_array().min() >= 0.0

    zd_cert = certify_reverse_bound(
        mixed, mixed.space.constant(50.0), samples=100,
        rng=derive_rng(0, "acceptance", "rb-cert-zd"),
    )
    assert not zd_cert.passed
    report(8, "m=1 on 500 scalar pairs at 1e-10; zero-divisor witnesses; partition glue")


def test_criterion_9_deterministic_verification():
    def run_once():
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "bkbundle.cli",
                "run",
                "scenarios/mixed.json",
                "--report",
                "json",
                "--seed",
                "0",
            ],
            capture_output=True,
            text=True,
            env=checkout_env(),
        )
        assert result.returncode == 0, result.stderr
        doc = json.loads(result.stdout)
        for entry in doc["results"]:
            entry.pop("wall_clock", None)
        return json.dumps(doc, sort_keys=True)

    first = run_once()
    second = run_once()
    assert first == second
    report(9, "two seeded runs byte-identical after dropping wall_clock")
