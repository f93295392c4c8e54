"""Quotient fibers, the evaluation/coset norm equality, bundle
reconstruction with its isomorphism checks, and the inner-product module
with its operator algebra."""

import itertools

import numpy as np
import pytest

from bkbundle import (
    AtomicMeasureSpace,
    Bundle,
    FiberDescriptor,
    FiberElement,
    HKModule,
    QuotientFiber,
    evaluation_seminorm,
    hk_inner,
    hk_norm,
    operator_algebra,
    quotient_norm,
    reconstruct_bundle,
)
from bkbundle.errors import MismatchError
from bkbundle.representation import apply_operator
from bkbundle.sampling import derive_rng, random_efunction, random_section


def oracle_truncation_norm(u, atom):
    """Coset norm by brute force: minimize the sup-norm of chi_B * u over
    every indicator set B whose complement avoids the atom, i.e. over all
    representatives of u modulo sections vanishing at the atom."""
    space = u.bundle.space
    norms = {a: u.norm().value(a).real for a in space.atoms}
    best = None
    for keep in itertools.product([False, True], repeat=len(space.atoms)):
        chosen = {a: k for a, k in zip(space.atoms, keep)}
        if not chosen[atom]:
            continue  # v must agree with u at the atom itself
        sup = max((norms[a] for a in space.atoms if chosen[a]), default=0.0)
        best = sup if best is None else min(best, sup)
    return best


def test_seminorm_frozen_cases(matrix2_bundle):
    e = matrix2_bundle.unit()
    for atom in matrix2_bundle.space.atoms:
        assert evaluation_seminorm(e, atom) == pytest.approx(1.0, abs=1e-14)
        assert evaluation_seminorm(matrix2_bundle.zero(), atom) == 0.0
    with pytest.raises(MismatchError):
        evaluation_seminorm(e, "nope")


def test_seminorm_homogeneity(mixed_bundle):
    rng = derive_rng(0, "representation", "homogeneity")
    space = mixed_bundle.space
    for _ in range(50):
        a = random_efunction(space, rng)
        u = random_section(mixed_bundle, rng)
        for atom in space.atoms:
            want = abs(a.value(atom)) * evaluation_seminorm(u, atom)
            got = evaluation_seminorm(a * u, atom)
            assert got == pytest.approx(want, abs=1e-10 * max(1.0, want))


def test_quotient_norm_frozen_case():
    space = AtomicMeasureSpace.from_weights({"one": 1.0, "two": 1.0})
    B = Bundle.of(space, {a: FiberDescriptor.matrix(2) for a in space.atoms})
    u = B.section(
        {
            "one": FiberElement.matrix([[1, 0], [0, 0.5]]),
            "two": FiberElement.matrix([[3, 0], [0, 1]]),
        }
    )
    assert u.norm().value("one").real == pytest.approx(1.0, abs=1e-12)
    assert u.norm().value("two").real == pytest.approx(3.0, abs=1e-12)
    # truncating away atom "two" leaves sup-norm 1, the minimum
    assert oracle_truncation_norm(u, "one") == pytest.approx(1.0, abs=1e-12)
    assert quotient_norm(u, "one") == pytest.approx(1.0, abs=1e-12)

    e = B.unit()
    assert quotient_norm(e, "one") == pytest.approx(1.0, abs=1e-14)

    vanishing = B.section(
        {
            "one": FiberElement.zero(FiberDescriptor.matrix(2)),
            "two": FiberElement.matrix([[3, 0], [0, 1]]),
        }
    )
    assert quotient_norm(vanishing, "one") == 0.0


def test_quotient_equals_seminorm_everywhere(mixed_bundle):
    rng = derive_rng(0, "representation", "equality")
    for _ in range(100):
        u = random_section(mixed_bundle, rng)
        for atom in mixed_bundle.space.atoms:
            alpha = evaluation_seminorm(u, atom)
            q = quotient_norm(u, atom)
            oracle = oracle_truncation_norm(u, atom)
            assert q == pytest.approx(oracle, abs=1e-12 * max(1.0, oracle))
            assert abs(q - alpha) <= 1e-10 * max(1.0, alpha)


def test_quotient_norm_at_the_atom_limit():
    # 16 atoms, 2**16 subsets; the queried atom "w3" has a zero fiber, so
    # subsets without it are admissible too
    space = AtomicMeasureSpace.uniform([f"w{i}" for i in range(16)])
    B = Bundle.of(space, {a: FiberDescriptor.scalar() for a in space.atoms})
    rng = derive_rng(0, "representation", "sixteen")
    u = random_section(B, rng) * B.space.indicator(["w3"]).complement().as_efunction()
    assert evaluation_seminorm(u, "w3") == 0.0
    for atom in ("w3", "w0", "w15"):
        assert quotient_norm(u, atom) == oracle_truncation_norm(u, atom)


def test_quotient_norm_refuses_seventeen_atoms():
    space = AtomicMeasureSpace.uniform([f"w{i}" for i in range(17)])
    B = Bundle.of(space, {a: FiberDescriptor.scalar() for a in space.atoms})
    with pytest.raises(MismatchError):
        quotient_norm(B.unit(), "w0")


def test_quotient_fiber_ideal(matrix2_bundle):
    rng = derive_rng(0, "representation", "ideal")
    space = matrix2_bundle.space
    fiber = QuotientFiber(matrix2_bundle, "b")
    for _ in range(50):
        u = random_section(matrix2_bundle, rng)
        v = random_section(matrix2_bundle, rng)
        # force u into the ideal: kill its value at the atom
        mask = space.indicator([a for a in space.atoms if a != "b"])
        dead = mask.as_efunction() * u
        assert fiber.ideal_contains(dead)
        assert fiber.ideal_contains(dead * v)
        assert fiber.ideal_contains(v * dead)
        assert evaluation_seminorm(dead * v, "b") <= 1e-12
        if evaluation_seminorm(v, "b") > 1e-6:
            assert not fiber.ideal_contains(v)


def test_quotient_fiber_evaluation_is_homomorphism(matrix2_bundle):
    rng = derive_rng(0, "representation", "evaluation")
    fiber = QuotientFiber(matrix2_bundle, "a")
    for _ in range(30):
        u = random_section(matrix2_bundle, rng)
        v = random_section(matrix2_bundle, rng)
        lhs = fiber.evaluate(u * v)
        rhs = fiber.evaluate(u) * fiber.evaluate(v)
        assert (lhs - rhs).norm() <= 1e-10 * max(1.0, lhs.norm())
        assert fiber.evaluate(u).norm() == pytest.approx(
            fiber.seminorm(u), abs=1e-12
        )


def test_reconstruct_unit_only(matrix2_bundle):
    rebuilt, report = reconstruct_bundle([matrix2_bundle.unit()])
    assert report.passed
    for atom in matrix2_bundle.space.atoms:
        assert rebuilt.descriptor(atom) == matrix2_bundle.descriptor(atom)
    names = {c.name for c in report.checks}
    assert "unit" in names


def test_reconstruct_scalar_sections_identity(scalar_bundle):
    rng = derive_rng(0, "representation", "scalar-recon")
    sections = [random_section(scalar_bundle, rng) for _ in range(5)]
    rebuilt, report = reconstruct_bundle(sections, rng=rng)
    assert report.passed
    for atom in scalar_bundle.space.atoms:
        assert rebuilt.descriptor(atom).kind == "scalar"


def test_reconstruct_random_matrix_sections(matrix2_bundle):
    rng = derive_rng(0, "representation", "matrix-recon")
    sections = [random_section(matrix2_bundle, rng) for _ in range(50)]
    rebuilt, report = reconstruct_bundle(sections, rng=rng, pair_samples=30)
    assert report.passed
    # every tau-check re-verified from the recorded witnesses
    for check in report.checks:
        assert check.passed, check.name
        assert check.max_error <= 1e-10


def test_hk_inner_frozen_cases():
    space = AtomicMeasureSpace.from_weights({"u": 1.0, "v": 1.0})
    module = HKModule.of(space, {"u": 2, "v": 3})
    basis = module.element(
        {"u": np.array([1, 0]), "v": np.array([0, 0, 1])}
    )
    inner = hk_inner(basis, basis)
    assert abs(inner.value("u") - 1) <= 1e-14
    assert abs(inner.value("v") - 1) <= 1e-14
    assert (hk_norm(basis) - space.ones()).max_abs() <= 1e-14


def test_hk_inner_axioms():
    space = AtomicMeasureSpace.from_weights({"u": 1.0, "v": 2.0})
    module = HKModule.of(space, {"u": 3, "v": 2})
    rng = derive_rng(0, "representation", "hk")
    for _ in range(50):
        x = module.element(
            {
                a: rng.standard_normal(module.dim(a))
                + 1j * rng.standard_normal(module.dim(a))
                for a in space.atoms
            }
        )
        y = module.element(
            {
                a: rng.standard_normal(module.dim(a))
                + 1j * rng.standard_normal(module.dim(a))
                for a in space.atoms
            }
        )
        self_product = hk_inner(x, x)
        scale = max(1.0, self_product.max_abs())
        assert max(abs(v.imag) for v in (self_product.value(a) for a in space.atoms)) <= 1e-12 * scale
        assert min(v.real for v in (self_product.value(a) for a in space.atoms)) >= 0.0
        hermitian_gap = (hk_inner(x, y) - hk_inner(y, x).conj()).max_abs()
        assert hermitian_gap <= 1e-10 * scale
        norm_sq_gap = (hk_norm(x) * hk_norm(x) - self_product).max_abs()
        assert norm_sq_gap <= 1e-10 * scale


def test_hk_zero_vector_detection():
    space = AtomicMeasureSpace.from_weights({"u": 1.0})
    module = HKModule.of(space, {"u": 4})
    z = module.zero()
    assert hk_norm(z).max_abs() == 0.0


def test_operator_algebra_dim_one_is_scalar():
    space = AtomicMeasureSpace.from_weights({"u": 1.0, "v": 1.0})
    module = HKModule.of(space, {"u": 1, "v": 1})
    rng = derive_rng(0, "representation", "op-scalar")
    algebra, report = operator_algebra(module, operators=3, samples=500, rng=rng)
    assert report.passed
    for atom in space.atoms:
        assert algebra.descriptor(atom).kind in ("scalar", "matrix")
        assert algebra.descriptor(atom).kind != "matrix" or algebra.descriptor(atom).size == 1


def test_operator_algebra_identity_norm():
    space = AtomicMeasureSpace.from_weights({"u": 1.0, "v": 1.0})
    module = HKModule.of(space, {"u": 2, "v": 3})
    rng = derive_rng(0, "representation", "op-identity")
    algebra, report = operator_algebra(module, operators=2, samples=2000, rng=rng)
    assert report.passed
    assert report.max_overshoot <= 1e-9
    assert report.max_gap <= 1e-6
    e = algebra.unit()
    assert (e.norm() - space.ones()).max_abs() <= 1e-12
    # identity acts as identity on a sample vector
    x = module.element({"u": np.array([1, 2]), "v": np.array([3, 0, 1j])})
    back = apply_operator(e, x)
    assert (hk_norm(back - x)).max_abs() <= 1e-12


def test_operator_norm_sup_formula():
    # norm(T x) <= norm(T) norm(x) pointwise, and random unit vectors
    # approach the bound from below
    space = AtomicMeasureSpace.from_weights({"u": 1.0})
    module = HKModule.of(space, {"u": 3})
    rng = derive_rng(0, "representation", "op-sup")
    algebra, _ = operator_algebra(module, operators=4, samples=3000, rng=rng)
    t = algebra.section(
        {"u": FiberElement.matrix(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))}
    )
    tn = t.norm().value("u").real
    best = 0.0
    for _ in range(3000):
        vec = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        x = module.element({"u": vec / np.sqrt(np.sum(np.abs(vec) ** 2))})
        val = hk_norm(apply_operator(t, x)).value("u").real
        assert val <= tn + 1e-9
        best = max(best, val)
    assert best >= tn * 0.95


def test_module_mismatch_rejected():
    space = AtomicMeasureSpace.from_weights({"u": 1.0})
    m1 = HKModule.of(space, {"u": 2})
    m2 = HKModule.of(space, {"u": 3})
    x = m1.element({"u": np.array([1, 0])})
    y = m2.element({"u": np.array([1, 0, 0])})
    with pytest.raises(MismatchError):
        hk_inner(x, y)


def test_scalar_operator_acts_as_the_one_by_one_matrix():
    space = AtomicMeasureSpace.from_weights({"u": 1.0, "v": 1.0})
    module = HKModule.of(space, {"u": 1, "v": 1})
    rng = derive_rng(0, "representation", "scalar-operator")
    x = module.element({a: rng.standard_normal(1) + 1j * rng.standard_normal(1) for a in "uv"})
    zs = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    scalar_op = Bundle.of(space, FiberDescriptor.scalar()).section(
        {a: FiberElement.scalar(z) for a, z in zip("uv", zs)}
    )
    matrix_op = Bundle.of(space, FiberDescriptor.matrix(1)).section(
        {a: FiberElement.matrix([[z]]) for a, z in zip("uv", zs)}
    )
    got, want = apply_operator(scalar_op, x), apply_operator(matrix_op, x)
    for g, w in zip(got.vectors, want.vectors):
        assert g.shape == (1,) and (g == w).all()


def test_operator_of_the_wrong_kind_or_size_is_a_mismatch():
    space = AtomicMeasureSpace.from_weights({"u": 1.0})
    for dim, descriptor in [
        (1, FiberDescriptor.function(1)),
        (3, FiberDescriptor.function(3)),
        (2, FiberDescriptor.scalar()),
        (2, FiberDescriptor.matrix(3)),
    ]:
        x = HKModule.of(space, {"u": dim}).element({"u": np.ones(dim)})
        op = Bundle.of(space, descriptor).unit()
        with pytest.raises(MismatchError, match="does not act on dimension"):
            apply_operator(op, x)
