"""Sections of a fiber bundle: arithmetic, function-valued norm, module
action, disjoint decomposition, identity liftings, and mixing."""

import numpy as np
import pytest

from bkbundle import (
    AtomicMeasureSpace,
    Bundle,
    FiberDescriptor,
    FiberElement,
    PartitionOfUnity,
    d_decompose,
    lifting,
    mix_sections,
    vector_lifting,
)
from bkbundle.errors import MismatchError, PreconditionError
from bkbundle.linalg import operator_norm
from bkbundle.sampling import derive_rng, random_efunction, random_section


def test_section_shape_is_validated(matrix2_bundle):
    wrong = {
        "a": FiberElement.matrix([[1, 0], [0, 1]]),
        "b": FiberElement.scalar(1.0),
        "c": FiberElement.matrix([[1, 0], [0, 1]]),
    }
    with pytest.raises(MismatchError):
        matrix2_bundle.section(wrong)


def test_scalar_section_product(scalar_bundle):
    space = scalar_bundle.space
    u = scalar_bundle.section(
        {"a": FiberElement.scalar(1), "b": FiberElement.scalar(2), "c": FiberElement.scalar(1)}
    )
    v = scalar_bundle.section(
        {"a": FiberElement.scalar(3), "b": FiberElement.scalar(4), "c": FiberElement.scalar(1)}
    )
    uv = u * v
    assert uv.value("a").data == 3
    assert uv.value("b").data == 8

    e = scalar_bundle.unit()
    assert ((u * e) - u).sup_norm() == 0.0
    assert ((u + scalar_bundle.zero()) - u).sup_norm() == 0.0


def test_unit_norm_is_one(mixed_bundle):
    e = mixed_bundle.unit()
    norm = e.norm()
    assert (norm - mixed_bundle.space.ones()).max_abs() <= 1e-14


def test_section_norm_frozen_case():
    space = AtomicMeasureSpace.from_weights({"p": 1.0, "q": 1.0})
    B = Bundle.of(space, {a: FiberDescriptor.matrix(2) for a in space.atoms})
    u = B.section(
        {
            "p": FiberElement.basis(FiberDescriptor.matrix(2), 1),
            "q": FiberElement.matrix([[3, 0], [0, 1]]),
        }
    )
    # per-atom oracle: operator norms computed directly on the raw arrays
    want_p = operator_norm(np.array([[0, 1], [0, 0]], dtype=complex))
    want_q = operator_norm(np.array([[3, 0], [0, 1]], dtype=complex))
    assert (want_p, want_q) == (pytest.approx(1.0), pytest.approx(3.0))
    norm = u.norm()
    assert norm.value("p").real == pytest.approx(1.0, abs=1e-12)
    assert norm.value("q").real == pytest.approx(3.0, abs=1e-12)


def test_bundle_mismatch_rejected(scalar_bundle, matrix2_bundle):
    u = scalar_bundle.unit()
    v = matrix2_bundle.unit()
    with pytest.raises(MismatchError):
        u + v


def test_module_action_axioms(mixed_bundle):
    rng = derive_rng(0, "bundle", "module")
    space = mixed_bundle.space
    for _ in range(50):
        a = random_efunction(space, rng)
        u = random_section(mixed_bundle, rng)
        v = random_section(mixed_bundle, rng)

        assert ((space.ones() * u) - u).sup_norm() == 0.0

        norm_gap = ((a * u).norm() - abs(a) * u.norm()).max_abs()
        assert norm_gap <= 1e-10 * max(1.0, a.max_abs() * u.sup_norm())

        assoc = ((a * u) * v) - (a * (u * v))
        scale = max(1.0, a.max_abs() * u.sup_norm() * v.sup_norm())
        assert assoc.sup_norm() <= 1e-10 * scale
        swap = ((a * u) * v) - (u * (a * v))
        assert swap.sup_norm() <= 1e-10 * scale


def test_bk_axioms_random_sections(mixed_bundle):
    rng = derive_rng(0, "bundle", "axioms")
    for _ in range(100):
        u = random_section(mixed_bundle, rng)
        v = random_section(mixed_bundle, rng)
        nu, nv = u.norm(), v.norm()
        assert nu.is_real()
        assert min(nu.real_array()) >= 0.0
        tri = ((u + v).norm() - (nu + nv)).real_array()
        assert tri.max() <= 1e-9
        sub = ((u * v).norm() - nu * nv).real_array()
        assert sub.max() <= 1e-9


def test_norm_definiteness(mixed_bundle):
    z = mixed_bundle.zero()
    assert z.norm().max_abs() == 0.0
    assert z.is_zero()


def test_d_decompose_frozen_cases(matrix2_bundle):
    rng = derive_rng(0, "bundle", "decompose")
    space = matrix2_bundle.space
    u = random_section(matrix2_bundle, rng)

    x1, x2 = d_decompose(u, u.norm(), space.zeros())
    assert (x1 - u).sup_norm() == 0.0
    assert x2.is_zero()

    # split supported on a single atom
    lam1 = u.norm() * space.indicator(["a"]).as_efunction()
    lam2 = u.norm() * space.indicator(["b", "c"]).as_efunction()
    x1, x2 = d_decompose(u, lam1, lam2)
    assert (x1.value("a") - u.value("a")).norm() == 0.0
    assert x1.value("b").is_zero() and x1.value("c").is_zero()
    assert ((x1 + x2) - u).sup_norm() == 0.0

    z = matrix2_bundle.zero()
    y1, y2 = d_decompose(z, space.zeros(), space.zeros())
    assert y1.is_zero() and y2.is_zero()


def test_d_decompose_random_splits(mixed_bundle):
    rng = derive_rng(0, "bundle", "decompose-random")
    space = mixed_bundle.space
    for _ in range(100):
        u = random_section(mixed_bundle, rng)
        mask = space.indicator(
            [a for a in space.atoms if rng.random() < 0.5]
        )
        lam1 = u.norm() * mask.as_efunction()
        lam2 = u.norm() * mask.complement().as_efunction()
        x1, x2 = d_decompose(u, lam1, lam2)
        assert ((x1 + x2) - u).sup_norm() == 0.0
        assert (x1.norm() - lam1).max_abs() <= 1e-10
        assert (x2.norm() - lam2).max_abs() <= 1e-10


def test_d_decompose_rejects_bad_split(matrix2_bundle):
    rng = derive_rng(0, "bundle", "decompose-bad")
    space = matrix2_bundle.space
    u = random_section(matrix2_bundle, rng)
    while u.norm().real_array().min() < 0.1:
        u = random_section(matrix2_bundle, rng)
    # overlapping split: both lambdas live on every atom
    half = u.norm() * space.constant(0.5)
    with pytest.raises(PreconditionError):
        d_decompose(u, half, half)
    # sum does not match the norm
    with pytest.raises(PreconditionError):
        d_decompose(u, u.norm(), u.norm())


def test_liftings_are_identity_and_multiplicative(mixed_bundle):
    rng = derive_rng(0, "bundle", "lifting")
    space = mixed_bundle.space
    assert (lifting(space.ones()) - space.ones()).max_abs() == 0.0
    e = mixed_bundle.unit()
    assert (vector_lifting(e) - e).sup_norm() == 0.0
    for _ in range(30):
        u = random_section(mixed_bundle, rng)
        v = random_section(mixed_bundle, rng)
        assert (vector_lifting(u) - u).sup_norm() == 0.0
        prod_gap = vector_lifting(u * v) - vector_lifting(u) * vector_lifting(v)
        assert prod_gap.sup_norm() == 0.0
        # norm compatibility: fiber norm of the lift equals the lifted norm
        assert (vector_lifting(u).norm() - lifting(u.norm())).max_abs() == 0.0


def test_mix_sections_frozen_cases(matrix2_bundle):
    rng = derive_rng(0, "bundle", "mix")
    space = matrix2_bundle.space
    xs = [random_section(matrix2_bundle, rng) for _ in range(2)]

    trivial = PartitionOfUnity.trivial(space)
    assert (mix_sections(trivial, [xs[0]]) - xs[0]).sup_norm() == 0.0

    p = PartitionOfUnity.from_labels(space, [0, 1, 0])
    glued = mix_sections(p, xs)
    assert (glued.value("a") - xs[0].value("a")).norm() == 0.0
    assert (glued.value("b") - xs[1].value("b")).norm() == 0.0
    assert (glued.value("c") - xs[0].value("c")).norm() == 0.0

    same = mix_sections(p, [xs[0], xs[0]])
    assert (same - xs[0]).sup_norm() == 0.0


def test_mix_sections_locality(mixed_bundle):
    rng = derive_rng(0, "bundle", "mix-local")
    space = mixed_bundle.space
    p = PartitionOfUnity.from_labels(space, [0, 1, 1, 2])
    xs = [random_section(mixed_bundle, rng) for _ in range(3)]
    glued = mix_sections(p, xs)
    for k, part in enumerate(p.parts):
        mask = part.as_efunction()
        assert ((mask * glued) - (mask * xs[k])).sup_norm() == 0.0
