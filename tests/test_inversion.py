"""Certified inversion: truncated geometric series with its tail bound, the
atomwise exact route, perturbed inverses, and mixing preservation."""

import numpy as np
import pytest

from bkbundle import (
    AtomicMeasureSpace,
    Bundle,
    FiberDescriptor,
    FiberElement,
    NotInvertible,
    PartitionOfUnity,
    inverse,
    inverse_of_mix,
    is_invertible,
    mix_sections,
    neumann_inverse,
    perturbed_inverse,
)
from bkbundle.errors import PreconditionError
from bkbundle.inversion import _strict_contraction_order
from bkbundle.sampling import (
    derive_rng,
    random_invertible_section,
    random_section,
    random_section_with_norm,
)

KIND_BUNDLES = {}
for label, desc in (
    ("scalar", FiberDescriptor.scalar()),
    ("matrix(3)", FiberDescriptor.matrix(3)),
    ("function(5)", FiberDescriptor.function(5)),
):
    space = AtomicMeasureSpace.from_weights({"a": 1.0, "b": 2.0, "c": 0.5})
    KIND_BUNDLES[label] = Bundle.of(space, {atom: desc for atom in space.atoms})


def scalar_section(bundle, values):
    return bundle.section(
        {a: FiberElement.scalar(v) for a, v in zip(bundle.space.atoms, values)}
    )


def test_half_unit_geometric_series(scalar_bundle):
    # x = e/2: the series sums to 2e, and the bound norm((e-x)^-1 - e)
    # <= norm(x) * (1 - norm(x))^-1 = 1 is attained exactly
    e = scalar_bundle.unit()
    x = scalar_bundle.space.constant(0.5) * e
    cert = neumann_inverse(x, tol=1e-12)
    gap = (cert.inverse - scalar_bundle.space.constant(2.0) * e).sup_norm()
    assert gap <= 1e-11
    lhs = (cert.inverse - e).norm()
    rhs = x.norm() * (scalar_bundle.space.ones() - x.norm()).reciprocal()
    assert (rhs - lhs).real_array().min() >= -1e-9
    assert np.allclose(rhs.real_array(), 1.0)
    assert (cert.bound_slack.real_array() >= -1e-9).all()


def test_nilpotent_series_terminates():
    space = AtomicMeasureSpace.from_weights({"p": 1.0, "q": 1.0})
    B = Bundle.of(space, {a: FiberDescriptor.matrix(2) for a in space.atoms})
    nil = FiberElement.matrix([[0, 0.5], [0, 0]])
    x = B.section({"p": nil, "q": nil})
    cert = neumann_inverse(x, tol=1e-12)
    assert cert.truncation_order == "exact"
    want = B.unit() + x
    assert (cert.inverse - want).sup_norm() <= 1e-14


def test_zero_series_is_unit(mixed_bundle):
    cert = neumann_inverse(mixed_bundle.zero(), tol=1e-12)
    assert (cert.inverse - mixed_bundle.unit()).sup_norm() == 0.0
    assert cert.residual.max_abs() == 0.0
    # the tail bound already certifies at order zero, before the
    # early-termination scan would notice the vanishing powers
    assert cert.truncation_order in (0, "exact")


def test_neumann_requires_strict_contraction(scalar_bundle):
    e = scalar_bundle.unit()
    with pytest.raises(PreconditionError) as err:
        neumann_inverse(e, tol=1e-8)
    assert err.value.atom is not None


def test_neumann_residual_certified(mixed_bundle):
    rng = derive_rng(0, "inversion", "residual")
    space = mixed_bundle.space
    for _ in range(50):
        profile = space.efunction(
            {a: rng.uniform(0.05, 0.9) for a in space.atoms}
        )
        x = random_section_with_norm(mixed_bundle, rng, profile)
        cert = neumann_inverse(x, tol=1e-8)
        assert cert.residual.max_abs() <= 1e-8 + 1e-15
        assert (cert.bound_slack.real_array() >= -1e-9).all()


def test_exact_inverse_frozen_cases(scalar_bundle, matrix2_bundle):
    e = scalar_bundle.unit()
    assert is_invertible(e)
    assert (inverse(e) - e).sup_norm() <= 1e-14

    u = scalar_section(scalar_bundle, [2, 4, 1])
    got = inverse(u)
    assert got.value("a").data == pytest.approx(0.5)
    assert got.value("b").data == pytest.approx(0.25)

    mixed_rank = matrix2_bundle.section(
        {
            "a": FiberElement.unit(FiberDescriptor.matrix(2)),
            "b": FiberElement.basis(FiberDescriptor.matrix(2), 0),
            "c": FiberElement.unit(FiberDescriptor.matrix(2)),
        }
    )
    verdict = inverse(mixed_rank)
    assert isinstance(verdict, NotInvertible)
    assert verdict.atoms == ("b",)
    assert not is_invertible(mixed_rank)


def test_small_far_from_orthogonal_column_is_not_invertible(matrix2_bundle):
    # sigma_min of the matrix at b is 1e-20, far below SIGMA_TOL, although
    # its second column has norm 1e-9
    one = FiberElement.unit(FiberDescriptor.matrix(2))
    x = matrix2_bundle.section(
        {"a": one, "b": FiberElement.matrix([[1e8, 1e-9], [0, 1e-20]]), "c": one}
    )
    verdict = inverse(x)
    assert isinstance(verdict, NotInvertible)
    assert verdict.atoms == ("b",)
    assert not is_invertible(x)


def test_neumann_agrees_with_exact_route(mixed_bundle):
    # the two inversion routes are independent; their gap is the check
    rng = derive_rng(0, "inversion", "two-routes")
    space = mixed_bundle.space
    tol = 1e-8
    for _ in range(100):
        profile = space.efunction(
            {a: rng.uniform(0.05, 0.9) for a in space.atoms}
        )
        x = random_section_with_norm(mixed_bundle, rng, profile)
        via_series = neumann_inverse(x, tol=tol).inverse
        via_elimination = inverse(mixed_bundle.unit() - x)
        assert not isinstance(via_elimination, NotInvertible)
        assert (via_series - via_elimination).sup_norm() <= 2 * tol


def test_perturbed_inverse_frozen_cases(scalar_bundle):
    e = scalar_bundle.unit()
    x = e
    h = scalar_bundle.space.constant(0.25) * e
    cert = perturbed_inverse(x, h, tol=1e-12)
    assert (cert.inverse - scalar_bundle.space.constant(0.8) * e).sup_norm() <= 1e-11
    lhs = (cert.inverse - e).norm()
    assert np.allclose(lhs.real_array(), 0.2, atol=1e-11)
    # paper-form bound: 2 * norm(xinv)^2 * norm(h) = 0.5 pointwise
    assert (cert.bound_slack - scalar_bundle.space.constant(0.3)).max_abs() <= 1e-9

    zero_h = scalar_bundle.zero()
    cert0 = perturbed_inverse(x, zero_h, tol=1e-12)
    assert (cert0.inverse - e).sup_norm() <= 1e-14


def test_perturbed_inverse_unitriangular_case():
    space = AtomicMeasureSpace.from_weights({"p": 1.0})
    B = Bundle.of(space, {"p": FiberDescriptor.matrix(2)})
    x = B.unit()
    h = B.section({"p": FiberElement.matrix([[0, 0.2], [0, 0]])})
    cert = perturbed_inverse(x, h, tol=1e-12)
    # oracle: the inverse of a unitriangular [[1, t], [0, 1]] is [[1, -t], [0, 1]]
    want = B.section({"p": FiberElement.matrix([[1, -0.2], [0, 1]])})
    assert (cert.inverse - want).sup_norm() <= 1e-11
    lhs = (cert.inverse - x).norm().value("p").real
    assert lhs == pytest.approx(0.2, abs=1e-11)
    rhs = 2.0 * 1.0 * 0.2
    assert lhs <= rhs


def test_perturbed_inverse_precondition(scalar_bundle):
    e = scalar_bundle.unit()
    big = scalar_bundle.space.constant(0.6) * e
    with pytest.raises(PreconditionError):
        perturbed_inverse(e, big, tol=1e-8)


@pytest.mark.parametrize("label", sorted(KIND_BUNDLES))
def test_perturbation_bound_random_pairs(label):
    B = KIND_BUNDLES[label]
    rng = derive_rng(0, "inversion", "eq-bound", label)
    for _ in range(500):
        x = random_invertible_section(B, rng, min_sigma=0.15)
        xinv = inverse(x)
        margin = xinv.norm().reciprocal()
        theta = rng.uniform(0.05, 0.95)
        h_raw = random_section(B, rng)
        h_norm = h_raw.sup_norm()
        if h_norm < 1e-12:
            continue
        scale = theta / 2.0 * margin.real_array().min() / h_norm
        h = B.space.constant(scale) * h_raw
        cert = perturbed_inverse(x, h, tol=1e-10)
        lhs = (cert.inverse - xinv).norm()
        rhs = B.space.constant(2.0) * xinv.norm() * xinv.norm() * h.norm()
        assert ((rhs - lhs).real_array() >= -1e-9).all()


def test_inversion_continuity(mixed_bundle):
    # x_n -> x forces inverse(x_n) -> inverse(x), quantitatively via the
    # perturbation bound once 2*norm(h) is under norm(xinv)^-1
    rng = derive_rng(0, "inversion", "continuity")
    x = random_invertible_section(mixed_bundle, rng, min_sigma=0.2)
    xinv = inverse(x)
    h0 = random_section(mixed_bundle, rng)
    h0 = mixed_bundle.space.constant(
        0.2 * xinv.norm().reciprocal().real_array().min() / h0.sup_norm()
    ) * h0
    diffs = []
    for n in range(12):
        h = mixed_bundle.space.constant(2.0 ** -n) * h0
        cert = perturbed_inverse(x, h, tol=1e-12)
        diffs.append((cert.inverse - xinv).sup_norm())
    assert all(b <= a * 0.75 for a, b in zip(diffs, diffs[1:]))
    assert diffs[-1] <= max(1e-9, diffs[0] * 2.0 ** -10)


def test_inverse_of_mix_frozen_cases():
    space = AtomicMeasureSpace.from_weights({"p": 1.0, "q": 1.0})
    B = Bundle.of(space, {a: FiberDescriptor.scalar() for a in space.atoms})
    e = B.unit()
    two = space.constant(2.0) * e
    four = space.constant(4.0) * e

    trivial = PartitionOfUnity.trivial(space)
    got = inverse_of_mix(trivial, [two])
    assert (got - space.constant(0.5) * e).sup_norm() <= 1e-12

    split = PartitionOfUnity.from_labels(space, [0, 1])
    got = inverse_of_mix(split, [two, four])
    assert got.value("p").data == pytest.approx(0.5)
    assert got.value("q").data == pytest.approx(0.25)

    same = inverse_of_mix(split, [two, two])
    assert (same - space.constant(0.5) * e).sup_norm() <= 1e-12


def test_inverse_of_mix_random(mixed_bundle):
    rng = derive_rng(0, "inversion", "mix")
    space = mixed_bundle.space
    for _ in range(50):
        labels = [int(rng.integers(0, 2)) for _ in space.atoms]
        p = PartitionOfUnity.from_labels(space, labels)
        xs = [
            random_invertible_section(mixed_bundle, rng, min_sigma=0.15)
            for _ in p.parts
        ]
        glued_inverse = inverse_of_mix(p, xs)
        mixed_inverses = mix_sections(p, [inverse(x) for x in xs])
        assert (glued_inverse - mixed_inverses).sup_norm() <= 1e-10


def test_inverse_of_mix_rejects_singular_member():
    space = AtomicMeasureSpace.from_weights({"p": 1.0, "q": 1.0})
    B = Bundle.of(space, {a: FiberDescriptor.matrix(2) for a in space.atoms})
    singular = B.section(
        {"p": FiberElement.basis(FiberDescriptor.matrix(2), 0), "q": FiberElement.unit(FiberDescriptor.matrix(2))}
    )
    p = PartitionOfUnity.from_labels(space, [0, 1])
    with pytest.raises(PreconditionError):
        inverse_of_mix(p, [B.unit(), singular])


@pytest.mark.parametrize("r", [0.3, 0.5, 0.9, 0.99, 0.999])
@pytest.mark.parametrize("tol", [1e-8, 1e-12])
def test_series_order_is_the_first_power_of_two_past_the_required_order(
    mixed_bundle, r, tol
):
    rng = derive_rng(0, "inversion", "doubling", str(r), str(tol))
    space = mixed_bundle.space
    profile = space.efunction({a: r * rng.uniform(0.5, 1.0) for a in space.atoms})
    x = random_section_with_norm(mixed_bundle, rng, profile)
    required = max(
        _strict_contraction_order(float(v), tol) for v in x.norm().real_array()
    )
    cert = neumann_inverse(x, tol=tol)
    order = cert.truncation_order
    assert isinstance(order, int) and order & (order + 1) == 0
    assert (order - 1) // 2 < required <= order
    assert cert.residual.max_abs() <= tol + 1e-15


def test_nilpotent_index_three_series_terminates():
    # x = 0.5 * shift: x^3 = 0 while x^2 != 0, so the squared power x^4
    # vanishes after the second factor (e + x^2)
    space = AtomicMeasureSpace.from_weights({"p": 1.0})
    B = Bundle.of(space, {"p": FiberDescriptor.matrix(3)})
    x = B.section({"p": FiberElement.matrix(0.5 * np.eye(3, k=1))})
    assert not (x * x).is_zero() and (x * x * x).is_zero()
    cert = neumann_inverse(x, tol=1e-12)
    assert cert.truncation_order == "exact"
    want = B.unit() + x + x * x
    assert (cert.inverse - want).sup_norm() <= 1e-14


@pytest.mark.parametrize(
    "desc",
    [FiberDescriptor.scalar(), FiberDescriptor.matrix(2), FiberDescriptor.function(3)],
    ids=lambda d: d.label(),
)
@pytest.mark.parametrize("tol", [-1e-8, float("nan")])
def test_negative_or_nan_tolerance_is_a_precondition_error(desc, tol):
    # before the check, a zero section raised whatever its fiber kind's
    # inverse raised: ZeroDivisionError, CertificationError or ValueError
    space = AtomicMeasureSpace.from_weights({"a": 1.0, "b": 2.0})
    zero = Bundle.of(space, desc).zero()
    with pytest.raises(PreconditionError, match="tolerance must be >= 0"):
        inverse(zero, tol)
    with pytest.raises(PreconditionError, match="tolerance must be >= 0"):
        is_invertible(zero, tol)
    assert isinstance(inverse(zero, 0.0), NotInvertible)


@pytest.mark.parametrize("tol", [0.0, -1e-8, float("nan")])
def test_series_routes_reject_a_tolerance_that_is_not_positive(mixed_bundle, tol):
    # before the check: "math domain error" or "cannot convert float NaN
    # to integer", as a bare ValueError
    rng = derive_rng(0, "inversion", "series-tol")
    x = random_section_with_norm(mixed_bundle, rng, mixed_bundle.space.constant(0.25))
    with pytest.raises(PreconditionError, match="tolerance must be > 0"):
        neumann_inverse(x, tol)
    with pytest.raises(PreconditionError, match="tolerance must be > 0"):
        perturbed_inverse(mixed_bundle.unit(), x, tol)
