"""Concrete fiber algebras: arithmetic, norms, inverses, spectra.

The [oracle] helpers recompute each frozen expectation by an independent
route (closed-form 2x2 characteristic polynomial, direct modulus, companion
polynomial) so no expected value below is taken on faith.
"""

import cmath
import math

import numpy as np
import pytest

from bkbundle import FiberDescriptor, FiberElement, NotInvertible, linalg
from bkbundle.fibers import fill_norms
from bkbundle.errors import MismatchError, NonFiniteError
from bkbundle.sampling import derive_rng, random_fiber_element

KINDS = (
    FiberDescriptor.scalar(),
    FiberDescriptor.matrix(2),
    FiberDescriptor.matrix(5),
    FiberDescriptor.function(4),
)


def oracle_2x2_operator_norm(m):
    """Largest singular value of a 2x2 matrix from the closed-form
    characteristic polynomial of the 2x2 Hermitian gram matrix:
    lambda^2 - tr*lambda + det, largest root via the quadratic formula."""
    a = np.asarray(m, dtype=complex)
    g = a.conj().T @ a
    tr = g[0, 0].real + g[1, 1].real
    det = (g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]).real
    largest = (tr + math.sqrt(max(tr * tr - 4.0 * det, 0.0))) / 2.0
    return math.sqrt(max(largest, 0.0))


def oracle_companion_roots(coeffs):
    """Roots of a monic quadratic via the explicit formula."""
    _, b, c = coeffs
    disc = cmath.sqrt(b * b - 4.0 * c)
    return sorted(
        [(-b + disc) / 2.0, (-b - disc) / 2.0], key=lambda z: (z.real, z.imag)
    )


def test_matrix_unit_products():
    e12 = FiberElement.basis(FiberDescriptor.matrix(2), 1)
    e21 = FiberElement.basis(FiberDescriptor.matrix(2), 2)
    e11 = FiberElement.basis(FiberDescriptor.matrix(2), 0)
    assert (e12 * e21 - e11).norm() == 0.0
    assert (e12 * e12).is_zero()


def test_unit_is_neutral():
    rng = derive_rng(0, "fibers", "unit")
    for desc in KINDS:
        e = FiberElement.unit(desc)
        assert e.norm() == pytest.approx(1.0, abs=1e-14)
        for _ in range(20):
            a = random_fiber_element(desc, rng)
            assert (e * a - a).norm() <= 1e-14 * max(1.0, a.norm())
            assert (a * e - a).norm() <= 1e-14 * max(1.0, a.norm())


def test_descriptor_mismatch_rejected():
    a = FiberElement.scalar(1.0)
    b = FiberElement.matrix([[1, 0], [0, 1]])
    with pytest.raises(MismatchError):
        a * b


def test_operator_norm_frozen_cases():
    nilpotent = [[0, 1], [0, 0]]
    assert oracle_2x2_operator_norm(nilpotent) == pytest.approx(1.0, abs=1e-15)
    assert FiberElement.matrix(nilpotent).norm() == pytest.approx(1.0, abs=1e-12)

    for n in range(1, 9):
        assert FiberElement.unit(FiberDescriptor.matrix(n)).norm() == pytest.approx(
            1.0, abs=1e-12
        )

    diag = [[3, 0], [0, -4j]]
    moduli = sorted(abs(complex(diag[i][i])) for i in range(2))
    assert moduli[-1] == 4.0
    assert FiberElement.matrix(diag).norm() == pytest.approx(4.0, abs=1e-12)


def test_operator_norm_matches_2x2_oracle_on_random_matrices():
    rng = derive_rng(0, "fibers", "opnorm-2x2")
    for _ in range(200):
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        want = oracle_2x2_operator_norm(m)
        assert FiberElement.matrix(m).norm() == pytest.approx(want, rel=1e-10)


def test_inverse_frozen_cases():
    assert FiberElement.scalar(2.0).inverse().data == pytest.approx(0.5)

    e11 = FiberElement.basis(FiberDescriptor.matrix(2), 0)
    result = e11.inverse()
    assert isinstance(result, NotInvertible)
    assert not result

    tri = FiberElement.matrix([[1, 0.5], [0, 1]])
    want = FiberElement.matrix([[1, -0.5], [0, 1]])
    assert (tri.inverse() - want).norm() <= 1e-12


@pytest.mark.parametrize(
    "m",
    [
        # the cyclic Jacobi kernel raised ConvergenceError here, so inverse did too
        [[0, -8j, -16 + 32j], [0, 0, 0], [-9j, -32 + 32j, 256]],
        # sigma_min is |det| / sigma_max = 1e-20, not the small column's norm 1e-9
        [[1e8, 1e-9], [0, 1e-20]],
    ],
    ids=["rank-deficient", "small-column"],
)
def test_near_singular_matrix_is_not_invertible(m):
    a = FiberElement.matrix(m)
    assert a.smallest_singular_value() <= 1e-19
    assert isinstance(a.inverse(), NotInvertible)


@pytest.mark.parametrize("n", range(2, 9))
def test_tiny_matrix_norm_is_the_same_alone_and_stacked(n):
    # A* A of these entries underflows unless the matrix is scaled first
    alone, stacked = (FiberElement.matrix(1e-170 * np.ones((n, n))) for _ in range(2))
    fill_norms([stacked, FiberElement.matrix(1e-170 * np.ones((n, n)))])
    assert alone.norm() > 0.0
    assert alone.norm() == pytest.approx(stacked.norm(), rel=1e-14, abs=0.0)
    assert alone.norm() == pytest.approx(n * 1e-170, rel=1e-14, abs=0.0)


def test_fill_norms_stacks_each_size_with_two_or_more_elements():
    rng = derive_rng(0, "fibers", "fill-norms")
    els = [random_fiber_element(FiberDescriptor.matrix(n), rng) for n in (3, 5, 3, 4, 2, 2)]
    cached = random_fiber_element(FiberDescriptor.matrix(4), rng)
    cached.norm()
    before = cached._norm
    fill_norms(els + [cached])
    for el in (els[0], els[2]):
        assert el._norm == linalg.singular_values(el.data)[-1]
        assert el.norm() == pytest.approx(np.linalg.norm(el.data, 2), rel=1e-13)
    # a lone size, the size-4 element whose partner is cached, and the
    # size-2 pair are left to norm()
    assert [els[i]._norm for i in (1, 3, 4, 5)] == [None] * 4
    assert cached._norm == before


def test_inverse_certifies_both_sides():
    rng = derive_rng(0, "fibers", "inverse")
    for desc in KINDS:
        e = FiberElement.unit(desc)
        for _ in range(50):
            a = random_fiber_element(desc, rng)
            b = a.inverse(tol=1e-8)
            if isinstance(b, NotInvertible):
                continue
            assert (a * b - e).norm() <= 1e-8
            assert (b * a - e).norm() <= 1e-8


def test_spectrum_frozen_cases():
    diag = FiberElement.matrix([[1, 0], [0, 2]])
    assert sorted(z.real for z in diag.spectrum()) == pytest.approx([1.0, 2.0])
    assert max(abs(z.imag) for z in diag.spectrum()) <= 1e-12

    nil = FiberElement.matrix([[0, 0.5], [0, 0]])
    assert len(nil.spectrum()) == 2
    assert max(abs(z) for z in nil.spectrum()) <= 1e-8

    swap = FiberElement.matrix([[0, 1], [1, 0]])
    # char poly of the swap is z^2 - 1; companion-polynomial oracle
    want = oracle_companion_roots([1.0, 0.0, -1.0])
    assert want == [(-1 + 0j), (1 + 0j)]
    got = sorted(swap.spectrum(), key=lambda z: (z.real, z.imag))
    assert all(abs(g - w) <= 1e-10 for g, w in zip(got, want))


def test_spectrum_of_scalar_and_function_kinds():
    assert FiberElement.scalar(3 + 1j).spectrum() == (3 + 1j,)
    f = FiberElement.function([1, 2j, -3])
    assert sorted(f.spectrum(), key=lambda z: (z.real, z.imag)) == [-3, 2j, 1]


def test_norm_axioms_random():
    rng = derive_rng(0, "fibers", "norm-axioms")
    for desc in KINDS:
        zero = FiberElement.zero(desc)
        assert zero.norm() == 0.0
        for _ in range(100):
            a = random_fiber_element(desc, rng)
            b = random_fiber_element(desc, rng)
            lam = complex(rng.standard_normal(), rng.standard_normal())
            assert a.norm() >= 0.0
            scaled = lam * a
            assert scaled.norm() == pytest.approx(abs(lam) * a.norm(), abs=1e-9)
            assert (a + b).norm() <= a.norm() + b.norm() + 1e-9


def test_norm_zero_implies_zero():
    for desc in KINDS:
        a = FiberElement.zero(desc)
        assert a.norm() <= 1e-12
        assert a.is_zero()


def test_submultiplicativity_thousand_pairs_per_kind():
    rng = derive_rng(0, "fibers", "submult")
    for desc in KINDS:
        for _ in range(1000):
            a = random_fiber_element(desc, rng)
            b = random_fiber_element(desc, rng)
            assert (a * b).norm() <= a.norm() * b.norm() + 1e-9


def test_spectral_radius_bound():
    rng = derive_rng(0, "fibers", "radius")
    for desc in KINDS:
        for _ in range(100):
            a = random_fiber_element(desc, rng)
            radius = max((abs(z) for z in a.spectrum()), default=0.0)
            assert radius <= a.norm() + 1e-8


def test_inverse_is_involutive():
    rng = derive_rng(0, "fibers", "involution")
    for desc in KINDS:
        for _ in range(100):
            a = random_fiber_element(desc, rng)
            b = a.inverse()
            if isinstance(b, NotInvertible):
                continue
            back = b.inverse()
            assert not isinstance(back, NotInvertible)
            assert (back - a).norm() <= 1e-8 * max(1.0, a.norm())


def test_descriptor_bounds():
    with pytest.raises(ValueError):
        FiberDescriptor.matrix(9)
    with pytest.raises(ValueError):
        FiberDescriptor.matrix(0)
    with pytest.raises(ValueError):
        FiberDescriptor.function(65)
    assert FiberDescriptor.matrix(8).label() == "matrix(8)"
    assert FiberDescriptor.function(64).label() == "function(64)"
    assert FiberDescriptor.scalar().label() == "scalar"


def test_zero_divisor_flags():
    assert not FiberDescriptor.scalar().has_zero_divisors()
    assert not FiberDescriptor.matrix(1).has_zero_divisors()
    assert not FiberDescriptor.function(1).has_zero_divisors()
    assert FiberDescriptor.matrix(2).has_zero_divisors()
    assert FiberDescriptor.function(2).has_zero_divisors()


ONE_DIM = (FiberDescriptor.scalar(), FiberDescriptor.function(1), FiberDescriptor.matrix(1))


def _one_dim_elements(z: complex):
    return [FiberElement(d, np.full(d.shape, z)) for d in ONE_DIM]


def test_one_dimensional_kinds_agree():
    # scalar, function(1) and matrix(1) are the same algebra C; scalar
    # shares function's pointwise path, so those two agree bitwise
    rng = derive_rng(0, "fibers", "one-dim")
    draws = [complex(*rng.standard_normal(2)) * 10.0 ** rng.uniform(-12, 12) for _ in range(500)]
    for z in draws + [1e-12, 2e-10, 1e-10, 1e-12j, -2e-10, 0.0]:
        s, f, m = _one_dim_elements(z)
        assert s.spectrum() == f.spectrum() == m.spectrum() == (complex(z),)
        assert s.norm() == f.norm()
        assert m.norm() == pytest.approx(s.norm(), rel=1e-15, abs=0.0)
        sig = s.smallest_singular_value()
        assert f.smallest_singular_value() == sig
        assert m.smallest_singular_value() == pytest.approx(sig, rel=1e-15, abs=0.0)
        inverses = [el.inverse() for el in (s, f, m)]
        assert len({isinstance(inv, NotInvertible) for inv in inverses}) == 1
        if isinstance(inverses[0], NotInvertible):
            continue
        want = complex(inverses[0].data)
        for inv in inverses[1:]:
            assert complex(inv.data.reshape(-1)[0]) == pytest.approx(want, rel=1e-15, abs=0.0)


def test_basis_puts_a_single_one_at_a_flat_position():
    e12 = FiberElement.basis(FiberDescriptor.matrix(3), 5)
    want = np.zeros((3, 3))
    want[1, 2] = 1.0
    assert e12 == FiberElement.matrix(want)
    e2 = FiberElement.basis(FiberDescriptor.function(4), 2)
    assert e2 == FiberElement.function([0, 0, 1, 0])
    for el in (e12, e2):
        assert el.norm() == 1.0
        assert el.smallest_singular_value() == 0.0


# Every arithmetic result, as a function of two operands a and b.
RESULT_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "neg": lambda a, b: -a,
    "scale-right": lambda a, b: a * (2.0 - 0.5j),
    "scale-left": lambda a, b: (2.0 - 0.5j) * a,
}
RESULT_KINDS = (FiberDescriptor.scalar(), FiberDescriptor.matrix(3), FiberDescriptor.function(4))


@pytest.mark.parametrize("desc", RESULT_KINDS, ids=lambda d: d.label())
@pytest.mark.parametrize("op", sorted(RESULT_OPS))
def test_arithmetic_results_are_fresh_read_only_arrays(op, desc):
    rng = derive_rng(0, "fibers", "result", op, desc.label())
    a, b = random_fiber_element(desc, rng), random_fiber_element(desc, rng)
    got = RESULT_OPS[op](a, b)
    assert type(got.data) is np.ndarray
    assert got.data.shape == desc.shape and got.data.dtype == complex
    assert not got.data.flags.writeable
    assert not np.shares_memory(got.data, a.data)
    assert not np.shares_memory(got.data, b.data)
    x, y = a.data, b.data
    want = {
        "add": x + y,
        "sub": x - y,
        "mul": x @ y if desc.kind == "matrix" else x * y,
        "neg": -x,
        "scale-right": x * (2.0 - 0.5j),
        "scale-left": x * (2.0 - 0.5j),
    }[op]
    assert np.array_equal(got.data, want)


@pytest.mark.parametrize("desc", RESULT_KINDS, ids=lambda d: d.label())
@pytest.mark.parametrize("op", ["add", "sub", "mul", "scale-right", "scale-left"])
def test_overflowing_arithmetic_results_raise_non_finite_error(op, desc):
    # unary minus cannot overflow; every other result here exceeds 1.8e308.
    # The CLI computes under the same errstate.
    big = FiberElement(desc, np.full(desc.shape, 1e308))
    other = -big if op == "sub" else big
    with np.errstate(all="ignore"), pytest.raises(NonFiniteError):
        RESULT_OPS[op](big, other)


@pytest.mark.parametrize("desc", RESULT_KINDS, ids=lambda d: d.label())
def test_public_constructor_copies_its_input(desc):
    source = np.ones(desc.shape, dtype=complex)
    el = FiberElement(desc, source)
    source[...] = 7.0
    assert not np.shares_memory(el.data, source)
    assert (el.data == 1.0).all() and not el.data.flags.writeable
