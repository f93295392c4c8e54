"""Dense-kernel checks against numpy's LAPACK-backed routines.

The library does not call numpy.linalg at runtime; these tests are the one
place where the bespoke kernels are cross-validated against an independent
implementation.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bkbundle.errors import CertificationError
from bkbundle.fibers import FiberElement
from bkbundle.linalg import (
    frobenius,
    gauss_jordan_inverse,
    hermitian_eigensystem,
    hermitian_eigenvalues,
    operator_norm,
    schur,
    singular_values,
)
from bkbundle.sampling import derive_rng


def _numpy_linalg_lines(source: str) -> list[int]:
    """Lines that import numpy.linalg or read the linalg attribute of np."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [f"{node.value.id}.{node.attr}".replace("np.", "numpy.", 1)]
        else:
            continue
        if any(name == "numpy.linalg" or name.startswith("numpy.linalg.") for name in names):
            lines.append(node.lineno)
    return lines


def test_the_package_never_uses_numpy_linalg():
    # numpy.linalg is the tests' independent oracle, never part of the runtime
    samples = ["import numpy.linalg", "from numpy import linalg", "from numpy.linalg import eig",
               "import numpy as np\nnp.linalg.eigvals(a)"]
    assert [_numpy_linalg_lines(src) for src in samples] == [[1], [1], [1], [2]]
    package = Path(__file__).resolve().parent.parent / "src" / "bkbundle"
    found = {p.name: _numpy_linalg_lines(p.read_text()) for p in sorted(package.glob("*.py"))}
    assert len(found) > 10
    assert {name: lines for name, lines in found.items() if lines} == {}


def _result_constructor_lines(source: str) -> list[int]:
    """Lines that read the private ``_from_result`` attribute of anything."""
    return [
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "_from_result"
    ]


def test_only_fibers_wraps_unvalidated_results():
    # FiberElement._from_result skips the copy and the shape check, so data
    # from any other module must go through the validating constructors
    assert _result_constructor_lines("FiberElement._from_result(d, x)") == [1]
    assert _result_constructor_lines("FiberElement(d, x)") == []
    package = Path(__file__).resolve().parent.parent / "src" / "bkbundle"
    found = {p.name: _result_constructor_lines(p.read_text()) for p in sorted(package.glob("*.py"))}
    assert found.pop("fibers.py")
    assert len(found) > 10
    assert {name: lines for name, lines in found.items() if lines} == {}


def random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_hermitian_eigenvalues_match_numpy():
    rng = derive_rng(0, "linalg", "hermitian")
    for trial in range(50):
        n = int(rng.integers(1, 9))
        a = random_complex(rng, n)
        h = a + a.conj().T
        got = hermitian_eigenvalues(h)
        want = np.sort(np.linalg.eigvalsh(h))
        scale = max(1.0, np.abs(want).max())
        assert np.abs(got - want).max() <= 1e-10 * scale
        assert np.all(np.diff(got) >= -1e-12 * scale)


def test_hermitian_eigensystem_reconstructs():
    rng = derive_rng(0, "linalg", "eigensystem")
    for trial in range(20):
        n = int(rng.integers(1, 9))
        a = random_complex(rng, n)
        h = a + a.conj().T
        vals, vecs = hermitian_eigensystem(h)
        recon = vecs @ np.diag(vals) @ vecs.conj().T
        scale = max(1.0, np.abs(h).max())
        assert np.abs(recon - h).max() <= 1e-10 * scale
        gram = vecs.conj().T @ vecs
        assert np.abs(gram - np.eye(n)).max() <= 1e-10


def assert_same_multiset(got, want, tol):
    """Every wanted value has its own got value within tol."""
    got = list(got)
    assert len(got) == len(want)
    for z in want:
        nearest = min(range(len(got)), key=lambda k: abs(got[k] - z))
        assert abs(got.pop(nearest) - z) <= tol


@pytest.mark.parametrize("n", range(1, 9))
def test_schur_eigenvalues_match_numpy_eigvals(n):
    rng = derive_rng(0, "linalg", "schur", str(n))
    for trial in range(40):
        a = rng.standard_normal((n, n)) if trial % 2 else random_complex(rng, n)
        q, t, _ = schur(a)
        assert np.array_equal(t, np.triu(t))
        scale = max(1.0, np.linalg.norm(a, 2))
        assert_same_multiset(t.diagonal(), np.linalg.eigvals(a), 1e-9 * scale)
        assert np.abs(q.conj().T @ q - np.eye(n)).max() <= 1e-14 * n


def test_schur_certificate_on_random_matrices():
    # 2,500 matrices of each size 1..8, complex and real in turn
    rng = derive_rng(0, "linalg", "schur-certificate")
    worst = 0.0
    for n in range(1, 9):
        for trial in range(2500):
            a = rng.standard_normal((n, n)) if trial % 2 else random_complex(rng, n)
            worst = max(worst, schur(a)[2] / max(1.0, np.linalg.norm(a, 2)))
    assert worst <= 1e-13


def jordan(n, lam):
    return np.diag(np.full(n, lam, dtype=complex)) + np.diag(np.ones(n - 1), 1)


def _edge_cases():
    rng = np.random.default_rng(0)
    cases = {
        "zero": np.zeros((4, 4)),
        "identity": np.eye(5),
        "cyclic-8": np.roll(np.eye(8), 1, axis=0),
        "nilpotent-2": np.array([[0.0, 0.5], [0.0, 0.0]]),
        "1e200-identity": 1e200 * np.eye(2),
        "random-8-1e38": 1e38 * random_complex(rng, 8),
    }
    for n in (3, 5, 8):
        for lam in (0, 1, 3 + 2j, 10):
            cases[f"J{n}({lam})"] = jordan(n, lam)
        cases[f"triangular-{n}"] = np.triu(random_complex(derive_rng(0, "triangular", str(n)), n))
    return cases


EDGE_CASES = _edge_cases()


@pytest.mark.parametrize("name", EDGE_CASES)
def test_schur_edge_cases(name):
    a = EDGE_CASES[name]
    q, t, delta = schur(a)
    norm = np.linalg.norm(a, 2)
    assert delta <= 1e-13 * max(1.0, norm)
    assert np.array_equal(t, np.triu(t))
    if np.array_equal(a, np.triu(a)):
        # triangular input is never rotated: its diagonal comes back exactly
        assert sorted(t.diagonal(), key=abs) == sorted(a.diagonal(), key=abs)
    else:
        assert_same_multiset(t.diagonal(), np.linalg.eigvals(a), 1e-12 * max(1.0, norm))


@pytest.mark.parametrize("n", [3, 8])
@pytest.mark.parametrize("k", [1, -1, 100, -100, 500, -500])
def test_spectrum_scales_bitwise_by_powers_of_two(n, k):
    rng = derive_rng(0, "linalg", "power-of-two", str(n))
    for a in (random_complex(rng, n), rng.standard_normal((n, n)), jordan(n, 2.0) + np.eye(n, k=-1) / 7):
        got = FiberElement.matrix(2.0**k * a).spectrum()
        want = FiberElement.matrix(a).spectrum()
        assert got == tuple(2.0**k * z for z in want)


def test_schur_of_a_hermitian_matrix_is_diagonal():
    rng = derive_rng(0, "linalg", "schur-hermitian")
    for trial in range(100):
        n = int(rng.integers(1, 9))
        a = random_complex(rng, n)
        h = a + a.conj().T
        _, t, _ = schur(h)
        assert np.abs(np.triu(t, 1)).max(initial=0.0) <= 1e-13 * np.linalg.norm(h, 2)


def test_singular_values_match_numpy_svd():
    rng = derive_rng(0, "linalg", "svd")
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(1, 9))
        a = random_complex(rng, n)
        got = singular_values(a)
        want = np.sort(np.linalg.svd(a, compute_uv=False))
        scale = max(1.0, want.max())
        worst = max(worst, np.abs(got - want).max() / scale)
    assert worst <= 1e-12


def test_singular_values_resolve_tiny_sigma():
    # the numerically hard case: sigma_min far below sqrt(eps) * scale.
    # normal-equation approaches lose these digits to cancellation.
    rng = derive_rng(0, "linalg", "tiny-sigma")
    for trial in range(20):
        n = int(rng.integers(2, 7))
        a = random_complex(rng, n)
        u, _, vh = np.linalg.svd(a)
        target = np.geomspace(1e-12, 1.0, n)
        b = (u * target) @ vh
        got = singular_values(b)[0]
        assert got == pytest.approx(1e-12, abs=1e-15)


def test_operator_norm_matches_numpy():
    rng = derive_rng(0, "linalg", "opnorm")
    for trial in range(100):
        n = int(rng.integers(1, 9))
        a = random_complex(rng, n)
        want = np.linalg.norm(a, ord=2)
        assert operator_norm(a) == pytest.approx(want, rel=1e-11, abs=1e-13)


def test_gauss_jordan_inverse_matches_numpy():
    rng = derive_rng(0, "linalg", "inverse")
    for trial in range(100):
        n = int(rng.integers(1, 9))
        a = random_complex(rng, n)
        if singular_values(a)[0] < 1e-3:
            continue
        got = gauss_jordan_inverse(a)
        want = np.linalg.inv(a)
        scale = max(1.0, np.abs(want).max())
        assert np.abs(got - want).max() <= 1e-10 * scale
        assert np.abs(got @ a - np.eye(n)).max() <= 1e-10 * max(1.0, operator_norm(a))


def test_gauss_jordan_rejects_singular():
    singular = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
    with pytest.raises(CertificationError):
        gauss_jordan_inverse(singular)


def test_frobenius_matches_numpy():
    rng = derive_rng(0, "linalg", "frobenius")
    a = random_complex(rng, 6)
    assert frobenius(a) == pytest.approx(np.linalg.norm(a), rel=1e-14)


def special_matrices(rng, n):
    """Zero, identity, rank-one and graded tiny-sigma n x n matrices."""
    u, _, vh = np.linalg.svd(random_complex(rng, n))
    rank_one = np.outer(u[:, 0], 3.0 * vh[0])
    graded = (u * np.geomspace(1e-12, 1.0, n)) @ vh
    return [np.zeros((n, n)), np.eye(n), rank_one, graded]


def numpy_singular_values(a):
    return np.sort(np.linalg.svd(a, compute_uv=False), axis=-1)


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("k", [1, 2, 17])
def test_stacked_singular_values_match_numpy(n, k):
    rng = derive_rng(0, "linalg", "stacked", str(n), str(k))
    pool = special_matrices(rng, n) + [random_complex(rng, n) for _ in range(13)]
    stack = np.array([pool[i] for i in rng.choice(len(pool), size=k, replace=False)])
    got = singular_values(stack)
    want = numpy_singular_values(stack)
    assert got.shape == (k, n)
    for g, w in zip(got, want):
        assert np.abs(g - w).max() <= 1e-12 * max(1.0, w[-1])


@pytest.mark.parametrize("n", range(1, 9))
def test_special_matrices_match_numpy(n):
    rng = derive_rng(0, "linalg", "special", str(n))
    zero, eye, rank_one, graded = special_matrices(rng, n)
    assert np.array_equal(singular_values(zero), np.zeros(n))
    assert np.array_equal(singular_values(eye), np.ones(n))
    scale = np.abs(rank_one).sum()
    got = singular_values(rank_one)
    assert np.abs(got - numpy_singular_values(rank_one)).max() <= 1e-14 * n * scale
    if n > 1:
        # the tiny end of the spectrum comes out to about eps * norm(A):
        # forming U diag(sigma) V* has already moved it by about that much
        assert singular_values(graded)[0] == pytest.approx(1e-12, abs=1e-15)


@pytest.mark.parametrize("n", range(1, 9))
def test_each_row_of_a_stack_equals_the_single_call_bitwise(n):
    rng = derive_rng(0, "linalg", "bitwise", str(n))
    mats = special_matrices(rng, n) + [random_complex(rng, n) for _ in range(13)]
    stack = np.array(mats)
    got = singular_values(stack)
    for row, a in zip(got, mats):
        assert np.array_equal(row, singular_values(a))


def test_empty_stack():
    assert singular_values(np.zeros((0, 3, 3))).shape == (0, 3)


def test_rank_deficient_matrix_settles():
    # the cyclic kernel rotated the rounding noise of the zero column
    # against the others for 100 sweeps and raised ConvergenceError
    a = np.array([[0, -8j, -16 + 32j], [0, 0, 0], [-9j, -32 + 32j, 256]])
    got = singular_values(a)
    want = numpy_singular_values(a)
    assert np.abs(got - want).max() <= 1e-12 * want[-1]
    assert got[0] <= 1e-13


def test_small_column_far_from_orthogonal_still_rotates():
    # column 2 lies below eps * frobenius(A) but is far from orthogonal to
    # column 1; left unrotated, its norm 1e-9 would be reported as sigma_min
    a = np.array([[1e8, 1e-9], [0, 1e-20]])
    want = numpy_singular_values(a)
    for got in (singular_values(a), singular_values(np.array([a, np.eye(2)]))[0]):
        assert got == pytest.approx(want, rel=1e-6, abs=0.0)
    sigma = FiberElement.matrix(a).smallest_singular_value()
    assert sigma == pytest.approx(1e-20, rel=1e-6, abs=0.0)


@pytest.mark.parametrize("n", [3, 5, 8])
@pytest.mark.parametrize("grade", [1e-20, 1e-60, 1e-120])
def test_columns_far_below_the_largest_keep_relative_accuracy(n, grade):
    # Q diag(1, grade B): the n - 1 small singular values are grade times
    # those of B, far below eps * frobenius(A) (Demmel & Veselic)
    rng = derive_rng(0, "linalg", "graded", str(n), str(grade))
    b = random_complex(rng, n - 1)
    q, _ = np.linalg.qr(random_complex(rng, n))
    a = np.zeros((n, n), dtype=complex)
    a[0, 0] = 1.0
    a[1:, 1:] = grade * b
    want = grade * numpy_singular_values(b)
    for m in (a, q @ a):
        assert singular_values(m)[:-1] == pytest.approx(want, rel=1e-12, abs=0.0)


@st.composite
def jordan_or_rank_one_stacks(draw):
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, 6))
    mats = []
    for _ in range(k):
        scale = 10.0 ** draw(st.integers(-6, 6))
        z = st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False)
        if draw(st.booleans()):
            m = np.diag(np.full(n, draw(z))) + np.diag(np.ones(n - 1), 1)
        else:
            u = np.array(draw(st.lists(z, min_size=n, max_size=n)))
            v = np.array(draw(st.lists(z, min_size=n, max_size=n)))
            m = np.outer(u, v.conj())
        mats.append(scale * m)
    return np.array(mats, dtype=complex)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(stack=jordan_or_rank_one_stacks())
@example(stack=np.array([[[0j]], [[0j]], [[2.84735165e-185 + 0j]]]))
@example(stack=np.array([[[0j, 0j], [1 + 0j, 2.22507386e-309 + 0j]]]))
def test_jordan_and_rank_one_stacks(stack):
    got = singular_values(stack)
    want = numpy_singular_values(stack)
    for g, w, a in zip(got, want, stack):
        assert np.abs(g - w).max() <= 1e-12 * max(w[-1], 1e-300)
        assert np.array_equal(g, singular_values(a))
