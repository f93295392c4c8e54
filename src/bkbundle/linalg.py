"""Dense complex linear algebra kernels for small matrix fibers.

Everything here operates on plain numpy arrays of shape (n, n) with
n <= 8; ``singular_values`` also takes a (k, n, n) stack.  The routines
favour reproducible, certifiable behaviour over raw speed: singular
values come from one-sided Jacobi that rotates the disjoint column pairs
of every matrix in a stack in one set of numpy operations, with each
matrix's values bitwise the same alone or inside any stack; the
Hermitian eigensolver is a cyclic Jacobi iteration; a general spectrum
goes through the characteristic polynomial and a Durand-Kerner
simultaneous root iteration; inversion is Gauss-Jordan elimination with
partial pivoting.  A numpy operation on one small matrix costs about a
microsecond whatever its size, so the column sweep pays off on stacks,
and ``operator_norm`` of one matrix up to GRAM_ROUTE_MAX_DIM keeps the
faster Gram route.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import CertificationError, ConvergenceError

__all__ = [
    "frobenius",
    "hermitian_eigenvalues",
    "hermitian_eigensystem",
    "singular_values",
    "operator_norm",
    "smallest_singular_value",
    "characteristic_polynomial",
    "polynomial_roots",
    "gauss_jordan_inverse",
]

# Convergence constants for the two iterations.  The Jacobi threshold
# applies to the off-diagonal Frobenius mass of the matrix scaled to unit
# Frobenius norm; pure absolute thresholds stall below rounding noise once
# entries grow past O(1).
JACOBI_OFF_THRESHOLD = 1e-13
JACOBI_MAX_SWEEPS = 100
ROOT_STEP_TOL = 1e-11
ROOT_MAX_ITER = 500
_ROOT_START_PHASE = 0.4  # radians; breaks symmetric stalls
# A column pair whose smaller squared norm (in a matrix scaled to largest
# entry in [0.5, 1)) lies below this floor rotates but no longer keeps the
# matrix in the Jacobi sweep: at and above it, |a_pq| and the orthogonality
# threshold stay clear of the subnormal range, below it rounding noise of a
# rank-deficient matrix would be chased into underflow.
COLUMN_FLOOR = 1e-280
# operator_norm of one matrix up to this size goes through the Gram
# matrix, which is faster there than a one-matrix column sweep; above it
# the sweep is faster.
GRAM_ROUTE_MAX_DIM = 6


def frobenius(a: np.ndarray) -> float:
    return float(np.sqrt((np.abs(a) ** 2).sum()))


def _off_diagonal_mass(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return frobenius(off)


def hermitian_eigensystem(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian matrix.

    Cyclic Jacobi iteration with complex rotations.  The input is scaled
    to unit Frobenius norm first so the off-diagonal threshold is
    meaningful at any magnitude.  Column k of the returned matrix is the
    eigenvector for the k-th eigenvalue.
    """
    a = np.array(h, dtype=complex)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("expected a square matrix")
    a = (a + a.conj().T) / 2.0
    vecs = np.eye(n, dtype=complex)
    if n == 1:
        return np.array([a[0, 0].real]), vecs

    scale = frobenius(a)
    if scale == 0.0:
        return np.zeros(n), vecs
    a = a / scale

    for _ in range(JACOBI_MAX_SWEEPS):
        if _off_diagonal_mass(a) <= JACOBI_OFF_THRESHOLD:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                mag = abs(apq)
                if mag <= 1e-300:
                    continue
                app = a[p, p].real
                aqq = a[q, q].real
                tau = (aqq - app) / (2.0 * mag)
                sign = 1.0 if tau >= 0.0 else -1.0
                t = sign / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                phase = apq / mag
                rot = np.eye(n, dtype=complex)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s * phase
                rot[q, p] = -s * np.conj(phase)
                a = rot.conj().T @ a @ rot
                a = (a + a.conj().T) / 2.0
                vecs = vecs @ rot
    else:
        raise ConvergenceError(
            "Jacobi iteration did not reach the off-diagonal threshold "
            f"within {JACOBI_MAX_SWEEPS} sweeps",
            partial=np.diag(a).real * scale,
        )

    values = np.diag(a).real * scale
    order = np.argsort(values)
    return values[order], vecs[:, order]


def hermitian_eigenvalues(h: np.ndarray) -> np.ndarray:
    """Ascending real eigenvalues of a Hermitian matrix.

    Dimensions 1 and 2 use the closed-form characteristic polynomial;
    larger matrices run the Jacobi iteration.
    """
    a = np.asarray(h, dtype=complex)
    n = a.shape[0]
    if n == 1:
        return np.array([a[0, 0].real])
    if n == 2:
        mean = (a[0, 0].real + a[1, 1].real) / 2.0
        disc = math.hypot((a[0, 0].real - a[1, 1].real) / 2.0, abs(a[0, 1]))
        return np.array([mean - disc, mean + disc])
    return hermitian_eigensystem(a)[0]


@functools.cache
def _round_robin(m: int) -> list[np.ndarray]:
    """Row permutations of one round-robin sweep over m (even) columns.

    The circle method: column 0 stays put and the others move one seat
    per step, so every pair of columns meets once in m - 1 steps.  Step
    j's permutation takes the columns from where step j - 1 left them to
    seats where its pairs are (0, 1), (2, 3), ...  Applied in turn from
    the natural order, the m - 1 permutations return to it.
    """
    ring = list(range(m))
    seats = []
    for _ in range(m - 1):
        seats.append([c for i in range(m // 2) for c in (ring[i], ring[m - 1 - i])])
        ring = [ring[0], ring[-1]] + ring[1:-1]
    return [np.array([seats[j - 1].index(c) for c in seats[j]]) for j in range(m - 1)]


def _squared_norms(rows: np.ndarray) -> np.ndarray:
    parts = rows.view(float)
    return (parts * parts).sum(axis=-1)


def singular_values(a: np.ndarray) -> np.ndarray:
    """Ascending singular values of one (n, n) matrix or a (k, n, n) stack.

    One-sided Jacobi on the columns with the round-robin ordering of
    Brent & Luk: each step rotates the n // 2 disjoint column pairs of
    every matrix in the stack at once (an odd n gets a zero column that
    never rotates).  Rotating the columns of A, rather than diagonalising
    A* A, keeps every singular value accurate relative to its own size
    (Demmel & Veselic), which the invertibility threshold (1e-10) and the
    spectrum membership cross-checks depend on.

    A pair rotates when its columns are not yet orthogonal,
    |a_pq| > 1e-14 sqrt(a_pp) sqrt(a_qq); otherwise it gets exactly the
    identity (c = 1, s = 0).  A matrix leaves the iteration after its
    first sweep in which no rotated pair has its smaller squared column
    norm above COLUMN_FLOOR (after scaling).  It therefore sees the same
    operations alone or inside any stack, so its values are bitwise the
    same.  A column far below eps * frobenius(A) is rotated to
    convergence like any other, so values down to about 1e-140 times the
    largest entry keep their relative accuracy; the rounding noise of
    rank-deficient input shrinks by about eps per sweep until it drops
    below the floor.
    """
    a = np.asarray(a, dtype=complex)
    values = _sweep(a[None] if a.ndim == 2 else a)
    return values[0] if a.ndim == 2 else values


def _sweep(a: np.ndarray) -> np.ndarray:
    k, n, _ = a.shape
    m = n + n % 2
    # Scale each matrix by a power of two (exact) so that its largest
    # entry lies in [0.5, 1): its largest squared column norm neither
    # under- nor overflows, and COLUMN_FLOOR is relative to that size.
    # The exponent is capped so that the scale of a subnormal entry stays
    # finite.  Row j of cols[i] is column j of the i-th matrix.
    _, exponent = np.frexp(np.abs(a).max(axis=(1, 2), initial=0.0))
    scale = np.ldexp(1.0, -np.maximum(exponent, -1000))[:, None]
    cols = np.zeros((k, m, n), dtype=complex)
    cols[:, :n] = a.transpose(0, 2, 1) * scale[:, :, None]
    squares = _squared_norms(cols)
    live = np.arange(k if n > 1 else 0)
    for _ in range(JACOBI_MAX_SWEEPS):
        if not len(live):
            break
        turns = []
        for perm in _round_robin(m):
            cols = cols[:, perm]
            cp, cq = cols[:, 0::2], cols[:, 1::2]
            norms = _squared_norms(cols)
            app, aqq = norms[:, 0::2], norms[:, 1::2]
            apq = (cp.conj() * cq).sum(axis=-1)
            mag = np.abs(apq)
            # sqrt(app * aqq) would underflow for two small columns
            turn = mag > 1e-14 * np.sqrt(app) * np.sqrt(aqq)
            turns.append(turn & (np.minimum(app, aqq) > COLUMN_FLOOR))
            if not turn.any():
                continue
            # the rotation that zeroes a_pq has t = 1 / (tau + sign(tau)
            # sqrt(1 + tau^2)) with tau = (a_qq - a_pp) / 2|a_pq|; u is
            # t / |a_pq| in a form that never divides by |a_pq|, so that a
            # subnormal a_pq does not overflow (gap >= 2|a_pq|, so the clamp
            # only touches pairs far below the floor).  u = 0 (c = 1, s = 0)
            # where the pair does not turn.
            diff = aqq - app
            gap = np.abs(diff) + np.hypot(diff, 2.0 * mag)
            u = turn * np.copysign(2.0, diff) / np.maximum(gap, 1e-300)
            c = 1.0 / np.hypot(1.0, u * mag)
            sbar, c = ((c * u) * apq)[..., None], c[..., None]
            sq, scp = sbar.conj() * cq, sbar * cp
            cp *= c
            cp -= sq
            cq *= c
            cq += scp
        moved = np.concatenate(turns, axis=-1).any(axis=-1)
        if not moved.all():
            squares[live[~moved]] = _squared_norms(cols[~moved])
            live, cols = live[moved], cols[moved]
    if len(live):
        raise ConvergenceError(
            f"column rotations did not settle in {JACOBI_MAX_SWEEPS} sweeps"
        )
    # the padding row of an odd n is zero: the first value after sorting
    return np.sort(np.sqrt(squares), axis=-1)[:, m - n :] / scale


def operator_norm(a: np.ndarray) -> float:
    """Largest singular value of one matrix.

    Up to GRAM_ROUTE_MAX_DIM it is the square root of the top eigenvalue
    of A* A (closed form at n = 2, Hermitian Jacobi above): the top of
    the Gram spectrum carries no cancellation, and at these sizes that
    route beats a one-matrix column sweep.  Larger matrices take the top
    singular value from :func:`singular_values`.  Both routes first scale
    the matrix by the same power of two, so A* A neither under- nor
    overflows and the two agree on which matrices have norm 0.
    """
    m = np.asarray(a, dtype=complex)
    if m.shape[0] > GRAM_ROUTE_MAX_DIM:
        return float(singular_values(m)[-1])
    _, exponent = math.frexp(float(np.abs(m).max(initial=0.0)))
    scale = math.ldexp(1.0, -max(exponent, -1000))  # as in _sweep
    m = m * scale
    gram = m.conj().T @ m
    eigs = hermitian_eigenvalues(gram)
    return float(np.sqrt(max(float(eigs[-1]), 0.0)) / scale)


def smallest_singular_value(a: np.ndarray) -> float:
    return float(singular_values(a)[0])


def characteristic_polynomial(a: np.ndarray) -> np.ndarray:
    """Monic coefficients of det(z I - A), highest power first.

    Faddeev-LeVerrier recurrence; exact in rational arithmetic, and at
    n <= 8 the floating point version stays well conditioned for the
    moderate norms this package works with.
    """
    m = np.asarray(a, dtype=complex)
    n = m.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    work = np.zeros_like(m)
    eye = np.eye(n, dtype=complex)
    for k in range(1, n + 1):
        work = m @ (work + coeffs[k - 1] * eye)
        coeffs[k] = -np.trace(work) / k
    return coeffs


def polynomial_roots(
    coeffs: np.ndarray,
    radius: float,
    step_tol: float = ROOT_STEP_TOL,
    max_iter: int = ROOT_MAX_ITER,
) -> tuple[np.ndarray, bool, int]:
    """All roots of a monic polynomial by Durand-Kerner iteration.

    ``coeffs`` are monic, highest power first.  Starting points sit on a
    circle of the given radius with a fixed angular offset.  Returns
    (roots, step_converged, iterations); multiple roots converge only
    linearly and may exhaust the cap while already being accurate to far
    better than any certification tolerance, so callers should certify
    residuals rather than trust the flag alone.
    """
    c = np.asarray(coeffs, dtype=complex)
    n = len(c) - 1
    if n == 0:
        return np.zeros(0, dtype=complex), True, 0
    if abs(c[0] - 1.0) > 1e-12:
        c = c / c[0]
    if n == 1:
        return np.array([-c[1]]), True, 0

    r = max(float(radius), 1e-3)
    scale = max(1.0, r)
    angles = 2.0 * np.pi * np.arange(n) / n + _ROOT_START_PHASE
    z = r * np.exp(1j * angles)

    for iteration in range(1, max_iter + 1):
        values = np.polyval(c, z)
        diffs = z[:, None] - z[None, :]
        np.fill_diagonal(diffs, 1.0)
        denom = diffs.prod(axis=1)
        collided = denom == 0.0
        if collided.any():
            z = z + collided * (1e-8 + 1e-8j) * scale
            continue
        steps = values / denom
        z = z - steps
        if float(np.abs(steps).max()) <= step_tol * scale:
            return z, True, iteration
    return z, False, max_iter


def gauss_jordan_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of a square complex matrix by Gauss-Jordan elimination.

    Partial pivoting by largest modulus in the working column.  Callers
    are expected to have screened out (numerically) singular input; a
    vanishing pivot here is therefore an internal failure.
    """
    m = np.array(a, dtype=complex)
    n = m.shape[0]
    if m.shape != (n, n):
        raise ValueError("expected a square matrix")
    inv = np.eye(n, dtype=complex)
    for col in range(n):
        pivot_row = col + int(np.argmax(np.abs(m[col:, col])))
        if abs(m[pivot_row, col]) == 0.0:
            raise CertificationError("zero pivot in Gauss-Jordan elimination")
        if pivot_row != col:
            m[[col, pivot_row]] = m[[pivot_row, col]]
            inv[[col, pivot_row]] = inv[[pivot_row, col]]
        d = m[col, col]
        m[col] /= d
        inv[col] /= d
        for row in range(n):
            if row == col:
                continue
            f = m[row, col]
            if f != 0.0:
                m[row] -= f * m[col]
                inv[row] -= f * inv[col]
    return inv
