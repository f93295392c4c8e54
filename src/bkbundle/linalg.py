"""Dense complex linear algebra kernels for small matrix fibers.

Plain numpy arrays of shape (n, n) with n <= 8, and (k, n, n) stacks for
``singular_values``.  Two iterations: one-sided Jacobi for the singular
values of a whole stack in one set of numpy operations, and the Schur
form of one matrix by shifted QR on Python complex scalars, which gives
every eigenvalue with a bound on its backward error.  Inversion is
Gauss-Jordan elimination with partial pivoting.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .errors import CertificationError, ConvergenceError

__all__ = [
    "frobenius", "hermitian_eigenvalues", "hermitian_eigensystem", "schur",
    "singular_values", "operator_norm", "gauss_jordan_inverse",
]

JACOBI_MAX_SWEEPS = 100
# A column pair whose smaller squared norm (in a matrix scaled to largest
# entry in [0.5, 1)) lies below this floor rotates but no longer keeps the
# matrix in the Jacobi sweep: at and above it, |a_pq| and the orthogonality
# threshold stay clear of the subnormal range, below it rounding noise of a
# rank-deficient matrix would be chased into underflow.
COLUMN_FLOOR = 1e-280
# operator_norm of one matrix up to this size takes the Gram matrix route,
# which is faster there than a one-matrix column sweep.
GRAM_ROUTE_MAX_DIM = 6
# QR steps allowed per eigenvalue before schur gives up.
SCHUR_MAX_STEPS = 30
_EPS = float(np.finfo(float).eps)


def frobenius(a: np.ndarray) -> float:
    return float(np.sqrt((np.abs(a) ** 2).sum()))


def _unit_scale(a: np.ndarray) -> float:
    """The power of two that takes the largest entry into [0.5, 1), as in ``_sweep``."""
    _, exponent = math.frexp(float(np.abs(a).max(initial=0.0)))
    return math.ldexp(1.0, -max(exponent, -1000))


def hermitian_eigensystem(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian
    matrix: the Schur form of (h + h*) / 2, whose T is diagonal up to
    rounding.  Column k of the returned matrix belongs to the k-th value."""
    a = np.asarray(h, dtype=complex)
    q, t, _ = schur((a + a.conj().T) / 2.0)
    values = t.diagonal().real
    order = np.argsort(values)
    return values[order], q[:, order]


def schur(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Complex Schur form A = Q T Q* of one square matrix, and a bound
    delta on its backward error.

    After scaling by a power of two, Householder reflectors reduce A to
    Hessenberg form (a column already reduced is skipped, so triangular
    input stays triangular), and single-shift QR with Wilkinson shifts
    and an exceptional shift every 10th step (Golub & Van Loan, 4th ed.,
    7.5) deflates each subdiagonal entry to exactly 0 once it is at most
    eps max(|t_kk| + |t_k-1,k-1|, ||A||_F).  delta is ||AQ - QT||_F plus
    gamma_n+1 times || |A||Q| ||_F + || |Q||T| ||_F (Higham, 2nd ed.,
    ch. 3), over 1 - ||Q*Q - I||_F: diag(T), with multiplicity, is the
    spectrum of some A + E with ||E||_2 <= delta.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("expected a square matrix")
    scale = _unit_scale(a)
    a = a * scale
    h, q = _hessenberg(a)
    fro, hi, steps = frobenius(a), n - 1, 0
    while hi > 0:
        lo = hi
        while lo > 0:
            if abs(h[lo][lo - 1]) <= _EPS * max(abs(h[lo][lo]) + abs(h[lo - 1][lo - 1]), fro):
                h[lo][lo - 1] = 0j
                break
            lo -= 1
        if lo == hi:
            hi, steps = hi - 1, 0
            continue
        steps += 1
        if steps > SCHUR_MAX_STEPS:
            raise ConvergenceError(f"no eigenvalue deflated in {SCHUR_MAX_STEPS} QR steps")
        # every 10th step an exceptional shift, else Wilkinson's: the
        # eigenvalue of the trailing 2 x 2 block nearer to d
        d, e = h[hi][hi], h[hi][hi - 1]
        bc, p = h[hi - 1][hi] * e, (h[hi - 1][hi - 1] - d) / 2.0
        root = cmath.sqrt(p * p + bc)
        den = max(p + root, p - root, key=abs)
        shift = d + 0.75 * abs(e) if steps % 10 == 0 else d - bc / den if den else d
        # explicit QR of the window: H - shift I = G* R, then H <- R G + shift I,
        # where G_k = [[c, s], [-conj(s), c]] zeroes subdiagonal entry k
        for k in range(lo, hi + 1):
            h[k][k] -= shift
        rotations = []
        for k in range(lo, hi):
            top, low = h[k], h[k + 1]
            x, y = top[k], low[k]
            r = math.hypot(abs(x), abs(y))
            if not r:
                continue
            c, s = abs(x) / r, (x / abs(x) if x else 1.0) * y.conjugate() / r
            sc = s.conjugate()
            for j in range(k, n):
                x, y = top[j], low[j]
                top[j] = c * x + s * y
                low[j] = c * y - sc * x
            low[k] = 0j
            rotations.append((k, c, s, sc))
        for k, c, s, sc in rotations:
            for row in h[: k + 2] + q:
                x, y = row[k], row[k + 1]
                row[k] = c * x + sc * y
                row[k + 1] = c * y - s * x
        for k in range(lo, hi + 1):
            h[k][k] += shift
    q, t = np.array(q), np.array(h)
    residual = frobenius(a @ q - q @ t)
    magnitude = frobenius(np.abs(a) @ np.abs(q)) + frobenius(np.abs(q) @ np.abs(t))
    gamma = (n + 1) * _EPS / 2.0 / (1.0 - (n + 1) * _EPS / 2.0)
    drift = frobenius(q.conj().T @ q - np.eye(n))
    delta = (residual + gamma * magnitude) / (1.0 - drift) if drift < 1.0 else math.inf
    return q, t / scale, delta / scale


def _hessenberg(a: np.ndarray) -> tuple[list, list]:
    """Householder reduction H = Q* A Q, as lists of rows of Python complex numbers."""
    n = a.shape[0]
    hq = np.concatenate([a, np.eye(n, dtype=complex)])  # H over Q
    for k in range(n - 2):
        x = hq[k + 1 : n, k]
        if not x[1:].any():
            continue
        size = np.abs(x).max()
        v = x / size
        v0 = complex(v[0])
        alpha = -math.sqrt(np.vdot(v, v).real) * (v0 / abs(v0) if v0 else 1.0)
        v[0] = v0 - alpha
        w = v.conj() * (2.0 / np.vdot(v, v).real)
        hq[k + 1 : n, k + 1 :] -= np.outer(v, w @ hq[k + 1 : n, k + 1 :])
        hq[:, k + 1 :] -= np.outer(hq[:, k + 1 :] @ v, w)
        hq[k + 1 : n, k] = 0.0
        hq[k + 1, k] = alpha * size
    rows = hq.tolist()
    return rows[:n], rows[n:]


def hermitian_eigenvalues(h: np.ndarray) -> np.ndarray:
    """Ascending real eigenvalues of a Hermitian matrix: closed form at
    n = 2, :func:`hermitian_eigensystem` otherwise."""
    a = np.asarray(h, dtype=complex)
    if a.shape[0] == 2:
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
    of A* A (closed form at n = 2, the Schur form above): the top of
    the Gram spectrum carries no cancellation, and at these sizes that
    route beats a one-matrix column sweep.  Larger matrices take the top
    singular value from :func:`singular_values`.  Both routes first scale
    the matrix by the same power of two, so A* A neither under- nor
    overflows and the two agree on which matrices have norm 0.
    """
    m = np.asarray(a, dtype=complex)
    if m.shape[0] > GRAM_ROUTE_MAX_DIM:
        return float(singular_values(m)[-1])
    scale = _unit_scale(m)
    m = m * scale
    gram = m.conj().T @ m
    eigs = hermitian_eigenvalues(gram)
    return float(np.sqrt(max(float(eigs[-1]), 0.0)) / scale)


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
