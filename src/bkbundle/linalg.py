"""Dense complex linear algebra kernels for small matrix fibers.

Everything here operates on plain numpy arrays of shape (n, n) with
n <= 8.  The routines favour reproducible, certifiable behaviour over
raw speed: the Hermitian eigensolver is a cyclic Jacobi iteration, a
general spectrum goes through the characteristic polynomial and a
Durand-Kerner simultaneous root iteration, and inversion is Gauss-Jordan
elimination with partial pivoting.  At these dimensions each call costs
microseconds, so nothing is blocked or cache-tuned.
"""

from __future__ import annotations

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


def singular_values(a: np.ndarray) -> np.ndarray:
    """Ascending singular values, by one-sided Jacobi on the columns.

    Forming A* A and solving the eigenproblem cannot resolve singular
    values below sqrt(eps) * norm(A): the smallest eigenvalue of the Gram
    matrix drowns in cancellation around 1e-16 * norm(A)^2.  Rotating the
    columns of A directly keeps every singular value accurate relative to
    its own size, which the invertibility threshold (1e-10) and the
    spectrum membership cross-checks depend on.
    """
    work = np.array(a, dtype=complex)
    n = work.shape[1]
    if n == 1:
        return np.array([float(np.sqrt((np.abs(work) ** 2).sum()))])
    for _ in range(JACOBI_MAX_SWEEPS):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                cp = work[:, p].copy()
                cq = work[:, q]
                app = float((np.abs(cp) ** 2).sum())
                aqq = float((np.abs(cq) ** 2).sum())
                apq = complex(np.vdot(cp, cq))
                if abs(apq) <= 1e-14 * math.sqrt(app * aqq) or apq == 0.0:
                    continue
                rotated = True
                # rephase column q so the 2x2 Gram block is real symmetric
                d = (apq.conjugate() / abs(apq)) * cq
                tau = (aqq - app) / (2.0 * abs(apq))
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                work[:, p] = c * cp - s * d
                work[:, q] = s * cp + c * d
        if not rotated:
            break
    else:
        raise ConvergenceError(
            f"column rotations did not settle in {JACOBI_MAX_SWEEPS} sweeps"
        )
    return np.sort(np.sqrt((np.abs(work) ** 2).sum(axis=0)))


def operator_norm(a: np.ndarray) -> float:
    """Largest singular value, as sqrt of the top eigenvalue of A* A.

    The top of the Gram spectrum carries no cancellation, so this stays
    on the closed-form / Jacobi Hermitian route.
    """
    m = np.asarray(a, dtype=complex)
    gram = m.conj().T @ m
    eigs = hermitian_eigenvalues(gram)
    return float(np.sqrt(max(float(eigs[-1]), 0.0)))


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
