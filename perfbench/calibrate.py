"""A fixed calibration kernel that measures the machine's current speed.

The kernel repeats the kind of work bkbundle spends its time on: Jacobi
rotation sweeps on a small Hermitian matrix (Python scalar arithmetic and
small complex numpy products) and a chain of validated, read-only copies
of small arrays.  It never calls the program, so a change to the program
cannot move it.  Timed between requests, it tells how fast the machine
ran around each request; the benchmark scales measured times by
``speed_factor(kernel time)``.  ``REFERENCE_S`` is about the kernel's time
on a 2-vCPU Intel Xeon VM (2.0 GHz, Python 3.11, numpy 2.4) in its faster
state.

On that VM, over 95 s of alternating requests and kernels, the log of a
request's time followed the log of the kernel's (averaged over five
neighbours) with correlation 0.93 (series_invert) and 0.95
(matrix_analysis).
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

REFERENCE_S = 2.0e-3
# The program slows less than the kernel: over ten 30 s runs each of
# series_invert and matrix_analysis, scaled throughput spread least (0.02
# against 0.05 at exponent 1) when scaled by the kernel's slowdown to this
# power.
SPEED_EXPONENT = 0.8

_HERMITIAN = np.array(
    [
        [4.0, 1 + 1j, 0.5, 0.2j],
        [1 - 1j, 3.0, 0.3, 0.1],
        [0.5, 0.3, 2.0, 0.7 - 0.2j],
        [-0.2j, 0.1, 0.7 + 0.2j, 1.0],
    ]
)


def kernel_seconds() -> float:
    """Wall time of one pass of the kernel."""
    start = time.perf_counter()
    n = len(_HERMITIAN)
    for _ in range(3):
        a = _HERMITIAN.copy()
        for _ in range(4):
            for p in range(n - 1):
                for q in range(p + 1, n):
                    apq = a[p, q]
                    mag = abs(apq)
                    if mag <= 1e-300:
                        continue
                    tau = (a[q, q].real - a[p, p].real) / (2.0 * mag)
                    t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                    c = 1.0 / math.sqrt(1.0 + t * t)
                    s, phase = t * c, apq / mag
                    rot = np.eye(n, dtype=complex)
                    rot[p, p] = rot[q, q] = c
                    rot[p, q] = s * phase
                    rot[q, p] = -s * np.conj(phase)
                    a = rot.conj().T @ a @ rot
                    a = (a + a.conj().T) / 2.0
    x = np.eye(3, dtype=complex) * 0.5
    for _ in range(150):
        y = np.asarray(x @ x + x, dtype=complex).copy()
        if not np.isfinite(y).all():
            raise ArithmeticError("calibration kernel overflowed")
        y.setflags(write=False)
        x = y * 0.5
    return time.perf_counter() - start


def kernel_median(budget_s: float) -> float:
    """Median kernel time over at least three passes, more while the passes
    so far took less than ``budget_s``; one slow pass does not count."""
    times = [kernel_seconds() for _ in range(3)]
    while sum(times) < budget_s:
        times.append(kernel_seconds())
    return statistics.median(times)


def speed_factor(kernel_s: float) -> float:
    """Factor that takes a time measured while the kernel took ``kernel_s``
    to reference speed."""
    return (REFERENCE_S / kernel_s) ** SPEED_EXPONENT
