"""The three benchmark workloads: seeded scenario generators and oracles.

Each workload turns a seed into a fixed-size pool of scenario objects (the
decoded-JSON form that ``bkbundle.scenario.parse_scenario`` accepts) and
checks every report the program returns against ``numpy.linalg``, an
oracle independent of ``bkbundle.linalg``.  Generation uses numpy only and
never imports the package under test, so its cost stays out of set-up
time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

TOL = 1e-8  # the CLI's default tolerance, passed explicitly in every request


def _pair(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _literal(kind: str, value):
    if kind == "scalar":
        return _pair(value)
    return [_pair(z) for z in np.asarray(value).reshape(-1)]


def _decode(kind: str, size: int, literal) -> np.ndarray:
    """A fiber literal from a report as a numpy value (matrix, vector or 0-d)."""
    if kind == "scalar":
        return np.array(complex(*literal))
    flat = np.array([complex(re, im) for re, im in literal])
    return flat.reshape(size, size) if kind == "matrix" else flat


def _norm(kind: str, value: np.ndarray) -> float:
    if kind == "matrix":
        return float(np.linalg.norm(value, 2))
    return float(np.abs(value).max())


def _gauss(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(_gauss(rng, (n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _space(atoms: list[str], rng: np.random.Generator) -> list[dict]:
    return [{"atom": a, "weight": float(rng.uniform(0.25, 2.0))} for a in atoms]


def _fibers(atoms: list[str], kinds: list[tuple[str, int]]) -> dict:
    out = {}
    for atom, (kind, size) in zip(atoms, kinds):
        out[atom] = {"kind": kind} if kind == "scalar" else {"kind": kind, "size": size}
    return out


# --- series_invert ----------------------------------------------------------

SERIES_KINDS = [("scalar", 1), ("matrix", 3), ("matrix", 8), ("function", 64)]


def _contraction(rng: np.random.Generator, kind: str, size: int, r: float) -> np.ndarray:
    """A fiber value of norm exactly r (up to rounding)."""
    if kind == "scalar":
        return np.array(r * np.exp(2j * np.pi * rng.uniform()))
    if kind == "matrix":
        g = _gauss(rng, (size, size))
        return r * g / np.linalg.norm(g, 2)
    v = _gauss(rng, size)
    return r * v / np.abs(v).max()


def _series_scenario(rng: np.random.Generator, stratum: float) -> dict:
    """The largest contraction norm, which sets the series order, comes from
    the given stratum of [0.9, 0.99]; the other atoms draw below it."""
    atoms = [f"w{i}" for i in range(8)]
    kinds = [SERIES_KINDS[i % 4] for i in range(8)]
    top = 0.9 + 0.09 * stratum
    norms = rng.uniform(0.9, top, size=8)
    norms[rng.integers(8)] = top
    u = {}
    for atom, (kind, size), r in zip(atoms, kinds, norms):
        x = _contraction(rng, kind, size, float(r))
        unit = np.eye(size) if kind == "matrix" else np.ones(x.shape)
        u[atom] = _literal(kind, unit - x)
    return {
        "space": _space(atoms, rng),
        "fibers": _fibers(atoms, kinds),
        "sections": {"u": u},
        "commands": [{"command": "invert", "section": "u", "tolerance": TOL}],
    }


def _inverse_errors(scenario: dict, inverse: dict, rel_tol: float) -> list[str]:
    """Compare a reported inverse with numpy.linalg.inv, atom by atom."""
    errors = []
    for atom, fiber in scenario["fibers"].items():
        kind, size = fiber["kind"], fiber.get("size", 1)
        u = _decode(kind, size, scenario["sections"]["u"][atom])
        got = _decode(kind, size, inverse[atom])
        want = np.linalg.inv(u) if kind == "matrix" else 1.0 / u
        gap = _norm(kind, got - want)
        if not gap <= rel_tol * _norm(kind, want):
            errors.append(f"inverse at {atom} off by {gap:.3e}")
    return errors


def _check_series(scenario: dict, report: dict) -> list[str]:
    (result,) = report["results"]
    detail = result["detail"]
    if detail.get("method") != "neumann":
        return [f"expected the series route, got {detail.get('method')!r}"]
    errors = []
    if not detail["residual"] <= TOL:
        errors.append(f"residual {detail['residual']:.3e} above tolerance")
    if not detail["crosscheck_gap"] <= 2.0 * TOL:
        errors.append(f"crosscheck gap {detail['crosscheck_gap']:.3e} above 2 tol")
    # residual <= tol bounds the relative error of the inverse by tol;
    # twice that leaves room for numpy's own rounding.
    return errors + _inverse_errors(scenario, detail["inverse"], 2.0 * TOL)


# --- matrix_analysis --------------------------------------------------------

SELECTION_CAP = 4096


# Fiber sizes by design row: over the 24 rows each atom takes every size in
# 3..8 four times, and the selection product stays below the 4096 cap.
MATRIX_DESIGN = [[3 + (j + 2 * a + a * (j // 6)) % 6 for a in range(4)] for j in range(24)]


def _matrix_scenario(rng: np.random.Generator, stratum: float) -> dict:
    atoms = [f"w{i}" for i in range(4)]
    sizes = [int(n) for n in rng.permutation(MATRIX_DESIGN[int(stratum * len(MATRIX_DESIGN))])]
    while True:
        # Singular values in [0.5, 3] keep every fiber well inside the
        # invertible region; a unit gap of at least 1 forces the exact route.
        u = {}
        for atom, n in zip(atoms, sizes):
            sigma = rng.uniform(0.5, 3.0, size=n)
            u[atom] = (_unitary(rng, n) * sigma) @ _unitary(rng, n).conj().T
        if max(np.linalg.norm(np.eye(m.shape[0]) - m, 2) for m in u.values()) >= 1.0:
            break
    return {
        "space": _space(atoms, rng),
        "fibers": _fibers(atoms, [("matrix", n) for n in sizes]),
        "sections": {"u": {a: _literal("matrix", m) for a, m in u.items()}},
        "commands": [
            {"command": "norms", "section": "u"},
            {"command": "invert", "section": "u", "tolerance": TOL},
            {"command": "spectrum", "section": "u", "tolerance": TOL, "cap": SELECTION_CAP},
        ],
    }


def _check_matrix(scenario: dict, report: dict) -> list[str]:
    norms, inverse, spectrum = (r["detail"] for r in report["results"])
    errors = []
    for atom, fiber in scenario["fibers"].items():
        u = _decode("matrix", fiber["size"], scenario["sections"]["u"][atom])
        want = np.linalg.norm(u, 2)
        if not abs(norms["norm"][atom] - want) <= 1e-10 * want:
            errors.append(f"norm at {atom}: {norms['norm'][atom]!r} vs {want!r}")
        eigs = [complex(re, im) for re, im in spectrum["fiber_spectra"][atom]]
        want_eigs = list(np.linalg.eigvals(u))
        if len(eigs) != len(want_eigs):
            errors.append(f"{len(eigs)} eigenvalues at {atom}, expected {len(want_eigs)}")
            continue
        scale = max(1.0, want)
        for z in want_eigs:
            nearest = min(range(len(eigs)), key=lambda k: abs(eigs[k] - z))
            if abs(eigs[nearest] - z) > 1e-6 * scale:
                errors.append(f"eigenvalue {z:.6g} at {atom} unmatched")
                break
            eigs.pop(nearest)
    if inverse.get("method") != "exact" or inverse.get("invertible") is not True:
        errors.append("expected an exact, invertible result")
    else:
        errors += _inverse_errors(scenario, inverse["inverse"], TOL)
    expected_count = int(np.prod([f["size"] for f in scenario["fibers"].values()]))
    if spectrum["selection_count"] != expected_count or spectrum["truncated"]:
        errors.append(f"selection count {spectrum['selection_count']} != {expected_count}")
    return errors


# --- verify_suite -----------------------------------------------------------

VERIFY_KINDS = [("scalar", 1), ("matrix", 2), ("function", 3), ("matrix", 3)]
VERIFY_SAMPLES = 20


def _verify_scenario(rng: np.random.Generator, stratum: float) -> dict:
    atoms = [f"w{i}" for i in range(4)]
    x, h = {}, {}
    for atom, (kind, size) in zip(atoms, VERIFY_KINDS):
        shape = () if kind == "scalar" else (size, size) if kind == "matrix" else (size,)
        x[atom] = _literal(kind, _gauss(rng, shape))
        h[atom] = _literal(kind, 0.05 * _gauss(rng, shape))
    return {
        "space": _space(atoms, rng),
        "fibers": _fibers(atoms, VERIFY_KINDS),
        "sections": {"x": x, "h": h},
        "commands": [
            {
                "command": "verify",
                "samples": VERIFY_SAMPLES,
                "seed": int(rng.integers(0, 2**31)),
                "tolerance": TOL,
            }
        ],
    }


def _check_verify(scenario: dict, report: dict) -> list[str]:
    (result,) = report["results"]
    checks = result["detail"]["checks"]
    errors = [f"check {c['name']} failed" for c in checks if not c["passed"]]
    errors += [f"check {c['name']} ran no case" for c in checks if c["cases"] <= 0]
    return errors or ([] if checks else ["no checks ran"])


# --- registry ---------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    pool_size: int  # scenarios generated and parsed per run; requests cycle through them
    trace_requests: int  # requests per traced pass at --seconds 30; fixed, so counters repeat
    make: Callable[[np.random.Generator, float], dict]
    check: Callable[[dict, dict], list[str]]
    expected_calls: tuple[str, ...]  # wrappers the traced run must see fire

    def scenarios(self, seed: int) -> list[dict]:
        """The pool for a seed.  Scenario j takes the midpoint of stratum j of
        the workload's cost parameter, so every pool has the same mix of
        cheap and costly requests and seeds differ only in the values drawn.
        The strata are visited in golden-ratio order, so any run of
        consecutive requests samples the whole range."""
        rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        n = self.pool_size
        order = sorted(range(n), key=lambda j: (j * 0.6180339887498949) % 1.0)
        return [self.make(rng, (j + 0.5) / n) for j in order]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "series_invert",
            "Neumann-route invert on 8-atom mixed bundles: section and fiber arithmetic "
            "dominate, the mechanism of batched storage and a doubling product",
            pool_size=96,
            trace_requests=24,
            make=_series_scenario,
            check=_check_series,
            expected_calls=(
                "inversion.neumann_inverse",
                "bundle.Section.__mul__",
                "fibers.FiberElement.__init__",
            ),
        ),
        Workload(
            "matrix_analysis",
            "norms, exact invert and spectrum on 4-atom matrix(3..8) bundles: kernel-bound "
            "(Jacobi eigensolver), never reaches the Neumann series",
            pool_size=96,
            trace_requests=48,
            make=_matrix_scenario,
            check=_check_matrix,
            expected_calls=(
                "linalg.hermitian_eigensystem",
                "linalg.gauss_jordan_inverse",
                "spectrum.spectrum_table",
            ),
        ),
        Workload(
            "verify_suite",
            "verify with 20 samples on scalar/matrix(2)/function(3)/matrix(3) bundles: the "
            "only path through representation, gelfand_mazur and sampling at small n",
            pool_size=8,
            trace_requests=3,
            make=_verify_scenario,
            check=_check_verify,
            expected_calls=(
                "verification.run_verification",
                "representation.quotient_norm",
                "gelfand_mazur.check_unit_support_hypothesis",
            ),
        ),
    )
}
