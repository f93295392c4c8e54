"""The ``spectrum`` and ``verify`` commands report exactly what the library
computes: one selection pass behind ``spectrum``, one check table behind
``verify``."""

from pathlib import Path

import numpy as np
import pytest

from bkbundle import verification
from bkbundle.cli import execute
from bkbundle.scenario import encode_efunction, load_scenario, parse_scenario
from bkbundle.spectrum import (
    enumerate_selection_spectrum,
    selection_spectrum_properties,
    spectrum_table,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
TOL = 1e-8


def _direct(x, cap):
    table = spectrum_table(x, TOL)
    enum = enumerate_selection_spectrum(x, cap=cap, tol=TOL, table=table)
    norm = x.norm().real_array()
    bound = norm + TOL * np.maximum(1.0, norm)
    excess = 0.0
    for row in enum.selections:
        excess = max(excess, float((np.abs(row) - bound).max()))
    return table, enum, excess


# matrix2.json's x has 2 * 2 * 1 selections, so a cap of 3 truncates
@pytest.mark.parametrize("cap, truncated", [(4096, False), (3, True)])
def test_spectrum_command_matches_direct_computation(cap, truncated):
    scenario = load_scenario(str(SCENARIOS / "matrix2.json"))
    x = scenario.sections["x"]
    flags = {"tolerance": TOL, "samples": 500, "seed": 0, "cap": cap}
    report = execute(scenario, [{"command": "spectrum", "section": "x"}], flags)
    detail = report["results"][0]["detail"]
    table, enum, excess = _direct(x, cap)

    assert detail["fiber_spectra"] == {
        atom: [[z.real, z.imag] for z in table.per_atom[atom]]
        for atom in scenario.space.atoms
    }
    assert detail["selections"] == [
        encode_efunction(scenario.space.efunction(row)) for row in enum.selections
    ]
    assert detail["selection_count"] == enum.total_count == 4
    assert detail["truncated"] is enum.truncated is truncated
    assert len(detail["selections"]) == min(cap, 4)
    assert detail["norm_bound_excess"] == excess


def test_property_report_carries_table_enumeration_and_excess():
    scenario = load_scenario(str(SCENARIOS / "mixed.json"))
    x = scenario.sections["x"]
    report = selection_spectrum_properties(x, samples=20, tol=TOL, cap=5, rng=0)
    table, enum, excess = _direct(x, 5)
    assert report.table.per_atom == table.per_atom
    assert np.array_equal(report.enumeration.selections, enum.selections)
    assert report.enumeration.truncated == enum.truncated
    assert report.enumeration.total_count == enum.total_count
    assert report.member_count == len(enum.selections) == 5
    assert report.enumeration.truncated is True
    assert report.norm_bound_excess == excess


def test_verify_report_names_follow_the_check_table():
    scenario = load_scenario(str(SCENARIOS / "scalar.json"))
    flags = {"tolerance": TOL, "samples": 5, "seed": 0, "cap": 4096}
    report = execute(scenario, [{"command": "verify"}], flags)
    names = [c["name"] for c in report["results"][0]["detail"]["checks"]]
    assert names == list(verification._CHECKS)
    assert len(names) == len(set(names)) == 26


def _one_atom_spectrum(a: np.ndarray) -> dict:
    """The ``spectrum`` result on a one-atom matrix section."""
    doc = {
        "space": [{"atom": "a", "weight": 1.0}],
        "fibers": {"a": {"kind": "matrix", "size": len(a)}},
        "sections": {"x": {"a": [[z.real, z.imag] for z in a.ravel().astype(complex)]}},
    }
    flags = {"tolerance": TOL, "samples": 50, "seed": 0, "cap": 4096}
    (result,) = execute(parse_scenario(doc), [{"command": "spectrum", "section": "x"}], flags)["results"]
    return result


@pytest.mark.parametrize("scale", [1e8, 1e12])
def test_large_norm_spectra_pass_the_norm_bound(scale):
    # the spectral radius of a Hermitian matrix is its norm, so rounding at
    # this scale used to read as a selection above norm(x) + tol
    rng = np.random.default_rng(0)
    for _ in range(40):
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert _one_atom_spectrum(scale * (g + g.conj().T))["status"] == "pass"


def _jordan(n, lam):
    return np.diag(np.full(n, lam, dtype=complex)) + np.diag(np.ones(n - 1), 1)


def _similar_jordan():
    s = np.random.default_rng(0).standard_normal((8, 8))
    return s @ _jordan(8, 10.0) @ np.linalg.inv(s)


def _jordan_pair():
    a = np.zeros((8, 8), dtype=complex)
    a[:4, :4], a[4:, 4:] = _jordan(4, 10.0), _jordan(4, -10.0)
    return a


DEFECTIVE = {
    "J8(10)": _jordan(8, 10.0),
    "J8(3+2i)": _jordan(8, 3 + 2j),
    "S J8(10) S^-1": _similar_jordan(),
    "J4(10) + J4(-10)": _jordan_pair(),
}


@pytest.mark.parametrize("name", DEFECTIVE)
def test_every_spectrum_point_is_an_eigenvalue_of_a_nearby_matrix(name):
    # each point must have sigma_min(x - z e) <= tol max(1, norm(x)); the
    # characteristic polynomial's roots of a defective x missed that
    a = DEFECTIVE[name]
    result = _one_atom_spectrum(a)
    assert result["status"] == "pass"
    points = [complex(re, im) for re, im in result["detail"]["fiber_spectra"]["a"]]
    assert len(points) == 8
    tau = TOL * max(1.0, np.linalg.norm(a, 2))
    for z in points:
        assert np.linalg.svd(a - z * np.eye(8), compute_uv=False)[-1] <= tau
    if name == "J4(10) + J4(-10)":
        assert sum(abs(z + 10.0) <= 1e-6 for z in points) == 4
