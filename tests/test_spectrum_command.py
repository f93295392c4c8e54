"""The ``spectrum`` and ``verify`` commands report exactly what the library
computes: one selection pass behind ``spectrum``, one check table behind
``verify``."""

from pathlib import Path

import numpy as np
import pytest

from bkbundle import verification
from bkbundle.cli import execute
from bkbundle.scenario import encode_efunction, load_scenario
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
    bound = x.norm() + TOL
    excess = 0.0
    for row in enum.selections:
        a = x.bundle.space.efunction(row)
        excess = max(excess, float((abs(a) - bound).real_array().max()))
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
