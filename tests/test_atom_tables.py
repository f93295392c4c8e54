"""One decoder for the atom-keyed objects of a scenario (section literals,
``fibers`` and the reverse-bound ``bound``), and one declaration for each
shared default."""

import copy
import json
from pathlib import Path

import pytest

from bkbundle import cli, gelfand_mazur, inversion, spectrum, verification
from bkbundle.cli import build_parser, main
from bkbundle.errors import ScenarioError
from bkbundle.fibers import DEFAULT_TOL, SIGMA_TOL
from bkbundle.scenario import decode_bound, parse_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SCALAR = json.loads((SCENARIOS / "scalar.json").read_text())

# where each atom-keyed object sits in scalar.json, and one valid value
TABLES = {
    "sections.x": ([0.5, 0.0], lambda doc: doc["sections"]["x"]),
    "fibers": ({"kind": "scalar"}, lambda doc: doc["fibers"]),
    "commands[6].bound": (1.0, lambda doc: doc["commands"][6]["bound"]),
}


def _parse_error(doc) -> ScenarioError:
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    return err.value


@pytest.mark.parametrize("path", TABLES)
def test_unknown_atom_is_named_at_its_key(path):
    value, table = TABLES[path]
    doc = copy.deepcopy(SCALAR)
    table(doc)["z"] = value
    err = _parse_error(doc)
    assert err.path == f"{path}.z"
    assert str(err) == f"{path}.z: unknown atom 'z'"


@pytest.mark.parametrize("path", TABLES)
def test_missing_atom_is_named_at_the_object(path):
    doc = copy.deepcopy(SCALAR)
    del TABLES[path][1](doc)["w1"]
    err = _parse_error(doc)
    assert err.path == path
    assert str(err) == f"{path}: missing value for atom 'w1'"


@pytest.mark.parametrize("path", TABLES)
def test_errors_come_in_one_order(path):
    value, table = TABLES[path]
    # unknown keys first, in document order (not sorted)
    doc = copy.deepcopy(SCALAR)
    del table(doc)["w1"]
    table(doc)["w0"] = "not a value"
    table(doc)["zz"] = value
    table(doc)["aa"] = value
    assert _parse_error(doc).path == f"{path}.zz"
    # then missing atoms, before any value is decoded
    del table(doc)["zz"], table(doc)["aa"]
    assert _parse_error(doc).path == path
    # then the values, at their atoms
    table(doc)["w1"] = value
    assert _parse_error(doc).path == f"{path}.w0"


def test_matrix_and_function_literals_share_one_length_check():
    doc = {
        "space": [{"atom": "a", "weight": 1.0}, {"atom": "b", "weight": 1.0}],
        "fibers": {"a": {"kind": "matrix", "size": 2}, "b": {"kind": "function", "size": 3}},
        "sections": {"x": {"a": [[1, 0]] * 3, "b": [[1, 0]] * 3}},
    }
    assert str(_parse_error(doc)) == "sections.x.a: matrix(2) literal needs 4 entries, got 3"
    doc["sections"]["x"] = {"a": [[1, 0], [2, 0], [3, 0], [4, 0]], "b": [[1, 0]] * 2}
    assert str(_parse_error(doc)) == "sections.x.b: function(3) literal needs 3 entries, got 2"
    doc["sections"]["x"]["b"] = [[1, 0], [2, 0], [3, 0]]
    x = parse_scenario(doc).sections["x"]
    assert x.value("a").data.tolist() == [[1, 2], [3, 4]]  # row-major
    assert x.value("b").data.tolist() == [1, 2, 3]


def test_non_finite_bound_names_its_atom():
    space = parse_scenario(SCALAR).space
    with pytest.raises(ScenarioError) as err:
        decode_bound(space, {"w0": 1.0, "w1": float("inf")}, "commands[3].bound")
    assert err.value.path == "commands[3].bound.w1"
    m = decode_bound(space, {"w1": 3, "w0": 2.5}, "bound")
    assert m.values.tolist() == [2.5, 3.0]


def test_cli_flag_defaults_are_the_library_constants():
    args = build_parser().parse_args(["verify", str(SCENARIOS / "scalar.json")])
    assert args.tolerance == DEFAULT_TOL == 1e-8
    assert args.samples == gelfand_mazur.DEFAULT_SAMPLES == 500
    assert args.cap == spectrum.DEFAULT_SELECTION_CAP == 4096
    assert args.seed == 0
    assert SIGMA_TOL == 1e-10
    # the library modules read the same declarations
    assert inversion.DEFAULT_TOL is DEFAULT_TOL and inversion.SIGMA_TOL is SIGMA_TOL
    assert spectrum.DEFAULT_TOL is DEFAULT_TOL
    assert set(cli._DEFAULTS) == {"tolerance", "samples", "seed", "cap"}
    defaults = verification.run_verification.__defaults__
    assert defaults[-3:] == (gelfand_mazur.DEFAULT_SAMPLES, DEFAULT_TOL, 4096)


def test_reverse_bound_certificate_on_scalar_scenario(capsys):
    argv = ["run", str(SCENARIOS / "scalar.json")]
    assert main(argv) == 0
    (result,) = [
        r for r in json.loads(capsys.readouterr().out)["results"]
        if r["command"] == "reverse-bound"
    ]
    assert result["status"] == "pass"
    assert result["detail"]["certificate"] == {
        "passed": True,
        "parts": [
            {
                "level": 1,
                "atoms": ["w0", "w1"],
                "bound": 2.0,
                "max_violation": 0.0,
                "passed": True,
            }
        ],
        "glued_bound": {"w0": [2.0, 0.0], "w1": [2.0, 0.0]},
    }


def test_scenario_row_overrides_flags_once_resolved():
    sc = parse_scenario(
        {**copy.deepcopy(SCALAR), "commands": [{"command": "verify", "samples": 3, "seed": 2}]}
    )
    flags = {"tolerance": 1e-8, "samples": 40, "seed": 0, "cap": 4096}
    report = cli.execute(sc, sc.commands, flags)
    (result,) = report["results"]
    assert (result["detail"]["samples"], result["detail"]["seed"]) == (3, 2)
    assert report["seed"] == 0
