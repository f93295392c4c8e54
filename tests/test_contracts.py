"""Input contracts: out-of-range parameters and non-finite numbers are
parse errors (exit 2, with the JSON path), and no verdict or passing check
rests on zero evidence."""

import copy
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bkbundle import Bundle, FiberDescriptor, verification
from bkbundle.cli import main
from bkbundle.errors import ScenarioError
from bkbundle.gelfand_mazur import (
    check_reverse_bound_hypothesis,
    check_unit_support_hypothesis,
)
from bkbundle.scenario import load_scenario, parse_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SHIPPED = {
    name: json.loads((SCENARIOS / f"{name}.json").read_text())
    for name in ("scalar", "matrix2", "mixed")
}
HUGE = 10**400  # json.loads accepts it; float() overflows


def _doc(command):
    doc = copy.deepcopy(SHIPPED["matrix2"])
    doc["commands"] = [command]
    return doc


def _parse_error(doc) -> str:
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    return err.value.path


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# --- parameter ranges ---


@pytest.mark.parametrize(
    "command, path",
    [
        ({"command": "spectrum", "section": "x", "cap": 0}, "commands[0].cap"),
        ({"command": "verify", "cap": -3}, "commands[0].cap"),
        ({"command": "verify", "samples": 0}, "commands[0].samples"),
        ({"command": "gelfand-mazur", "samples": -5}, "commands[0].samples"),
        ({"command": "verify", "seed": -1}, "commands[0].seed"),
        ({"command": "invert", "section": "x", "tolerance": 0}, "commands[0].tolerance"),
    ],
)
def test_out_of_range_command_parameters_name_their_path(tmp_path, command, path):
    doc = _doc(command)
    assert _parse_error(doc) == path
    file = tmp_path / "scenario.json"
    file.write_text(json.dumps(doc))
    assert _exit_code(["run", str(file)]) == 2


def test_boundary_command_parameters_parse():
    for command in (
        {"command": "spectrum", "section": "x", "cap": 1},
        {"command": "verify", "samples": 1, "seed": 0, "cap": 1},
    ):
        parse_scenario(_doc(command))


@pytest.mark.parametrize(
    "flags",
    [
        ["--cap", "0"],
        ["--samples", "0"],
        ["--samples", "-5"],
        ["--seed", "-1"],
        ["--tolerance", "inf"],
        ["--tolerance", "nan"],
        ["--tolerance", "0"],
        ["--tolerance=-1e-8"],
    ],
)
def test_out_of_range_flags_exit_2(capsys, flags):
    path = str(SCENARIOS / "matrix2.json")
    assert _exit_code(["spectrum", path, "--section", "x", *flags]) == 2
    assert flags[0].split("=")[0] in capsys.readouterr().err


# --- non-finite and overflowing numbers ---


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), HUGE])
def test_non_finite_numbers_are_parse_errors(value):
    doc = copy.deepcopy(SHIPPED["mixed"])
    doc["sections"]["x"]["w0"] = [value, 0.0]
    assert _parse_error(doc) == "sections.x.w0"

    doc = copy.deepcopy(SHIPPED["mixed"])
    doc["sections"]["h"]["w3"][4] = [0.0, value]
    assert _parse_error(doc) == "sections.h.w3[4]"

    doc = copy.deepcopy(SHIPPED["mixed"])
    doc["space"][2]["weight"] = value
    assert _parse_error(doc) == "space[2].weight"

    doc = copy.deepcopy(SHIPPED["scalar"])
    doc["commands"][-1]["bound"]["w1"] = value
    assert _parse_error(doc) == "commands[6].bound.w1"

    doc = copy.deepcopy(SHIPPED["scalar"])
    doc["commands"][1]["tolerance"] = value
    assert _parse_error(doc) == "commands[1].tolerance"


@pytest.mark.parametrize(
    "literal", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400]
)
def test_non_finite_json_literals_exit_2(tmp_path, capsys, literal):
    text = (SCENARIOS / "scalar.json").read_text()
    text = text.replace('"w0": [0.5, 0.0]', f'"w0": [{literal}, 0.0]')
    file = tmp_path / "scenario.json"
    file.write_text(text)
    assert _exit_code(["run", str(file)]) == 2
    assert "sections.x.w0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "payload",
    [
        b'{"space": ' + b"1" * 5000 + b"}",  # past the int-conversion digit limit
        b"[" * 100_000,  # nesting deeper than the decoder's recursion limit
        b'{"space": "\xff"}',  # not UTF-8
    ],
)
def test_undecodable_files_are_scenario_errors(tmp_path, payload):
    file = tmp_path / "scenario.json"
    file.write_bytes(payload)
    with pytest.raises(ScenarioError):
        load_scenario(str(file))
    assert _exit_code(["run", str(file)]) == 2


def test_non_string_section_reference_is_a_parse_error():
    doc = _doc({"command": "reconstruct", "sections": ["x", ["y"]]})
    assert _parse_error(doc) == "commands[0].sections[1]"


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, prefix + (i,))


def _replace(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


_TARGETS = [
    (name, path) for name, doc in SHIPPED.items() for path in _paths(doc)
]

_NAMES = st.sampled_from(
    ["x", "h", "y", "w0", "w1", "a", "scalar", "matrix", "function",
     "spectrum", "verify", "reverse-bound", "reconstruct", "size", "weight"]
)

_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([0, 1, 2, 3, 8, 9, 64, 65, -1, HUGE, -HUGE])
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=6)
    | _NAMES,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6) | _NAMES, children, max_size=4),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(target=st.sampled_from(_TARGETS), value=_JSON)
@example(target=("mixed", ("sections", "x", "w0", 0)), value=float("nan"))
@example(target=("scalar", ("space", 1, "weight")), value=HUGE)
@example(target=("matrix2", ("commands", 3, "sections", 1)), value=["y"])
def test_parse_scenario_raises_only_scenario_errors(target, value):
    name, path = target
    doc = _replace(SHIPPED[name], path, value)
    try:
        parse_scenario(doc)
    except ScenarioError:
        pass


# --- no verdict or pass on zero evidence ---


def test_zero_samples_give_inconclusive_verdicts(scalar_bundle):
    verdict = check_unit_support_hypothesis(scalar_bundle, samples=0, rng=0)
    assert (verdict.outcome, verdict.checks_run) == ("inconclusive", 0)
    verdict = check_reverse_bound_hypothesis(scalar_bundle, samples=0, rng=0)
    assert (verdict.outcome, verdict.checks_run) == ("inconclusive", 0)


def test_zero_samples_keep_verified_counterexamples(matrix2_bundle):
    # a structured witness is evidence in itself
    verdict = check_reverse_bound_hypothesis(matrix2_bundle, samples=0, rng=0)
    assert verdict.outcome == "counterexample"
    assert verdict.checks_run == 1


def test_verify_fails_every_check_without_cases(two_atom_space):
    bundle = Bundle.of(
        two_atom_space, {a: FiberDescriptor.scalar() for a in two_atom_space.atoms}
    )
    report = verification.run_verification(bundle, samples=-5)
    empty = [c for c in report.checks if c.cases == 0]
    assert empty
    assert report.passed is False
    assert all(not c.passed and c.failures for c in empty)
