"""The command table in ``scenario.COMMANDS``: the CLI's subcommands, flags
and handlers follow it, and CLI-built commands go through the same
validator as scenario rows.  Also the CLI's output paths: certificate
witnesses as section literals and an unwritable ``--out``."""

import argparse
import json
import re
from pathlib import Path

import pytest

from bkbundle.cli import _HANDLERS, build_parser, main
from bkbundle.errors import ScenarioError
from bkbundle.scenario import COMMANDS, decode_section, parse_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
MIXED = str(SCENARIOS / "mixed.json")
REFERENCE_FLAGS = {"section": "x", "perturbation": "h", "sections": "x,h"}
SHARED_FLAGS = {"--help", "--tolerance", "--samples", "--seed", "--cap", "--report", "--out"}


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _reference_argv(keys) -> list[str]:
    return [arg for key in keys for arg in (f"--{key}", REFERENCE_FLAGS[key])]


def _subcommands() -> dict:
    (choices,) = [
        action.choices
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return choices


def test_table_handlers_and_subcommands_agree():
    assert list(COMMANDS) == list(_HANDLERS)
    assert list(_subcommands()) == ["run", *COMMANDS]


@pytest.mark.parametrize("name", list(COMMANDS))
def test_each_subcommand_takes_exactly_its_reference_flags(name):
    listed = [key for key in COMMANDS[name] if key in REFERENCE_FLAGS]
    declared = {
        option: action.required
        for action in _subcommands()[name]._actions
        for option in action.option_strings
    }
    assert {o for o in declared if o[2:] in REFERENCE_FLAGS} == {f"--{k}" for k in listed}
    for key in listed:
        assert declared[f"--{key}"] == (key != "sections")
    args = build_parser().parse_args([name, MIXED, *_reference_argv(listed)])
    assert args.subcommand == name
    for key in ("section", "perturbation"):
        if key in listed:
            rest = [k for k in listed if k != key]
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args([name, MIXED, *_reference_argv(rest)])
            assert exc.value.code == 2


@pytest.mark.parametrize("name", ["run", *COMMANDS])
def test_every_subcommand_help_lists_only_its_flags(capsys, name):
    assert _exit_code([name, "--help"]) == 0
    shown = set(re.findall(r"--[a-z]+", capsys.readouterr().out))
    listed = {f"--{key}" for key in COMMANDS.get(name, ()) if key in REFERENCE_FLAGS}
    assert shown == SHARED_FLAGS | listed


@pytest.mark.parametrize(
    "argv, key",
    [
        (["norms", MIXED, "--section", "nope"], "--section"),
        (["perturb", MIXED, "--section", "x", "--perturbation", "nope"], "--perturbation"),
        (["reconstruct", MIXED, "--sections", "x,nope"], "--sections"),
    ],
)
def test_unknown_section_flag_exits_2_and_names_the_flag(capsys, argv, key):
    assert _exit_code(argv) == 2
    err = capsys.readouterr().err
    assert key in err and "nope" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["reconstruct", MIXED, "--section", "x"],
        ["norms", MIXED, "--sec", "x"],
        ["invert", MIXED, "--section", "x", "--tol", "1e-8"],
    ],
)
def test_flag_prefixes_are_rejected(capsys, argv):
    # only the flags the table declares are accepted, spelled in full
    assert _exit_code(argv) == 2
    assert capsys.readouterr().out == ""


def test_cli_and_scenario_rows_share_the_range_check(capsys):
    doc = json.loads((SCENARIOS / "mixed.json").read_text())
    doc["commands"] = [{"command": "spectrum", "section": "x", "cap": 0}]
    with pytest.raises(ScenarioError) as parsed:
        parse_scenario(doc)
    assert parsed.value.path == "commands[0].cap"
    assert _exit_code(["spectrum", MIXED, "--section", "x", "--cap", "0"]) == 2
    message = str(parsed.value).removeprefix("commands[0].cap: ")
    assert f"--cap: {message}" in capsys.readouterr().err


def test_reverse_bound_certificate_witness_is_a_section_literal(tmp_path, capsys):
    # on a matrix(2) fiber the nilpotent pair refutes every finite bound;
    # the certificate's witness must reach the JSON report as literals
    doc = {
        "space": [{"atom": "a", "weight": 1.0}, {"atom": "b", "weight": 1.0}],
        "fibers": {"a": {"kind": "scalar"}, "b": {"kind": "matrix", "size": 2}},
        "commands": [
            {"command": "reverse-bound", "samples": 5, "bound": {"a": 1.0, "b": 3.0}}
        ],
    }
    path = tmp_path / "zero_divisors.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    detail = report["results"][0]["detail"]
    assert detail["message"] == "supplied bound failed certification"
    failed = [p for p in detail["certificate"]["parts"] if not p["passed"]]
    assert failed and all("witness" in p for p in failed)
    bundle = parse_scenario(doc).bundle
    for part in failed:
        x, y = (decode_section(bundle, lit, "witness") for lit in part["witness"])
        assert (x * y).norm().max_abs() == 0.0
        nx, ny = x.norm().real_array(), y.norm().real_array()
        assert all(nx[bundle.space.index(a)] > 0 for a in part["atoms"])
        assert all(ny[bundle.space.index(a)] > 0 for a in part["atoms"])


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    argv = ["norms", str(SCENARIOS / "scalar.json"), "--section", "x", "--out", str(target)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and str(target) in captured.err
    assert json.loads(captured.out)["passed"] is True
    assert not target.exists()
