"""Scenario parsing and the command-line runner: error paths with field
locations, exit-code semantics, report determinism, witness replay."""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

from bkbundle import load_scenario, parse_scenario
from bkbundle.cli import execute, main
from bkbundle.errors import ScenarioError
from bkbundle.inversion import _strict_contraction_order
from bkbundle.scenario import decode_section
from conftest import checkout_env

BASE = {
    "space": [
        {"atom": "w0", "weight": 1.0},
        {"atom": "w1", "weight": 2.0},
    ],
    "fibers": {
        "w0": {"kind": "scalar"},
        "w1": {"kind": "matrix", "size": 2},
    },
    "sections": {
        "x": {
            "w0": [0.5, 0.0],
            "w1": [[0.25, 0.0], [0.0, 0.1], [0.0, 0.0], [0.25, 0.0]],
        }
    },
    "commands": [{"command": "norms", "section": "x"}],
}


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "bkbundle.cli", *args],
        capture_output=True,
        text=True,
        env=checkout_env(),
    )


def test_parse_roundtrip():
    sc = parse_scenario(copy.deepcopy(BASE))
    assert sc.space.atoms == ("w0", "w1")
    assert sc.bundle.descriptor("w1").kind == "matrix"
    assert "x" in sc.sections
    assert sc.commands[0]["command"] == "norms"


def test_parse_error_paths():
    bad_weight = copy.deepcopy(BASE)
    bad_weight["space"][1]["weight"] = -2.0
    with pytest.raises(ScenarioError) as err:
        parse_scenario(bad_weight)
    assert "space[1].weight" in str(err.value)

    bad_literal = copy.deepcopy(BASE)
    bad_literal["sections"]["x"]["w1"] = [[0.25, 0.0], [0.0, 0.1]]
    with pytest.raises(ScenarioError) as err:
        parse_scenario(bad_literal)
    assert "sections.x.w1" in str(err.value)

    bad_pair = copy.deepcopy(BASE)
    bad_pair["sections"]["x"]["w0"] = [0.5]
    with pytest.raises(ScenarioError) as err:
        parse_scenario(bad_pair)
    assert "sections.x.w0" in str(err.value)

    missing_atom = copy.deepcopy(BASE)
    del missing_atom["sections"]["x"]["w1"]
    with pytest.raises(ScenarioError) as err:
        parse_scenario(missing_atom)
    assert "sections.x" in str(err.value)

    unknown_command = copy.deepcopy(BASE)
    unknown_command["commands"] = [{"command": "explode"}]
    with pytest.raises(ScenarioError) as err:
        parse_scenario(unknown_command)
    assert "commands[0]" in str(err.value)

    dangling_ref = copy.deepcopy(BASE)
    dangling_ref["commands"] = [{"command": "norms", "section": "ghost"}]
    with pytest.raises(ScenarioError) as err:
        parse_scenario(dangling_ref)
    assert "ghost" in str(err.value)

    bad_size = copy.deepcopy(BASE)
    bad_size["fibers"]["w1"] = {"kind": "matrix", "size": 12}
    with pytest.raises(ScenarioError) as err:
        parse_scenario(bad_size)
    assert "fibers.w1" in str(err.value)


def test_load_scenario_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"space": [,]}')
    with pytest.raises(ScenarioError) as err:
        load_scenario(str(path))
    assert "line" in str(err.value)


def test_cli_exit_codes(tmp_path):
    ok = write_scenario(tmp_path, BASE, "ok.json")
    result = run_cli(["run", ok])
    assert result.returncode == 0

    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    result = run_cli(["run", str(broken)])
    assert result.returncode == 2
    assert result.stderr.strip()

    result = run_cli(["run", str(tmp_path / "missing.json")])
    assert result.returncode == 2


def test_cli_precondition_failure_is_exit_one(tmp_path):
    # perturbing by an h too large for the admissibility margin: the
    # precondition fails, surfaced as a structured entry, and the run
    # exits 1
    doc = copy.deepcopy(BASE)
    doc["sections"]["big_h"] = {
        "w0": [0.9, 0.0],
        "w1": [[0.9, 0.0], [0.0, 0.0], [0.0, 0.0], [0.9, 0.0]],
    }
    doc["commands"] = [
        {"command": "perturb", "section": "x", "perturbation": "big_h"}
    ]
    path = write_scenario(tmp_path, doc)
    result = run_cli(["run", path, "--report", "json"])
    report = json.loads(result.stdout)
    assert result.returncode == 1
    entry = report["results"][0]
    assert entry["status"] == "precondition_failed"
    assert report["passed"] is False


def test_cli_not_invertible_is_successful_analysis(tmp_path):
    doc = copy.deepcopy(BASE)
    doc["sections"]["x"]["w1"] = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    doc["sections"]["x"]["w0"] = [1.0, 0.0]
    doc["commands"] = [{"command": "invert", "section": "x"}]
    path = write_scenario(tmp_path, doc)
    result = run_cli(["run", path, "--report", "json"])
    assert result.returncode == 0
    report = json.loads(result.stdout)
    entry = report["results"][0]
    assert entry["status"] == "pass"
    assert entry["detail"]["invertible"] is False
    assert entry["detail"]["atoms"] == ["w1"]


def test_report_schema_and_determinism(tmp_path):
    doc = copy.deepcopy(BASE)
    doc["commands"] = [
        {"command": "norms", "section": "x"},
        {"command": "spectrum", "section": "x"},
        {"command": "verify", "samples": 40},
    ]
    path = write_scenario(tmp_path, doc)

    def normalized():
        result = run_cli(["run", path, "--report", "json", "--seed", "3"])
        assert result.returncode == 0
        report = json.loads(result.stdout)
        for entry in report["results"]:
            entry.pop("wall_clock", None)
        return report

    first = normalized()
    second = normalized()
    assert first == second
    assert first["schema"] == 1
    assert first["seed"] == 3
    assert "version" in first


def test_cli_out_flag_writes_report(tmp_path):
    path = write_scenario(tmp_path, BASE)
    out = tmp_path / "report.json"
    result = run_cli(["run", path, "--out", str(out)])
    assert result.returncode == 0
    saved = json.loads(out.read_text())
    assert saved["passed"] is True


def test_cli_single_command_subcommands(tmp_path):
    path = write_scenario(tmp_path, BASE)
    for args in (
        ["norms", path, "--section", "x"],
        ["spectrum", path, "--section", "x"],
        ["gelfand-mazur", path, "--samples", "30"],
        ["reverse-bound", path, "--samples", "30"],
    ):
        result = run_cli(args + ["--report", "json"])
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        assert report["passed"] is True


def test_text_report_mentions_outcomes(tmp_path):
    doc = copy.deepcopy(BASE)
    doc["commands"] = [
        {"command": "gelfand-mazur", "samples": 30},
        {"command": "reverse-bound", "samples": 30},
    ]
    path = write_scenario(tmp_path, doc)
    result = run_cli(["run", path, "--report", "text"])
    assert result.returncode == 0
    assert "outcome=counterexample" in result.stdout
    assert "result: PASS" in result.stdout


def test_witness_replay_from_report(tmp_path):
    # the serialized witness must re-verify when decoded from the report
    doc = copy.deepcopy(BASE)
    doc["commands"] = [{"command": "reverse-bound", "samples": 30}]
    path = write_scenario(tmp_path, doc)
    result = run_cli(["run", path, "--report", "json"])
    assert result.returncode == 0
    report = json.loads(result.stdout)
    detail = report["results"][0]["detail"]
    assert detail["outcome"] == "counterexample"
    scenario = parse_scenario(copy.deepcopy(BASE))
    x = decode_section(scenario.bundle, detail["witness_pair"][0], "replay.x")
    y = decode_section(scenario.bundle, detail["witness_pair"][1], "replay.y")
    assert (x * y).sup_norm() == 0.0
    assert x.sup_norm() > 0.0
    assert y.sup_norm() > 0.0


def test_shipped_scenarios_pass():
    for name in ("scalar", "matrix2", "mixed"):
        path = Path(__file__).resolve().parent.parent / "scenarios" / f"{name}.json"
        result = run_cli(["run", str(path), "--report", "json"])
        assert result.returncode == 0, f"{name}: {result.stderr}"
        report = json.loads(result.stdout)
        assert report["passed"] is True


def test_verify_command_lists_all_checks(tmp_path):
    doc = copy.deepcopy(BASE)
    doc["commands"] = [{"command": "verify", "samples": 40}]
    path = write_scenario(tmp_path, doc)
    result = run_cli(["run", path, "--report", "json"])
    assert result.returncode == 0
    report = json.loads(result.stdout)
    checks = report["results"][0]["detail"]["checks"]
    assert len(checks) >= 20
    assert all(c["passed"] for c in checks)


def test_main_entrypoint_runs_in_process(tmp_path, capsys):
    path = write_scenario(tmp_path, BASE)
    code = main(["run", path, "--report", "json"])
    assert code == 0
    out = capsys.readouterr().out
    assert json.loads(out)["passed"] is True


def test_invert_near_the_contraction_boundary():
    # norm(e - u) = 0.9999 needs series order 276,296; repeated squaring
    # sums 2^19 - 1 terms in 19 factors
    u = 1.0 - 0.9999j
    doc = {
        "space": [{"atom": "w0", "weight": 1.0}],
        "fibers": {"w0": {"kind": "scalar"}},
        "sections": {"u": {"w0": [u.real, u.imag]}},
        "commands": [{"command": "invert", "section": "u", "tolerance": 1e-8}],
    }
    sc = parse_scenario(doc)
    flags = {"tolerance": 1e-8, "samples": 500, "seed": 0, "cap": 4096}
    (result,) = execute(sc, sc.commands, flags)["results"]
    assert result["status"] == "pass"
    detail = result["detail"]
    assert detail["method"] == "neumann"
    assert _strict_contraction_order(0.9999, 1e-8) <= detail["truncation_order"] == 2**19 - 1
    assert detail["residual"] <= 1e-8
    got = complex(*detail["inverse"]["w0"])
    assert abs(got - 1.0 / u) <= 1e-8


def test_invert_rank_deficient_matrix3_answers_not_invertible():
    # the cyclic Jacobi kernel chased the rounding noise of the zero
    # singular value and exited with "column rotations did not settle"
    m = [[0, -8j, -16 + 32j], [0, 0, 0], [-9j, -32 + 32j, 256]]
    doc = {
        "space": [{"atom": "w0", "weight": 1.0}],
        "fibers": {"w0": {"kind": "matrix", "size": 3}},
        "sections": {"u": {"w0": [[complex(z).real, complex(z).imag] for row in m for z in row]}},
        "commands": [{"command": "invert", "section": "u"}],
    }
    sc = parse_scenario(doc)
    flags = {"tolerance": 1e-8, "samples": 500, "seed": 0, "cap": 4096}
    (result,) = execute(sc, sc.commands, flags)["results"]
    assert result["status"] == "pass"
    assert result["detail"]["method"] == "exact"
    assert result["detail"]["invertible"] is False
    assert result["detail"]["atoms"] == ["w0"]
