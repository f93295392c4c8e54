"""Non-finite numbers that arise inside a computation: a NaN eigenvalue
fails spectrum certification, and section arithmetic that overflows is a
failed command (exit 1, a JSON report), never a traceback."""

import json
import subprocess
import sys

import numpy as np
import pytest

from bkbundle import AtomicMeasureSpace, EFunction, FiberElement
from bkbundle.cli import main
from bkbundle.errors import AlgebraError, ConvergenceError
from bkbundle.verification import _CHECKS
from conftest import checkout_env

_rng = np.random.default_rng(0)

# the characteristic polynomial of either matrix overflows, and the root
# iteration returns NaN for every root
OVERFLOWING = {
    "scaled-identity": 1e200 * np.eye(2),
    "random-8": 1e38 * (_rng.standard_normal((8, 8)) + 1j * _rng.standard_normal((8, 8))),
}

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def _reject(token):
    raise ValueError(f"non-JSON constant {token}")


def _literal(value: np.ndarray):
    pairs = [[z.real, z.imag] for z in value.ravel().astype(complex)]
    return pairs[0] if value.ndim == 0 else pairs


def _scenario(tmp_path, fibers: dict, sections: dict) -> str:
    doc = {
        "space": [{"atom": atom, "weight": 1.0} for atom in fibers],
        "fibers": fibers,
        "sections": {
            name: {atom: _literal(v) for atom, v in section.items()}
            for name, section in sections.items()
        },
    }
    tmp_path.mkdir(exist_ok=True)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _failed_result(capsys, argv) -> dict:
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    (result,) = json.loads(captured.out, parse_constant=_reject)["results"]
    assert result["status"] == "fail"
    return result


@pytest.mark.parametrize("name", OVERFLOWING)
def test_nan_eigenvalues_fail_certification(name):
    with pytest.raises(ConvergenceError):
        FiberElement.matrix(OVERFLOWING[name]).spectrum()


@pytest.mark.parametrize("name", OVERFLOWING)
def test_spectrum_command_reports_a_nan_spectrum_as_failure(tmp_path, capsys, name):
    a = OVERFLOWING[name]
    path = _scenario(tmp_path, {"a": {"kind": "matrix", "size": len(a)}}, {"x": {"a": a}})
    result = _failed_result(capsys, ["spectrum", path, "--section", "x"])
    assert "failed certification" in result["detail"]["message"]


def test_overflowing_reconstruct_is_a_failed_command(tmp_path, capsys):
    fibers = {"w0": {"kind": "scalar"}, "w1": {"kind": "scalar"}}
    x = {"w0": np.array(1e200), "w1": np.array(1e200 + 1e200j)}
    path = _scenario(tmp_path, fibers, {"x": x})
    result = _failed_result(capsys, ["reconstruct", path, "--sections", "x"])
    assert result["detail"]["message"] == "fiber element entries must be finite"


def _overflowing_matrix2(tmp_path) -> str:
    sections = {
        "x": {"a": np.array([[1e300, 2e300], [1e300j, 1e300]])},
        "h": {"a": np.array([[1e300, 0.0], [1e300, 1e300]])},
    }
    return _scenario(tmp_path, {"a": {"kind": "matrix", "size": 2}}, sections)


def test_overflowing_verify_is_a_failed_command(tmp_path, capsys):
    # only the check that computes with the overflowing sections fails;
    # the other checks draw random sections and still report
    path = _overflowing_matrix2(tmp_path)
    result = _failed_result(capsys, ["verify", path, "--samples", "2"])
    checks = result["detail"]["checks"]
    assert [c["name"] for c in checks] == list(_CHECKS)
    (failed,) = [c for c in checks if not c["passed"]]
    assert failed["name"] == "reconstruction"
    assert failed["failures"][0] == {"error": "fiber element entries must be finite"}


def test_overflowing_commands_leave_stderr_empty(tmp_path):
    # in a child process, so that numpy's warnings reach a real stderr
    scalars = {"w0": {"kind": "scalar"}, "w1": {"kind": "scalar"}}
    x = {"w0": np.array(1e200), "w1": np.array(1e200 + 1e200j)}
    matrix2 = {"a": {"kind": "matrix", "size": 2}}
    identity = {"x": {"a": OVERFLOWING["scaled-identity"]}}
    commands = [
        ["reconstruct", _scenario(tmp_path / "r", scalars, {"x": x}), "--sections", "x"],
        ["verify", _overflowing_matrix2(tmp_path / "v"), "--samples", "2"],
        ["spectrum", _scenario(tmp_path / "s", matrix2, identity), "--section", "x"],
    ]
    for argv in commands:
        run = subprocess.run(
            [sys.executable, "-m", "bkbundle.cli", *argv],
            capture_output=True, text=True, env=checkout_env(),
        )
        assert (run.returncode, run.stderr) == (1, ""), argv[0]
        assert json.loads(run.stdout, parse_constant=_reject)["results"][0]["status"] == "fail"


def test_non_finite_entries_raise_an_algebra_error_that_is_a_value_error():
    space = AtomicMeasureSpace.uniform(["a"])
    for make in (
        lambda: FiberElement.scalar(1e300) * FiberElement.scalar(1e300),
        lambda: FiberElement.matrix([[np.inf]]),
        lambda: EFunction(space, [1e300]) * EFunction(space, [1e300]),
    ):
        with pytest.raises(AlgebraError) as err:
            make()
        assert isinstance(err.value, ValueError)
