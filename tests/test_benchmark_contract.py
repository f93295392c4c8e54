"""The benchmark's contract with the package, checked on one request per
workload: every wrapper a workload expects fires under ``perfbench``'s
tracer, tracing changes no report, and the report passes.

A refactor that drops an expected wrapper, or that leaves a public
function in a module-level container the tracer cannot patch, fails here
instead of only in a traced benchmark run.  ``perfbench/`` is loaded
read-only, from its files.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import bkbundle.cli
from bkbundle.scenario import parse_scenario

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")


def _strip_wall_clock(report):
    out = {k: v for k, v in report.items() if k != "wall_clock"}
    out["results"] = [{k: v for k, v in r.items() if k != "wall_clock"} for r in report["results"]]
    return out


def _request(raw):
    # a fresh parse per request, so no norm cached by one run reaches the other
    scenario = parse_scenario(raw)
    flags = {"tolerance": workloads.TOL, "samples": 500, "cap": 4096, "seed": 0}
    # looked up through the module at call time, so the tracer's wrapper runs
    return bkbundle.cli.execute(scenario, scenario.commands, flags)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_request_under_the_tracer(name):
    workload = workloads.WORKLOADS[name]
    raw = workload.scenarios(0)[0]
    for row in raw["commands"]:
        if row["command"] == "verify":
            row["samples"] = 2
    plain = _request(raw)
    with tracer.Tracer() as t:
        traced = _request(raw)
    assert [c for c in workload.expected_calls if t.calls(c) == 0] == []
    assert _strip_wall_clock(traced) == _strip_wall_clock(plain)
    assert [r["status"] for r in plain["results"]] == ["pass"] * len(plain["results"])
    assert workload.check(raw, plain) == []
