"""Scenario runner.

``bkbundle run scenario.json`` executes the file's command list in order
and emits one report entry per command.  The other subcommands run a
single analysis against the same scenario, ignoring its command list.

Exit codes: 0 when every executed command passed its assertions, 1 when
any assertion or precondition failed, 2 on usage or parse errors.  A
certified negative (a non-invertible section, a counterexample verdict)
is a completed analysis and counts as a pass; what fails a run is a
violated bound, a failed certification, or an unmet precondition.

Reports are deterministic for a fixed scenario and seed except for the
``wall_clock`` fields.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import __version__, gelfand_mazur, representation, spectrum, verification
from .errors import AlgebraError, PreconditionError, ScenarioError
from .fibers import DEFAULT_TOL
from .inversion import NotInvertible, inverse, neumann_inverse, perturbed_inverse
from .measure import EFunction, Idempotent
from .sampling import derive_rng
from .scenario import (
    COMMANDS,
    Scenario,
    check_parameters,
    decode_bound,
    decode_command,
    decode_section,
    encode_complex,
    encode_efunction,
    encode_rows,
    encode_section,
    load_scenario,
)

__all__ = ["main", "execute", "build_parser"]

_DEFAULTS = {
    "tolerance": DEFAULT_TOL,
    "samples": gelfand_mazur.DEFAULT_SAMPLES,
    "seed": 0,
    "cap": spectrum.DEFAULT_SELECTION_CAP,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bkbundle",
        description="Analyses on bundles of Banach algebras over finite atomic measure spaces.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("scenario", help="path to a scenario JSON file")
    for key, default in _DEFAULTS.items():
        shared.add_argument(f"--{key}", type=type(default), default=default)
    shared.add_argument("--report", choices=("json", "text"), default="json")
    shared.add_argument("--out", help="also write the report to this path")

    sub.add_parser(
        "run", parents=[shared], allow_abbrev=False, help="Execute the scenario's command list."
    )
    for name, params in COMMANDS.items():
        p = sub.add_parser(
            name, parents=[shared], allow_abbrev=False, help=_HANDLERS[name].__doc__
        )
        for key in params:
            if key in ("section", "perturbation"):
                p.add_argument(f"--{key}", required=True)
            elif key == "sections":
                p.add_argument("--sections", help="comma-separated section names (default: all)")
    return parser


def _summary_floats(fn: EFunction) -> dict:
    return {atom: float(v.real) for atom, v in zip(fn.space.atoms, fn.values)}


def _cmd_norms(scenario: Scenario, command: dict, rng) -> tuple[str, dict]:
    """Norm of one section."""
    u = scenario.sections[command["section"]]
    norm = u.norm()
    return "pass", {
        "section": command["section"],
        "norm": _summary_floats(norm),
        "sup": float(norm.max_abs()),
    }


def _cmd_invert(scenario: Scenario, command: dict, rng) -> tuple[str, dict]:
    """Certified inverse of one section."""
    name = command["section"]
    u = scenario.sections[name]
    tol = command["tolerance"]
    detail: dict = {"section": name}
    x = scenario.bundle.unit() - u
    if float(x.norm().real_array().max()) < 1.0:
        cert = neumann_inverse(x, tol)
        exact = inverse(u)
        if isinstance(exact, NotInvertible):
            return "fail", {**detail, "message": "series route succeeded but exact route failed"}
        crosscheck = float((cert.inverse - exact).norm().max_abs())
        detail.update(
            method="neumann",
            inverse=encode_section(cert.inverse),
            residual=float(cert.residual.real_array().max()),
            truncation_order=cert.truncation_order,
            bound_slack=float(cert.bound_slack.real_array().min()),
            crosscheck_gap=crosscheck,
        )
        if crosscheck > 2.0 * tol:
            return "fail", {**detail, "message": "series and exact inverses disagree"}
        return "pass", detail
    result = inverse(u)
    if isinstance(result, NotInvertible):
        detail.update(method="exact", invertible=False, atoms=list(result.atoms))
        return "pass", detail
    detail.update(method="exact", invertible=True, inverse=encode_section(result))
    return "pass", detail


def _cmd_perturb(scenario: Scenario, command: dict, rng) -> tuple[str, dict]:
    """Perturbed inverse with its bound."""
    x = scenario.sections[command["section"]]
    h = scenario.sections[command["perturbation"]]
    cert = perturbed_inverse(x, h, command["tolerance"])
    return "pass", {
        "section": command["section"],
        "perturbation": command["perturbation"],
        "inverse": encode_section(cert.inverse),
        "residual": float(cert.residual.real_array().max()),
        "bound_slack": float(cert.bound_slack.real_array().min()),
        "difference_norm": _summary_floats(cert.achieved),
        "bound": _summary_floats(cert.bound),
    }


def _cmd_spectrum(scenario: Scenario, command: dict, rng) -> tuple[str, dict]:
    """Fiberwise spectra and selections."""
    name = command["section"]
    props = spectrum.selection_spectrum_properties(
        scenario.sections[name],
        samples=min(50, command["samples"]),
        tol=command["tolerance"],
        cap=command["cap"],
        rng=rng,
    )
    detail = {
        "section": name,
        "fiber_spectra": {
            atom: [encode_complex(z) for z in props.table.per_atom[atom]]
            for atom in scenario.space.atoms
        },
        "selections": encode_rows(scenario.space.atoms, props.enumeration.selections),
        "selection_count": props.enumeration.total_count,
        "truncated": props.enumeration.truncated,
        "norm_bound_excess": props.norm_bound_excess,
        "properties": {
            "nonempty": props.nonempty,
            "bounded": props.bounded,
            "cyclic": props.cyclic,
            "order_closed": props.order_closed,
            "passed": props.passed,
        },
    }
    if props.norm_bound_excess > 0.0:
        return "fail", {**detail, "message": "selection exceeds the norm bound"}
    if not props.passed:
        return "fail", {**detail, "message": "spectrum property suite failed"}
    return "pass", detail


def _cmd_reconstruct(scenario: Scenario, command: dict, rng) -> tuple[str, dict]:
    """Rebuild the bundle from sections."""
    names = command.get("sections")
    if names is None:
        names = sorted(scenario.sections)
    pool = [scenario.sections[n] for n in names]
    if not pool:
        return "fail", {"message": "no sections to reconstruct from"}
    rebuilt, report = representation.reconstruct_bundle(
        pool, rng=rng, pair_samples=max(10, command["samples"] // 10)
    )
    detail = {
        "sections": list(names),
        "fibers": {
            atom: rebuilt.descriptor(atom).label() for atom in scenario.space.atoms
        },
        "checks": [
            {
                "name": c.name,
                "passed": c.passed,
                "max_error": c.max_error,
                "detail": c.detail,
            }
            for c in report.checks
        ],
    }
    return ("pass" if report.passed else "fail"), detail


def _cmd_gelfand_mazur(scenario: Scenario, command: dict, rng) -> tuple[str, dict]:
    """Unit-support invertibility check."""
    tol, samples = command["tolerance"], command["samples"]
    verdict = gelfand_mazur.check_unit_support_hypothesis(
        scenario.bundle, samples=samples, tol=tol, rng=rng
    )
    detail: dict = {"outcome": verdict.outcome, "checks_run": verdict.checks_run}
    if verdict.detail:
        detail["note"] = verdict.detail
    detail["isomorphism_errors"] = dict(verdict.iso_errors)
    if verdict.witness is not None:
        encoded = encode_section(verdict.witness)
        detail["witness"] = encoded
        replayed = decode_section(scenario.bundle, encoded, "report.witness")
        detail["witness_reverified"] = gelfand_mazur.is_unit_support_witness(replayed, tol)
        if not detail["witness_reverified"]:
            return "fail", {**detail, "message": "witness failed replay"}
    if verdict.localizing is not None:
        detail["localizing_atoms"] = list(verdict.localizing.atoms())
    return "pass", detail


def _cmd_reverse_bound(scenario: Scenario, command: dict, rng) -> tuple[str, dict]:
    """Reverse norm bound check."""
    tol, samples = command["tolerance"], command["samples"]
    verdict = gelfand_mazur.check_reverse_bound_hypothesis(
        scenario.bundle, samples=samples, tol=tol, rng=rng
    )
    detail: dict = {
        "outcome": verdict.outcome,
        "checks_run": verdict.checks_run,
        "parts": [
            {"atoms": list(p.part.atoms()), "outcome": p.outcome, "note": p.detail}
            for p in verdict.parts
        ],
    }
    status = "pass"
    if verdict.witness_pair is not None:
        pair = [encode_section(verdict.witness_pair[0]), encode_section(verdict.witness_pair[1])]
        mask_atoms = list(verdict.localizing.atoms())
        detail["witness_pair"] = pair
        detail["localizing_atoms"] = mask_atoms
        x = decode_section(scenario.bundle, pair[0], "report.witness_pair[0]")
        y = decode_section(scenario.bundle, pair[1], "report.witness_pair[1]")
        part = Idempotent.from_atoms(scenario.space, mask_atoms)
        detail["witness_reverified"] = gelfand_mazur.is_zero_divisor_witness(x, y, part)
        if not detail["witness_reverified"]:
            detail["message"] = "witness pair failed replay"
            status = "fail"
    if "bound" in command:
        m = decode_bound(scenario.space, command["bound"], "bound")
        cert = gelfand_mazur.certify_reverse_bound(
            scenario.bundle, m, samples=samples, tol=tol, rng=rng
        )
        detail["certificate"] = {
            "passed": cert.passed,
            "parts": [
                {**p, "witness": [encode_section(s) for s in p["witness"]]}
                if "witness" in p
                else p
                for p in cert.parts
            ],
            "glued_bound": encode_efunction(cert.glued_bound) if cert.glued_bound else None,
        }
        if not cert.passed:
            detail["message"] = "supplied bound failed certification"
            status = "fail"
    return status, detail


def _cmd_verify(scenario: Scenario, command: dict, rng) -> tuple[str, dict]:
    """Full invariant suite."""
    report = verification.run_verification(
        scenario.bundle,
        scenario.sections,
        seed=command["seed"],
        samples=command["samples"],
        tol=command["tolerance"],
        cap=command["cap"],
    )
    detail = {
        "seed": report.seed,
        "samples": report.samples,
        "checks": [
            {
                "name": c.name,
                "passed": c.passed,
                "cases": c.cases,
                "max_error": c.max_error,
                "failures": c.failures,
                **({"note": c.detail} if c.detail else {}),
            }
            for c in report.checks
        ],
    }
    return ("pass" if report.passed else "fail"), detail


_HANDLERS = {
    "norms": _cmd_norms,
    "invert": _cmd_invert,
    "perturb": _cmd_perturb,
    "spectrum": _cmd_spectrum,
    "reconstruct": _cmd_reconstruct,
    "gelfand-mazur": _cmd_gelfand_mazur,
    "reverse-bound": _cmd_reverse_bound,
    "verify": _cmd_verify,
}


def execute(scenario: Scenario, commands, flags: dict) -> dict:
    """Run a command list against a scenario and assemble the report.

    A handler gets its row with every ``_DEFAULTS`` key resolved: the
    row's value, else the flag's, cast to the default's type.
    """
    results = []
    for i, row in enumerate(commands):
        name = row["command"]
        command = dict(row)
        for key, default in _DEFAULTS.items():
            command[key] = type(default)(row.get(key, flags[key]))
        rng = derive_rng(int(flags["seed"]), "cli", name, str(i))
        started = time.perf_counter()
        try:
            # non-finite results raise NonFiniteError; stderr is for usage errors
            with np.errstate(all="ignore"):
                status, detail = _HANDLERS[name](scenario, command, rng)
        except PreconditionError as exc:
            status, detail = "precondition_failed", {"message": str(exc)}
            if exc.atom is not None:
                detail["atom"] = exc.atom
        except AlgebraError as exc:
            status, detail = "fail", {"message": str(exc)}
        results.append(
            {
                "command": name,
                "status": status,
                "detail": detail,
                "wall_clock": time.perf_counter() - started,
            }
        )
    return {
        "schema": 1,
        "tool": "bkbundle",
        "version": __version__,
        "seed": int(flags["seed"]),
        "scenario": scenario.source,
        "results": results,
        "passed": all(r["status"] == "pass" for r in results),
    }


def _render_text(report: dict) -> str:
    lines = [
        f"{report['tool']} {report['version']}  scenario: {report['scenario']}  seed: {report['seed']}"
    ]
    for r in report["results"]:
        bits = []
        detail = r["detail"]
        for key in ("section", "method", "invertible", "outcome", "residual",
                    "crosscheck_gap", "selection_count", "sup", "message"):
            if key in detail:
                value = detail[key]
                if isinstance(value, float):
                    value = f"{value:.3e}"
                bits.append(f"{key}={value}")
        if r["command"] == "verify":
            checks = detail.get("checks", [])
            bad = [c["name"] for c in checks if not c["passed"]]
            bits.append(f"checks={len(checks)}")
            if bad:
                bits.append(f"failing={','.join(bad)}")
        lines.append(f"  [{r['status']}] {r['command']} " + " ".join(bits))
    verdict = "PASS" if report["passed"] else "FAIL"
    lines.append(f"result: {verdict} ({len(report['results'])} command(s))")
    return "\n".join(lines) + "\n"


def _command_row(args) -> dict:
    """The scenario command row a subcommand other than ``run`` stands for."""
    row = {"command": args.subcommand}
    for key in ("section", "perturbation"):
        if key in vars(args):
            row[key] = vars(args)[key]
    if getattr(args, "sections", None):
        row["sections"] = [s.strip() for s in args.sections.split(",") if s.strip()]
    return row


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    flags = {key: getattr(args, key) for key in _DEFAULTS}
    try:
        check_parameters(flags, "--")
        scenario = load_scenario(args.scenario)
        if args.subcommand == "run":
            commands = list(scenario.commands)
        else:
            commands = [
                decode_command(_command_row(args), "--", scenario.sections, scenario.space)
            ]
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    report = execute(scenario, commands, flags)
    rendered = (
        json.dumps(report, indent=2, sort_keys=True) + "\n"
        if args.report == "json"
        else _render_text(report)
    )
    sys.stdout.write(rendered)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(rendered)
        except OSError as exc:
            print(f"error: --out: cannot write {args.out!r}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
