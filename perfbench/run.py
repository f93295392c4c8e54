"""bkbundle benchmark: closed-loop requests through ``cli.execute``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` runs every workload in turn, each in its own process.

Run from the repository root.  One process, one client: each request is
sent only after the previous one returned, and BLAS threads are pinned to
one.  The workload's scenario pool is generated from ``--seed`` (not
timed).  Set-up is then timed: importing ``bkbundle`` and ``bkbundle.cli``
with numpy already loaded, plus parsing the whole pool, repeated
``SETUP_REPEATS`` times from a fresh import.

``--trace 0`` sends requests for ``--seconds`` of request time.  Every
report is checked against a ``numpy.linalg`` oracle outside the timed
region; a request fails if its status is not ``pass``, if it raises, or if
the oracle rejects it.

Machine speed.  The host's speed swings by about 1.5x for seconds at a
time, so raw wall times of one seed spread by about 25% from run to run.
After each request (and around each set-up) the benchmark therefore times
a fixed calibration kernel (``calibrate.kernel_median``: at least three
passes, about 1% of the request's time) and multiplies every measured time
by ``calibrate.speed_factor(kernel time)``.  For a request the kernel time
is the median of the kernels timed within ``SPEED_WINDOW_S`` of it
(``Loop.ref_latencies``); for a set-up, the mean of the kernels just
before and after it.  The gated metrics (``*_ref_*`` and ``setup_s``) are
these reference-speed times; the raw wall-clock figures
(``throughput_rps``, ``latency_p50_ms``, ``latency_p90_ms``) are printed
in the summary beside them.  Each pool is stratified by cost (see
``workloads.Workload.scenarios``), so seeds change the values drawn but
not the mix of cheap and costly requests.

``--trace 1`` sends a fixed number of requests (set by the workload and
``--seconds``, so equal arguments give equal counters) twice: untraced,
then with every layer wrapped by ``tracer.Tracer``.  It reports the
per-layer metrics and ``trace.overhead_frac``, checks that both passes
returned identical reports (ignoring ``wall_clock``) and that the
workload's expected wrappers fired, and writes spans and aggregates to
``.perfbench_out/``.

The last line of standard output is the JSON result; the lines before it
are a human-readable summary with provenance.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from calibrate import kernel_median, speed_factor  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import TOL, WORKLOADS  # noqa: E402

SETUP_REPEATS = 7
SPEED_WINDOW_S = 2.0  # request time on each side of a request whose kernels set its speed
KERNEL_SHARE = 0.01  # calibration time after a request, as a share of its latency
P90_MIN_REQUESTS = 100  # so that at least ten samples lie beyond the 90th percentile
FLAGS = {"tolerance": TOL, "samples": 500, "cap": 4096}
ARITH = ("__add__", "__sub__", "__mul__", "__rmul__", "__neg__")

# Per-layer times of code that some workload never reaches: there they read
# exactly 0 on every run.  They are printed and written to the trace file,
# but the result line carries only metrics every workload measures.
SUMMARY_ONLY = {
    "linalg.polynomial_roots.self_s",
    "fibers.FiberElement.spectrum.self_s",
    "inversion.neumann_inverse.incl_s",
    "spectrum.self_s",
    "spectrum.selection_spectrum_properties.incl_s",
    "representation.quotient_norm.self_s",
    "gelfand_mazur.incl_s",
    "verification.self_s",
    "scenario.encode.self_s",
}


class Program:
    """The package under test, imported from ``src/`` of the checkout.

    Entry points are looked up through their modules on every call, so a
    tracer that rebinds them is seen.
    """

    def __init__(self):
        self.scenario = self.cli = None

    def import_fresh(self):
        for name in [n for n in sys.modules if n == "bkbundle" or n.startswith("bkbundle.")]:
            del sys.modules[name]
        importlib.import_module("bkbundle")
        self.cli = importlib.import_module("bkbundle.cli")
        self.scenario = sys.modules["bkbundle.scenario"]

    def parse(self, raw: dict):
        return self.scenario.parse_scenario(raw)

    def execute(self, scenario, flags: dict) -> dict:
        return self.cli.execute(scenario, scenario.commands, flags)


def setup(program: Program, pool: list[dict]) -> tuple[list, list[float], list[float]]:
    """Import and parse SETUP_REPEATS times.

    Returns the last parse, the raw set-up times and the same times at
    reference speed.
    """
    if not (SRC / "bkbundle" / "__init__.py").is_file():
        raise FileNotFoundError(f"no bkbundle package under {SRC}")
    sys.path.insert(0, str(SRC))
    raw_times, ref_times = [], []
    before = kernel_median(KERNEL_SHARE)
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        program.import_fresh()
        parsed = [program.parse(raw) for raw in pool]
        elapsed = time.perf_counter() - start
        after = kernel_median(KERNEL_SHARE * elapsed)
        raw_times.append(elapsed)
        ref_times.append(elapsed * speed_factor((before + after) / 2.0))
        before = after
    return parsed, raw_times, ref_times


def strip_wall_clock(report: dict) -> dict:
    out = {k: v for k, v in report.items() if k != "wall_clock"}
    out["results"] = [{k: v for k, v in r.items() if k != "wall_clock"} for r in report["results"]]
    return out


def report_digest(report: dict) -> str:
    return hashlib.sha256(json.dumps(strip_wall_clock(report), sort_keys=True).encode()).hexdigest()


def digest(digests: list[str]) -> str:
    """One digest for a sequence of report digests."""
    return hashlib.sha256("".join(digests).encode()).hexdigest()


class Loop:
    """The closed loop: one request at a time; the oracle check and the
    calibration kernel run after each request, outside its timing."""

    def __init__(self, program: Program, workload, pool, parsed, seed: int):
        self.program, self.workload = program, workload
        self.pool, self.parsed = pool, parsed
        self.flags = dict(FLAGS, seed=seed)
        self.latencies: list[float] = []
        self.kernels: list[float] = [kernel_median(KERNEL_SHARE)]
        self.digests: list[str] = []  # one per report; reports themselves are not kept
        self.verify_cases = 0
        self.failures: list[str] = []

    def request(self, index: int, tracer: Tracer | None = None) -> None:
        raw, scenario = self.pool[index % len(self.pool)], self.parsed[index % len(self.pool)]
        if tracer is not None:
            tracer.start_request(index)
        error, report = None, None
        start = time.perf_counter()
        try:
            report = self.program.execute(scenario, self.flags)
        except Exception as exc:  # a raising request is a failed request, not a crash
            error = f"raised {type(exc).__name__}: {exc}"
        self.latencies.append(time.perf_counter() - start)
        if report is not None:
            self.digests.append(report_digest(report))
            bad = [r["command"] for r in report["results"] if r["status"] != "pass"]
            if bad:
                error = f"status not pass for {bad}"
            else:
                try:
                    problems = self.workload.check(raw, report)
                    self.verify_cases += sum(
                        c["cases"] for r in report["results"] if r["command"] == "verify"
                        for c in r["detail"]["checks"]
                    )
                except (KeyError, TypeError, ValueError) as exc:
                    problems = [f"malformed report: {exc!r}"]
                error = "; ".join(problems) or None
        if error is not None:
            self.failures.append(f"request {index}: {error}")
        self.kernels.append(kernel_median(KERNEL_SHARE * self.latencies[-1]))

    def run_for(self, seconds: float) -> None:
        while not self.latencies or sum(self.latencies) < seconds:
            self.request(len(self.latencies))

    def run_count(self, count: int, tracer: Tracer | None = None) -> None:
        for index in range(count):
            self.request(index, tracer)

    def ref_latencies(self) -> list[float]:
        """Request latencies scaled to reference speed.

        Request i ran between kernels i and i + 1.  Its speed estimate is the
        median of the kernels timed within SPEED_WINDOW_S of request time
        around it (the two adjacent ones at least), which follows speed
        changes that last seconds but not a burst inside one kernel.
        """
        pos = [0.0, *itertools.accumulate(self.latencies)]
        out = []
        for i, t in enumerate(self.latencies):
            lo = bisect.bisect_left(pos, pos[i] - SPEED_WINDOW_S)
            hi = bisect.bisect_right(pos, pos[i + 1] + SPEED_WINDOW_S)
            out.append(t * speed_factor(statistics.median(self.kernels[lo:hi])))
        return out


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "bkbundle").glob("*.py")))


def provenance(workload, seed: int) -> dict:
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "src_lines": src_lines(),
        "client": "closed loop, 1 client",
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _latency_figures(latencies: list[float], ok: int, suffix: str) -> dict:
    ms = sorted(1000.0 * t for t in latencies)
    out = {
        f"throughput{suffix}_rps": (ok / sum(latencies), "1/s"),
        f"latency_p50{suffix}_ms": (statistics.median(ms), "ms"),
    }
    if len(ms) >= P90_MIN_REQUESTS:
        out[f"latency_p90{suffix}_ms"] = (statistics.quantiles(ms, n=10)[-1], "ms")
    return out


def end_to_end(loop: Loop, setup_ref: list[float]) -> tuple[dict, dict]:
    """(metrics for the result line, extra figures for the summary)."""
    attempted, failed = len(loop.latencies), len(loop.failures)
    ref = _latency_figures(loop.ref_latencies(), attempted - failed, "_ref")
    metrics = {
        "throughput_ref_rps": ref.pop("throughput_ref_rps"),
        "latency_p50_ref_ms": ref.pop("latency_p50_ref_ms"),
        "setup_s": (statistics.median(setup_ref), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    extra = {
        **ref,
        **_latency_figures(loop.latencies, attempted - failed, ""),
        "failed_frac": (failed / attempted, "1"),
        "requests": (attempted, "count"),
        "kernel_median_ms": (1000.0 * statistics.median(loop.kernels), "ms"),
    }
    return metrics, extra


def layer_metrics(t: Tracer, parse_t: Tracer, verify_cases: int, overhead: float) -> dict:
    calls, self_s = t.calls, t.self_s

    def ratio(num, den):
        return num / den if den else 0.0

    m = {"linalg.self_s": (t.layer_self("linalg"), "s")}
    for fn in ("operator_norm", "hermitian_eigensystem", "singular_values",
               "polynomial_roots", "gauss_jordan_inverse"):
        m[f"linalg.{fn}.calls"] = (calls(f"linalg.{fn}"), "count")
        m[f"linalg.{fn}.self_s"] = (self_s(f"linalg.{fn}"), "s")

    init, inv = "fibers.FiberElement.__init__", "fibers.FiberElement.inverse"
    m["fibers.self_s"] = (t.layer_self("fibers"), "s")
    m[f"{init}.calls"] = (calls(init), "count")
    m[f"{init}.self_s"] = (self_s(init), "s")
    m["fibers.arith.calls"] = (t.total_calls(f"fibers.FiberElement.{op}" for op in ARITH), "count")
    m[f"{inv}.calls"] = (calls(inv), "count")
    m[f"{inv}.self_s"] = (self_s(inv), "s")
    m["fibers.FiberElement.spectrum.self_s"] = (self_s("fibers.FiberElement.spectrum"), "s")
    m["fibers.inverse.residual_norms_per_call"] = (ratio(
        t.edges.get((inv, "linalg.operator_norm"), 0), t.counters["matrix_inverses"]
    ), "ratio")

    m["bundle.self_s"] = (t.layer_self("bundle"), "s")
    m["bundle.Section.arith.calls"] = (t.total_calls(f"bundle.Section.{op}" for op in ARITH), "count")
    m["bundle.Section.norm.calls"] = (calls("bundle.Section.norm"), "count")
    m["bundle.Section.norm.self_s"] = (self_s("bundle.Section.norm"), "s")

    neumann = "inversion.neumann_inverse"
    m[f"{neumann}.calls"] = (calls(neumann), "count")
    m[f"{neumann}.incl_s"] = (t.incl(neumann), "s")
    m["inversion.neumann_order.sum"] = (t.counters["neumann_order"], "count")
    m["inversion.neumann_exact.count"] = (t.counters["neumann_exact"], "count")
    m["inversion.products_per_order"] = (ratio(
        t.edges.get((neumann, "bundle.Section.__mul__"), 0), t.counters["neumann_order"]
    ), "ratio")
    m["inversion.inverse.calls"] = (calls("inversion.inverse"), "count")

    m["measure.self_s"] = (t.layer_self("measure"), "s")
    m["measure.EFunction.__init__.calls"] = (calls("measure.EFunction.__init__"), "count")
    m["spectrum.self_s"] = (t.layer_self("spectrum"), "s")
    m["spectrum.spectrum_table.calls"] = (calls("spectrum.spectrum_table"), "count")
    m["spectrum.selections.count"] = (t.counters["selections"], "count")
    m["spectrum.selection_spectrum_properties.incl_s"] = (
        t.incl("spectrum.selection_spectrum_properties"), "s")

    m["representation.quotient_norm.calls"] = (calls("representation.quotient_norm"), "count")
    m["representation.quotient_norm.self_s"] = (self_s("representation.quotient_norm"), "s")
    m["gelfand_mazur.incl_s"] = (t.layer_incl["gelfand_mazur"], "s")
    m["gelfand_mazur.checks_run.sum"] = (t.counters["gm_checks_run"], "count")
    m["verification.self_s"] = (t.layer_self("verification"), "s")
    m["verification.cases.sum"] = (verify_cases, "count")
    m["sampling.self_s"] = (t.layer_self("sampling"), "s")

    m["scenario.parse_scenario.self_s"] = (parse_t.self_s("scenario.parse_scenario"), "s")
    m["scenario.encode.self_s"] = (sum(
        (s[2] for k, s in t.stats.items() if k.startswith("scenario.encode_")), 0.0
    ), "s")
    m["cli.execute.self_s"] = (self_s("cli.execute"), "s")
    m["trace.overhead_frac"] = (overhead, "frac")
    return m


def _count_neumann(counters, args, cert):
    if cert.truncation_order == "exact":
        counters["neumann_exact"] += 1
    else:
        counters["neumann_order"] += cert.truncation_order


def _count_matrix_inverse(counters, args, result):
    # Only a matrix inverse that returned an element ran the residual check.
    if args[0].descriptor.kind == "matrix" and type(result) is type(args[0]):
        counters["matrix_inverses"] += 1


def _count_selections(counters, args, enumeration):
    counters["selections"] += len(enumeration.selections)


def _count_gm_checks(counters, args, verdict):
    counters["gm_checks_run"] += verdict.checks_run


OBSERVERS = {
    "inversion.neumann_inverse": _count_neumann,
    "fibers.FiberElement.inverse": _count_matrix_inverse,
    "spectrum.enumerate_selection_spectrum": _count_selections,
    "gelfand_mazur.check_unit_support_hypothesis": _count_gm_checks,
    "gelfand_mazur.check_reverse_bound_hypothesis": _count_gm_checks,
}


def trace_count(workload, seconds: float) -> int:
    """Requests per pass of a traced run: about half of --seconds untraced."""
    return max(1, round(workload.trace_requests * seconds / 30.0))


def traced_run(program, workload, pool, parsed, seed, seconds):
    """(per-layer metrics, failed requests, other problems, trace detail)."""
    count = trace_count(workload, seconds)
    Loop(program, workload, pool, parsed, seed).request(0)  # warm-up, as untraced
    plain = Loop(program, workload, pool, parsed, seed)
    plain.run_count(count)
    with Tracer(observers=OBSERVERS) as parse_t:
        for raw in pool:
            program.parse(raw)
    traced = Loop(program, workload, pool, parsed, seed)
    with Tracer(observers=OBSERVERS) as t:
        traced.run_count(count, t)

    failures = plain.failures + traced.failures
    problems = []
    if len(traced.digests) != count or plain.digests != traced.digests:
        problems.append("traced and untraced reports differ")
    for name in workload.expected_calls:
        if t.calls(name) == 0:
            problems.append(f"expected wrapper {name} recorded no call")
    overhead = sum(traced.ref_latencies()) / sum(plain.ref_latencies()) - 1.0
    metrics = layer_metrics(t, parse_t, traced.verify_cases, overhead)
    detail = {
        "requests": count,
        "report_digest": digest(traced.digests),
        "aggregates": {
            name: {"calls": calls, "incl_s": incl, "self_s": own}
            for name, (calls, incl, own) in sorted(t.stats.items()) if calls
        },
        "layer_self_s": {layer: t.layer_self(layer) for layer in LAYERS},
        "layer_incl_s": dict(t.layer_incl),
        "counters": dict(t.counters),
        "metrics": {name: value for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload.name}-seed{seed}"
    with open(f"{stem}-spans.jsonl", "w", encoding="utf-8") as handle:
        for span_id, parent, req, name, start, end in t.spans:
            handle.write(json.dumps({"id": span_id, "parent": parent, "request": req,
                                     "name": name, "start": start, "end": end}) + "\n")
    with open(f"{stem}-trace.json", "w", encoding="utf-8") as handle:
        json.dump(detail, handle, indent=1, sort_keys=True)
    return metrics, failures, problems, detail


def untraced_run(program, workload, pool, parsed, seed, seconds):
    """(the measured loop, failures of the uncounted warm-up request, report digest)."""
    warm = Loop(program, workload, pool, parsed, seed)
    warm.request(0)  # lazy set-up settles before timing
    loop = Loop(program, workload, pool, parsed, seed)
    loop.run_for(seconds)
    return loop, [f"warm-up {f}" for f in warm.failures], digest(loop.digests[:len(pool)])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"],
                        help="one workload, or all of them, each in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    if args.workload == "all":
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
            for name in WORKLOADS
        ]
        return max(codes)

    workload = WORKLOADS[args.workload]
    pool = workload.scenarios(args.seed)
    program = Program()
    try:
        parsed, setup_raw, setup_ref = setup(program, pool)
    except (ImportError, FileNotFoundError) as exc:
        print(f"error: cannot set up the program: {exc}", file=sys.stderr)
        return 2

    lines = [f"{k}: {v}" for k, v in provenance(workload, args.seed).items()]
    lines.append("setup_s raw samples: " + ", ".join(f"{s:.4f}" for s in setup_raw))
    if args.trace:
        metrics, failures, problems, detail = traced_run(
            program, workload, pool, parsed, args.seed, args.seconds)
        attempted = 2 * detail["requests"]
        lines.append(f"report_digest: {detail['report_digest']} ({detail['requests']} reports)")
        shown = metrics
        metrics = {k: v for k, v in metrics.items() if k not in SUMMARY_ONLY}
    else:
        loop, problems, first_digest = untraced_run(
            program, workload, pool, parsed, args.seed, args.seconds)
        metrics, extra = end_to_end(loop, setup_ref)
        failures, attempted = loop.failures, len(loop.latencies)
        lines.append(f"report_digest: {first_digest} (first {min(attempted, len(pool))} reports)")
        shown = {**metrics, **extra}
    lines += [f"{name}: {value:.6g} {unit}" for name, (value, unit) in shown.items()]
    lines += [f"FAILED {p}" for p in (failures + problems)[:20]]
    print("\n".join(lines))
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
