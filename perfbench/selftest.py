"""Self-test of the benchmark's tracing.

    python3 perfbench/selftest.py [--seed N] [--seconds S]

For every workload it makes two traced runs with the same seed and
requires identical call counts and counters (every ``.calls``, ``.sum``
and ``.count`` metric, and the full per-function call table).  Each traced
run itself requires that its reports equal the untraced reports (ignoring
``wall_clock``), that the oracle accepts every request, and that the
workload's expected wrappers recorded calls, so a binding site the tracer
missed fails loudly.  Exits 1 on any failure.
"""

from __future__ import annotations

import argparse
import sys

import run


def counts(metrics: dict, detail: dict) -> dict:
    out = {k: v for k, (v, unit) in metrics.items() if unit == "count"}
    out.update({f"calls:{k}": a["calls"] for k, a in detail["aggregates"].items()})
    out.update({f"counter:{k}": v for k, v in detail["counters"].items()})
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Check that traced counts repeat exactly.")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    args = parser.parse_args(argv)

    ok = True
    for workload in run.WORKLOADS.values():
        pool = workload.scenarios(args.seed)
        program = run.Program()
        parsed = run.setup(program, pool)[0]
        first, second = (
            run.traced_run(program, workload, pool, parsed, args.seed, args.seconds)
            for _ in range(2)
        )
        problems = first[1] + first[2] + second[1] + second[2]
        a, b = counts(first[0], first[3]), counts(second[0], second[3])
        problems += [f"{k}: {a.get(k)} != {b.get(k)}" for k in sorted(a.keys() | b.keys())
                     if a.get(k) != b.get(k)]
        ok = ok and not problems
        print(f"{workload.name}: {'ok' if not problems else 'FAIL'} "
              f"({len(a)} counts, {first[3]['requests']} requests per pass)")
        for p in problems[:20]:
            print(f"  {p}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
