"""Self-test of the benchmark itself.

    python3 bench/selftest.py [--workloads a,b] [--seconds S] [--pairs P]

For every workload it checks that:

* every run passes its oracles (fail_ratio == 0), at the default seed and
  at the held-out seed;
* all traced runs of the default seed report identical counts: every
  ``*.calls``, ``field.mat_mul.{macs,bytes}``, ``serialize.dumps.bytes`` and
  ``codec.verify_decodability.failing_subsets``, and every other per-layer
  metric that is not a time;
* no tracing wrapper is left on any linsep attribute after a traced run;

and it reports the tracing overhead: the traced minus the untraced value of
each end-to-end metric at the default seed, as the median over alternating
pairs of runs.  Exits non-zero if a check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import DEFAULT_SEED, E2E_UNITS, HELD_OUT_SEED, ROOT
from spread import run_once


def e2e_line(result: dict) -> dict:
    for line in result["lines"]:
        if line.startswith("e2e: "):
            return json.loads(line[len("e2e: "):])
    raise RuntimeError("run printed no e2e line")


def check_workload(workload: str, seconds: int, pairs: int) -> list[str]:
    problems = []

    def check_oracles(result: dict, seed: int, trace: int = 0) -> dict:
        e2e = e2e_line(result)
        print(f"{workload} seed={seed} trace={trace}: "
              f"fail_ratio={e2e['fail_ratio']} ({result['failed']} of {result['attempted']})")
        if e2e["fail_ratio"] != 0 or not result["correct"]:
            problems.append(f"{workload}: fail_ratio {e2e['fail_ratio']} at seed {seed}")
        return e2e

    traced: list[dict] = []
    check_oracles(run_once(workload, HELD_OUT_SEED, seconds), HELD_OUT_SEED)
    # Untraced and traced runs alternate, and the overhead is taken pair by
    # pair, so that a drift in the host's speed cancels within a pair.
    deltas: dict[str, list[float]] = {name: [] for name in E2E_UNITS}
    for i in range(pairs):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        pair = {}
        for trace in order:
            result = run_once(workload, DEFAULT_SEED, seconds, trace=trace)
            if trace:
                traced.append(result)
            pair[trace] = check_oracles(result, DEFAULT_SEED, trace)
        for name in E2E_UNITS:
            deltas[name].append(pair[1][name] - pair[0][name])

    for result in traced:
        if "trace_clean: True" not in result["lines"]:
            problems.append(f"{workload}: wrappers left after a traced run")
    counts = [{name: m["value"] for name, m in r["metrics"].items() if m["unit"] != "s"}
              for r in traced]
    differing = sorted({n for c in counts[1:] for n in c.keys() | counts[0].keys()
                        if c.get(n) != counts[0].get(n)})
    if differing:
        problems.append(f"{workload}: counts differ between traced runs: {differing}")
    print(f"{workload}: {len(counts[0])} counts repeat exactly over {len(counts)} "
          f"traced runs: {not differing}")
    for name, unit in E2E_UNITS.items():
        print(f"  overhead {workload}.{name}: traced - untraced = "
              f"{statistics.median(deltas[name]):+.5g} {unit} (median of {pairs} pairs: "
              + ", ".join(f"{d:+.4g}" for d in deltas[name]) + ")")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--pairs", type=int, default=3,
                    help="untraced/traced pairs per workload (at least 2)")
    args = ap.parse_args(argv)
    problems = []
    for workload in args.workloads.split(","):
        try:
            problems += check_workload(workload, args.seconds, max(2, args.pairs))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            problems.append(f"{workload}: {exc}")
    for p in problems:
        print(f"FAIL {p}")
    print("self-test passed" if not problems else f"self-test failed: {len(problems)}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
