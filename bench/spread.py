"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py [--workloads a,b] [--runs 10] [--sets 2]
                            [--first-seed 1] [--seconds S]

Runs ``bench/run.py`` untraced once per seed and workload, one run at a time.
Each set runs every workload at ``--runs`` new seeds; the sets run one after
the other.  For every set and end-to-end metric it prints the median and the
inter-quartile distance as a share of the median (the quartiles are those of
``statistics.quantiles(values, n=4)``), next to the metric's bound from
BENCHMARK.json.  For every later set it prints how far each median moved
from the first set's, as a share of the smaller of the two.

A spread below a third of the bound is "ok", one below the bound is "wide",
and a spread or a median move of the bound or more is "OVER".  setup_s is
held to the same bound.  Exits non-zero if a run fails or anything is OVER.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["lines"] = lines[:-1]
    return result


def verdict(share: float, bound: float) -> str:
    if share >= bound:
        return "OVER"
    return "ok" if share < bound / 3 else "wide"


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads.split(",")
    medians: dict[tuple[str, str], list[float]] = {}
    verdicts = []
    next_seed = args.first_seed
    for set_no in range(1, args.sets + 1):
        for workload in workloads:
            values: dict[str, list[float]] = {name: [] for name in bounds}
            seeds = range(next_seed, next_seed + args.runs)
            next_seed += args.runs
            for seed in seeds:
                try:
                    result = run_once(workload, seed, args.seconds)
                except (RuntimeError, subprocess.TimeoutExpired) as exc:
                    print(exc, file=sys.stderr)
                    return 1
                for name in bounds:
                    values[name].append(result["metrics"][name]["value"])
                print(f"set {set_no} {workload} seed={seed} " + " ".join(
                    f"{n}={values[n][-1]:.5g}" for n in bounds), flush=True)
            for name, vals in values.items():
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                verdicts.append(verdict(spread, bounds[name]))
                line = (f"  set {set_no} {workload:13s} {name:12s} median={med:.5g} "
                        f"spread={spread:.3f} bound={bounds[name]} {verdicts[-1]}")
                meds = medians.setdefault((workload, name), [])
                meds.append(med)
                if len(meds) > 1:
                    move = (med - meds[0]) / min(med, meds[0])
                    verdicts.append(verdict(abs(move), bounds[name]))
                    line += f"; median moved {move:+.3f} from set 1: {verdicts[-1]}"
                print(line, flush=True)
    if "OVER" in verdicts:
        print("some spreads or median moves reach their bounds")
        return 1
    print("all spreads and median moves below a third of their bounds"
          if "wide" not in verdicts else
          "all spreads and median moves below their bounds; some above a third")
    return 0


if __name__ == "__main__":
    sys.exit(main())
