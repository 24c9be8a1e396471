"""linsep benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/linsep`` next to this directory.  Workloads: sweep_verify,
simulate_grid and serve_large (see bench/README.md).

With ``--trace 0`` the run starts WORKERS worker processes of this script
one after the other, each with its own hash seed derived from the workload
seed.  Each worker sets up and repeats whole units of timed work until about
S / WORKERS seconds have been measured; the run pools the workers' samples
and reports the end-to-end metrics.  With ``--trace 1`` the run stays in one
process: it installs the per-layer wrappers, runs the set-up once and a
fixed number of units (so that every count is a function of the seed alone),
removes the wrappers and reports the per-layer metrics.  Either way the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give every
end-to-end metric under the workload's own names, and the provenance.  The
exit code is 0 only when every operation matched its oracle.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import Tracer, leftover_wrappers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
HELD_OUT_SEED = 90210  # a later gain claim must also hold at this seed
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it
# Python's per-process hash seed moves a process's speed by several per cent
# on the tuning host (bench/README.md).  An untraced run therefore pools
# WORKERS processes run one after the other, each with its own hash seed.
WORKERS = 5
RUN_DEADLINE_S = 170  # a hung worker is killed so the run ends within 180 s


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND samples above it."""
    for p in range(99, 50, -1):
        if n - math.ceil(p / 100 * n) >= TAIL_BEYOND:
            return p
    return 50


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def measure(wl, seed: int, seconds: float, work: Path, repeats: int,
            first_unit: int = 0, stride: int = 1, traced: bool = False):
    """Time the set-ups and the units of one process.

    Returns the set-up times, the units' results, the set-ups' warm-up
    checks and the tracer.

    The first set-up makes the state that every unit uses.  Untraced, the
    remaining ``repeats - 1`` set-ups are timed between units at evenly
    spaced points of the measurement, and their state is dropped.  Traced,
    the set-up runs once and ``wl.trace_units`` units follow, so that the
    per-layer counts describe one set-up plus the fixed units.  A full
    collection before each set-up starts every one of them from the same
    heap.  Unit ``j`` of this process is unit ``first_unit + stride * j`` of
    the run, so the workers of a run draw different units.
    """
    setup_s: list[float] = []
    checks = []

    def timed_setup():
        gc.collect()
        t0 = time.perf_counter()
        state, warm = wl.setup(seed, work)
        setup_s.append(time.perf_counter() - t0)
        checks.append(warm)
        return state

    tracer = Tracer() if traced else None
    with tracer or contextlib.nullcontext():
        state = timed_setup()
        units, walls = [], []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            units.append(wl.unit(state, first_unit + stride * len(units)))
            walls.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - start
            if traced:
                if len(units) == wl.trace_units:
                    break
            # Stop when one more unit would end more than half a unit past S.
            elif elapsed + statistics.median(walls) / 2 >= seconds:
                break
            if len(setup_s) < repeats and elapsed >= len(setup_s) * seconds / repeats:
                timed_setup()
        while len(setup_s) < repeats:
            timed_setup()
    return setup_s, units, checks, tracer


def samples(setup_s: list[float], units: list, checks: list) -> dict:
    """The raw figures of one process, as a worker hands them to the run."""
    return {
        "setup_s": setup_s,
        "unit_rates": [u.ops / u.seconds for u in units],
        "latencies_s": [x for u in units for x in u.latencies_s],
        "ops": sum(u.ops for u in units),
        "attempted": sum(r.attempted for r in units + checks),
        "failed": sum(r.failed for r in units + checks),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def hash_seed(seed: int, worker: int) -> int:
    """PYTHONHASHSEED of one worker: fixed by the workload seed."""
    from linsep.field import derive_seed
    return derive_seed(seed, "hash", worker) % 2**32


def run_workers(args, work: Path) -> tuple[list[dict], list[int]]:
    """Run the untraced workers one after the other; their samples.

    A worker's failure reports go to this process's standard error.  A
    worker that exits without samples, or is still running at the run's
    deadline, raises RuntimeError; subprocess.run kills and waits for it.
    """
    deadline = time.monotonic() + RUN_DEADLINE_S
    results, seeds = [], []
    for i in range(WORKERS):
        seeds.append(hash_seed(args.seed, i))
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds / WORKERS),
               "--worker", str(i), "--work", str(work)]
        try:
            proc = subprocess.run(
                cmd, env=dict(os.environ, PYTHONHASHSEED=str(seeds[-1])),
                stdout=subprocess.PIPE, text=True,
                timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"worker {i} still running at the run's deadline")
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            raise RuntimeError(f"worker {i} exited {proc.returncode} without samples")
        results.append(json.loads(lines[-1]))
    return results, seeds


def end_to_end(parts: list[dict]) -> dict:
    """Pool the samples of every process of the run."""
    lat = sorted(x for p in parts for x in p["latencies_s"])
    tail = tail_percentile(len(lat))
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    rates = [r for p in parts for r in p["unit_rates"]]
    setups = [t for p in parts for t in p["setup_s"]]
    return {
        "ops_per_s": statistics.median(rates),
        "op_ms_p50": 1000 * percentile(lat, 50),
        "op_ms_tail": 1000 * percentile(lat, tail),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
        "fail_ratio": failed / attempted if attempted else 1.0,
        "tail_percentile": tail,
        "latency_samples": len(lat),
        "units": len(rates),
        "setups": len(setups),
        "processes": len(parts),
        "ops": sum(p["ops"] for p in parts),
        "attempted": attempted,
        "failed": failed,
    }


E2E_UNITS = {"ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_tail": "ms",
             "setup_s": "s", "peak_rss_mb": "MB"}


def print_report(wl, e2e: dict, traced: bool) -> None:
    """Every end-to-end metric under the workload's own names."""
    tag = " (traced)" if traced else ""
    lat, n, tail = wl.latency_name, e2e["latency_samples"], e2e["tail_percentile"]
    lines = [
        (wl.rate_name, e2e["ops_per_s"], "1/s",
         f"median over {e2e['units']} units of {wl.op}s per second"),
        (f"{lat}_p50", e2e["op_ms_p50"], "ms", f"n={n}"),
        (f"{lat}_tail", e2e["op_ms_tail"], "ms", f"p{tail}, n={n}"),
        ("setup_s", e2e["setup_s"], "s", f"median of {e2e['setups']} set-ups"),
        ("fail_ratio", e2e["fail_ratio"], "-",
         f"{e2e['failed']} of {e2e['attempted']} operations"),
        ("peak_rss_mb", e2e["peak_rss_mb"], "MB",
         f"highest peak RSS of the run's {e2e['processes']} process(es)"),
    ]
    for name, value, unit, note in lines:
        print(f"{wl.name}.{name}{tag} = {value:.6g} {unit}  ({note})")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: run as worker I of an untraced run, in that run's work dir.
    ap.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    ap.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "linsep" / "__init__.py").is_file():
        print(f"error: program source not found at {SRC / 'linsep'}; run from a "
              "linsep source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    if args.worker is not None:
        work = Path(tempfile.mkdtemp(prefix=f"worker{args.worker}_", dir=args.work))
        setup_s, units, checks, _ = measure(
            wl, args.seed, args.seconds, work,
            repeats=math.ceil(wl.setup_repeats / WORKERS),
            first_unit=args.worker, stride=WORKERS)
        part = samples(setup_s, units, checks)
        print(json.dumps(part))
        return 0 if part["failed"] == 0 else 1

    import numpy

    traced = bool(args.trace)
    tracer, seeds = None, []
    work = Path(tempfile.mkdtemp(prefix=".bench_tmp_", dir=ROOT))
    try:
        if traced:
            setup_s, units, checks, tracer = measure(
                wl, args.seed, args.seconds, work, repeats=1, traced=True)
            parts = [samples(setup_s, units, checks)]
        else:
            parts, seeds = run_workers(args, work)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    leftovers = leftover_wrappers()

    e2e = end_to_end(parts)
    provenance = {
        "workload": wl.name, "seed": args.seed, "traced": traced,
        "seconds": args.seconds, "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED, "q": workloads.Q,
        "git_commit": git_commit(), "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "platform": platform.platform(),
        "worker_hash_seeds": seeds or "one process, hash seed of the caller",
    }
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    print_report(wl, e2e, traced)
    print("e2e: " + json.dumps(e2e, sort_keys=True))
    if traced:
        if tracer.missing:
            print(f"warning: entry points not found, not traced: {tracer.missing}",
                  file=sys.stderr)
        print(f"trace_clean: {not leftovers}")
        if leftovers:
            print(f"error: wrappers left after the traced run: {leftovers}",
                  file=sys.stderr)
        metrics = {name: {"value": v, "unit": u}
                   for name, (v, u) in tracer.metrics().items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
    correct = e2e["failed"] == 0 and not leftovers
    print(json.dumps({"correct": correct, "attempted": e2e["attempted"],
                      "failed": e2e["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
