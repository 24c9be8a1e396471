"""The three benchmark workloads.

Each workload is closed-loop and single-process: one caller issues the next
operation only after the previous one returned.  A workload splits into a
set-up, which makes every input from the workload seed, and a unit of timed
work that the runner repeats.  ``setup`` returns the state the units use and
the checks of its warm-up operations.  Every operation is checked against an
oracle outside the timed region.  An untraced run repeats the set-up
``setup_repeats`` times and reports the median; short set-ups repeat more
often, so that every run times between about 0.6 and 3 seconds of set-up
work.

The program is reached only through module attributes (``builder.build_auto``,
``codec.decode``, ...), so that the tracer's wrappers see every call.  The
oracle product is bound at import time, before any wrapper exists, so it
never shows up in the per-layer counts.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np

from linsep import builder, cli, codec, field, serialize
from linsep.field import mat_mul as oracle_mat_mul

Q = field.DEFAULT_MODULUS
clock = time.perf_counter


@dataclass
class UnitResult:
    """Timed work of one unit: its wall time, operation count and latencies."""

    seconds: float = 0.0
    ops: int = 0
    latencies_s: list[float] = dc_field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def _report_failure(what: str) -> None:
    print(f"FAILED: {what}", file=sys.stderr, flush=True)


def _seed(seed: int, *parts) -> int:
    return field.derive_seed(seed, "bench", *parts)


# ---------------------------------------------------------------------------
# sweep_verify: the acceptance-3 decodability grid, one trial per point.
# ---------------------------------------------------------------------------

SWEEP_GRID = tuple(
    (n, k, n_r, k_c)
    for n in range(2, 7)
    for k in (n, 2 * n, 3 * n)
    for n_r in range(1, n + 1)
    for k_c in range(1, k + 1)
)
# Demand sets drawn in set-up; units cycle through them.  No cache outlives
# one scheme, so a pass that comes round again does the same work as the
# first time.
SWEEP_POOL_PASSES = 8


class SweepVerify:
    name = "sweep_verify"
    op = "scheme"
    rate_name, latency_name = "schemes_per_s", "scheme_ms"
    setup_repeats = 5
    trace_units = 1

    def setup(self, seed: int, work: Path):
        f = field.Field(Q)
        pool = []
        for p in range(SWEEP_POOL_PASSES):
            batch = []
            for n, k, n_r, k_c in SWEEP_GRID:
                s = _seed(seed, "sweep", p, n, k, n_r, k_c)
                demand = builder.random_demand(k_c, k, f, field.derive_seed(s, "demand"))
                batch.append((n, n_r, demand, field.derive_seed(s, "pad"), s))
            pool.append(batch)
        return pool, UnitResult()

    def unit(self, pool, index: int) -> UnitResult:
        res = UnitResult()
        for n, n_r, demand, pad, s in pool[index % len(pool)]:
            t0 = clock()
            try:
                scheme = builder.build_auto(demand, n, n_r, padding_seed=pad)
                bad = codec.verify_decodability(scheme, subproblem_cap=16, seed=s)
            except Exception:  # an operation that raises is a failed operation
                bad = traceback.format_exc()
            dt = clock() - t0
            res.seconds += dt
            res.latencies_s.append(dt)
            res.ops += 1
            res.attempted += 1
            if bad != []:
                res.failed += 1
                _report_failure(f"sweep_verify N={n} K={demand.k} N_r={n_r} "
                                f"K_c={demand.k_c} seed={s}: {bad}")
        return res


# ---------------------------------------------------------------------------
# simulate_grid: ``linsep simulate`` run in-process through cli.main.
# ---------------------------------------------------------------------------

SIM_TRIALS = 1
SIM_CALLS = (
    # (flags, grid points).  The auto grid covers the small, middle and large
    # regimes and virtual-slot points (N not dividing K); K_c > K is skipped,
    # which leaves 18 (K, K_c) pairs x 2 N x 2 N_r = 72 points.
    (["-K", "6,7,9,12", "-N", "3,4", "--nr", "2,3", "--kc", "1,2,3,5,8"], 72),
    (["-K", "12", "-N", "4", "--nr", "3", "--kc", "3", "--assignment", "grouped"], 1),
)
# Warm-up grid: the small, middle and large regimes, with and without
# virtual slots, in 6 points.
SIM_WARM = (["-K", "6,7", "-N", "3", "--nr", "2", "--kc", "1,2,5"], 6)


def _sim_argv(args, seed: int, out: Path, log: Path) -> list[str]:
    return ["simulate", *args, "--trials", str(SIM_TRIALS), "--seed", str(seed),
            "--out", str(out), "--trial-log", str(log)]


def _simulate(args, seed: int, work: Path, tag: str):
    """Run one ``linsep simulate`` call; its exit code, or the traceback."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            return cli.main(_sim_argv(args, seed, work / f"{tag}.csv",
                                      work / f"{tag}.jsonl"))
    except Exception:  # an operation that raises is a failed operation
        return traceback.format_exc()


def _audit_simulate(code, points: int, work: Path, tag: str) -> tuple[int, int]:
    """(trials, failed trials) of one ``linsep simulate`` call.

    A trial passes when its trial-log line is all_ok and its grid point's CSV
    row has no failures and a measured cost equal to the formula cost.
    """
    expected = points * SIM_TRIALS
    out, log = work / f"{tag}.csv", work / f"{tag}.jsonl"
    try:
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        lines = log.read_text().splitlines()
    except OSError as exc:
        code = f"{code}: {exc}"
        rows, lines = [], []
    row_ok = {
        (int(r["K"]), int(r["N"]), int(r["N_r"]), int(r["K_c"])):
        r["failures"] == "0" and Fraction(r["measured_cost"]) == int(r["formula_cost"])
        for r in rows
    }
    failed = 0
    for line in lines:
        t = json.loads(line)
        c = t["config"]
        ok = (all(t["successes"]) and all(t["matches"]) and t["cost_match"]
              and row_ok.get((c["k"], c["n"], c["n_r"], c["k_c"]), False))
        failed += 0 if ok else 1
    if code != 0 or len(lines) != expected or len(rows) * SIM_TRIALS != expected:
        _report_failure(f"simulate {out.name}: exit {code}, {len(lines)} trial-log "
                        f"lines and {len(rows)} rows for {expected} trials")
        return expected, expected
    if failed:
        _report_failure(f"simulate {out.name}: {failed} of {expected} trials failed")
    return expected, failed


class SimulateGrid:
    name = "simulate_grid"
    op = "trial"
    # One audit is both simulate calls of a round.
    rate_name, latency_name = "trials_per_s", "audit_ms"
    setup_repeats = 25
    trace_units = 3

    def setup(self, seed: int, work: Path):
        work = Path(tempfile.mkdtemp(prefix="setup_", dir=work))
        # Warm-up: one small audit, so that argument parsing, lazy imports and
        # first calls into each regime are paid before timing.
        args, points = SIM_WARM
        trials, failed = _audit_simulate(
            _simulate(args, _seed(seed, "warm"), work, "warm"), points, work, "warm")
        return {"seed": seed, "work": work}, UnitResult(attempted=trials, failed=failed)

    def unit(self, state, index: int) -> UnitResult:
        res = UnitResult()
        seed = _seed(state["seed"], "round", index)
        work = state["work"]
        t0 = clock()
        codes = [_simulate(args, seed, work, f"call{i}")
                 for i, (args, _) in enumerate(SIM_CALLS)]
        res.seconds = clock() - t0
        res.latencies_s.append(res.seconds)
        for i, ((_, points), code) in enumerate(zip(SIM_CALLS, codes)):
            trials, failed = _audit_simulate(code, points, work, f"call{i}")
            res.ops += trials
            res.attempted += trials
            res.failed += failed
        return res


# ---------------------------------------------------------------------------
# serve_large: a master serving message blocks from a loaded scheme file.
# One block is encode for N_r workers plus decode.
# ---------------------------------------------------------------------------

MESSAGE_POOL = 4  # message blocks, drawn in set-up


@dataclass(frozen=True)
class ServePoint:
    label: str
    K: int
    N: int
    N_r: int
    K_c: int
    L: int


@dataclass
class Served:
    point: ServePoint
    scheme: builder.Scheme  # as loaded back from its scheme file
    subsets: list[tuple[int, ...]]
    pool: list[codec.MessageBlock]
    oracle: list[field.FMatrix]  # demand x block, computed without scheme code
    served: int = 0


def _serve_point(pt: ServePoint, seed: int) -> Served:
    f = field.Field(Q)
    demand = builder.random_demand(pt.K_c, pt.K, f, _seed(seed, pt.label, "demand"))
    built = builder.build_auto(
        demand, pt.N, pt.N_r, l_symbols=pt.L,
        padding_seed=_seed(seed, pt.label, "padding"),
        virtual_seed=_seed(seed, pt.label, "virtual"),
    )
    scheme = serialize.loads(serialize.dumps(built))
    rng = np.random.default_rng(_seed(seed, pt.label, "messages"))
    pool = [codec.MessageBlock(field.FMatrix(f, rng.integers(0, Q, (pt.K, pt.L))))
            for _ in range(MESSAGE_POOL)]
    oracle = [oracle_mat_mul(demand.matrix, w.w) for w in pool]
    subsets = list(combinations(range(1, pt.N + 1), pt.N_r))
    return Served(pt, scheme, subsets, pool, oracle)


def _serve_block(s: Served, res: UnitResult) -> None:
    i = s.served
    s.served += 1
    subset = s.subsets[i % len(s.subsets)]
    w = s.pool[i % len(s.pool)]
    t0 = clock()
    try:
        answers = [codec.encode_worker(s.scheme, n, w) for n in subset]
        report = codec.decode(s.scheme, answers)
        error = None
    except Exception:  # an operation that raises is a failed operation
        report, error = None, traceback.format_exc()
    dt = clock() - t0
    res.seconds += dt
    res.latencies_s.append(dt)
    res.ops += 1
    res.attempted += 1
    if error or not report.success or report.recovered != s.oracle[i % len(s.pool)]:
        res.failed += 1
        _report_failure(f"{s.point.label} block {i} responders {subset}: "
                        f"{error or (report.detail if not report.success else 'wrong result')}")


class Serve:
    op = "block"
    rate_name, latency_name = "blocks_per_s", "block_ms"

    def __init__(self, name: str, point: ServePoint, blocks_per_unit: int,
                 setup_repeats: int, trace_units: int):
        self.name = name
        self.point = point
        self.blocks_per_unit = blocks_per_unit
        self.setup_repeats = setup_repeats
        self.trace_units = trace_units

    def setup(self, seed: int, work: Path):
        served = _serve_point(self.point, seed)
        warm = UnitResult()
        _serve_block(served, warm)  # warm-up block: fills the subscheme cache
        return served, warm

    def unit(self, served, index: int) -> UnitResult:
        res = UnitResult()
        for _ in range(self.blocks_per_unit):
            _serve_block(served, res)
        return res


SERVE_LARGE = Serve(
    "serve_large",
    # 91 coded sub-problems, split count 78; L = 16 * 78.
    ServePoint("large", 18, 6, 4, 14, 1248),
    blocks_per_unit=5,
    setup_repeats=5,
    trace_units=3,  # 15 blocks: one pass over the C(6,4) responder subsets
)

WORKLOADS = {w.name: w for w in (SweepVerify(), SimulateGrid(), SERVE_LARGE)}
