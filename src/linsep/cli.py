"""Command-line front end.

Subcommands: ``plan`` (cost table for one parameter point), ``build`` (write
a scheme as JSON), ``verify`` (decodability check of a built or loaded
scheme), ``simulate`` (end-to-end trials over a parameter grid, CSV out),
and ``bounds`` (closed-form cost table over a grid, CSV out).

Exit codes: 0 success, 1 verification failure, 2 usage error (including a
bad flag value), 3 I/O error (including a malformed scheme file).
Every run prints its effective seed on stderr, and every output is a pure
function of the flags and that seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import bounds as bd
from . import serialize
from .assignment import cyclic_assignment, general_assignment, grouped_assignment
from .builder import (
    DemandMatrix,
    Scheme,
    build_cyclic_family,
    build_general,
    build_grouped,
    random_demand,
)
from .codec import verify_decodability
from .errors import LinsepError, MalformedScheme
from .field import DEFAULT_MODULUS, Field, derive_seed, from_rows
from .harness import SWEEP_COLUMNS, GridPoint, sweep

USAGE_ERROR, VERIFY_FAIL, IO_ERROR = 2, 1, 3


def _add_point_flags(p: argparse.ArgumentParser, lists: bool = False) -> None:
    conv = (lambda s: [int(x) for x in s.split(",")]) if lists else int
    p.add_argument("-K", type=conv, required=True, help="dataset count")
    p.add_argument("-N", type=conv, required=True, help="worker count")
    p.add_argument("--nr", type=conv, required=True, help="recovery threshold")
    p.add_argument("--kc", type=conv, required=True, help="requested combinations")


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("-L", type=int, default=None, help="symbols per message")
    p.add_argument("-q", type=int, default=DEFAULT_MODULUS, help="field modulus")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--demand-file", default=None, help="JSON demand matrix")
    p.add_argument(
        "--assignment",
        choices=["auto", "cyclic", "general", "grouped"],
        default="auto",
    )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="linsep",
        description="Straggler-tolerant coding schemes for distributed "
        "linear-combination recovery",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="cost bounds and storage for one point")
    _add_point_flags(p_plan)

    p_build = sub.add_parser("build", help="construct a scheme and write JSON")
    _add_point_flags(p_build)
    _add_common_flags(p_build)
    p_build.add_argument("--out", required=True, help="output path")

    p_verify = sub.add_parser("verify", help="check decodability of a scheme")
    p_verify.add_argument("--scheme", default=None, help="scheme JSON path")
    p_verify.add_argument("-K", type=int)
    p_verify.add_argument("-N", type=int)
    p_verify.add_argument("--nr", type=int)
    p_verify.add_argument("--kc", type=int)
    _add_common_flags(p_verify)
    p_verify.add_argument(
        "--mode", default="exhaustive", help="exhaustive or sample:<count>"
    )

    p_sim = sub.add_parser("simulate", help="end-to-end trials over a grid")
    _add_point_flags(p_sim, lists=True)
    _add_common_flags(p_sim)
    p_sim.add_argument("--trials", type=int, default=50)
    p_sim.add_argument("--out", default=None, help="CSV path (default stdout)")
    p_sim.add_argument(
        "--trial-log", default=None, help="write one JSON line per trial here"
    )

    p_bounds = sub.add_parser("bounds", help="closed-form cost table over a grid")
    _add_point_flags(p_bounds, lists=True)
    p_bounds.add_argument("--out", default=None, help="CSV path (default stdout)")

    return ap


def _load_demand(path: str, f: Field) -> DemandMatrix:
    with open(path) as fh:
        raw = json.load(fh)
    if "q" in raw and int(raw["q"]) != f.q:
        raise LinsepError(f"demand file modulus {raw['q']} != requested {f.q}")
    rows = [[int(x) for x in row] for row in raw["rows"]]
    return DemandMatrix(from_rows(f, rows))


def _build_scheme(args, f: Field, seed: int) -> Scheme:
    if args.demand_file:
        demand = _load_demand(args.demand_file, f)
        if demand.k != args.K or demand.k_c != args.kc:
            raise LinsepError(
                f"demand file is {demand.k_c}x{demand.k}, flags say {args.kc}x{args.K}"
            )
    else:
        demand = random_demand(args.kc, args.K, f, derive_seed(seed, "demand"))
    if args.assignment == "grouped":
        return build_grouped(demand, grouped_assignment(args.K, args.N, args.nr))
    # "auto" places on the general assignment, which is the cyclic one when N
    # divides K; "cyclic" and "general" each refuse the other's parameters.
    place = cyclic_assignment if args.assignment == "cyclic" else general_assignment
    build = build_general if args.assignment == "general" else build_cyclic_family
    return build(
        demand,
        place(args.K, args.N, args.nr),
        l_symbols=args.L,
        padding_seed=derive_seed(seed, "padding"),
        virtual_seed=derive_seed(seed, "virtual"),
    )


def cmd_plan(args) -> int:
    p = bd.Params(K=args.K, N=args.N, N_r=args.nr, K_c=args.kc)
    verdict = bd.optimality_class(p)
    m_min, m_1 = bd.computation_costs(p)
    print(f"K={p.K} N={p.N} N_r={p.N_r} K_c={p.K_c}")
    print(f"converse:   {verdict.converse}")
    print(f"achievable: {verdict.achievable}")
    print(f"status:     {verdict.status}")
    print(f"storage:    M_min={m_min} M_1={m_1}")
    if m_1 > m_min:
        print("note: cyclic-friendly storage M_1 exceeds the minimum M_min")
    return 0


def cmd_build(args, seed: int) -> int:
    f = Field(args.q)
    scheme = _build_scheme(args, f, seed)
    text = serialize.dumps(scheme)
    try:
        with open(args.out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return IO_ERROR
    print(f"regime: {scheme.regime}")
    print(f"workers: {scheme.params.N} x {scheme.rows_sent} rows")
    print(f"wrote {args.out}")
    return 0


def _parse_mode(mode: str) -> tuple[str, int | None]:
    if mode == "exhaustive":
        return "exhaustive", None
    if mode.startswith("sample:"):
        try:
            return "sample", int(mode.split(":", 1)[1])
        except ValueError:
            pass
    raise LinsepError(f"unknown mode {mode!r} (use exhaustive or sample:<count>)")


def cmd_verify(args, seed: int) -> int:
    mode, count = _parse_mode(args.mode)
    if args.scheme:
        try:
            with open(args.scheme, "rb") as fh:
                text = fh.read()
        except OSError as exc:
            print(f"error: cannot read {args.scheme}: {exc}", file=sys.stderr)
            return IO_ERROR
        try:
            scheme = serialize.loads(text)
        except MalformedScheme as exc:
            print(f"error: malformed scheme file: {exc}", file=sys.stderr)
            return IO_ERROR
    else:
        if None in (args.K, args.N, args.nr, args.kc):
            print("error: verify needs --scheme or -K/-N/--nr/--kc", file=sys.stderr)
            return USAGE_ERROR
        scheme = _build_scheme(args, Field(args.q), seed)
    failures = verify_decodability(
        scheme, mode=mode, sample_count=count, seed=derive_seed(seed, "verify")
    )
    if failures:
        for sub in failures:
            print(f"FAIL subset={{{','.join(map(str, sub))}}} seed={seed}")
        print(f"{len(failures)} failing responder subset(s)")
        return VERIFY_FAIL
    print("all tested responder subsets decodable")
    return 0


def _write_csv(rows: list[dict], columns, out_path: str | None) -> int:
    def emit(fh):
        writer = csv.DictWriter(fh, fieldnames=list(columns), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)

    if out_path:
        try:
            with open(out_path, "w", newline="") as fh:
                emit(fh)
        except OSError as exc:
            print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
            return IO_ERROR
    else:
        emit(sys.stdout)
    return 0


def _grid_points(args) -> list[GridPoint]:
    """Every valid (K, N, N_r, K_c) of the flag lists, as simulate points."""
    kind = "grouped" if getattr(args, "assignment", None) == "grouped" else "auto"
    return [
        GridPoint(k=k, n=n, n_r=n_r, k_c=k_c, scheme_kind=kind, l=getattr(args, "L", None))
        for k in args.K
        for n in args.N
        for n_r in args.nr
        for k_c in args.kc
        if 1 <= n_r <= n and 1 <= k_c <= k
    ]


def cmd_simulate(args, seed: int) -> int:
    points = _grid_points(args)
    log_fh = None
    if args.trial_log:
        try:
            log_fh = open(args.trial_log, "w")
        except OSError as exc:
            print(f"error: cannot write {args.trial_log}: {exc}", file=sys.stderr)
            return IO_ERROR
    try:
        demand = None
        if args.demand_file:
            if len(points) != 1:
                raise LinsepError("--demand-file needs a single-point grid")
            demand = _load_demand(args.demand_file, Field(args.q))
        on_trial = (lambda r: log_fh.write(r.to_json() + "\n")) if log_fh else None
        rows = sweep(points, args.trials, seed, on_trial, q=args.q, demand=demand)
    finally:
        if log_fh:
            log_fh.close()
    code = _write_csv(rows, SWEEP_COLUMNS, args.out)
    if code:
        return code
    total_failures = sum(int(r["failures"]) for r in rows)
    print(f"total failures: {total_failures}", file=sys.stderr)
    return 0


def cmd_bounds(args) -> int:
    rows = []
    for pt in _grid_points(args):
        v = bd.optimality_class(bd.Params(K=pt.k, N=pt.n, N_r=pt.n_r, K_c=pt.k_c))
        rows.append({
            "K": pt.k, "N": pt.n, "N_r": pt.n_r, "K_c": pt.k_c,
            "converse": v.converse, "achievable": v.achievable, "status": v.status,
        })
    return _write_csv(
        rows, ("K", "N", "N_r", "K_c", "converse", "achievable", "status"), args.out
    )


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    seed = getattr(args, "seed", 0)
    print(f"effective seed: {seed}", file=sys.stderr)
    try:
        if args.command == "plan":
            return cmd_plan(args)
        if args.command == "build":
            return cmd_build(args, seed)
        if args.command == "verify":
            return cmd_verify(args, seed)
        if args.command == "simulate":
            return cmd_simulate(args, seed)
        if args.command == "bounds":
            return cmd_bounds(args)
        return USAGE_ERROR
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return IO_ERROR
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON: {exc}", file=sys.stderr)
        return IO_ERROR
    except LinsepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
