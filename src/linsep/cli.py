"""Command-line front end.

Subcommands: ``plan`` (cost table for one parameter point), ``build`` (write
a scheme as JSON), ``verify`` (decodability check of a built or loaded
scheme), ``simulate`` (end-to-end trials over a parameter grid, CSV out),
and ``bounds`` (closed-form cost table over a grid, CSV out).

Exit codes: 0 success, 1 verification failure, 2 usage error (including a
bad flag value), 3 I/O error (including a malformed scheme or demand file).
Failed trials are results, not errors: ``simulate`` exits 0 once its table
is written, with the failures counted in the CSV and on the ``total
failures:`` line on stderr.
Every run prints its effective seed on stderr, and every output is a pure
function of the flags and that seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys

from . import bounds as bd
from . import serialize
from .assignment import cyclic_assignment, general_assignment, grouped_assignment
from .builder import DemandMatrix, Scheme, build_scheme, random_demand
from .codec import verify_decodability
from .errors import LinsepError, MalformedDemand, MalformedScheme
from .field import DEFAULT_MODULUS, Field, derive_seed, from_rows
from .harness import SWEEP_COLUMNS, GridPoint, sweep

USAGE_ERROR, VERIFY_FAIL, IO_ERROR = 2, 1, 3

# Placement of each --assignment value.  "auto" and "general" agree: the
# general assignment is the cyclic one when N divides K, which "cyclic"
# alone requires.
_PLACEMENTS = {
    "auto": general_assignment,
    "cyclic": cyclic_assignment,
    "general": general_assignment,
    "grouped": grouped_assignment,
}


def _add_point_flags(p: argparse.ArgumentParser, lists: bool = False) -> None:
    conv = (lambda s: [int(x) for x in s.split(",")]) if lists else int
    p.add_argument("-K", type=conv, required=True, help="dataset count")
    p.add_argument("-N", type=conv, required=True, help="worker count")
    p.add_argument("--nr", type=conv, required=True, help="recovery threshold")
    p.add_argument("--kc", type=conv, required=True, help="requested combinations")


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "-L", type=int, default=None,
        help="symbols per message (build/verify: large regime only)",
    )
    p.add_argument("-q", type=int, default=DEFAULT_MODULUS, help="field modulus")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--demand-file", default=None, help="JSON demand matrix")
    p.add_argument(
        "--assignment",
        choices=list(_PLACEMENTS),
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
    p_verify.add_argument(
        "--scheme", default=None, help="scheme JSON path; fixes the point flags"
    )
    p_verify.add_argument("-K", type=int)
    p_verify.add_argument("-N", type=int)
    p_verify.add_argument("--nr", type=int)
    p_verify.add_argument("--kc", type=int)
    _add_common_flags(p_verify)
    p_verify.add_argument(
        "--mode", default="exhaustive", help="exhaustive or sample:<count>"
    )
    p_verify.set_defaults(q=None, assignment=None)  # None: not given

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


def _too_many_digits() -> MalformedDemand:
    return MalformedDemand(f"an integer has more than {sys.get_int_max_str_digits()} digits")


def _integer(x) -> int:
    """A JSON integer or integer string; anything else is malformed."""
    try:
        if isinstance(x, str) or (isinstance(x, int) and not isinstance(x, bool)):
            return int(x)
    except ValueError:
        # An integer literal can fail ``int`` only by passing its digit limit.
        if re.fullmatch(r"\s*[+-]?\d+(_\d+)*\s*", x):
            raise _too_many_digits() from None
    raise MalformedDemand(f"{x!r} is not an integer")


def _load_demand(path: str, f: Field, k_c: int, k: int) -> DemandMatrix:
    """The K_c x K demand of a ``{"q": ..., "rows": [[...], ...]}`` file, entries mod q."""
    with open(path, encoding="utf-8", errors="replace") as fh:
        try:
            raw = json.load(fh)
        except RecursionError:
            raise MalformedDemand("JSON nested too deeply") from None
        except json.JSONDecodeError as exc:
            raise MalformedDemand(str(exc)) from None
        except ValueError:  # json's only other error: an integer past int's digit limit
            raise _too_many_digits() from None
    rows = raw.get("rows") if isinstance(raw, dict) else None
    if not isinstance(rows, list):
        raise MalformedDemand('expected an object with a "rows" list')
    if "q" in raw and _integer(raw["q"]) != f.q:
        raise LinsepError(f"demand file modulus {raw['q']} != requested {f.q}")
    width = len(rows[0]) if rows and isinstance(rows[0], list) else 0
    if not width or not all(isinstance(r, list) and len(r) == width for r in rows):
        raise MalformedDemand("rows must be one or more nonempty lists of one length")
    demand = DemandMatrix(from_rows(f, [[_integer(x) % f.q for x in r] for r in rows]))
    if (demand.k_c, demand.k) != (k_c, k):
        raise LinsepError(f"demand file is {demand.k_c}x{demand.k}, flags say {k_c}x{k}")
    return demand


def _build_scheme(args, f: Field, seed: int) -> Scheme:
    bd.Params(K=args.K, N=args.N, N_r=args.nr, K_c=args.kc)  # raises on a bad point
    if args.demand_file:
        demand = _load_demand(args.demand_file, f, args.kc, args.K)
    else:
        demand = random_demand(args.kc, args.K, f, derive_seed(seed, "demand"))
    scheme = build_scheme(
        demand,
        _PLACEMENTS[args.assignment](args.K, args.N, args.nr),
        l_symbols=args.L,
        padding_seed=derive_seed(seed, "padding"),
        virtual_seed=derive_seed(seed, "virtual"),
    )
    if args.L is not None and scheme.params.L is None:
        raise LinsepError(
            f"-L applies only to schemes that split messages; this one is "
            f"{scheme.regime}"
        )
    return scheme


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
    with open(args.out, "w") as fh:
        fh.write(text)
    print(f"regime: {scheme.regime}")
    print(f"workers: {scheme.params.N} x {scheme.rows_sent} rows")
    print(f"wrote {args.out}")
    return 0


def _parse_mode(mode: str) -> int | None:
    """The sample count of a ``--mode``; None for an exhaustive check."""
    if mode == "exhaustive":
        return None
    if mode.startswith("sample:"):
        try:
            return int(mode.split(":", 1)[1])
        except ValueError:
            pass
    raise LinsepError(f"unknown mode {mode!r} (use exhaustive or sample:<count>)")


# Flags that fix the scheme, by destination; a scheme file fixes them itself.
_SCHEME_FLAGS = {
    "K": "-K", "N": "-N", "nr": "--nr", "kc": "--kc", "L": "-L", "q": "-q",
    "demand_file": "--demand-file", "assignment": "--assignment",
}


def cmd_verify(args, seed: int) -> int:
    count = _parse_mode(args.mode)
    if args.scheme:
        for dest, flag in _SCHEME_FLAGS.items():
            if getattr(args, dest) is not None:
                raise LinsepError(f"{flag} cannot be combined with --scheme")
        with open(args.scheme, "rb") as fh:
            scheme = serialize.loads(fh.read())
    else:
        if None in (args.K, args.N, args.nr, args.kc):
            raise LinsepError("verify needs --scheme or -K/-N/--nr/--kc")
        args.q = DEFAULT_MODULUS if args.q is None else args.q
        args.assignment = args.assignment or "auto"
        scheme = _build_scheme(args, Field(args.q), seed)
    failures = verify_decodability(scheme, count, seed=derive_seed(seed, "verify"))
    if failures:
        for sub in failures:
            print(f"FAIL subset={{{','.join(map(str, sub))}}} seed={seed}")
        print(f"{len(failures)} failing responder subset(s)")
        return VERIFY_FAIL
    print("all tested responder subsets decodable")
    return 0


def _write_csv(rows: list[dict], columns, out_path: str | None) -> None:
    def emit(fh):
        writer = csv.DictWriter(fh, fieldnames=list(columns), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)

    if out_path:
        with open(out_path, "w", newline="") as fh:
            emit(fh)
    else:
        emit(sys.stdout)


def _grid_points(args) -> list[GridPoint]:
    """Every valid (K, N, N_r, K_c) of the flag lists, as simulate points.

    Invalid combinations are skipped; a grid with none left is a usage
    error.  Every placement but the grouped one runs as the auto scheme,
    which is the cyclic one where N divides K; ``--assignment cyclic``
    requires that it does at every point.
    """
    assignment = getattr(args, "assignment", None)
    kind = "grouped" if assignment == "grouped" else "auto"
    length = getattr(args, "L", None)
    if length is not None and length < 1:
        raise LinsepError(f"-L must be at least 1, got {length}")
    points = [
        GridPoint(k=k, n=n, n_r=n_r, k_c=k_c, scheme_kind=kind, l=length)
        for k in args.K
        for n in args.N
        for n_r in args.nr
        for k_c in args.kc
        if 1 <= n_r <= n and 1 <= k_c <= k
    ]
    if not points:
        raise LinsepError("the grid has no point with 1 <= N_r <= N and 1 <= K_c <= K")
    if assignment == "cyclic":
        for pt in points:
            cyclic_assignment(pt.k, pt.n, pt.n_r)  # raises where N does not divide K
    return points


def cmd_simulate(args, seed: int) -> int:
    f = Field(args.q)  # a bad modulus is a usage error even with no trials
    points = _grid_points(args)
    if args.trials < 0:
        raise LinsepError(f"--trials must be at least 0, got {args.trials}")
    demand = None  # loaded and checked before the trial log is truncated
    if args.demand_file:
        if len(points) != 1:
            raise LinsepError("--demand-file needs a single-point grid")
        demand = _load_demand(args.demand_file, f, points[0].k_c, points[0].k)
    log_fh = open(args.trial_log, "w") if args.trial_log else None
    try:
        on_trial = (lambda r: log_fh.write(r.to_json() + "\n")) if log_fh else None
        rows = sweep(points, args.trials, seed, on_trial, q=f.q, demand=demand)
    finally:
        if log_fh:
            log_fh.close()
    _write_csv(rows, SWEEP_COLUMNS, args.out)
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
    _write_csv(rows, ("K", "N", "N_r", "K_c", "converse", "achievable", "status"), args.out)
    return 0


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
        return cmd_bounds(args)  # argparse admits only the five commands
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return IO_ERROR
    except MalformedDemand as exc:
        print(f"error: malformed demand file: {exc}", file=sys.stderr)
        return IO_ERROR
    except MalformedScheme as exc:
        print(f"error: malformed scheme file: {exc}", file=sys.stderr)
        return IO_ERROR
    except LinsepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
