"""End-to-end experiment runner.

A trial builds the assignment and scheme for one parameter point, draws
uniform messages, decodes from every responder subset of N_r workers, and
audits both correctness (against a direct demand-times-messages product
computed without any scheme machinery) and the measured communication cost
(against the closed-form value).  Everything is replayable from the recorded
seeds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from . import bounds
from .assignment import general_assignment, grouped_assignment
from .builder import (
    DemandMatrix,
    Scheme,
    build_scheme,
    expected_cost,
    random_demand,
)
from .codec import DecodeReport, decode_subsets, encode_worker, random_messages, responder_subsets
from .errors import BadMessageLength, BadModulus, GroupedSolveFailed, ShapeMismatch
from .field import DEFAULT_MODULUS, Field, derive_seed, mat_mul

AUTO, GROUPED_KIND = "auto", "grouped"


@dataclass(frozen=True)
class TrialConfig:
    k: int
    n: int
    n_r: int
    k_c: int
    l: int | None = None  # None: smallest length the scheme supports
    q: int = DEFAULT_MODULUS
    scheme_kind: str = AUTO  # auto | grouped
    demand_seed: int = 0
    message_seed: int = 0
    padding_seed: int = 0

    def to_dict(self) -> dict:
        # Every trial tests every responder subset; the constant straggler
        # keys keep trial logs byte-identical to those of earlier versions.
        constant = {"straggler_mode": "exhaustive", "fixed_set": [], "random_count": 0}
        return {**vars(self), **constant}

    @classmethod
    def seeded(cls, base: int, **point) -> "TrialConfig":
        """Config whose demand, message and padding seeds derive from ``base``."""
        return cls(
            **point,
            demand_seed=derive_seed(base, "demand"),
            message_seed=derive_seed(base, "messages"),
            padding_seed=derive_seed(base, "padding"),
        )


@dataclass(frozen=True)
class TrialResult:
    config: TrialConfig
    regime: str
    subsets: tuple[tuple[int, ...], ...]
    successes: tuple[bool, ...]
    matches: tuple[bool, ...]  # recovered == direct product, per subset
    measured_cost: Fraction  # max over tested subsets
    formula_cost: int
    cost_match: bool
    failure_seeds: tuple[dict, ...] = dc_field(default=())

    @property
    def all_ok(self) -> bool:
        return all(self.successes) and all(self.matches) and self.cost_match

    def to_json(self) -> str:
        # Tuples dump as JSON lists; the cost as [numerator, denominator].
        cost = self.measured_cost
        payload = {
            **vars(self),
            "config": self.config.to_dict(),
            "measured_cost": [cost.numerator, cost.denominator],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


_PLACEMENTS = {AUTO: general_assignment, GROUPED_KIND: grouped_assignment}


def _build_for(cfg: TrialConfig, demand: DemandMatrix) -> Scheme:
    if cfg.scheme_kind not in _PLACEMENTS:
        raise ShapeMismatch(f"unknown scheme kind {cfg.scheme_kind!r}")
    return build_scheme(
        demand, _PLACEMENTS[cfg.scheme_kind](cfg.k, cfg.n, cfg.n_r),
        l_symbols=cfg.l,
        padding_seed=cfg.padding_seed,
        virtual_seed=derive_seed(cfg.padding_seed, "virtual"),
    )


def _message_length(cfg: TrialConfig, scheme: Scheme) -> int:
    if cfg.l is not None:
        return cfg.l
    return scheme.params.L or 1


def _formula_cost(cfg: TrialConfig) -> int:
    if cfg.scheme_kind == GROUPED_KIND:
        return 2 * cfg.n_r
    p = bounds.Params(K=cfg.k, N=cfg.n, N_r=cfg.n_r, K_c=cfg.k_c)
    return bounds.achievable_cost_general(p)


def run_trial(cfg: TrialConfig, demand: DemandMatrix | None = None) -> TrialResult:
    """Build, encode, decode, and audit one parameter point, from every N_r responders.

    ``demand`` overrides the seeded demand draw (used to replay a fixed
    instance); everything else is a pure function of the config.  A point
    the construction refuses (a grouped demand it cannot serve, or windows
    the config's L or q cannot carry) fails on every subset, at cost 0.
    """
    f = Field(cfg.q)
    if demand is None:
        demand = random_demand(cfg.k_c, cfg.k, f, derive_seed(cfg.demand_seed, "demand"))
    if demand.k_c != cfg.k_c or demand.k != cfg.k:
        raise ShapeMismatch("supplied demand disagrees with the config")
    subsets = responder_subsets(cfg.n, cfg.n_r)
    formula = _formula_cost(cfg)
    try:
        scheme = _build_for(cfg, demand)
    except (GroupedSolveFailed, BadMessageLength, BadModulus) as exc:
        regime, oracle = cfg.scheme_kind, None
        reports = [DecodeReport(a_set, False, None, Fraction(0), str(exc)) for a_set in subsets]
    else:
        # The built scheme's own target cost must agree with the closed form;
        # a mismatch here is a construction bug, not a probabilistic event.
        assert expected_cost(scheme) == formula, (scheme.regime, formula)
        regime = scheme.regime
        l = _message_length(cfg, scheme)
        messages = random_messages(cfg.k, l, f, derive_seed(cfg.message_seed, "messages"))
        oracle = mat_mul(demand.matrix, messages.w)  # direct product, no scheme code
        # A worker's answer does not depend on who else responds: encode it once.
        responders = dict.fromkeys(n for a_set in subsets for n in a_set)
        answers = [encode_worker(scheme, n, messages) for n in responders]
        reports = decode_subsets(scheme, answers, subsets)
    successes, matches, failure_seeds = [], [], []
    worst = Fraction(0)
    for a_set, report in zip(subsets, reports):
        successes.append(report.success)
        ok = bool(report.success and report.recovered == oracle)
        matches.append(ok)
        worst = max(worst, report.cost)
        if not ok:
            failure_seeds.append({"subset": list(a_set), **cfg.to_dict()})
    return TrialResult(
        config=cfg,
        regime=regime,
        subsets=tuple(subsets),
        successes=tuple(successes),
        matches=tuple(matches),
        measured_cost=worst,
        formula_cost=formula,
        cost_match=(worst == formula),
        failure_seeds=tuple(failure_seeds),
    )


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

SWEEP_COLUMNS = (
    "K", "N", "N_r", "K_c", "regime", "trials", "failures",
    "measured_cost", "formula_cost", "converse", "status", "seed",
)


@dataclass(frozen=True)
class GridPoint:
    k: int
    n: int
    n_r: int
    k_c: int
    scheme_kind: str = AUTO
    l: int | None = None


def sweep(grid, trials_per_point: int, seed: int, on_trial=None, *,
          q: int = DEFAULT_MODULUS, demand: DemandMatrix | None = None) -> list[dict]:
    """Run ``trials_per_point`` seeded trials per grid point; deterministic.

    With zero trials the table is empty (header-only when written as CSV).
    ``on_trial`` receives every TrialResult as it completes, in grid-then-
    trial order (used for per-trial logging).  Every trial runs over F_q;
    a given ``demand`` replaces every trial's seeded demand draw.
    """
    table = []
    if trials_per_point <= 0:
        return table
    for pt in grid:
        failures = 0
        measured = Fraction(0)
        for trial in range(trials_per_point):
            base = derive_seed(seed, pt.k, pt.n, pt.n_r, pt.k_c, pt.scheme_kind, trial)
            cfg = TrialConfig.seeded(
                base, k=pt.k, n=pt.n, n_r=pt.n_r, k_c=pt.k_c, l=pt.l, q=q,
                scheme_kind=pt.scheme_kind,
            )
            result = run_trial(cfg, demand=demand)
            if on_trial is not None:
                on_trial(result)
            measured = max(measured, result.measured_cost)
            if not result.all_ok:
                failures += 1
        p = bounds.Params(K=pt.k, N=pt.n, N_r=pt.n_r, K_c=pt.k_c)
        verdict = bounds.optimality_class(p)
        table.append({
            "K": pt.k, "N": pt.n, "N_r": pt.n_r, "K_c": pt.k_c,
            "regime": result.regime, "trials": trials_per_point, "failures": failures,
            "measured_cost": str(measured), "formula_cost": result.formula_cost,
            "converse": verdict.converse, "status": verdict.status,
            "seed": seed,
        })
    return table


def kc_for_free_check(n: int, n_r: int, trials: int, seed: int) -> dict:
    """Verify the flat-cost window when K = N, by a ``sweep`` over K_c.

    For every demand size up to N_r the measured cost should sit at N_r
    (extra combinations cost nothing); at N_r + 1 it should jump to K_c.
    With no trials nothing is verified, and ``ok`` is False.
    """
    grid = [GridPoint(n, n, n_r, k_c) for k_c in range(1, min(n_r + 1, n) + 1)]
    rows = sweep(grid, trials, seed)
    costs = {r["K_c"]: Fraction(r["measured_cost"]) for r in rows}
    ok = trials >= 1 and all(
        r["failures"] == 0 and costs[r["K_c"]] == max(n_r, r["K_c"]) for r in rows
    )
    return {"N": n, "N_r": n_r, "costs": costs, "ok": ok}
