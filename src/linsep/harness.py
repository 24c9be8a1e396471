"""End-to-end experiment runner.

A trial builds the assignment and scheme for one parameter point, draws
uniform messages, omits stragglers subset by subset, decodes, and audits
both correctness (against a direct demand-times-messages product computed
without any scheme machinery) and the measured communication cost (against
the closed-form value).  Everything is replayable from the recorded seeds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from . import bounds
from .assignment import cyclic_assignment, grouped_assignment
from .builder import (
    DemandMatrix,
    Scheme,
    build_auto,
    build_grouped,
    expected_cost,
    random_demand,
)
from .codec import (
    MessageBlock,
    decode,
    encode_worker,
    random_messages,
    responder_subsets,
)
from .errors import ShapeMismatch
from .field import DEFAULT_MODULUS, Field, derive_seed, mat_mul

AUTO, GROUPED_KIND, FALLBACK = "auto", "grouped", "fallback"


@dataclass(frozen=True)
class TrialConfig:
    k: int
    n: int
    n_r: int
    k_c: int
    l: int | None = None  # None: smallest length the scheme supports
    q: int = DEFAULT_MODULUS
    scheme_kind: str = AUTO  # auto | grouped | fallback
    straggler_mode: str = "exhaustive"  # exhaustive | fixed | random
    fixed_set: tuple[int, ...] = ()
    random_count: int = 0
    demand_seed: int = 0
    message_seed: int = 0
    padding_seed: int = 0

    def to_dict(self) -> dict:
        return {
            "k": self.k, "n": self.n, "n_r": self.n_r, "k_c": self.k_c,
            "l": self.l, "q": self.q, "scheme_kind": self.scheme_kind,
            "straggler_mode": self.straggler_mode,
            "fixed_set": list(self.fixed_set), "random_count": self.random_count,
            "demand_seed": self.demand_seed, "message_seed": self.message_seed,
            "padding_seed": self.padding_seed,
        }

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
        payload = {
            "config": self.config.to_dict(),
            "regime": self.regime,
            "subsets": [list(s) for s in self.subsets],
            "successes": list(self.successes),
            "matches": list(self.matches),
            "measured_cost": [self.measured_cost.numerator, self.measured_cost.denominator],
            "formula_cost": self.formula_cost,
            "cost_match": self.cost_match,
            "failure_seeds": list(self.failure_seeds),
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _build_for(cfg: TrialConfig, demand: DemandMatrix) -> Scheme:
    if cfg.scheme_kind == AUTO:
        return build_auto(
            demand, cfg.n, cfg.n_r,
            l_symbols=cfg.l,
            padding_seed=cfg.padding_seed,
            virtual_seed=derive_seed(cfg.padding_seed, "virtual"),
        )
    if cfg.scheme_kind == GROUPED_KIND:
        return build_grouped(demand, grouped_assignment(cfg.k, cfg.n, cfg.n_r))
    if cfg.scheme_kind == FALLBACK:
        from .codec import fallback_full_recovery

        return fallback_full_recovery(
            demand, cyclic_assignment(cfg.k, cfg.n, cfg.n_r), cfg.l,
            seed=derive_seed(cfg.padding_seed, "fallback"),
        )
    raise ShapeMismatch(f"unknown scheme kind {cfg.scheme_kind!r}")


def _message_length(cfg: TrialConfig, scheme: Scheme) -> int:
    if cfg.l is not None:
        return cfg.l
    return scheme.params.L or 1


def _formula_cost(cfg: TrialConfig) -> int:
    if cfg.scheme_kind == FALLBACK:
        return cfg.k
    if cfg.scheme_kind == GROUPED_KIND:
        return 2 * cfg.n_r
    p = bounds.Params(K=cfg.k, N=cfg.n, N_r=cfg.n_r, K_c=cfg.k_c)
    return bounds.achievable_cost_general(p)


def _subsets_for(cfg: TrialConfig) -> list[tuple[int, ...]]:
    if cfg.straggler_mode == "exhaustive":
        return responder_subsets(cfg.n, cfg.n_r, "exhaustive")
    if cfg.straggler_mode == "fixed":
        if len(set(cfg.fixed_set)) != cfg.n_r:
            raise ShapeMismatch("fixed responder set must have N_r distinct workers")
        return [tuple(sorted(cfg.fixed_set))]
    if cfg.straggler_mode == "random":
        return responder_subsets(
            cfg.n, cfg.n_r, "sample",
            sample_count=cfg.random_count or 1,
            seed=derive_seed(cfg.message_seed, "stragglers"),
        )
    raise ShapeMismatch(f"unknown straggler mode {cfg.straggler_mode!r}")


def run_trial(cfg: TrialConfig, demand: DemandMatrix | None = None,
              messages: MessageBlock | None = None) -> TrialResult:
    """Build, encode, decode, and audit one parameter point.

    ``demand`` and ``messages`` override the seeded draws (used to replay
    fixed instances); everything else is a pure function of the config.
    """
    f = Field(cfg.q)
    if demand is None:
        demand = random_demand(cfg.k_c, cfg.k, f, derive_seed(cfg.demand_seed, "demand"))
    if demand.k_c != cfg.k_c or demand.k != cfg.k:
        raise ShapeMismatch("supplied demand disagrees with the config")
    scheme = _build_for(cfg, demand)
    l = _message_length(cfg, scheme)
    if messages is None:
        messages = random_messages(cfg.k, l, f, derive_seed(cfg.message_seed, "messages"))
    oracle = mat_mul(demand.matrix, messages.w)  # direct product, no scheme code

    subsets = _subsets_for(cfg)
    successes, matches, failure_seeds = [], [], []
    worst = Fraction(0)
    for a_set in subsets:
        answers = [encode_worker(scheme, n, messages) for n in a_set]
        report = decode(scheme, answers)
        successes.append(report.success)
        ok = bool(report.success and report.recovered == oracle)
        matches.append(ok)
        worst = max(worst, report.cost)
        if not ok:
            failure_seeds.append({"subset": list(a_set), **cfg.to_dict()})
    formula = _formula_cost(cfg)
    # The built scheme's own target cost must agree with the closed form;
    # a mismatch here is a construction bug, not a probabilistic event.
    assert expected_cost(scheme) == formula, (scheme.regime, formula)
    return TrialResult(
        config=cfg,
        regime=scheme.regime,
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
        regime = ""
        for trial in range(trials_per_point):
            base = derive_seed(seed, pt.k, pt.n, pt.n_r, pt.k_c, pt.scheme_kind, trial)
            cfg = TrialConfig.seeded(
                base, k=pt.k, n=pt.n, n_r=pt.n_r, k_c=pt.k_c, l=pt.l, q=q,
                scheme_kind=pt.scheme_kind,
            )
            result = run_trial(cfg, demand=demand)
            if on_trial is not None:
                on_trial(result)
            regime = result.regime
            measured = max(measured, result.measured_cost)
            if not result.all_ok:
                failures += 1
        p = bounds.Params(K=pt.k, N=pt.n, N_r=pt.n_r, K_c=pt.k_c)
        verdict = bounds.optimality_class(p)
        formula = _formula_cost(
            TrialConfig(k=pt.k, n=pt.n, n_r=pt.n_r, k_c=pt.k_c, scheme_kind=pt.scheme_kind)
        )
        table.append({
            "K": pt.k, "N": pt.n, "N_r": pt.n_r, "K_c": pt.k_c,
            "regime": regime, "trials": trials_per_point, "failures": failures,
            "measured_cost": str(measured),
            "formula_cost": formula, "converse": verdict.converse, "status": verdict.status,
            "seed": seed,
        })
    return table


def kc_for_free_check(n: int, n_r: int, trials: int, seed: int) -> dict:
    """Verify the flat-cost window when K = N.

    For every demand size up to N_r the measured cost should sit at N_r
    (extra combinations cost nothing); at N_r + 1 it should jump to K_c.
    """
    costs = {}
    ok = True
    upper = min(n_r + 1, n)
    for k_c in range(1, upper + 1):
        worst = Fraction(0)
        for trial in range(trials):
            base = derive_seed(seed, "free", k_c, trial)
            result = run_trial(TrialConfig.seeded(base, k=n, n=n, n_r=n_r, k_c=k_c))
            ok = ok and result.all_ok
            worst = max(worst, result.measured_cost)
        costs[k_c] = worst
        expected = n_r if k_c <= n_r else k_c
        ok = ok and worst == expected
    return {"N": n, "N_r": n_r, "costs": costs, "ok": ok}
