"""Scheme (de)serialization to a stable JSON form.

Field elements are serialized as decimal strings of their canonical
representatives, and objects are dumped with sorted keys and fixed
separators, so identical schemes produce byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import replace

from . import field as fl
from .assignment import (
    CYCLIC,
    GENERAL_VIRTUAL,
    GROUPED,
    cyclic_assignment,
    general_assignment,
    grouped_assignment,
)
from .builder import (
    GROUPED_REGIME,
    LARGE,
    MIDDLE,
    SMALL,
    DemandMatrix,
    GroupedCode,
    GroupedWorker,
    Scheme,
    SchemeParams,
    VirtualLayout,
    WorkerCode,
    build_large,
)
from .errors import LinsepError, MalformedScheme, ShapeMismatch
from .field import Field, FMatrix, FVector, mat_mul

FORMAT = "linsep-scheme-v1"


def _mat(m: FMatrix) -> list[list[str]]:
    return [[str(x) for x in row] for row in m.to_lists()]


def _unmat(f: Field, rows) -> FMatrix:
    return fl.from_rows(f, [[int(x) for x in row] for row in rows])


def _middle_entry(sub: Scheme) -> dict:
    """Padding rows and worker code rows of a middle (sub-)scheme."""
    g, t = sub.padding_rows, sub.padded.rows
    return {
        "padding": _mat(sub.padded.take_rows(range(t - g, t))) if g else [],
        "workers": [{"id": w.worker, "rows": _mat(w.task_rows)} for w in sub.workers],
    }


def scheme_to_dict(scheme: Scheme) -> dict:
    p = scheme.params
    out: dict = {
        "format": FORMAT,
        "regime": scheme.regime,
        "params": {
            "K": p.K, "N": p.N, "N_r": p.N_r, "K_c": p.K_c,
            "q": str(p.q), "L": p.L,
        },
        "assignment": {
            "kind": scheme.assignment.kind,
            "Z": [list(zn) for zn in scheme.assignment.z],
        },
        "demand": _mat(scheme.demand.matrix),
        "degenerate": scheme.degenerate,
        "padding_rows": scheme.padding_rows,
    }
    if scheme.virtual is not None:
        out["virtual"] = {
            "effective_k": scheme.virtual.effective_k,
            "slots": list(scheme.virtual.slot_of_dataset),
            "effective_demand": _mat(scheme.virtual.effective_demand),
        }
    if scheme.recombine is not None:
        out["recombine"] = _mat(scheme.recombine)
    if scheme.regime == MIDDLE:
        out.update(_middle_entry(scheme))
    elif scheme.regime == SMALL:
        out["workers"] = []
        out["subproblems"] = [
            {"index": j + 1, **_middle_entry(sub)}
            for j, sub in enumerate(scheme.subschemes)
        ]
    elif scheme.regime == LARGE:
        if scheme.mds.code_length > 10_000:
            raise ShapeMismatch(
                "scheme too large to serialize: "
                f"{scheme.mds.code_length} coded sub-problems"
            )
        out["workers"] = []
        out["mds"] = {
            "split_count": scheme.mds.split_count,
            "code_length": scheme.mds.code_length,
        }
    elif scheme.regime == GROUPED_REGIME:
        code = scheme.grouped
        out["workers"] = [
            {
                "id": w.worker,
                "rows": _mat(w.rows),
                "tags": [list(t) for t in w.pair_tags],
                "relation": [str(c) for c in w.relation],
            }
            for w in code.workers
        ]
        out["grouped"] = {
            "tags": [list(t) for t in code.tags],
            "null_vectors": [[str(x) for x in v.to_list()] for v in code.null_vectors],
            "combined": _mat(code.combined_rows),
        }
    return out


def dumps(scheme: Scheme) -> str:
    return json.dumps(scheme_to_dict(scheme), sort_keys=True, separators=(",", ":")) + "\n"


def _rebuild_assignment(d: dict, params: SchemeParams):
    kind = d["assignment"]["kind"]
    if kind == CYCLIC:
        a = cyclic_assignment(params.K, params.N, params.N_r)
    elif kind == GENERAL_VIRTUAL:
        a = general_assignment(params.K, params.N, params.N_r)
    elif kind == GROUPED:
        a = grouped_assignment(params.K, params.N, params.N_r)
    else:
        raise ShapeMismatch(f"unknown assignment kind {kind!r}")
    stored = tuple(tuple(zn) for zn in d["assignment"]["Z"])
    if stored != a.z:
        raise ShapeMismatch("stored assignment disagrees with its parameters")
    return a


def _middle_from_entry(f: Field, entry: dict, demand: FMatrix):
    """Padded demand and worker codes stored by ``_middle_entry``."""
    padding = entry.get("padding")
    padded = fl.row_stack([demand, _unmat(f, padding)]) if padding else demand
    workers = []
    for e in entry["workers"]:
        task = _unmat(f, e["rows"])
        workers.append(WorkerCode(e["id"], task, mat_mul(task, padded)))
    return padded, tuple(workers)


def scheme_from_dict(d: dict) -> Scheme:
    if d.get("format") != FORMAT:
        raise ShapeMismatch(f"unknown scheme format {d.get('format')!r}")
    pd = d["params"]
    f = Field(int(pd["q"]))
    params = SchemeParams(
        K=pd["K"], N=pd["N"], N_r=pd["N_r"], K_c=pd["K_c"], q=f.q, L=pd["L"]
    )
    a = _rebuild_assignment(d, params)
    demand = DemandMatrix(_unmat(f, d["demand"]))

    working_demand = demand.matrix
    working_assignment = a
    recombine = _unmat(f, d["recombine"]) if "recombine" in d else None
    common = dict(params=params, assignment=a, demand=demand, recombine=recombine)
    if "virtual" in d:
        eff = _unmat(f, d["virtual"]["effective_demand"])
        eff_assignment = cyclic_assignment(
            d["virtual"]["effective_k"], params.N, params.N_r
        )
        common["virtual"] = VirtualLayout(
            effective_k=d["virtual"]["effective_k"],
            slot_of_dataset=tuple(d["virtual"]["slots"]),
            effective_demand=eff,
            effective_assignment=eff_assignment,
        )
        working_demand = eff
        working_assignment = eff_assignment

    regime = d["regime"]
    if regime == MIDDLE:
        padded, workers = _middle_from_entry(f, d, working_demand)
        return Scheme(
            regime=MIDDLE,
            padded=padded,
            padding_rows=d["padding_rows"],
            workers=workers,
            degenerate=d["degenerate"],
            **common,
        )
    if regime == SMALL:
        n = params.N
        ones = DemandMatrix(fl.from_rows(f, [[1] * n]))
        sub_assignment = cyclic_assignment(n, n, params.N_r)
        subschemes = []
        aggregators = []
        from .builder import _aggregator  # deterministic from the demand

        eff_demand_obj = DemandMatrix(working_demand)
        for entry in d["subproblems"]:
            padded, workers = _middle_from_entry(f, entry, ones.matrix)
            subschemes.append(
                Scheme(
                    regime=MIDDLE,
                    params=SchemeParams(n, n, params.N_r, 1, f.q),
                    assignment=sub_assignment,
                    demand=ones,
                    padded=padded,
                    padding_rows=padded.rows - 1,
                    workers=workers,
                )
            )
            aggregators.append(_aggregator(eff_demand_obj, entry["index"], n))
        return Scheme(
            regime=SMALL,
            subschemes=tuple(subschemes),
            aggregators=tuple(aggregators),
            degenerate=d["degenerate"],
            **common,
        )
    if regime == LARGE:
        # The large construction has no random inputs: rebuild it outright.
        built = build_large(DemandMatrix(working_demand), working_assignment, params.L)
        return replace(built, **common)
    if regime == GROUPED_REGIME:
        workers = tuple(
            GroupedWorker(
                worker=e["id"],
                pair_tags=tuple(tuple(t) for t in e["tags"]),
                rows=_unmat(f, e["rows"]),
                relation=tuple(int(c) for c in e["relation"]),
            )
            for e in d["workers"]
        )
        code = GroupedCode(
            tags=tuple(tuple(t) for t in d["grouped"]["tags"]),
            null_vectors=tuple(
                FVector(f, [int(x) for x in v]) for v in d["grouped"]["null_vectors"]
            ),
            combined_rows=_unmat(f, d["grouped"]["combined"]),
            workers=workers,
        )
        return Scheme(regime=GROUPED_REGIME, grouped=code, **common)
    raise ShapeMismatch(f"unknown regime {regime!r}")


def loads(text: str | bytes) -> Scheme:
    """Load a scheme file; any defect in it raises MalformedScheme."""
    try:
        return scheme_from_dict(json.loads(text))
    except (
        LinsepError, ValueError, KeyError, IndexError, TypeError, AttributeError,
        ArithmeticError,
    ) as exc:
        raise MalformedScheme(str(exc)) from exc
