"""Scheme (de)serialization to a stable JSON form.

Field elements are serialized as decimal strings of their canonical
representatives, and objects are dumped with sorted keys and fixed
separators, so identical schemes produce byte-identical files.  A middle
sub-problem's entry is a slice of the scheme's arrays: its padding rows from
``Scheme.padded`` and each worker's code rows from ``Scheme.code``.  Loading
re-runs the construction on the random inputs a file stores, so the builder
is the only code that assembles a scheme.  A large-regime file written when
that regime coded over all C(K_c, t) subsets of the demand rows loads as the
scheme the builder makes today, on the cyclic windows.
"""

from __future__ import annotations

import json
from dataclasses import replace
from math import comb

import numpy as np

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
    Scheme,
    _Draws,
    build_scheme,
    grouped_tags,
)
from .errors import LinsepError, MalformedScheme, ShapeMismatch
from .field import Field, FMatrix

FORMAT = "linsep-scheme-v1"
MAX_CODE_LENGTH = 10_000  # coded sub-problems a large scheme file may have


def _mat(a: np.ndarray) -> list[list[str]]:
    return [[str(x) for x in row] for row in a.tolist()]


def _unmat(f: Field, rows) -> FMatrix:
    return fl.from_rows(f, [[int(x) for x in row] for row in rows])


def _middle_entry(scheme: Scheme, s: int) -> dict:
    """Padding rows and worker code rows of middle sub-problem s."""
    g, t = scheme.padding_rows, scheme.padded.shape[1]
    return {
        "padding": _mat(scheme.padded[s, t - g :]) if g else [],
        "workers": [
            {"id": n, "rows": _mat(rows)} for n, rows in enumerate(scheme.code[s], 1)
        ],
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
        "demand": _mat(scheme.demand.matrix.array),
        "degenerate": scheme.degenerate,
        "padding_rows": scheme.padding_rows,
    }
    if scheme.effective_demand is not None:
        out["virtual"] = {
            "effective_k": scheme.assignment.effective_k,
            "slots": list(scheme.assignment.slot_of_dataset),
            "effective_demand": _mat(scheme.effective_demand.array),
        }
    if scheme.recombine is not None:
        out["recombine"] = _mat(scheme.recombine.array)
    if scheme.regime == MIDDLE:
        out.update(_middle_entry(scheme, 0))
    elif scheme.regime == SMALL:
        out["padding_rows"] = 0  # v1 keeps a small scheme's padding per sub-problem
        out["workers"] = []
        out["subproblems"] = [
            {"index": j + 1, **_middle_entry(scheme, j)}
            for j in range(len(scheme.code))
        ]
    elif scheme.regime == LARGE:
        if scheme.mds.code_length > MAX_CODE_LENGTH:
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
                "id": n,
                "rows": _mat(rows),
                "tags": [list(t) for t in grouped_tags(p.N, n)],
                "relation": [str(c) for c in relation],
            }
            for n, (rows, relation) in enumerate(zip(code.rows, code.relations.tolist()), 1)
        ]
        out["grouped"] = {
            "tags": [list(t) for t in grouped_tags(p.N)],
            "null_vectors": _mat(code.null_vectors),
            "combined": _mat(code.combined),
        }
    return out


def _canonical(d: dict) -> str:
    return json.dumps(d, sort_keys=True, separators=(",", ":")) + "\n"


def dumps(scheme: Scheme) -> str:
    return _canonical(scheme_to_dict(scheme))


_PLACEMENTS = {
    CYCLIC: cyclic_assignment,
    GENERAL_VIRTUAL: general_assignment,
    GROUPED: grouped_assignment,
}


def _rebuild_assignment(d: dict):
    kind = d["assignment"]["kind"]
    if kind not in _PLACEMENTS:
        raise ShapeMismatch(f"unknown assignment kind {kind!r}")
    pd = d["params"]
    # The placement's cost grows with K and N: bound them by the file first.
    if len(d["assignment"]["Z"]) != pd["N"] or not d["demand"] or any(
        len(row) != pd["K"] for row in d["demand"]
    ):
        raise ShapeMismatch("K or N disagrees with the stored demand or assignment")
    a = _PLACEMENTS[kind](pd["K"], pd["N"], pd["N_r"])
    stored = tuple(tuple(zn) for zn in d["assignment"]["Z"])
    if stored != a.z:
        raise ShapeMismatch("stored assignment disagrees with its parameters")
    return a


def _complete_design_dump(scheme: Scheme) -> str | None:
    """The file of a large scheme as written when it coded over every t-subset.

    At K_c >= t + 2 such a file differs from the cyclic-window dump only in
    its ``mds`` entry; its L is a multiple of C(K_c - 1, t - 1), which the
    windows' split count t/gcd(K_c, t) divides.  None where that writer could
    not have written the scheme: it needed fewer than q coded symbols, and
    at most ``MAX_CODE_LENGTH``.
    """
    if scheme.regime != LARGE:
        return None
    p, t = scheme.params, scheme.padded.shape[1]
    if p.K_c < t + 2:
        return None
    length, split = comb(p.K_c, t), comb(p.K_c - 1, t - 1)
    if p.L % split or length >= p.q or length > MAX_CODE_LENGTH:
        return None
    d = scheme_to_dict(scheme)
    d["mds"] = {"code_length": length, "split_count": split}
    return _canonical(d)


def scheme_from_dict(d: dict) -> Scheme:
    """Rebuild a scheme by re-running the construction on the stored draws.

    The file's random inputs, the padding rows of each middle sub-problem
    and the effective demand's virtual-slot columns, go back into
    ``build_scheme``, which recomputes every derived row.  A file that is
    not exactly, byte for byte after canonical re-dumping, the dump of the
    scheme it rebuilds is malformed; a large file coded over the complete
    design may differ from it in its ``mds`` entry alone, and loads as the
    cyclic-window scheme.
    """
    if d.get("format") != FORMAT:
        raise ShapeMismatch(f"unknown scheme format {d.get('format')!r}")
    f = Field(int(d["params"]["q"]))
    a = _rebuild_assignment(d)
    # v1 keeps a small scheme's padding per sub-problem, any other at the top.
    entries = enumerate(d["subproblems"], 1) if d["regime"] == SMALL else [(0, d)]
    draws = _Draws(
        stored_padding={
            j: _unmat(f, e["padding"]) if e.get("padding") else None
            for j, e in entries
        },
        stored_effective=(
            _unmat(f, d["virtual"]["effective_demand"]) if "virtual" in d else None
        ),
    )
    scheme = build_scheme(
        DemandMatrix(_unmat(f, d["demand"])), a, l_symbols=d["params"]["L"], _draws=draws
    )
    if "recombine" in d:
        # The demand is recombine times the K_c rows decoded, of full row rank.
        recombine = _unmat(f, d["recombine"])
        if recombine.cols != scheme.params.K_c or fl.rank(recombine) < recombine.rows:
            raise MalformedScheme(
                f"recombine must have full row rank on the {scheme.params.K_c} decoded rows"
            )
        scheme = replace(scheme, recombine=recombine)
    text = _canonical(d)
    if text != dumps(scheme) and text != _complete_design_dump(scheme):
        raise MalformedScheme("file is not the scheme its demand and draws build")
    return scheme


def loads(text: str | bytes) -> Scheme:
    """Load a scheme file; any defect in it, too deep a nesting included,
    raises MalformedScheme."""
    try:
        return scheme_from_dict(json.loads(text))
    except (
        LinsepError, ValueError, KeyError, IndexError, TypeError, AttributeError,
        ArithmeticError, RecursionError,
    ) as exc:
        raise MalformedScheme(str(exc)) from exc
