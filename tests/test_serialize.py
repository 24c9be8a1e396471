import dataclasses
import json

import pytest

from linsep import builder as bl
from linsep import codec as cd
from linsep import field as fl
from linsep import serialize as sz
from linsep.assignment import cyclic_assignment, grouped_assignment
from linsep.errors import ShapeMismatch
from test_builder import DEMAND_3x12, DEMAND_4x6

FQ = fl.Field()


def sample_schemes():
    yield "middle", bl.build_middle(
        bl.demand_from_rows(FQ, DEMAND_4x6), cyclic_assignment(6, 3, 2), padding_seed=3
    )
    yield "small", bl.build_small(
        bl.demand_from_rows(FQ, [[1] * 9, list(range(1, 10))]),
        cyclic_assignment(9, 3, 2),
        padding_seed=3,
    )
    yield "large", bl.build_large(
        bl.demand_from_rows(FQ, [[1, 1, 1], [1, 2, 3], [1, 4, 9]]),
        cyclic_assignment(3, 3, 2),
    )
    yield "grouped", bl.build_grouped(
        bl.demand_from_rows(FQ, DEMAND_3x12), grouped_assignment(12, 4, 3)
    )
    yield "general", bl.build_auto(
        bl.random_demand(5, 7, FQ, 42), 3, 2, padding_seed=9, virtual_seed=8
    )
    yield "fallback", cd.fallback_full_recovery(
        bl.demand_from_rows(FQ, [[1, 1, 1], [2, 1, 1]]),
        cyclic_assignment(3, 3, 2),
        2,
        seed=4,
    )


@pytest.mark.parametrize("name,scheme", list(sample_schemes()))
def test_round_trip_is_byte_stable_and_equivalent(name, scheme):
    text = sz.dumps(scheme)
    loaded = sz.loads(text)
    assert sz.dumps(loaded) == text
    # behavioural equivalence: same verification and same decode output
    assert cd.verify_decodability(scheme) == cd.verify_decodability(loaded)
    k = scheme.params.K
    l = scheme.params.L or 2
    w = cd.random_messages(k, l, FQ, 77)
    a_set = tuple(range(1, scheme.params.N_r + 1))
    rep1 = cd.decode(scheme, [cd.encode_worker(scheme, n, w) for n in a_set])
    rep2 = cd.decode(loaded, [cd.encode_worker(loaded, n, w) for n in a_set])
    assert rep1.success == rep2.success
    assert rep1.recovered == rep2.recovered
    assert rep1.cost == rep2.cost


def test_elements_serialized_as_decimal_strings():
    scheme = bl.build_middle(
        bl.demand_from_rows(FQ, DEMAND_4x6), cyclic_assignment(6, 3, 2)
    )
    data = sz.scheme_to_dict(scheme)
    assert all(isinstance(x, str) for row in data["demand"] for x in row)
    assert data["params"]["q"] == str(FQ.q)
    json.dumps(data)  # JSON-safe


def test_unknown_format_rejected():
    with pytest.raises(ShapeMismatch):
        sz.scheme_from_dict({"format": "something-else"})


def test_tampered_assignment_rejected():
    scheme = bl.build_middle(
        bl.demand_from_rows(FQ, DEMAND_4x6), cyclic_assignment(6, 3, 2)
    )
    data = sz.scheme_to_dict(scheme)
    data["assignment"]["Z"][0] = [1, 2, 3, 4]
    with pytest.raises(ShapeMismatch):
        sz.scheme_from_dict(data)


def test_oversized_scheme_refuses_serialization():
    f_mat = bl.random_demand(18, 18, FQ, 5)
    scheme = bl.build_auto(f_mat, 6, 2)
    assert scheme.mds.code_length > 10_000
    with pytest.raises(ShapeMismatch):
        sz.dumps(scheme)


@pytest.mark.parametrize("name,scheme", list(sample_schemes()))
def test_built_and_loaded_schemes_are_frozen(name, scheme):
    for frozen in (scheme, sz.loads(sz.dumps(scheme))):
        for fld in dataclasses.fields(frozen):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(frozen, fld.name, getattr(frozen, fld.name))
