import copy
import dataclasses
import json
from functools import lru_cache
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ref_matmul
from linsep import builder as bl
from linsep import cli
from linsep import codec as cd
from linsep import field as fl
from linsep import serialize as sz
from linsep.assignment import cyclic_assignment, grouped_assignment
from linsep.errors import LinsepError, MalformedScheme, ShapeMismatch
from test_builder import DEMAND_3x12, DEMAND_4x6

FQ = fl.Field()


def sample_schemes():
    yield "middle", bl.build_scheme(
        bl.demand_from_rows(FQ, DEMAND_4x6), cyclic_assignment(6, 3, 2), padding_seed=3
    )
    yield "small", bl.build_scheme(
        bl.demand_from_rows(FQ, [[1] * 9, list(range(1, 10))]),
        cyclic_assignment(9, 3, 2),
        padding_seed=3,
    )
    yield "large", bl.build_scheme(
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
    yield "large_wide", bl.build_scheme(  # K_c = t + 2
        bl.random_demand(6, 6, FQ, 14), cyclic_assignment(6, 3, 2)
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
    scheme = bl.build_scheme(
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
    scheme = bl.build_scheme(
        bl.demand_from_rows(FQ, DEMAND_4x6), cyclic_assignment(6, 3, 2)
    )
    data = sz.scheme_to_dict(scheme)
    data["assignment"]["Z"][0] = [1, 2, 3, 4]
    with pytest.raises(ShapeMismatch):
        sz.scheme_from_dict(data)


def test_oversized_scheme_refuses_serialization():
    # The complete design of (18, 6, 2, 18), 18 564 6-subsets, in place of
    # the builder's 3 windows.
    scheme = bl.build_scheme(bl.random_demand(18, 18, FQ, 5), cyclic_assignment(18, 6, 2))
    complete = tuple(combinations(range(1, 19), 6))
    scheme = dataclasses.replace(scheme, windows=np.array(complete))
    assert len(scheme.windows) > sz.MAX_CODE_LENGTH
    with pytest.raises(ShapeMismatch):
        sz.dumps(scheme)


@pytest.mark.parametrize("name,scheme", list(sample_schemes()))
def test_built_and_loaded_schemes_are_frozen(name, scheme):
    for frozen in (scheme, sz.loads(sz.dumps(scheme))):
        for fld in dataclasses.fields(frozen):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(frozen, fld.name, getattr(frozen, fld.name))


LEGACY_LARGE = Path(__file__).parent / "data" / "legacy_large_complete.json"


def test_legacy_complete_design_file_loads_verifies_and_decodes(tmp_path, capsys):
    """A (6,3,2,6) file coded over all 15 4-subsets of the demand rows.

    ``linsep build -K 6 -N 3 --nr 2 --kc 6 --seed 3`` wrote it when the large
    regime used the complete design; it loads as the cyclic-window scheme of
    its demand and L, and keeps verifying and decoding.
    """
    text = LEGACY_LARGE.read_text()
    scheme = sz.loads(text)
    windows = bl.build_scheme(scheme.demand, cyclic_assignment(6, 3, 2), l_symbols=10)
    assert sz.dumps(scheme) == sz.dumps(windows) != text
    assert sz.dumps(sz.loads(sz.dumps(scheme))) == sz.dumps(scheme)
    assert len(scheme.windows) == 3 and scheme.split_count == 2
    assert scheme.params.L == 10
    assert cli.main(["verify", "--scheme", str(LEGACY_LARGE)]) == 0
    w = cd.random_messages(6, scheme.params.L, FQ, 8)
    want = ref_matmul(scheme.demand.matrix.to_lists(), w.w.to_lists(), FQ.q)
    for a_set in combinations(range(1, 4), 2):
        rep = cd.decode(scheme, [cd.encode_worker(scheme, n, w) for n in a_set])
        assert rep.success and rep.recovered.to_lists() == want, a_set
    for key, value in (("code_length", 14), ("split_count", 2)):
        data = json.loads(text)
        data["mds"][key] = value
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(data))
        assert cli.main(["verify", "--scheme", str(edited)]) == 3, key
    capsys.readouterr()


@pytest.mark.parametrize("name,scheme", list(sample_schemes()))
def test_using_a_scheme_never_changes_it(name, scheme):
    """Encoding, decoding and verifying leave every field the same object."""
    before = dict(vars(scheme))
    w = cd.random_messages(scheme.params.K, scheme.params.L or 2, FQ, 5)
    answers = [cd.encode_worker(scheme, n, w) for n in range(1, scheme.params.N + 1)]
    cd.decode(scheme, answers[: scheme.params.N_r])
    cd.verify_decodability(scheme)
    after = vars(scheme)
    assert after.keys() == before.keys()
    for key, value in after.items():
        assert value is before[key], key
        assert not isinstance(value, (dict, list, set)), key


def _arrays(obj):
    """Every numpy array held by obj, through dataclasses, tuples and wrappers."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, fl.FMatrix):
        yield obj.array
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _arrays(getattr(obj, f.name))
    elif isinstance(obj, tuple):
        for x in obj:
            yield from _arrays(x)


@pytest.mark.parametrize("name,scheme", list(sample_schemes()))
def test_every_array_a_scheme_holds_is_read_only(name, scheme):
    for s in (scheme, sz.loads(sz.dumps(scheme))):
        arrays = list(_arrays(s))
        g = s.grouped
        held = (s.padded, s.code) if g is None else (g.rows, g.relations)
        assert all(any(a is h for a in arrays) for h in held)
        assert [a.flags.writeable for a in arrays] == [False] * len(arrays)


def test_large_scheme_reports_a_degenerate_window():
    # At q = 7 one window of this demand has a null space larger than K/N.
    demand = bl.random_demand(6, 6, fl.Field(7), 5)
    scheme = bl.build_scheme(demand, cyclic_assignment(6, 3, 2))
    assert scheme.regime == "large" and scheme.degenerate
    text = sz.dumps(scheme)
    assert json.loads(text)["degenerate"] is True
    loaded = sz.loads(text)
    assert loaded.degenerate and sz.dumps(loaded) == text


def _edit_l(data):
    data["params"]["L"] = float(data["params"]["L"])


def _edit_degenerate(data):
    data["degenerate"] = int(data["degenerate"])


@pytest.mark.parametrize("edit", [_edit_l, _edit_degenerate], ids=["L", "degenerate"])
def test_values_equal_only_once_parsed_are_malformed(tmp_path, capsys, edit):
    # "L": 10.0 and "degenerate": 0 parse equal to 10 and false, but are not
    # the bytes the scheme dumps.
    data = json.loads(LEGACY_LARGE.read_text())
    edit(data)
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(data))
    assert cli.main(["verify", "--scheme", str(edited)]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("key,value", [("N", 10**4), ("K", 3 * 10**6)])
def test_loader_checks_k_and_n_before_building_the_placement(monkeypatch, key, value):
    # A 7-dataset virtual-slot file with a huge K or N must fail before the
    # placement, whose cost grows with both, is built.
    scheme = bl.build_auto(bl.random_demand(5, 7, FQ, 42), 3, 2)
    data = sz.scheme_to_dict(scheme)
    data["params"][key] = value

    def spy(*args):
        raise AssertionError("placement built before K and N were checked")

    monkeypatch.setitem(sz._PLACEMENTS, data["assignment"]["kind"], spy)
    with pytest.raises(MalformedScheme):
        sz.loads(json.dumps(data))


@lru_cache(maxsize=1)
def _built_files() -> dict:
    return {name: sz.scheme_to_dict(scheme) for name, scheme in sample_schemes()}


# Stands in for a value that ``_edited_file`` replaces by deep nesting in the text.
_DEEP = "<deep>"

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**20), 10**20) | st.floats()
    | st.text(max_size=4),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2)
    ),
    max_leaves=4,
)


def edit_json(draw, data) -> str:
    """The text of ``data`` after one or two JSON edits, made in place: a key
    or list item dropped, a value replaced by another JSON value, or deep
    nesting."""
    depth = 0
    for _ in range(draw(st.integers(1, 2))):
        parent, key = None, None
        node = data
        # Walk down from the top to the value edited, one level at least.
        while isinstance(node, (dict, list)) and node and (parent is None or draw(st.booleans())):
            keys = sorted(node) if isinstance(node, dict) else range(len(node))
            parent, key = node, draw(st.sampled_from(keys))
            node = parent[key]
        edit = draw(st.sampled_from(["drop", "replace", "deep"]))
        if edit == "drop":
            del parent[key]
        elif edit == "deep":
            parent[key], depth = _DEEP, draw(st.sampled_from([100, 1000, 10**5]))
        else:
            parent[key] = draw(JSON_VALUES)
    return json.dumps(data).replace(json.dumps(_DEEP), "[" * depth + "]" * depth)


@st.composite
def _edited_file(draw):
    """A built file of some scheme kind with one or two JSON edits."""
    name = draw(st.sampled_from(sorted(_built_files())))
    return edit_json(draw, copy.deepcopy(_built_files()[name]))


def _fallback_file(recombine) -> str:
    """The built fallback file with its ``recombine`` rows replaced."""
    data = copy.deepcopy(_built_files()["fallback"])
    data["recombine"] = recombine(data["recombine"])
    return json.dumps(data)


# Edits of a fallback file's 2 x 3 recombine that its re-dump cannot catch.
RECOMBINE_EDITS = {
    "lost_column": lambda rows: [row[:-1] for row in rows],
    "all_zero": lambda rows: [["0"] * len(row) for row in rows],
    "rank_1": lambda rows: [rows[0], rows[0]],
    "extra_row": lambda rows: rows + [["1", "0", "0"], ["0", "1", "0"]],
}


@pytest.mark.parametrize("edit", list(RECOMBINE_EDITS.values()), ids=list(RECOMBINE_EDITS))
def test_a_fallback_file_whose_recombine_loses_rank_is_malformed(tmp_path, capsys, edit):
    text = _fallback_file(edit)
    with pytest.raises(MalformedScheme, match="recombine must have full row rank on the 3"):
        sz.loads(text)
    path = tmp_path / "fallback.json"
    path.write_text(text)
    assert cli.main(["verify", "--scheme", str(path)]) == 3
    assert "error: malformed scheme file: recombine" in capsys.readouterr().err


def test_an_unknown_assignment_kind_is_malformed():
    data = copy.deepcopy(_built_files()["middle"])
    data["assignment"]["kind"] = "ring"
    with pytest.raises(MalformedScheme, match="unknown assignment kind 'ring'"):
        sz.loads(json.dumps(data))


@settings(max_examples=300, deadline=None)
@example(_fallback_file(RECOMBINE_EDITS["lost_column"]))
@example(_fallback_file(RECOMBINE_EDITS["all_zero"]))
@given(_edited_file())
def test_an_edited_file_loads_or_is_malformed(text):
    # The loader's one failure is MalformedScheme, whatever the defect, and
    # a file that loads encodes, decodes and verifies, failing only typed.
    try:
        scheme = sz.loads(text)
    except MalformedScheme:
        return
    p = scheme.params
    try:
        w = cd.random_messages(p.K, p.L or 2, fl.Field(p.q), 1)
        cd.decode(scheme, [cd.encode_worker(scheme, n, w) for n in range(1, p.N_r + 1)])
        cd.verify_decodability(scheme)
    except LinsepError:
        pass
