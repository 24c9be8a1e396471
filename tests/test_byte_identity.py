"""Byte-identity guard for the outputs documented as stable.

Scheme files (format v1), ``simulate`` trial logs and ``simulate`` CSV tables
are pure functions of their flags and seeds.  The SHA-256 digests below pin
them, over every regime, virtual slots, the grouped placement, the
full-recovery fallback and a ``--demand-file`` run, so that a refactor of the
builder or codec cannot change a byte of them unnoticed.  So do the digests
of every worker's answer and every responder subset's decode over the same
sample schemes, which guard encode and decode without reading their internals.
Another digest pins the grouped construction over seeded demands at several
moduli, failures included, and a last one pins answers and decodes at moduli
small enough that some responder subsets fail, with their details and order.
"""

import hashlib
import json
from functools import partial
from itertools import combinations

import pytest

from linsep import cli
from linsep import codec as cd
from linsep import field as fl
from linsep import builder as bl
from linsep import serialize as sz
from linsep.assignment import cyclic_assignment, grouped_assignment
from linsep.errors import LinsepError
from test_serialize import sample_schemes

SCHEME_DIGESTS = {
    "middle": "632ce9fc5d2449f9333d6b5faf494003e0482c8eeca6482ae318a8df55704f56",
    "small": "1de9893d08ae0a503f05499b7c2fb9ddf9cef44168c8e398ba83bd81b8c2c33e",
    "large": "7afa2d9c7fdf1eb882f098fccee012a99c12b040c09d90e03fbfff59f46534a8",
    "grouped": "11b38ce0d4f2fdce492112837cf1df534711892c530606ef7c116557a63fe0d0",
    "general": "e18bfdeeb15491334895bf364f5b5c8e35345f443ac370ae3e6f2f5dcf338f16",
    "fallback": "cda60f201fb386d9bbd47865c59bdc51e36fb2e56a47f0f8805297e4423f7068",
    # K_c = t + 2: coded over 3 cyclic windows, not all 15 4-subsets
    "large_wide": "263dab081a952c942a345e37229f634c0327e0fb94488b9bd746840654468183",
}

SIMULATE_RUNS = {
    # small, middle and large, each with and without virtual slots
    "auto": ["-K", "6,7", "-N", "3", "--nr", "2", "--kc", "1,2,5,7",
             "--trials", "2", "--seed", "11"],
    "grouped": ["-K", "12", "-N", "4", "--nr", "3", "--kc", "3",
                "--assignment", "grouped", "--trials", "2", "--seed", "12"],
    "demand": ["-K", "6", "-N", "3", "--nr", "2", "--kc", "3", "-q", "101",
               "--trials", "3", "--seed", "13"],
    # large at K_c = t + 2, where the design is not every t-subset
    "large_wide": ["-K", "6", "-N", "3", "--nr", "2", "--kc", "6",
                   "--trials", "2", "--seed", "14"],
}
ANSWER_DIGESTS = {
    # every worker's answer and every responder subset's decode, L = 2 or L
    "middle": "5f1780a2faeff49691d971defbe6ce9213fde1b3c6c957d8fa292b38576676e9",
    "small": "31b15dbf0d209535ad11f650dcac1c24ffc5ae09d126cad85fec8218791b0e79",
    "large": "07b8e37e8b2623494b711589394523a475ad8fc8b4aa3140bb7b7ba91b075df5",
    "grouped": "1df7dbc21dcd320b7d6d5f8febdf53c3daba45a4afd2ff93cd9e08d9514aeb34",
    "general": "e14ce960e4d4f94b64926a60d8fe6d644a74421e2f5ea5cfe53aa286799bd5fc",
    "fallback": "740c021254c936b716e5e71814e428f057e60bf4637a28a8fe5f35d2534e0bc5",
    "large_wide": "57fb92f49c27d6af1110ec974a9e3ad804e7ced2f29b6c6f9a1c70305415c73e",
}

# 40 seeded (12, 4, 3, 3) demands at each of these moduli; 120 of the 160 build.
GROUPED_MODULI = (7, 11, 101, 2**31 - 1)
GROUPED_DIGEST = "a18fc4802d07b6f6049a3e117ee9de2b0a494d269ed9221a42218add25e1beb4"

# Seeded schemes at q = 7 and 11: every regime, virtual slots, the grouped
# placement and the fallback; some responder subsets fail in every regime.
SMALL_Q_POINTS = (
    (9, 3, 2, 2), (6, 3, 2, 3), (7, 3, 2, 4), (8, 4, 3, 4), (6, 3, 2, 5),
    (6, 3, 2, 6), (7, 4, 2, 6),
)
SMALL_Q_DIGEST = "d770c4360c6df4cf500abf8584c42e15ffe0edcd0f92b0ab774cb67611bd41aa"

DEMAND_ROWS = [[1, 2, 3, 4, 5, 6], [1, 1, 1, 1, 1, 1], [2, 3, 5, 7, 11, 13]]

SIMULATE_DIGESTS = {
    "auto": (
        "418caa7ff2e8e93c79aa4f7bf6562339b9172ac06b500b2833385ea606212b03",
        "04fdc6da320cbdcabf26a276daacce71d5d2b38acf8d670e42a5e257b334d381",
    ),
    "grouped": (
        "3a0f5b19994bc379de4c1d4490f881e26180552b837b8d20c6c70186703f78d6",
        "9138376d69c5428287053629fd76cc5a2e7e7049191d4e718d17e91c0eb1057e",
    ),
    "demand": (
        "170bde2d3795a44efe0407c17899646bc30f32e1a54fa64b23e148ea28edff8a",
        "7ad8f6a6920dbae84ca5349642f4d5c1b193868897efa843df35140e7c38c9ef",
    ),
    "large_wide": (
        "790357516d6fd781333ce64f890d7ea6f4f4d0259ab5aed4537aeb24ebc7d40b",
        "788494bdcb4c0d3547886f2e87cf6e43465916e9205924c206d3db7e45d1e4a9",
    ),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name,scheme", list(sample_schemes()))
def test_scheme_file_bytes_unchanged(name, scheme):
    assert _sha(sz.dumps(scheme).encode()) == SCHEME_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(SIMULATE_RUNS))
def test_simulate_outputs_unchanged(name, tmp_path, capsys):
    argv = ["simulate", *SIMULATE_RUNS[name]]
    if name == "demand":
        path = tmp_path / "demand.json"
        path.write_text(json.dumps(
            {"q": "101", "rows": [[str(x) for x in row] for row in DEMAND_ROWS]}))
        argv += ["--demand-file", str(path)]
    csv_path, log_path = tmp_path / "out.csv", tmp_path / "trials.jsonl"
    code = cli.main(argv + ["--out", str(csv_path), "--trial-log", str(log_path)])
    capsys.readouterr()
    assert code == 0
    digests = (_sha(log_path.read_bytes()), _sha(csv_path.read_bytes()))
    assert digests == SIMULATE_DIGESTS[name]


def _answers_digest(scheme) -> str:
    """SHA-256 over every worker's answer and every responder subset's decode.

    Messages are seeded and L is the scheme's own, or 2 where it fixes none.
    """
    p = scheme.params
    w = cd.random_messages(p.K, p.L or 2, fl.Field(p.q), 77)
    answers = {n: cd.encode_worker(scheme, n, w) for n in range(1, p.N + 1)}
    h = hashlib.sha256()
    for n, a in answers.items():
        h.update(f"answer {n} {a.x.rows}x{a.x.cols}:".encode())
        h.update(a.x.array.astype("<i8").tobytes())
    for a_set in combinations(range(1, p.N + 1), p.N_r):
        rep = cd.decode(scheme, [answers[n] for n in a_set])
        h.update(f"decode {a_set} {rep.success} {rep.cost} {rep.detail}:".encode())
        if rep.recovered is not None:
            h.update(rep.recovered.array.astype("<i8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name,scheme", list(sample_schemes()))
def test_answers_and_decodes_unchanged(name, scheme):
    assert _answers_digest(scheme) == ANSWER_DIGESTS[name]


def test_grouped_construction_unchanged():
    """Each demand adds its scheme file's SHA-256, or the failure's class name."""
    h = hashlib.sha256()
    for q in GROUPED_MODULI:
        f = fl.Field(q)
        for seed in range(40):
            demand = bl.random_demand(3, 12, f, fl.derive_seed(seed, "grouped-digest"))
            try:
                scheme = bl.build_grouped(demand, grouped_assignment(12, 4, 3))
                item = _sha(sz.dumps(scheme).encode())
            except LinsepError as exc:
                item = type(exc).__name__
            h.update(f"{q} {seed} {item}\n".encode())
    assert h.hexdigest() == GROUPED_DIGEST


def seeded_builds(q):
    """(label, scheme) over ``SMALL_Q_POINTS``, the grouped point and the
    fallback at modulus q; a build that fails typed gives its error instead."""
    f = fl.Field(q)
    builds = []
    for k, n, n_r, k_c in SMALL_Q_POINTS:
        for seed in range(4):
            demand = bl.random_demand(k_c, k, f, fl.derive_seed(seed, "small-q-digest", k, k_c))
            builds.append((f"{k} {n} {n_r} {k_c} {seed}", partial(
                bl.build_auto, demand, n, n_r, padding_seed=seed, virtual_seed=seed)))
    for seed in range(6):
        demand = bl.random_demand(3, 12, f, fl.derive_seed(seed, "small-q-digest", "grouped"))
        builds.append((f"grouped {seed}", partial(
            bl.build_grouped, demand, grouped_assignment(12, 4, 3))))
    for seed in range(2):
        demand = bl.random_demand(2, 6, f, fl.derive_seed(seed, "small-q-digest", "fallback"))
        builds.append((f"fallback {seed}", partial(
            cd.fallback_full_recovery, demand, cyclic_assignment(6, 3, 2), seed=seed)))
    for label, build in builds:
        try:
            yield label, build()
        except LinsepError as exc:
            yield label, exc


def test_small_q_decodes_unchanged():
    """Each scheme adds its ``_answers_digest``, or the build failure's class name."""
    h = hashlib.sha256()
    failing = 0
    for q in (7, 11):
        for label, scheme in seeded_builds(q):
            if isinstance(scheme, LinsepError):
                item = type(scheme).__name__
            else:
                failing += len(cd.verify_decodability(scheme))
                item = _answers_digest(scheme)
            h.update(f"{q} {label} {item}\n".encode())
    assert failing
    assert h.hexdigest() == SMALL_Q_DIGEST
