"""Byte-identity guard for the outputs documented as stable.

Scheme files (format v1), ``simulate`` trial logs and ``simulate`` CSV tables
are pure functions of their flags and seeds.  The SHA-256 digests below pin
them, over every regime, virtual slots, the grouped placement, the
full-recovery fallback and a ``--demand-file`` run, so that a refactor of the
builder or codec cannot change a byte of them unnoticed.
"""

import hashlib
import json

import pytest

from linsep import cli
from linsep import serialize as sz
from test_serialize import sample_schemes

SCHEME_DIGESTS = {
    "middle": "632ce9fc5d2449f9333d6b5faf494003e0482c8eeca6482ae318a8df55704f56",
    "small": "1de9893d08ae0a503f05499b7c2fb9ddf9cef44168c8e398ba83bd81b8c2c33e",
    "large": "7afa2d9c7fdf1eb882f098fccee012a99c12b040c09d90e03fbfff59f46534a8",
    "grouped": "11b38ce0d4f2fdce492112837cf1df534711892c530606ef7c116557a63fe0d0",
    "general": "e18bfdeeb15491334895bf364f5b5c8e35345f443ac370ae3e6f2f5dcf338f16",
    "fallback": "cda60f201fb386d9bbd47865c59bdc51e36fb2e56a47f0f8805297e4423f7068",
}

SIMULATE_RUNS = {
    # small, middle and large, each with and without virtual slots
    "auto": ["-K", "6,7", "-N", "3", "--nr", "2", "--kc", "1,2,5,7",
             "--trials", "2", "--seed", "11"],
    "grouped": ["-K", "12", "-N", "4", "--nr", "3", "--kc", "3",
                "--assignment", "grouped", "--trials", "2", "--seed", "12"],
    "demand": ["-K", "6", "-N", "3", "--nr", "2", "--kc", "3", "-q", "101",
               "--trials", "3", "--seed", "13"],
}
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
