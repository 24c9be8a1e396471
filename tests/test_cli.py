import csv
import json
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linsep import cli
from linsep import builder as bl
from linsep import codec as cd
from linsep import field as fl
from linsep import serialize as sz
from linsep.assignment import cyclic_assignment, general_assignment, grouped_assignment
from linsep.errors import MalformedScheme
from test_builder import DEMAND_3x12, DEMAND_4x6
from test_serialize import edit_json

FQ = fl.Field()


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_demand(path, rows, q=fl.DEFAULT_MODULUS):
    payload = {"q": str(q), "rows": [[str(x) for x in row] for row in rows]}
    path.write_text(json.dumps(payload))
    return str(path)


def test_plan_outputs(capsys):
    code, out, err = run(capsys, "plan", "-K", "6", "-N", "3", "--nr", "2", "--kc", "4")
    assert code == 0
    assert "converse:   4" in out and "achievable: 4" in out and "optimal" in out
    assert "effective seed" in err
    code, out, _ = run(capsys, "plan", "-K", "12", "-N", "4", "--nr", "3", "--kc", "3")
    assert code == 0
    assert "converse:   6" in out and "achievable: 9" in out and "cyclic-optimal" in out
    code, out, _ = run(capsys, "plan", "-K", "3", "-N", "3", "--nr", "2", "--kc", "1")
    assert code == 0 and "achievable: 2" in out


def test_build_writes_deterministic_scheme(tmp_path, capsys):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["build", "-K", "6", "-N", "3", "--nr", "2", "--kc", "4", "--seed", "9"]
    code, out, _ = run(capsys, *args, "--out", str(out1))
    assert code == 0 and "regime: middle" in out and "3 x 2 rows" in out
    code, _, _ = run(capsys, *args, "--out", str(out2))
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    data = json.loads(out1.read_text())
    assert data["regime"] == "middle"
    assert data["assignment"]["Z"] == [[1, 2, 4, 5], [2, 3, 5, 6], [1, 3, 4, 6]]
    assert all(len(w["rows"]) == 2 for w in data["workers"])


def test_build_large_emits_code_descriptor(tmp_path, capsys):
    out = tmp_path / "s.json"
    code, text, _ = run(
        capsys, "build", "-K", "3", "-N", "3", "--nr", "2", "--kc", "3",
        "--out", str(out),
    )
    assert code == 0 and "regime: large" in text
    data = json.loads(out.read_text())
    assert data["mds"] == {"split_count": 2, "code_length": 3}


def test_verify_of_built_file(tmp_path, capsys):
    out = tmp_path / "s.json"
    run(capsys, "build", "-K", "6", "-N", "3", "--nr", "2", "--kc", "4",
        "--seed", "3", "--out", str(out))
    code, text, _ = run(capsys, "verify", "--scheme", str(out))
    assert code == 0 and "decodable" in text


def test_verify_flags_bad_demand_file(tmp_path, capsys):
    demand = write_demand(tmp_path / "d.json", [[1, 1, 1], [2, 1, 1]])
    code, out, _ = run(
        capsys, "verify", "-K", "3", "-N", "3", "--nr", "2", "--kc", "2",
        "--demand-file", demand,
    )
    assert code == 1
    assert "FAIL subset={1,3}" in out


def test_verify_structured_demand_passes(tmp_path, capsys):
    fx = bl.adversarial_fixture(4, 4, 3, (1, 2, 4), seed=5)
    demand = write_demand(tmp_path / "fx.json", fx.matrix.to_lists())
    code, out, _ = run(
        capsys, "verify", "-K", "4", "-N", "4", "--nr", "3", "--kc", "3",
        "--demand-file", demand,
    )
    assert code == 0 and "decodable" in out


def test_verify_usage_and_io_errors(tmp_path, capsys):
    code, _, err = run(capsys, "verify")
    assert code == 2 and "verify needs" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "verify", "--scheme", str(bad))
    assert code == 3 and "malformed" in err
    code, _, err = run(capsys, "verify", "--scheme", str(tmp_path / "missing.json"))
    assert code == 3
    # A scheme file fixes the point, so a flag that would change it is refused
    # by name; --seed and --mode still apply.
    path = str(tmp_path / "s.json")
    run(capsys, "build", "-K", "6", "-N", "3", "--nr", "2", "--kc", "4", "--out", path)
    for flag, value in (
        ("-K", "6"), ("-N", "3"), ("--nr", "2"), ("--kc", "4"), ("-L", "2"),
        ("-q", str(fl.DEFAULT_MODULUS)), ("--demand-file", "nope.json"),
        ("--assignment", "auto"),
    ):
        code, _, err = run(capsys, "verify", "--scheme", path, flag, value)
        assert code == 2 and f"error: {flag} cannot be combined with --scheme" in err
    code, out, _ = run(capsys, "verify", "--scheme", path, "--seed", "4", "--mode", "sample:2")
    assert code == 0 and "decodable" in out


@pytest.mark.parametrize("text", [
    '{"cols": 3}',
    '[["1", "1", "1"], ["1", "2", "3"]]',
    '{"rows": [["1", "1", "1"], ["1", "2"]]}',
    '{"rows": ["111", "123"]}',
    '{"rows": []}',
    '{"rows": [[], []]}',
    '{"rows": [["1", "1", "a"], ["1", "2", "3"]]}',
    '{"rows": [[1, 1, 1e30], [1, 2, 3]]}',
    '{"rows": [[1, 1, 1.5], [1, 2, 3]]}',
    '{"rows": [[1, 1, true], [1, 2, 3]]}',
    '{"q": "seven", "rows": [[1, 1, 1], [1, 2, 3]]}',
    '{"q": 2147483647.0, "rows": [[1, 1, 1], [1, 2, 3]]}',
], ids=[
    "no_rows", "top_level_list", "ragged", "row_not_a_list", "no_row", "empty_rows", "word_entry",
    "huge_float_entry", "fraction_entry", "boolean_entry", "word_q", "float_q",
])
def test_malformed_demand_file_is_an_io_error(tmp_path, capsys, text):
    demand = tmp_path / "d.json"
    demand.write_text(text)
    point = ["-K", "3", "-N", "3", "--nr", "2", "--kc", "2", "--demand-file", str(demand)]
    for argv in (
        ["simulate", *point, "--trials", "1"],
        ["build", *point, "--out", str(tmp_path / "s.json")],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 3 and "error: malformed demand file" in err, argv
        assert "Traceback" not in err


def test_unreadable_demand_file_is_an_io_error(tmp_path, capsys):
    binary = tmp_path / "d.json"
    binary.write_bytes(b'{"rows": [["1", "1", "1"], ["1", "2", "\xff"]]}')
    for demand in (binary, tmp_path):
        code, _, err = run(
            capsys, "simulate", "-K", "3", "-N", "3", "--nr", "2", "--kc", "2",
            "--trials", "1", "--demand-file", str(demand),
        )
        assert code == 3 and err.count("error: ") == 1, demand


POINT = ("-K", "3", "-N", "3", "--nr", "2", "--kc", "2")


@pytest.mark.parametrize("argv", [
    ("build", *POINT, "--out"),
    ("simulate", *POINT, "--trials", "1", "--out"),
    ("simulate", *POINT, "--trials", "1", "--trial-log"),
    ("bounds", *POINT, "--out"),
], ids=["build-out", "simulate-out", "simulate-trial-log", "bounds-out"])
def test_unwritable_output_is_an_io_error(tmp_path, capsys, argv):
    """A path under a missing directory exits 3 with one error line naming it."""
    path = str(tmp_path / "missing" / "out")
    code, out, err = run(capsys, *argv, path)
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert code == 3 and out == ""
    assert len(errors) == 1 and path in errors[0] and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("simulate", "-K", "6", "-N", "0", "--nr", "1", "--kc", "1", "--trials", "1"),
    ("bounds", "-K", "3", "-N", "4", "--nr", "5", "--kc", "9"),
], ids=["simulate", "bounds"])
def test_a_grid_with_no_valid_point_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "error: the grid has no point" in err


@pytest.mark.parametrize("argv,message", [
    (("build", "-K", "0", "-N", "1", "--nr", "1", "--kc", "1", "--out", "{out}"),
     "error: K and N must be positive"),
    (("verify", "-K", "6", "-N", "3", "--nr", "2", "--kc", "0"),
     "error: need 1 <= K_c <= K, got K_c=0, K=6"),
    (("simulate", "-K", "6", "-N", "3", "--nr", "2", "--kc", "2", "-L", "0", "--trials", "1"),
     "error: -L must be at least 1, got 0"),
    (("simulate", "-K", "6", "-N", "3", "--nr", "2", "--kc", "5", "-L", "-3", "--trials", "1"),
     "error: -L must be at least 1, got -3"),
    (("simulate", "-K", "6", "-N", "3", "--nr", "2", "--kc", "2", "--trials", "-1"),
     "error: --trials must be at least 0, got -1"),
    (("verify", "-K", "6", "-N", "3", "--nr", "2", "--kc", "2", "-q", "3037000507"),
     "error: modulus 3037000507 too large for exact int64 arithmetic"),
    (("verify", "-K", "6", "-N", "3", "--nr", "2", "--kc", "2", "-q", "1763"),
     "error: modulus 1763 is not prime"),
    (("build", "-K", "12", "-N", "4", "--nr", "3", "--kc", "2", "--assignment", "grouped",
      "--out", "{out}"), "error: grouped scheme needs K_c = K/N, got 2"),
    (("build", *POINT, "-q", "101", "--demand-file", "{demand}", "--out", "{out}"),
     f"error: demand file modulus {fl.DEFAULT_MODULUS} != requested 101"),
    (("build", "-K", "6", "-N", "3", "--nr", "2", "--kc", "2", "--demand-file", "{demand}",
      "--out", "{out}"), "error: demand file is 2x3, flags say 2x6"),
    (("simulate", "-K", "3,6", "-N", "3", "--nr", "2", "--kc", "2", "--demand-file",
      "{demand}", "--trials", "1"), "error: --demand-file needs a single-point grid"),
], ids=[
    "build-K", "verify-kc", "simulate-L", "simulate-large-L", "simulate-trials",
    "verify-q-too-large", "verify-q-not-prime", "build-grouped-kc", "build-demand-q",
    "build-demand-shape", "simulate-demand-grid",
])
def test_a_zero_count_is_named_by_its_parameter(tmp_path, capsys, argv, message):
    path = tmp_path / "s.json"
    demand = write_demand(tmp_path / "d.json", [[1, 1, 1], [1, 2, 3]])
    code, out, err = run(capsys, *(a.format(out=path, demand=demand) for a in argv))
    assert code == 2 and out == "" and message in err
    assert "random_matrix" not in err and not path.exists()


def test_demand_entries_of_any_size_reduce_mod_q(tmp_path, capsys):
    q = fl.DEFAULT_MODULUS
    rows = [[1, 1, 1], [1, 2, 3]]
    shifted = [[x + k * q for x, k in zip(row, (10**30, -3, 1))] for row in rows]
    (tmp_path / "big.json").write_text(json.dumps({"q": q, "rows": shifted}))
    files = [write_demand(tmp_path / "plain.json", rows), str(tmp_path / "big.json")]
    for i, demand in enumerate(files):
        code, _, _ = run(
            capsys, "build", "-K", "3", "-N", "3", "--nr", "2", "--kc", "2",
            "--demand-file", demand, "--out", str(tmp_path / f"{i}.json"),
        )
        assert code == 0
    assert (tmp_path / "0.json").read_bytes() == (tmp_path / "1.json").read_bytes()


def test_simulate_single_point_fixed_demand(tmp_path, capsys):
    demand = write_demand(
        tmp_path / "d.json", [[1] * 9, list(range(1, 10))]
    )
    out = tmp_path / "res.csv"
    code, _, err = run(
        capsys, "simulate", "-K", "9", "-N", "3", "--nr", "2", "--kc", "2",
        "--trials", "3", "--demand-file", demand, "--out", str(out),
    )
    assert code == 0 and "total failures: 0" in err
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 1
    assert rows[0]["measured_cost"] == "4" and rows[0]["formula_cost"] == "4"
    assert rows[0]["regime"] == "small"


def test_simulate_zero_trials_header_only(tmp_path, capsys):
    out = tmp_path / "res.csv"
    code, _, _ = run(
        capsys, "simulate", "-K", "6", "-N", "3", "--nr", "2", "--kc", "2",
        "--trials", "0", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 and lines[0].startswith("K,N,N_r,K_c")


def test_simulate_grid_to_stdout(capsys):
    code, out, err = run(
        capsys, "simulate", "-K", "3,6", "-N", "3", "--nr", "2", "--kc", "1,2",
        "--trials", "1",
    )
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 4
    assert all(r["failures"] == "0" for r in rows)
    # --assignment cyclic runs the same schemes, and only where N divides K.
    cyclic = ("simulate", "-N", "3", "--nr", "2", "--kc", "1,2", "--trials", "1",
              "--assignment", "cyclic")
    assert run(capsys, *cyclic, "-K", "3,6")[:2] == (0, out)
    code, _, err = run(capsys, *cyclic, "-K", "6,7")
    assert code == 2 and "error: N=3 does not divide K=7" in err


def test_bounds_csv_matches_module(tmp_path, capsys):
    out = tmp_path / "b.csv"
    code, _, _ = run(
        capsys, "bounds", "-K", "6", "-N", "3", "--nr", "1,2,3", "--kc", "1,4,6",
        "--out", str(out),
    )
    assert code == 0
    from linsep import bounds as bd

    for row in csv.DictReader(out.read_text().splitlines()):
        p = bd.Params(
            K=int(row["K"]), N=int(row["N"]), N_r=int(row["N_r"]), K_c=int(row["K_c"])
        )
        v = bd.optimality_class(p)
        assert int(row["converse"]) == v.converse
        assert int(row["achievable"]) == v.achievable
        assert row["status"] == v.status


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["plan", "-K", "6"])
    assert exc.value.code == 2
    code, _, err = run(capsys, "plan", "-K", "6", "-N", "3", "--nr", "9", "--kc", "1")
    assert code == 2 and "error" in err


def test_grouped_build_and_verify(tmp_path, capsys):
    demand = write_demand(
        tmp_path / "d.json",
        [[1] * 12, list(range(1, 13)), [1, 0, 3, 2, 8, 4, 1, 2, 9, 4, 5, 10]],
    )
    out = tmp_path / "g.json"
    code, text, _ = run(
        capsys, "build", "-K", "12", "-N", "4", "--nr", "3", "--kc", "3",
        "--assignment", "grouped", "--demand-file", demand, "--out", str(out),
    )
    assert code == 0 and "regime: grouped" in text and "4 x 2 rows" in text
    code, _, _ = run(capsys, "verify", "--scheme", str(out))
    assert code == 0


@pytest.mark.parametrize("argv,expected", [
    (("-K", "3,6", "--demand-file", "{demand}"), 2),
    (("-K", "6", "--demand-file", "{demand}"), 2),
    (("-K", "3", "--demand-file", "{malformed}"), 3),
    (("-K", "3", "--demand-file", "{missing}"), 3),
], ids=["multi-point-grid", "demand-shape", "malformed-demand", "missing-demand"])
def test_a_failed_simulate_leaves_an_existing_trial_log_alone(tmp_path, capsys, argv, expected):
    log = tmp_path / "trials.jsonl"
    log.write_text('{"kept": true}\n')
    files = {
        "demand": write_demand(tmp_path / "d.json", [[1, 1, 1], [1, 2, 3]]),
        "malformed": str(tmp_path / "bad.json"),
        "missing": str(tmp_path / "missing.json"),
    }
    Path(files["malformed"]).write_text('{"rows": [["1", "1", "a"], ["1", "2", "3"]]}')
    code, _, _ = run(
        capsys, "simulate", *(a.format(**files) for a in argv), "-N", "3", "--nr", "2",
        "--kc", "2", "--trials", "1", "--trial-log", str(log),
    )
    assert code == expected
    assert log.read_text() == '{"kept": true}\n'


def test_simulate_trial_log(tmp_path, capsys):
    log = tmp_path / "trials.jsonl"
    code, _, _ = run(
        capsys, "simulate", "-K", "3", "-N", "3", "--nr", "2", "--kc", "1",
        "--trials", "2", "--out", str(tmp_path / "r.csv"), "--trial-log", str(log),
    )
    assert code == 0
    lines = log.read_text().splitlines()
    assert len(lines) == 2
    record = json.loads(lines[0])
    assert record["cost_match"] and record["config"]["k"] == 3


def test_build_verify_general_worker_count(tmp_path, capsys):
    out = tmp_path / "g.json"
    code, text, _ = run(
        capsys, "build", "-K", "7", "-N", "3", "--nr", "2", "--kc", "5",
        "--seed", "4", "--out", str(out),
    )
    assert code == 0 and "regime: middle" in text
    data = json.loads(out.read_text())
    assert data["virtual"]["effective_k"] == 9
    code, _, _ = run(capsys, "verify", "--scheme", str(out))
    assert code == 0


def test_verify_sample_mode(capsys):
    code, out, _ = run(
        capsys, "verify", "-K", "8", "-N", "4", "--nr", "2", "--kc", "3",
        "--mode", "sample:3", "--seed", "5",
    )
    assert code == 0 and "decodable" in out


def test_simulate_runs_and_logs_at_the_requested_modulus(tmp_path, capsys):
    log = tmp_path / "trials.jsonl"
    code, _, _ = run(
        capsys, "simulate", "-K", "6", "-N", "3", "--nr", "2", "--kc", "3",
        "-q", "101", "--trials", "2", "--out", str(tmp_path / "r.csv"),
        "--trial-log", str(log),
    )
    assert code == 0
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert len(records) == 2
    assert all(r["config"]["q"] == 101 for r in records)


def _middle_3():
    return bl.build_scheme(
        bl.demand_from_rows(FQ, [[1, 1, 1], [1, 2, 3]]), cyclic_assignment(3, 3, 2)
    )


def _middle_6():
    return bl.build_scheme(
        bl.demand_from_rows(FQ, [[1] * 6, [1, 2, 3, 4, 5, 6]]), cyclic_assignment(6, 3, 2)
    )


def _large_6():
    return bl.build_scheme(bl.random_demand(5, 6, FQ, 3), cyclic_assignment(6, 3, 2))


def _grouped_12():
    return bl.build_grouped(
        bl.demand_from_rows(
            FQ, [[1] * 12, list(range(1, 13)), [1, 0, 3, 2, 8, 4, 1, 2, 9, 4, 5, 10]]
        ),
        grouped_assignment(12, 4, 3),
    )


def _scheme_file(tmp_path, name, tamper, build=_middle_3):
    data = sz.scheme_to_dict(build())
    tamper(data)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def _ragged(data):
    data["workers"][0]["rows"][0].append("1")


def _unknown_format(data):
    data["format"] = "v9"


def _short_worker(data):
    data["workers"][1]["rows"].pop()


def _short_null_vector(data):
    data["grouped"]["null_vectors"][0].pop()


def _negative_length(data):
    # -8 is a multiple of the split count 4; only L >= 1 rules it out.
    data["params"]["L"] = -8


def _pairless_grouped(data):
    # The grouped construction is only built for N = 4, N_r = 3.
    data["params"].update(N=2, N_r=1)
    data["assignment"]["Z"] = [list(z) for z in grouped_assignment(12, 2, 1).z]


# A 5 000-digit entry: past the 4 300 digits Python converts to an int by default.
HUGE_INTEGER_DEMAND = '{"rows": [[%s, 1, 1], [1, 2, 3]]}' % ("9" * 5000)
QUOTED_HUGE_INTEGER_DEMAND = '{"rows": [["%s", 1, 1], [1, 2, 3]]}' % ("9" * 5000)


@pytest.mark.parametrize("argv,expected", [
    (["verify", "-K", "6", "-N", "3", "--nr", "2", "--kc", "2",
      "--mode", "sample:abc"], 2),
    (["build", "-K", "6", "-N", "3", "--nr", "2", "--kc", "2", "-q", "4",
      "--out", "{tmp}/s.json"], 2),
    (["verify", "--scheme", "{ragged}"], 3),
    (["verify", "--scheme", "{unknown_format}"], 3),
    (["verify", "-K", "6", "-N", "3", "--nr", "2", "--kc", "2",
      "--mode", "sample:-3"], 2),
    (["verify", "-K", "6", "-N", "3", "--nr", "2", "--kc", "2",
      "--mode", "sample:0"], 2),
    (["simulate", "-K", "6", "-N", "3", "--nr", "2", "--kc", "2", "-q", "4",
      "--trials", "0"], 2),
    (["verify", "--scheme", "{short_worker}"], 3),
    (["verify", "--scheme", "{short_null_vector}"], 3),
    (["verify", "--scheme", "{pairless_grouped}"], 3),
    (["build", "-K", "6", "-N", "3", "--nr", "2", "--kc", "2",
      "--assignment", "general", "--out", "{tmp}/g.json"], 0),
    (["build", "-K", "6", "-N", "3", "--nr", "2", "--kc", "4", "-L", "5",
      "--out", "{tmp}/m.json"], 2),
    (["build", "-K", "12", "-N", "4", "--nr", "3", "--kc", "3",
      "--assignment", "grouped", "-L", "5", "--out", "{tmp}/gr.json"], 2),
    (["verify", "--scheme", "{intact}", "-K", "9", "-q", "7",
      "--demand-file", "nope.json", "--assignment", "grouped"], 2),
    (["simulate", "-K", "7", "-N", "3", "--nr", "2", "--kc", "2",
      "--assignment", "cyclic", "--trials", "1"], 2),
    (["build", "-K", "6", "-N", "3", "--nr", "2", "--kc", "5", "-L", "-8",
      "--out", "{tmp}/neg.json"], 2),
    (["build", "-K", "6", "-N", "3", "--nr", "2", "--kc", "5", "-L", "0",
      "--out", "{tmp}/zero.json"], 2),
    (["verify", "--scheme", "{negative_length}"], 3),
    (["build", "-K", "6", "-N", "0", "--nr", "1", "--kc", "1",
      "--out", "{tmp}/s.json"], 2),
    (["build", "-K", "6", "-N", "0", "--nr", "1", "--kc", "1",
      "--assignment", "cyclic", "--out", "{tmp}/s.json"], 2),
    (["verify", "-K", "6", "-N", "0", "--nr", "0", "--kc", "1",
      "--assignment", "general"], 2),
    (["build", "-K", "6", "-N", "1", "--nr", "0", "--kc", "1",
      "--assignment", "grouped", "--out", "{tmp}/s.json"], 2),
    (["simulate", "-K", "6", "-N", "3", "--nr", "2", "--kc", "2",
      "--trials", "-1"], 2),
    (["verify", "--scheme", "{deep}"], 3),
    (["build", "-K", "6", "-N", "3", "--nr", "2", "--kc", "2",
      "--demand-file", "{deep}", "--out", "{tmp}/deep.json"], 3),
    (["simulate", "-K", "6", "-N", "3", "--nr", "2", "--kc", "2",
      "--demand-file", "{deep}", "--trials", "1"], 3),
    (["build", "-K", "3", "-N", "3", "--nr", "2", "--kc", "2",
      "--demand-file", "{huge}", "--out", "{tmp}/huge.json"], 3),
    (["simulate", "-K", "3", "-N", "3", "--nr", "2", "--kc", "2",
      "--demand-file", "{huge}", "--trials", "1"], 3),
    (["build", "-K", "18", "-N", "4", "--nr", "3", "--kc", "4",
      "--assignment", "grouped", "--out", "{tmp}/g18.json"], 2),
    (["build", "-K", "3", "-N", "3", "--nr", "2", "--kc", "2",
      "--demand-file", "{quoted_huge}", "--out", "{tmp}/quoted.json"], 3),
])
def test_bad_input_exits_with_documented_code_and_no_traceback(
    tmp_path, argv, expected
):
    files = {
        "tmp": str(tmp_path),
        "ragged": _scheme_file(tmp_path, "ragged.json", _ragged),
        "unknown_format": _scheme_file(tmp_path, "v9.json", _unknown_format),
        "short_worker": _scheme_file(tmp_path, "short.json", _short_worker, _middle_6),
        "short_null_vector": _scheme_file(
            tmp_path, "short_null.json", _short_null_vector, _grouped_12
        ),
        "pairless_grouped": _scheme_file(
            tmp_path, "pairless.json", _pairless_grouped, _grouped_12
        ),
        "intact": _scheme_file(tmp_path, "intact.json", lambda data: None),
        "negative_length": _scheme_file(
            tmp_path, "negative_length.json", _negative_length, _large_6
        ),
        "deep": str(tmp_path / "deep.json"),
        "huge": str(tmp_path / "huge.json"),
        "quoted_huge": str(tmp_path / "quoted_huge.json"),
    }
    Path(files["deep"]).write_text("[" * 1000)  # nested past Python's recursion limit
    Path(files["huge"]).write_text(HUGE_INTEGER_DEMAND)
    Path(files["quoted_huge"]).write_text(QUOTED_HUGE_INTEGER_DEMAND)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "linsep", *(a.format(**files) for a in argv)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == expected, proc.stderr
    assert "Traceback" not in proc.stderr
    if expected == 3:
        kind = "scheme" if "--scheme" in argv else "demand"
        assert f"error: malformed {kind} file" in proc.stderr
    if "{huge}" in argv or "{quoted_huge}" in argv:
        # Our own words: json's text would name a Python call no flag makes,
        # and ``int``'s would call a quoted integer no integer.
        limit = sys.get_int_max_str_digits()
        assert proc.stderr.endswith(
            f"error: malformed demand file: an integer has more than {limit} digits\n"
        ), proc.stderr


@pytest.mark.parametrize("k", [6, 7])
def test_general_assignment_builds_the_auto_scheme(tmp_path, capsys, k):
    paths = {kind: tmp_path / f"{kind}.json" for kind in ("auto", "general")}
    for kind, path in paths.items():
        code, _, _ = run(
            capsys, "build", "-K", str(k), "-N", "3", "--nr", "2", "--kc", "2",
            "--assignment", kind, "--out", str(path),
        )
        assert code == 0
    assert paths["auto"].read_bytes() == paths["general"].read_bytes()


def _small_9():
    return bl.build_scheme(
        bl.demand_from_rows(FQ, [[1] * 9, list(range(1, 10))]), cyclic_assignment(9, 3, 2)
    )


def _general_7():
    return bl.build_auto(
        bl.random_demand(5, 7, FQ, 42), 3, 2, padding_seed=9, virtual_seed=8
    )


def _bump(row, i):
    row[i] = str((int(row[i]) + 1) % FQ.q)


def _real_slot_edited(data):
    _bump(data["virtual"]["effective_demand"][0], data["virtual"]["slots"][0] - 1)


def _worker_entry_edited(data):
    _bump(data["workers"][0]["rows"][0], 0)


def _degenerate_flipped(data):
    data["degenerate"] = not data["degenerate"]


def _subproblem_index_edited(data):
    data["subproblems"][0]["index"] = 2


@pytest.mark.parametrize("tamper,build", [
    (_real_slot_edited, _general_7),
    (_worker_entry_edited, _middle_6),
    (_degenerate_flipped, _middle_6),
    (_subproblem_index_edited, _small_9),
], ids=["real_slot", "worker_entry", "degenerate", "subproblem_index"])
def test_scheme_file_that_is_not_its_own_construction_is_malformed(
    tmp_path, capsys, tamper, build
):
    path = _scheme_file(tmp_path, "s.json", tamper, build)
    with pytest.raises(MalformedScheme):
        sz.loads(Path(path).read_text())
    code, _, err = run(capsys, "verify", "--scheme", path)
    assert code == 3 and "error: malformed scheme file" in err


def test_simulate_exits_0_once_the_table_is_written(tmp_path, capsys):
    # Failed trials are results: they are counted in the table and on stderr,
    # and do not change the exit code.
    out = tmp_path / "r.csv"
    code, _, err = run(
        capsys, "simulate", "-K", "6", "-N", "3", "--nr", "2", "--kc", "3",
        "-q", "7", "--trials", "10", "--seed", "1", "--out", str(out),
    )
    assert code == 0
    assert "total failures: 6" in err
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [r["failures"] for r in rows] == ["6"]


# Large points, built at small q: (6,3,2,6) and (6,3,1,4) at K_c >= t + 2,
# (5,3,2,5) and (7,4,2,6) on virtual slots, the latter at K_c = t + 2.
SMALL_Q_LARGE_POINTS = ((6, 3, 1, 4), (6, 3, 2, 6), (5, 3, 2, 5), (7, 4, 2, 6))


@pytest.mark.parametrize("q", [7, 11])
def test_small_moduli_file_verify_matches_in_memory(tmp_path, capsys, q):
    """``verify --scheme`` on a written file reports what the built scheme does.

    It exits 1 exactly when ``verify_decodability`` lists subsets of the
    scheme built in memory from the same flags, with one FAIL line for each.
    """
    f = fl.Field(q)
    codes = set()
    for k, n, n_r, k_c in SMALL_Q_LARGE_POINTS:
        for seed in range(4):
            point = ["-K", str(k), "-N", str(n), "--nr", str(n_r), "--kc", str(k_c)]
            seeds = ["-q", str(q), "--seed", str(seed)]
            path = tmp_path / f"{k}-{n}-{n_r}-{k_c}-{seed}.json"
            code, out, _ = run(capsys, "build", *point, *seeds, "--out", str(path))
            assert code == 0 and "regime: large" in out, (k, n, n_r, k_c, seed)
            scheme = bl.build_scheme(
                bl.random_demand(k_c, k, f, fl.derive_seed(seed, "demand")),
                general_assignment(k, n, n_r),
                padding_seed=fl.derive_seed(seed, "padding"),
                virtual_seed=fl.derive_seed(seed, "virtual"),
            )
            assert sz.dumps(scheme) == path.read_text()
            failing = cd.verify_decodability(scheme)
            code, out, _ = run(capsys, "verify", "--scheme", str(path), "--seed", str(seed))
            assert code == (1 if failing else 0), (k, n, n_r, k_c, seed)
            fails = [line for line in out.splitlines() if line.startswith("FAIL subset=")]
            assert fails == [
                f"FAIL subset={{{','.join(map(str, a_set))}}} seed={seed}"
                for a_set in failing
            ]
            codes.add(code)
    assert codes == {0, 1}


# A demand file per scheme kind, with the flags that build it; K <= 12.
DEMAND_BUILDS = {
    "small": (("-K", "9", "-N", "3", "--nr", "2", "--kc", "2"), [[1] * 9, list(range(1, 10))]),
    "middle": (("-K", "6", "-N", "3", "--nr", "2", "--kc", "4"), DEMAND_4x6),
    "large": (("-K", "3", "-N", "3", "--nr", "2", "--kc", "3"), [[1, 1, 1], [1, 2, 3], [1, 4, 9]]),
    "general": (("-K", "7", "-N", "3", "--nr", "2", "--kc", "2"), [[1] * 7, list(range(1, 8))]),
    "grouped": (
        ("-K", "12", "-N", "4", "--nr", "3", "--kc", "3", "--assignment", "grouped"), DEMAND_3x12
    ),
}


@st.composite
def _edited_demand(draw):
    """Build flags and their demand file, entries as JSON integers or
    strings, after one or two JSON edits."""
    flags, rows = DEMAND_BUILDS[draw(st.sampled_from(sorted(DEMAND_BUILDS)))]
    entry = str if draw(st.booleans()) else int
    data = {"q": str(fl.DEFAULT_MODULUS), "rows": [[entry(x) for x in row] for row in rows]}
    return flags, edit_json(draw, data)


@settings(max_examples=200, deadline=None)
@example((POINT, HUGE_INTEGER_DEMAND))
@given(_edited_demand())
def test_an_edited_demand_file_builds_or_exits_with_a_documented_code(case):
    # Whatever the edit, build writes its scheme (0) or names a bad flag
    # value (2) or a malformed file (3); nothing is raised.
    flags, text = case
    with tempfile.TemporaryDirectory() as tmp:
        demand = Path(tmp) / "d.json"
        demand.write_text(text)
        code = cli.main(["build", *flags, "--demand-file", str(demand), "--out", f"{tmp}/s.json"])
    assert code in (0, 2, 3)
