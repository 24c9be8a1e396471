import csv
import json
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from linsep import cli
from linsep import builder as bl
from linsep import field as fl
from linsep import serialize as sz
from linsep.assignment import cyclic_assignment

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


def _scheme_file(tmp_path, name, tamper):
    data = sz.scheme_to_dict(bl.build_middle(
        bl.demand_from_rows(FQ, [[1, 1, 1], [1, 2, 3]]), cyclic_assignment(3, 3, 2)
    ))
    tamper(data)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def _ragged(data):
    data["workers"][0]["rows"][0].append("1")


def _unknown_format(data):
    data["format"] = "v9"


@pytest.mark.parametrize("argv,expected", [
    (["verify", "-K", "6", "-N", "3", "--nr", "2", "--kc", "2",
      "--mode", "sample:abc"], 2),
    (["build", "-K", "6", "-N", "3", "--nr", "2", "--kc", "2", "-q", "4",
      "--out", "{tmp}/s.json"], 2),
    (["verify", "--scheme", "{ragged}"], 3),
    (["verify", "--scheme", "{unknown_format}"], 3),
])
def test_bad_input_exits_with_documented_code_and_no_traceback(
    tmp_path, argv, expected
):
    files = {
        "tmp": str(tmp_path),
        "ragged": _scheme_file(tmp_path, "ragged.json", _ragged),
        "unknown_format": _scheme_file(tmp_path, "v9.json", _unknown_format),
    }
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
        assert "error: malformed scheme file" in proc.stderr
