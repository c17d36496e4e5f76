import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import steinfit
from steinfit.cli import dumps, main, parse_params, read_data_file
from steinfit.distributions import RngStream, make_distribution, sample


@pytest.fixture()
def burr_file(tmp_path):
    vals = sample(make_distribution("burr_xii", k=1, c=1), 100, RngStream(42)).values
    path = tmp_path / "burr.txt"
    path.write_text("".join(f"{float(v)!r}\n" for v in vals))
    return str(path)


def cli_env():
    """Environment in which `python -m steinfit.cli` imports this same package."""
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(steinfit.__file__)))
    path = os.pathsep.join(filter(None, [pkg_root, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def run_cli(args):
    proc = subprocess.run([sys.executable, "-m", "steinfit.cli", *args],
                          capture_output=True, text=True, env=cli_env())
    return proc.returncode, proc.stdout, proc.stderr


# --------------------------------------------------------------------------
# serializer
# --------------------------------------------------------------------------

def test_dumps_17_significant_digits():
    text = dumps({"x": 0.1, "y": 1.0, "z": [1e-300, True, None]})
    assert "0.10000000000000001" in text
    doc = json.loads(text)
    assert doc["x"] == 0.1
    assert doc["z"][0] == 1e-300


def test_dumps_nonfinite_as_strings():
    doc = json.loads(dumps({"a": math.inf, "b": math.nan}))
    assert doc["a"] == "inf"
    assert doc["b"] == "nan"


def test_parse_params():
    assert parse_params("k=1,c=2.5") == {"k": 1.0, "c": 2.5}
    assert parse_params("") == {}
    with pytest.raises(ValueError):
        parse_params("k=abc")


# --------------------------------------------------------------------------
# data ingestion
# --------------------------------------------------------------------------

def test_read_data_reports_line_number(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1.5\n2.5\nabc\n4.0\n")
    with pytest.raises(ValueError, match="line 3"):
        read_data_file(str(path))


def test_read_data_csv_column(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("id,value\n1,0.5\n2,1.5\n")
    assert read_data_file(str(path), csv_column="value") == [0.5, 1.5]
    with pytest.raises(ValueError, match="no column"):
        read_data_file(str(path), csv_column="missing")


# --------------------------------------------------------------------------
# test subcommand
# --------------------------------------------------------------------------

def test_cmd_test_runs_and_round_trips(burr_file, tmp_path, capsys):
    out_json = str(tmp_path / "out.json")
    code = main(["test", "--data", burr_file, "--family", "burr", "--stat", "B",
                 "--a", "3", "--B", "50", "--alpha", "0.1", "--seed", "42",
                 "--json", out_json])
    captured = capsys.readouterr()
    assert code == 0
    doc = json.loads(captured.out)
    assert doc == json.loads(open(out_json).read())
    assert set(doc) >= {"statistic_value", "critical_value", "p_value", "reject",
                        "fit", "B", "alpha"}
    assert isinstance(doc["reject"], bool)
    # under a pilot with this seed the Burr sample is accepted
    assert doc["reject"] is False


def test_cmd_test_bad_line_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("1.0\n2.0\nabc\n")
    code = main(["test", "--data", str(path), "--family", "burr", "--stat", "B",
                 "--a", "3", "--seed", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 3" in err


def test_cmd_test_single_observation_exit_2(tmp_path, capsys):
    path = tmp_path / "one.txt"
    path.write_text("1.0\n")
    code = main(["test", "--data", str(path), "--family", "burr", "--stat", "B",
                 "--a", "3", "--seed", "1"])
    assert code == 2


def test_cmd_test_negative_data_for_burr_exit_2(tmp_path, capsys):
    path = tmp_path / "neg.txt"
    path.write_text("1.0\n-2.0\n3.0\n")
    code = main(["test", "--data", str(path), "--family", "burr", "--stat", "B",
                 "--a", "3", "--seed", "1"])
    assert code == 2


@pytest.mark.parametrize("family, stat, values", [
    ("burr", "B", [2.0] * 5),
    ("gamma", "L2", [2.0] * 5),
    ("normal", "L2", [2.0] * 5),
    ("gamma", "ks", [1.0, -2.0, 3.0]),
])
def test_cmd_test_unfittable_data_exit_2(tmp_path, capsys, family, stat, values):
    # constant data, and negative data for gamma: the estimator's FitError
    path = tmp_path / "data.txt"
    path.write_text("".join(f"{v!r}\n" for v in values))
    code = main(["test", "--data", str(path), "--family", family, "--stat", stat,
                 "--a", "1", "--B", "10", "--seed", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ")


def test_cmd_test_underflowing_burr_data_named_error(tmp_path, capsys):
    # every x^c underflows at some c the Burr fit tries; 1e-30 data are
    # still tested, 1e-200 data leave k not finite at the maximizer
    for scale, want in ((1e-30, 0), (1e-200, 2)):
        x = np.random.default_rng(0).uniform(scale / 100, scale, 50)
        path = tmp_path / "tiny.txt"
        path.write_text("".join(f"{float(v)!r}\n" for v in x))
        code = main(["test", "--data", str(path), "--family", "burr", "--stat", "B",
                     "--a", "3", "--B", "20", "--seed", "1"])
        err = capsys.readouterr().err
        assert "math domain error" not in err
        assert code == want
    assert "not finite" in err


def test_cmd_test_byte_identical_reruns(burr_file):
    code1, out1, _ = run_cli(["test", "--data", burr_file, "--family", "burr",
                              "--stat", "cvm", "--B", "30", "--seed", "7"])
    code2, out2, _ = run_cli(["test", "--data", burr_file, "--family", "burr",
                              "--stat", "cvm", "--B", "30", "--seed", "7"])
    assert code1 == code2 == 0
    assert out1 == out2


# --------------------------------------------------------------------------
# verify subcommand
# --------------------------------------------------------------------------

def test_cmd_verify_shifted_gamma_flags_c3(capsys):
    code = main(["verify", "--family", "shifted_gamma", "--params", "k=0.5,lam=1,mu=1"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["conditions"]["verdicts"]["c3"] == "fail"
    assert doc["supported"] is False


def test_cmd_verify_burr_passes(capsys):
    code = main(["verify", "--family", "burr_xii", "--params", "k=1,c=1"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["supported"] is True
    assert doc["fixed_point_residual"] <= 1e-6


def test_cmd_verify_arcsine_beta_unsupported(capsys):
    code = main(["verify", "--family", "beta", "--params", "alpha=0.5,beta=0.5"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["supported"] is False
    assert doc["fixed_point_residual"] is None
    assert doc["residual_note"]


def test_cmd_verify_unknown_family(capsys):
    code = main(["verify", "--family", "nosuch"])
    assert code == 2


# --------------------------------------------------------------------------
# simulate subcommand
# --------------------------------------------------------------------------

SIM_DOC = {
    "n": 40, "alpha": 0.1, "mc_reps": 4, "bootstrap_B": 20, "seed": 99,
    "statistics": [{"stat": "B", "a": 3.0}, {"stat": "ks"}],
    "alternatives": [{"family": "burr_xii", "params": {"k": 1, "c": 1},
                      "label": "Burr(1,1)"}],
}


def test_cmd_simulate_writes_reports(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SIM_DOC))
    out_dir = str(tmp_path / "out")
    code = main(["simulate", "--config", str(cfg), "--out", out_dir, "--threads", "1"])
    stdout = capsys.readouterr().out
    assert code == 0
    assert "config_hash:" in stdout
    for name in ("report.json", "report.csv", "report.md"):
        assert os.path.exists(os.path.join(out_dir, name))
    doc = json.loads(open(os.path.join(out_dir, "report.json")).read())
    assert doc["cells"][0]["reps"] == 4


def test_cmd_simulate_schema_errors(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(SIM_DOC, mc_reps=0,
                                   statistics=[{"stat": "bogus"}])))
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert "mc_reps" in err
    assert "valid tags" in err


def test_cmd_simulate_thread_count_invariant(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SIM_DOC))
    outs = {}
    for threads in (1, 2):
        out_dir = tmp_path / f"out{threads}"
        code, _, _ = run_cli(["simulate", "--config", str(cfg), "--out", str(out_dir),
                              "--threads", str(threads)])
        assert code == 0
        csv_text = (out_dir / "report.csv").read_text()
        md_text = (out_dir / "report.md").read_text()
        json_lines = [ln for ln in (out_dir / "report.json").read_text().splitlines()
                      if "wall_time_s" not in ln]
        outs[threads] = (csv_text, md_text, json_lines)
    assert outs[1] == outs[2]
