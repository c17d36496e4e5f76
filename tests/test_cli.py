import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import steinfit
from steinfit.bootstrap import FAMILIES, check_statistics
from steinfit.cli import dumps, main, parse_params, read_data_file
from steinfit.distributions import RngStream, make_distribution, sample, score
from steinfit.gof import STATISTICS, StatisticId
from steinfit.simulation import ConfigError, config_from_dict, config_to_dict


@pytest.fixture()
def burr_file(tmp_path):
    vals = sample(make_distribution("burr_xii", k=1, c=1), 100, RngStream(42))
    path = tmp_path / "burr.txt"
    path.write_text("".join(f"{float(v)!r}\n" for v in vals))
    return str(path)


# the six alternatives of the benchmark's Burr power study
DESK_ALTERNATIVES = [
    {"family": "burr_xii", "params": {"k": 1, "c": 1}, "label": "BurrXII(1,1)"},
    {"family": "exponential", "params": {"lam": 1}, "label": "Exp(1)"},
    {"family": "half_cauchy", "params": {}, "label": "HC"},
    {"family": "inverse_gaussian", "params": {"mu": 1, "lam": 1.5}, "label": "IG(1.5)"},
    {"family": "weibull", "params": {"k": 0.5, "lam": 1}, "label": "W(0.5)"},
    {"family": "gompertz", "params": {"theta": 2}, "label": "GO(2)"},
]


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


def test_cmd_test_huge_burr_data_fails_as_replicates(tmp_path):
    # the observed B_{n,a} is finite at the fit of data near 1e300, so B
    # fails where ks and L2 do: in the bootstrap replicates, not on the
    # sample; their draws overflow to inf inside the Burr quantile, and no
    # RuntimeWarning reaches the user, only the failure line
    x = np.random.default_rng(0).uniform(1.0, 2.0, 30) * 1e300
    path = tmp_path / "huge.txt"
    path.write_text("".join(f"{float(v)!r}\n" for v in x))
    for stat in ("B", "ks", "L2"):
        code, out, err = run_cli(["test", "--data", str(path), "--family", "burr", "--stat", stat,
                                  "--B", "20", "--seed", "1"])
        assert (code, out) == (3, "")
        assert err == ("numerical failure: 20/20 bootstrap replicates failed to fit "
                       "(family=burr, n=30)\n")


@pytest.mark.parametrize("family, low, high, scale, message", [
    ("normal", -2.0, 2.0, 1e200, "variance overflows"),
    ("gamma", 1.0, 2.0, 1e300, "variance overflows"),
    # finite moments, but k = mean^2/variance overflows
    ("gamma", 1.0, 1.01, 2e154, "gamma moment fit overflows"),
], ids=["normal--2.0-2.0-1e+200", "gamma-1.0-2.0-1e+300", "gamma-1.0-1.01-2e+154"])
def test_cmd_test_overflowing_moments_exit_2(tmp_path, capsys, family, low, high, scale, message):
    # the moment fit overflows: an input error naming it
    x = np.random.default_rng(0).uniform(low, high, 30) * scale
    path = tmp_path / "huge.txt"
    path.write_text("".join(f"{float(v)!r}\n" for v in x))
    code = main(["test", "--data", str(path), "--family", family, "--stat", "L2",
                 "--a", "1", "--B", "20", "--seed", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("family, low", [("normal", -2.0), ("gamma", 1.0)])
def test_cmd_test_underflowing_variance_exit_2(tmp_path, capsys, family, low):
    # the variance of a sample that is not constant underflows to 0: an
    # input error naming the underflow, not a degenerate sample
    x = np.random.default_rng(0).uniform(low, 2.0, 30) * 1e-165
    path = tmp_path / "tiny.txt"
    path.write_text("".join(f"{float(v)!r}\n" for v in x))
    code = main(["test", "--data", str(path), "--family", family, "--stat", "L2",
                 "--a", "1", "--B", "20", "--seed", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: the sample variance underflows (mean ")
    assert err.endswith(", variance 0)\n")


@pytest.mark.parametrize("a", ["inf", "1e300", "1e-120"])
def test_cmd_test_weight_out_of_range_exit_2(burr_file, capsys, a):
    # a weight whose cube is not a positive finite number is an input error
    code = main(["test", "--data", burr_file, "--family", "burr", "--stat", "B",
                 "--a", a, "--B", "10", "--seed", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "weight parameter" in err


def test_cmd_test_unwritable_json_exit_2(burr_file, tmp_path, capsys):
    # the outcome still reaches stdout; the path's error is an input error
    code = main(["test", "--data", burr_file, "--family", "burr", "--stat", "ks",
                 "--B", "20", "--seed", "1", "--json", str(tmp_path / "missing" / "o.json")])
    out, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert json.loads(out)["statistic"] == "KS"


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


@pytest.mark.parametrize("family, params, bad", [("burr_xii", "k=1,c=inf", "'c' must be finite, got inf"),
                                                ("normal", "mu=nan,sigma2=1", "'mu' must be finite, got nan"),
                                                ("gamma", "k=inf,lam=1", "'k' must be finite, got inf")])
def test_cmd_verify_non_finite_parameter_exit_2(capsys, family, params, bad):
    code = main(["verify", "--family", family, "--params", params])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == f"error: parameter {bad}\n"


def test_cmd_verify_weibull_with_an_overflowing_hazard(capsys):
    # (x/lam)^k overflows on the grid; under this suite's warning filter a
    # RuntimeWarning would raise, so the run below also shows that none escapes
    code = main(["verify", "--family", "weibull", "--params", "k=1000,lam=1000"])
    out, err = capsys.readouterr()
    assert code in (0, 2)
    assert "Traceback" not in err


@pytest.mark.parametrize("k, lam", [(0.5, 1.0), (1.5, 2.0), (3.0, 0.7), (20.0, 5.0)])
def test_weibull_score_keeps_its_formula(k, lam):
    x = np.geomspace(1e-3, 10.0, 500) * lam
    want = (k - 1) / x - k * x ** (k - 1) / lam ** k
    got = score(make_distribution("weibull", k=k, lam=lam), x)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_cmd_verify_unknown_family(capsys):
    code = main(["verify", "--family", "nosuch"])
    assert code == 2


def test_cmd_verify_small_grid_exit_2(capsys):
    code = main(["verify", "--family", "burr_xii", "--params", "k=1,c=1", "--grid", "50"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == "error: grid_size must be >= 100\n"


def test_cmd_verify_quad_tol_must_be_positive(capsys):
    code = main(["verify", "--family", "burr_xii", "--params", "k=1,c=1", "--quad-tol", "-1"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == "error: --quad-tol must be > 0, got -1.0\n"


FORMATS = Path(__file__).resolve().parents[1] / "docs" / "formats.md"


def documented_keys(heading):
    """The keys of the JSON example under ``heading`` in docs/formats.md, in
    the order they appear."""
    block = FORMATS.read_text().split(heading, 1)[1].split("```json", 1)[1].split("```", 1)[0]
    return re.findall(r'"(\w+)":', block)


def key_walk(doc):
    """The keys of a JSON object and of the objects nested in it, depth first."""
    keys = []
    for key, value in doc.items():
        keys.append(key)
        if isinstance(value, dict):
            keys += key_walk(value)
    return keys


def test_json_key_order_is_the_documented_one(burr_file, capsys):
    assert main(["test", "--data", burr_file, "--family", "burr", "--stat", "B",
                 "--B", "20", "--seed", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert key_walk(doc) == documented_keys("## Test outcome JSON")
    assert main(["verify", "--family", "burr_xii", "--params", "k=1,c=1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert key_walk(doc) == documented_keys("## Verify JSON")


def test_main_reuses_its_parser_across_calls(burr_file, tmp_path, capsys, monkeypatch):
    # one process, one parser: help, a usage error and two different tests
    # print and exit as fresh processes do
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to this width
    gamma_file = tmp_path / "gamma.txt"
    gamma = sample(make_distribution("gamma", k=2, lam=1), 60, RngStream(8))
    gamma_file.write_text("".join(f"{float(v)!r}\n" for v in gamma))
    calls = [["test", "--help"],
             ["test", "--data", burr_file, "--family", "burr", "--stat", "B", "--bogus"],
             ["test", "--data", burr_file, "--family", "burr", "--stat", "B", "--B", "20",
              "--seed", "3"],
             ["test", "--data", str(gamma_file), "--family", "gamma", "--stat", "L2", "--a", "1",
              "--B", "20", "--seed", "4"]]
    codes = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out, err) == run_cli(argv)
        codes.append(code)
    assert codes == [0, 2, 0, 0]


@pytest.mark.parametrize("key, seed", [([2, 3218], 271462851), ([6, 1638], 1160755090),
                                       ([2, 3406], 1700604008)])
def test_gamma_L2_at_a_tiny_fitted_shape_runs_clean(tmp_path, key, seed):
    # Lomax data whose moment fit has k near 0.011: unfloored, the fitted
    # law's draws hold zeros that fail replicates (exit 3) or subnormals
    # whose score overflows with a RuntimeWarning
    g = np.random.default_rng(key)
    x = g.pareto(g.uniform(1.5, 4.0), 100) * g.uniform(0.5, 2)
    path = tmp_path / "lomax.txt"
    path.write_text("".join(f"{v!r}\n" for v in x.tolist()))
    code, out, err = run_cli(["test", "--data", str(path), "--family", "gamma", "--stat", "L2",
                              "--a", "1", "--B", "20", "--seed", str(seed)])
    assert (code, err) == (0, "")
    assert json.loads(out)["fit"]["params"]["k"] < 0.052


def test_import_and_tests_load_no_optimize_or_quadrature(burr_file, tmp_path):
    # a fresh interpreter imports the CLI and runs a Burr B and a gamma L2
    # test; only scipy.special of scipy's subpackages may be loaded, and only
    # once the gamma test needs it: the import, the Burr test and a
    # one-process power study on the Burr family with the six desk
    # alternatives load neither scipy nor the process pool, so forked
    # power-study workers never pay for scipy
    gamma_file = tmp_path / "gamma.txt"
    gamma = sample(make_distribution("gamma", k=2, lam=1), 100, RngStream(8))
    gamma_file.write_text("".join(f"{float(v)!r}\n" for v in gamma))
    code = f"""
import contextlib, io, sys
import steinfit.cli
from steinfit.simulation import config_from_dict, run_power_study
special = lambda: "scipy.special._ufuncs" in sys.modules
unloaded = lambda: not {{"scipy", "concurrent.futures.process", "multiprocessing"}} & set(sys.modules)
assert not special() and unloaded()
with contextlib.redirect_stdout(io.StringIO()):
    assert steinfit.cli.main(["test", "--data", {burr_file!r}, "--family", "burr", "--stat", "B",
                              "--B", "20"]) == 0
assert not special() and unloaded()
cfg = config_from_dict({{
    "n": 40, "alpha": 0.1, "mc_reps": 2, "bootstrap_B": 20, "seed": 5, "family": "burr",
    "share_bootstrap": True,
    "statistics": [{{"stat": "B", "a": 1}}, {{"stat": "ks"}}, {{"stat": "cvm"}}, {{"stat": "ad"}},
                   {{"stat": "watson"}}],
    "alternatives": {DESK_ALTERNATIVES!r}}})
run_power_study(cfg, workers=1)
assert not special() and unloaded()
with contextlib.redirect_stdout(io.StringIO()):
    assert steinfit.cli.main(["test", "--data", {str(gamma_file)!r}, "--family", "gamma",
                              "--stat", "L2", "--a", "1", "--B", "20"]) == 0
assert special()
print(" ".join(sorted(m for m in sys.modules if m.split(".")[:2] in
                      (["scipy", "optimize"], ["scipy", "integrate"],
                       ["scipy", "linalg"], ["scipy", "sparse"]))))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=cli_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
    # a scipy.special imported before steinfit is bound as it is
    code = """
import scipy.special
import steinfit.distributions
assert steinfit.distributions.sp is scipy.special and type(scipy.special) is type(scipy)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=cli_env())
    assert proc.returncode == 0, proc.stderr


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


def test_cmd_simulate_weight_must_be_a_number(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(SIM_DOC, statistics=[{"stat": "ks"},
                                                        {"stat": "B", "a": "1"}])))
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: statistics[1]: ")


# every row of gof.STATISTICS, with its label at the weight a weighted one is given
STATISTIC_LABELS = {"burr_B": "B_0.25", "generic_L2": "L2_1", "ks": "KS", "cvm": "CM",
                    "ad": "AD", "watson": "WA"}


def test_statistic_labels_cover_the_table():
    assert list(STATISTIC_LABELS) == list(STATISTICS)


@pytest.mark.parametrize("tag", list(STATISTIC_LABELS))
def test_each_statistics_row_reaches_every_consumer(burr_file, tmp_path, capsys, tag):
    kind, label = STATISTICS[tag], STATISTIC_LABELS[tag]
    a = float(label.rpartition("_")[2]) if kind.weighted else None
    assert StatisticId(tag, a=a).label == label
    # the weight rule
    if kind.weighted:
        with pytest.raises(ValueError, match=f"statistic '{tag}' needs a real weight"):
            StatisticId(tag)
    else:
        with pytest.raises(ValueError, match=f"statistic '{tag}' takes no weight parameter"):
            StatisticId(tag, a=1.0)
    # the CLI takes the name, and passes --a only to a weighted statistic
    home = kind.family or "burr"
    argv = ["test", "--data", burr_file, "--stat", kind.name, "--a", str(a or 3.0), "--B", "10"]
    assert main(argv + ["--family", home]) == 0
    assert json.loads(capsys.readouterr().out)["statistic"] == label
    # the config name round-trips
    entry = {"stat": kind.name} | ({} if a is None else {"a": a})
    cfg = config_from_dict(dict(SIM_DOC, statistics=[entry], family=home))
    assert config_to_dict(cfg)["statistics"] == [entry]
    # the family restriction, in the library, the config and the CLI
    for family in FAMILIES:
        if kind.family in (None, family):
            check_statistics(family, [StatisticId(tag, a=a)])
            continue
        problem = f"the {tag} statistic applies to the {kind.family} family only"
        with pytest.raises(ValueError, match=problem):
            check_statistics(family, [StatisticId(tag, a=a)])
        with pytest.raises(ConfigError) as err:
            config_from_dict(dict(SIM_DOC, statistics=[entry], family=family))
        assert err.value.problems == [f"statistics: {problem}"]
        assert main(argv + ["--family", family]) == 2
        assert capsys.readouterr().err == f"error: {problem}\n"


def test_cmd_simulate_out_is_a_file_exit_2(tmp_path, capsys, monkeypatch):
    # the output directory is checked before the study starts
    import steinfit.cli as cli
    monkeypatch.setattr(cli, "run_power_study", lambda *args, **kwargs: pytest.fail("ran"))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SIM_DOC))
    out = tmp_path / "out"
    out.write_text("a file\n")
    code = main(["simulate", "--config", str(cfg), "--out", str(out), "--threads", "1"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert out.read_text() == "a file\n"


@pytest.mark.parametrize("threads", ["0", "-4", "two"])
def test_cmd_simulate_refuses_a_thread_count_below_1(tmp_path, capsys, threads):
    # a usage error, exit 2, before the config is read or the study runs
    argv = ["simulate", "--config", str(tmp_path / "missing.json"), "--out",
            str(tmp_path / "out"), "--threads", threads]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"error: argument --threads: expected an integer >= 1, got '{threads}'\n")
    assert not (tmp_path / "out").exists()


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
