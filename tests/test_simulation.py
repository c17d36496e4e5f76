import concurrent.futures
import csv
import json
import math

import pytest

import steinfit.simulation as sim
from steinfit.bootstrap import BootstrapError, bootstrap_replicates, bootstrap_test, decide
from steinfit.cli import dumps, main
from steinfit.distributions import RngStream, make_distribution, sample
from steinfit.gof import StatisticId
from steinfit.simulation import (
    ConfigError,
    PowerStudyConfig,
    config_from_dict,
    config_hash,
    render_table,
    run_power_study,
)

BURR11 = make_distribution("burr_xii", k=1, c=1)
W05 = make_distribution("weibull", k=0.5, lam=1)


def small_config(**overrides):
    base = dict(
        n=40, alpha=0.1, mc_reps=6, bootstrap_B=25, seed=515,
        statistics=(StatisticId("burr_B", a=3.0), StatisticId("ks")),
        alternatives=(("Burr(1,1)", BURR11), ("W(0.5)", W05)),
    )
    base.update(overrides)
    return PowerStudyConfig(**base)


def test_single_rep_gives_binary_counts():
    rep = run_power_study(small_config(mc_reps=1))
    for cell in rep.cells.values():
        assert cell.reps == 1
        assert cell.rejections in (0, 1)


def test_determinism_same_seed_same_report():
    cfg = small_config()
    r1 = run_power_study(cfg)
    r2 = run_power_study(cfg)
    assert {k: (c.rejections, c.reps) for k, c in r1.cells.items()} == \
        {k: (c.rejections, c.reps) for k, c in r2.cells.items()}


def test_determinism_across_worker_counts():
    # 7 replicates of 3 alternatives: two workers split each alternative
    # into chunks of 2, 2 and 3 replicates
    cfg = small_config(mc_reps=7, alternatives=(("Burr(1,1)", BURR11), ("W(0.5)", W05),
                                                ("Exp(1)", make_distribution("exponential", lam=1))))
    docs = [run_power_study(cfg, workers=workers).to_dict() for workers in (1, 2)]
    for doc in docs:
        del doc["wall_time_s"]
    assert docs[0] == docs[1]


# --------------------------------------------------------------------------
# chunks of replicates as rows
# --------------------------------------------------------------------------

# Burr XII(0.05, 0.3) at n = 10: about half of the replicates fail, on the
# bootstrap's 5% rule
FLAKY = ("Burr(0.05,0.3)", make_distribution("burr_xii", k=0.05, c=0.3))


def one_replicate(cfg, alt_label, alt, rep):
    """A replicate on its own, through the scalar observed layer of
    bootstrap_replicates and bootstrap_test: its decisions, or None."""
    root = RngStream(cfg.seed).child("alt", alt_label, "rep", rep)
    x = sample(alt, cfg.n, root.child("data"))
    try:
        if not cfg.share_bootstrap:
            return [bootstrap_test(x, cfg.family, stat, cfg.bootstrap_B, cfg.alpha,
                                   root.child("stat", stat.label)).reject
                    for stat in cfg.statistics]
        _, observed, boot, _ = bootstrap_replicates(
            x, cfg.family, cfg.statistics, cfg.bootstrap_B, lambda b: root.child("boot", b))
    except (BootstrapError, ValueError):
        return None
    return decide(observed, boot, cfg.alpha)[2].tolist()


def report_text(cfg, workers=1):
    doc = run_power_study(cfg, workers=workers).to_dict()
    del doc["wall_time_s"]
    return dumps(doc)


@pytest.mark.parametrize("share", [True, False])
def test_a_chunk_gives_each_replicate_its_own_decisions(share):
    cfg = small_config(n=10, mc_reps=12, bootstrap_B=20, share_bootstrap=share,
                       alternatives=(FLAKY, ("W(0.5)", W05)))
    failed = []
    for alt_label, alt in cfg.alternatives:
        expected = [one_replicate(cfg, alt_label, alt, rep) for rep in range(cfg.mc_reps)]
        assert sim._run_chunk(cfg, alt_label, alt, range(cfg.mc_reps)) == expected
        assert sim._run_chunk(cfg, alt_label, alt, range(5, 9)) == expected[5:9]
        failed.append(expected.count(None))
    assert 0 < failed[0] < cfg.mc_reps and failed[1] == 0


@pytest.mark.parametrize("share", [True, False])
def test_report_independent_of_workers_and_chunk_size(monkeypatch, share):
    cfg = small_config(n=10, mc_reps=7, bootstrap_B=20, share_bootstrap=share,
                       alternatives=(FLAKY, ("W(0.5)", W05)))
    expected = report_text(cfg)
    assert [c.failures > 0 for c in run_power_study(cfg).cells.values()] == [True] * 2 + [False] * 2
    for workers in (2, 3):
        assert report_text(cfg, workers) == expected
    for size in (1, 3, cfg.mc_reps):
        monkeypatch.setattr(sim, "_chunks", lambda cfg, workers, size=size: [
            range(lo, min(lo + size, cfg.mc_reps)) for lo in range(0, cfg.mc_reps, size)])
        assert report_text(cfg) == expected
        assert report_text(cfg, 2) == expected


def test_chunk_rule():
    # power_burr's shape: 6 alternatives of 8 replicates on 2 workers give
    # 2 chunks of 4 per alternative; one worker, one chunk per alternative,
    # and no chunk holds more than BLOCK_DRAWS draws
    cfg = small_config(mc_reps=8, alternatives=(("W(0.5)", W05),) * 6)
    assert sim._chunks(cfg, 2) == [range(0, 4), range(4, 8)]
    assert sim._chunks(cfg, 1) == [range(0, 8)]
    assert sim._chunks(small_config(mc_reps=7), 2) == [range(0, 1), range(1, 3), range(3, 5),
                                                        range(5, 7)]
    assert sim._chunks(small_config(mc_reps=3), 8) == [range(0, 1), range(1, 2), range(2, 3)]
    big = small_config(n=sim.BLOCK_DRAWS // 3, mc_reps=10)
    assert [len(r) for r in sim._chunks(big, 1)] == [2, 3, 2, 3]


def test_run_power_study_refuses_fewer_than_one_worker():
    for workers in (0, -4):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_power_study(small_config(mc_reps=1), workers=workers)


@pytest.mark.parametrize("family, stats, poison", [
    ("burr", (StatisticId("burr_B", a=3.0), StatisticId("ks")), -1.0),
    ("gamma", (StatisticId("generic_L2", a=1.0), StatisticId("ks")), -1.0),
    ("normal", (StatisticId("generic_L2", a=1.0), StatisticId("cvm")), None),
])
def test_a_refused_observed_fit_fails_its_replicate_alone(monkeypatch, family, stats, poison):
    cfg = small_config(mc_reps=5, family=family, statistics=stats,
                       alternatives=(("W(0.5)", W05),))
    clean = sim._run_chunk(cfg, "W(0.5)", W05, range(5))
    draw = sim.sample_rows

    def poisoned(dist, n, rngs):
        X = draw(dist, n, rngs)
        if poison is None:
            X[2] = 1.0  # a constant row: the normal fit refuses it
        else:
            X[2, 7] = poison  # a value not positive: the Burr and gamma fits refuse it
        return X

    monkeypatch.setattr(sim, "sample_rows", poisoned)
    got = sim._run_chunk(cfg, "W(0.5)", W05, range(5))
    assert clean[2] is not None and got[2] is None
    assert got[:2] + got[3:] == clean[:2] + clean[3:]
    report = run_power_study(cfg)
    assert [c.failures for c in report.cells.values()] == [1, 1]


def test_a_non_finite_observed_statistic_fails_its_replicate_alone(monkeypatch):
    import steinfit.bootstrap as bs
    cfg = small_config(mc_reps=5, alternatives=(("W(0.5)", W05),))
    clean = sim._run_chunk(cfg, "W(0.5)", W05, range(5))
    kernel, calls = bs.replicate_statistics, []

    def inf_in_row_2(family, stats, X, params):
        out = kernel(family, stats, X, params)
        if not calls:  # a chunk scores its observed rows first
            out[2, 1] = math.inf
        calls.append(X.shape[0])
        return out

    monkeypatch.setattr(bs, "replicate_statistics", inf_in_row_2)
    got = sim._run_chunk(cfg, "W(0.5)", W05, range(5))
    assert calls[0] == 5 and len(calls) == 5  # the observed rows, then 4 blocks
    assert clean[2] is not None and got[2] is None
    assert got[:2] + got[3:] == clean[:2] + clean[3:]


def test_pool_is_no_larger_than_its_chunks(monkeypatch):
    # 2 replicates at workers=6 make 2 chunks of 1: the pool gets 2 workers;
    # run_power_study looks the pool class up in concurrent.futures when it
    # starts one
    sizes = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    cfg = small_config(mc_reps=2, alternatives=(("W(0.5)", W05),))
    docs = [run_power_study(cfg, workers=workers).to_dict() for workers in (1, 6)]
    for doc in docs:
        del doc["wall_time_s"]
    assert sizes == [2]
    assert docs[0] == docs[1]


def test_cell_independence_under_alternative_deletion():
    full = run_power_study(small_config())
    only_w = run_power_study(small_config(alternatives=(("W(0.5)", W05),)))
    for stat in ("B_3", "KS"):
        assert full.cells[("W(0.5)", stat)].rejections == \
            only_w.cells[("W(0.5)", stat)].rejections


def test_share_and_noshare_modes_both_run():
    shared = run_power_study(small_config(mc_reps=3))
    solo = run_power_study(small_config(mc_reps=3, share_bootstrap=False))
    for cells in (shared.cells, solo.cells):
        for cell in cells.values():
            assert 0 <= cell.rejections <= cell.reps


def test_rates_and_standard_errors():
    rep = run_power_study(small_config())
    for cell in rep.cells.values():
        assert 0.0 <= cell.rate <= 1.0
        assert cell.std_error == pytest.approx(
            (cell.rate * (1 - cell.rate) / cell.reps) ** 0.5)


def test_render_markdown_rounding():
    rep = run_power_study(small_config(mc_reps=1))
    cell = rep.cells[("Burr(1,1)", "B_3")]
    cell.rejections, cell.reps = 371, 500  # force a known rate of 0.742
    table = render_table(rep, "markdown")
    assert "| 74" in table
    assert table.splitlines()[0].startswith("| Alt./Test | B_3 | KS |")


def test_render_csv_contains_raw_rates():
    rep = run_power_study(small_config(mc_reps=1))
    cell = rep.cells[("Burr(1,1)", "B_3")]
    cell.rejections, cell.reps = 371, 500
    text = render_table(rep, "csv")
    assert "0.742" in text
    assert "371" in text


def test_report_labels_stay_in_one_cell(tmp_path):
    # a default label holds a comma, and labels may hold quotes or pipes
    doc = {"n": 20, "alpha": 0.1, "mc_reps": 1, "bootstrap_B": 5, "seed": 3,
           "statistics": [{"stat": "ks"}],
           "alternatives": [{"family": "weibull", "params": {"k": 0.5, "lam": 1}},
                            {"family": "exponential", "params": {"lam": 1}, "label": 'say "E"'},
                            {"family": "half_normal", "label": "a|b"}]}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    with open(tmp_path / "report.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [len(row) for row in rows] == [4] * 4
    assert [row[0] for row in rows] == ["alternative", "weibull(0.5,1)", 'say "E"', "a|b"]
    table = (tmp_path / "report.md").read_text().splitlines()
    assert table[-1].startswith("| a\\|b | ")
    assert all(line.replace("\\|", "").count("|") == 3 for line in table)


def test_render_empty_alternatives_header_only():
    rep = run_power_study(small_config(mc_reps=1))
    rep.config = PowerStudyConfig(
        n=40, alpha=0.1, mc_reps=1, bootstrap_B=25, seed=1,
        statistics=(StatisticId("ks"),), alternatives=(("x", BURR11),))
    object.__setattr__(rep.config, "alternatives", ())
    table = render_table(rep, "markdown")
    assert len(table.strip().splitlines()) == 2  # header + separator


# --------------------------------------------------------------------------
# config schema
# --------------------------------------------------------------------------

GOOD_DOC = {
    "n": 40, "alpha": 0.1, "mc_reps": 2, "bootstrap_B": 10, "seed": 3,
    "statistics": [{"stat": "B", "a": 3.0}, {"stat": "ks"}],
    "alternatives": [{"family": "burr_xii", "params": {"k": 1, "c": 1}}],
}


def test_config_from_dict_round_trip():
    cfg = config_from_dict(GOOD_DOC)
    assert cfg.n == 40
    assert cfg.statistics[0].label == "B_3"
    assert cfg.alternatives[0][0] == "burr_xii(1,1,1)"
    assert len(config_hash(cfg)) == 16


def test_config_hash_is_pinned():
    # the hash names a study in its report: it must not move when the code does
    assert config_hash(config_from_dict(GOOD_DOC)) == "8bca4191e2bcc51a"


def test_config_rejects_zero_reps():
    doc = dict(GOOD_DOC, mc_reps=0)
    with pytest.raises(ConfigError, match="mc_reps"):
        config_from_dict(doc)


def test_config_rejects_unknown_statistic():
    doc = dict(GOOD_DOC, statistics=[{"stat": "bogus"}])
    with pytest.raises(ConfigError, match="valid tags"):
        config_from_dict(doc)


def test_config_rejects_bad_weights():
    doc = dict(GOOD_DOC, statistics=[{"stat": "B", "a": "1"}, {"stat": "L2", "a": 1e300},
                                     {"stat": "B", "a": True}, {"stat": "B", "a": 1}])
    with pytest.raises(ConfigError) as err:
        config_from_dict(doc)
    assert [p.split(":")[0] for p in err.value.problems] == [
        "statistics[0]", "statistics[1]", "statistics[2]"]


def test_config_reports_all_problems_at_once():
    doc = dict(GOOD_DOC, mc_reps=0, alpha=7, statistics=[{"stat": "bogus"}])
    with pytest.raises(ConfigError) as err:
        config_from_dict(doc)
    assert len(err.value.problems) == 3


def test_config_rejects_bad_alternative_params():
    doc = dict(GOOD_DOC, alternatives=[{"family": "gamma", "params": {"k": -1, "lam": 1}}])
    with pytest.raises(ConfigError, match="alternatives"):
        config_from_dict(doc)


def test_config_rejects_non_finite_alternative_params(tmp_path, capsys):
    # JSON's Infinity parses to a float inf: a config error, exit 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(GOOD_DOC, alternatives=[
        {"family": "exponential", "params": {"lam": math.inf}}])))
    assert "Infinity" in cfg.read_text()
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == ("config error: alternatives[0]: "
                                       "parameter 'lam' must be finite, got inf\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("alternative, problem", [
    # a JSON string or boolean is not a number, though float() would take it
    ({"family": "exponential", "params": {"lam": "2"}},
     "alternatives[0]: params: expected an object of numbers, got {'lam': '2'}"),
    ({"family": "exponential", "params": {"lam": True}},
     "alternatives[0]: params: expected an object of numbers, got {'lam': True}"),
    ({"family": "exponential", "params": {"lam": 1}, "label": 5},
     "alternatives[0]: label: expected a string, got 5"),
    ({"family": "exponential", "params": {"lam": 1}, "lable": "E"},
     "alternatives[0]: unknown keys ['lable']; allowed: ['family', 'params', 'label']"),
], ids=["string-param", "boolean-param", "number-label", "misspelt-key"])
def test_config_rejects_loose_alternative_entries(tmp_path, capsys, alternative, problem):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(GOOD_DOC, alternatives=[alternative])))
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == f"config error: {problem}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("entry", [{"stat": "ks", "sqrt_n": True}, {"stat": "B", "a": 1, "A": 2}])
def test_config_rejects_unknown_statistic_keys(tmp_path, capsys, entry):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(GOOD_DOC, statistics=[entry])))
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    unknown = sorted(set(entry) - {"stat", "a"})
    assert capsys.readouterr().err == (f"config error: statistics[0]: unknown keys {unknown}; "
                                       f"allowed: ['stat', 'a']\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("stats", [[{"stat": "B", "a": 1}, {"stat": "B", "a": 1.0}],
                                   [{"stat": "ks"}, {"stat": "ks"}]])
def test_config_rejects_statistics_with_one_label(tmp_path, capsys, stats):
    # a report cell is keyed by the statistic's label: two statistics with
    # one label would share a cell and repeat a table column
    doc = dict(GOOD_DOC, statistics=stats)
    with pytest.raises(ConfigError) as err:
        config_from_dict(doc)
    assert err.value.problems == ["statistics: labels must be unique"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == "config error: statistics: labels must be unique\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("family", ["gamma", "normal"])
def test_config_rejects_B_under_another_family(tmp_path, capsys, family):
    # B_{n,a} is defined for the Burr family only: a config error, not a
    # study whose every replicate fails
    doc = dict(GOOD_DOC, family=family)
    with pytest.raises(ConfigError) as err:
        config_from_dict(doc)
    problem = "statistics: the burr_B statistic applies to the burr family only"
    assert err.value.problems == [problem]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == f"config error: {problem}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("doc, problem", [
    (dict(GOOD_DOC, statistics=5), "statistics: expected a list, got 5"),
    (dict(GOOD_DOC, alternatives=7), "alternatives: expected a list, got 7"),
    (dict(GOOD_DOC, statistics={"stat": "ks"}), "statistics: expected a list, got {'stat': 'ks'}"),
    ([GOOD_DOC], "config: expected a JSON object, got list"),
    (dict(GOOD_DOC, statistics=[{"stat": ["B"]}]),
     "statistics[0]: unknown statistic tag ['B']; valid tags: B, L2, ad, cvm, ks, watson"),
    (dict(GOOD_DOC, alternatives=[{"family": ["gamma"]}]),
     "alternatives[0]: family: expected a string, got ['gamma']"),
    (dict(GOOD_DOC, alternatives=[{"family": {"name": "gamma"}}]),
     "alternatives[0]: family: expected a string, got {'name': 'gamma'}"),
    # a falsy value is no empty list
    (dict(GOOD_DOC, statistics=0), "statistics: expected a list, got 0"),
    (dict(GOOD_DOC, statistics=None), "statistics: expected a list, got None"),
    (dict(GOOD_DOC, alternatives=False), "alternatives: expected a list, got False"),
    (dict(GOOD_DOC, alternatives=[{"family": "half_cauchy", "params": []}]),
     "alternatives[0]: params: expected an object of numbers, got []"),
], ids=["int-statistics", "int-alternatives", "object-statistics", "top-level-array",
        "list-stat-name", "list-family", "object-family", "zero-statistics", "null-statistics",
        "false-alternatives", "array-params"])
def test_malformed_config_is_a_schema_error(tmp_path, capsys, doc, problem):
    # a config of the wrong JSON types is named field by field, exit 2, and
    # never ends in a traceback
    with pytest.raises(ConfigError) as err:
        config_from_dict(doc)
    assert err.value.problems == [problem]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == f"config error: {problem}\n"
    assert not (tmp_path / "out").exists()


def test_config_names_every_problem_in_one_pass(tmp_path, capsys):
    # a bad n does not hide the rules on the lists and the family
    doc = dict(GOOD_DOC, n=1, family="weibull", statistics=[{"stat": "ks"}, {"stat": "ks"}])
    problems = ["n: expected an integer >= 2, got 1", "statistics: labels must be unique",
                "family: expected one of burr/gamma/normal, got 'weibull'"]
    with pytest.raises(ConfigError) as err:
        config_from_dict(doc)
    assert err.value.problems == problems
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == "".join(f"config error: {p}\n" for p in problems)
    assert not (tmp_path / "out").exists()


def test_validate_rejects_an_unknown_family():
    with pytest.raises(ConfigError) as err:
        small_config(family="weibull").validate()
    assert err.value.problems == ["family: expected one of burr/gamma/normal, got 'weibull'"]
    with pytest.raises(ConfigError):
        run_power_study(small_config(family="weibull", mc_reps=1))
    with pytest.raises(ConfigError, match="family: expected one of"):
        config_from_dict(dict(GOOD_DOC, family="weibull"))


def test_config_rejects_alternatives_with_one_label(tmp_path, capsys):
    # a report cell is keyed by the alternative's label too
    doc = dict(GOOD_DOC, alternatives=[
        {"family": "burr_xii", "params": {"k": 1, "c": 1}, "label": "A"},
        {"family": "weibull", "params": {"k": 0.5, "lam": 1}, "label": "A"}])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == "config error: alternatives: labels must be unique\n"
    assert not (tmp_path / "out").exists()


def test_run_power_study_validates_its_config(monkeypatch):
    # a config built in code, not read from JSON, is held to the same rules,
    # with the same messages, before any draw
    monkeypatch.setattr(sim, "_run_chunk", lambda *args: pytest.fail("drew"))
    for overrides, problems in [
        (dict(n=1, mc_reps=0), ["n: expected an integer >= 2, got 1",
                                "mc_reps: expected an integer >= 1, got 0"]),
        (dict(n=20.5), ["n: expected an integer >= 2, got 20.5"]),
        (dict(seed="x"), ["seed: expected an integer, got 'x'"]),
        (dict(share_bootstrap="no"), ["share_bootstrap: expected a boolean, got 'no'"]),
        (dict(bootstrap_B=True), ["bootstrap_B: expected an integer >= 1, got True"]),
    ]:
        with pytest.raises(ConfigError) as err:
            run_power_study(small_config(**overrides))
        assert err.value.problems == problems


def test_simulate_with_gamma_draws_that_overflow(tmp_path, capsys):
    # at k = lam = 1e308 every gamma draw overflows to inf, without a
    # RuntimeWarning: each replicate's fit fails and the cell is aborted
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(GOOD_DOC, alternatives=[
        {"family": "gamma", "params": {"k": 1e308, "lam": 1e308}}])))
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--threads", "1"])
    assert code == 0
    assert capsys.readouterr().err == ""
    cells = json.loads((tmp_path / "out" / "report.json").read_text())["cells"]
    assert [(c["reps"], c["failures"], c["aborted"]) for c in cells] == [(0, 2, True)] * 2


def test_config_json_serializable():
    cfg = config_from_dict(GOOD_DOC)
    from steinfit.simulation import config_to_dict
    doc = config_to_dict(cfg)
    json.dumps(doc)
    assert config_from_dict(doc).statistics == cfg.statistics


@pytest.mark.parametrize("share", [False, True])
def test_programming_errors_are_not_counted_as_failed_replicates(monkeypatch, share):
    import steinfit.bootstrap as bs

    def broken(family, stats, X, params):
        raise ZeroDivisionError("a bug, not a failed fit")

    monkeypatch.setattr(bs, "replicate_statistics", broken)
    with pytest.raises(ZeroDivisionError):
        run_power_study(small_config(mc_reps=1, share_bootstrap=share), workers=1)
