import json

import pytest

from steinfit.distributions import make_distribution
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
    cfg = small_config()
    r1 = run_power_study(cfg, workers=1)
    r2 = run_power_study(cfg, workers=2)
    assert {k: (c.rejections, c.reps) for k, c in r1.cells.items()} == \
        {k: (c.rejections, c.reps) for k, c in r2.cells.items()}


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


def test_config_rejects_zero_reps():
    doc = dict(GOOD_DOC, mc_reps=0)
    with pytest.raises(ConfigError, match="mc_reps"):
        config_from_dict(doc)


def test_config_rejects_unknown_statistic():
    doc = dict(GOOD_DOC, statistics=[{"stat": "bogus"}])
    with pytest.raises(ConfigError, match="valid tags"):
        config_from_dict(doc)


def test_config_reports_all_problems_at_once():
    doc = dict(GOOD_DOC, mc_reps=0, alpha=7, statistics=[{"stat": "bogus"}])
    with pytest.raises(ConfigError) as err:
        config_from_dict(doc)
    assert len(err.value.problems) == 3


def test_config_rejects_bad_alternative_params():
    doc = dict(GOOD_DOC, alternatives=[{"family": "gamma", "params": {"k": -1, "lam": 1}}])
    with pytest.raises(ConfigError, match="alternatives"):
        config_from_dict(doc)


def test_config_json_serializable():
    cfg = config_from_dict(GOOD_DOC)
    from steinfit.simulation import config_to_dict
    doc = config_to_dict(cfg)
    json.dumps(doc)
    assert config_from_dict(doc).statistics == cfg.statistics


@pytest.mark.parametrize("share", [False, True])
def test_programming_errors_are_not_counted_as_failed_replicates(monkeypatch, share):
    import steinfit.bootstrap as bs

    def broken(family, stat, data, fit):
        raise ZeroDivisionError("a bug, not a failed fit")

    monkeypatch.setattr(bs, "evaluate_statistic", broken)
    with pytest.raises(ZeroDivisionError):
        run_power_study(small_config(mc_reps=1, share_bootstrap=share), workers=1)
