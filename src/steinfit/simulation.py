"""Monte Carlo power-study harness.

Repeatedly draws samples from each alternative, runs the parametric
bootstrap test for every statistic, and tallies rejection rates.  By
default all statistics share one fit and one set of bootstrap draws per
replicate (each statistic still ranks its own bootstrap distribution),
which cuts the cost by the number of statistics; ``share_bootstrap=False``
gives every statistic its own independent bootstrap instead.  Both modes
run the one bootstrap engine, ``bootstrap.bootstrap_replicates``, which
draws, re-fits and scores the B replicates of a sample as one matrix and
drops a replicate whole when its re-fit or any statistic fails.

Every random draw is keyed by (master seed, alternative label, replicate
index), so reports are bit-identical regardless of worker count or of which
other alternatives appear in the config.
"""

from __future__ import annotations

import hashlib
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .bootstrap import (
    FAMILIES,
    BootstrapError,
    bootstrap_replicates,
    bootstrap_test,
    critical_rank,
)
# unused here, but bench/tracer.py wraps these names in this module's namespace
from .bootstrap import evaluate_statistic, fit_family_retry, fitted_distribution  # noqa: F401
from .distributions import DistributionSpec, ParameterError, RngStream, make_distribution, sample
from .estimation import FitError
from .gof import STAT_NAMES, StatisticId

MAX_CELL_FAILURE_FRACTION = 0.05


class ConfigError(ValueError):
    """Invalid power-study configuration; carries one message per field."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


@dataclass(frozen=True)
class PowerStudyConfig:
    n: int
    alpha: float
    mc_reps: int
    bootstrap_B: int
    seed: int
    statistics: tuple[StatisticId, ...]
    alternatives: tuple[tuple[str, DistributionSpec], ...]  # (label, law)
    family: str = "burr"
    share_bootstrap: bool = True

    def validate(self):
        problems = []
        if self.n < 2:
            problems.append("n: must be >= 2")
        if not 0.0 < self.alpha < 1.0:
            problems.append("alpha: must lie in (0, 1)")
        if self.mc_reps < 1:
            problems.append("mc_reps: must be >= 1")
        if self.bootstrap_B < 1:
            problems.append("bootstrap_B: must be >= 1")
        if not self.statistics:
            problems.append("statistics: must be non-empty")
        if not self.alternatives:
            problems.append("alternatives: must be non-empty")
        labels = [lbl for lbl, _ in self.alternatives]
        if len(set(labels)) != len(labels):
            problems.append("alternatives: labels must be unique")
        if problems:
            raise ConfigError(problems)
        return self


def config_from_dict(doc: dict) -> PowerStudyConfig:
    """Build a validated config from the JSON document schema.

    Collects every field problem before raising so a bad config is reported
    in one pass.
    """
    problems = []

    def intfield(key, minimum):
        val = doc.get(key)
        if not isinstance(val, int) or isinstance(val, bool) or val < minimum:
            problems.append(f"{key}: expected an integer >= {minimum}, got {val!r}")
            return minimum
        return val

    n = intfield("n", 2)
    mc_reps = intfield("mc_reps", 1)
    bootstrap_b = intfield("bootstrap_B", 1)
    seed = doc.get("seed")
    if not isinstance(seed, int) or isinstance(seed, bool):
        problems.append(f"seed: expected an integer, got {seed!r}")
        seed = 0
    alpha = doc.get("alpha")
    if not isinstance(alpha, (int, float)) or isinstance(alpha, bool) or not 0 < alpha < 1:
        problems.append(f"alpha: expected a number in (0, 1), got {alpha!r}")
        alpha = 0.1

    stats = []
    for i, entry in enumerate(doc.get("statistics") or []):
        try:
            if not isinstance(entry, dict) or "stat" not in entry:
                raise ValueError("expected an object with a 'stat' key")
            name = entry["stat"]
            if name not in STAT_NAMES:
                raise ValueError(f"unknown statistic tag {name!r}; valid tags: "
                                 f"{', '.join(sorted(STAT_NAMES))}")
            stats.append(StatisticId(STAT_NAMES[name], a=entry.get("a"),
                                     sqrt_n=bool(entry.get("sqrt_n", False))))
        except ValueError as exc:
            problems.append(f"statistics[{i}]: {exc}")
    if not stats and not problems:
        problems.append("statistics: must be non-empty")

    alts = []
    for i, entry in enumerate(doc.get("alternatives") or []):
        try:
            if not isinstance(entry, dict) or "family" not in entry:
                raise ValueError("expected an object with a 'family' key")
            dist = make_distribution(entry["family"], **(entry.get("params") or {}))
            alts.append((entry.get("label") or dist.label, dist))
        except (ParameterError, TypeError, ValueError) as exc:
            problems.append(f"alternatives[{i}]: {exc}")
    if not alts and not problems:
        problems.append("alternatives: must be non-empty")

    family = doc.get("family", "burr")
    if family not in FAMILIES:
        problems.append(f"family: expected one of {'/'.join(FAMILIES)}, got {family!r}")

    share = doc.get("share_bootstrap", True)
    if not isinstance(share, bool):
        problems.append(f"share_bootstrap: expected a boolean, got {share!r}")
        share = True

    unknown = set(doc) - {"n", "alpha", "mc_reps", "bootstrap_B", "seed", "statistics",
                          "alternatives", "family", "share_bootstrap"}
    for key in sorted(unknown):
        problems.append(f"{key}: unknown config key")

    if problems:
        raise ConfigError(problems)
    return PowerStudyConfig(n=n, alpha=alpha, mc_reps=mc_reps, bootstrap_B=bootstrap_b,
                            seed=seed, statistics=tuple(stats), alternatives=tuple(alts),
                            family=family, share_bootstrap=share).validate()


def config_to_dict(cfg: PowerStudyConfig) -> dict:
    stats = []
    for s in cfg.statistics:
        entry = {"stat": {v: k for k, v in STAT_NAMES.items()}[s.tag]}
        if s.a is not None:
            entry["a"] = s.a
        if s.sqrt_n:
            entry["sqrt_n"] = True
        stats.append(entry)
    return {
        "n": cfg.n, "alpha": cfg.alpha, "mc_reps": cfg.mc_reps,
        "bootstrap_B": cfg.bootstrap_B, "seed": cfg.seed,
        "statistics": stats,
        "alternatives": [{"family": d.family, "params": d.param_dict, "label": lbl}
                         for lbl, d in cfg.alternatives],
        "family": cfg.family, "share_bootstrap": cfg.share_bootstrap,
    }


def config_hash(cfg: PowerStudyConfig) -> str:
    import json
    text = json.dumps(config_to_dict(cfg), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# --------------------------------------------------------------------------
# Report
# --------------------------------------------------------------------------

@dataclass
class CellResult:
    rejections: int = 0
    reps: int = 0
    failures: int = 0
    aborted: bool = False

    @property
    def rate(self) -> float:
        return self.rejections / self.reps if self.reps else math.nan

    @property
    def std_error(self) -> float:
        if not self.reps:
            return math.nan
        r = self.rate
        return math.sqrt(r * (1.0 - r) / self.reps)


@dataclass
class PowerStudyReport:
    config: PowerStudyConfig
    cells: dict = field(default_factory=dict)  # (alt_label, stat_label) -> CellResult
    wall_time_s: float = 0.0

    def cell(self, alt_label: str, stat_label: str) -> CellResult:
        return self.cells[(alt_label, stat_label)]

    def to_dict(self) -> dict:
        return {
            "config": config_to_dict(self.config),
            "config_hash": config_hash(self.config),
            "cells": [
                {"alternative": alt, "statistic": stat,
                 "rejections": c.rejections, "reps": c.reps, "rate": c.rate,
                 "std_error": c.std_error, "failures": c.failures, "aborted": c.aborted}
                for (alt, stat), c in self.cells.items()
            ],
            "wall_time_s": self.wall_time_s,
        }


# --------------------------------------------------------------------------
# Execution
# --------------------------------------------------------------------------

def _run_one_replicate(cfg: PowerStudyConfig, alt_label: str, alt: DistributionSpec,
                       rep: int):
    """One Monte Carlo replicate: either a dict {stat_label: reject} or None
    when the replicate failed (fit breakdown)."""
    root = RngStream(cfg.seed).child("alt", alt_label, "rep", rep)
    x = sample(alt, cfg.n, root.child("data")).values
    try:
        if not cfg.share_bootstrap:
            return {stat.label: bootstrap_test(x, cfg.family, stat, cfg.bootstrap_B, cfg.alpha,
                                               root.child("stat", stat.label)).reject
                    for stat in cfg.statistics}
        _, observed, boot, _ = bootstrap_replicates(
            x, cfg.family, cfg.statistics, cfg.bootstrap_B, lambda b: root.child("boot", b))
    except (BootstrapError, FitError, ValueError, FloatingPointError):
        return None
    crit = np.sort(boot, axis=0)[critical_rank(boot.shape[0], cfg.alpha) - 1]
    return {stat.label: bool(obs > c) for stat, obs, c in zip(cfg.statistics, observed, crit)}


def _run_chunk(args):
    cfg, alt_label, alt, reps = args
    return alt_label, [(rep, _run_one_replicate(cfg, alt_label, alt, rep)) for rep in reps]


def run_power_study(cfg: PowerStudyConfig, workers: int = 1) -> PowerStudyReport:
    """Execute the study; identical output for any worker count."""
    cfg.validate()
    start = time.perf_counter()
    results = {lbl: {} for lbl, _ in cfg.alternatives}

    tasks = []
    chunk = max(1, math.ceil(cfg.mc_reps / max(1, 4 * workers)))
    for alt_label, alt in cfg.alternatives:
        for lo in range(0, cfg.mc_reps, chunk):
            tasks.append((cfg, alt_label, alt, range(lo, min(lo + chunk, cfg.mc_reps))))

    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for alt_label, pairs in pool.map(_run_chunk, tasks):
                results[alt_label].update(dict(pairs))
    else:
        for task in tasks:
            alt_label, pairs = _run_chunk(task)
            results[alt_label].update(dict(pairs))

    report = PowerStudyReport(config=cfg)
    for alt_label, _ in cfg.alternatives:
        per_rep = [results[alt_label][rep] for rep in range(cfg.mc_reps)]
        failures = sum(1 for r in per_rep if r is None)
        aborted = failures > MAX_CELL_FAILURE_FRACTION * cfg.mc_reps
        for stat in cfg.statistics:
            cell = CellResult(failures=failures, aborted=aborted)
            for r in per_rep:
                if r is None:
                    continue
                cell.reps += 1
                cell.rejections += int(r[stat.label])
            report.cells[(alt_label, stat.label)] = cell
    report.wall_time_s = time.perf_counter() - start
    return report


# --------------------------------------------------------------------------
# Rendering
# --------------------------------------------------------------------------

def _round_half_away(v: float) -> int:
    return int(math.floor(v + 0.5)) if v >= 0 else -int(math.floor(-v + 0.5))


def render_table(report: PowerStudyReport, format: str = "markdown") -> str:
    """Rows are alternatives, columns statistics, in config order.

    markdown: integer rejection percentages (rounded half away from zero).
    csv: unrounded rates plus rejection and replicate counts.
    """
    cfg = report.config
    stat_labels = [s.label for s in cfg.statistics]
    alt_labels = [lbl for lbl, _ in cfg.alternatives]

    if format == "markdown":
        lines = ["| Alt./Test | " + " | ".join(stat_labels) + " |",
                 "|" + "---|" * (len(stat_labels) + 1)]
        for alt in alt_labels:
            row = [alt]
            for stat in stat_labels:
                cell = report.cells[(alt, stat)]
                mark = "*" if cell.aborted else ""
                row.append(("" if cell.reps else "-") if not cell.reps
                           else f"{_round_half_away(100.0 * cell.rate)}{mark}")
            lines.append("| " + " | ".join(row) + " |")
        return "\n".join(lines) + "\n"

    if format == "csv":
        header = ["alternative"]
        for stat in stat_labels:
            header += [f"{stat}_rate", f"{stat}_rejections", f"{stat}_reps"]
        lines = [",".join(header)]
        for alt in alt_labels:
            row = [alt]
            for stat in stat_labels:
                cell = report.cells[(alt, stat)]
                rate = "" if not cell.reps else repr(cell.rate)
                row += [rate, str(cell.rejections), str(cell.reps)]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    raise ValueError("format must be 'markdown' or 'csv'")
