"""Monte Carlo power-study harness.

Repeatedly draws samples from each alternative, runs the parametric
bootstrap test for every statistic, and tallies rejection rates.  By
default all statistics share one fit and one set of bootstrap draws per
replicate (each statistic still ranks its own bootstrap distribution),
which cuts the cost by the number of statistics; ``share_bootstrap=False``
gives every statistic its own independent bootstrap instead.

The replicates are run in chunks of consecutive replicates of one
alternative (``_chunks``), and a chunk is handled as rows: one
``sample_rows`` call draws its K samples, and ``bootstrap.bootstrap_rows``
fits them with one row-fit call and scores them with one kernel call, then
runs each replicate's bootstrap block (``bootstrap.bootstrap_block``, the
engine ``bootstrap_test`` uses too), which draws, re-fits and scores its B
replicates as one matrix and drops a replicate whole when its re-fit or any
statistic fails.  A replicate whose own fit, statistic or bootstrap fails
is counted as failed alone.

Every random draw is keyed by (master seed, alternative label, replicate
index), so reports are bit-identical regardless of worker count, of how the
replicates are cut into chunks, or of which other alternatives appear in
the config.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import time
from dataclasses import MISSING, dataclass, field, fields

from .bootstrap import (
    BLOCK_DRAWS,
    FAMILIES,
    bootstrap_rows,
    check_statistics,
    decide,
)
# unused here, but bench/tracer.py wraps these names in this module's namespace
from .bootstrap import bootstrap_test, evaluate_statistic, fit_family_retry  # noqa: F401
from .bootstrap import fitted_distribution  # noqa: F401
from .distributions import sample  # noqa: F401
from .distributions import DistributionSpec, RngStream, make_distribution, sample_rows
from .gof import STAT_NAMES, STATISTICS, StatisticId

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
        """Raise ConfigError naming every field that breaks a rule, else
        return self: the rules hold for a config built in code as for one
        read from JSON, with the same messages."""
        problems = []
        for key, least in (("n", 2), ("mc_reps", 1), ("bootstrap_B", 1)):
            val = getattr(self, key)
            if not _is_integer(val) or val < least:
                problems.append(f"{key}: expected an integer >= {least}, got {val!r}")
        if not _is_integer(self.seed):
            problems.append(f"seed: expected an integer, got {self.seed!r}")
        if not _is_number(self.alpha) or not 0 < self.alpha < 1:
            problems.append(f"alpha: expected a number in (0, 1), got {self.alpha!r}")
        # a report cell and a table column are keyed by these labels
        for key, labels in (("statistics", [stat.label for stat in self.statistics]),
                            ("alternatives", [lbl for lbl, _ in self.alternatives])):
            if not labels:
                problems.append(f"{key}: must be non-empty")
            elif len(set(labels)) != len(labels):
                problems.append(f"{key}: labels must be unique")
        if self.family not in FAMILIES:
            problems.append(f"family: expected one of {'/'.join(FAMILIES)}, got {self.family!r}")
        else:
            try:
                check_statistics(self.family, self.statistics)
            except ValueError as exc:
                problems.append(f"statistics: {exc}")
        if not isinstance(self.share_bootstrap, bool):
            problems.append(f"share_bootstrap: expected a boolean, got {self.share_bootstrap!r}")
        if problems:
            raise ConfigError(problems)
        return self


def config_from_dict(doc: dict) -> PowerStudyConfig:
    """Build a validated config from the JSON document schema.

    Every problem is reported in one ConfigError: those of the config's
    rules (``PowerStudyConfig.validate``), then each ``statistics`` or
    ``alternatives`` entry that cannot be read, then each unknown key.
    """
    if not isinstance(doc, dict):
        raise ConfigError([f"config: expected a JSON object, got {type(doc).__name__}"])
    problems = []

    def entries(key, parse):
        val = doc.get(key, [])
        if not isinstance(val, list):
            problems.append(f"{key}: expected a list, got {val!r}")
            return ()
        out = []
        for i, entry in enumerate(val):
            try:
                out.append(parse(entry))
            except (TypeError, ValueError) as exc:  # ParameterError is a ValueError
                problems.append(f"{key}[{i}]: {exc}")
        return tuple(out)

    values = {f.name: doc.get(f.name, None if f.default is MISSING else f.default)
              for f in fields(PowerStudyConfig)}
    values["statistics"] = entries("statistics", _statistic)
    values["alternatives"] = entries("alternatives", _alternative)
    # a list that is not one, or whose every entry was refused, is empty for
    # a reason named already
    refused = {f"{p.partition(':')[0].partition('[')[0]}: must be non-empty" for p in problems}
    try:
        cfg = PowerStudyConfig(**values).validate()
    except ConfigError as exc:
        problems[:0] = [p for p in exc.problems if p not in refused]
    problems += [f"{key}: unknown config key" for key in sorted(set(doc) - set(values))]
    if problems:
        raise ConfigError(problems)
    return cfg


def _statistic(entry) -> StatisticId:
    _check_entry(entry, "stat", ("stat", "a"))
    name = entry["stat"]
    if not isinstance(name, str) or name not in STAT_NAMES:
        raise ValueError(f"unknown statistic tag {name!r}; valid tags: "
                         f"{', '.join(sorted(STAT_NAMES))}")
    return StatisticId(STAT_NAMES[name], a=entry.get("a"))


def _alternative(entry) -> tuple[str, DistributionSpec]:
    _check_entry(entry, "family", ("family", "params", "label"))
    if not isinstance(entry["family"], str):
        raise ValueError(f"family: expected a string, got {entry['family']!r}")
    params = entry.get("params", {})
    if not isinstance(params, dict) or not all(map(_is_number, params.values())):
        raise ValueError(f"params: expected an object of numbers, got {params!r}")
    if not isinstance(entry.get("label", ""), str):
        raise ValueError(f"label: expected a string, got {entry['label']!r}")
    dist = make_distribution(entry["family"], **params)
    return entry.get("label") or dist.label, dist


def _is_integer(val) -> bool:
    return isinstance(val, int) and not isinstance(val, bool)


def _is_number(val) -> bool:
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def _check_entry(entry, required: str, allowed) -> None:
    """Raise ValueError unless ``entry`` is an object with the key
    ``required`` and no key outside ``allowed``."""
    if not isinstance(entry, dict) or required not in entry:
        raise ValueError(f"expected an object with a '{required}' key")
    unknown = sorted(set(entry) - set(allowed))
    if unknown:
        raise ValueError(f"unknown keys {unknown}; allowed: {list(allowed)}")


def config_to_dict(cfg: PowerStudyConfig) -> dict:
    stats = [{"stat": STATISTICS[s.tag].name} | ({} if s.a is None else {"a": s.a})
             for s in cfg.statistics]
    return {
        "n": cfg.n, "alpha": cfg.alpha, "mc_reps": cfg.mc_reps,
        "bootstrap_B": cfg.bootstrap_B, "seed": cfg.seed,
        "statistics": stats,
        "alternatives": [{"family": d.family, "params": d.param_dict, "label": lbl}
                         for lbl, d in cfg.alternatives],
        "family": cfg.family, "share_bootstrap": cfg.share_bootstrap,
    }


def config_hash(cfg: PowerStudyConfig) -> str:
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

def _run_chunk(cfg: PowerStudyConfig, alt_label: str, alt: DistributionSpec, reps: range):
    """Monte Carlo replicates ``reps`` of one alternative, as rows: each
    replicate's decisions, statistic by statistic in config order, or None
    when it failed (fit breakdown)."""
    roots = RngStream(cfg.seed).children(("alt", alt_label, "rep"), reps)
    X = sample_rows(alt, cfg.n, [root.child("data") for root in roots])
    B = range(1, cfg.bootstrap_B + 1)
    if cfg.share_bootstrap:  # one set of bootstrap draws for every statistic
        runs = [bootstrap_rows(X, cfg.family, cfg.statistics,
                               lambda r: roots[r].children(("boot",), B))]
    else:  # each statistic's own draws, on the streams bootstrap_test gives them
        runs = [bootstrap_rows(X, cfg.family, [stat], lambda r, stat=stat:
                               roots[r].child("stat", stat.label).children(("rep",), B))
                for stat in cfg.statistics]
    return [None if None in row else
            [bool(d) for observed, boot in row for d in decide(observed, boot, cfg.alpha)[2]]
            for row in zip(*runs)]


def _chunks(cfg: PowerStudyConfig, workers: int) -> list[range]:
    """Each alternative's replicates as near-equal consecutive ranges: one
    range with one worker, else enough for about four chunks per worker,
    and never a chunk of more than BLOCK_DRAWS draws."""
    parts = 1 if workers == 1 else math.ceil(4 * workers / len(cfg.alternatives))
    parts = min(cfg.mc_reps, max(parts, math.ceil(cfg.mc_reps / max(1, BLOCK_DRAWS // cfg.n))))
    return [range(i * cfg.mc_reps // parts, (i + 1) * cfg.mc_reps // parts) for i in range(parts)]


def run_power_study(cfg: PowerStudyConfig, workers: int = 1) -> PowerStudyReport:
    """Execute the study; identical output for any worker count."""
    cfg.validate()
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    start = time.perf_counter()
    chunks = _chunks(cfg, workers)
    jobs = [(cfg, alt_label, alt, reps) for alt_label, alt in cfg.alternatives for reps in chunks]
    if workers > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pool loads multiprocessing
        # the pool starts all its workers at once: no more than it has chunks
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            results = list(pool.map(_run_chunk, *zip(*jobs)))
    else:
        results = [_run_chunk(*job) for job in jobs]
    outcomes = [outcome for chunk in results for outcome in chunk]

    report = PowerStudyReport(config=cfg)
    for i, (alt_label, _) in enumerate(cfg.alternatives):
        done = [r for r in outcomes[i * cfg.mc_reps:(i + 1) * cfg.mc_reps] if r is not None]
        failures = cfg.mc_reps - len(done)
        aborted = failures > MAX_CELL_FAILURE_FRACTION * cfg.mc_reps
        for j, stat in enumerate(cfg.statistics):
            report.cells[(alt_label, stat.label)] = CellResult(
                sum(r[j] for r in done), len(done), failures, aborted)
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
    A label holding ``|`` is escaped in markdown; one holding a comma or a
    quote is quoted in csv.
    """
    cfg = report.config
    stat_labels = [s.label for s in cfg.statistics]
    alt_labels = [lbl for lbl, _ in cfg.alternatives]

    if format == "markdown":
        def md(label):
            return label.replace("|", "\\|")

        lines = ["| Alt./Test | " + " | ".join(map(md, stat_labels)) + " |",
                 "|" + "---|" * (len(stat_labels) + 1)]
        for alt in alt_labels:
            row = [md(alt)]
            for stat in stat_labels:
                cell = report.cells[(alt, stat)]
                mark = "*" if cell.aborted else ""
                row.append(f"{_round_half_away(100.0 * cell.rate)}{mark}" if cell.reps else "-")
            lines.append("| " + " | ".join(row) + " |")
        return "\n".join(lines) + "\n"

    if format == "csv":
        header = ["alternative"]
        for stat in stat_labels:
            header += [f"{stat}_rate", f"{stat}_rejections", f"{stat}_reps"]
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        for alt in alt_labels:
            row = [alt]
            for stat in stat_labels:
                cell = report.cells[(alt, stat)]
                rate = "" if not cell.reps else repr(cell.rate)
                row += [rate, cell.rejections, cell.reps]
            writer.writerow(row)
        return out.getvalue()

    raise ValueError("format must be 'markdown' or 'csv'")
