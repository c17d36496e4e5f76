#!/usr/bin/env python3
"""Compare steinfit's outputs between two source checkouts on a fixed corpus.

    python scripts/compare_outputs.py OLD_CHECKOUT NEW_CHECKOUT

Each checkout runs the same corpus through its own ``steinfit.cli.main``, in
a fresh interpreter with that checkout's ``src`` first on the path:

* ``steinfit test`` (n = 100, B = 100, a seed per data set) on 30 seeded data
  sets per family, half drawn from the hypothesis family and half from an alternative:
  burr with B and L2 at a = 0.25, 1, 3 and ks; gamma with L2 at the three
  a-values and ad; normal with L2 at the three a-values and cvm;
* ``steinfit simulate`` at ``--threads 1`` and at ``--threads 2`` (a
  two-process pool) on two small Burr configs, one with EDF statistics only
  and one with B_{n,a} and L2 statistics, and on a small normal config (ks
  and L2 at a = 1) whose alternatives cover every catalog family, so that
  every family's draws are compared;
* ``steinfit test`` with B at a = 1 and ks on 3 samples (n = 80) from
  Burr XII(k = 1, c = 3000), whose fitted c lies past 1e3;
* ``steinfit simulate`` on nine configs that must be refused with exit 2:
  ``statistics`` or ``alternatives`` a number, a top-level array, a
  statistic name that is a list, an alternative family that is a list or
  an object, B_{n,a} under the gamma family, an alternative whose
  ``params`` is an array, and one config with three problems (n = 1, an
  unknown family and two statistics with one label);
* ``steinfit verify`` on each of the 18 cases of ``scripts/verify_catalog.py``.

A run that raises is recorded with a null exit code and the traceback as its
stderr, and the corpus goes on.

The script prints the share of byte-identical outputs (exit code, stdout,
stderr, and every report file but the ``wall_time_s`` line), the worst
relative change of ``statistic_value`` and ``critical_value`` (and, when a
run's ``fit`` changed, of each fitted parameter and ``loglik`` over the
changed fits), and every run
whose exit code, stderr, warnings, ``fit``, ``p_value``, ``reject``,
``effective_B`` or ``failed_replicates`` changed, or whose simulate report
changed.  Of a ``verify`` run it prints each field that moved, by its dotted
path: a number only when it moved by more than 1e-13 relative, with its
relative change, and any other value (a verdict, ``supported``, a note) when
it changed at all.  It exits 0 when nothing was printed as moved or changed
and both test values moved by at most 1e-13 relative, and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np

from verify_catalog import CASES

DATASETS = 30  # data sets per family
N = 100  # observations per data set
B = 100  # bootstrap replicates per test
RTOL = 1e-13  # allowed relative change of statistic_value, critical_value and verify numbers
A_VALUES = (0.25, 1.0, 3.0)
# family -> (statistics run on each data set, as (stat, a) with a None for EDF)
STATS = {
    "burr": [("B", a) for a in A_VALUES] + [("L2", a) for a in A_VALUES] + [("ks", None)],
    "gamma": [("L2", a) for a in A_VALUES] + [("ad", None)],
    "normal": [("L2", a) for a in A_VALUES] + [("cvm", None)],
}
CLOSE_FIELDS = ("statistic_value", "critical_value")
# Burr XII(k = 1, c = EDGE_C) samples of EDGE_N observations, EDGE_DATASETS of
# them, tested with each of EDGE_STATS: their fitted c lies past 1e3
EDGE_C, EDGE_N, EDGE_DATASETS = 3000.0, 80, 3
EDGE_STATS = [("B", 1.0), ("ks", None)]
BURR_ALTERNATIVES = [
    {"family": "burr_xii", "params": {"k": 1, "c": 1}, "label": "BurrXII(1,1)"},
    {"family": "weibull", "params": {"k": 0.5, "lam": 1}, "label": "W(0.5)"},
    {"family": "exponential", "params": {"lam": 1}, "label": "Exp(1)"},
    {"family": "half_cauchy", "params": {}, "label": "HC"},
]
SIMULATE = {
    "edf": {"n": 50, "alpha": 0.1, "mc_reps": 6, "bootstrap_B": 50, "seed": 11,
            "statistics": [{"stat": s} for s in ("ks", "cvm", "ad", "watson")],
            "alternatives": BURR_ALTERNATIVES},
    "weighted_l2": {"n": 50, "alpha": 0.1, "mc_reps": 6, "bootstrap_B": 50, "seed": 12,
                    "statistics": [{"stat": "B", "a": a} for a in A_VALUES]
                    + [{"stat": "L2", "a": 1.0}, {"stat": "ks"}],
                    "alternatives": BURR_ALTERNATIVES},
    "all_families": {"n": 30, "alpha": 0.1, "mc_reps": 3, "bootstrap_B": 20, "seed": 13,
                     "family": "normal", "statistics": [{"stat": "ks"}, {"stat": "L2", "a": 1.0}],
                     "alternatives": [{"family": family, "params": kw}
                                      for family, kw in dict(CASES).items()]},
}
# configs ``steinfit simulate`` must refuse with exit 2, written as they stand
REFUSED = {
    "int_statistics": dict(SIMULATE["edf"], statistics=5),
    "int_alternatives": dict(SIMULATE["edf"], alternatives=7),
    "top_level_array": [SIMULATE["edf"]],
    "list_stat_name": dict(SIMULATE["edf"], statistics=[{"stat": ["B"]}]),
    "list_family": dict(SIMULATE["edf"], alternatives=[{"family": ["gamma"]}]),
    "object_family": dict(SIMULATE["edf"], alternatives=[{"family": {"name": "gamma"}}]),
    "B_under_gamma": dict(SIMULATE["weighted_l2"], family="gamma"),
    "array_params": dict(SIMULATE["edf"], alternatives=[{"family": "half_cauchy", "params": []}]),
    "three_problems": dict(SIMULATE["edf"], n=1, family="weibull",
                           statistics=[{"stat": "ks"}, {"stat": "ks"}]),
}

# Runs the corpus inside one checkout: argv = [checkout, corpus.json, results.json].
RUNNER = r"""
import contextlib, io, json, os, sys, traceback, warnings
checkout, corpus_path, out_path = sys.argv[1:]
sys.path.insert(0, os.path.join(checkout, "src"))
import steinfit.cli
if not os.path.realpath(steinfit.cli.__file__).startswith(os.path.realpath(checkout) + os.sep):
    raise SystemExit(f"steinfit imported from {steinfit.cli.__file__}, not {checkout}")
results = []
for run in json.load(open(corpus_path)):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = steinfit.cli.main(run["argv"])
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = None
            traceback.print_exc()
    files = {}
    for name in run.get("files", []):
        with open(os.path.join(run["out_dir"], name)) as fh:
            files[name] = "".join(ln for ln in fh if '"wall_time_s"' not in ln)
    results.append({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
                    "warnings": sorted({f"{w.category.__name__}: {w.message}" for w in caught}),
                    "files": files})
json.dump(results, open(out_path, "w"))
"""


def draw(family: str, index: int) -> np.ndarray:
    """Data set ``index`` for ``family``: even indices from the family, odd
    ones from an alternative to it."""
    rng = np.random.default_rng([2024, index, list(STATS).index(family)])
    null = index % 2 == 0
    if family == "burr":
        if null:
            k, c = rng.uniform(0.5, 3.0, 2)
            return np.expm1(-np.log1p(-rng.random(N)) / k) ** (1.0 / c)
        return [rng.weibull(rng.uniform(0.5, 3.0), N), rng.lognormal(0.0, 1.0, N)][index // 2 % 2]
    if family == "gamma":
        if null:
            return rng.gamma(rng.uniform(0.5, 5.0), rng.uniform(0.5, 2.0), N)
        return [rng.weibull(rng.uniform(0.5, 3.0), N), rng.lognormal(0.0, 0.5, N)][index // 2 % 2]
    if null:
        return rng.normal(rng.uniform(-2.0, 2.0), rng.uniform(0.5, 2.0), N)
    return [rng.laplace(0.0, 1.0, N), rng.standard_t(4, N)][index // 2 % 2]


def draw_edge(index: int) -> np.ndarray:
    """Burr XII(k = 1, c = EDGE_C) data set ``index``, by inversion."""
    u = np.random.default_rng([2024, index, len(STATS)]).random(EDGE_N)
    return np.expm1(-np.log1p(-u)) ** (1.0 / EDGE_C)


def cli_test_runs(work: str, name: str, family: str, data: np.ndarray, stats,
                  index: int) -> list:
    """``steinfit test`` runs of each of ``stats`` on ``data``, seeded by ``index``."""
    path = os.path.join(work, f"{name}_{index}.txt")
    with open(path, "w") as fh:
        fh.write("".join(f"{float(v)!r}\n" for v in data))
    runs = []
    for stat, a in stats:
        argv = ["test", "--data", path, "--family", family, "--stat", stat,
                "--B", str(B), "--seed", str(index)]
        if a is not None:
            argv += ["--a", str(a)]
        group = f"{name}/{stat}" + ("" if a is None else f"_{a:g}")
        runs.append({"group": group, "label": f"{group}/{index}", "argv": argv})
    return runs


def build_corpus(work: str) -> list:
    corpus = []
    for family, stats in STATS.items():
        for index in range(DATASETS):
            corpus += cli_test_runs(work, family, family, draw(family, index), stats, index)
    for index in range(EDGE_DATASETS):
        corpus += cli_test_runs(work, "burr_edge", "burr", draw_edge(index), EDGE_STATS, index)
    for name, doc in SIMULATE.items():
        cfg = os.path.join(work, f"{name}.json")
        with open(cfg, "w") as fh:
            json.dump(doc, fh)
        for threads in ("1", "2"):
            # both sides write here in turn; each run's files are read at once
            out_dir = os.path.join(work, f"simulate_{name}_{threads}")
            corpus.append({"group": f"simulate/{name}", "label": f"simulate/{name}/{threads}",
                           "out_dir": out_dir, "files": ["report.json", "report.csv", "report.md"],
                           "argv": ["simulate", "--config", cfg, "--threads", threads,
                                    "--out", out_dir]})
    for name, doc in REFUSED.items():
        cfg = os.path.join(work, f"refused_{name}.json")
        with open(cfg, "w") as fh:
            json.dump(doc, fh)
        corpus.append({"group": "simulate/refused", "label": f"simulate/refused/{name}",
                       "argv": ["simulate", "--config", cfg, "--threads", "1",
                                "--out", os.path.join(work, f"refused_{name}")]})
    for index, (family, kw) in enumerate(CASES):
        params = ",".join(f"{name}={value}" for name, value in kw.items())
        corpus.append({"group": f"verify/{family}", "label": f"verify/{index}/{family}",
                       "argv": ["verify", "--family", family, "--params", params]})
    return corpus


def run_checkout(checkout: str, corpus: list, work: str, side: str) -> list:
    """Results of ``corpus`` under ``checkout``, one per run."""
    corpus_path = os.path.join(work, "corpus.json")
    out_path = os.path.join(work, f"results_{side}.json")
    with open(corpus_path, "w") as fh:
        json.dump(corpus, fh)
    subprocess.run([sys.executable, "-c", RUNNER, os.path.abspath(checkout), corpus_path,
                    out_path], check=True, env=dict(os.environ, PYTHONPATH=""))
    with open(out_path) as fh:
        return json.load(fh)


def rel_change(old, new) -> float:
    """Relative change between two JSON numbers; inf when either is not one."""
    if old == new:
        return 0.0
    if not (type(old) in (int, float) and type(new) in (int, float)):
        return float("inf")
    return abs(new - old) / max(abs(old), abs(new))


def leaves(doc, prefix: str = "") -> dict:
    """The values of a nested JSON object, keyed by their dotted paths."""
    if not isinstance(doc, dict):
        return {prefix: doc}
    out = {}
    for key, value in doc.items():
        out.update(leaves(value, f"{prefix}.{key}" if prefix else key))
    return out


def compare(corpus, old, new):
    """Print the comparison; return True when nothing beyond ``RTOL`` moved."""
    groups = {}  # group -> [byte-identical runs, runs]
    codes = {}  # exit code -> runs, on the new side
    # field -> (worst relative change, label): CLOSE_FIELDS, and each number
    # of a changed fit by its dotted path
    worst = dict.fromkeys(CLOSE_FIELDS, (0.0, None))
    changed = []

    def note(key, r, label):
        if r > worst.setdefault(key, (0.0, None))[0]:
            worst[key] = (r, label)

    for run, o, w in zip(corpus, old, new):
        label = run["label"]
        tally = groups.setdefault(run["group"], [0, 0])
        tally[0] += o == w
        tally[1] += 1
        codes[w["code"]] = codes.get(w["code"], 0) + 1
        if o == w:
            continue
        for key in ("code", "stderr", "warnings"):
            if o[key] != w[key]:
                changed.append(f"{label}: {key} {o[key]!r} -> {w[key]!r}")
        for name in o["files"]:
            if o["files"][name] != w["files"].get(name):
                changed.append(f"{label}: {name} differs")
        if o["code"] != 0 or w["code"] != 0 or "files" in run:
            continue
        od, wd = json.loads(o["stdout"]), json.loads(w["stdout"])
        if run["argv"][0] == "verify":
            ol, wl = leaves(od), leaves(wd)
            for key in sorted(set(ol) | set(wl)):
                r = rel_change(ol.get(key), wl.get(key))
                if r > RTOL:
                    moved = "" if math.isinf(r) else f" (relative change {r:.3g})"
                    changed.append(f"{label}: {key} {ol.get(key)!r} -> {wl.get(key)!r}{moved}")
            continue
        for key in sorted(set(od) | set(wd)):
            if key in CLOSE_FIELDS:
                note(key, rel_change(od.get(key), wd.get(key)), label)
            elif od.get(key) != wd.get(key):
                changed.append(f"{label}: {key} {od.get(key)!r} -> {wd.get(key)!r}")
                if key == "fit":
                    ol, wl = leaves(od[key], key), leaves(wd[key], key)
                    for name in sorted(ol.keys() & wl.keys()):
                        if name == "fit.loglik" or name.startswith("fit.params."):
                            note(name, rel_change(ol[name], wl[name]), label)
    identical = sum(same for same, _ in groups.values())
    print(f"runs: {len(corpus)}, exit codes {dict(sorted(codes.items(), key=str))}")
    print(f"byte-identical: {identical}/{len(corpus)} ({100.0 * identical / len(corpus):.1f}%)")
    for group, (same, runs) in groups.items():
        print(f"  {group}: {same}/{runs}")
    for key, (r, label) in worst.items():
        print(f"worst relative change of {key}: {r:.3g}" + (f" ({label})" if label else ""))
    print(f"changed runs or fields: {len(changed)}")
    for line in changed:
        print(f"  {line}")
    return not changed and all(r <= RTOL for r, _ in worst.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", help="checkout whose outputs are the reference")
    parser.add_argument("new", help="checkout to compare against it")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        corpus = build_corpus(work)
        old = run_checkout(args.old, corpus, work, "old")
        new = run_checkout(args.new, corpus, work, "new")
        return 0 if compare(corpus, old, new) else 1


if __name__ == "__main__":
    sys.exit(main())
