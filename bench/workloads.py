"""The benchmark's three workloads, each a closed loop of ``steinfit.cli.main``
calls from one process.

A workload runs in rounds.  Round ``i`` draws its inputs from numpy's own
generator seeded with (workload seed, i), never from ``steinfit.sample``, so
a change to the package's sampler cannot change what the benchmark feeds
it.  Every output is checked (see ``checks``) and counted as attempted or
failed operations: an operation is one ``steinfit test`` invocation or one
Monte Carlo replicate of ``steinfit simulate``.

* ``power_burr``: ``steinfit simulate`` on the desk-table path (Burr family,
  shared bootstrap, B_0.25, B_1, B_3, KS, CM, AD, WA, six alternatives).  The
  only workload that runs the power-study loop and its process pool.
* ``test_burr``: ``steinfit test --family burr --stat B --a 3 --B 100`` on
  fresh positive data: the same fit and B layers, through bootstrap_test's
  loop, one statistic, no EDF statistics, no pool.
* ``test_l2``: ``steinfit test --stat L2 --a 1 --B 20``, alternating the
  gamma family on positive data and the normal family on real-line data;
  dominated by the quadrature inside ``gof.generic_L2``, never calls burr_mle.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from steinfit import cli

import checks

N = 100
POOL_THREADS = 2  # nproc on the reference machine, and the CLI default there
WARMUP_B = 5
ALTERNATIVES = [
    {"family": "burr_xii", "params": {"k": 1, "c": 1}, "label": "BurrXII(1,1)"},
    {"family": "exponential", "params": {"lam": 1}, "label": "Exp(1)"},
    {"family": "half_cauchy", "params": {}, "label": "HC"},
    {"family": "inverse_gaussian", "params": {"mu": 1, "lam": 1.5}, "label": "IG(1.5)"},
    {"family": "weibull", "params": {"k": 0.5, "lam": 1}, "label": "W(0.5)"},
    {"family": "gompertz", "params": {"theta": 2}, "label": "GO(2)"},
]
STATISTICS = [{"stat": "B", "a": 0.25}, {"stat": "B", "a": 1}, {"stat": "B", "a": 3},
              {"stat": "ks"}, {"stat": "cvm"}, {"stat": "ad"}, {"stat": "watson"}]


@dataclass
class Pass:
    """What one pass over some rounds produced."""

    round_s: list[float] = field(default_factory=list)  # mean seconds per call, each round
    call_s: list[float] = field(default_factory=list)   # wall time of each call
    ops: int = 0
    failed: int = 0
    boot_reps: int = 0    # bootstrap replicates attempted, observed fits included
    mc_failed: int = 0    # Monte Carlo replicates dropped by the power study
    texts: list[str] = field(default_factory=list)  # outputs, for the digest
    problems: list[str] = field(default_factory=list)

    @property
    def busy_s(self) -> float:
        return sum(self.call_s)

    def digest(self) -> str:
        return checks.digest(self.texts)


def invoke(argv: list[str], span=contextlib.nullcontext) -> tuple[int | None, str, str, float]:
    """Run ``steinfit.cli.main(argv)`` in process: (exit code, stdout, stderr, seconds).

    An exception is a failed operation, not a crash of the benchmark: its
    traceback goes into the returned stderr text and the exit code is None.
    """
    out, err = io.StringIO(), io.StringIO()
    rc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            with span():
                rc = cli.main(argv)
        except Exception:
            traceback.print_exc()
        seconds = time.perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), seconds


def _round_rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, i])


def _write_values(path: str, x: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write("".join(f"{v!r}\n" for v in x.tolist()))  # repr round-trips exactly


class RepeatedTest:
    """Repeated ``steinfit test`` invocations, one (family, data) per call."""

    stats_per_fit = 1

    def __init__(self, name: str, seed: int, work_dir: str, *, stat: str, a: float, B: int,
                 families: tuple[str, ...], digest_rounds: int):
        self.name, self.seed, self.work_dir = name, seed, work_dir
        self.stat, self.a, self.B = stat, a, B
        self.families = families
        self.digest_rounds = digest_rounds

    def data(self, g: np.random.Generator, family: str, i: int) -> np.ndarray:
        kind = i % 4
        if family == "normal":  # real-line data
            if kind == 0:
                return g.normal(g.uniform(-2, 2), g.uniform(0.5, 3), N)
            if kind == 1:
                return g.logistic(g.uniform(-2, 2), g.uniform(0.5, 2), N)
            if kind == 2:
                return g.standard_t(5, N) * g.uniform(0.5, 2)
            return g.laplace(0.0, g.uniform(0.5, 2), N)
        if kind == 0:
            return g.lognormal(0.0, g.uniform(0.5, 1.5), N)
        if kind == 1:
            return g.weibull(g.uniform(0.7, 3.0), N) * g.uniform(0.5, 2)
        if kind == 2:
            return g.pareto(g.uniform(1.5, 4.0), N) * g.uniform(0.5, 2)  # Lomax
        return g.exponential(g.uniform(0.5, 2), N)

    def round(self, i: int, span=contextlib.nullcontext, B: int | None = None) -> Pass:
        B = self.B if B is None else B
        g = _round_rng(self.seed, i)
        result = Pass()
        for family in self.families:
            x = self.data(g, family, i)
            path = os.path.join(self.work_dir, f"{self.name}-{family}.txt")
            _write_values(path, x)
            argv = ["test", "--data", path, "--family", family, "--stat", self.stat,
                    "--a", repr(self.a), "--B", str(B), "--seed", str(int(g.integers(2 ** 31)))]
            rc, out, err, seconds = invoke(argv, span)
            result.call_s.append(seconds)
            result.ops += 1
            result.boot_reps += B + 1
            result.texts.append(out)
            if rc != cli.EXIT_OK:
                problems = [f"exit code {rc}: {err.strip()}"]
            else:
                problems = checks.check_test_outcome(json.loads(out), x, family, self.stat,
                                                     self.a, B)
            if problems:
                result.failed += 1
                result.problems += [f"round {i} {family}: {p}" for p in problems]
        result.round_s.append(sum(result.call_s) / len(result.call_s))
        return result

    def warmup(self) -> Pass:
        return self.round(0, B=WARMUP_B)


class PowerWorkload:
    """Repeated ``steinfit simulate`` runs, a fresh master seed per run."""

    name = "power_burr"
    stats_per_fit = len(STATISTICS)

    def __init__(self, seed: int, work_dir: str, *, mc_reps: int = 8, B: int = 100,
                 digest_rounds: int = 1):
        self.seed, self.work_dir = seed, work_dir
        self.mc_reps, self.B = mc_reps, B
        self.digest_rounds = digest_rounds

    def config(self, i: int, mc_reps: int) -> dict:
        return {"n": N, "alpha": 0.1, "mc_reps": mc_reps, "bootstrap_B": self.B,
                "seed": int(_round_rng(self.seed, i).integers(2 ** 62)),
                "statistics": STATISTICS, "alternatives": ALTERNATIVES,
                "family": "burr", "share_bootstrap": True}

    def round(self, i: int, span=contextlib.nullcontext, threads: int = POOL_THREADS,
              mc_reps: int | None = None) -> Pass:
        mc_reps = self.mc_reps if mc_reps is None else mc_reps
        cfg_path = os.path.join(self.work_dir, "power.json")
        out_dir = os.path.join(self.work_dir, "power-out")
        with open(cfg_path, "w") as fh:
            json.dump(self.config(i, mc_reps), fh)
        report_path = os.path.join(out_dir, "report.json")
        if os.path.exists(report_path):
            os.remove(report_path)
        argv = ["simulate", "--config", cfg_path, "--out", out_dir, "--threads", str(threads)]
        rc, _, err, seconds = invoke(argv, span)
        result = Pass(round_s=[seconds], call_s=[seconds], ops=mc_reps * len(ALTERNATIVES))
        if rc != cli.EXIT_OK:
            result.failed = result.ops
            result.problems.append(f"round {i}: exit code {rc}: {err.strip()}")
            return result
        with open(report_path) as fh:
            text = fh.read()
        result.texts.append(text)
        doc = json.loads(text)
        failures = {c["alternative"]: c["failures"] for c in doc["cells"]}
        result.mc_failed = sum(failures.values())
        if set(failures) != {a["label"] for a in ALTERNATIVES}:
            result.failed = result.ops
            result.problems.append(f"round {i}: report alternatives differ from the config")
            return result
        for alt, problems in checks.check_report(doc, mc_reps).items():
            result.failed += mc_reps if problems else failures[alt]
            result.problems += [f"round {i} {alt}: {p}" for p in problems]
        result.boot_reps = (result.ops - result.mc_failed) * (self.B + 1)
        return result

    def warmup(self) -> Pass:
        return self.round(0, mc_reps=1)


def make(name: str, seed: int, work_dir: str):
    if name == "power_burr":
        return PowerWorkload(seed, work_dir)
    if name == "test_burr":
        return RepeatedTest(name, seed, work_dir, stat="B", a=3.0, B=100,
                            families=("burr",), digest_rounds=100)
    if name == "test_l2":
        return RepeatedTest(name, seed, work_dir, stat="L2", a=1.0, B=20,
                            families=("gamma", "normal"), digest_rounds=3)
    raise ValueError(f"unknown workload {name!r}")


def merge(passes) -> Pass:
    total = Pass()
    for p in passes:
        total.round_s += p.round_s
        total.call_s += p.call_s
        total.ops += p.ops
        total.failed += p.failed
        total.boot_reps += p.boot_reps
        total.mc_failed += p.mc_failed
        total.texts += p.texts
        total.problems += p.problems
    return total
