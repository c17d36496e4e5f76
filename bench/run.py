"""steinfit benchmark: end-to-end and per-layer metrics for three workloads.

Run from the root of a source checkout (the package is imported from
``src/``; nothing needs installing):

    python3 bench/run.py --workload test_burr --seed 1 --seconds 20 --trace 0

``--trace 0`` measures set-up time, then runs the workload's closed loop for
``--seconds`` seconds (and at least through its digest rounds) and reports
the end-to-end metrics.  ``--trace 1`` runs the digest rounds untraced and
then traced, with a span around every call into a layer, and reports the
per-layer metrics; on power_burr it also runs them untraced with two worker
processes.  Both print an ``info`` line (machine, versions, output digest,
workload-specific figures) and, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every output check passed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / ".out"
WORKLOADS = ("power_burr", "test_burr", "test_l2")
SETUP_REPEATS = 5
DESK_ALTERNATIVES = 18


def import_package() -> None:
    """Put this checkout's ``src`` first on the path; refuse any other steinfit."""
    if not (SRC / "steinfit" / "__init__.py").is_file():
        raise SystemExit(f"error: no steinfit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import steinfit
    if Path(steinfit.__file__).resolve().parent != SRC / "steinfit":
        raise SystemExit(f"error: steinfit imported from {steinfit.__file__}, not {SRC}")


def measure_setup_s() -> float:
    """Median wall time for a fresh interpreter to ``import steinfit.cli``.

    One unmeasured import runs first, so every measured one finds the
    bytecode cache already written.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import steinfit.cli"]
    times = []
    for k in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        if k:
            times.append(time.perf_counter() - start)
    return statistics.median(times)


def git_commit() -> str:
    try:
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"  # checkouts without git metadata


def machine_info() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "commit": git_commit(), "platform": platform.platform()}


# --------------------------------------------------------------------------
# End-to-end run (untraced)
# --------------------------------------------------------------------------

def end_to_end(workload, seconds: float):
    from workloads import POOL_THREADS, merge

    setup_s = measure_setup_s()
    warm = workload.warmup()
    rounds = []
    end = time.perf_counter() + seconds
    while len(rounds) < workload.digest_rounds or time.perf_counter() < end:
        rounds.append(workload.round(len(rounds)))
    loop = merge(rounds)
    metrics = {
        "setup_s": (setup_s, "s"),
        "call_s_p50": (statistics.median(loop.round_s), "s"),
        "boot_reps_per_s": (loop.boot_reps / loop.busy_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    info = {"digest": merge(rounds[:workload.digest_rounds]).digest(),
            "rounds": len(rounds), "calls": len(loop.call_s), "busy_s": loop.busy_s}
    if workload.name == "power_burr":
        rate = loop.ops / loop.busy_s
        info["mc_reps_per_s"] = rate
        info["desk_table_cpu_hours"] = {  # informational projection, not a metric
            f"mc_reps_{reps}": DESK_ALTERNATIVES * reps * POOL_THREADS / rate / 3600.0
            for reps in (500, 10000)}
    else:
        info["test_s_p50"] = statistics.median(loop.call_s)
        if len(loop.call_s) >= 100:  # at least ten samples beyond the 90th percentile
            info["test_s_p90"] = statistics.quantiles(loop.call_s, n=10)[-1]
    return metrics, info, [warm, loop], []


# --------------------------------------------------------------------------
# Per-layer run (traced)
# --------------------------------------------------------------------------

# span name -> the per-span metrics reported for it
LAYER_SPANS = {
    "estimation.burr_mle": ("calls", "self_s"),
    "estimation.gamma_fit": ("calls", "self_s"),
    "estimation.normal_fit": ("calls", "self_s"),
    "gof.burr_B_closed": ("calls", "self_s"),
    "gof.generic_L2": ("calls", "self_s"),
    "characterization.empirical_T": ("calls", "self_s"),
    "distributions.score": ("calls", "self_s"),
    "gof.edf": ("calls", "self_s"),
    "distributions.cdf": ("calls", "self_s"),
    "distributions.sample": ("calls", "self_s"),
    "distributions.stream": ("calls", "self_s"),
    "bootstrap.evaluate_statistic": ("self_s",),
    "bootstrap.fitted_distribution": ("calls", "self_s"),
    "bootstrap.fit_family_retry": ("self_s",),
    "bootstrap.bootstrap_test": ("calls", "self_s"),
    "simulation.run_power_study": ("self_s",),
    "cli.main": ("self_s",),
    "cli.read_data_file": ("self_s",),
    "cli.dumps": ("self_s",),
}


def per_layer(workload, seed: int):
    import tracer
    from workloads import POOL_THREADS, merge

    def run_rounds(**kw):
        return merge([workload.round(i, **kw) for i in range(workload.digest_rounds)])

    warm = workload.warmup()
    power = workload.name == "power_burr"
    single = {"threads": 1} if power else {}  # every span stays in this process
    pool = run_rounds(threads=POOL_THREADS) if power else None
    plain = run_rounds(**single)
    tr = tracer.Tracer()
    with tr.installed():
        start = time.perf_counter()
        with tr.span("bench"):
            traced = run_rounds(span=functools.partial(tr.span, "cli.main"), **single)
        wall = time.perf_counter() - start
    OUT_DIR.mkdir(exist_ok=True)
    tr.save(OUT_DIR / f"spans-{workload.name}-seed{seed}.npz")

    problems = []
    digests = {"untraced": plain.digest(), "traced": traced.digest()}
    if power:
        digests[f"threads_{POOL_THREADS}"] = pool.digest()
    if len(set(digests.values())) != 1:
        problems.append(f"output digests differ between runs: {digests}")
    s, self_sum = tr.summary()
    if abs(self_sum - wall) > 1e-3:
        problems.append(f"span self times sum to {self_sum} s, traced wall is {wall} s")

    def get(name, key):
        return s.get(name, {}).get(key, 0)

    metrics = {}
    for name, keys in LAYER_SPANS.items():
        for key in keys:
            metrics[f"{name}.{key}"] = (get(name, key), "count" if key == "calls" else "s")
    fits = sum(get(n, "calls") for n in tracer.FIT_SPANS)
    edf = get("gof.edf", "calls")
    attempts = get("bootstrap.fit_family_retry", "calls") * workload.stats_per_fit
    metrics.update({
        "estimation.burr_mle.nfev": (tr.nfev, "count"),
        "estimation.burr_mle.widened": (tr.widened, "count"),
        "estimation.converged_ratio": (tr.converged / fits if fits else 0.0, "ratio"),
        "gof.generic_L2.incl_frac": (get("gof.generic_L2", "incl_s") / wall, "ratio"),
        "gof.edf.cdf_per_call": (get("distributions.cdf", "calls") / edf if edf else 0.0,
                                 "ratio"),
        "bootstrap.useful_ratio": (get("bootstrap.evaluate_statistic", "calls") / attempts
                                   if attempts else 0.0, "ratio"),
        "simulation.mc_failed": (traced.mc_failed, "count"),
        "simulation.parallel_speedup": (plain.busy_s / pool.busy_s if power else 0.0, "ratio"),
        "trace_overhead_frac": (traced.busy_s / plain.busy_s - 1.0, "ratio"),
        "trace.wall_s": (wall, "s"),
    })
    info = {"digest": traced.digest(), "digests": digests, "spans": len(tr.start),
            "bench_self_s": get("bench", "self_s")}
    passes = [warm, plain, traced] + ([pool] if power else [])
    return metrics, info, passes, problems


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as work_dir:
        workload = workloads.make(args.workload, args.seed, work_dir)
        if args.trace:
            metrics, info, passes, problems = per_layer(workload, args.seed)
        else:
            metrics, info, passes, problems = end_to_end(workload, args.seconds)
    total = workloads.merge(passes)
    problems = total.problems + problems
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    info.update(workload=args.workload, seed=args.seed, trace=args.trace,
                seconds=args.seconds, ops_attempted=total.ops, ops_failed=total.failed,
                ops_failed_frac=total.failed / total.ops, machine=machine_info())
    print("info: " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": total.ops,
        "failed": total.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
