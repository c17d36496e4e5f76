"""Output checks that do not trust the code path under test.

* ``B`` statistics are recomputed from the reported fit with
  ``gof.burr_B_quadrature``, the exact piecewise-integration oracle.
* ``L2`` statistics are recomputed here by exact integration: between
  consecutive order statistics the deviation T_n(t) - F_n(t) is linear in t,
  so every piece of n * |T_n - F_n|^2 exp(-a t) has a closed form.
* Reported invariants are checked: effective_B + failed_replicates == B,
  reject exactly when statistic_value > critical_value, and in every report
  cell reps + failures == mc_reps.

Each check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
from scipy import special as sp

from steinfit.gof import burr_B_quadrature

STAT_RTOL = 1e-8  # both routes agree to about 1e-14 on the benchmark's inputs
FIT_RTOL = 1e-12


def exact_weighted_l2(t0, alpha, beta, a: float, n: int) -> float:
    """n * sum_i integral_{t0[i]}^{t0[i+1]} (alpha_i + beta_i t)^2 exp(-a t) dt.

    ``t0`` holds the left ends of the pieces; the last piece runs to +inf.
    """
    t0 = np.asarray(t0, dtype=float)
    d = np.append(np.diff(t0), math.inf)
    p = alpha + beta * t0  # deviation at the left end of each piece
    ad = a * d
    i0 = sp.gammainc(1.0, ad) / a  # integral_0^d u^m exp(-a u) du, m = 0, 1, 2
    i1 = sp.gammainc(2.0, ad) / a ** 2
    i2 = 2.0 * sp.gammainc(3.0, ad) / a ** 3
    with np.errstate(over="ignore"):
        w = np.exp(-a * t0)
    return float(n * np.sum(w * (p * p * i0 + 2.0 * p * beta * i1 + beta * beta * i2)))


def gamma_l2(x, k: float, lam: float, a: float) -> float:
    """L2 statistic of the gamma test on the scaled sample y = x / lam.

    T_n(t) = -(1/n) sum s(y_j) min(y_j, t), with the unit-scale gamma score
    s(y) = (k - 1)/y - 1; the pieces start at 0 and at each order statistic.
    """
    y = np.sort(np.asarray(x, dtype=float)) / lam
    n = y.size
    s = (k - 1.0) / y - 1.0
    t0 = np.concatenate(([0.0], y))
    alpha = -np.concatenate(([0.0], np.cumsum(s * y))) / n - np.arange(n + 1) / n
    beta = -np.concatenate((np.cumsum(s[::-1])[::-1], [0.0])) / n
    return exact_weighted_l2(t0, alpha, beta, a, n)


def normal_l2(x, mu: float, sigma2: float, a: float) -> float:
    """L2 statistic of the normal test on the standardized sample y.

    T_n(t) = (1/n) sum_{y_j <= t} y_j (y_j - t); the deviation vanishes below
    the smallest observation, so the pieces start there.
    """
    y = np.sort((np.asarray(x, dtype=float) - mu) / math.sqrt(sigma2))
    n = y.size
    i = np.arange(1, n + 1)
    alpha = (np.cumsum(y * y) - i) / n
    beta = -np.cumsum(y) / n
    return exact_weighted_l2(y, alpha, beta, a, n)


def _close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * abs(want)


def check_test_outcome(doc: dict, x, family: str, stat: str, a: float, B: int) -> list[str]:
    """Check one ``steinfit test`` JSON against the data it was run on."""
    problems = []
    x = np.asarray(x, dtype=float)
    if doc["n"] != x.size or doc["B"] != B or doc["family"] != family:
        problems.append("echoed n, B or family differ from the invocation")
    if doc["effective_B"] + doc["failed_replicates"] != B:
        problems.append(f"effective_B + failed_replicates != B ({doc['effective_B']} + "
                        f"{doc['failed_replicates']} != {B})")
    if doc["reject"] != (doc["statistic_value"] > doc["critical_value"]):
        problems.append("reject disagrees with statistic_value > critical_value")
    value = doc["statistic_value"]
    params = doc["fit"]["params"]
    if stat == "B":
        want = burr_B_quadrature(x, params["k"], params["c"], a)
    elif family == "gamma":
        mean, var = x.mean(), x.var()
        if not (_close(params["k"], mean * mean / var, FIT_RTOL)
                and _close(params["lam"], var / mean, FIT_RTOL)):
            problems.append(f"gamma moment fit {params} disagrees with the data")
        want = gamma_l2(x, params["k"], params["lam"], a)
    else:
        if not (_close(params["mu"], x.mean(), FIT_RTOL)
                and _close(params["sigma2"], x.var(), FIT_RTOL)):
            problems.append(f"normal moment fit {params} disagrees with the data")
        want = normal_l2(x, params["mu"], params["sigma2"], a)
    if not _close(value, want, STAT_RTOL):
        problems.append(f"{stat} statistic {value!r} != recomputed {want!r}")
    return problems


def check_report(doc: dict, mc_reps: int) -> dict[str, list[str]]:
    """Problems per alternative of one power-study ``report.json``."""
    problems: dict[str, list[str]] = {}
    for cell in doc["cells"]:
        bad = problems.setdefault(cell["alternative"], [])
        if cell["reps"] + cell["failures"] != mc_reps:
            bad.append(f"{cell['statistic']}: reps + failures != mc_reps")
        if cell["aborted"]:
            bad.append(f"{cell['statistic']}: cell aborted")
        if not 0 <= cell["rejections"] <= cell["reps"]:
            bad.append(f"{cell['statistic']}: rejections outside [0, reps]")
    return problems


def digest(texts) -> str:
    """sha256 over output texts, without the lines that hold wall_time_s."""
    h = hashlib.sha256()
    for text in texts:
        for line in text.splitlines(keepends=True):
            if "wall_time_s" not in line:
                h.update(line.encode())
    return h.hexdigest()
