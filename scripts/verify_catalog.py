#!/usr/bin/env python3
"""Regularity diagnostics and fixed-point residuals for the whole catalog."""

import os
import sys

# one case per catalog family, and the arcsine law; scripts/compare_outputs.py
# imports this list, so the module imports steinfit only in main()
CASES = [
    ("normal", dict(mu=0, sigma2=1)),
    ("laplace", dict(mu=0, sigma=1)),
    ("gamma", dict(k=2, lam=1)),
    ("exponential", dict(lam=1)),
    ("inverse_gaussian", dict(mu=1, lam=1)),
    ("weibull", dict(k=1.5, lam=1)),
    ("burr_xii", dict(k=2, c=1)),
    ("levy", dict(mu=0, sigma=1)),
    ("lognormal", dict(mu=0, sigma=1)),
    ("beta", dict(alpha=2, beta=3)),
    ("uniform", dict(left=0, right=1)),
    ("half_normal", {}),
    ("half_cauchy", {}),
    ("gompertz", dict(theta=2)),
    ("linear_failure_rate", dict(theta=2)),
    ("inverse_weibull", dict(theta=1)),
    ("shifted_gamma", dict(k=0.5, lam=1, mu=1)),
    ("beta", dict(alpha=0.5, beta=0.5)),
]


def main():
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
    from steinfit.characterization import (
        QuadratureError,
        check_conditions,
        fixed_point_residual,
    )
    from steinfit.distributions import DomainError, make_distribution

    print(f"{'family':32s} {'variant':22s} {'supported':9s} {'residual':>10s}  verdicts")
    for family, kw in CASES:
        dist = make_distribution(family, **kw)
        rep = check_conditions(dist)
        try:
            residual = f"{fixed_point_residual(dist):.2e}"
        except (DomainError, QuadratureError):
            residual = "n/a"
        verdicts = " ".join(f"{k}:{v[0]}" for k, v in rep.verdicts.items())
        print(f"{dist.label:32s} {rep.variant:22s} {str(rep.supported):9s} {residual:>10s}  {verdicts}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
