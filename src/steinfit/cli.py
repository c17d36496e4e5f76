"""Command-line interface.

Subcommands
-----------
test      run a bootstrap goodness-of-fit test on a data file
simulate  run a Monte Carlo power study from a JSON config
verify    numeric regularity diagnostics + fixed-point residual for a family

Exit codes: 0 = computation succeeded (the statistical decision lives in the
JSON output, not the exit code); 2 = usage or input error; 3 = numerical
failure.  All floats are serialized with 17 significant digits so identical
invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys

from .bootstrap import FAMILIES, BootstrapError, bootstrap_test
from .characterization import QuadratureError, check_conditions, fixed_point_residual
from .distributions import DomainError, RngStream, make_distribution
from .gof import STAT_NAMES, STATISTICS, StatisticId
from .simulation import ConfigError, config_from_dict, config_hash, render_table, run_power_study

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


# --------------------------------------------------------------------------
# JSON with 17-significant-digit floats
# --------------------------------------------------------------------------

def dumps(obj) -> str:
    """Deterministic JSON, indented by 2: floats via '%.17g', non-finite floats as strings."""
    out = []
    _write(obj, out, 0)
    return "".join(out) + "\n"


def _write(obj, out, level):
    pad = "  " * level
    pad_in = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, val) in enumerate(obj.items()):
            out.append(f'{pad_in}{json.dumps(str(key))}: ')
            _write(val, out, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, val in enumerate(obj):
            out.append(pad_in)
            _write(val, out, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "]")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, float):
        out.append(format(obj, ".17g") if math.isfinite(obj) else json.dumps(str(obj)))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif obj is None:
        out.append("null")
    else:
        out.append(json.dumps(str(obj)))


# --------------------------------------------------------------------------
# Data ingestion
# --------------------------------------------------------------------------

def read_data_file(path: str, csv_column: str | None = None):
    """Read newline-delimited reals (or one named CSV column) into a list.

    Raises ValueError naming the offending line for non-numeric content.
    """
    values = []
    if csv_column is not None:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or csv_column not in reader.fieldnames:
                raise ValueError(f"CSV file has no column named '{csv_column}'")
            for lineno, row in enumerate(reader, start=2):
                raw = (row.get(csv_column) or "").strip()
                try:
                    values.append(float(raw))
                except ValueError:
                    raise ValueError(f"line {lineno}: could not parse {raw!r} as a number") from None
        return values
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                values.append(float(text))
            except ValueError:
                raise ValueError(f"line {lineno}: could not parse {text!r} as a number") from None
    return values


def parse_params(text: str) -> dict:
    """Parse 'k=1,c=2.5' into {'k': 1.0, 'c': 2.5}."""
    params = {}
    if not text:
        return params
    for chunk in text.split(","):
        if "=" not in chunk:
            raise ValueError(f"bad parameter entry {chunk!r}; expected name=value")
        name, _, value = chunk.partition("=")
        try:
            params[name.strip()] = float(value)
        except ValueError:
            raise ValueError(f"bad numeric value in parameter entry {chunk!r}") from None
    return params


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

def _cmd_test(args) -> int:
    try:
        values = read_data_file(args.data, args.csv_column)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if len(values) < 2:
        print("error: need at least 2 observations", file=sys.stderr)
        return EXIT_INPUT
    if not all(math.isfinite(v) for v in values):
        print("error: data contains non-finite values", file=sys.stderr)
        return EXIT_INPUT

    tag = STAT_NAMES[args.stat]
    try:
        stat = StatisticId(tag, a=args.a if STATISTICS[tag].weighted else None)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    try:
        outcome = bootstrap_test(values, args.family, stat, B=args.B, alpha=args.alpha,
                                 rng=RngStream(args.seed, args.stream))
    except ValueError as exc:  # a FitError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BootstrapError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    text = dumps(outcome.to_dict())
    sys.stdout.write(text)
    if args.json:
        try:
            with open(args.json, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write the outcome JSON: {exc}", file=sys.stderr)
            return EXIT_INPUT
    return EXIT_OK


def _cmd_simulate(args) -> int:
    try:
        with open(args.config) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        cfg = config_from_dict(doc)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return EXIT_INPUT

    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create the output directory: {exc}", file=sys.stderr)
        return EXIT_INPUT
    # a replicate whose bootstrap fails is counted in its cells, not raised
    report = run_power_study(cfg, workers=args.threads)
    with open(os.path.join(args.out, "report.json"), "w") as fh:
        fh.write(dumps(report.to_dict()))
    with open(os.path.join(args.out, "report.csv"), "w") as fh:
        fh.write(render_table(report, "csv"))
    with open(os.path.join(args.out, "report.md"), "w") as fh:
        fh.write(render_table(report, "markdown"))
    print(f"config_hash: {config_hash(cfg)}")
    print(f"wrote report.json, report.csv, report.md to {args.out}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    try:
        dist = make_distribution(args.family, **parse_params(args.params))
        if not args.quad_tol > 0:
            raise ValueError(f"--quad-tol must be > 0, got {args.quad_tol!r}")
        report = check_conditions(dist, grid_size=args.grid)
    except ValueError as exc:  # a ParameterError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    residual = None
    residual_note = ""
    try:
        residual = fixed_point_residual(dist, quad_tol=args.quad_tol)
    except DomainError as exc:
        residual_note = str(exc)
    except QuadratureError as exc:
        residual_note = f"quadrature failed: {exc}"

    doc = {
        "family": dist.family,
        "params": dist.param_dict,
        "conditions": report.to_dict(),
        "fixed_point_residual": residual,
        "residual_note": residual_note,
        "supported": report.supported,
    }
    sys.stdout.write(dumps(doc))
    return EXIT_OK


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------

def _worker_count(text: str) -> int:
    """An integer >= 1, or a usage error."""
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steinfit",
        description="Characterization-based goodness-of-fit testing toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="bootstrap goodness-of-fit test on a data file")
    p_test.add_argument("--data", required=True, help="newline-delimited reals (one per line)")
    p_test.add_argument("--family", required=True, choices=FAMILIES)
    p_test.add_argument("--stat", required=True, choices=tuple(STAT_NAMES))
    p_test.add_argument("--a", type=float, default=3.0,
                        help="weight tuning parameter for B/L2 statistics (default 3)")
    p_test.add_argument("--B", type=int, default=100, help="bootstrap replicates (default 100)")
    p_test.add_argument("--alpha", type=float, default=0.1, help="test level (default 0.1)")
    p_test.add_argument("--seed", type=int, default=0)
    p_test.add_argument("--stream", type=int, default=0, help="RNG stream id (default 0)")
    p_test.add_argument("--json", help="also write the outcome JSON to this path")
    p_test.add_argument("--csv-column", help="read this named column from a CSV file instead")
    p_test.set_defaults(func=_cmd_test)

    p_sim = sub.add_parser("simulate", help="Monte Carlo power study from a JSON config")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--threads", type=_worker_count, default=os.cpu_count() or 1,
                       help="worker processes, >= 1 (default: all cores); results are "
                            "identical for any thread count")
    p_sim.set_defaults(func=_cmd_simulate)

    p_ver = sub.add_parser("verify", help="regularity diagnostics for a catalog family")
    p_ver.add_argument("--family", required=True)
    p_ver.add_argument("--params", default="", help="comma-separated name=value pairs")
    p_ver.add_argument("--grid", type=int, default=400, help="diagnostic grid size")
    p_ver.add_argument("--quad-tol", type=float, default=1e-9)
    p_ver.set_defaults(func=_cmd_verify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built once per process: parsing leaves no state
    in it, and building it costs several times as much as a parse."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
