"""The benchmark's span tracer (bench/tracer.py) wraps steinfit functions by
name, where the consuming modules bind them.  This test installs it against
the package under test, so that a source change which drops or renames one
of those names fails here rather than in a traced benchmark run."""

import importlib.util
from pathlib import Path

import numpy as np

import steinfit
from steinfit.cli import main
from steinfit.distributions import RngStream, make_distribution, sample

ROOT = Path(__file__).resolve().parents[1]


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_runs_and_uninstalls(tmp_path, capsys):
    assert Path(steinfit.__file__).resolve().parents[1] == ROOT / "src"
    tracer_mod = load_tracer()
    targets = [(owner, attr) for owner, attr, _ in tracer_mod._PATCHES]
    before = {(id(owner), attr): owner.__dict__[attr] for owner, attr in targets}

    data = sample(make_distribution("burr_xii", k=1, c=2), 30, RngStream(4))
    path = tmp_path / "x.txt"
    path.write_text("".join(f"{float(v)!r}\n" for v in data))
    tracer = tracer_mod.Tracer()
    with tracer.installed():
        for owner, attr in targets:
            assert owner.__dict__[attr] is not before[(id(owner), attr)]
        code = main(["test", "--data", str(path), "--family", "burr", "--stat", "B",
                     "--a", "1", "--B", "5", "--seed", "1"])
    capsys.readouterr()
    assert code == 0
    for owner, attr in targets:
        assert owner.__dict__[attr] is before[(id(owner), attr)]

    per_name, total_self = tracer.summary()
    for name in ("bootstrap.bootstrap_test", "cli.read_data_file", "cli.dumps",
                 "estimation.burr_mle"):
        assert per_name[name]["calls"] >= 1
    assert np.isfinite(total_self) and total_self > 0
