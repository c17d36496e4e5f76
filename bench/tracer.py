"""Span tracing of steinfit's layers, installed from outside the package.

The tracer replaces public functions at the place where the consuming module
binds them (``steinfit.bootstrap.burr_mle``, ``steinfit.cli.dumps``, ...)
with wrappers that record one span per call: name, start, end and the id of
the enclosing span.  Nothing under ``src/`` is edited; ``uninstall`` puts the
original objects back.  Spans stay in memory in flat arrays and are written
out once, at the end of the run.

Span names are the layer metrics' names: ``<module>.<function>``, with the
four EDF statistics folded into ``gof.edf`` and both empirical operators into
``characterization.empirical_T``.
"""

from __future__ import annotations

import contextlib
import functools
import time
import types
from array import array

import numpy as np

import steinfit.bootstrap
import steinfit.cli
import steinfit.gof
import steinfit.simulation
from steinfit.distributions import RngStream

# gof function -> span name, as bootstrap reaches them through ``gof.<name>``
_GOF_SPANS = {
    "burr_B_closed": "gof.burr_B_closed",
    "generic_L2": "gof.generic_L2",
    "ks": "gof.edf",
    "cvm": "gof.edf",
    "ad": "gof.edf",
    "watson": "gof.edf",
}
# (module or class that binds the name, attribute, span name)
_PATCHES = [
    (steinfit.bootstrap, "burr_mle", "estimation.burr_mle"),
    (steinfit.bootstrap, "gamma_fit", "estimation.gamma_fit"),
    (steinfit.bootstrap, "normal_fit", "estimation.normal_fit"),
    (steinfit.bootstrap, "sample", "distributions.sample"),
    (steinfit.bootstrap, "cdf", "distributions.cdf"),
    (steinfit.bootstrap, "score", "distributions.score"),
    (steinfit.bootstrap, "empirical_T_min", "characterization.empirical_T"),
    (steinfit.bootstrap, "empirical_T_zero_bias", "characterization.empirical_T"),
    (steinfit.bootstrap, "evaluate_statistic", "bootstrap.evaluate_statistic"),
    (steinfit.bootstrap, "fit_family_retry", "bootstrap.fit_family_retry"),
    (steinfit.bootstrap, "fitted_distribution", "bootstrap.fitted_distribution"),
    (steinfit.simulation, "bootstrap_test", "bootstrap.bootstrap_test"),
    (steinfit.simulation, "evaluate_statistic", "bootstrap.evaluate_statistic"),
    (steinfit.simulation, "fit_family_retry", "bootstrap.fit_family_retry"),
    (steinfit.simulation, "fitted_distribution", "bootstrap.fitted_distribution"),
    (steinfit.simulation, "sample", "distributions.sample"),
    (steinfit.cli, "bootstrap_test", "bootstrap.bootstrap_test"),
    (steinfit.cli, "run_power_study", "simulation.run_power_study"),
    (steinfit.cli, "read_data_file", "cli.read_data_file"),
    (steinfit.cli, "dumps", "cli.dumps"),
    (RngStream, "child", "distributions.stream"),
]
FIT_SPANS = ("estimation.burr_mle", "estimation.gamma_fit", "estimation.normal_fit")


class Tracer:
    """Records nested spans and the fit counters while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.nfev = 0
        self.widened = 0
        self.converged = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def _wrap(self, fn, name: str):
        is_fit = name in FIT_SPANS
        is_burr = name == "estimation.burr_mle"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if is_fit:
                self.converged += bool(result.converged)
                if is_burr:
                    self.nfev += result.iterations
                    self.widened += "c_bracket" in kwargs
            return result

        return traced

    # -- installation -----------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        gof_view = types.ModuleType(steinfit.gof.__name__, steinfit.gof.__doc__)
        gof_view.__dict__.update(steinfit.gof.__dict__)
        for attr, name in _GOF_SPANS.items():
            setattr(gof_view, attr, self._wrap(getattr(steinfit.gof, attr), name))
        # bootstrap reaches the statistics as ``gof.<name>``; swapping in a
        # view keeps gof-internal calls (watson -> cvm) inside their caller
        self._set(steinfit.bootstrap, "gof", gof_view)
        for owner, attr, name in _PATCHES:
            self._set(owner, attr, self._wrap(owner.__dict__[attr], name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- analysis ---------------------------------------------------------

    def arrays(self):
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        return name_id, parent, start, end

    def summary(self) -> tuple[dict, float]:
        """Per span name: calls, inclusive seconds and self seconds; and the
        sum of all self times.

        Self time is a span's duration minus the durations of its direct
        children.  Children of one span never overlap (one thread), so the
        self times of all spans add up to the duration of the root spans.
        """
        name_id, parent, start, end = self.arrays()
        dur = end - start
        child = np.zeros(dur.size)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        selfs = dur - child
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        self_s = np.bincount(name_id, weights=selfs, minlength=k)
        incl = np.bincount(name_id, weights=dur, minlength=k)  # no name recurses
        per_name = {nm: {"calls": int(calls[i]), "self_s": float(self_s[i]),
                         "incl_s": float(incl[i])} for i, nm in enumerate(self.names)}
        return per_name, float(selfs.sum())

    def save(self, path) -> None:
        name_id, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=name_id,
                            parent=parent, start=start, end=end)
