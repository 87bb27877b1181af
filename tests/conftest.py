"""Shared fixtures: one bench-scale configuration reused across the suite.

plain_product, the per-domain reference product for `compose`, lives here
too, so that the propagator and analytic tests share one copy of it, and so
does traced_peak, the tracemalloc peak the memory tests bound.

Gain tuning and 4N x 4N decompositions at N = 101 are the expensive steps,
so they are computed lazily and cached for the whole session in BenchLab.
The individual unit-test modules build their own small (N <= 21) setups and
do not touch the lab; the acceptance module leans on it heavily.

The whole session runs on one OpenBLAS thread, as every command-line run
does: at these matrix orders threading costs more than it saves.  Tests of
the thread controls themselves set their own counts or use subprocesses.

Each test starts with empty `compose` and `build_coupled_matrices` memos,
so that what it counts or spies on is its own work, not a pass or a set of
coupling matrices an earlier test left behind.
"""

import sys
import tracemalloc
from dataclasses import replace
from functools import cached_property, lru_cache

import numpy as np
import pytest

from twinbeam import (
    MediumSpec,
    Poling,
    Propagator,
    PumpSpec,
    apodized_poling,
    build_coupled_matrices,
    build_grid,
    compose,
    decompose,
    default_half_width,
    demodulate_poling,
    double_pass,
    qpm_poling,
    segment_propagator,
    tune_gain,
)
from twinbeam import cli, propagator
from twinbeam.numerics import one_blas_thread

BENCH_N = 101
BENCH_L = 1.0
# 169 domains at pmf_width 8: the demodulated sign sequence happens to be
# palindromic, which the elementwise flip relation between input and output
# modes of a single pass requires (generic greedy gratings are not).
AP_DOMAINS = 169
AP_PMF_WIDTH = 8.0


def plain_product(grid, pump, medium, poling):
    """The ordered loop in the original basis: one left-multiplied complex
    product of `segment_propagator` exponentials per domain."""
    segments = {}
    total = np.eye(grid.n if medium.sgvm() else 2 * grid.n)
    for width, sign in poling.domains:
        if (width, sign) not in segments:
            m = build_coupled_matrices(grid, pump, medium, sign=sign)
            segments[width, sign] = segment_propagator(m, width).bogoliubov
        total = segments[width, sign] @ total
    return Propagator.from_bogoliubov(total, grid.n)


def traced_peak(fn):
    """The tracemalloc peak, in bytes above entry, while fn runs."""
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()


class BenchLab:
    """Lazily tuned propagators and decompositions, shared per session.

    Configurations are addressed by name: "apodized", "unpoled", "qpm" run on
    the velocity-matched medium; "skew" is the apodized grating on a medium
    with a 40% walk-off mismatch.
    """

    def __init__(self):
        self.medium = MediumSpec(8.0, -8.0, BENCH_L)
        self.medium_skew = MediumSpec(8.0, -4.8, BENCH_L)
        self.grid = build_grid(BENCH_N, default_half_width(self.medium))
        self.pump = PumpSpec(sigma=1.0, g0=1.0)
        self.device_grating = apodized_poling(
            BENCH_L, BENCH_L / AP_DOMAINS, pmf_width=AP_PMF_WIDTH
        )
        self.polings = {
            "apodized": demodulate_poling(self.device_grating),
            "unpoled": Poling.unpoled(BENCH_L),
            "qpm": qpm_poling(BENCH_L, 2.0 * BENCH_L / 9.0),
        }
        self._gain = {}
        self._decomp = {}

    def medium_for(self, name):
        return self.medium_skew if name == "skew" else self.medium

    def poling_for(self, name):
        return self.polings["apodized" if name == "skew" else name]

    def g0(self, name, double=False, target=5.0, tol=1e-6):
        key = (name, double, target)
        if key not in self._gain:
            g, _ = tune_gain(
                self.grid, self.pump, self.medium_for(name), self.poling_for(name),
                target, double=double, tol=tol,
            )
            self._gain[key] = g
        return self._gain[key]

    def pump_at(self, name, double=False, target=5.0):
        return replace(self.pump, g0=self.g0(name, double, target))

    def propagator(self, name, double=False, target=5.0):
        p = self.pump_at(name, double, target)
        m = self.medium_for(name)
        pol = self.poling_for(name)
        if double:
            return double_pass(self.grid, p, m, pol)
        return compose(self.grid, p, m, pol)

    def decomp(self, name, double=False, target=5.0, remove_free_phase=False):
        key = (name, double, target, remove_free_phase)
        if key not in self._decomp:
            if remove_free_phase:
                self._decomp[key] = self.decomp(name, double, target).without_free_phase(
                    self.grid, self.medium_for(name), double)
            else:
                self._decomp[key] = decompose(self.propagator(name, double, target),
                                              self.grid)
        return self._decomp[key]


@pytest.fixture(scope="session", autouse=True)
def _one_blas_thread():
    with one_blas_thread():
        yield


@pytest.fixture(autouse=True)
def _empty_memos():
    compose.cache_clear()
    build_coupled_matrices.cache_clear()


@pytest.fixture(scope="session")
def lab():
    return BenchLab()


@pytest.fixture()
def compose_evaluations(monkeypatch):
    """A list that grows by the pump g0 of each pass `compose` evaluates.

    Memo hits are not evaluations: compose is rebuilt as a memo of the same
    size around a counting copy of the function it memoizes, and rebound in
    every twinbeam module that holds it; `cli.main` clears the new memo.
    """
    evaluations, original = [], propagator.compose

    def counting(grid, pump, medium, poling):
        evaluations.append(pump.g0)
        return original.__wrapped__(grid, pump, medium, poling)

    memoized = lru_cache(maxsize=propagator.COMPOSE_MEMO)(counting)
    for name, module in list(sys.modules.items()):
        if name.startswith("twinbeam") and getattr(module, "compose", None) is original:
            monkeypatch.setattr(module, "compose", memoized)
    monkeypatch.setattr(cli, "_clear_compose_memo", memoized.cache_clear)
    return evaluations


def _counted_builds(monkeypatch, name):
    """A list that grows by one entry (the bin count) per build of the cached
    Propagator property `name`."""
    builds = []
    build = getattr(Propagator, name).func

    def counted(prop):
        builds.append(prop.n)
        return build(prop)

    cached = cached_property(counted)
    cached.__set_name__(Propagator, name)
    monkeypatch.setattr(Propagator, name, cached)
    return builds


@pytest.fixture()
def matrix_builds(monkeypatch):
    """A list that grows by one entry (the bin count) per Propagator.matrix build."""
    return _counted_builds(monkeypatch, "matrix")


@pytest.fixture()
def view_formations(monkeypatch):
    """A list that grows by one entry per Propagator.bogoliubov formation."""
    return _counted_builds(monkeypatch, "bogoliubov")
