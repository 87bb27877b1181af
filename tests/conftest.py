"""Shared fixtures: one bench-scale configuration reused across the suite.

Gain tuning and 4N x 4N decompositions at N = 101 are the expensive steps,
so they are computed lazily and cached for the whole session in BenchLab.
The individual unit-test modules build their own small (N <= 21) setups and
do not touch the lab; the acceptance module leans on it heavily.

The whole session runs on one OpenBLAS thread, as every command-line run
does: at these matrix orders threading costs more than it saves.  Tests of
the thread controls themselves set their own counts or use subprocesses.
"""

from dataclasses import replace

import pytest

from twinbeam import (
    MediumSpec,
    Poling,
    PumpSpec,
    apodized_poling,
    build_grid,
    compose,
    decompose,
    default_half_width,
    demodulate_poling,
    double_pass,
    qpm_poling,
    tune_gain,
)
from twinbeam.numerics import one_blas_thread

BENCH_N = 101
BENCH_L = 1.0
# 169 domains at pmf_width 8: the demodulated sign sequence happens to be
# palindromic, which the elementwise flip relation between input and output
# modes of a single pass requires (generic greedy gratings are not).
AP_DOMAINS = 169
AP_PMF_WIDTH = 8.0


class BenchLab:
    """Lazily tuned propagators and decompositions, shared per session.

    Configurations are addressed by name: "apodized", "unpoled", "qpm" run on
    the velocity-matched medium; "skew" is the apodized grating on a medium
    with a 40% walk-off mismatch.
    """

    def __init__(self):
        self.medium = MediumSpec.from_walkoffs(8.0, -8.0, BENCH_L)
        self.medium_skew = MediumSpec.from_walkoffs(8.0, -4.8, BENCH_L)
        self.grid = build_grid(BENCH_N, 0.0, default_half_width(self.medium))
        self.pump = PumpSpec(center=0.0, sigma=1.0, g0=1.0)
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
            self._decomp[key] = decompose(
                self.propagator(name, double, target), self.grid,
                medium=self.medium_for(name), double=double,
                remove_free_phase=remove_free_phase,
            )
        return self._decomp[key]


@pytest.fixture(scope="session", autouse=True)
def _one_blas_thread():
    with one_blas_thread():
        yield


@pytest.fixture(scope="session")
def lab():
    return BenchLab()
