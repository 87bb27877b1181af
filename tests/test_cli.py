"""End-to-end runs of the command line driver, in process via main()."""

import json
import os
import subprocess
import sys
import tracemalloc
from functools import cached_property

import numpy as np
import pytest

import twinbeam
from twinbeam import (
    Propagator, apodized_poling, build_coupled_matrices, compose, decompose,
    default_half_width, double_pass, flip_overlap, load_poling, numerics, qpm_poling,
)
from twinbeam.blochmessiah import FACTOR_TOL, PAIR_RTOL, RECON_RTOL, Decomposition
from twinbeam.cli import (
    PHOTON_BALANCE_TOL, _clear_compose_memo, _clear_matrices_memo, load_config, main,
)
from twinbeam.errors import DecompositionError

# velocities matching walk-offs (+8, -8) at pump velocity 0.1
SGVM_MEDIUM = {"vP": 0.1, "vS": 1.0 / 18.0, "vI": 0.5, "L": 1.0}
# walk-offs (+8, -4.8): a 40% mismatch, outside the SGVM regime
SKEW_MEDIUM = {"vP": 0.1, "vS": 1.0 / 18.0, "vI": 1.0 / 5.2, "L": 1.0}
# the README config: 169-domain apodized grating, SGVM double pass
README_CONFIG = {
    "grid": {"N": 101, "half_width": 5.0},
    "pump": {"sigma": 1.0, "target_NS": 5.0},
    "medium": dict(SGVM_MEDIUM),
    "poling": {"kind": "apodized", "domain_width": 1.0 / 169, "pmf_width": 8.0},
    "pass_mode": "double",
}
# a tabulated pump spectrum, even about the pump center
EVEN_TABLE = {"frequencies": [-2.0, 0.0, 2.0], "values": [0.5, 1.0, 0.5]}
# starts with a UTF-16 byte order mark, which is not UTF-8
NOT_UTF8 = b"\xff\xfe1.0 1\n"


def base_config(**over):
    cfg = {
        "grid": {"N": 9, "half_width": 5.0},
        "pump": {"g0": 1.0},
        "medium": dict(SGVM_MEDIUM),
        "poling": {"kind": "unpoled"},
    }
    cfg.update(over)
    return cfg


def run(tmp_path, cfg, *args, name="run.json", outname="out"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    out = tmp_path / outname
    rc = main(list(args) + ["--config", str(path), "--out", str(out)])
    return rc, out


def read_summary(out):
    return json.loads((out / "summary.json").read_text())


# ---------------------------------------------------------------- simulate

def test_simulate_writes_summary_and_modes(tmp_path):
    rc, out = run(tmp_path, base_config(), "simulate")
    assert rc == 0
    summary = read_summary(out)
    assert summary["pass_mode"] == "single"
    assert summary["mean_NS"] > 0.1
    assert not summary["passive"]
    r = summary["r"]
    assert r == sorted(r, reverse=True)
    assert summary["reconstruction_residual"] < 1e-8
    # input and output modes of one pass differ only by bin reversal
    for sq in summary["squeezers"]:
        assert sq["flip_overlap_signal"] > 1.0 - 1e-6
        assert set(sq) == {"k", "r", "fidelity_signal", "fidelity_idler",
                           "flip_overlap_signal"}
    header = (out / "modes.csv").read_text().splitlines()[0]
    assert header == "k,beam,direction,bin,omega_detuning,re,im,r_k"


def test_modes_csv_bytes_match_per_element_formatting(tmp_path):
    # the writer formats whole columns from lists; the file must be the one
    # a repr(float(x)) per element gives
    cfg = base_config(medium=dict(SKEW_MEDIUM), pump={"g0": 1.5})
    rc, out = run(tmp_path, cfg, "simulate")
    assert rc == 0
    run_cfg = load_config(tmp_path / "run.json")
    grid = run_cfg.grid
    decomp = decompose(compose(grid, run_cfg.pump, run_cfg.medium, run_cfg.sim_poling),
                       grid)
    rows = ["k,beam,direction,bin,omega_detuning,re,im,r_k\n"]
    for k in decomp.active_pairs():
        for direction in ("in", "out"):
            for mode in decomp.pair_modes(k, direction):
                amps = mode.amplitudes
                for b in range(grid.n):
                    rows.append("%d,%s,%s,%d,%s,%s,%s,%s\n" % (
                        k + 1, mode.beam, direction, b + 1,
                        repr(float(grid.detunings[b])),
                        repr(float(amps[b].real)), repr(float(amps[b].imag)),
                        repr(float(mode.r))))
    assert len(rows) > 1
    assert (out / "modes.csv").read_bytes() == "".join(rows).encode()


@pytest.mark.parametrize("command,cfg,files", [
    ("simulate", base_config(), ("summary.json", "modes.csv")),
    ("verify", base_config(pump={"g0": 0.8}, pass_mode="double",
                           poling={"kind": "apodized", "domain_width": 1.0 / 12.0,
                                   "pmf_width": 4.0}), ("verify.json",)),
    ("verify", base_config(medium=dict(SKEW_MEDIUM)), ("verify.json",)),
    ("simulate", base_config(medium=dict(SKEW_MEDIUM), pass_mode="double",
                             options={"remove_free_phase": True}),
     ("summary.json", "modes.csv")),
], ids=["simulate-sgvm", "verify-sgvm-double", "verify-skew",
        "simulate-skew-free-phase"])
def test_outputs_are_deterministic(tmp_path, command, cfg, files):
    rc_a, out_a = run(tmp_path, cfg, command, outname="a")
    rc_b, out_b = run(tmp_path, cfg, command, outname="b")
    assert rc_a == rc_b == 0
    for name in files:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_simulate_zero_gain_is_passive(tmp_path):
    rc, out = run(tmp_path, base_config(pump={"g0": 0.0}), "simulate")
    assert rc == 0
    summary = read_summary(out)
    assert summary["passive"]
    assert summary["r"] == []
    assert summary["squeezers"] == []
    assert abs(summary["mean_NS"]) < 1e-12


def test_simulate_double_pass_tuned(tmp_path):
    cfg = base_config(
        pump={"target_NS": 2.0},
        poling={"kind": "apodized", "domain_width": 1.0 / 12.0, "pmf_width": 4.0},
        pass_mode="double",
    )
    rc, out = run(tmp_path, cfg, "simulate")
    assert rc == 0
    summary = read_summary(out)
    assert summary["pass_mode"] == "double"
    assert abs(summary["gain"]["achieved_NS"] - 2.0) < 5e-6
    assert abs(summary["mean_NS"] - 2.0) < 5e-6
    assert summary["gain"]["g0"] > 0
    # matched double pass: each squeezer reenters its own input mode
    top = summary["squeezers"][0]
    assert top["fidelity_signal"] > 1.0 - 1e-6
    assert top["fidelity_idler"] > 1.0 - 1e-6


def test_simulate_reads_poling_from_file(tmp_path):
    from twinbeam import Poling, save_poling

    save_poling(Poling.unpoled(1.0), tmp_path / "grating.txt")
    cfg = base_config(poling={"kind": "file", "path": "grating.txt"})
    rc, out = run(tmp_path, cfg, "simulate")
    assert rc == 0
    ref, out_ref = run(tmp_path, base_config(), "simulate", name="ref.json",
                       outname="ref")
    assert (out / "summary.json").read_bytes() == \
        (out_ref / "summary.json").read_bytes()


@pytest.mark.parametrize("cfg", [
    base_config(grid={"N": 21, "half_width": 5.0}, pump={"g0": 0.8},
                pass_mode="double",
                poling={"kind": "apodized", "domain_width": 1.0 / 12.0,
                        "pmf_width": 4.0}),
    base_config(grid={"N": 15, "half_width": 5.0}, medium=dict(SKEW_MEDIUM)),
    base_config(grid={"N": 15, "half_width": 5.0}, medium=dict(SKEW_MEDIUM),
                pass_mode="double"),
], ids=["sgvm-double", "skew-single", "skew-double"])
def test_flip_overlap_matches_raw_decomposition(tmp_path, cfg):
    # with remove_free_phase the flip overlaps still describe the raw
    # propagator; a second factorization of it is the reference
    cfg["options"] = {"remove_free_phase": True}
    rc, out = run(tmp_path, cfg, "simulate")
    assert rc == 0
    squeezers = read_summary(out)["squeezers"]
    assert squeezers
    run_cfg = load_config(tmp_path / "run.json")
    prop = double_pass(run_cfg.grid, run_cfg.pump, run_cfg.medium, run_cfg.sim_poling) \
        if run_cfg.double else \
        compose(run_cfg.grid, run_cfg.pump, run_cfg.medium, run_cfg.sim_poling)
    raw = decompose(prop, run_cfg.grid)
    for sq in squeezers:
        sig_out, _ = raw.pair_modes(sq["k"] - 1, "out")
        sig_in, _ = raw.pair_modes(sq["k"] - 1, "in")
        assert sq["flip_overlap_signal"] == pytest.approx(
            flip_overlap(sig_in, sig_out), abs=1e-10)


def test_each_command_starts_with_an_empty_compose_memo(tmp_path):
    # a pass composed earlier in the process, perhaps under another BLAS
    # thread count, is composed again rather than read from the memo
    cfg = base_config()
    (tmp_path / "run.json").write_text(json.dumps(cfg))
    loaded = load_config(tmp_path / "run.json")
    args = loaded.grid, loaded.pump, loaded.medium, loaded.sim_poling
    for command in ("simulate", "verify"):
        earlier = compose(*args)
        rc, _ = run(tmp_path, cfg, command)
        assert rc == 0
        assert compose(*args) is not earlier  # the command's own pass


def test_readme_simulate_inverts_each_sgvm_propagator_once(tmp_path, monkeypatch,
                                                          compose_evaluations):
    # one inverse per composed pass (the opposite-sign exponential) and one
    # per double pass whose photons are read, shared by its photon count, 4N
    # matrix and residual: the 5 tuning evaluations and the device pass,
    # formed again at the root from the memo.  The two spectral guesses form
    # their double pass again too, and read no photons.
    inverses, doubles = [], []
    inv, double = np.linalg.inv, twinbeam.propagator.double_pass

    def counting_inv(a):
        inverses.append(a.shape)
        return inv(a)

    def counting_double(*args, **kwargs):
        doubles.append(args[1].g0)
        return double(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "inv", counting_inv)
    for module in (twinbeam.cli, twinbeam.blochmessiah):
        monkeypatch.setattr(module, "double_pass", counting_double)
    for pass_mode, composed in (("double", 5), ({"kind": "double", "gain2_scale": 1.3}, 10)):
        del compose_evaluations[:], inverses[:], doubles[:]
        rc, _ = run(tmp_path, dict(README_CONFIG, pass_mode=pass_mode), "simulate")
        assert rc == 0
        assert len(compose_evaluations) == composed and len(doubles) == 5 + 2 + 1
        assert len(inverses) == composed + 5 + 1


# 40% walk-off mismatch at a fixed gain, free phase stripped: the generic path
MISMATCH_CONFIG = dict(README_CONFIG, pump={"sigma": 1.0, "g0": 2.5}, medium=dict(SKEW_MEDIUM),
                       options={"remove_free_phase": True})


def test_verify_builds_the_device_coupling_matrices_once(tmp_path):
    # compose, verify's own checks and the analytic structure checks read the
    # device pump's sign +1 matrices from one memo; the other evaluation is
    # the zero-gain double pass.  Each command starts with the memo empty.
    cfg = dict(MISMATCH_CONFIG, grid={"N": 31, "half_width": 5.0})
    for _ in range(2):
        rc, _ = run(tmp_path, cfg, "verify")
        assert rc == 0
        assert build_coupled_matrices.cache_info().misses == 2


@pytest.mark.parametrize("remove_free_phase, per_squeezer", [(False, 2), (True, 3)])
def test_simulate_derives_each_squeezers_modes_once(tmp_path, monkeypatch,
                                                    remove_free_phase, per_squeezer):
    # the summary and modes.csv share each squeezer's in and out modes; only
    # a stripped free phase needs the raw output signal mode as well
    calls, pair_modes = [], Decomposition.pair_modes

    def counting(decomp, k, direction):
        calls.append((k, direction))
        return pair_modes(decomp, k, direction)

    monkeypatch.setattr(Decomposition, "pair_modes", counting)
    cfg = base_config(pump={"g0": 1.5}, options={"remove_free_phase": remove_free_phase})
    rc, out = run(tmp_path, cfg, "simulate")
    assert rc == 0
    active = len(read_summary(out)["squeezers"])
    assert active > 0 and len(calls) == per_squeezer * active


def spy_on_mode_columns(monkeypatch):
    """The factor shapes each complex mode-column formation (_beam_modes)
    starts from, the decomposition's and svd_route's alike."""
    formed, beam_modes = [], twinbeam.blochmessiah._beam_modes

    def spy(QS, QI):
        formed.append(QS.shape)
        return beam_modes(QS, QI)

    monkeypatch.setattr(twinbeam.blochmessiah, "_beam_modes", spy)
    return formed


# N = 41 on the default grid at g0 = 1.5: 26 of 41 squeezers active (SGVM), 23 at 40% mismatch
PARTLY_ACTIVE = base_config(grid={"N": 41}, pump={"g0": 1.5},
                            poling={"kind": "qpm", "period": 2.0 / 9.0})


@pytest.mark.parametrize("remove_free_phase, per_squeezer", [(False, 2), (True, 3)])
@pytest.mark.parametrize("medium", [SGVM_MEDIUM, SKEW_MEDIUM], ids=["sgvm", "skew"])
def test_simulate_forms_mode_columns_only_of_active_squeezers(tmp_path, monkeypatch, medium,
                                                              remove_free_phase, per_squeezer):
    # each active squeezer's in and out columns (and its raw output column
    # when the free phase is stripped), one column per beam at a time, and
    # no mode matrix of the passive ones
    formed = spy_on_mode_columns(monkeypatch)
    cfg = dict(PARTLY_ACTIVE, medium=dict(medium),
               options={"remove_free_phase": remove_free_phase})
    rc, out = run(tmp_path, cfg, "simulate")
    assert rc == 0
    active = len(read_summary(out)["squeezers"])
    assert 0 < active < 41
    assert formed == [(41,)] * (per_squeezer * active)


@pytest.mark.parametrize("pass_mode", ["single", "double"])
def test_verify_route_check_forms_only_the_active_mode_columns(tmp_path, monkeypatch, pass_mode):
    # svd_route's output modes, then the decomposition's, are formed once
    # each, for the route's k active squeezers only
    formed = spy_on_mode_columns(monkeypatch)
    rc, out = run(tmp_path, dict(PARTLY_ACTIVE, pass_mode=pass_mode), "verify")
    assert rc == 0
    route, (n, k) = formed
    assert route == (n, k) and n == 41 and 0 < k < n
    names = [c["name"] for c in json.loads((out / "verify.json").read_text())["checks"]]
    assert "route_mode_overlap" in names


@pytest.mark.parametrize("medium", [SGVM_MEDIUM, SKEW_MEDIUM], ids=["sgvm", "skew"])
def test_verify_decomposes_a_double_pass_with_the_compose_memo_empty(tmp_path, monkeypatch,
                                                                     medium):
    # nothing after svd_route reads a memoized pass, so the forward pass and
    # its cached X^-T are released before the decomposition
    sizes, decompose_ = [], twinbeam.cli.decompose

    def entering(prop, grid):
        sizes.append(compose.cache_info().currsize)
        return decompose_(prop, grid)

    monkeypatch.setattr(twinbeam.cli, "decompose", entering)
    cfg = dict(PARTLY_ACTIVE, medium=dict(medium), pass_mode="double")
    assert run(tmp_path, cfg, "verify")[0] == 0
    assert sizes == [0]


@pytest.mark.parametrize("cfg, before, composed", [
    (README_CONFIG, {"expm", "inv", "Propagator"}, 6),
    (MISMATCH_CONFIG, {"expm", "Propagator"}, 2),
], ids=["readme", "mismatch-40pct"])
def test_readme_commands_run_real_arithmetic_and_form_no_cached_view(
        tmp_path, monkeypatch, view_formations, compose_evaluations, cfg, before, composed):
    # tuning, photon counts and the device pass run no complex exponential or
    # inverse and build no complex Propagator before decompose.  No command
    # caches the original-basis view on a pass: simulate and a sweep never
    # read it, svd_route works in the exchange basis, and structure_checks
    # forms its own, freed on return, so the memoized forward pass does not
    # carry it through verify's decomposition (verify formed one when both
    # analytic routes read the cached view)
    dtypes, decomposing = [], []
    decompose_ = twinbeam.cli.decompose

    def recording(what, fn, array=np.asarray):
        def wrapper(arg):
            if not decomposing:
                dtypes.append((what, array(arg).dtype.kind))
            return fn(arg)
        return wrapper

    def entering(prop, grid):
        decomposing.append(prop)
        return decompose_(prop, grid)

    monkeypatch.setattr(numerics, "expm", recording("expm", numerics.expm))
    monkeypatch.setattr(np.linalg, "inv", recording("inv", np.linalg.inv))
    monkeypatch.setattr(Propagator, "__post_init__", recording(
        "Propagator", Propagator.__post_init__, lambda prop: prop.exchange))
    monkeypatch.setattr(twinbeam.cli, "decompose", entering)
    rc, _ = run(tmp_path, cfg, "simulate")
    assert rc == 0
    assert {what for what, _ in dtypes} == before
    assert {kind for _, kind in dtypes} == {"f"}
    assert len(decomposing) == 1

    small = dict(cfg, grid={"N": 31, "half_width": 5.0})
    rc, _ = run(tmp_path, small, "sweep-gain", "--points", "11")
    assert rc == 0

    del compose_evaluations[:]
    rc, _ = run(tmp_path, cfg, "verify")
    assert rc == 0
    assert view_formations == [] and len(compose_evaluations) == composed


@pytest.mark.parametrize("pump, composed", [
    ({"sigma": 1.0, "target_NS": 5.0}, 25),
    ({"sigma": 1.0, "g0": 6.28}, 21),
    ({"sigma": 1.0, "g0": 0.8}, 19),
], ids=["tuned", "fixed-g0", "fixed-g0-below-1"])
def test_sweep_gain_composes_each_pass_once(tmp_path, compose_evaluations, pump, composed):
    # The README config at N=31, 11 points.  The endpoint rows and the
    # scale-1 row find their passes in the memo, and a fixed g0's pass is the
    # base pass, not tuned again (27, 24 and 24 composes when they were
    # rebuilt).
    cfg = dict(README_CONFIG, grid={"N": 31, "half_width": 5.0}, pump=pump)
    rc, _ = run(tmp_path, cfg, "sweep-gain", "--points", "11")
    assert rc == 0
    assert len(compose_evaluations) == len(set(compose_evaluations)) == composed
    if "g0" in pump:
        assert compose_evaluations[0] == pump["g0"]


@pytest.mark.parametrize("cfg, formed", [(README_CONFIG, False), (MISMATCH_CONFIG, True)],
                         ids=["readme", "mismatch-40pct"])
@pytest.mark.parametrize("command", ["simulate", "verify", "sweep-gain"])
def test_no_command_forms_an_sgvm_pair_form(tmp_path, monkeypatch, cfg, formed, command):
    # at N = 31: in the SGVM regime the residual, photon counts, max|S|, the
    # photon balance, the factorization and svd_route read X and X^-T at
    # N x N, so no 2N pair form is assembled; away from it pair_form is the
    # stored X, which the 2N Gram route reads
    calls, pair_form = [], Propagator.pair_form

    def counted(prop):
        calls.append(prop.n)
        return pair_form(prop)

    monkeypatch.setattr(Propagator, "pair_form", counted)
    cfg = dict(cfg, grid={"N": 31, "half_width": 5.0})
    args = ("--points", "3") if command == "sweep-gain" else ()
    rc, _ = run(tmp_path, cfg, command, *args)
    assert rc == 0
    assert bool(calls) == formed


@pytest.mark.parametrize("command,cfg", [
    ("simulate", base_config(grid={"N": 21, "half_width": 5.0},
                             pump={"target_NS": 2.0}, pass_mode="double",
                             poling={"kind": "apodized", "domain_width": 1.0 / 12.0,
                                     "pmf_width": 4.0})),
    ("simulate", base_config(grid={"N": 15, "half_width": 5.0}, medium=dict(SKEW_MEDIUM),
                             options={"remove_free_phase": True})),
    ("sweep-gain", base_config(pump={"target_NS": 0.5}, pass_mode="double")),
    ("verify", base_config(grid={"N": 15, "half_width": 5.0}, medium=dict(SKEW_MEDIUM),
                           pass_mode="double")),
    ("verify", base_config(grid={"N": 21, "half_width": 5.0}, pump={"g0": 0.8},
                           pass_mode="double",
                           poling={"kind": "apodized", "domain_width": 1.0 / 12.0,
                                   "pmf_width": 4.0})),
], ids=["simulate-sgvm-double-tuned", "simulate-skew-free-phase", "sweep-gain-3",
        "verify-skew-double", "verify-sgvm-matched-double"])
def test_no_command_builds_the_4n_matrix(tmp_path, matrix_builds, command, cfg):
    # tuning, photon counts, the factorization (in the pair form),
    # free-phase stripping, the SVD route and its factor checks, the
    # zero-gain check, every symplectic residual (summary.json's, verify's
    # and the factorization's input guard) and verify's max|S| and photon
    # balance read the 2N matrix
    rc, _ = run(tmp_path, cfg, command, "--points", "3") if command == "sweep-gain" \
        else run(tmp_path, cfg, command)
    assert rc == 0
    assert matrix_builds == []


@pytest.mark.parametrize("command,cfg", [
    ("simulate", base_config(grid={"N": 21, "half_width": 5.0},
                             pump={"target_NS": 2.0}, pass_mode="double",
                             poling={"kind": "apodized", "domain_width": 1.0 / 12.0,
                                     "pmf_width": 4.0})),
    ("verify", base_config(grid={"N": 21, "half_width": 5.0}, pump={"g0": 0.8},
                           pass_mode="double",
                           poling={"kind": "apodized", "domain_width": 1.0 / 12.0,
                                   "pmf_width": 4.0})),
    ("verify", base_config(grid={"N": 15, "half_width": 5.0}, medium=dict(SKEW_MEDIUM),
                           pass_mode="double")),
], ids=["simulate-sgvm-double-tuned", "verify-sgvm-matched-double", "verify-skew-double"])
def test_the_decomposed_pass_residual_is_computed_once(tmp_path, monkeypatch, command, cfg):
    # summary.json's value, verify's propagator_symplectic check and the
    # factorization's input guard share one small-form computation, and no
    # 4N symplectic residual is formed
    computed, decomposed, dense = [], [], []
    residual = Propagator.symplectic_residual.func

    def counted(prop):
        computed.append(prop)
        return residual(prop)

    cached = cached_property(counted)
    cached.__set_name__(Propagator, "symplectic_residual")
    monkeypatch.setattr(Propagator, "symplectic_residual", cached)
    full, decomp = twinbeam.propagator.symplectic_residual, twinbeam.cli.decompose

    def counted_full(S):
        dense.append(S.shape)
        return full(S)

    def recording(prop, grid):
        decomposed.append(prop)
        return decomp(prop, grid)

    for module in (twinbeam.propagator, twinbeam.blochmessiah, twinbeam.cli):
        monkeypatch.setattr(module, "symplectic_residual", counted_full)
    monkeypatch.setattr(twinbeam.cli, "decompose", recording)
    rc, _ = run(tmp_path, cfg, command)
    assert rc == 0
    assert len(decomposed) == 1
    assert len(computed) == 1 and computed[0] is decomposed[0]
    assert dense == []


def test_grid_half_width_defaults_to_default_half_width(tmp_path):
    # sigma 1.3 on walk-off 8: 5 sigma max(1, 1 / (kappa sigma L)) = 6.5
    cfg = base_config(grid={"N": 9}, pump={"g0": 1.0, "sigma": 1.3})
    rc_a, out_a = run(tmp_path, cfg, "simulate", name="a.json", outname="a")
    width = default_half_width(load_config(tmp_path / "a.json").medium, 1.3)
    assert width == pytest.approx(6.5)
    cfg["grid"]["half_width"] = width
    rc_b, out_b = run(tmp_path, cfg, "simulate", name="b.json", outname="b")
    assert rc_a == rc_b == 0
    for name in ("summary.json", "modes.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


# ---------------------------------------------------------------- config errors

@pytest.mark.parametrize("cfg", [
    base_config(extra={}),
    base_config(pump={"g0": 1.0, "target_NS": 2.0}),
    base_config(pump={}),
    base_config(pump={"g0": -1.0}),
    base_config(pass_mode={"kind": "single", "gain2_scale": 0.9}),
    base_config(pass_mode="triple"),
    base_config(grid={"N": 9.5}),
    base_config(grid={"N": True}),
    base_config(poling={"kind": "unpoled", "period": 2.0}),
    base_config(poling={"kind": "qpm"}),
    base_config(medium={"vP": 0.1, "vS": -1.0, "vI": 0.5, "L": 1.0}),
    base_config(options={"tolerances": {"bogus": 1e-9}}),
    base_config(options={"remove_free_phase": "yes"}),
    base_config(poling={"kind": "file", "path": "no-such-grating.txt"}),
    base_config(pump={"g0": 1.0, "envelope": dict(EVEN_TABLE, frequencies=["a", "b", "c"])}),
    base_config(pump={"g0": 1.0, "envelope": dict(EVEN_TABLE, values=[0.5, None, 0.5])}),
    base_config(pump={"g0": 1.0, "envelope": dict(EVEN_TABLE, frequency_symmetric="no")}),
    base_config(options={"tolerances": {"reconstruction": 1e-6}}),
    base_config(pump={"g0": 1.0, "envelope": dict(EVEN_TABLE, frequencies=["-2", "0", "2"])}),
    pytest.param(NOT_UTF8, id="config-not-utf8"),
    pytest.param(base_config(poling={"kind": "file", "path": "not-utf8.txt"}),
                 id="poling-not-utf8"),
])
def test_bad_configs_exit_2(tmp_path, capsys, cfg):
    (tmp_path / "not-utf8.txt").write_bytes(NOT_UTF8)
    if isinstance(cfg, bytes):
        path = tmp_path / "run.json"
        path.write_bytes(cfg)
        rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
    else:
        rc, _ = run(tmp_path, cfg, "simulate")
    assert rc == 2
    assert capsys.readouterr().err.startswith("configuration error: ")


def test_an_output_dir_option_exits_2_and_is_named(tmp_path, capsys):
    # --out is the one way to choose the output directory
    rc, out = run(tmp_path, base_config(options={"output_dir": str(tmp_path / "elsewhere")}),
                  "simulate")
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: options: unknown keys") and "output_dir" in err
    assert not (out / "summary.json").exists() and not (tmp_path / "elsewhere").exists()


INF, NAN = float("inf"), float("nan")
APODIZED_01 = {"kind": "apodized", "domain_width": 0.1, "pmf_width": 8.0}


@pytest.mark.parametrize("cfg, named", [
    (base_config(pump={"target_NS": INF}), "pump.target_NS"),
    (base_config(medium=dict(SGVM_MEDIUM, L=INF), poling=APODIZED_01), "medium.L"),
    (base_config(medium=dict(SGVM_MEDIUM, L=1e308), poling=APODIZED_01), "L = 1e+308"),
    (base_config(grid={"N": 9, "half_width": INF}), "grid.half_width"),
    (base_config(pump={"g0": 1.0, "sigma": INF}), "pump.sigma"),
    (base_config(medium=dict(SGVM_MEDIUM, L=1e308), poling={"kind": "qpm", "period": 0.2}),
     "L = 1e+308"),
    (base_config(pass_mode={"kind": "double", "gain2_scale": NAN}), "pass_mode.gain2_scale"),
    (base_config(poling=dict(APODIZED_01, pmf_width=NAN)), "poling.pmf_width"),
    (base_config(pump={"g0": 10 ** 400}), "pump.g0"),
    (base_config(medium=dict(SGVM_MEDIUM, vS=5e-324)), "medium.vS"),
    (base_config(pump={"g0": 1.0, "sigma": 1e160}), "pump.sigma = 1e+160 is out of range: "
                                                     "its square overflows"),
    (base_config(pump={"g0": 1.0, "sigma": 1e-200}), "pump.sigma = 1e-200 is out of range: "
                                                      "its square underflows to 0"),
], ids=["target-inf", "L-inf", "L-1e308-apodized", "half-width-inf", "sigma-inf",
        "L-1e308-qpm", "gain2-scale-nan", "pmf-width-nan", "g0-huge-integer",
        "vS-subnormal", "sigma-squared-overflows", "sigma-squared-underflows"])
def test_non_finite_numbers_exit_2(tmp_path, capsys, cfg, named):
    # JSON's Infinity and NaN, a grating whose domain count overflows, a
    # subnormal velocity whose inverse overflows, and a pump sigma whose
    # Python-float square overflows or underflows to 0: tuning "converged" at
    # g0 = 0, int(inf) and expm of inf escaped as exit 0, 1 and 3, and
    # (pi sigma^2)^(-1/4) raised OverflowError and ZeroDivisionError (exit 1)
    rc, out = run(tmp_path, cfg, "simulate")
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and named in err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("poling", [{"kind": "qpm", "period": 0.2},
                                    {"kind": "apodized", "domain_width": 0.1}],
                         ids=["qpm", "apodized"])
def test_a_grating_of_too_many_domains_exits_2_before_allocating(tmp_path, capsys, poling):
    # 1e18 domains: the domain list raised an uncaught MemoryError (exit 1)
    tracemalloc.start()
    rc, _ = run(tmp_path, base_config(medium=dict(SGVM_MEDIUM, L=1e17), poling=poling),
                "simulate")
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert rc == 2
    assert "L = 1e+17 holds 1e+18 domains" in capsys.readouterr().err
    assert peak < 10e6


def test_a_grid_above_max_bins_exits_2_before_allocating(tmp_path, capsys):
    # N = 10^9 was killed out of memory in build_grid; one past the limit
    # is refused before the detunings exist
    tracemalloc.start()
    rc, _ = run(tmp_path, base_config(grid={"N": twinbeam.model.MAX_BINS + 1}), "simulate")
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert rc == 2
    assert "grid.N = %d is above the limit of %d bins" % (
        twinbeam.model.MAX_BINS + 1, twinbeam.model.MAX_BINS) in capsys.readouterr().err
    assert peak < 1e6


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize("mismatch", [0.0, 0.4], ids=["sgvm", "mismatch-40pct"])
@pytest.mark.parametrize("ratio,code", [(0.999, 0), (1.001, 2)], ids=["inside", "past"])
def test_the_walkoff_phase_limit_exits_2_just_past_it(tmp_path, capsys, command, mismatch,
                                                      ratio, code):
    # kappa_S * half_width * L = ratio * MAX_WALKOFF_PHASE, kappa_I = -(1 - mismatch) kappa_S
    kappa = ratio * twinbeam.model.MAX_WALKOFF_PHASE / 5.0
    pace = 1.5 * kappa  # 1/vP, so every inverse velocity stays positive
    medium = {"vP": 1 / pace, "vS": 1 / (pace + kappa),
              "vI": 1 / (pace - (1 - mismatch) * kappa), "L": 1.0}
    rc, _ = run(tmp_path, base_config(medium=medium), command)
    assert rc == code
    if code:
        err = capsys.readouterr().err
        assert "medium.vS, vI, vP" in err and "above the limit 1000" in err


@pytest.mark.parametrize("args,flag", [
    (["poling", "eval", "--dk-points", "-5"], "--dk-points"),
    (["poling", "eval", "--dk-points", "0"], "--dk-points"),
    (["poling", "eval", "--dk-points", "1"], "--dk-points"),
    (["poling", "eval", "--dk-points", "200000000000000000"], "--dk-points"),
    (["poling", "eval", "--dk-max", "nan"], "--dk-max"),
    (["poling", "eval", "--dk-max", "inf"], "--dk-max"),
    (["poling", "eval", "--dk-max", "0"], "--dk-max"),
    (["poling", "eval", "--dk-max", "-3"], "--dk-max"),
    (["sweep-gain", "--jobs", "0"], "--jobs"),
    (["sweep-gain", "--jobs", "-3"], "--jobs"),
], ids=["dk-points--5", "dk-points-0", "dk-points-1", "dk-points-2e17", "dk-max-nan", "dk-max-inf",
        "dk-max-0", "dk-max--3", "jobs-0", "jobs--3"])
def test_bad_flags_exit_2(tmp_path, capsys, args, flag):
    cfg = base_config(pump={"target_NS": 0.5}, pass_mode="double")
    rc, out = run(tmp_path, cfg, *args)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: " + flag)
    assert not (out / "pmf.csv").exists() and not (out / "sweep.csv").exists()


def test_unreadable_configs_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 2
    missing = tmp_path / "nope.json"
    assert main(["simulate", "--config", str(missing), "--out", str(tmp_path)]) == 2


def test_poling_file_length_mismatch_exit_2(tmp_path):
    from twinbeam import Poling, save_poling

    save_poling(Poling.unpoled(2.0), tmp_path / "long.txt")
    cfg = base_config(poling={"kind": "file", "path": "long.txt"})
    rc, _ = run(tmp_path, cfg, "simulate")
    assert rc == 2


@pytest.mark.parametrize("text, cause", [
    ("inf 1\n", "widths must be positive and finite"),
    ("1e308 1\n1e308 -1\n", "total length overflows"),
], ids=["infinite-width", "overflowing-total"])
def test_poling_file_with_infinite_length_exit_2(tmp_path, capsys, text, cause):
    # inf passes the length match (inf > 1e-9 * inf is false) and reached
    # the domain exponential, which exited 3 on non-finite entries
    (tmp_path / "grating.txt").write_text(text)
    cfg = base_config(poling={"kind": "file", "path": "grating.txt"})
    rc, _ = run(tmp_path, cfg, "simulate")
    assert rc == 2
    assert cause in capsys.readouterr().err


def test_overflowing_domain_exponential_names_its_stage(tmp_path, capsys):
    rc, _ = run(tmp_path, base_config(pump={"g0": 1e6}), "simulate")
    assert rc == 3
    err = capsys.readouterr().err
    assert "domain exponential (width 1, g0 = 1e+06)" in err
    assert "expm output contains non-finite entries" in err


# ---------------------------------------------------------------- BLAS threads

def _thread_counts():
    return [get() for _, _, get in numerics.blas_pools()]


@pytest.mark.parametrize("cfg,code", [
    (base_config(), 0),
    (base_config(pump={"g0": -1.0}), 2),
], ids=["exit-0", "exit-2"])
def test_cli_runs_on_one_blas_thread_and_restores_the_pools(
        tmp_path, monkeypatch, cfg, code):
    pools = numerics.blas_pools()
    if not pools:
        pytest.skip("no OpenBLAS library loaded")
    before = _thread_counts()
    seen = []
    simulate = twinbeam.cli.cmd_simulate

    def spy(*args):
        seen.append(_thread_counts())
        return simulate(*args)

    monkeypatch.setattr(twinbeam.cli, "cmd_simulate", spy)
    for _, set_threads, _ in pools:
        set_threads(3)
    try:
        rc, _ = run(tmp_path, cfg, "simulate")
        after = _thread_counts()
    finally:
        for (_, set_threads, _), count in zip(pools, before):
            set_threads(count)
    assert rc == code
    assert after == [3] * len(pools)
    assert seen == ([[1] * len(pools)] if code == 0 else [])


def test_cli_runs_when_no_blas_pool_is_found(tmp_path, monkeypatch):
    monkeypatch.setattr(numerics, "blas_pools", lambda: [])
    rc, out = run(tmp_path, base_config(), "simulate")
    assert rc == 0
    assert read_summary(out)["mean_NS"] > 0.1


@pytest.mark.parametrize("command,cfg,files", [
    ("simulate", base_config(grid={"N": 21, "half_width": 5.0},
                             pump={"target_NS": 2.0}, pass_mode="double",
                             poling={"kind": "apodized", "domain_width": 1.0 / 12.0,
                                     "pmf_width": 4.0}),
     ("summary.json", "modes.csv")),
    ("verify", base_config(grid={"N": 21, "half_width": 5.0}, medium=dict(SKEW_MEDIUM)),
     ("verify.json",)),
], ids=["simulate-sgvm-double-tuned", "verify-skew"])
def test_outputs_identical_across_blas_thread_settings(tmp_path, command, cfg, files):
    # at N = 21 a two-thread OpenBLAS product sums in another order, so these
    # files differ unless the command runs its kernels on one thread
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    src = os.path.dirname(os.path.dirname(os.path.abspath(twinbeam.__file__)))
    outputs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=src)
        out = tmp_path / ("threads" + threads)
        proc = subprocess.run(
            [sys.executable, "-m", "twinbeam.cli", command, "--config", str(path),
             "--out", str(out)], env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE)
        assert proc.returncode == 0, proc.stderr.decode(errors="replace")
        outputs[threads] = [(out / name).read_bytes() for name in files]
    assert outputs["1"] == outputs["2"]


# ---------------------------------------------------------------- sweep-gain

@pytest.mark.parametrize("pump", [{"sigma": 1.0, "target_NS": 5.0},
                                  {"sigma": 1.0, "g0": 6.28}], ids=["tuned", "fixed-g0"])
def test_sweep_gain_composes_the_equal_gain_pass_once(tmp_path, monkeypatch,
                                                      compose_evaluations, pump):
    # The README config at N=31, 11 points.  Tuning (or a fixed g0's base
    # pass) composes the pass at the base gain; the sweep's scale-1 photon
    # count and row find it in the memo and form their N x N double-pass
    # product again from it.
    built = []
    original = twinbeam.propagator.double_pass

    def recording(*args, **kwargs):
        built.append((args[1].g0, kwargs.get("gain2_scale", 1.0)))
        return original(*args, **kwargs)

    for module in (twinbeam.cli, twinbeam.analysis, twinbeam.blochmessiah):
        monkeypatch.setattr(module, "double_pass", recording)
    cfg = dict(README_CONFIG, grid={"N": 31, "half_width": 5.0}, pump=pump)
    rc, out = run(tmp_path, cfg, "sweep-gain", "--points", "11")
    assert rc == 0
    assert "\n1.0," in (out / "sweep.csv").read_text()  # the scale-1 row
    base_g0 = built[-1][0]  # every sweep pass runs at the base gain
    assert compose_evaluations.count(base_g0) == 1
    assert built.count((base_g0, 1.0)) == 3


def test_importing_the_cli_loads_no_thread_pool():
    # concurrent.futures is imported by a threaded sweep (--jobs > 1) only
    src = os.path.dirname(os.path.dirname(os.path.abspath(twinbeam.__file__)))
    code = "import sys, twinbeam.cli; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         check=True, capture_output=True, text=True).stdout
    assert out.split() == ["False"]


def test_sweep_gain_needs_double_pass(tmp_path):
    rc, _ = run(tmp_path, base_config(pump={"target_NS": 0.5}), "sweep-gain")
    assert rc == 2


def test_sweep_gain_outputs(tmp_path):
    cfg = base_config(pump={"target_NS": 0.5}, pass_mode="double")
    rc, out = run(tmp_path, cfg, "sweep-gain", "--points", "3")
    assert rc == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "gain2_scale,mean_NS,fidelity_k1,r1,r2,r3"
    assert len(lines) == 4
    scales = [float(l.split(",")[0]) for l in lines[1:]]
    ns = [float(l.split(",")[1]) for l in lines[1:]]
    assert scales[1] == 1.0
    assert scales[0] < 1.0 < scales[2]
    assert abs(ns[0] - 0.25) < 1e-5 and abs(ns[2] - 0.75) < 1e-5
    svg = (out / "sweep.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


def test_sweep_gain_fixed_g0_centers_on_its_photon_number(tmp_path):
    cfg = base_config(pump={"g0": 0.8}, pass_mode="double")
    rc, out = run(tmp_path, cfg, "sweep-gain", "--points", "3")
    assert rc == 0
    run_cfg = load_config(tmp_path / "run.json")
    base, _ = double_pass(run_cfg.grid, run_cfg.pump, run_cfg.medium,
                          run_cfg.sim_poling).mean_photons()
    tol = 1e-6 * max(1.0, base)
    rows = [l.split(",") for l in (out / "sweep.csv").read_text().splitlines()[1:]]
    assert float(rows[1][0]) == 1.0
    ns = [float(row[1]) for row in rows]
    for got, scale in zip(ns, (0.5, 1.0, 1.5)):
        assert abs(got - scale * base) <= tol


@pytest.mark.parametrize("gain2_scale", [0.3, 1.3])
def test_sweep_gain_fixed_g0_unequal_gains_centers_on_device_photons(tmp_path, gain2_scale):
    # the device pass has unequal gains, so the equal-gain base gain is
    # re-tuned to its photon number rather than taken as the fixed g0
    cfg = base_config(pump={"g0": 0.8},
                      pass_mode={"kind": "double", "gain2_scale": gain2_scale})
    rc, out = run(tmp_path, cfg, "sweep-gain", "--points", "3")
    assert rc == 0
    run_cfg = load_config(tmp_path / "run.json")
    base, _ = double_pass(run_cfg.grid, run_cfg.pump, run_cfg.medium, run_cfg.sim_poling,
                          gain2_scale=gain2_scale).mean_photons()
    tol = 1e-6 * max(1.0, base)
    rows = [l.split(",") for l in (out / "sweep.csv").read_text().splitlines()[1:]]
    assert float(rows[1][0]) == 1.0
    ns = [float(row[1]) for row in rows]
    for got, scale in zip(ns, (0.5, 1.0, 1.5)):
        assert abs(got - scale * base) <= tol


def test_sweep_gain_zero_gain_fixed_g0_exits_2(tmp_path, capsys):
    # roundoff leaves the zero-gain double pass ~1e-29 photons, not 0
    rc, out = run(tmp_path, base_config(pump={"g0": 0.0}, pass_mode="double"),
                  "sweep-gain", "--points", "3")
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: base target ")
    assert "within the sweep tolerance 1e-06 of zero" in err
    assert not (out / "sweep.csv").exists()


# ---------------------------------------------------------------- verify

def test_verify_passes_on_sound_config(tmp_path):
    rc, out = run(tmp_path, base_config(), "verify")
    assert rc == 0
    report = json.loads((out / "verify.json").read_text())
    assert report["failed"] == []
    names = [c["name"] for c in report["checks"]]
    assert "propagator_symplectic" in names
    assert "bm_reconstruction" in names
    assert "route_r_agreement" in names
    assert "block_propagator_symmetry" in names
    assert all(c["pass"] for c in report["checks"])
    assert report["structure"]["sgvm"] is True
    # the thresholds are the ones the decomposition itself enforces
    thresholds = {c["name"]: c["threshold"] for c in report["checks"]}
    assert thresholds["bm_reconstruction"] == RECON_RTOL
    assert thresholds["bm_O_orthogonal"] == FACTOR_TOL
    assert thresholds["lam_pair_degeneracy"] == PAIR_RTOL
    assert thresholds["photon_balance"] == PHOTON_BALANCE_TOL


def test_verify_agrees_with_simulate_at_g0_30(tmp_path):
    # the N = 61 README single pass at g0 = 30 (r_1 = 5.20): the Grams of
    # conj X and X^-T pair to 3.0e-11, where the 2N Gram Y Y^H read 1.5e-8,
    # above PAIR_RTOL, and verify exited 3 on a run simulate completed
    cfg = dict(README_CONFIG, grid={"N": 61}, pump={"sigma": 1.0, "g0": 30.0},
               pass_mode="single")
    assert run(tmp_path, cfg, "simulate")[0] == 0
    rc, out = run(tmp_path, cfg, "verify")
    assert rc == 0
    checks = json.loads((out / "verify.json").read_text())["checks"]
    check, = [c for c in checks if c["name"] == "lam_pair_degeneracy"]
    assert check["value"] < PAIR_RTOL


def test_simulate_and_verify_share_one_pairing_limit(tmp_path, capsys):
    # the same pass at g0 = 40: its Grams pair to 9.0e-8, above PAIR_RTOL,
    # and simulate and verify hold the pairing to that one limit
    cfg = dict(README_CONFIG, grid={"N": 61}, pump={"sigma": 1.0, "g0": 40.0},
               pass_mode="single")
    capsys.readouterr()
    assert run(tmp_path, cfg, "simulate")[0] == 3
    assert "do not pair reciprocally" in capsys.readouterr().err
    rc, out = run(tmp_path, cfg, "verify")
    assert rc == 3
    report = json.loads((out / "verify.json").read_text())
    assert report["failed"] == ["bm_decomposition"]
    check, = [c for c in report["checks"] if c["name"] == "bm_decomposition"]
    assert "do not pair reciprocally" in check["value"]


@pytest.mark.parametrize("medium, arrays", [(SGVM_MEDIUM, 1.25), (SKEW_MEDIUM, 4.23)],
                         ids=["sgvm", "skew"])
def test_verify_peak_memory_in_4n_arrays(tmp_path, medium, arrays):
    # The N = 51 README double pass at g0 = 1.5, traced above entry with empty
    # memos, with no 4N export built (each bound leaves 15%).  SGVM: 1.07 4N
    # arrays, svd_route run before the decomposition and kept as its lam and
    # active output modes, the compose memo cleared before the decomposition,
    # which is stored as real factors and compared on its first k mode
    # columns; 1.09 when the memo was cleared after it; 1.40 when svd_route ran on the decomposition's lam and
    # complex output modes, structure_checks and svd_route at N x N in the
    # exchange basis, with no 2N eigenproblem, no complex route targets or
    # 2N factor and no view cached on the forward pass; 1.84 with those,
    # every reader of the pass at N x N and svd_route run on the
    # decomposition's lam and output modes alone; 2.90 when the residual,
    # max|S| and the photon balance read the 2N pair form, svd_route took
    # the SVD of the complex M and the whole decomposition lived through
    # it, the pass factored at N x N.  verify read 2.91 when it built the
    # export for its photon balance and freed it, 3.46 when the export lived
    # to the end and decompose took the 2N Gram Y Y^H, and 5.73 when
    # svd_route factored the real 2N embedding of M and the routes were
    # compared through 2N interleaved mode matrices.  40% mismatch: 3.68,
    # set by the forward pass's compose, now that the zero-gain double pass
    # takes one unpoled exponential; 4.28 when that pass derived the sign -1
    # one and multiplied every distinct block of the grating, which set the
    # peak; 6.53 when compose kept
    # every block of a level until the next level was built and verify kept
    # its decomposition through that pass.
    cfg = dict(README_CONFIG, grid={"N": 51, "half_width": 5.0},
               pump={"sigma": 1.0, "g0": 1.5}, medium=dict(medium))
    assert run(tmp_path, cfg, "verify")[0] == 0  # imports and first-call caches
    _clear_compose_memo()
    _clear_matrices_memo()
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        rc, _ = run(tmp_path, cfg, "verify")
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak <= arrays * (4 * 51) ** 2 * 8


def test_verify_photon_balance_fails_on_unbalanced_idler_rows(tmp_path, monkeypatch):
    # away from SGVM media the pair form is the stored X; its idler rows
    # scaled by 1 + e raise the idler count (||Y[N:]||_F^2 - N) / 2 by
    # ((1 + e)^2 - 1) ||Y[N:]||_F^2 / 2, vacuum part included, which
    # prop.mean_photons (off-diagonal blocks only) would not read
    cfg = base_config(grid={"N": 15, "half_width": 5.0}, medium=dict(SKEW_MEDIUM))
    compose_pass, scale = twinbeam.cli.compose, 1.0 + 1e-6

    def unbalanced(grid, pump, medium, poling):
        X = compose_pass(grid, pump, medium, poling).exchange.copy()
        X[grid.n:] *= scale
        return Propagator(X, grid.n)

    monkeypatch.setattr(twinbeam.cli, "compose", unbalanced)
    rc, out = run(tmp_path, cfg, "verify")
    assert rc == 3
    report = json.loads((out / "verify.json").read_text())
    assert "photon_balance" in report["failed"]
    check, = [c for c in report["checks"] if c["name"] == "photon_balance"]
    run_cfg = load_config(tmp_path / "run.json")
    prop = compose_pass(run_cfg.grid, run_cfg.pump, run_cfg.medium, run_cfg.sim_poling)
    ns, ni = prop.mean_photons()
    idler_rows = 2.0 * ni + 15
    assert check["value"] == pytest.approx((scale**2 - 1.0) * idler_rows / 2.0 / max(1.0, ns),
                                           rel=1e-6)
    assert check["value"] > 100 * PHOTON_BALANCE_TOL


def test_verify_passes_a_near_even_declared_table(tmp_path):
    # even to 4e-13, inside the 1e-12 the model accepts: read folded about
    # its center, F is centrosymmetric bitwise (2.0e-13 off when read as sampled)
    f = np.linspace(-12.0, 12.0, 241)
    values = np.exp(-(f ** 2) / 2.0) + 4e-13 * (f < 0.0)
    envelope = {"frequencies": f.tolist(), "values": values.tolist(),
                "frequency_symmetric": True}
    rc, out = run(tmp_path, base_config(pump={"g0": 1.0, "envelope": envelope}), "verify")
    assert rc == 0
    checks = json.loads((out / "verify.json").read_text())["checks"]
    check, = [c for c in checks if c["name"] == "F_centrosymmetric"]
    assert check["value"] == check["threshold"] == 0.0 and check["pass"]


def test_verify_reports_a_failed_decomposition(tmp_path, monkeypatch):
    # the factorization's error becomes one failed check, and the route
    # comparison, which needs the factorization, is skipped
    def failing(prop, grid):
        raise DecompositionError("pairing failed")

    monkeypatch.setattr(twinbeam.cli, "decompose", failing)
    rc, out = run(tmp_path, base_config(), "verify")
    assert rc == 3
    report = json.loads((out / "verify.json").read_text())
    assert report["failed"] == ["bm_decomposition"]
    names = [c["name"] for c in report["checks"]]
    assert not [name for name in names if name.startswith(("route_", "lam_"))]
    assert report["checks"][names.index("bm_decomposition")]["value"] == "pairing failed"


@pytest.mark.parametrize("pass_mode", ["single", "double"])
def test_verify_nonpalindromic_sgvm_poling(tmp_path, pass_mode):
    # period 0.3 on L = 1: seven domains, the last one widened, so the
    # sequence does not read the same reversed and X A-hat is not symmetric
    cfg = base_config(poling={"kind": "qpm", "period": 0.3}, pass_mode=pass_mode)
    rc, out = run(tmp_path, cfg, "verify")
    assert rc == 0
    report = json.loads((out / "verify.json").read_text())
    assert "block_propagator_symmetry" not in [c["name"] for c in report["checks"]]
    assert report["structure"]["block_symmetry_residual"] > 1e-3


@pytest.mark.parametrize("pass_mode", ["single", "double"])
def test_sgvm_verify_takes_no_2n_eigenproblem_and_no_2n_route_factor(tmp_path, monkeypatch,
                                                                     pass_mode):
    # structure_checks reads the flip classes off T's parity and svd_route
    # keeps its N x N factors, so decompose's two N x N Grams are verify's
    # only eigenproblems and no 2N mode matrix or factor is built
    orders, factors = [], []
    sym_eig, interleaved = numerics.sym_eig, twinbeam.blochmessiah._interleaved
    monkeypatch.setattr(numerics, "sym_eig", lambda M: orders.append(len(M)) or sym_eig(M))
    monkeypatch.setattr(twinbeam.blochmessiah, "_interleaved",
                        lambda *args: factors.append(args) or interleaved(*args))
    cfg = base_config(grid={"N": 15, "half_width": 5.0}, pump={"g0": 1.5},
                      poling={"kind": "qpm", "period": 2.0 / 9.0}, pass_mode=pass_mode)
    rc, out = run(tmp_path, cfg, "verify")
    assert rc == 0
    assert orders == [15, 15] and factors == []
    report = json.loads((out / "verify.json").read_text())
    names = [c["name"] for c in report["checks"]]
    assert "route_mode_overlap" in names and "flip_classes_balanced" in names


def test_verify_lopsided_sgvm_pump_reports_no_flip_classes(tmp_path):
    # a palindromic grating keeps X A-hat symmetric, but a lopsided pump
    # breaks the flip parity of T, so there are no flip classes to check
    f = np.linspace(-12.0, 12.0, 241)
    envelope = {"frequencies": f.tolist(), "values": np.exp(-((f - 1.5) ** 2) / 2.0).tolist()}
    cfg = base_config(grid={"N": 15, "half_width": 5.0}, pump={"g0": 1.5, "envelope": envelope},
                      poling={"kind": "qpm", "period": 2.0 / 9.0}, pass_mode="double")
    rc, out = run(tmp_path, cfg, "verify")
    assert rc == 0
    report = json.loads((out / "verify.json").read_text())
    names = [c["name"] for c in report["checks"]]
    assert "block_propagator_symmetry" in names and "flip_classes_balanced" not in names
    assert report["structure"]["flip_even"] is None and report["structure"]["flip_odd"] is None


def test_verify_double_pass_checks_zero_gain_limit(tmp_path):
    cfg = base_config(pump={"g0": 0.8}, pass_mode="double")
    rc, out = run(tmp_path, cfg, "verify")
    assert rc == 0
    report = json.loads((out / "verify.json").read_text())
    # every check of an SGVM double pass, in report order
    assert [c["name"] for c in report["checks"]] == [
        "F_symmetric", "F_centrosymmetric", "G_anticentrosymmetric",
        "propagator_symplectic", "photon_balance",
        "bm_reconstruction", "bm_O_orthogonal", "bm_O_symplectic",
        "bm_O_tilde_orthogonal", "bm_O_tilde_symplectic", "lam_pair_degeneracy",
        "route_r_agreement", "route_mode_overlap", "block_propagator_symmetry",
        "flip_classes_balanced",
        "double_pass_zero_gain_free",
    ]


def test_verify_passes_walkoffs_opposite_to_the_sgvm_tolerance(tmp_path):
    # vS to 13 digits: kappa_S + kappa_I = -1.4e-12, inside the SGVM
    # tolerance, so the medium is stored SGVM and the zero-gain double pass
    # meets the free phases of kappa_I = -kappa_S (7.2e-12 before)
    cfg = dict(README_CONFIG, medium=dict(SGVM_MEDIUM, vS=0.05555555555556))
    rc, out = run(tmp_path, cfg, "verify")
    assert rc == 0
    checks = {c["name"]: c for c in json.loads((out / "verify.json").read_text())["checks"]}
    assert checks["double_pass_zero_gain_free"]["value"] <= 1e-13


@pytest.mark.parametrize("pass_mode, composed", [
    ("double", 2),
    ({"kind": "double", "gain2_scale": 1.3}, 3),
], ids=["matched", "detuned"])
def test_verify_composes_the_forward_pass_once(tmp_path, compose_evaluations, pass_mode,
                                               composed):
    # the forward pass serves the double pass, the SVD route and the
    # structure checks; the zero-gain check and a detuned return pass add one
    # each (4 and 4 when each step composed its own)
    rc, _ = run(tmp_path, base_config(pump={"g0": 0.8}, pass_mode=pass_mode), "verify")
    assert rc == 0
    assert len(compose_evaluations) == composed
    assert compose_evaluations[0] == 0.8 and compose_evaluations[-1] == 0.0


@pytest.mark.parametrize("medium, poling, built", [
    (SGVM_MEDIUM, {"kind": "qpm", "period": 2.0 / 9.0}, 4),
    (SKEW_MEDIUM, {"kind": "apodized", "domain_width": 1.0 / 169, "pmf_width": 8.0}, 5),
], ids=["sgvm-qpm", "skew-apodized"])
def test_verify_builds_the_coupling_matrices_once_per_pass(tmp_path, monkeypatch,
                                                           medium, poling, built):
    # each pass derives the sign -1 exponentials from the sign +1 ones: the
    # checks, structure_checks' F and the forward pass build one sign +1 set
    # each, off SGVM the exchange-basis regime guard one more, and the
    # zero-gain pass, whose domains are all unpoled, one sign 0 set last (6
    # and 7 when every step built its own, 3 and 3 when verify's own
    # matrices were handed to structure_checks and its guard)
    original = twinbeam.model.build_coupled_matrices
    signs = []

    def counting(*args, **kwargs):
        signs.append(kwargs["sign"])
        return original(*args, **kwargs)

    for module in (twinbeam.cli, twinbeam.propagator, twinbeam.analytic):
        monkeypatch.setattr(module, "build_coupled_matrices", counting)
    cfg = base_config(grid={"N": 15}, pump={"sigma": 1.0, "g0": 1.5}, medium=dict(medium),
                      poling=poling, pass_mode="double",
                      options={"remove_free_phase": True})
    rc, _ = run(tmp_path, cfg, "verify")
    assert rc == 0
    assert signs == [1] * (built - 1) + [0]


def test_verify_rejects_tampered_propagator(tmp_path):
    M = np.diag([2.0] * 4 + [1.0] * 4)  # not symplectic
    np.savetxt(tmp_path / "prop.txt", M, header="%d %d" % M.shape, comments="")
    cfg = base_config()
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    rc = main(["verify", "--config", str(path), "--out", str(out),
               "--propagator", str(tmp_path / "prop.txt")])
    assert rc == 3
    report = json.loads((out / "verify.json").read_text())
    assert "file_propagator_symplectic" in report["failed"]


@pytest.mark.parametrize("body", [None, "4 4\n1 0 0 x\n"], ids=["missing", "non-numeric"])
def test_verify_unreadable_propagator_exit_2(tmp_path, body):
    prop = tmp_path / "prop.txt"
    if body is not None:
        prop.write_text(body)
    rc, _ = run(tmp_path, base_config(), "verify", "--propagator", str(prop))
    assert rc == 2


# ---------------------------------------------------------------- poling

def test_poling_gen_qpm_roundtrip(tmp_path):
    cfg = base_config(medium=dict(SGVM_MEDIUM, L=3.0),
                      poling={"kind": "qpm", "period": 2.0})
    rc, out = run(tmp_path, cfg, "poling", "gen")
    assert rc == 0
    loaded = load_poling(out / "poling.txt")
    ref = qpm_poling(3.0, 2.0)
    np.testing.assert_array_equal(loaded.widths, ref.widths)
    np.testing.assert_array_equal(loaded.signs, ref.signs)


def test_poling_gen_apodized_keeps_carrier(tmp_path):
    cfg = base_config(
        poling={"kind": "apodized", "domain_width": 1.0 / 12.0, "pmf_width": 4.0}
    )
    rc, out = run(tmp_path, cfg, "poling", "gen")
    assert rc == 0
    loaded = load_poling(out / "poling.txt")
    ref = apodized_poling(1.0, 1.0 / 12.0, 4.0)
    np.testing.assert_array_equal(loaded.widths, ref.widths)
    np.testing.assert_array_equal(loaded.signs, ref.signs)
    # the stored grating keeps the carrier; simulation demodulates it
    from twinbeam import demodulate_poling

    assert not np.array_equal(demodulate_poling(loaded).signs, loaded.signs)


def test_poling_eval_unpoled_is_sinc(tmp_path):
    rc, out = run(tmp_path, base_config(), "poling", "eval", "--dk-points", "101")
    assert rc == 0
    lines = (out / "pmf.csv").read_text().splitlines()
    assert lines[0] == "dk,re,im,abs"
    assert len(lines) == 102
    rows = np.array([[float(x) for x in l.split(",")] for l in lines[1:]])
    dk = rows[:, 0]
    expect = np.abs(np.sinc(dk / (2.0 * np.pi)))  # |sin(dk/2)/(dk/2)| at L = 1
    np.testing.assert_allclose(rows[:, 3], expect, atol=1e-12)
    mid = rows[50]
    assert mid[0] == 0.0 and abs(mid[3] - 1.0) < 1e-12
