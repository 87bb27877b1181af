"""End-to-end runs of the command line driver, in process via main()."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import twinbeam
from twinbeam import (
    apodized_poling, compose, decompose, default_half_width, double_pass, flip_overlap,
    load_poling, numerics, qpm_poling,
)
from twinbeam.blochmessiah import FACTOR_TOL, PAIR_RTOL, RECON_RTOL
from twinbeam.cli import PHOTON_BALANCE_TOL, load_config, main
from twinbeam.errors import DecompositionError

# velocities matching walk-offs (+8, -8) at pump velocity 0.1
SGVM_MEDIUM = {"vP": 0.1, "vS": 1.0 / 18.0, "vI": 0.5, "L": 1.0}
# walk-offs (+8, -4.8): a 40% mismatch, outside the SGVM regime
SKEW_MEDIUM = {"vP": 0.1, "vS": 1.0 / 18.0, "vI": 1.0 / 5.2, "L": 1.0}
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
        assert not sq["mixed"]
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
                amps = mode.beam_amplitudes(grid.n)
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


@pytest.mark.parametrize("command,cfg,builds", [
    ("simulate", base_config(grid={"N": 21, "half_width": 5.0},
                             pump={"target_NS": 2.0}, pass_mode="double",
                             poling={"kind": "apodized", "domain_width": 1.0 / 12.0,
                                     "pmf_width": 4.0}), 1),
    ("simulate", base_config(grid={"N": 15, "half_width": 5.0}, medium=dict(SKEW_MEDIUM),
                             options={"remove_free_phase": True}), 1),
    ("sweep-gain", base_config(pump={"target_NS": 0.5}, pass_mode="double"), 3),
    ("verify", base_config(grid={"N": 15, "half_width": 5.0}, medium=dict(SKEW_MEDIUM),
                           pass_mode="double"), 1),
    ("verify", base_config(grid={"N": 21, "half_width": 5.0}, pump={"g0": 0.8},
                           pass_mode="double",
                           poling={"kind": "apodized", "domain_width": 1.0 / 12.0,
                                   "pmf_width": 4.0}), 1),
], ids=["simulate-sgvm-double-tuned", "simulate-skew-free-phase", "sweep-gain-3",
        "verify-skew-double", "verify-sgvm-matched-double"])
def test_the_4n_matrix_is_built_once_per_decomposition(
        tmp_path, matrix_builds, command, cfg, builds):
    # tuning, photon counts, free-phase stripping, the reduced blocks of the
    # analytic routes, the zero-gain check and summary.json's symplectic
    # residual read the complex matrix; only the factorization of each
    # decomposed propagator (and verify's symplectic checks and the SVD
    # route's check of the same one) needs the 4N view.
    rc, _ = run(tmp_path, cfg, command, "--points", "3") if command == "sweep-gain" \
        else run(tmp_path, cfg, command)
    assert rc == 0
    assert len(matrix_builds) == builds


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


@pytest.mark.parametrize("args,flag", [
    (["poling", "eval", "--dk-points", "-5"], "--dk-points"),
    (["poling", "eval", "--dk-points", "0"], "--dk-points"),
    (["poling", "eval", "--dk-points", "1"], "--dk-points"),
    (["poling", "eval", "--dk-max", "nan"], "--dk-max"),
    (["poling", "eval", "--dk-max", "inf"], "--dk-max"),
    (["poling", "eval", "--dk-max", "0"], "--dk-max"),
    (["poling", "eval", "--dk-max", "-3"], "--dk-max"),
    (["sweep-gain", "--jobs", "0"], "--jobs"),
    (["sweep-gain", "--jobs", "-3"], "--jobs"),
], ids=["dk-points--5", "dk-points-0", "dk-points-1", "dk-max-nan", "dk-max-inf",
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


def test_verify_double_pass_checks_zero_gain_limit(tmp_path):
    cfg = base_config(pump={"g0": 0.8}, pass_mode="double")
    rc, out = run(tmp_path, cfg, "verify")
    assert rc == 0
    report = json.loads((out / "verify.json").read_text())
    # every check of an SGVM double pass, in report order
    assert [c["name"] for c in report["checks"]] == [
        "F_symmetric", "F_centrosymmetric", "G_anticentrosymmetric",
        "generator_hamiltonian", "propagator_symplectic", "photon_balance",
        "bm_reconstruction", "bm_O_orthogonal", "bm_O_symplectic",
        "bm_O_tilde_orthogonal", "bm_O_tilde_symplectic", "lam_pair_degeneracy",
        "route_r_agreement", "route_mode_overlap", "block_propagator_symmetry",
        "flip_classes_balanced",
        "double_pass_zero_gain_free",
    ]


@pytest.mark.parametrize("pass_mode, composed", [
    ("double", 2),
    ({"kind": "double", "gain2_scale": 1.3}, 3),
], ids=["matched", "detuned"])
def test_verify_composes_the_forward_pass_once(tmp_path, monkeypatch, pass_mode, composed):
    # the forward pass serves the double pass, the SVD route and the
    # structure checks; the zero-gain check and a detuned return pass add one
    # each (4 and 4 when each step composed its own)
    original = twinbeam.propagator.compose
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1].g0)
        return original(*args, **kwargs)

    for module in (twinbeam.propagator, twinbeam.cli, twinbeam.analytic,
                   twinbeam.blochmessiah):
        monkeypatch.setattr(module, "compose", counting)
    rc, _ = run(tmp_path, base_config(pump={"g0": 0.8}, pass_mode=pass_mode), "verify")
    assert rc == 0
    assert len(calls) == composed
    assert calls[0] == 0.8 and calls[-1] == 0.0


@pytest.mark.parametrize("medium, poling", [
    (SGVM_MEDIUM, {"kind": "qpm", "period": 2.0 / 9.0}),
    (SKEW_MEDIUM, {"kind": "apodized", "domain_width": 1.0 / 169, "pmf_width": 8.0}),
], ids=["sgvm-qpm", "skew-apodized"])
def test_verify_builds_the_coupling_matrices_once_per_pass(tmp_path, monkeypatch,
                                                           medium, poling):
    # verify's own sign +1 matrices serve structure_checks and its regime
    # guard, and each pass derives the sign -1 exponentials from the sign +1
    # ones: the checks, the forward pass and the zero-gain pass build one set
    # each (6 and 7 when every step built its own)
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
    assert signs == [1, 1, 1]


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
