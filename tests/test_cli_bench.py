import concurrent.futures
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from modloc_lab import gaussian_core as gc
from modloc_lab import wedge_kms as wk
from modloc_lab.cli_bench import config as cbc
from modloc_lab.cli_bench import manifest, plots, suites
from modloc_lab.cli_bench.main import build_parser, main
from modloc_lab.cli_bench.manifest import (RunManifest, check_less,
                                           format_float, unverified, write_csv)
from modloc_lab.cli_bench.suites import run_experiment, verify_all
from modloc_lab.errors import ConfigurationError

README = Path(__file__).resolve().parent.parent / "README.md"

# pass/fail bounds are constants of their checks, never config inputs
TOLERANCE_KEYS = {
    "ej-fluct": ("tol_rel_diff", "rtol"),
    "thermal-map": ("tol",),
    "entropy-scan": ("tol_r2", "thermal_tol_r2", "purity_tol"),
    "charge-scaling": ("n2_tol_exponent", "n2_tol_r2", "n34_tol_exponent",
                       "oracle_tol", "limit_tol"),
    "unruh": ("tol_balance", "control_min_defect", "tol_strip",
              "tol_stationarity"),
    "crossing": ("tol_crossing", "tol_cr_residual", "tol_involution", "tol_kms"),
    "zf-algebra": ("tol_smatrix", "tol_exchange", "tol_double",
                   "tol_associativity", "tol_leak"),
}


def test_defaults_load():
    for name in cbc.EXPERIMENTS:
        cfg = cbc.load_config(name)
        assert cfg.experiment == name
        assert cfg.params


def test_unknown_key_rejected(tmp_path):
    p = tmp_path / "c.ini"
    p.write_text("[thermal-map]\nbogus = 1\n")
    with pytest.raises(ConfigurationError, match="bogus"):
        cbc.load_config("thermal-map", p)


def test_empty_block_rejected(tmp_path):
    p = tmp_path / "c.ini"
    p.write_text("[thermal-map]\n")
    with pytest.raises(ConfigurationError, match="empty"):
        cbc.load_config("thermal-map", p)


def test_bounds_checked(tmp_path):
    p = tmp_path / "c.ini"
    # a scalar key is bounded by its range, a list key entry by entry by
    # its engine's domain
    for suite, key, value in (
        ("thermal-map", "grid_n", "1"),
        ("thermal-map", "betas", "1.0, 0"),
        ("unruh", "accelerations", "0"),
        ("zf-algebra", "couplings", "0.3, 3.2"),
        ("entropy-scan", "eps_values", "1, 0.5, 0.25, -0.125"),
        ("entropy-scan", "purity_sizes", "512, 1"),
        # site counts are integers, never cut to one
        ("entropy-scan", "lengths", "8, 8.2, 8.3, 8.4"),
        ("entropy-scan", "purity_sizes", "64.7"),
    ):
        p.write_text(f"[{suite}]\n{key} = {value}\n")
        with pytest.raises(ConfigurationError, match=key):
            cbc.load_config(suite, p)


def test_charge_scaling_ratio_span_checked(tmp_path):
    # scaling_fit needs the R/dR scan to span a decade, in either order
    p = tmp_path / "c.ini"
    for lo, hi in (("1e5", "1.2e5"), ("1.2e5", "1e5"), ("100", "999")):
        p.write_text(f"[charge-scaling]\nn2_ratio_lo = {lo}\nn2_ratio_hi = {hi}\n")
        with pytest.raises(ConfigurationError,
                           match="n2_ratio_lo .* n2_ratio_hi"):
            cbc.load_config("charge-scaling", p)
    for lo, hi in (("100", "1000"), ("1.2e5", "1.2e4")):
        p.write_text(f"[charge-scaling]\nn2_ratio_lo = {lo}\nn2_ratio_hi = {hi}\n")
        assert cbc.load_config("charge-scaling", p)["n2_ratio_lo"] == float(lo)


def test_entropy_scan_eps_intervals_checked(tmp_path):
    # each eps reads round(L/eps) sites: the eps scan's eps_interval sites on
    # the n_sites chain, and the calibration's 32 sites on the thermal chain
    p = tmp_path / "c.ini"
    for text, keys in (("eps_interval = 300", "eps_interval / eps_values.*n_sites"),
                       ("eps_interval = 3000", "eps_interval .*n_sites"),
                       ("eps_values = 40, 50, 60, 70", "eps_interval / eps_values"),
                       ("thermal_n_sites = 64\nthermal_lengths = 8, 16, 24, 32\n"
                        "eps_values = 0.4, 0.3, 0.2, 0.1",
                        "32 / eps_values.*thermal_n_sites = 64")):
        p.write_text(f"[entropy-scan]\n{text}\n")
        with pytest.raises(ConfigurationError, match=keys):
            cbc.load_config("entropy-scan", p)
    # a vacuum interval of the whole chain is pure: 250 / 0.125 = n_sites
    for text, keys in (("eps_interval = 250", "eps_interval / eps_values.*shorter"),
                       ("lengths = 8, 16, 32, 2000", "lengths .*n_sites = 2000")):
        p.write_text(f"[entropy-scan]\n{text}\n")
        with pytest.raises(ConfigurationError, match=keys):
            cbc.load_config("entropy-scan", p)
    # both ends of the range load: 32 / 16 = 2 sites, 249 / 0.125 = n_sites - 8,
    # and a thermal length may equal its (mixed) chain
    for text in ("eps_values = 16, 12, 6, 3", "eps_interval = 249",
                 "lengths = 8, 16, 32, 1999", "thermal_lengths = 40, 80, 120, 1200"):
        p.write_text(f"[entropy-scan]\n{text}\n")
        cbc.load_config("entropy-scan", p)


def test_entropy_scan_poor_localization_fit_fails_its_record(tmp_path, capsys):
    # every interval resolves, but 32 / 16 = 2 sites is far from the log
    # regime: the run records the failed fit instead of stopping
    p = tmp_path / "c.ini"
    p.write_text("[entropy-scan]\neps_values = 16, 12, 6, 3\n")
    capsys.readouterr()
    assert main(["entropy-scan", "--config", str(p), "--out", str(tmp_path)]) == 1
    assert "Traceback" not in "".join(capsys.readouterr())
    payload = json.loads((tmp_path / "entropy-scan_manifest.json").read_text())
    verdicts = {r["name"]: r["verdict"] for r in payload["records"]}
    assert verdicts["entropy-scan/localization-fit-r2"] == "fail"
    assert verdicts["entropy-scan/thermal-fit-r2"] == "pass"


def test_thermal_limit_fails_on_a_gibbs_state_at_half_beta(tmp_path, monkeypatch):
    # the record falls like exp(-beta m) on the 64-site chain, so a Gibbs
    # state at half the suite's beta must flip it
    build = gc.build_thermal_state
    monkeypatch.setattr(gc, "build_thermal_state",
                        lambda lattice, beta: build(lattice, beta / 2.0))
    man = run_experiment(cbc.load_config("entropy-scan"), tmp_path)
    limit, = (r for r in man.records if r.name == "entropy-scan/thermal-limit")
    assert limit.verdict == "fail"
    assert 1e-6 < limit.measured < 1e-5


def test_lattice_size_cap_rejected_before_any_build(tmp_path, monkeypatch, capsys):
    def no_build(*args, **kwargs):
        raise AssertionError("a chain was built at a rejected size")

    monkeypatch.setattr(gc, "build_vacuum_state", no_build)
    monkeypatch.setattr(gc, "build_thermal_state", no_build)
    p = tmp_path / "c.ini"
    for key in ("n_sites", "thermal_n_sites", "purity_sizes"):
        p.write_text(f"[entropy-scan]\n{key} = {cbc.MAX_SITES + 1}\n")
        capsys.readouterr()
        assert main(["entropy-scan", "--config", str(p),
                     "--out", str(tmp_path / "runs")]) == 2
        assert key in capsys.readouterr().err
    for key in ("n_sites", "thermal_n_sites", "purity_sizes"):
        p.write_text(f"[entropy-scan]\n{key} = {cbc.MAX_SITES}\n")
        assert cbc.load_config("entropy-scan", p)[key] in (cbc.MAX_SITES,
                                                           (cbc.MAX_SITES,))


def test_json_config(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"thermal-map": {"grid_n": 25}}))
    cfg = cbc.load_config("thermal-map", p)
    assert cfg["grid_n"] == 25
    assert cfg["betas"] == (1.0, 6.283185307179586)   # defaults fill the rest
    p.write_text(json.dumps({"thermal-map": {"betas": [1.0, 2.0]}}))
    assert cbc.load_config("thermal-map", p)["betas"] == (1.0, 2.0)


def test_unknown_experiment():
    with pytest.raises(ConfigurationError):
        cbc.load_config("no-such-suite")


@pytest.mark.parametrize("grid_n", [4, 25, 20000])
def test_thermal_map_grid_is_the_ordered_off_diagonal_pair_list(
        tmp_path, monkeypatch, grid_n):
    seen = []

    def capture(imap, grid):
        seen.append(grid)
        return 0.0

    monkeypatch.setattr(suites.ce, "verify_isomorphism", capture)
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"thermal-map": {"grid_n": grid_n}}))
    cfg = cbc.load_config("thermal-map", p)
    run_experiment(cfg, tmp_path)
    us = np.linspace(0.02, 0.98, int(np.sqrt(grid_n)) + 1)
    ref = np.array([(u, v) for u in us for v in us
                    if abs(u - v) > 1e-4][:grid_n])
    assert len(seen) == len(cfg["betas"])
    for grid in seen:
        assert np.array_equal(np.asarray(grid, float), ref)


def test_write_csv_rows_match_format_float(tmp_path):
    cells = (-0.0, 5e-324, 1.7976931348623157e308, float("nan"), float("inf"),
             -7, True, np.float64(0.1))
    header = tuple(f"c{i}" for i in range(len(cells)))
    rows = [cells, list(cells[::-1])]
    path, digest = write_csv(tmp_path, "x", "cells", header, rows)
    text = "\n".join([",".join(header)]
                     + [",".join(format_float(v) for v in r) for r in rows]) + "\n"
    assert path.read_bytes() == text.encode("utf-8")
    assert digest == hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert text.split("\n")[1] == (
        "-0.0000000000000000e+00,4.9406564584124654e-324,"
        "1.7976931348623157e+308,nan,inf,-7.0000000000000000e+00,"
        "1.0000000000000000e+00,1.0000000000000001e-01")


def _csv_one_shot(header, rows):
    # every line formatted, joined and encoded at once
    row_format = ",".join(["%.16e"] * len(header))
    lines = [",".join(header)] + [row_format % tuple(r) for r in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


@pytest.mark.parametrize("n_rows", [0, 1, 2500])
def test_write_csv_blocks_match_one_shot_text(tmp_path, traced_peak, n_rows):
    # 2500 rows: two blocks of _CSV_ROWS and a ragged one of 452
    header = ("a", "b", "c")
    grid = np.random.default_rng(7).standard_normal((n_rows, 3)) * 1e3
    data = _csv_one_shot(header, grid.tolist())
    for form, rows in (("array", grid), ("tuples", [tuple(r) for r in grid.tolist()])):
        path, digest = write_csv(tmp_path / form, "x", "grid", header, rows)
        assert path.read_bytes() == data
        assert digest == hashlib.sha256(data).hexdigest()
    # the crossing suite's 14 400 x 6 grid: measured 0.9 MiB, against
    # 10.1 MiB with the row list, the text and its bytes held at once
    big = np.random.default_rng(8).standard_normal((14400, 6))
    peak = traced_peak(lambda: write_csv(tmp_path, "x", "big", tuple("abcdef"), big))
    assert peak < 1.2
    path, digest = write_csv(tmp_path, "x", "big", tuple("abcdef"), big)
    data = path.read_bytes()
    assert len(data) > 2_000_000
    assert digest == hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("n_bytes", [0, 63, 64, 65, 2_000_003])
def test_builtin_sha256_matches_hashlib(n_bytes):
    # around the 64-byte block edge, and a crossing-grid-sized buffer fed in
    # uneven pieces as write_csv feeds its blocks
    data = np.random.default_rng(n_bytes).bytes(n_bytes)
    assert manifest.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()
    digest = manifest.sha256()
    for i in range(0, n_bytes, 65_537):
        digest.update(data[i:i + 65_537])
    assert digest.hexdigest() == hashlib.sha256(data).hexdigest()


def test_thermal_map_suite_end_to_end(tmp_path):
    cfg = cbc.load_config("thermal-map")
    man = run_experiment(cfg, tmp_path)
    assert man.passed
    assert (tmp_path / "thermal-map_manifest.json").exists()
    payload = json.loads((tmp_path / "thermal-map_manifest.json").read_text())
    assert payload["passed"] is True
    assert all(r["verdict"] in ("pass", "fail", "unverified-by-design")
               for r in payload["records"])
    # every emitted file is digested
    for fname in payload["files"]:
        assert (tmp_path / fname).exists()
    # manifest completeness: one record per named claim, names unique
    names = [r["name"] for r in payload["records"]]
    assert len(names) == len(set(names))


def test_exit_codes(tmp_path, monkeypatch, capsys):
    out = str(tmp_path / "runs")
    assert main(["thermal-map", "--out", out]) == 0
    bad = tmp_path / "bad.ini"
    bad.write_text("[thermal-map]\nnope = 2\n")
    assert main(["thermal-map", "--config", str(bad), "--out", out]) == 2
    # a run directory that is missing or holds no scan CSVs is a rejected value
    empty = tmp_path / "empty"
    empty.mkdir()
    for run_dir in (tmp_path / "missing", empty):
        capsys.readouterr()
        assert main(["emit-plots", str(run_dir)]) == 2
        assert str(run_dir) in capsys.readouterr().err
    # verify-all flags that would run nothing, a suite twice, or serially
    for argv, flag in ((["--only"], "--only"),
                       (["--only", "zf-algebra", "zf-algebra", "--parallel", "2"],
                        "--only"),
                       (["--parallel", "0"], "--parallel"),
                       (["--parallel", "-5"], "--parallel")):
        capsys.readouterr()
        assert main(["verify-all", *argv, "--out", str(tmp_path / "va")]) == 2
        assert flag in capsys.readouterr().err, argv
    assert not (tmp_path / "va").exists()
    # unreadable or malformed files, and list keys that would pass vacuously
    for suite, text in (
        ("thermal-map", None),                               # missing file
        ("thermal-map", '{"thermal-map": {"grid_n": 25'),    # malformed JSON
        ("thermal-map", '{"thermal-map": [1]}'),             # block not an object
        ("thermal-map", "[thermal-map]\nbetas =\n"),
        ("unruh", "[unruh]\naccelerations =\n"),
        ("zf-algebra", "[zf-algebra]\ncouplings =\n"),
        ("entropy-scan", "[entropy-scan]\nlengths = 64\n"),
        ("entropy-scan", "[entropy-scan]\nthermal_n_sites = 64\n"
                         "thermal_lengths = 40, 80, 120, 160\n"),
        ("entropy-scan", "[entropy-scan]\nlengths = 8, 8, 8, 8\n"),
        ("entropy-scan", "[entropy-scan]\nlengths = 8, 8.2, 8.3, 8.4\n"),
        ("entropy-scan", "[entropy-scan]\npurity_sizes = 64.7\n"),
        # every count is an integer in JSON too, and no number is a boolean
        ("zf-algebra", '{"zf-algebra": {"k_max": 3.9}}'),
        ("crossing", '{"crossing": {"grid_n": 25.7}}'),
        ("crossing", '{"crossing": {"grid_n": true}}'),
        ("ej-fluct", '{"ej-fluct": {"beta": true}}'),
        ("thermal-map", '{"thermal-map": {"betas": [true, 2.0]}}'),
        # the in/out sequence creates four particles: k_max = 3 cannot pass
        ("zf-algebra", "[zf-algebra]\nk_max = 3\n"),
        # entries outside the engine's domain, rejected before any scan runs
        ("unruh", "[unruh]\naccelerations = 0\n"),
        ("thermal-map", "[thermal-map]\nbetas = 0\n"),
        # exp(2 pi u / beta) overflows the kernel grid or the smearing image
        ("thermal-map", "[thermal-map]\nbetas = 1.0, 0.001\n"),
        # the squared image differences underflow (NaN from beta ~ 1e153)
        ("thermal-map", "[thermal-map]\nbetas = 1.0, 1e101\n"),
        # a**2 overflows from a ~ 1.34e154, and the proper-time grid loses
        # its digits below a ~ 1e-150
        ("unruh", "[unruh]\naccelerations = 1.0, 1e101\n"),
        ("unruh", "[unruh]\naccelerations = 2e154\n"),
        ("unruh", "[unruh]\naccelerations = 1e-101\n"),
        ("unruh", "[unruh]\naccelerations = 1e-160\n"),
        ("ej-fluct", "[ej-fluct]\nbeta = 0.01\n"),
        # below the by-parts engine's resolution floor of 0.7
        ("ej-fluct", "[ej-fluct]\nbeta = 0.5\n"),
        ("ej-fluct", "[ej-fluct]\nbeta = 0.02\n"),
        # entropy_scan resolves no 1-site interval
        ("entropy-scan", "[entropy-scan]\nlengths = 1, 2, 4, 8\n"),
        ("zf-algebra", "[zf-algebra]\ncouplings = 0\n"),
        ("entropy-scan", "[entropy-scan]\neps_values = 1, 0.5, 0.25, 0\n"),
        ("entropy-scan", "[entropy-scan]\npurity_sizes = 1\n"),
        # scaling_fit needs a decade of R/dR
        ("charge-scaling", "[charge-scaling]\nn2_ratio_lo = 1e5\n"
                           "n2_ratio_hi = 1.2e5\n"),
        # the eps scan reads round(eps_interval / eps) sites of the chain
        ("entropy-scan", "[entropy-scan]\neps_interval = 300\n"),
        ("entropy-scan", "[entropy-scan]\neps_interval = 3000\n"),
        ("entropy-scan", "[entropy-scan]\neps_values = 40, 50, 60, 70\n"),
        # a vacuum interval of the whole chain is pure
        ("entropy-scan", "[entropy-scan]\neps_interval = 250\n"),
    ):
        path = tmp_path / "case.cfg"
        path.unlink(missing_ok=True)
        if text is not None:
            path.write_text(text)
        assert main([suite, "--config", str(path), "--out", out]) == 2, text
    # the crossing engine works at mass 1 (lengths in Compton wavelengths):
    # any other mass is rejected before the suite runs
    for mass in (0.5, 2, 100, 1000):
        path.write_text(f"[crossing]\nmass = {mass}\n")
        capsys.readouterr()
        assert main(["crossing", "--config", str(path), "--out", out]) == 2
        assert "mass" in capsys.readouterr().err
    # out-of-range betas and accelerations are rejected by the schema,
    # which names the key
    for suite, key, value in (("thermal-map", "betas", "1e120"),
                              ("unruh", "accelerations", "1e160")):
        path.write_text(f"[{suite}]\n{key} = {value}\n")
        capsys.readouterr()
        assert main([suite, "--config", str(path), "--out", out]) == 2
        assert key in capsys.readouterr().err
    # a zero mass is rejected by the schema, which names the key
    path.write_text("[charge-scaling]\nn2_mass = 0.0\n")
    capsys.readouterr()
    assert main(["charge-scaling", "--config", str(path), "--out", out]) == 2
    assert "n2_mass" in capsys.readouterr().err
    # a subnormal mass makes the variance NaN: a numeric error, not a record
    # that fails on NaN (numpy warns on the way, as it would outside tests)
    path.write_text("[charge-scaling]\nn2_mass = 5e-324\n")
    capsys.readouterr()
    with np.errstate(all="ignore"):
        assert main(["charge-scaling", "--config", str(path), "--out", out]) == 3
    assert "not finite" in capsys.readouterr().err
    # flags that used to be parsed and ignored are rejected by argparse
    for argv in (["thermal-map", "--parallel", "7", "--out", out],
                 ["verify-all", "--only", "thermal-map", "--config", str(bad),
                  "--out", out],
                 # bounds are constants of their checks, not a run mode
                 ["thermal-map", "--strict", "--out", out],
                 ["verify-all", "--strict", "--out", out]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    # no config can loosen a bound, so a failing check comes from a stub suite
    def failing_suite(cfg, man, out):
        man.extend([check_less("thermal-map/stub", 2.0, 1.0)])

    monkeypatch.setitem(suites._SUITES, "thermal-map", failing_suite)
    assert main(["thermal-map", "--out", out]) == 1


# No suite imports scipy: charge-scaling's D = 2 transform takes J0 and J1
# from charge_fluct's own routine, and the symplectic spectra run on numpy's
# LAPACK.  scipy is a test oracle only.  Nor does a single-suite run load
# OpenSSL (the CSV digests use CPython's built-in SHA-256), numpy.polynomial
# (Gauss-Legendre rules come from the Legendre recurrence) or the thread
# pool (only verify-all --parallel needs it).  A fresh interpreter is
# needed to see what gets imported.
STARTUP_PROBE = """
import sys
from modloc_lab.cli_bench.main import main
assert main(["thermal-map", "--out", sys.argv[1]]) == 0
assert main(["zf-algebra", "--out", sys.argv[1]]) == 0
assert main(["charge-scaling", "--out", sys.argv[1]]) == 0
from modloc_lab import gaussian_core as gc
gc.symplectic_spectrum(gc.build_vacuum_state(gc.HarmonicLattice(4, 1.0)))
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, f"scipy loaded: {loaded}"
loaded = [m for m in ("_hashlib", "numpy.polynomial", "concurrent.futures")
          if m in sys.modules]
assert not loaded, f"loaded: {loaded}"
"""


def _fresh_python(script, tmp_path, openblas_threads=None):
    """Run ``script`` in a new interpreter on this checkout's sources, with
    OPENBLAS_NUM_THREADS set only if given; returns its stdout."""
    src = str(Path(cbc.__file__).resolve().parents[2])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_runs_load_no_scipy_openssl_polynomials_or_pool(tmp_path):
    _fresh_python(STARTUP_PROBE, tmp_path)


# Importing the package sets OPENBLAS_NUM_THREADS to 1 unless the caller set
# it, before numpy loads; OpenBLAS reads it only then, so a fresh interpreter
# is needed.  The manifest's environment stamp reports what the run saw.
THREAD_PROBE = """
import json, os, sys
import modloc_lab
assert "numpy" not in sys.modules, "numpy loaded before the thread default"
from modloc_lab.cli_bench.main import main
import numpy as np
import scipy.linalg
from modloc_lab import gaussian_core as gc
a = np.random.default_rng(0).standard_normal((256, 256))
scipy.linalg.eigh(a @ a.T)
gc.symplectic_spectrum(gc.build_vacuum_state(gc.HarmonicLattice(512, 1.0)))
task = "/proc/self/task"
threads = len(os.listdir(task)) if os.path.isdir(task) else None
assert main(["thermal-map", "--out", sys.argv[1]]) == 0
with open(os.path.join(sys.argv[1], "thermal-map_manifest.json")) as fh:
    stamp = json.load(fh)["environment"]
print(json.dumps({"var": os.environ.get("OPENBLAS_NUM_THREADS"),
                  "threads": threads, "stamp": stamp}))
"""


def test_blas_runs_on_one_thread_by_default(tmp_path):
    probe = json.loads(_fresh_python(THREAD_PROBE, tmp_path).splitlines()[-1])
    assert probe["var"] == "1"
    assert probe["stamp"]["OPENBLAS_NUM_THREADS"] == "1"
    assert probe["stamp"]["cpu_count"] == os.cpu_count()
    assert probe["stamp"]["numpy"] == np.__version__
    if probe["threads"] is not None:
        assert probe["threads"] == 1


def test_caller_blas_thread_setting_wins(tmp_path):
    probe = json.loads(
        _fresh_python(THREAD_PROBE, tmp_path, "2").splitlines()[-1])
    assert probe["var"] == "2"
    assert probe["stamp"]["OPENBLAS_NUM_THREADS"] == "2"


def test_tolerance_keys_rejected(tmp_path, capsys):
    p = tmp_path / "c.ini"
    for suite, keys in TOLERANCE_KEYS.items():
        for key in keys:
            p.write_text(f"[{suite}]\n{key} = 1\n")
            assert main([suite, "--config", str(p), "--out",
                         str(tmp_path / "runs")]) == 2, key
            assert key in capsys.readouterr().err, key
    assert not (tmp_path / "runs").exists()


def test_readme_commands_and_config_parse(tmp_path):
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    commands = [line for line in block.split("```", 1)[0].splitlines()
                if line.startswith("modloc-lab ")]
    assert commands
    for line in commands:
        build_parser().parse_args(shlex.split(line, comments=True)[1:])
    ini, = re.findall(r"```ini\n(.*?)```", text, re.S)
    p = tmp_path / "readme.ini"
    p.write_text(ini)
    assert cbc.load_config("thermal-map", p)


def test_strict_profile(tmp_path):
    # the former strict profile (numeric identities at a tenth of their
    # bound) holds at defaults through the CLI, with no flag to ask for it
    assert main(["thermal-map", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "thermal-map_manifest.json").read_text())
    identities = [r for r in payload["records"]
                  if r["name"].startswith("thermal-map/kernel-defect/")
                  or r["name"] == "thermal-map/kms-periodicity"]
    assert len(identities) == 3
    assert all(r["measured"] < r["tolerance"] / 10.0 for r in identities)


def test_modloc_out_env_override(tmp_path, monkeypatch):
    target = tmp_path / "env_dir"
    monkeypatch.setenv("MODLOC_OUT", str(target))
    assert main(["thermal-map", "--out", str(tmp_path / "ignored")]) == 0
    assert (target / "thermal-map_manifest.json").exists()
    assert not (tmp_path / "ignored").exists()


def test_determinism_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    run_experiment(cbc.load_config("zf-algebra"), a)
    run_experiment(cbc.load_config("zf-algebra"), b)
    fa = (a / "zf-algebra_defects.csv").read_bytes()
    fb = (b / "zf-algebra_defects.csv").read_bytes()
    assert fa == fb


def test_emit_plots(tmp_path):
    run_experiment(cbc.load_config("thermal-map"), tmp_path)
    run_experiment(cbc.load_config("zf-algebra"), tmp_path)
    written = plots.emit_plots(tmp_path)
    names = {p.name for p in written}
    assert "thermal-map_defect_vs_beta.dat" in names
    assert "zf-algebra_defects_vs_coupling.dat" in names
    text = (tmp_path / "zf-algebra_defects_vs_coupling.dat").read_text()
    assert text.startswith("#")


def test_emit_plots_creates_missing_out_dir(tmp_path):
    run_dir = str(tmp_path / "run")
    assert main(["thermal-map", "--out", run_dir]) == 0
    out = tmp_path / "plots" / "nested"
    assert main(["emit-plots", run_dir, "--out", str(out)]) == 0
    assert (out / "thermal-map_defect_vs_beta.dat").read_text().startswith("#")


def test_unruh_suite_builds_and_transforms_each_correlator_once(tmp_path,
                                                                 monkeypatch):
    # the default scan holds a = 1, so the negative control, the Planck
    # check and the a = 1 checks share one pullback and one set of
    # transforms: no correlator is transformed twice, at any frequencies
    built, transformed = [], []
    pullback, transforms = wk.pullback, wk._windowed_transforms

    def counted_pullback(model, traj, *args):
        built.append((model, traj.acceleration, traj.tau_grid.size,
                      traj.tau_grid[-1]))
        return pullback(model, traj, *args)

    def counted_transforms(taus, values, win, omegas):
        transformed.append(hashlib.sha256(values.tobytes()).hexdigest())
        return transforms(taus, values, win, omegas)

    monkeypatch.setattr(wk, "pullback", counted_pullback)
    monkeypatch.setattr(wk, "_windowed_transforms", counted_transforms)
    cfg = cbc.load_config("unruh")
    assert 1.0 in cfg["accelerations"]
    assert run_experiment(cfg, tmp_path).passed
    assert len(built) == len(set(built))
    assert len(transformed) == len(set(transformed))


def test_verify_all_subset_and_parallel(tmp_path):
    agg = verify_all(tmp_path, parallel=2, only=["thermal-map", "zf-algebra"])
    assert agg.passed
    assert (tmp_path / "verify-all_manifest.json").exists()
    names = [r.name for r in agg.records]
    assert any(n.startswith("thermal-map/") for n in names)
    assert any(n.startswith("zf-algebra/") for n in names)
    # suite order in the aggregate is by the requested list, not schedule
    first_zf = names.index(next(n for n in names if n.startswith("zf-")))
    assert all(not n.startswith("zf-") for n in names[:first_zf])


def test_verify_all_serial_matches_parallel(tmp_path):
    only = ["thermal-map", "entropy-scan", "crossing", "zf-algebra"]
    serial = verify_all(tmp_path / "serial", parallel=1, only=only)
    threaded = verify_all(tmp_path / "parallel", parallel=2, only=only)
    assert [r.name for r in serial.records] == [r.name for r in threaded.records]
    csvs = sorted(p.name for p in (tmp_path / "serial").glob("*.csv"))
    assert csvs == sorted(p.name for p in (tmp_path / "parallel").glob("*.csv"))
    assert csvs
    for name in csvs:
        assert ((tmp_path / "serial" / name).read_bytes()
                == (tmp_path / "parallel" / name).read_bytes()), name


@pytest.mark.parametrize("only", [
    None, ["thermal-map", "ej-fluct", "charge-scaling", "unruh"]],
    ids=["all", "subset"])
def test_verify_all_submits_in_parallel_order(tmp_path, monkeypatch, only):
    # the schedule names every suite once, so none can be left out of a
    # parallel run; each stub suite writes one record, the pool is started
    # in PARALLEL_ORDER, and the aggregate keeps the requested (by default
    # EXPERIMENTS) order
    assert sorted(suites.PARALLEL_ORDER) == sorted(cbc.EXPERIMENTS)
    names = list(cbc.EXPERIMENTS if only is None else only)
    for name in cbc.EXPERIMENTS:
        monkeypatch.setitem(
            suites._SUITES, name,
            lambda cfg, man, out: man.extend([check_less(
                f"{cfg.experiment}/stub", 0.0, 1.0)]))
    submitted = []
    pool = concurrent.futures.ThreadPoolExecutor

    class RecordingPool(pool):
        def submit(self, fn, *args, **kwargs):
            submitted.append(args[0])
            return super().submit(fn, *args, **kwargs)

    # verify_all imports the pool when it runs, so it finds the patch
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    for parallel in (2, 1):
        submitted.clear()
        agg = verify_all(tmp_path / str(parallel), parallel=parallel, only=only)
        assert [r.name for r in agg.records] == [f"{n}/stub" for n in names]
        assert agg.config["suites"] == names
        expected = [n for n in suites.PARALLEL_ORDER if n in names]
        assert submitted == (expected if parallel > 1 else [])


def test_manifest_verdict_logic():
    man = RunManifest("demo", {})
    man.extend([check_less("a", 1.0, 2.0), unverified("b", "by design")])
    assert man.passed
    man.extend([check_less("c", 3.0, 2.0)])
    assert not man.passed
