"""Acceptance suite: every headline criterion read from the manifest records
of the suite that checks it.  Each suite runs once, at its default config;
a criterion asserts that its records pass at exactly the tolerances written
here, that the config holds the scan inputs written here, and that the
suite's run stayed within the criterion's time bound.  Run with  pytest -s
to see the records."""

import functools
import time

import numpy as np
import pytest

from modloc_lab.cli_bench.config import load_config
from modloc_lab.cli_bench.manifest import PASS, UNVERIFIED
from modloc_lab.cli_bench.suites import run_experiment

TWO_PI = 2.0 * np.pi
BOOL = ("none", None)           # comparator and tolerance of a check_bool record


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    """suite(name) -> (manifest, seconds spent in run_experiment); each
    suite runs at most once per module."""
    @functools.cache
    def run(name):
        out = tmp_path_factory.mktemp(name)
        t0 = time.perf_counter()
        man = run_experiment(load_config(name), out)
        return man, time.perf_counter() - t0
    return run


def _assert_claims(man, claims, **inputs):
    """Each record named in claims passes with exactly the given comparator
    and tolerance; each keyword pins a config value that sizes the scan."""
    records = {r.name: r for r in man.records}
    for name, (comparator, tolerance) in claims.items():
        r = records[name]
        assert (r.verdict, r.comparator, r.tolerance) == \
            (PASS, comparator, tolerance), r
        print(f"[{r.verdict}] {name} measured={r.measured:.6e} "
              f"{comparator} {tolerance}")
    for key, value in inputs.items():
        assert man.config[key] == value, key


def test_criterion_1_thermal_vacuum_isomorphism(suite):
    man, dt = suite("thermal-map")
    _assert_claims(man, {
        "thermal-map/kernel-defect/beta=1": ("<", 1e-10),
        "thermal-map/kernel-defect/beta=6.28319": ("<", 1e-10),
    }, betas=(1.0, TWO_PI), grid_n=100)       # first 100 points of 11 x 11
    assert dt < 1.0


def test_criterion_2_einstein_jordan_fluctuations(suite):
    man, dt = suite("ej-fluct")
    _assert_claims(man, {
        f"ej-fluct/energy-variance-match/geometry-{i}": ("<", 1e-6)
        for i in range(3)
    }, beta=TWO_PI, rtol=1e-7)
    assert dt < 30.0


def test_criterion_3_partial_charge_scaling(suite):
    man, dt = suite("charge-scaling")
    _assert_claims(man, {
        "charge-scaling/n2-log-flag": BOOL,
        "charge-scaling/n2-log-r2": (">", 0.999),
        "charge-scaling/n2-power-exponent": ("<", 0.1),
        "charge-scaling/n3-exponent-error": ("<", 0.1),
        "charge-scaling/n4-exponent-error": ("<", 0.1),
        "charge-scaling/mass-monotonicity": BOOL,
        "charge-scaling/global-limit-final": ("<", 1e-3),
        "charge-scaling/global-limit-monotone": BOOL,
        "charge-scaling/conservation-t-shift": ("<", 1e-6),
    }, n2_mass=1e-6, n2_ratio_lo=1.2e4, n2_ratio_hi=1.2e5, n2_samples=8)
    assert dt < 180.0


def test_criterion_4_localization_entropy_scaling(suite):
    man, dt = suite("entropy-scan")
    _assert_claims(man, {
        "entropy-scan/log-fit-r2": (">", 0.995),
        "entropy-scan/thermal-fit-r2": (">", 0.99),
    }, n_sites=2000, lengths=(8, 16, 32, 64, 128, 256), thermal_n_sites=1200,
        thermal_beta=TWO_PI, thermal_lengths=(40, 80, 120, 160, 200, 240))
    assert dt < 120.0


def test_criterion_5_unruh_detailed_balance(suite):
    man, dt = suite("unruh")
    _assert_claims(man, {
        "unruh/detailed-balance/a=0.5": ("<", 1e-3),
        "unruh/detailed-balance/a=1": ("<", 1e-3),
        "unruh/detailed-balance/a=2": ("<", 1e-3),
        "unruh/negative-control": (">", 0.5),
        "unruh/detailed-balance-d2-current": ("<", 1e-3),
        "unruh/massive-massless-limit": ("<", 1e-2),
    })
    assert dt < 20.0


def test_criterion_6_free_crossing_from_kms(suite):
    man, dt = suite("crossing")
    _assert_claims(man, {
        **{f"crossing/free-crossing/geometry-{i}": ("<", 1e-6) for i in range(3)},
        "crossing/left-wedge-control": BOOL,
        "crossing/kms-identity": ("<", 1e-6),
        "crossing/kms-crossing-consistency": BOOL,
    }, mass=1.0, grid_n=20)
    assert dt < 60.0


def test_criterion_7_zf_algebra(suite):
    man, dt = suite("zf-algebra")
    claims = {"zf-algebra/s-at-zero": ("<", 1e-14),
              "zf-algebra/truncation-leakage": ("<", 1e-8)}
    for b in ("0.3", "1", "2.5"):
        claims[f"zf-algebra/exchange/b={b}"] = ("<", 1e-10)
        for check in ("double-exchange", "smatrix-unitarity", "smatrix-inverse",
                      "smatrix-crossing"):
            claims[f"zf-algebra/{check}/b={b}"] = ("<", 1e-12)
    _assert_claims(man, claims, k_max=4)
    assert dt < 30.0


def test_criterion_8_oracle_equivalence_and_purity(suite):
    _assert_claims(suite("charge-scaling")[0], {
        "charge-scaling/lattice-oracle-agreement": ("<", 0.03),
    })
    _assert_claims(suite("entropy-scan")[0], {
        "entropy-scan/vacuum-purity/n=512": ("<", 1e-8),
        "entropy-scan/vacuum-purity/n=2048": ("<", 1e-8),
    })


def test_declared_out_of_reach_items_are_flagged(suite):
    # the n > 2 entropy/area prediction and the interacting crossing proof
    # are carried as unverified-by-design manifest rows, never asserted
    crossing = {r.name: r.verdict for r in suite("crossing")[0].records}
    assert crossing["crossing/interacting-crossing"] == UNVERIFIED
    area = [r.verdict for r in suite("charge-scaling")[0].records
            if r.name.startswith("charge-scaling/area-law/n=4/")]
    assert area and all(v == UNVERIFIED for v in area)
