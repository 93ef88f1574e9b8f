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
def suite():
    """suite(name) -> (manifest, seconds spent in run_experiment); each
    suite runs at most once per module."""
    @functools.cache
    def run(name):
        t0 = time.perf_counter()
        man = run_experiment(load_config(name))
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
    claims = {
        "thermal-map/kernel-defect/beta=1": ("<", 1e-10),
        "thermal-map/kernel-defect/beta=6.28319": ("<", 1e-10),
        "thermal-map/kms-periodicity": ("<", 1e-10),
    }
    _assert_claims(man, claims, betas=(1.0, TWO_PI),
                   grid_n=100)                 # first 100 points of 11 x 11
    # the identities hold to rounding at defaults (2.4e-15 and 8.7e-16)
    measured = {r.name: r.measured for r in man.records}
    assert all(measured[name] < 1e-11 for name in claims)
    assert dt < 1.0


def test_criterion_2_einstein_jordan_fluctuations(suite):
    man, dt = suite("ej-fluct")
    claims = {f"ej-fluct/energy-variance-match/geometry-{i}": ("<", 1e-6)
              for i in range(3)}
    claims["ej-fluct/current-route-agreement"] = ("<", 1e-6)
    _assert_claims(man, claims, beta=TWO_PI)
    # pinned far inside the claim's tolerance, so an O(eps) kernel regulator
    # bias (5e-8 to 1e-7 at eps = 1e-8) fails here, and so does the
    # under-resolved log|sinh| kernel (1.4e-13 to 4.4e-12); the energy match
    # measures 8.5e-16 to 4.5e-15 at defaults
    measured = {r.name: r.measured for r in man.records}
    assert all(measured[name] < 1e-10 for name in claims)
    assert all(measured[f"ej-fluct/energy-variance-match/geometry-{i}"] < 1e-13
               for i in range(3))
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
        "entropy-scan/localization-fit-r2": (">", 0.99),
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
        "unruh/planck-spectrum": ("<", 1e-5),
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
    purity = {"entropy-scan/vacuum-purity/n=512": ("<", 1e-8),
              "entropy-scan/vacuum-purity/n=2048": ("<", 1e-8)}
    man = suite("entropy-scan")[0]
    _assert_claims(man, purity)
    # the spectrum is accurate far inside the claim's tolerance; a route
    # through the eigendecomposition of X measures 2e-10 at n = 2048
    measured = {r.name: r.measured for r in man.records}
    assert all(measured[name] < 1e-10 for name in purity)


def test_declared_out_of_reach_items_are_flagged(suite):
    # the n > 2 entropy/area prediction and the interacting crossing proof
    # are carried as unverified-by-design manifest rows, never asserted
    crossing = {r.name: r.verdict for r in suite("crossing")[0].records}
    assert crossing["crossing/interacting-crossing"] == UNVERIFIED
    area = [r.verdict for r in suite("charge-scaling")[0].records
            if r.name.startswith("charge-scaling/area-law/n=4/")]
    assert area and all(v == UNVERIFIED for v in area)
