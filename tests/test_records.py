"""The engines' records and specs are immutable values: a field cannot be
reassigned and no attribute can be added, and each validated spec rejects a
bad input when it is built, not when an engine first reads it."""

import inspect

import numpy as np
import pytest

from modloc_lab import charge_fluct as cf
from modloc_lab import chiral_ej as ce
from modloc_lab import crossing_zf as cz
from modloc_lab import gaussian_core as gc
from modloc_lab import wedge_kms as wk
from modloc_lab.cli_bench import config as cbc
from modloc_lab.cli_bench import manifest
from modloc_lab.errors import ConfigurationError, DomainError

_ARR = np.zeros(2)


def _instances():
    lattice = gc.HarmonicLattice(4, 1.0)
    g = cz.WedgeTestFn(0.0, 2.0, 0.5, 0.5)
    spectrum = wk.SpectralFunction(_ARR, _ARR, _ARR, 0.1)
    return [
        lattice,
        gc.build_vacuum_state(lattice),
        gc.FitRecord(1.0, 1.0),
        cf.ScalarModel(1.0, 2),
        cf.PartialChargeSpec(4.0, 1.0, 1.0),
        cf.ScalingReport((), 1.0, False, 1.0),
        cf.ChargeLimitReport(True, 0.0, 0.0),
        ce.ChiralKernel("thermal", 2.0),
        ce.IntervalMap(2.0, (0.0, 1.0)),
        ce.EJComparison(1.0, 1.0, 0.0),
        ce.EntropyRelationReport((), 1.0, 1.0, 1.0, 1.0),
        g,
        cz.RapidityFn(_ARR, _ARR, _ARR, g),
        cz.CrossingReport(_ARR, _ARR, 0.0),
        cz.KMSIdentityReport(1.0 + 0.0j, 0.0),
        cz.SMatrixModel(1.0),
        cz.zf_vacuum(4, 4),
        wk.WightmanModel(0.0, 4),
        wk.Trajectory(1.0, [0.0, 1.0]),
        wk.PullbackCorrelator(_ARR, _ARR, 0.1, 1.0),
        spectrum,
        wk.BalanceReport(spectrum, 1.0),
        cbc.load_config("thermal-map"),
        manifest.check_less("demo", 1.0, 2.0),
    ]


@pytest.mark.parametrize("obj", _instances(), ids=lambda o: type(o).__name__)
def test_record_is_immutable(obj):
    for name in inspect.signature(type(obj)).parameters:
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
    with pytest.raises(AttributeError):
        obj.not_a_field = None


@pytest.mark.parametrize("build, error", [
    (lambda: gc.HarmonicLattice(1, 1.0), ConfigurationError),
    (lambda: cf.ScalarModel(0.0, 2), ConfigurationError),
    (lambda: cf.PartialChargeSpec(1.0, 2.0, 1.0), ConfigurationError),
    (lambda: ce.ChiralKernel("thermal"), ConfigurationError),
    (lambda: ce.IntervalMap(1.0, (1.0, 0.0)), ConfigurationError),
    (lambda: cz.WedgeTestFn(0.0, 0.0, 0.5, 0.5), DomainError),
    (lambda: cz.SMatrixModel(4.0), ConfigurationError),
    (lambda: wk.WightmanModel(1.0, 2), ConfigurationError),
    (lambda: wk.Trajectory(0.0, [0.0, 1.0]), ConfigurationError),
    # a NaN fails every comparison, so each check is written to fail on it
    (lambda: gc.HarmonicLattice(8, np.nan), ConfigurationError),
    (lambda: cf.PartialChargeSpec(4.0, np.nan, 1.0), ConfigurationError),
    (lambda: wk.WightmanModel(np.nan, 4), ConfigurationError),
    (lambda: wk.Trajectory(np.nan, [0.0, 1.0]), ConfigurationError),
    # the map checks its own beta: a negative one inverts the image
    (lambda: ce.IntervalMap(-1.0, (0.0, 1.0)), ConfigurationError),
    (lambda: ce.IntervalMap(0.0, (0.0, 1.0)), ConfigurationError),
    (lambda: ce.IntervalMap(np.inf, (0.0, 1.0)), ConfigurationError),
    # an infinite acceleration pulls back to NaN, and a fractional chain
    # has no mode set
    (lambda: wk.Trajectory(np.inf, [0.0, 1.0]), ConfigurationError),
    (lambda: gc.HarmonicLattice(8.5, 1.0), ConfigurationError),
], ids=["HarmonicLattice", "ScalarModel", "PartialChargeSpec", "ChiralKernel",
        "IntervalMap", "WedgeTestFn", "SMatrixModel", "WightmanModel",
        "Trajectory", "HarmonicLattice-nan-mass", "PartialChargeSpec-nan-ramp",
        "WightmanModel-nan-mass", "Trajectory-nan-acceleration",
        "IntervalMap-negative-beta", "IntervalMap-zero-beta",
        "IntervalMap-infinite-beta", "Trajectory-infinite-acceleration",
        "HarmonicLattice-fractional-sites"])
def test_validated_spec_rejects_a_bad_input(build, error):
    with pytest.raises(error):
        build()
