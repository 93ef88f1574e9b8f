import numpy as np
import pytest
from scipy.special import hankel2, kv

from modloc_lab import chiral_ej as ce
from modloc_lab import wedge_kms as wk
from modloc_lab.errors import ConfigurationError, DomainError, NumericError

TWO_PI = 2.0 * np.pi


def test_bessel_k1_real_axis():
    zs = np.array([0.03, 0.2, 1.0, 4.0, 11.0, 30.0])
    mine = wk.bessel_k1(zs.astype(complex))
    assert np.max(np.abs(mine - kv(1, zs)) / kv(1, zs)) < 1e-11


def test_bessel_k1_imaginary_axis():
    # K_1(i y) = (pi/2) (-i)^2 H^(2)_1(y)
    for y in (0.7, 3.0, 12.0):
        mine = complex(wk.bessel_k1(np.array([1e-14 + 1j * y]))[0])
        ref = -(np.pi / 2) * hankel2(1, y)
        assert abs(mine - ref) / abs(ref) < 1e-10


def test_massless_pullback_closed_form():
    # W on the orbit equals the coordinate-space massless kernel
    traj = wk.Trajectory.uniform(1.0, span=6.0, n=4096)
    corr = wk.pullback(wk.WightmanModel(0.0, 4), traj, i_epsilon=2e-2)
    taus = traj.tau_grid
    # independent path: complex proper time -> coordinates -> massless kernel
    t, x = traj.coordinates(taus - 1j * 2e-2)
    ref = 1.0 / (4 * np.pi**2 * ((x - 1.0) ** 2 - t**2))
    sel = np.abs(taus) > 0.05
    assert np.max(np.abs(corr.values[sel] - ref[sel]) / np.abs(ref[sel])) < 1e-10


def test_acceleration_scaling():
    # G_a(tau) = a^2 G_1(a tau) for the massless d=4 kernel
    a = 2.0
    taus = np.linspace(-3, 3, 2001)
    tr_a = wk.Trajectory(a, taus)
    tr_1 = wk.Trajectory(1.0, a * taus)
    ca = wk.pullback(wk.WightmanModel(0.0, 4), tr_a, i_epsilon=0.02)
    c1 = wk.pullback(wk.WightmanModel(0.0, 4), tr_1, i_epsilon=a * 0.02)
    assert np.allclose(ca.values, a**2 * c1.values, rtol=1e-12)


def test_hermiticity():
    traj = wk.Trajectory.uniform(1.0, span=10.0, n=2048)
    for model in (wk.WightmanModel(0.0, 4), wk.WightmanModel(0.0, 2),
                  wk.WightmanModel(0.8, 4)):
        corr = wk.pullback(model, traj)
        assert np.max(np.abs(corr.values[::-1] - np.conj(corr.values))) < 1e-12


def test_detailed_balance_closed_form_ratio():
    # G~(-w)/G~(w) = exp(-2 pi w) at a = 1: check the frozen value at w = 1
    traj = wk.Trajectory.uniform(1.0)
    corr = wk.pullback(wk.WightmanModel(0.0, 4), traj)
    sf = wk.spectral_function(corr, np.array([-1.0, 1.0]))
    ratio = float(np.real(sf.values[0]) / np.real(sf.values[1]))
    assert ratio == pytest.approx(np.exp(-TWO_PI), rel=1e-3)
    assert ratio == pytest.approx(1.8674e-3, rel=1e-3)


def test_vacuum_spectrum_one_sided():
    # beta -> infinity limit: the vacuum kernel has no negative frequencies
    n = 1 << 16
    taus = np.linspace(-40.0, 40.0, n)
    dt = taus[1] - taus[0]
    eps = 16 * dt
    vac = -(1.0 / (4 * np.pi**2)) / (taus - 1j * eps) ** 2
    corr = wk.PullbackCorrelator(
        taus, vac, -(1.0 / (4 * np.pi**2)) / (taus - 1j * eps / 2) ** 2,
        1.0)
    sf = wk.spectral_function(corr, np.array([-1.0, 1.0]))
    assert abs(np.real(sf.values[0]) / np.real(sf.values[1])) < 1e-4


def test_massive_balance():
    # the massive pullback is KMS at the same temperature
    traj = wk.Trajectory.uniform(1.0)
    corr = wk.pullback(wk.WightmanModel(0.5, 4), traj)
    assert wk.detailed_balance(corr, TWO_PI).max_defect < 1e-3


def test_grid_too_coarse_for_epsilon():
    traj = wk.Trajectory.uniform(1.0, n=1 << 12)
    dt = traj.tau_grid[1] - traj.tau_grid[0]
    with pytest.raises(NumericError):
        wk.pullback(wk.WightmanModel(0.0, 4), traj, i_epsilon=dt)


def test_truncation_leakage_detected():
    # a span too short for the kernel decay trips the window diagnostic
    traj = wk.Trajectory.uniform(1.0, span=8.0, n=1 << 13)
    corr = wk.pullback(wk.WightmanModel(0.0, 4), traj)
    with pytest.raises(NumericError):
        wk.spectral_function(corr, np.array([1.0]))


@pytest.mark.parametrize("beta", [1.0, TWO_PI])
def test_kms_strip_identity(beta):
    k = ce.thermal_kernel(beta, i_epsilon=1e-300)
    assert wk.kms_shift_check(k) < 1e-10


def test_kms_strip_domain_errors():
    k = ce.thermal_kernel(TWO_PI, i_epsilon=1e-300)
    with pytest.raises(DomainError):
        wk.kms_shift_check(k, taus=np.array([0.0]))
    with pytest.raises(DomainError):
        wk.kms_shift_check(ce.vacuum_kernel())
    # tau -> 0 limit of the identity is hermiticity of the kernel itself
    du = 0.3
    lhs = ce.current_two_point(k, -du, 0.0)
    rhs = np.conj(ce.current_two_point(k, du, 0.0))
    assert abs(lhs - rhs) < 1e-15


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_boost_orbit_stationarity(a):
    assert wk.boost_orbit_consistency(a) < 1e-10


def test_boost_orbit_coincidence_excluded():
    with pytest.raises(DomainError):
        wk.boost_orbit_consistency(1.0, tau_pairs=[(0.5, 0.5)])


def test_model_validation():
    with pytest.raises(ConfigurationError):
        wk.WightmanModel(-1.0, 4)
    with pytest.raises(ConfigurationError):
        wk.WightmanModel(0.0, 3)
    with pytest.raises(ConfigurationError):
        wk.WightmanModel(1.0, 2)     # massive d=2 not implemented
    with pytest.raises(ConfigurationError):
        wk.Trajectory(-1.0, np.linspace(-1, 1, 8))
