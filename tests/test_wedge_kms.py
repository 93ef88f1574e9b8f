import numpy as np
import pytest
from scipy.special import hankel2, kv

from modloc_lab import chiral_ej as ce
from modloc_lab import wedge_kms as wk
from modloc_lab.errors import ConfigurationError, DomainError, NumericError
from modloc_lab.quadrature import gl_nodes, row_blocks

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


def _bessel_k1_one_shot(z):
    # the unblocked kernel: one (z.size, 160) matrix
    z = np.atleast_1d(np.asarray(z, complex))
    vn, vw = gl_nodes(0.0, 6.5, 160)
    core = vw * np.exp(-vn**2) * vn**2
    rad = np.sqrt(2.0 + np.divide.outer(1.0 / z, np.ones_like(vn)) * vn**2)
    return 2.0 * np.exp(-z) * (rad @ core) / np.sqrt(z)


@pytest.mark.parametrize("shape", [(2500,), (60, 45), (1,)])
def test_bessel_k1_blocks_bit_identical(shape):
    # 2500 and 60 x 45 span row blocks and end on a partial one
    for size in (2500, 60 * 45):
        sizes = [b.stop - b.start for b in row_blocks(size, 160)]
        assert len(sizes) > 1 and sizes[-1] < sizes[0]
    rng = np.random.default_rng(3)
    z = rng.uniform(1e-3, 15.0, shape) + 1j * rng.uniform(-8.0, 8.0, shape)
    mine = wk.bessel_k1(z)
    assert mine.shape == shape
    assert np.array_equal(mine, _bessel_k1_one_shot(z))


def test_bessel_k1_holds_one_block_table(traced_peak):
    # the massive pullback's 8192 points in row_blocks: measured 0.74 MiB,
    # against 1.26 MiB for 256-row blocks and 7.8 MiB for the whole (z, v)
    # table and its temporaries
    rng = np.random.default_rng(5)
    z = rng.uniform(1e-3, 15.0, 8192) + 1j * rng.uniform(-8.0, 8.0, 8192)
    assert traced_peak(lambda: wk.bessel_k1(z)) < 0.9


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
    corr = wk.PullbackCorrelator(taus, vac, eps, 1.0)
    sf = wk.spectral_function(corr, np.array([-1.0, 1.0]))
    assert abs(np.real(sf.values[0]) / np.real(sf.values[1])) < 1e-4


@pytest.mark.parametrize("taus", [
    wk.Trajectory.uniform(1.0).tau_grid,
    wk.Trajectory.uniform(0.95).tau_grid,
    np.linspace(-40.0, 40.0, 1 << 16),     # test_vacuum_spectrum_one_sided's
], ids=["uniform-1", "uniform-0.95", "linspace"])
def test_windowed_transforms_match_literal_sum(taus):
    # one shared phase per frequency gives the real parts of the literal
    # one-frequency sums bit for bit, at +w and -w
    dt = taus[1] - taus[0]
    eps = 16 * dt
    values = -(1.0 / (4 * np.pi**2)) / np.sinh((taus - 1j * eps) / 2.0) ** 2
    t_end = float(np.max(np.abs(taus)))
    win = wk.flat_taper(taus, 0.7 * t_end, t_end)
    omegas = np.array([0.5, 1.0, 1.7, 3.0])
    plus, minus = wk._windowed_transforms(taus, values, win, omegas)
    assert plus.shape == minus.shape == (len(omegas),)
    for i, w in enumerate(omegas):
        for sign, got in ((1.0, plus), (-1.0, minus)):
            ref = np.real(np.sum(values * win * np.exp(1j * (sign * w) * taus)) * dt)
            assert got[i] == ref


_BAND = np.linspace(0.5, 3.0, 26)
_TWO_SIDED = np.concatenate((-_BAND, _BAND))


def test_spectrum_independent_of_epsilon():
    # exp(eps w) removes the regulator's damping exactly, so the spectrum
    # must not move with eps: 1.5e-9 (8 dt) and 3.6e-9 (32 dt) against
    # 16 dt, while de-damping with exp(-eps w) instead reads 0.6 and 1.6
    traj = wk.Trajectory.uniform(1.0)
    dt = traj.tau_grid[1] - traj.tau_grid[0]
    spectra = [wk.spectral_function(
        wk.pullback(wk.WightmanModel(0.0, 4), traj, i_epsilon=k * dt),
        _TWO_SIDED).values for k in (8, 16, 32)]
    for other in (spectra[0], spectra[2]):
        assert np.max(np.abs(other / spectra[1] - 1.0)) < 1e-8


@pytest.mark.parametrize("n", [1 << 12, 1 << 13, 1 << 16])
def test_massless_spectrum_is_planck(n):
    # measured 1.4e-9, 2.2e-9 and 2.9e-8: the rounding of the small side
    # grows like 1/eps; the old Richardson step left 8.3e-4 at w = 3
    corr = wk.pullback(wk.WightmanModel(0.0, 4), wk.Trajectory.uniform(1.0, n=n))
    sf = wk.spectral_function(corr, _TWO_SIDED)
    planck = _TWO_SIDED / (TWO_PI * (1.0 - np.exp(-TWO_PI * _TWO_SIDED)))
    assert np.max(np.abs(sf.values / planck - 1.0)) < 1e-7


def test_balance_report_holds_the_two_sided_spectrum():
    # the report keeps the spectrum it summed, so the Planck check reads
    # G~(-w) and G~(+w) from it without a second transform.  The mirror
    # side takes exp(-i w tau) as conj(exp(i w tau)), where a direct
    # transform at -w evaluates exp(i (-w) tau): the two agree bit for bit
    # only while numpy's complex exp is exactly odd in its imaginary part,
    # so a bit-level miss within 1e-15 points at the numpy build, not at
    # the transform
    corr = wk.pullback(wk.WightmanModel(0.0, 4), wk.Trajectory.uniform(1.0))
    rep = wk.detailed_balance(corr, TWO_PI)
    direct = wk.spectral_function(
        corr, np.concatenate((-rep.omegas, rep.omegas))).values
    held = np.concatenate((rep.spectrum.mirror, rep.spectrum.values))
    assert np.allclose(held, direct, rtol=1e-15, atol=0.0)
    assert np.array_equal(held, direct)
    assert rep.at(np.pi).spectrum is rep.spectrum


def test_flat_taper_is_flat_to_all_digits_at_both_joints():
    # the smooth-bump roll-off has every derivative 0 at t_flat and t_end,
    # so a hundredth of the way into it the taper is still 1 to double
    # precision, and 1e-43 from 0; a C^1 or C^0 ramp is off by 1e-4 or more
    t_flat, t_end = 3.0, 5.0
    near = 0.01 * (t_end - t_flat)
    taus = np.array([t_flat, t_flat + near, t_end - near, t_end])
    for sign in (1.0, -1.0):
        win = wk.flat_taper(sign * taus, t_flat, t_end)
        assert win[0] == win[1] == 1.0 and win[3] == 0.0 and 0.0 <= win[2] < 1e-40


def test_balance_report_read_at_another_beta():
    # the transforms do not depend on beta: reading the beta = 2 pi report
    # at pi gives the recomputed negative control bit for bit
    corr = wk.pullback(wk.WightmanModel(0.0, 4), wk.Trajectory.uniform(1.0))
    rep = wk.detailed_balance(corr, TWO_PI)
    neg = wk.detailed_balance(corr, np.pi)
    assert np.array_equal(rep.at(np.pi).defects, neg.defects)
    assert rep.at(np.pi).max_defect == neg.max_defect > 0.5
    assert rep.max_defect < 1e-6


def test_detailed_balance_positivity_check():
    # a transform that is negative in the band is refused, not logged
    corr = wk.pullback(wk.WightmanModel(0.0, 4), wk.Trajectory.uniform(1.0))
    flipped = wk.PullbackCorrelator(corr.taus, -corr.values, corr.i_epsilon,
                                    corr.acceleration)
    with pytest.raises(NumericError, match="lost positivity"):
        wk.detailed_balance(flipped, TWO_PI)


def test_detailed_balance_off_power_of_two_accelerations():
    # a = 0.95 and 1.1 are no power-of-two rescaling of a = 1: on a linspace
    # grid their tau ~ 0 samples carried rounding that the e^{-beta w}-small
    # side of the spectrum amplified to 1.7e-4 and 2.7e-4
    for a in (0.95, 1.1):
        corr = wk.pullback(wk.WightmanModel(0.0, 4), wk.Trajectory.uniform(a))
        assert wk.detailed_balance(corr, TWO_PI / a).max_defect < 1e-6


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


def test_non_uniform_grid_rejected():
    # exp(eps w) de-damping and the transform's dt both need a uniform grid;
    # linspace grids, uniform up to rounding, are accepted
    model = wk.WightmanModel(0.0, 4)
    wk.pullback(model, wk.Trajectory(1.0, np.linspace(-40.0, 40.0, 1 << 13)))
    taus = np.linspace(-40.0, 40.0, 1 << 13)
    taus[: len(taus) // 2] *= 1.0 + 1e-6
    with pytest.raises(ConfigurationError, match="uniform"):
        wk.pullback(model, wk.Trajectory(1.0, taus))
    sinh_grid = np.sinh(np.linspace(-4.0, 4.0, 1 << 13))
    with pytest.raises(ConfigurationError, match="uniform"):
        wk.pullback(model, wk.Trajectory(1.0, sinh_grid))


def test_truncation_leakage_detected():
    # a span too short for the kernel decay trips the window diagnostic of
    # both transforms, before any transform is taken
    traj = wk.Trajectory.uniform(1.0, span=8.0, n=1 << 13)
    corr = wk.pullback(wk.WightmanModel(0.0, 4), traj)
    with pytest.raises(NumericError, match="truncation leakage"):
        wk.spectral_function(corr, np.array([1.0]))
    with pytest.raises(NumericError, match="truncation leakage"):
        wk.detailed_balance(corr, TWO_PI)


@pytest.mark.parametrize("beta", [1.0, TWO_PI])
def test_kms_strip_identity(beta):
    # the real strip-boundary grid of unruh/kms-strip-chiral
    k = ce.thermal_kernel(beta)
    taus = np.linspace(0.15 * beta, 1.5 * beta, 40)
    assert ce.kms_periodicity_defect(k, taus) < 1e-10


def test_kms_strip_domain_errors():
    k = ce.thermal_kernel(TWO_PI)
    with pytest.raises(DomainError):               # tau = 0 is the singularity
        ce.kms_periodicity_defect(k, np.array([0.0]))
    with pytest.raises(DomainError):
        ce.kms_periodicity_defect(ce.vacuum_kernel(), np.array([1.0]))
    # tau -> 0 limit of the identity is hermiticity of the kernel itself
    du = 0.3
    lhs = ce.current_two_point(k, -du, 0.0)
    rhs = np.conj(ce.current_two_point(k, du, 0.0))
    assert abs(lhs - rhs) < 1e-15


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_boost_orbit_stationarity(a):
    assert wk.boost_orbit_consistency(a) < 1e-10


def test_model_validation():
    with pytest.raises(ConfigurationError):
        wk.WightmanModel(-1.0, 4)
    with pytest.raises(ConfigurationError):
        wk.WightmanModel(0.0, 3)
    with pytest.raises(ConfigurationError):
        wk.WightmanModel(1.0, 2)     # massive d=2 not implemented
    with pytest.raises(ConfigurationError):
        wk.Trajectory(-1.0, np.linspace(-1, 1, 8))
