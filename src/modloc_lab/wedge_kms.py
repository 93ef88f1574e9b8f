"""Thermal character of wedge localization: Wightman functions pulled back
to uniformly accelerated world lines, detailed balance of their spectra at
the acceleration temperature, and stationarity along boost orbits.

The right-wedge trajectory x(tau) = a^-1 (sinh a tau, cosh a tau, 0, ...)
has invariant separation s(tau1, tau2)^2 = (4/a^2) sinh^2(a dtau / 2), so

    massless, d=4:   G(tau) = -(a^2 / 16 pi^2) / sinh^2(a (tau - i eps)/2)
    massless, d=2:   the derivative field d phi / d tau (both lightrays),
                     G(tau) = -(a^2 / 8 pi) / sinh^2(a (tau - i eps)/2)
    massive,  d=4:   G(tau) = (m / 4 pi^2) K_1(m sqrt(sigma)) / sqrt(sigma),
                     sigma = -(4/a^2) sinh^2(a (tau - i eps)/2)

with K_1 evaluated by a single quadrature over the invariant-distance
kernel.  Each correlator is sampled at one regulator eps on a uniform grid
and Fourier transformed with a flat-top C-infinity taper (explicit window,
parameters recorded).  The regulator's damping is exact: shifting the
contour by i eps gives  FT[G(. - i eps)](w) = exp(-eps w) G~(w),  so the
spectrum is recovered by the factor exp(eps w), with no extrapolation in
eps.  KMS at beta = 2 pi / a means log(G~(-w)/G~(w)) = -beta w; for the
massless d=4 field G~ is the Planck form  w / (2 pi (1 - exp(-2 pi w / a))).
"""

from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, NumericError
from .profiles import smooth_bump
from .quadrature import gl_nodes, row_blocks

_EPS_SAMPLES = 16          # i_epsilon = _EPS_SAMPLES * grid spacing
_MIN_EPS_SAMPLES = 4.0     # below this the grid cannot resolve the peak
_FLAT_FRACTION = 0.7       # flat share of the transform window
_GRID_RTOL = 1e-9          # spacing spread a uniform tau grid may carry


class _WightmanModelFields(NamedTuple):
    mass: float
    spacetime_dim: int


class WightmanModel(_WightmanModelFields):
    __slots__ = ()

    def __new__(cls, mass, spacetime_dim):
        if not (mass >= 0):
            raise ConfigurationError("mass must be >= 0")
        if spacetime_dim not in (2, 4):
            raise ConfigurationError("spacetime_dim must be 2 or 4")
        if spacetime_dim == 2 and mass > 0:
            raise ConfigurationError("d=2 pullback implemented for the massless current")
        return super().__new__(cls, mass, spacetime_dim)


class _TrajectoryFields(NamedTuple):
    acceleration: float
    tau_grid: np.ndarray


class Trajectory(_TrajectoryFields):
    __slots__ = ()

    def __new__(cls, acceleration, tau_grid):
        if not 0.0 < acceleration < np.inf:
            raise ConfigurationError("acceleration must be finite and positive")
        return super().__new__(cls, acceleration, np.asarray(tau_grid, float))

    @classmethod
    def uniform(cls, acceleration, span=40.0, n=1 << 13):
        # index times spacing: linspace leaves ~1e-14 rounding on the samples
        # near tau = 0, where the correlator peak is only 16 samples wide,
        # and the e^{-beta w}-small side of the spectrum amplifies it
        dt = 2.0 * span / acceleration / (n - 1)
        taus = (np.arange(n) - 0.5 * (n - 1)) * dt
        return cls(acceleration, taus)

    def coordinates(self, tau):
        a = self.acceleration
        t = np.sinh(a * np.asarray(tau)) / a
        x = np.cosh(a * np.asarray(tau)) / a
        return t, x


class PullbackCorrelator(NamedTuple):
    taus: np.ndarray
    values: np.ndarray             # G at i_epsilon
    i_epsilon: float
    acceleration: float


def bessel_k1(z):
    """K_1 by a single quadrature over the invariant kernel,

        K_1(z) = 2 exp(-z) z^{-1/2} int_0^inf exp(-v^2) v^2 sqrt(2 + v^2/z) dv,

    valid for Re z >= 0, z != 0 (the steepest-descent form of the
    int_1^inf exp(-z t) sqrt(t^2-1) dt representation)."""
    z = np.atleast_1d(np.asarray(z, complex))
    vn, vw = gl_nodes(0.0, 6.5, 160)
    vsq = vn**2
    core = vw * np.exp(-vsq) * vsq
    # the (z, v) kernel in row_blocks: each row sums as in the whole table
    inv = (1.0 / z).ravel()
    integral = np.empty_like(inv)
    for b in row_blocks(inv.size, vsq.size):
        blk = np.multiply.outer(inv[b], vsq)
        blk += 2.0
        integral[b] = np.sqrt(blk, out=blk) @ core
    return 2.0 * np.exp(-z) * integral.reshape(z.shape) / np.sqrt(z)


def _massless_profile(tau, eps, a):
    return 1.0 / np.sinh(a * (tau - 1j * eps) / 2.0) ** 2


def _pullback_values(model, a, taus, eps):
    if model.spacetime_dim == 4 and model.mass == 0.0:
        return -(a**2 / (16.0 * np.pi**2)) * _massless_profile(taus, eps, a)
    if model.spacetime_dim == 2:
        return -(a**2 / (8.0 * np.pi)) * _massless_profile(taus, eps, a)
    # massive d = 4
    sigma = -(4.0 / a**2) * np.sinh(a * (taus - 1j * eps) / 2.0) ** 2
    root = np.sqrt(sigma)
    z = model.mass * root
    return (model.mass / (4.0 * np.pi**2)) * bessel_k1(z) / root


def pullback(model, traj, i_epsilon=None):
    """G(tau) = W(x(tau), x(0)) along the boost orbit, with the -i eps
    prescription applied in proper time, sampled once at i_epsilon.  The
    transforms undo the damping with exp(eps w), which holds on a uniform
    grid only, so a grid whose spacing varies by more than rounding is
    refused."""
    taus = traj.tau_grid
    a = traj.acceleration
    if taus.size < 2:
        raise ConfigurationError("trajectory grid too small")
    steps = np.diff(taus)
    dt = float(np.min(steps))
    if dt <= 0 or float(np.max(steps)) - dt > _GRID_RTOL * dt:
        raise ConfigurationError(
            f"trajectory grid must be uniform and increasing (spacing "
            f"{dt:.3e} to {float(np.max(steps)):.3e})"
        )
    if i_epsilon is None:
        i_epsilon = _EPS_SAMPLES * dt
    if i_epsilon <= 0:
        raise ConfigurationError("i_epsilon must be positive")
    if i_epsilon < _MIN_EPS_SAMPLES * dt:
        raise NumericError(
            f"grid too coarse for i_epsilon = {i_epsilon:.3e} (spacing {dt:.3e})"
        )
    return PullbackCorrelator(
        taus=taus,
        values=_pullback_values(model, a, taus, i_epsilon),
        i_epsilon=float(i_epsilon),
        acceleration=a,
    )


# ----------------------------------------------------------------------
# windowed transform and detailed balance
# ----------------------------------------------------------------------

def flat_taper(taus, t_flat, t_end):
    """1 on |tau| <= t_flat, C-infinity roll-off to 0 at t_end.  The flat
    center adds no spectral smearing where the correlator is alive."""
    at = np.abs(taus)
    s = (at - t_flat) / (t_end - t_flat)
    return smooth_bump(s)


class SpectralFunction(NamedTuple):
    """Re G~(omega) and Re G~(-omega) from one windowed transform.  The
    regulator damps G~(w) by exp(-eps w); values and mirror undo that."""
    omegas: np.ndarray
    damped: np.ndarray             # Re G~(omega) of the regulated correlator
    damped_mirror: np.ndarray      # Re G~(-omega) of the regulated correlator
    i_epsilon: float

    @property
    def values(self):
        """De-damped Re G~(omega)."""
        return self.damped * np.exp(self.i_epsilon * self.omegas)

    @property
    def mirror(self):
        """De-damped Re G~(-omega)."""
        return self.damped_mirror * np.exp(-self.i_epsilon * self.omegas)


class BalanceReport(NamedTuple):
    spectrum: SpectralFunction     # both sides of the band w in [0.5, 3] a
    beta: float

    @property
    def omegas(self):
        return self.spectrum.omegas

    @property
    def log_ratio(self):
        """De-damped log(G~(-w)/G~(w)): the damped log-ratio is off by
        exactly -2 eps w, which is added back in place of dividing the two
        de-damped sides, so no rounding of exp(+-eps w) enters."""
        sf = self.spectrum
        return np.log(sf.damped_mirror / sf.damped) - 2.0 * sf.i_epsilon * sf.omegas

    @property
    def defects(self):
        return np.abs(self.log_ratio + self.beta * self.omegas)

    @property
    def max_defect(self):
        return float(np.max(self.defects))

    def at(self, beta):
        """The same transforms read at another inverse temperature."""
        return self._replace(beta=beta)


def _windowed_transforms(taus, values, win, omegas):
    """Re G~(+w) and Re G~(-w) of the sampled slice, each of shape
    (len(omegas),).  exp(-i w tau) is taken as the conjugate of
    exp(i w tau), so one phase per frequency serves both sums."""
    dt = taus[1] - taus[0]
    gw = values * win
    plus = np.empty(len(omegas))
    minus = np.empty_like(plus)
    for i, w in enumerate(omegas):
        phase = np.exp(1j * w * taus)
        plus[i] = np.real(np.sum(gw * phase) * dt)
        minus[i] = np.real(np.sum(gw * np.conj(phase)) * dt)
    return plus, minus


def _window(corr):
    """The flat-top taper over the sampled span, flat on the central
    _FLAT_FRACTION of it.  The correlator must have decayed below 1e-6 of
    its peak where the roll-off starts, or the window truncates it."""
    taus = corr.taus
    t_end = float(np.max(np.abs(taus)))
    t_flat = _FLAT_FRACTION * t_end
    tail = np.max(np.abs(corr.values[np.abs(taus) > t_flat]))
    peak = np.max(np.abs(corr.values))
    if tail / peak > 1e-6:
        raise NumericError(
            f"truncation leakage {tail / peak:.2e} above 1e-6 "
            f"(flat fraction {_FLAT_FRACTION}, span={t_end:.3g})"
        )
    return flat_taper(taus, t_flat, t_end)


def spectral_function(corr, omegas):
    """Re G~(+-omega) of the windowed, sampled correlator, from one
    transform; its values and mirror remove the regulator's damping."""
    omegas = np.asarray(omegas, float)
    plus, minus = _windowed_transforms(corr.taus, corr.values, _window(corr),
                                       omegas)
    return SpectralFunction(omegas=omegas, damped=plus, damped_mirror=minus,
                            i_epsilon=corr.i_epsilon)


def detailed_balance(corr, beta):
    """max_w | log(G~(-w)/G~(w)) + beta w | over w in [0.5, 3] a, 26
    points, read from spectral_function.  The transforms do not depend on
    beta: the report's at() reads the same spectrum at another
    temperature."""
    a = corr.acceleration
    sf = spectral_function(corr, np.linspace(0.5 * a, 3.0 * a, 26))
    if np.any(sf.damped <= 0) or np.any(sf.damped_mirror <= 0):
        raise NumericError("spectral transform lost positivity in band")
    return BalanceReport(spectrum=sf, beta=beta)


def planck_spectrum(omegas, acceleration):
    """The massless d=4 spectrum on the orbit, w / (2 pi (1 - exp(-2 pi w / a))),
    on both sides of w = 0 (Unruh's thermal response at beta = 2 pi / a)."""
    omegas = np.asarray(omegas, float)
    return omegas / (-2.0 * np.pi * np.expm1(-2.0 * np.pi * omegas / acceleration))


# ----------------------------------------------------------------------
# boost stationarity
# ----------------------------------------------------------------------

def wightman_massless_4d(dt, dx2):
    """W(x, x') = 1/(4 pi^2 (|dx|^2 - dt^2)) in d = 4, off the light cone."""
    return 1.0 / (4.0 * np.pi**2 * (dx2 - dt**2))


def boost_orbit_consistency(acceleration):
    """Stationarity of the pullback: G(tau1, tau2) computed from spacetime
    coordinates must equal G(tau1 - tau2, 0), both through the same massless
    Wightman kernel.  Exact for boost orbits, so the defect is pure rounding;
    every (timelike) pair lies more than 0.2 apart, off the light cone."""
    a = acceleration
    t1 = np.linspace(-2.0, 2.0, 9)
    t2 = np.linspace(-1.7, 2.3, 9)
    tau_pairs = [(x, y) for x in t1 for y in t2 if abs(x - y) > 0.2]
    worst = 0.0
    for t1, t2 in tau_pairs:
        dt = (np.sinh(a * t1) - np.sinh(a * t2)) / a
        dx = (np.cosh(a * t1) - np.cosh(a * t2)) / a
        two_point = wightman_massless_4d(dt, dx * dx)
        dtau = t1 - t2
        dt0 = np.sinh(a * dtau) / a
        dx0 = (np.cosh(a * dtau) - 1.0) / a
        ref = wightman_massless_4d(dt0, dx0 * dx0)
        worst = max(worst, float(abs(two_point - ref) / abs(ref)))
    return worst
