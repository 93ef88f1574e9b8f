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
kernel.  The detailed-balance check Fourier transforms the sampled
correlator with a flat-top C-infinity taper (explicit window, parameters
recorded) and removes the i-eps damping by Richardson extrapolation over
two eps values; KMS at beta = 2 pi / a means log(G~(-w)/G~(w)) = -beta w.
"""

from dataclasses import dataclass

import numpy as np

from .chiral_ej import ChiralKernel, current_two_point
from .errors import ConfigurationError, DomainError, NumericError
from .profiles import ramp
from .quadrature import gl_nodes

_EPS_SAMPLES = 16          # i_epsilon = _EPS_SAMPLES * grid spacing
_MIN_EPS_SAMPLES = 4.0     # below this the grid cannot resolve the peak


@dataclass(frozen=True)
class WightmanModel:
    mass: float
    spacetime_dim: int

    def __post_init__(self):
        if self.mass < 0:
            raise ConfigurationError("mass must be >= 0")
        if self.spacetime_dim not in (2, 4):
            raise ConfigurationError("spacetime_dim must be 2 or 4")
        if self.spacetime_dim == 2 and self.mass > 0:
            raise ConfigurationError("d=2 pullback implemented for the massless current")


@dataclass(frozen=True)
class Trajectory:
    acceleration: float
    tau_grid: np.ndarray

    def __post_init__(self):
        if self.acceleration <= 0:
            raise ConfigurationError("acceleration must be positive")
        object.__setattr__(self, "tau_grid", np.asarray(self.tau_grid, float))

    @classmethod
    def uniform(cls, acceleration, span=40.0, n=1 << 16):
        taus = np.linspace(-span / acceleration, span / acceleration, n)
        return cls(acceleration, taus)

    def coordinates(self, tau):
        a = self.acceleration
        t = np.sinh(a * np.asarray(tau)) / a
        x = np.cosh(a * np.asarray(tau)) / a
        return t, x


@dataclass(frozen=True)
class PullbackCorrelator:
    taus: np.ndarray
    values: np.ndarray             # G at i_epsilon
    values_half: np.ndarray        # G at i_epsilon / 2 (Richardson partner)
    acceleration: float


def bessel_k1(z):
    """K_1 by a single quadrature over the invariant kernel,

        K_1(z) = 2 exp(-z) z^{-1/2} int_0^inf exp(-v^2) v^2 sqrt(2 + v^2/z) dv,

    valid for Re z >= 0, z != 0 (the steepest-descent form of the
    int_1^inf exp(-z t) sqrt(t^2-1) dt representation)."""
    z = np.atleast_1d(np.asarray(z, complex))
    vn, vw = gl_nodes(0.0, 6.5, 160)
    core = vw * np.exp(-vn**2) * vn**2
    rad = np.sqrt(2.0 + np.divide.outer(1.0 / z, np.ones_like(vn)) * vn**2)
    integral = rad @ core
    return 2.0 * np.exp(-z) * integral / np.sqrt(z)


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
    prescription applied in proper time.  Values at eps and eps/2 are both
    stored; detailed balance Richardson-extrapolates between them."""
    taus = traj.tau_grid
    a = traj.acceleration
    if taus.size < 2:
        raise ConfigurationError("trajectory grid too small")
    dt = float(np.min(np.diff(taus)))
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
        values_half=_pullback_values(model, a, taus, 0.5 * i_epsilon),
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
    return ramp("smooth_bump", 0)(s)


@dataclass(frozen=True)
class SpectralFunction:
    values: np.ndarray             # Richardson-extrapolated G~(omega)


@dataclass(frozen=True)
class BalanceReport:
    omegas: np.ndarray
    defects: np.ndarray
    max_defect: float


def _windowed_transform(taus, values, win, omegas):
    dt = taus[1] - taus[0]
    out = np.empty(len(omegas), complex)
    gw = values * win
    for i, w in enumerate(omegas):
        out[i] = np.sum(gw * np.exp(1j * w * taus)) * dt
    return out


def spectral_function(corr, omegas, flat_fraction=0.7):
    """Windowed transform of the sampled correlator; the two stored eps
    slices are Richardson-combined to remove the exp(-eps w) damping."""
    taus = corr.taus
    t_end = float(np.max(np.abs(taus)))
    win = flat_taper(taus, flat_fraction * t_end, t_end)
    tail = np.max(np.abs(corr.values[np.abs(taus) > flat_fraction * t_end]))
    peak = np.max(np.abs(corr.values))
    if tail / peak > 1e-6:
        raise NumericError(
            f"truncation leakage {tail / peak:.2e} above 1e-6 "
            f"(flat_fraction={flat_fraction}, span={t_end:.3g})"
        )
    omegas = np.asarray(omegas, float)
    g_full = _windowed_transform(taus, corr.values, win, omegas)
    g_half = _windowed_transform(taus, corr.values_half, win, omegas)
    return SpectralFunction(values=2.0 * g_half - g_full)


def detailed_balance(corr, beta, omega_band=(0.5, 3.0), n_omega=26,
                     flat_fraction=0.7):
    """max_w | log(G~(-w)/G~(w)) + beta w | over the band (in units of the
    acceleration).  The log-ratio is extrapolated linearly in eps (the
    damping is exactly exp(-2 eps w)), so two eps slices suffice."""
    a = corr.acceleration
    omegas = np.linspace(omega_band[0] * a, omega_band[1] * a, n_omega)
    taus = corr.taus
    t_end = float(np.max(np.abs(taus)))
    win = flat_taper(taus, flat_fraction * t_end, t_end)

    def log_ratio(values):
        gp = np.real(_windowed_transform(taus, values, win, omegas))
        gm = np.real(_windowed_transform(taus, values, win, -omegas))
        if np.any(gp <= 0) or np.any(gm <= 0):
            raise NumericError("spectral transform lost positivity in band")
        return np.log(gm / gp)

    r_full = log_ratio(corr.values)
    r_half = log_ratio(corr.values_half)
    r = 2.0 * r_half - r_full
    defects = np.abs(r + beta * omegas)
    return BalanceReport(
        omegas=omegas,
        defects=defects,
        max_defect=float(np.max(defects)),
    )


# ----------------------------------------------------------------------
# KMS strip identity and boost stationarity
# ----------------------------------------------------------------------

def kms_shift_check(kernel, taus=None):
    """max relative defect of G(tau - i beta) = G(-tau) for an analytic
    thermal kernel, evaluated on a real-tau grid away from the strip
    singularities at tau = 0 (mod i beta)."""
    if not isinstance(kernel, ChiralKernel) or kernel.kind != "thermal":
        raise DomainError("kms_shift_check needs an analytic thermal kernel")
    beta = kernel.beta
    if taus is None:
        taus = np.linspace(0.15 * beta, 1.5 * beta, 40)
    taus = np.asarray(taus, float)
    if np.any(np.abs(taus) < 1e-6 * beta):
        raise DomainError("tau = 0 sits on a strip singularity")
    lhs = current_two_point(kernel, taus - 1j * beta, 0.0)
    rhs = current_two_point(kernel, -taus, 0.0)
    return float(np.max(np.abs(lhs - rhs) / np.abs(rhs)))


def wightman_massless_4d(dt, dx2, eps):
    """W(x, x') = 1/(4 pi^2 (|dx|^2 - (dt - i eps)^2)) in d = 4."""
    return 1.0 / (4.0 * np.pi**2 * (dx2 - (dt - 1j * eps) ** 2))


def boost_orbit_consistency(acceleration, tau_pairs=None, eps=1e-30,
                            min_separation=1e-3):
    """Stationarity of the pullback: G(tau1, tau2) computed from spacetime
    coordinates must equal G(tau1 - tau2, 0), both through the same massless
    Wightman kernel.  Exact for boost orbits, so the defect is pure rounding;
    off the diagonal the kernel is regular and eps can sit below machine
    precision."""
    a = acceleration
    if tau_pairs is None:
        t1 = np.linspace(-2.0, 2.0, 9)
        t2 = np.linspace(-1.7, 2.3, 9)
        tau_pairs = [(x, y) for x in t1 for y in t2 if abs(x - y) > 0.2]
    worst = 0.0
    for t1, t2 in tau_pairs:
        if abs(t1 - t2) < min_separation:
            raise DomainError("coincident proper times are excluded")
        dt = (np.sinh(a * t1) - np.sinh(a * t2)) / a
        dx = (np.cosh(a * t1) - np.cosh(a * t2)) / a
        two_point = wightman_massless_4d(dt, dx * dx, eps)
        dtau = t1 - t2
        dt0 = np.sinh(a * dtau) / a
        dx0 = (np.cosh(a * dtau) - 1.0) / a
        ref = wightman_massless_4d(dt0, dx0 * dx0, eps)
        worst = max(worst, float(abs(two_point - ref) / abs(ref)))
    return worst
