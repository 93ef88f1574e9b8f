"""Vacuum variance of the smeared partial charge of a free complex scalar.

The charge density j0 = i:(phi* d_t phi - (d_t phi*) phi): smeared with a
radial plateau function f_{R,dR} and a time bump g_T creates a
particle-antiparticle pair out of the vacuum with amplitude
(E_p - E_q) f~(p+q) g~(E_p+E_q), so

    F = |Q(f,g) Omega|^2
      = int d^Dp d^Dq / (2 pi)^{2D}  (E_p-E_q)^2 / (4 E_p E_q)
            |f~(p+q)|^2 |g~(E_p+E_q)|^2 ,          D = n - 1 spatial dims.

Rotational symmetry reduces everything to the total momentum k = |p+q|:
F = S_{D-1} (2 pi)^{-2D} int dk k^{D-1} |f~(k)|^2 I_D(k) with I_D the pair
phase-space integral.  The k integral oscillates on the scale pi/R and is
handled by small-k panels plus a Filon rule (D = 1, 3) or half-period
panels (D = 2), so the cost does not grow with R/dR.

An independent lattice mode-sum oracle (D = 1, periodic chain) checks the
continuum quadrature at the few-percent level.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import j0, j1

from .errors import ConfigurationError, FitError, NumericError
from .profiles import ramp
from .quadrature import filon_cos_sin, gl_nodes, linear_fit

_ECUT_SIGMAS = 5.7     # |g~|^2 = exp(-(E T)^2) < 1e-14 beyond E = 5.7/T
_KFAC = 40.0           # ramp cutoff k <= KFAC / dR


@dataclass(frozen=True)
class ScalarModel:
    mass: float
    spacetime_dim: int

    def __post_init__(self):
        if not (self.mass > 0):
            raise ConfigurationError("mass must be strictly positive")
        if self.spacetime_dim not in (2, 3, 4):
            raise ConfigurationError("spacetime_dim must be 2, 3 or 4")


@dataclass(frozen=True)
class PartialChargeSpec:
    """Geometry of the partial charge: plateau radius R, boundary ramp dR
    (the attenuation thickness), Gaussian time width T.  The amplitude
    rescales f and exists for bilinearity checks (F scales as amplitude^2)."""

    radius: float
    ramp_width: float
    time_width: float
    profile: str = "raised_cosine"
    amplitude: float = 1.0

    def __post_init__(self):
        if self.radius <= 0 or self.ramp_width <= 0 or self.time_width <= 0:
            raise ConfigurationError("R, dR and T must be positive")
        if self.ramp_width > self.radius:
            raise ConfigurationError("need dR <= R")

    @property
    def ratio(self):
        return self.radius / self.ramp_width


@dataclass(frozen=True)
class ScalingReport:
    samples: tuple                 # ((R/dR, F), ...)
    fitted_exponent: float
    fitted_log_flag: bool
    r_squared: float               # R^2 of the primary fit
    log_slope: float | None = None


def _energy(p, m):
    return np.sqrt(p * p + m * m)


def _g2(E, T):
    return np.exp(-np.clip((E * T) ** 2, 0.0, 700.0))


# ----------------------------------------------------------------------
# pair phase-space integrals I_D(k)
# ----------------------------------------------------------------------

def _pair_integral_1d(k, m, T, n_y=320):
    """D=1; rapidity substitution p = m sinh(y) resolves the 1/E spikes."""
    y_hi = np.arcsinh(k / (2.0 * m))
    y_lo = -np.arcsinh((_ECUT_SIGMAS / T + k) / m)
    yn, yw = gl_nodes(y_lo, y_hi, n_y)
    p = m * np.sinh(yn)
    ep = m * np.cosh(yn)
    eq = _energy(k - p, m)
    val = (ep - eq) ** 2 / (4.0 * eq) * _g2(ep + eq, T)
    return 2.0 * float(np.sum(yw * val))


def _pair_integral_2d(k, m, T, n_p=240, n_phi=160):
    """D=2; polar (p, phi) with q = |k - p|."""
    pmax = _ECUT_SIGMAS / T + k
    pn, pw = gl_nodes(1e-12, pmax, n_p)
    hn, hw = gl_nodes(0.0, np.pi, n_phi)
    P = pn[:, None]
    Q = np.sqrt(P * P + k * k - 2.0 * P * k * np.cos(hn)[None, :])
    ep = _energy(P, m)
    eq = _energy(Q, m)
    val = (ep - eq) ** 2 / (4.0 * ep * eq) * _g2(ep + eq, T)
    return 2.0 * float(((pw[:, None] * hw[None, :]) * P * val).sum())


def _pair_integral_3d(k, m, T, n_p=240, n_e=120):
    """D=3; the angular integral collapses to an energy integral:
    I = (2 pi / k) int p dp / (4 E_p) int_{E|k-p|}^{E(k+p)} dE (E_p-E)^2 g2."""
    pmax = _ECUT_SIGMAS / T + k
    pn, pw = gl_nodes(1e-12, pmax, n_p)
    ep = _energy(pn, m)
    e_lo = _energy(np.abs(k - pn), m)
    e_hi = _energy(k + pn, m)
    xg, wg = gl_nodes(0.0, 1.0, n_e)
    emid = e_lo[:, None] + (e_hi - e_lo)[:, None] * xg[None, :]
    ew = (e_hi - e_lo)[:, None] * wg[None, :]
    inner = (ew * (ep[:, None] - emid) ** 2 * _g2(ep[:, None] + emid, T)).sum(axis=1)
    return float((2.0 * np.pi / k) * np.sum(pw * pn / (4.0 * ep) * inner))


_PAIR_INTEGRALS = {1: _pair_integral_1d, 2: _pair_integral_2d, 3: _pair_integral_3d}


class _PairKernel:
    """log-log interpolant of I_D(k) on a fixed grid; below the grid the
    exact leading behavior I ~ k^2 extrapolates."""

    def __init__(self, D, m, T, kmax, n_grid=320):
        k_lo = 1e-3 * min(m, 1.0 / kmax) if kmax > 0 else 1e-3
        kg = np.exp(np.linspace(np.log(k_lo), np.log(kmax) + 0.02, n_grid))
        fn = _PAIR_INTEGRALS[D]
        vals = np.array([fn(k, m, T) for k in kg])
        self._lnk = np.log(kg)
        self._lnI = np.log(np.maximum(vals, 1e-300))
        self._klo = kg[0]
        self._Ilo = vals[0]

    def __call__(self, k):
        k = np.asarray(k, float)
        kc = np.maximum(k, self._klo)
        out = np.exp(np.interp(np.log(kc), self._lnk, self._lnI))
        small = k < self._klo
        if np.any(small):
            out = np.where(small, self._Ilo * (k / self._klo) ** 2, out)
        return out


# ----------------------------------------------------------------------
# radial Fourier transforms of the plateau profile
# ----------------------------------------------------------------------

def _ramp_moments(spec, ks, weight_r=False):
    """(C, S) with C = int_0^dR rho(s) w(s) cos(k s) ds and S the sine
    moment; rho the unit ramp, w = 1 or (R + s)."""
    ks = np.atleast_1d(ks)
    dR = spec.ramp_width
    n = int(max(32, min(360, 16 + 1.4 * np.max(np.abs(ks)) * dR)))
    sn, sw = gl_nodes(0.0, dR, n)
    rho = ramp(spec.profile, 0)(sn / dR)
    w = (spec.radius + sn) if weight_r else 1.0
    base = sw * rho * w
    C = np.cos(np.outer(ks, sn)) @ base
    S = np.sin(np.outer(ks, sn)) @ base
    return C, S


def _envelope_1d(spec, ks):
    """f~(k) = A sin(kR) + B cos(kR) with slowly varying A, B (D = 1)."""
    kk = np.where(np.abs(ks) < 1e-14, 1e-14, ks)
    C, S = _ramp_moments(spec, kk)
    amp = spec.amplitude
    return amp * (2.0 / kk - 2.0 * S), amp * 2.0 * C


def _envelope_3d(spec, ks):
    """f~(k) = A sin(kR) + B cos(kR) for the 3-d radial transform."""
    kk = np.where(np.abs(ks) < 1e-14, 1e-14, ks)
    C, S = _ramp_moments(spec, kk, weight_r=True)
    A = spec.amplitude * 4.0 * np.pi * (1.0 / kk**3 + C / kk)
    B = spec.amplitude * 4.0 * np.pi * (S / kk - spec.radius / kk**2)
    return A, B


def ftilde_radial(spec, D, ks):
    """Radial Fourier transform of the plateau profile in D spatial dims."""
    ks = np.atleast_1d(np.asarray(ks, float))
    kk = np.where(np.abs(ks) < 1e-14, 1e-14, np.abs(ks))
    R = spec.radius
    if D == 1:
        A, B = _envelope_1d(spec, kk)
        return A * np.sin(kk * R) + B * np.cos(kk * R)
    if D == 3:
        A, B = _envelope_3d(spec, kk)
        return A * np.sin(kk * R) + B * np.cos(kk * R)
    # D == 2: disc part closed form, ramp by quadrature of J0
    out = 2.0 * np.pi * R * j1(kk * R) / kk
    dR = spec.ramp_width
    n = int(max(32, min(360, 16 + 1.4 * np.max(kk) * dR)))
    rn, rw = gl_nodes(R, R + dR, n)
    rho = ramp(spec.profile, 0)((rn - R) / dR)
    out = out + 2.0 * np.pi * (j0(np.outer(kk, rn)) @ (rw * rn * rho))
    return spec.amplitude * out


# ----------------------------------------------------------------------
# the variance itself
# ----------------------------------------------------------------------

def _kmax(spec):
    return min(_KFAC / spec.ramp_width, 2.2 * _ECUT_SIGMAS / spec.time_width)


def _variance_filon(spec, D, pair, ang_over_tp):
    """D in {1, 3}: small-k direct panels + Filon envelope split beyond."""
    R = spec.radius
    kmax = _kmax(spec)
    k_split = min(30.0 / R, kmax)
    total = 0.0
    edges = np.linspace(0.0, k_split, 61)
    for a, b in zip(edges[:-1], edges[1:]):
        kn, kw = gl_nodes(a, b, 12)
        ft = ftilde_radial(spec, D, kn)
        total += float(np.sum(kw * kn ** (D - 1) * ft**2 * pair(kn)))
    if k_split < kmax:
        env = _envelope_1d if D == 1 else _envelope_3d

        def s_slow(k):
            A, B = env(spec, k)
            return 0.5 * (A * A + B * B) * k ** (D - 1) * pair(k)

        def s_cos(k):
            A, B = env(spec, k)
            return 0.5 * (B * B - A * A) * k ** (D - 1) * pair(k)

        def s_sin(k):
            A, B = env(spec, k)
            return A * B * k ** (D - 1) * pair(k)

        n_pan = int(max(80, 12 * kmax * spec.ramp_width))
        geo = np.exp(np.linspace(np.log(k_split), np.log(kmax), 48))
        for a, b in zip(geo[:-1], geo[1:]):
            kn, kw = gl_nodes(a, b, 16)
            total += float(np.sum(kw * s_slow(kn)))
        ic, _ = filon_cos_sin(s_cos, k_split, kmax, 2.0 * R, n_pan)
        _, isn = filon_cos_sin(s_sin, k_split, kmax, 2.0 * R, n_pan)
        total += ic + isn
    return ang_over_tp * total


def _variance_panels(spec, D, pair, ang_over_tp):
    """D = 2: half-oscillation panels across the whole k range."""
    kmax = _kmax(spec)
    half_period = np.pi / (spec.radius + spec.ramp_width) / 2.0
    n_panels = int(np.ceil(kmax / half_period))
    edges = np.linspace(0.0, kmax, n_panels + 1)
    xg, wg = gl_nodes(0.0, 1.0, 8)
    mid = edges[:-1]
    h = edges[1] - edges[0]
    kn = (mid[:, None] + h * xg[None, :]).ravel()
    kw = np.broadcast_to(h * wg, (n_panels, 8)).ravel()
    total = 0.0
    chunk = 20000
    for i in range(0, kn.size, chunk):
        ks = kn[i:i + chunk]
        ft = ftilde_radial(spec, D, ks)
        total += float(np.sum(kw[i:i + chunk] * ks ** (D - 1) * ft**2 * pair(ks)))
    return ang_over_tp * total


def charge_variance(model, spec):
    """F = |Q(f_{R,dR}, g_T) Omega|^2 >= 0 for the free complex scalar."""
    D = model.spacetime_dim - 1
    kmax = _kmax(spec)
    pair = _PairKernel(D, model.mass, spec.time_width, kmax)
    ang = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}[D]
    ang_over_tp = ang / (2.0 * np.pi) ** (2 * D)
    if D == 2:
        val = _variance_panels(spec, D, pair, ang_over_tp)
    else:
        val = _variance_filon(spec, D, pair, ang_over_tp)
    if val < -1e-10:
        raise NumericError(f"variance came out negative ({val:.3e})", achieved=val)
    return max(val, 0.0)


def charge_variance_lattice(model, spec, n_sites=512, spacing=None):
    """Independent mode-sum oracle on a periodic spatial chain (n = 2 only).

    Plane-wave modes k_j = 2 pi j / (N a) with lattice dispersion
    E_j^2 = m^2 + (2/a)^2 sin^2(k_j a / 2); f~ is the discrete transform of
    the same plateau profile, and momentum conservation is mod 2 pi / a.
    """
    if model.spacetime_dim != 2:
        raise ConfigurationError("lattice oracle implemented for n = 2")
    if spacing is None:
        spacing = 4.0 * (spec.radius + spec.ramp_width) / n_sites
    a = spacing
    N = n_sites
    L = N * a
    xs = (np.arange(N) - N // 2) * a
    r = ramp(spec.profile, 0)
    f = spec.amplitude * r((np.abs(xs) - spec.radius) / spec.ramp_width)
    js = np.arange(N) - N // 2
    ks = 2.0 * np.pi * js / L
    ft = a * np.exp(-1j * np.outer(ks, xs)) @ f
    E = np.sqrt(model.mass**2 + (2.0 / a * np.sin(ks * a / 2.0)) ** 2)
    # position of the wrapped total momentum j1 + j2 in the js ordering
    idx = (js[:, None] + js[None, :] + N // 2) % N
    ft2 = np.abs(ft[idx]) ** 2
    Ep = E[:, None]
    Eq = E[None, :]
    val = (Ep - Eq) ** 2 / (4.0 * Ep * Eq) * ft2 * _g2(Ep + Eq, spec.time_width)
    return float(val.sum()) / L**2


def scaling_fit(model, spec_family):
    """Fit of F against R/dR over a geometry family.

    n = 2: primary fit F ~ s ln(R/dR) (log flag set) with the log-log power
    exponent reported alongside; n > 2: primary fit log F ~ e log(R/dR).
    """
    specs = list(spec_family)
    if len(specs) < 6:
        raise FitError("need at least 6 samples")
    x = np.array([s.ratio for s in specs])
    if np.max(x) / np.min(x) < 10.0 - 1e-9:
        raise FitError("samples must span at least one decade in R/dR")
    F = np.array([charge_variance(model, s) for s in specs])
    if np.any(F <= 0):
        raise FitError("nonpositive variance in scan")
    exp_fit, _, r2_pow = linear_fit(np.log(x), np.log(F))
    if model.spacetime_dim == 2:
        slope, _, r2_log = linear_fit(np.log(x), F)
        return ScalingReport(
            samples=tuple(zip(x.tolist(), F.tolist())),
            fitted_exponent=exp_fit,
            fitted_log_flag=True,
            r_squared=r2_log,
            log_slope=slope,
        )
    return ScalingReport(
        samples=tuple(zip(x.tolist(), F.tolist())),
        fitted_exponent=exp_fit,
        fitted_log_flag=False,
        r_squared=r2_pow,
    )


# ----------------------------------------------------------------------
# global-charge limit on a one-particle state
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ChargeLimitReport:
    monotone: bool
    final_deviation: float
    t_shift_change: float | None = None


def _one_particle_deviation(model, spec, p_center, p_halfwidth, t_shift=0.0,
                            n_p=360):
    """|| P_1 (Q - 1) psi ||^2 / ||psi||^2 for a smooth momentum packet.

    The charge acting inside the one-particle sector has kernel
    (E + E') f~(p - p') g~(E - E') / (2 E' 2 pi); as R grows f~ -> 2 pi delta
    and Q acts as charge 1.  The pair-creation part adds the state-independent
    vacuum-polarization background, which charge_variance measures.
    """
    m = model.mass
    cut = 4.0 * p_halfwidth
    pn, pw = gl_nodes(p_center - cut, p_center + cut, n_p)
    r = ramp("smooth_bump", 0)
    psi = r((np.abs(pn - p_center) - 0.5 * p_halfwidth) / (0.5 * p_halfwidth))
    E = _energy(pn, m)
    mu = pw / (2.0 * np.pi * 2.0 * E)
    dd = pn[:, None] - pn[None, :]
    ft = ftilde_radial(spec, 1, dd.ravel()).reshape(dd.shape)
    gh = np.exp(-0.5 * ((E[:, None] - E[None, :]) * spec.time_width) ** 2)
    if t_shift != 0.0:
        gh = gh * np.exp(1j * (E[:, None] - E[None, :]) * t_shift)
    kernel = (E[:, None] + E[None, :]) * ft * gh
    q_psi = kernel @ (mu * psi)
    norm = float(np.sum(mu * psi**2))
    dev = np.sum(mu * np.abs(q_psi - psi) ** 2)
    return float(np.real(dev)) / norm


def global_charge_limit(model, ramp_width, time_width, radii,
                        p_center=0.5, p_halfwidth=0.25):
    """Deviation of Q(f_R) from the global charge on a one-particle packet,
    as R grows at fixed ramp width, and its change under a time shift.  A
    non-monotone tail is flagged, not fatal; the caller sets the bounds."""
    if model.spacetime_dim != 2:
        raise ConfigurationError("global-charge limit implemented for n = 2")
    radii = [float(R) for R in radii]
    devs = []
    for R in radii:
        spec = PartialChargeSpec(R, ramp_width, time_width)
        devs.append(_one_particle_deviation(model, spec, p_center, p_halfwidth))
    monotone = all(b <= a * (1 + 1e-6) for a, b in zip(devs[:-1], devs[1:]))
    spec_big = PartialChargeSpec(radii[-1], ramp_width, time_width)
    d1 = _one_particle_deviation(model, spec_big, p_center, p_halfwidth,
                                 t_shift=0.5 * time_width)
    return ChargeLimitReport(
        monotone=monotone,
        final_deviation=devs[-1],
        t_shift_change=abs(d1 - devs[-1]),
    )


# ----------------------------------------------------------------------
# reporting: heat-bath vs localization entropy predictions for n > 2
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AreaLawRow:
    spacetime_dim: int
    formula: str
    status: str                    # "verified" | "unverified-by-design"


def area_law_report(spacetime_dim, entropy_fit=None):
    """Rows comparing the log-modified area prediction with the strict area
    law; only the n = 2 log law is backed by lattice data, higher n is
    emitted as an explicitly unverified prediction."""
    rows = []
    if spacetime_dim == 2:
        r2 = entropy_fit.r_squared if entropy_fit is not None else None
        status = "verified" if (r2 is not None and r2 > 0.99) else "unverified-by-design"
        rows.append(AreaLawRow(2, "S ~ ln(1/eps)", status))
    else:
        d = spacetime_dim
        rows.append(AreaLawRow(
            d, f"S ~ (R/dR)^{d - 2} ln(1/eps)", "unverified-by-design"))
        rows.append(AreaLawRow(
            d, f"S ~ (R/dR)^{d - 2}  (strict area, brickwall)", "unverified-by-design"))
    return rows
