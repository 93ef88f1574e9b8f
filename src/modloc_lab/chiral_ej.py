"""Chiral U(1) current on a lightray: exact two-point kernels, smeared
fluctuation variances, and the exponential map between the heat-bath line
and the vacuum half-line.

Kernels (normalization N = 1/4 pi^2, level-1 convention):

    vacuum       <j(u) j(u')> = -N / (du - i eps)^2
    thermal(b)   <j(u) j(u')> = -N (pi/b)^2 / sinh^2(pi (du - i eps)/b)

The energy density is the Wick square T = :j^2:, so its connected two-point
function is 2 K(u,u')^2.  Smeared variances are the double integrals
Var = int int f(u) f(u') Re K du du'; they are evaluated in position space
after reducing to the autocorrelation C(x) = (f star f)(x) and integrating
the singular kernels by parts against C', C'', C''' (all exact identities),
with fixed panelized Gauss-Legendre rules at two orders for an error
estimate.  An independent momentum-space (spectral) route is provided for
cross-checks: Var_j = N int_0^inf p w(p) |f~(p)|^2 dp with w = 1 or
coth(b p / 2), and Var_T from the self-convolution of the spectral density.
"""

from dataclasses import dataclass, field

import numpy as np

from . import gaussian_core
from .errors import ConfigurationError, DomainError, FitError, NumericError
from .profiles import ramp
from .quadrature import gauss_legendre, gl_nodes, linear_fit

DEFAULT_NORMALIZATION = 1.0 / (4.0 * np.pi**2)


# ----------------------------------------------------------------------
# kernels
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ChiralKernel:
    kind: str                       # "vacuum" | "thermal"
    beta: float | None = None
    i_epsilon: float = 1e-8
    normalization: float = DEFAULT_NORMALIZATION

    def __post_init__(self):
        if self.kind not in ("vacuum", "thermal"):
            raise ConfigurationError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "thermal":
            if self.beta is None or not (self.beta > 0):
                raise ConfigurationError("thermal kernel needs beta > 0")
        if not (self.i_epsilon > 0):
            raise ConfigurationError("i_epsilon must be positive")


def vacuum_kernel(i_epsilon=1e-8, normalization=DEFAULT_NORMALIZATION):
    return ChiralKernel("vacuum", i_epsilon=i_epsilon, normalization=normalization)


def thermal_kernel(beta, i_epsilon=1e-8, normalization=DEFAULT_NORMALIZATION):
    return ChiralKernel("thermal", beta=beta, i_epsilon=i_epsilon,
                        normalization=normalization)


def current_two_point(kernel, u, uprime):
    """<j(u) j(u')>; accepts complex du for strip evaluations."""
    du = np.asarray(u, complex) - np.asarray(uprime, complex)
    z = du - 1j * kernel.i_epsilon
    if kernel.kind == "vacuum":
        return -kernel.normalization / z**2
    a = np.pi / kernel.beta
    return -kernel.normalization * a**2 / np.sinh(a * z) ** 2


def _trigamma_asymptotic(x):
    """psi'(x) for |x| >= ~30 via the asymptotic series (complex allowed)."""
    ix = 1.0 / x
    ix2 = ix * ix
    return ix * (1.0 + 0.5 * ix + ix2 * (1.0 / 6 - ix2 * (1.0 / 30 - ix2 / 42.0)))


def thermal_image_sum(kernel, u, uprime, n_images=200):
    """Thermal kernel as the sum of vacuum kernels over Matsubara images,

        K_b(z) = sum_n K_vac(z + i n b),

    with the |n| > N tail resummed through psi' so the truncation error is
    O(N^-9) instead of O(1/N).
    """
    if kernel.kind != "thermal":
        raise DomainError("image sum is defined for thermal kernels")
    beta = kernel.beta
    du = np.asarray(u, complex) - np.asarray(uprime, complex)
    z = du - 1j * kernel.i_epsilon
    n = np.arange(-n_images, n_images + 1)
    total = np.sum(-kernel.normalization / (z[..., None] + 1j * beta * n) ** 2, axis=-1)
    w = z / beta
    tail = (kernel.normalization / beta**2) * (
        _trigamma_asymptotic(n_images + 1.0 - 1j * w)
        + _trigamma_asymptotic(n_images + 1.0 + 1j * w)
    )
    return total + tail


def kms_periodicity_defect(kernel, du_grid):
    """max relative defect of K(du - i beta) = K(-du) on a complex-du grid."""
    if kernel.kind != "thermal":
        raise DomainError("KMS periodicity applies to thermal kernels")
    du = np.asarray(du_grid, complex)
    lhs = current_two_point(kernel, du - 1j * kernel.beta, 0.0)
    rhs = current_two_point(kernel, -du, 0.0)
    return float(np.max(np.abs(lhs - rhs) / np.abs(rhs)))


# ----------------------------------------------------------------------
# smearing functions
# ----------------------------------------------------------------------

class SmearingFn:
    """Plateau test function: 1 on |u-center| <= plateau, ramp to 0 over
    [plateau, plateau+ramp_width].  C-infinity for the smooth_bump profile,
    C^1 for raised_cosine; derivatives are closed-form."""

    def __init__(self, center, plateau, ramp_width, profile="smooth_bump"):
        if plateau <= 0 or ramp_width <= 0:
            raise ConfigurationError("plateau and ramp_width must be positive")
        self.center = float(center)
        self.plateau = float(plateau)
        self.ramp_width = float(ramp_width)
        self.profile = profile
        self._r = ramp(profile, 0)
        self._r1 = ramp(profile, 1)
        self._r2 = ramp(profile, 2)
        c, R, w = self.center, self.plateau, self.ramp_width
        self.breakpoints = np.array([c - R - w, c - R, c + R, c + R + w])
        self.support = (self.breakpoints[0], self.breakpoints[-1])

    def _s(self, u):
        return (np.abs(np.asarray(u, float) - self.center) - self.plateau) / self.ramp_width

    def __call__(self, u):
        return self._r(self._s(u))

    def d1(self, u):
        u = np.asarray(u, float)
        x = u - self.center
        return self._r1(self._s(u)) * np.sign(x) / self.ramp_width

    def d2(self, u):
        return self._r2(self._s(u)) / self.ramp_width**2

    def deriv(self, order):
        return [self, self.d1, self.d2][order]

    def pieces(self, order):
        b = self.breakpoints
        if order == 0:
            return [(b[0], b[1]), (b[1], b[2]), (b[2], b[3])]
        return [(b[0], b[1]), (b[2], b[3])]

    def scaled(self, amplitude):
        return _ScaledSmearing(self, amplitude)

    def translated(self, shift):
        return SmearingFn(self.center + shift, self.plateau, self.ramp_width,
                          self.profile)


class _ScaledSmearing:
    """lambda * f, sharing f's piece structure."""

    def __init__(self, base, amplitude):
        self.base = base
        self.amplitude = float(amplitude)
        self.breakpoints = base.breakpoints
        self.support = base.support

    def __call__(self, u):
        return self.amplitude * self.base(u)

    def d1(self, u):
        return self.amplitude * self.base.d1(u)

    def d2(self, u):
        return self.amplitude * self.base.d2(u)

    def deriv(self, order):
        return [self, self.d1, self.d2][order]

    def pieces(self, order):
        return self.base.pieces(order)


class TransportedSmearing:
    """Image of a lightray smearing under x = exp(2 pi u / beta) with one
    extra Jacobian weight, so that smearing the vacuum energy density with
    g reproduces the thermal-line energy smearing with f:

        g(x) = (2 pi / beta) x f(u(x)),  u(x) = (beta / 2 pi) ln x.
    """

    def __init__(self, f, beta):
        if beta <= 0:
            raise ConfigurationError("beta must be positive")
        self.f = f
        self.beta = float(beta)
        self.w = 2.0 * np.pi / self.beta
        self.breakpoints = np.exp(self.w * f.breakpoints)
        self.support = (self.breakpoints[0], self.breakpoints[-1])

    def _u(self, x):
        return np.log(np.asarray(x, float)) / self.w

    def value(self, x):
        u = self._u(x)
        return self.w * np.asarray(x, float) * self.f(u)

    def d1(self, x):
        u = self._u(x)
        return self.w * self.f(u) + self.f.d1(u)

    def d2(self, x):
        u = self._u(x)
        return (self.f.d1(u) + self.f.d2(u) / self.w) / np.asarray(x, float)

    def deriv(self, order):
        return [self.value, self.d1, self.d2][order]

    def pieces(self, order):
        # the map is exponential, so a piece can span many octaves in x;
        # subdivide logarithmically to keep the inner rule resolved
        out = []
        b = self.breakpoints
        for lo, hi in ((b[0], b[1]), (b[1], b[2]), (b[2], b[3])):
            n_sub = max(1, int(np.ceil(np.log(hi / lo) / 0.4)))
            edges = np.exp(np.linspace(np.log(lo), np.log(hi), n_sub + 1))
            out.extend(zip(edges[:-1], edges[1:]))
        return out


# ----------------------------------------------------------------------
# position-space variance engine
# ----------------------------------------------------------------------

def _corr_derivative(sm, oa, ob, xs, order_inner):
    """int f^(oa)(u) f^(ob)(u - x) du on the exact piece overlaps."""
    xs = np.atleast_1d(np.asarray(xs, float))
    out = np.zeros_like(xs)
    fa = sm.deriv(oa)
    fb = sm.deriv(ob)
    tn, tw = gauss_legendre(order_inner)
    tn = 0.5 * (tn + 1.0)
    tw = 0.5 * tw
    for a1, a2 in sm.pieces(oa):
        for b1, b2 in sm.pieces(ob):
            lo = np.maximum(a1, b1 + xs)
            hi = np.minimum(a2, b2 + xs)
            ln = hi - lo
            m = ln > 0
            if not np.any(m):
                continue
            u = lo[m, None] + ln[m, None] * tn[None, :]
            out[m] += ((fa(u) * fb(u - xs[m, None])) @ tw) * ln[m]
    return out


def _outer_edges(sm, n_graded=46):
    """Panel edges on (0, D]: graded binary refinement below the smallest
    breakpoint separation (kernel near-singularity), exact splits at every
    breakpoint difference (autocorrelation kinks), and logarithmic caps so
    no panel spans more than about half an octave."""
    b = sm.breakpoints
    diffs = sorted({abs(x - y) for x in b for y in b if abs(x - y) > 1e-13 * abs(b[-1] - b[0])})
    d_min = diffs[0]
    edges = [d_min * 0.5**k for k in range(n_graded, 0, -1)]
    for lo, hi in zip(diffs[:-1], diffs[1:]):
        n_sub = max(1, int(np.ceil(np.log(hi / lo) / 0.5)))
        edges.extend(np.exp(np.linspace(np.log(lo), np.log(hi), n_sub + 1))[1:])
    return np.array(sorted(set(edges)))


def _integrate_against(sm, corr_fn, kern, order_inner, order_outer):
    edges = _outer_edges(sm)
    total = 0.0
    starts = np.concatenate([[edges[0] * 0.5**6], edges[:-1]])
    for a, b in zip(starts, edges):
        for lo, hi in ((a, b), (-b, -a)):
            xn, xw = gl_nodes(lo, hi, order_outer)
            total += float(np.sum(xw * corr_fn(xn, order_inner) * kern(xn)))
    return total


def _variance_by_parts(sm, kernel, which, order_inner, order_outer):
    eps = kernel.i_epsilon
    norm = kernel.normalization

    def C1(x, oi):
        return -_corr_derivative(sm, 0, 1, x, oi)

    def C2(x, oi):
        return -_corr_derivative(sm, 1, 1, x, oi)

    def C3(x, oi):
        return _corr_derivative(sm, 1, 2, x, oi)

    if kernel.kind == "vacuum":
        inv = lambda x: np.real(1.0 / (x - 1j * eps))
        if which == "current":
            return -norm * _integrate_against(sm, C1, inv, order_inner, order_outer)
        return (norm**2 / 3.0) * _integrate_against(sm, C3, inv, order_inner, order_outer)

    a = np.pi / kernel.beta
    if which == "current":
        kern = lambda x: np.real(1.0 / np.tanh(a * (x - 1j * eps)))
        return -norm * a * _integrate_against(sm, C1, kern, order_inner, order_outer)

    k_log = lambda x: np.log(np.abs(np.sinh(a * (x - 1j * eps))))
    k_lin = lambda x: x - np.real(1.0 / np.tanh(a * (x - 1j * eps))) / a
    v1 = _integrate_against(sm, C2, k_log, order_inner, order_outer)
    v2 = _integrate_against(sm, C3, k_lin, order_inner, order_outer)
    J = (2.0 / (3.0 * a**2)) * v1 - (1.0 / (6.0 * a**2)) * v2
    return 2.0 * (norm * a**2) ** 2 * J


def _variance(sm, kernel, which, rtol):
    mid = _variance_by_parts(sm, kernel, which, order_inner=56, order_outer=26)
    hi = _variance_by_parts(sm, kernel, which, order_inner=88, order_outer=42)
    err = abs(hi - mid)
    scale = max(abs(hi), 1e-300)
    if err > max(rtol * scale, 1e-14):
        raise NumericError(
            f"{which} variance quadrature not converged (estimate {err:.3e})",
            achieved=hi,
        )
    return hi


def smeared_current_variance(f, kernel, rtol=1e-6):
    """Var j(f) = int int f f' Re<j j'>; nonnegative for real f."""
    return _variance(f, kernel, "current", rtol)


def energy_variance(f, kernel, rtol=1e-6):
    """Connected Var T(f) with T = :j^2:, i.e. kernel 2 K(u,u')^2."""
    return _variance(f, kernel, "energy", rtol)


# ----------------------------------------------------------------------
# spectral (momentum-space) route, used as the independent cross-check
# ----------------------------------------------------------------------

def _fourier_sq(f, ps):
    """|f~(p)|^2 on a grid, f~ = int f(u) exp(-i p u) du."""
    lo, hi = f.support
    pmax = float(np.max(np.abs(ps)))
    n = int(min(6000, max(160, 48 + 1.3 * pmax * (hi - lo) / np.pi)))
    un, uw = gl_nodes(lo, hi, n)
    fv = f.deriv(0)(un)
    out = np.empty(len(ps))
    chunk = 4000
    for i in range(0, len(ps), chunk):
        ph = np.exp(-1j * np.outer(ps[i:i + chunk], un))
        out[i:i + chunk] = np.abs(ph @ (uw * fv)) ** 2
    return out


def _spectral_pmax(f):
    width = f.breakpoints[1] - f.breakpoints[0]
    return 140.0 / width


def current_variance_spectral(f, kernel):
    """Var j(f) = N int_0^inf p w(p) |f~(p)|^2 dp, w = 1 or coth(beta p/2)."""
    pmax = _spectral_pmax(f)
    pn, pw = gl_nodes(1e-12, pmax, 1600)
    w = np.ones_like(pn)
    if kernel.kind == "thermal":
        w = 1.0 / np.tanh(kernel.beta * pn / 2.0)
    return float(np.sum(pw * kernel.normalization * pn * w * _fourier_sq(f, pn)))


def _thermal_density(p, beta, norm):
    x = np.clip(beta * p, -700.0, 700.0)
    small = np.abs(x) < 1e-6
    den = np.where(small, 1.0, 1.0 - np.exp(-x))
    r = np.where(small, 1.0 / beta + p / 2.0, p / den)
    return 2.0 * np.pi * norm * r


def energy_variance_spectral(f, kernel):
    """Var T(f) from the self-convolution of the current spectral density."""
    norm = kernel.normalization
    pmax = _spectral_pmax(f)
    if kernel.kind == "vacuum":
        pn, pw = gl_nodes(1e-12, pmax, 1600)
        return float(np.sum(pw * (norm**2 / 3.0) * pn**3 * _fourier_sq(f, pn)))
    beta = kernel.beta
    pn, pw = gl_nodes(-pmax, pmax, 1200)
    f2 = _fourier_sq(f, pn)
    qmax = pmax + 80.0 / beta
    qn, qw = gl_nodes(-qmax, qmax, 3200)
    r1 = _thermal_density(qn, beta, norm)
    sig = np.empty_like(pn)
    chunk = 200
    for i in range(0, len(pn), chunk):
        r2 = _thermal_density(pn[i:i + chunk, None] - qn[None, :], beta, norm)
        sig[i:i + chunk] = (r2 * (r1 * qw)[None, :]).sum(axis=1) / (2.0 * np.pi)
    return float(np.sum(pw * 2.0 * f2 * sig / (2.0 * np.pi)))


# ----------------------------------------------------------------------
# exponential map and the Einstein-Jordan comparison
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class IntervalMap:
    """x = exp(2 pi u / beta): thermal line -> vacuum half-line.  At
    beta = 2 pi the interval (a, b) lands on (e^a, e^b)."""

    beta: float
    source: tuple
    image: tuple = field(init=False)

    def __post_init__(self):
        a, b = self.source
        if not a < b:
            raise ConfigurationError("need a < b")
        w = 2.0 * np.pi / self.beta
        object.__setattr__(self, "image", (float(np.exp(w * a)), float(np.exp(w * b))))

    def apply(self, u):
        return np.exp(2.0 * np.pi * np.asarray(u, float) / self.beta)

    def jacobian(self, u):
        w = 2.0 * np.pi / self.beta
        return w * np.exp(w * np.asarray(u, float))


def exp_map(beta, a, b):
    if beta <= 0:
        raise ConfigurationError("beta must be positive")
    return IntervalMap(beta=float(beta), source=(float(a), float(b)))


def verify_isomorphism(imap, grid, min_separation=1e-9):
    """max relative defect of

        K_thermal(beta)(u, u') = J(u) J(u') K_vacuum(x(u), x(u'))

    over a grid of (u, u') pairs.  The current has scaling dimension 1, so
    one Jacobian factor transports each leg.  Kernels are evaluated in their
    analytic eps -> 0 limit (i_epsilon = 1e-300, far below rounding).
    """
    th = thermal_kernel(imap.beta, i_epsilon=1e-300)
    vac = vacuum_kernel(i_epsilon=1e-300)
    worst = 0.0
    for u, up in grid:
        if abs(u - up) < min_separation:
            raise DomainError("grid point on the diagonal")
        lhs = current_two_point(th, u, up)
        rhs = (imap.jacobian(u) * imap.jacobian(up)
               * current_two_point(vac, imap.apply(u), imap.apply(up)))
        worst = max(worst, float(abs(lhs - rhs) / abs(lhs)))
    return worst


@dataclass(frozen=True)
class EJComparison:
    thermal_variance: float
    transported_variance: float
    rel_diff: float


def ej_compare(f, beta, rtol=1e-7):
    """Connected energy-density fluctuation of f in the heat-bath state
    versus the same observable transported to the vacuum half-line.

    The Schwarzian (c-number) part of the energy-density transformation
    cancels in connected correlators, so the transported smearing carries
    plain weight-2 Jacobian transport, realized as g(x) = (2pi/beta) x f(u).
    """
    v_th = energy_variance(f, thermal_kernel(beta), rtol=rtol)
    v_tr = energy_variance(TransportedSmearing(f, beta), vacuum_kernel(), rtol=rtol)
    scale = max(abs(v_th), abs(v_tr))
    rel = 0.0 if scale == 0.0 else abs(v_th - v_tr) / scale
    return EJComparison(v_th, v_tr, rel)


# ----------------------------------------------------------------------
# entropy relation: heat-bath volume law vs localization log law
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class EntropyRelationReport:
    thermal_slope: float
    thermal_r2: float
    localization_r2: float
    calibration_ratio: float
    thermal_slope_per_chirality: float


def entropy_relation_check(L_values, eps_values, n_sites=1200, beta=2.0 * np.pi,
                           interval_sites=32, r2_min=0.99):
    """Fit thermal entropy ~ s1 * L (heat bath, extensive) and vacuum-interval
    entropy ~ s2 * ln(1/eps) (localization), and report the calibration ratio
    s1 / (2 pi s2) implied by matching ln(1/eps) to 2 pi L.

    The chain carries both lightray chiralities; the per-chirality slope is
    the emitted half.  Coefficients are reported, not asserted against any
    closed-form value.
    """
    L_values = [int(L) for L in L_values]
    if len(L_values) < 4 or len(eps_values) < 4:
        raise FitError("need at least 4 thermal lengths and 4 attenuation values")
    lat = gaussian_core.HarmonicLattice(
        n_sites=n_sites, mass=0.0, ir_regulator=1e-3 / n_sites
    )
    s_th = gaussian_core.thermal_interval_entropies(lat, beta, L_values)
    s1, _, r2_th = linear_fit(np.asarray(L_values, float), np.asarray(s_th))

    region = [gaussian_core.Region.interval(0, interval_sites)]
    rows = gaussian_core.entropy_scan(lat, region, eps_values)
    x = np.log([1.0 / r.attenuation for r in rows])
    y = np.array([r.entropy for r in rows])
    s2, _, r2_loc = linear_fit(x, y)

    if r2_th < r2_min or r2_loc < r2_min:
        raise FitError(
            f"entropy fits degenerate (thermal R2={r2_th:.4f}, localization R2={r2_loc:.4f})"
        )
    return EntropyRelationReport(
        thermal_slope=s1,
        thermal_r2=r2_th,
        localization_r2=r2_loc,
        calibration_ratio=s1 / (2.0 * np.pi * s2),
        thermal_slope_per_chirality=0.5 * s1,
    )
