"""Chiral U(1) current on a lightray: exact two-point kernels, smeared
fluctuation variances, and the exponential map between the heat-bath line
and the vacuum half-line.

Kernels (normalization N = 1/4 pi^2, level-1 convention; eps -> 0 limit):

    vacuum       <j(u) j(u')> = -N / du^2
    thermal(b)   <j(u) j(u')> = -N (pi/b)^2 / sinh^2(pi du/b)

The energy density is the Wick square T = :j^2:, so its connected two-point
function is 2 K(u,u')^2.  Smeared variances are the double integrals
Var = int int f(u) f(u') Re K du du'; they are evaluated in position space
after reducing to the autocorrelation C(x) = (f star f)(x) and integrating
the singular kernels by parts against C' and C''' (all exact identities).
The kernels left, 1/x, coth(ax) and x - coth(ax)/a, are odd like C' and
C''', which vanish at x = 0, so every integrand is even and smooth there
and is integrated on (0, D] only, by fixed panelized Gauss-Legendre rules
at two orders for an error estimate.  An independent momentum-space (spectral)
route cross-checks it: Var_j = N int_0^inf p w(p) |f~(p)|^2 dp with w = 1
or coth(b p / 2), and Var_T from the self-convolution of the spectral density.
"""

from typing import NamedTuple

import numpy as np

from . import gaussian_core
from .errors import ConfigurationError, DomainError, FitError, NumericError
from .profiles import smooth_bump, smooth_bump_d1, smooth_bump_d2
from .quadrature import gl_nodes, linear_fit, panel_sums, row_blocks

NORMALIZATION = 1.0 / (4.0 * np.pi**2)
_N_IMAGES = 200        # N, the Matsubara images summed before the psi' tail
# relative tolerance between the two by-parts rule orders, per observable
_RTOL = {"current": 1e-6, "energy": 1e-7}
# sites of the vacuum interval whose entropy entropy_relation_check fits
# against ln(1/eps)
CALIBRATION_SITES = 32


# ----------------------------------------------------------------------
# kernels
# ----------------------------------------------------------------------

class _ChiralKernelFields(NamedTuple):
    kind: str                       # "vacuum" | "thermal"
    beta: float | None


class ChiralKernel(_ChiralKernelFields):
    __slots__ = ()

    def __new__(cls, kind, beta=None):
        if kind not in ("vacuum", "thermal"):
            raise ConfigurationError(f"unknown kernel kind {kind!r}")
        if kind == "thermal":
            if beta is None or not (beta > 0):
                raise ConfigurationError("thermal kernel needs beta > 0")
        return super().__new__(cls, kind, beta)


def vacuum_kernel():
    return ChiralKernel("vacuum")


def thermal_kernel(beta):
    return ChiralKernel("thermal", beta=beta)


def current_two_point(kernel, u, uprime):
    """<j(u) j(u')>; accepts complex du for strip evaluations."""
    du = np.asarray(u, complex) - np.asarray(uprime, complex)
    if kernel.kind == "vacuum":
        return -NORMALIZATION / du**2
    a = np.pi / kernel.beta
    return -NORMALIZATION * a**2 / np.sinh(a * du) ** 2


def _trigamma_asymptotic(x):
    """psi'(x) for |x| >= ~30 via the asymptotic series (complex allowed)."""
    ix = 1.0 / x
    ix2 = ix * ix
    return ix * (1.0 + 0.5 * ix + ix2 * (1.0 / 6 - ix2 * (1.0 / 30 - ix2 / 42.0)))


def thermal_image_sum(kernel, u, uprime):
    """Thermal kernel as the sum of vacuum kernels over Matsubara images,

        K_b(z) = sum_n K_vac(z + i n b),

    with the |n| > N tail resummed through psi' so the truncation error is
    O(N^-9) instead of O(1/N).
    """
    if kernel.kind != "thermal":
        raise DomainError("image sum is defined for thermal kernels")
    beta = kernel.beta
    z = np.asarray(u, complex) - np.asarray(uprime, complex)
    n = np.arange(-_N_IMAGES, _N_IMAGES + 1)
    total = np.sum(-NORMALIZATION / (z[..., None] + 1j * beta * n) ** 2, axis=-1)
    w = z / beta
    tail = (NORMALIZATION / beta**2) * (
        _trigamma_asymptotic(_N_IMAGES + 1.0 - 1j * w)
        + _trigamma_asymptotic(_N_IMAGES + 1.0 + 1j * w)
    )
    return total + tail


def kms_periodicity_defect(kernel, du_grid):
    """max relative defect of K(du - i beta) = K(-du) on a complex-du grid
    away from the strip singularity at du = 0."""
    if kernel.kind != "thermal":
        raise DomainError("KMS periodicity applies to thermal kernels")
    du = np.asarray(du_grid, complex)
    if np.any(np.abs(du) < 1e-6 * kernel.beta):
        raise DomainError("du = 0 sits on a strip singularity")
    lhs = current_two_point(kernel, du - 1j * kernel.beta, 0.0)
    rhs = current_two_point(kernel, -du, 0.0)
    return float(np.max(np.abs(lhs - rhs) / np.abs(rhs)))


# ----------------------------------------------------------------------
# smearing functions
# ----------------------------------------------------------------------

class SmearingFn:
    """Plateau test function: 1 on |u-center| <= plateau, smooth-bump ramp
    to 0 over [plateau, plateau+ramp_width].  C-infinity, with closed-form
    derivatives."""

    def __init__(self, center, plateau, ramp_width):
        if plateau <= 0 or ramp_width <= 0:
            raise ConfigurationError("plateau and ramp_width must be positive")
        self.center = float(center)
        self.plateau = float(plateau)
        self.ramp_width = float(ramp_width)
        c, R, w = self.center, self.plateau, self.ramp_width
        self.breakpoints = np.array([c - R - w, c - R, c + R, c + R + w])
        self.support = (self.breakpoints[0], self.breakpoints[-1])

    def _s(self, u):
        return (np.abs(np.asarray(u, float) - self.center) - self.plateau) / self.ramp_width

    def __call__(self, u):
        return smooth_bump(self._s(u))

    def d1(self, u):
        u = np.asarray(u, float)
        x = u - self.center
        return smooth_bump_d1(self._s(u)) * np.sign(x) / self.ramp_width

    def d2(self, u):
        return smooth_bump_d2(self._s(u)) / self.ramp_width**2

    def deriv(self, order):
        return [self, self.d1, self.d2][order]

    def pieces(self, order):
        """Intervals that cover the support of the order-th derivative, each
        resolved by one inner rule: the two ramps and the plateau for f, the
        two ramps for f' and f'', which vanish on the plateau."""
        b = self.breakpoints
        if order == 0:
            return [(b[0], b[1]), (b[1], b[2]), (b[2], b[3])]
        return [(b[0], b[1]), (b[2], b[3])]

    def translated(self, shift):
        return SmearingFn(self.center + shift, self.plateau, self.ramp_width)


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
        if self.w * np.max(np.abs(f.breakpoints)) > np.log(np.finfo(float).max):
            raise ConfigurationError(
                f"beta = {beta:g}: the exp-map image of the smearing support "
                f"overflows a float")
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
        """Intervals that cover the support of the order-th derivative, each
        resolved by one inner rule.  g^(k) lives where f^(k-1) does (g'' =
        (f' + f''/w)/x is 0 on the image of the plateau), so the pieces are
        the exp-images of f's; the map is exponential, so an image can span
        many octaves in x and is subdivided logarithmically."""
        out = []
        for a, b in self.f.pieces(max(order - 1, 0)):
            lo, hi = np.exp(self.w * a), np.exp(self.w * b)
            n_sub = max(1, int(np.ceil(np.log(hi / lo) / 0.4)))
            edges = np.exp(np.linspace(np.log(lo), np.log(hi), n_sub + 1))
            out.extend(zip(edges[:-1], edges[1:]))
        return out


# ----------------------------------------------------------------------
# position-space variance engine
# ----------------------------------------------------------------------

def _corr_derivative(sm, oa, ob, xs, order_inner):
    """int f^(oa)(u) f^(ob)(u - x) du, integrated only over the overlaps of
    the pieces of f^(oa) and f^(ob), where both can be nonzero.  The
    smearing is evaluated on the (outer node, inner node) table in
    row_blocks, which bounds the memory."""
    xs = np.atleast_1d(np.asarray(xs, float))
    out = np.zeros_like(xs)
    fa = sm.deriv(oa)
    fb = sm.deriv(ob)
    tn, tw = gl_nodes(0.0, 1.0, order_inner)
    for a1, a2 in sm.pieces(oa):
        for b1, b2 in sm.pieces(ob):
            lo = np.maximum(a1, b1 + xs)
            hi = np.minimum(a2, b2 + xs)
            ln = hi - lo
            rows = np.flatnonzero(ln > 0)
            for blk in row_blocks(rows.size, order_inner):
                m = rows[blk]
                u = lo[m, None] + ln[m, None] * tn[None, :]
                # rounding can push u - x just outside the piece of f^(ob)
                v = np.clip(u - xs[m, None], b1, b2)
                out[m] += ((fa(u) * fb(v)) @ tw) * ln[m]
    return out


def _outer_edges(sm):
    """Panel edges on (0, D]: exact splits at every breakpoint difference
    (autocorrelation kinks) and every piece length (the scale on which the
    smearing itself varies), with logarithmic caps so no panel spans more
    than about half an octave; the first panel is [0, smallest scale]."""
    b = sm.breakpoints
    scales = np.sort([abs(x - y) for x in b for y in b]
                     + [hi - lo for lo, hi in sm.pieces(0)])
    # drop 0, repeats and every scale within rounding of the one below it,
    # which would only add a sliver panel (np.unique would import numpy.ma)
    scales = scales[np.diff(scales, prepend=0.0) > 1e-12 * scales]
    edges = [scales[0]]
    for lo, hi in zip(scales[:-1], scales[1:]):
        n_sub = max(1, int(np.ceil(np.log(hi / lo) / 0.5)))
        edges.extend(np.exp(np.linspace(np.log(lo), np.log(hi), n_sub + 1))[1:])
    return np.array(edges)


def _integrate_against(sm, corr_fn, kern, order_inner, order_outer):
    """int_{-D}^{D} C K dx of an even integrand, as 2 int_0^D C K dx; C is
    evaluated once on the nodes of every panel, and the panel sums are
    added in panel order."""
    edges = np.concatenate([[0.0], _outer_edges(sm)])
    sums = panel_sums(edges, order_outer, lambda x: corr_fn(x, order_inner) * kern(x))
    return 2.0 * float(sum(sums, 0.0))


def _variance_by_parts(sm, kernel, which, order_inner, order_outer):
    norm = NORMALIZATION

    def C1(x, oi):
        return -_corr_derivative(sm, 0, 1, x, oi)

    def C3(x, oi):
        return _corr_derivative(sm, 1, 2, x, oi)

    if kernel.kind == "vacuum":
        inv = lambda x: 1.0 / x
        if which == "current":
            return -norm * _integrate_against(sm, C1, inv, order_inner, order_outer)
        return (norm**2 / 3.0) * _integrate_against(sm, C3, inv, order_inner, order_outer)

    a = np.pi / kernel.beta
    coth = lambda x: 1.0 / np.tanh(a * x)
    # the current's term, and by parts (C'(0) = C'(D) = 0) the energy's
    # int C'' log|sinh(ax)| term
    v1 = -a * _integrate_against(sm, C1, coth, order_inner, order_outer)
    if which == "current":
        return norm * v1
    k_lin = lambda x: x - coth(x) / a
    v2 = _integrate_against(sm, C3, k_lin, order_inner, order_outer)
    J = (2.0 / (3.0 * a**2)) * v1 - (1.0 / (6.0 * a**2)) * v2
    return 2.0 * (norm * a**2) ** 2 * J


def _variance(sm, kernel, which):
    mid = _variance_by_parts(sm, kernel, which, order_inner=56, order_outer=26)
    hi = _variance_by_parts(sm, kernel, which, order_inner=88, order_outer=42)
    err = abs(hi - mid)
    if err > max(_RTOL[which] * abs(hi), 1e-14):
        raise NumericError(
            f"{which} variance quadrature not converged (estimate {err:.3e})")
    return hi


def smeared_current_variance(f, kernel):
    """Var j(f) = int int f f' Re<j j'>; nonnegative for real f."""
    return _variance(f, kernel, "current")


def energy_variance(f, kernel):
    """Connected Var T(f) with T = :j^2:, i.e. kernel 2 K(u,u')^2."""
    return _variance(f, kernel, "energy")


# ----------------------------------------------------------------------
# spectral (momentum-space) route, used as the independent cross-check
# ----------------------------------------------------------------------

def _fourier_sq(f, ps):
    """|f~(p)|^2 on a grid, f~ = int f(u) exp(-i p u) du."""
    lo, hi = f.support
    pmax = float(np.max(np.abs(ps)))
    n = int(min(6000, max(160, 48 + 1.3 * pmax * (hi - lo) / np.pi)))
    un, uw = gl_nodes(lo, hi, n)
    weights = uw * f.deriv(0)(un)
    # the (momentum, node) phase table is formed and exponentiated in place
    # in row_blocks; each row's sum is the one the whole table would give
    mps = -1j * ps
    ft = np.empty_like(mps)
    for rows in row_blocks(mps.size, n):
        ph = np.multiply.outer(mps[rows], un)
        ft[rows] = np.exp(ph, out=ph) @ weights
    return np.abs(ft) ** 2


def _spectral_pmax(f):
    width = f.breakpoints[1] - f.breakpoints[0]
    return 140.0 / width


def _panel_rule(a, b, n_panels):
    """n_panels Gauss-Legendre panels of 100 nodes each on [a, b]; the nodes
    of one rule with as many nodes cost a dense eigensolve of that order."""
    e = np.linspace(a, b, n_panels + 1)
    return tuple(v.ravel() for v in gl_nodes(e[:-1, None], e[1:, None], 100))


def current_variance_spectral(f, kernel):
    """Var j(f) = N int_0^inf p w(p) |f~(p)|^2 dp, w = 1 or coth(beta p/2)."""
    pn, pw = _panel_rule(0.0, _spectral_pmax(f), 16)
    w = np.ones_like(pn)
    if kernel.kind == "thermal":
        w = 1.0 / np.tanh(kernel.beta * pn / 2.0)
    return float(np.sum(pw * NORMALIZATION * pn * w * _fourier_sq(f, pn)))


def _thermal_density(p, beta, norm):
    x = np.clip(beta * p, -700.0, 700.0)
    small = np.abs(x) < 1e-6
    den = np.where(small, 1.0, 1.0 - np.exp(-x))
    r = np.where(small, 1.0 / beta + p / 2.0, p / den)
    return 2.0 * np.pi * norm * r


def energy_variance_spectral(f, kernel):
    """Var T(f) from the self-convolution of the current spectral density."""
    norm = NORMALIZATION
    pmax = _spectral_pmax(f)
    if kernel.kind == "vacuum":
        pn, pw = _panel_rule(0.0, pmax, 16)
        return float(np.sum(pw * (norm**2 / 3.0) * pn**3 * _fourier_sq(f, pn)))
    beta = kernel.beta
    pn, pw = _panel_rule(-pmax, pmax, 12)
    f2 = _fourier_sq(f, pn)
    qmax = pmax + 80.0 / beta
    qn, qw = _panel_rule(-qmax, qmax, 32)
    r1 = _thermal_density(qn, beta, norm)
    sig = np.empty_like(pn)
    for rows in row_blocks(pn.size, qn.size):
        r2 = _thermal_density(pn[rows, None] - qn[None, :], beta, norm)
        sig[rows] = (r2 * (r1 * qw)[None, :]).sum(axis=1) / (2.0 * np.pi)
    return float(np.sum(pw * 2.0 * f2 * sig / (2.0 * np.pi)))


# ----------------------------------------------------------------------
# exponential map and the Einstein-Jordan comparison
# ----------------------------------------------------------------------

class _IntervalMapFields(NamedTuple):
    beta: float
    source: tuple


class IntervalMap(_IntervalMapFields):
    """x = exp(2 pi u / beta): thermal line -> vacuum half-line.  At
    beta = 2 pi the interval (a, b) lands on (e^a, e^b)."""

    __slots__ = ()

    def __new__(cls, beta, source):
        if not 0.0 < beta < np.inf:
            raise ConfigurationError("beta must be finite and positive")
        a, b = source
        if not a < b:
            raise ConfigurationError("need a < b")
        return super().__new__(cls, beta, source)

    @property
    def image(self):
        a, b = self.source
        w = 2.0 * np.pi / self.beta
        return (float(np.exp(w * a)), float(np.exp(w * b)))

    def apply(self, u):
        return np.exp(2.0 * np.pi * np.asarray(u, float) / self.beta)

    def apply_translated(self, u):
        """apply(u) - 1: the image moved by the vacuum translation
        x -> x - 1, formed as expm1(2 pi u / beta) so that differences of
        nearby images keep their digits as beta grows."""
        w = 2.0 * np.pi / self.beta
        return np.expm1(w * np.asarray(u, float))

    def jacobian(self, u):
        w = 2.0 * np.pi / self.beta
        return w * np.exp(w * np.asarray(u, float))


def verify_isomorphism(imap, grid):
    """max relative defect of

        K_thermal(beta)(u, u') = J(u) J(u') K_vacuum(x(u), x(u'))

    over a grid of (u, u') pairs.  The current has scaling dimension 1, so
    one Jacobian factor transports each leg.  Off the diagonal both kernels
    are regular, so they are compared at eps = 0 directly.  The vacuum
    kernel depends on x - x' only, so it is read at the translated images
    expm1(2 pi u / beta): exp(2 pi u / beta) - exp(2 pi u' / beta) would
    cancel as beta grows (6e-10 at beta = 1e6, 4e-4 at beta = 1e12).
    """
    grid = np.asarray(grid, float)
    worst = []
    for b in row_blocks(len(grid), 2):
        u, up = grid[b].T
        if np.any(np.abs(u - up) < 1e-9):
            raise DomainError("grid point on the diagonal")
        lhs = current_two_point(thermal_kernel(imap.beta), u, up)
        rhs = (imap.jacobian(u) * imap.jacobian(up)
               * current_two_point(vacuum_kernel(), imap.apply_translated(u),
                                   imap.apply_translated(up)))
        worst.append(np.max(np.abs(lhs - rhs) / np.abs(lhs)))
    # np.max, not a running max(): a NaN defect reaches the caller
    return float(np.max(worst))


class EJComparison(NamedTuple):
    thermal_variance: float
    transported_variance: float
    rel_diff: float


def ej_compare(f, beta):
    """Connected energy-density fluctuation of f in the heat-bath state
    versus the same observable transported to the vacuum half-line.

    The Schwarzian (c-number) part of the energy-density transformation
    cancels in connected correlators, so the transported smearing carries
    plain weight-2 Jacobian transport, realized as g(x) = (2pi/beta) x f(u).
    """
    g = TransportedSmearing(f, beta)        # rejects beta before any quadrature
    v_th, v_tr = (energy_variance(h, kernel) for h, kernel in
                  ((f, thermal_kernel(beta)), (g, vacuum_kernel())))
    rel = abs(v_th - v_tr) / max(abs(v_th), abs(v_tr))
    return EJComparison(v_th, v_tr, rel)


# ----------------------------------------------------------------------
# entropy relation: heat-bath volume law vs localization log law
# ----------------------------------------------------------------------

class EntropyRelationReport(NamedTuple):
    thermal_entropies: tuple        # S of [0, L) in the Gibbs state, per L
    thermal_slope: float
    thermal_r2: float
    localization_r2: float
    calibration_ratio: float


def entropy_relation_check(L_values, eps_values, n_sites, beta):
    """Fit thermal entropy ~ s1 * L (heat bath, extensive) and vacuum-interval
    entropy ~ s2 * ln(1/eps) (localization), and report the calibration ratio
    s1 / (2 pi s2) implied by matching ln(1/eps) to 2 pi L.  The thermal
    entropies are returned with their fit, so a caller reads them instead of
    rebuilding the Gibbs state.

    Coefficients and both R^2 are reported, not asserted: the caller checks
    the fits.
    """
    L_values = [int(L) for L in L_values]
    if len(L_values) < 4 or len(eps_values) < 4:
        raise FitError("need at least 4 thermal lengths and 4 attenuation values")
    lat = gaussian_core.HarmonicLattice(
        n_sites=n_sites, mass=0.0, ir_regulator=1e-3 / n_sites
    )
    s_th = gaussian_core.thermal_interval_entropies(lat, beta, L_values)
    s1, _, r2_th = linear_fit(np.asarray(L_values, float), np.asarray(s_th))

    # one interval length: the scan's fit against ln(L/eps) is the fit
    # against ln(1/eps), shifted by the constant ln L
    _, loc = gaussian_core.entropy_scan(lat, [CALIBRATION_SITES], eps_values)
    return EntropyRelationReport(
        thermal_entropies=tuple(s_th),
        thermal_slope=s1,
        thermal_r2=r2_th,
        localization_r2=loc.r_squared,
        calibration_ratio=s1 / (2.0 * np.pi * loc.slope),
    )
