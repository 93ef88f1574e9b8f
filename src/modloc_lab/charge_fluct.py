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
phase-space integral: in rapidity for D = 1, and for D = 2, 3 in elliptic
coordinates about the foci 0 and k over the ellipse outside which g~ is
negligible.  The k integral oscillates on the scale pi/R up to
kmax ~ 40/dR.  In every D it is handled by small-k panels plus a Filon
rule on the envelope A, B of f~ = A sin kR + B cos kR, whose cost does not
grow with R/dR.  The D = 2 transform takes J0 and J1 from a numpy routine
below; its envelope comes from their Hankel expansions.

An independent lattice mode-sum oracle (D = 1, periodic chain) checks the
continuum quadrature at the few-percent level.
"""

from dataclasses import dataclass
from math import factorial

import numpy as np

from .errors import ConfigurationError, FitError, NumericError
from .profiles import raised_cosine, smooth_bump
from .quadrature import filon_cos_sin, gl_nodes, linear_fit, panel_sums

_ECUT_SIGMAS = 5.7     # |g~|^2 = exp(-(E T)^2) < 1e-14 beyond E = 5.7/T
_KFAC = 40.0           # ramp cutoff k <= KFAC / dR
_ROWS = 128            # k values (table rows) per block of a 2-d table


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
    """Geometry of the partial charge: plateau radius R, raised-cosine
    boundary ramp dR (the attenuation thickness), Gaussian time width T.  The
    amplitude rescales f and exists for bilinearity checks (F scales as
    amplitude^2)."""

    radius: float
    ramp_width: float
    time_width: float
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

def _pair_integral_1d(ks, m, T):
    """D=1 on a 1-d array of k, one 320-node rule per k (a row of a table
    formed _ROWS rows at a time); rapidity substitution p = m sinh(y)
    resolves the 1/E spikes."""
    ks = np.asarray(ks, float)
    out = np.empty_like(ks)
    for i in range(0, ks.size, _ROWS):
        k = ks[i:i + _ROWS, None]
        y_hi = np.arcsinh(k / (2.0 * m))
        y_lo = -np.arcsinh((_ECUT_SIGMAS / T + k) / m)
        yn, yw = gl_nodes(y_lo, y_hi, 320)
        p = m * np.sinh(yn)
        ep = m * np.cosh(yn)
        eq = _energy(k - p, m)
        val = (ep - eq) ** 2 / (4.0 * eq) * _g2(ep + eq, T)
        out[i:i + _ROWS] = 2.0 * np.sum(yw * val, axis=1)
    return out


def _pair_integral(D, k, m, T):
    """D = 2 or 3; elliptic coordinates (a, b) about the foci 0 and k.  With
    c = k/2, |p| = c (cosh a + cos b), |k - p| = c (cosh a - cos b) and the
    half-plane b in [0, pi] has area element c^2 (sinh^2 a + sin^2 b) da db;
    D = 2 doubles it, D = 3 turns it about the k axis (2 pi c sinh a sin b).
    E_p + E_q >= sqrt((|p| + |k - p|)^2 + 4 m^2), so outside the ellipse
    |p| + |k - p| = sqrt(k^2 + (5.7/T)^2), where sinh a = 5.7 / (T k),
    g~^2 is below e^{-5.7^2} of its largest value: the rule covers that
    ellipse at every k.  The area element vanishes at the foci, where 1/E
    peaks at small mass."""
    c = 0.5 * k
    an, aw = gl_nodes(0.0, np.arcsinh(_ECUT_SIGMAS / (T * k)), 64)
    bn, bw = gl_nodes(0.0, np.pi, 48)
    ca = c * np.cosh(an)[:, None]
    sa = c * np.sinh(an)[:, None]
    cb = c * np.cos(bn)
    sin_b = np.sin(bn)
    ep = _energy(ca + cb, m)
    eq = _energy(ca - cb, m)
    es = ep + eq
    # E_p - E_q = (|p|^2 - |k - p|^2) / (E_p + E_q), free of cancellation
    val = (4.0 * ca * cb / es) ** 2 / (4.0 * ep * eq) * _g2(es, T)
    area = sa * sa + (c * sin_b) ** 2
    jac = 2.0 * area if D == 2 else 2.0 * np.pi * sa * sin_b * area
    return float(np.sum(aw[:, None] * bw * jac * val))


class _PairKernel:
    """log-log interpolant of I_D(k) on a fixed grid; below the grid the
    exact leading behavior I ~ k^2 extrapolates.  The grid starts no lower
    than the smallest k whose square is a normal float: below about 1e-161
    (k - p)^2, m^2 and (E_p - E_q)^2 all underflow and the integrand is 0/0."""

    def __init__(self, D, m, T, kmax):
        k_lo = max(1e-3 * min(m, 1.0 / kmax), np.sqrt(np.finfo(float).tiny))
        kg = np.exp(np.linspace(np.log(k_lo), np.log(kmax) + 0.02, 320))
        if D == 1:
            vals = _pair_integral_1d(kg, m, T)
        else:
            # per k: each rule spans its own ellipse, 64 x 48 points
            vals = np.array([_pair_integral(D, k, m, T) for k in kg])
        self._lnk = np.log(kg)
        self._lnI = np.log(np.maximum(vals, 1e-300))
        if not np.all(np.isfinite(self._lnI)):
            raise NumericError(f"pair kernel I_{D}(k) at mass {m:g} is not finite")
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
# Bessel functions J0, J1 of the D = 2 transform
# ----------------------------------------------------------------------

_MILLER_START = 80     # backward recurrence start for 2 <= x < 30
_HANKEL_FROM = 30.0    # Hankel's expansion from here on,
_HANKEL_PAIRS = 10     # with this many terms each in P and Q
# power series of J_nu(x) (x/2)^-nu in y = x^2/4, 16 terms: rounding for x < 2
_SERIES = {nu: [(-1) ** m / (factorial(m) * factorial(m + nu)) for m in range(16)]
           for nu in (0, 1)}


def _hankel_coefficients(nu):
    """Coefficients of P_nu in 1/x^2 and of Q_nu x in 1/x^2 (A&S 9.2.9-10):
    a_k = prod_{j <= k} (4 nu^2 - (2j - 1)^2) / (k! 8^k), with signs."""
    a = [1.0]
    for k in range(1, 2 * _HANKEL_PAIRS):
        a.append(a[-1] * (4 * nu * nu - (2 * k - 1) ** 2) / (8.0 * k))
    return ([(-1) ** j * a[2 * j] for j in range(_HANKEL_PAIRS)],
            [(-1) ** j * a[2 * j + 1] for j in range(_HANKEL_PAIRS)])


_HANKEL = {nu: _hankel_coefficients(nu) for nu in (0, 1)}


def _horner(coefs, y):
    out = np.full_like(y, coefs[-1])
    for c in coefs[-2::-1]:
        out = out * y + c
    return out


def _hankel_pq(nu, x):
    """P_nu(x), Q_nu(x) of J_nu(x) = sqrt(2/(pi x)) (P cos chi - Q sin chi),
    chi = x - (nu/2 + 1/4) pi (A&S 9.2.5); smooth in x, and exact to
    rounding for x >= 30."""
    p, q = _HANKEL[nu]
    z = 1.0 / (x * x)
    return _horner(p, z), _horner(q, z) / x


def _bessel_j(nu, x):
    """J_nu(x) for nu = 0, 1 and x >= 0, to about 1e-15 absolute: a power
    series below 2, Miller's backward recurrence from n = 80 (normalized by
    J0 + 2 sum J_2k = 1) below 30, Hankel's expansion above.  Each branch
    sees only its own x, so none divides by 0 or overflows."""
    x = np.asarray(x, float)
    out = np.empty_like(x)
    lo, hi = x < 2.0, x >= _HANKEL_FROM
    mid = ~(lo | hi)
    xs = x[lo]
    out[lo] = (0.5 * xs) ** nu * _horner(_SERIES[nu], 0.25 * xs * xs)
    xs = x[mid]
    j_up, j = np.zeros_like(xs), np.ones_like(xs)      # J_{n+1}, J_n
    even = np.zeros_like(xs)
    for n in range(_MILLER_START, 0, -1):
        j_up, j = j, 2.0 * n / xs * j - j_up
        if n % 2:
            even += j
    out[mid] = (j_up if nu else j) / (2.0 * even - j)
    xs = x[hi]
    P, Q = _hankel_pq(nu, xs)
    c, s = np.cos(xs), np.sin(xs)
    cos_chi, sin_chi = c + s, s - c            # sqrt(2) (cos, sin)(x - pi/4)
    if nu:
        cos_chi, sin_chi = sin_chi, -cos_chi   # chi moved by -pi/2
    out[hi] = np.sqrt(1.0 / (np.pi * xs)) * (P * cos_chi - Q * sin_chi)
    return out


# ----------------------------------------------------------------------
# radial Fourier transforms of the plateau profile
# ----------------------------------------------------------------------

def _ramp_rule(spec, kmax):
    """Nodes s on [0, dR] and weights w_s rho(s) resolving cos(k s) up to
    |k| = kmax; rho the unit ramp."""
    dR = spec.ramp_width
    n = int(max(32, min(360, 16 + 1.4 * kmax * dR)))
    sn, sw = gl_nodes(0.0, dR, n)
    return sn, sw * raised_cosine(sn / dR)


def _ramp_moments(spec, ks, weight_r=False):
    """(C, S) with C = int_0^dR rho(s) w(s) cos(k s) ds and S the sine
    moment; rho the unit ramp, w = 1 or (R + s)."""
    ks = np.atleast_1d(ks)
    sn, base = _ramp_rule(spec, np.max(np.abs(ks)))
    if weight_r:
        base = base * (spec.radius + sn)
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


def _envelope_2d(spec, ks):
    """f~(k) = A sin(kR) + B cos(kR) for the 2-d radial transform, kR >= 30.
    Hankel's expansion of J1(kR) in the disc term 2 pi R J1(kR) / k, and of
    J0(k (R + s)) in the ramp term 2 pi sum_s w_s rho_s (R + s) J0(k (R + s)),
    split by angle addition on kR into P, Q and the phases of k s, none of
    which oscillates on the scale 1/R.  The (k, s) tables are formed
    _ROWS values of k at a time."""
    R = spec.radius
    k = np.asarray(ks, float)
    P, Q = _hankel_pq(1, k * R)
    disc = 2.0 * np.pi * R * np.sqrt(1.0 / (np.pi * k * R)) / k
    A, B = disc * (P + Q), disc * (Q - P)
    sn, base = _ramp_rule(spec, np.max(k))
    w = 2.0 * np.pi * base * (R + sn)
    for i in range(0, k.size, _ROWS):
        kb = k[i:i + _ROWS]
        xr = np.outer(kb, R + sn)
        P, Q = _hankel_pq(0, xr)
        amp = np.sqrt(1.0 / (np.pi * xr))
        U, V = amp * (P + Q), amp * (P - Q)
        ph = np.outer(kb, sn)
        c, s = np.cos(ph), np.sin(ph)
        A[i:i + _ROWS] += (V * c - U * s) @ w
        B[i:i + _ROWS] += (U * c + V * s) @ w
    return spec.amplitude * A, spec.amplitude * B


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
    out = 2.0 * np.pi * R * _bessel_j(1, kk * R) / kk
    sn, base = _ramp_rule(spec, np.max(kk))
    rn = R + sn
    out = out + 2.0 * np.pi * (_bessel_j(0, np.outer(kk, rn)) @ (base * rn))
    return spec.amplitude * out


def _ftilde_1d_differences(spec, p):
    """The matrix f~(p_i - p_j) in D = 1, equal to ftilde_radial(spec, 1,
    p_i - p_j), yielded as (rows, block) for blocks of _ROWS rows i.
    f~(k) = 2 sin(kR)/k + 2 sum_s w_s rho_s cos(k (R + s)), and angle
    addition turns the ramp sum into C^T W C + S^T W S with
    C = cos(p (R + s)), S = sin(p (R + s)): two GEMMs over the ramp nodes
    instead of one cosine per matrix entry and node.  C and S are formed
    once, for every block.  The largest |p_i - p_j| is max(p) - min(p), as
    subtraction rounds monotonically, so the ramp rule is the one the
    whole matrix would choose."""
    sn, base = _ramp_rule(spec, max(np.max(p) - np.min(p), 1e-14))
    x = np.outer(spec.radius + sn, p)
    C = np.cos(x)
    S = np.sin(x, out=x)
    for i in range(0, p.size, _ROWS):
        rows = slice(i, i + _ROWS)
        dd = p[rows, None] - p[None, :]
        kk = np.where(np.abs(dd) < 1e-14, 1e-14, np.abs(dd))
        ramp_part = (C.T[rows] * base) @ C + (S.T[rows] * base) @ S
        yield rows, spec.amplitude * 2.0 * (np.sin(kk * spec.radius) / kk
                                            + ramp_part)


# ----------------------------------------------------------------------
# the variance itself
# ----------------------------------------------------------------------

def _kmax(spec):
    return min(_KFAC / spec.ramp_width, 2.2 * _ECUT_SIGMAS / spec.time_width)


def _variance_filon(spec, D, pair, ang_over_tp):
    """Small-k direct panels up to kR = 30, and beyond, Gauss-Legendre
    panels for the slow part (A^2 + B^2)/2 of f~^2 and a Filon rule for its
    parts in cos 2kR and sin 2kR.  The panel sums are added in panel order."""
    R = spec.radius
    kmax = _kmax(spec)
    k_split = min(30.0 / R, kmax)

    def direct(k):
        return k ** (D - 1) * ftilde_radial(spec, D, k) ** 2 * pair(k)

    total = sum(panel_sums(np.linspace(0.0, k_split, 61), 12, direct), 0.0)
    if k_split < kmax:
        env = {1: _envelope_1d, 2: _envelope_2d, 3: _envelope_3d}[D]

        def s_slow(k):
            A, B = env(spec, k)
            return 0.5 * (A * A + B * B) * k ** (D - 1) * pair(k)

        def s_cos_sin(k):
            A, B = env(spec, k)
            pk = pair(k)
            return np.stack([0.5 * (B * B - A * A) * k ** (D - 1) * pk,
                             A * B * k ** (D - 1) * pk])

        geo = np.exp(np.linspace(np.log(k_split), np.log(kmax), 48))
        total = sum(panel_sums(geo, 16, s_slow), total)
        n_pan = int(max(80, 12 * kmax * spec.ramp_width))
        ic, isn = filon_cos_sin(s_cos_sin, k_split, kmax, 2.0 * R, n_pan)
        total += ic[0] + isn[1]
    return ang_over_tp * total


def charge_variance(model, spec):
    """F = |Q(f_{R,dR}, g_T) Omega|^2 >= 0 for the free complex scalar."""
    pair = _PairKernel(model.spacetime_dim - 1, model.mass, spec.time_width,
                       _kmax(spec))
    return _variance(model, spec, pair)


def _variance(model, spec, pair):
    """charge_variance on a given pair kernel I_D(k) for (T, kmax) of spec."""
    D = model.spacetime_dim - 1
    ang = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}[D]
    ang_over_tp = ang / (2.0 * np.pi) ** (2 * D)
    val = _variance_filon(spec, D, pair, ang_over_tp)
    if not np.isfinite(val):
        raise NumericError(f"variance is not finite ({val})")
    if val < -1e-10:
        raise NumericError(f"variance came out negative ({val:.3e})")
    return max(val, 0.0)


def charge_variance_lattice(model, spec):
    """Independent mode-sum oracle on a periodic spatial chain (n = 2 only).

    Plane-wave modes k_j = 2 pi j / (N a) with lattice dispersion
    E_j^2 = m^2 + (2/a)^2 sin^2(k_j a / 2); f~ is the discrete transform of
    the same plateau profile, and momentum conservation is mod 2 pi / a.
    """
    if model.spacetime_dim != 2:
        raise ConfigurationError("lattice oracle implemented for n = 2")
    N = 512
    a = 4.0 * (spec.radius + spec.ramp_width) / N
    L = N * a
    xs = (np.arange(N) - N // 2) * a
    f = spec.amplitude * raised_cosine((np.abs(xs) - spec.radius) / spec.ramp_width)
    js = np.arange(N) - N // 2
    ks = 2.0 * np.pi * js / L
    # sum_n f_n exp(-i k_j x_n) with k_j x_n = 2 pi j (n - N/2) / N
    ft = a * np.fft.fft(np.fft.ifftshift(f))[js % N]
    E = np.sqrt(model.mass**2 + (2.0 / a * np.sin(ks * a / 2.0)) ** 2)
    Eq = E[None, :]
    # the (j1, j2) table is summed _ROWS rows at a time.  numpy sums a whole
    # C-contiguous N x N table pairwise, which for N a power of 2 is a
    # balanced tree over its row sums; adding the row sums in that tree
    # gives the whole table's sum to the bit
    sums = np.empty(N)
    for i in range(0, N, _ROWS):
        # position of the wrapped total momentum j1 + j2 in the js ordering
        idx = (js[i:i + _ROWS, None] + js[None, :] + N // 2) % N
        ft2 = np.abs(ft[idx]) ** 2
        Ep = E[i:i + _ROWS, None]
        val = (Ep - Eq) ** 2 / (4.0 * Ep * Eq) * ft2 * _g2(Ep + Eq, spec.time_width)
        sums[i:i + _ROWS] = val.sum(axis=1)
    while sums.size > 1:
        sums = sums[0::2] + sums[1::2]
    return float(sums[0]) / L**2


def scaling_fit(model, spec_family):
    """Fit of F against R/dR over a geometry family.

    n = 2: primary fit F ~ s ln(R/dR) with the log-log power exponent
    reported alongside; n > 2: primary fit log F ~ e log(R/dR).  The log
    flag says whether F ~ ln(R/dR) has the higher R^2, in every dimension.
    """
    specs = list(spec_family)
    if len(specs) < 6:
        raise FitError("need at least 6 samples")
    x = np.array([s.ratio for s in specs])
    if np.max(x) / np.min(x) < 10.0 - 1e-9:
        raise FitError("samples must span at least one decade in R/dR")
    # one pair kernel per (T, kmax): a scan at fixed dR and T shares one
    keys = [(s.time_width, _kmax(s)) for s in specs]
    pairs = {key: _PairKernel(model.spacetime_dim - 1, model.mass, *key)
             for key in dict.fromkeys(keys)}
    F = np.array([_variance(model, s, pairs[key]) for s, key in zip(specs, keys)])
    if np.any(F <= 0):
        raise FitError("nonpositive variance in scan")
    exp_fit, _, r2_pow = linear_fit(np.log(x), np.log(F))
    slope, _, r2_log = linear_fit(np.log(x), F)
    log_law = model.spacetime_dim == 2
    return ScalingReport(
        samples=tuple(zip(x.tolist(), F.tolist())),
        fitted_exponent=exp_fit,
        fitted_log_flag=bool(r2_log > r2_pow),
        r_squared=r2_log if log_law else r2_pow,
        log_slope=slope if log_law else None,
    )


# ----------------------------------------------------------------------
# global-charge limit on a one-particle state
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ChargeLimitReport:
    monotone: bool
    final_deviation: float
    t_shift_change: float


def _one_particle_deviation(model, spec, t_shift=0.0):
    """|| P_1 (Q - 1) psi ||^2 / ||psi||^2 for a smooth momentum packet.

    The charge acting inside the one-particle sector has kernel
    (E + E') f~(p - p') g~(E - E') / (2 E' 2 pi); as R grows f~ -> 2 pi delta
    and Q acts as charge 1.  The pair-creation part adds the state-independent
    vacuum-polarization background, which charge_variance measures.
    """
    m = model.mass
    p_center, p_halfwidth = 0.5, 0.25          # of the momentum packet
    cut = 4.0 * p_halfwidth
    pn, pw = gl_nodes(p_center - cut, p_center + cut, 360)
    psi = smooth_bump((np.abs(pn - p_center) - 0.5 * p_halfwidth)
                      / (0.5 * p_halfwidth))
    E = _energy(pn, m)
    mu = pw / (2.0 * np.pi * 2.0 * E)
    # the kernel is formed _ROWS rows at a time
    mu_psi = mu * psi
    q_psi = np.empty(pn.size, float if t_shift == 0.0 else complex)
    for rows, ft in _ftilde_1d_differences(spec, pn):
        de = E[rows, None] - E[None, :]
        gh = np.exp(-0.5 * (de * spec.time_width) ** 2)
        if t_shift != 0.0:
            gh = gh * np.exp(1j * de * t_shift)
        kernel = (E[rows, None] + E[None, :]) * ft * gh
        q_psi[rows] = kernel @ mu_psi
    norm = float(np.sum(mu * psi**2))
    dev = np.sum(mu * np.abs(q_psi - psi) ** 2)
    return float(np.real(dev)) / norm


def global_charge_limit(model, ramp_width, time_width, radii):
    """Deviation of Q(f_R) from the global charge on a one-particle packet,
    as R grows at fixed ramp width, and its change under a time shift.  A
    non-monotone tail is flagged, not fatal; the caller sets the bounds."""
    if model.spacetime_dim != 2:
        raise ConfigurationError("global-charge limit implemented for n = 2")
    radii = [float(R) for R in radii]
    devs = []
    for R in radii:
        spec = PartialChargeSpec(R, ramp_width, time_width)
        devs.append(_one_particle_deviation(model, spec))
    monotone = all(b <= a * (1 + 1e-6) for a, b in zip(devs[:-1], devs[1:]))
    spec_big = PartialChargeSpec(radii[-1], ramp_width, time_width)
    d1 = _one_particle_deviation(model, spec_big, t_shift=0.5 * time_width)
    return ChargeLimitReport(
        monotone=monotone,
        final_deviation=devs[-1],
        t_shift_change=abs(d1 - devs[-1]),
    )


# ----------------------------------------------------------------------
# reporting: heat-bath vs localization entropy predictions for n > 2
# ----------------------------------------------------------------------

def area_law_report(spacetime_dim):
    """The log-modified area prediction and the strict (brickwall) area law
    for the localization entropy in n > 2 spacetime dimensions; neither is
    derivable at desk scale, so both are emitted as unverified predictions."""
    p = spacetime_dim - 2
    return (f"S ~ (R/dR)^{p} ln(1/eps)",
            f"S ~ (R/dR)^{p}  (strict area, brickwall)")
