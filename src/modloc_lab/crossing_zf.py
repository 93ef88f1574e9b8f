"""Crossing from wedge localization, and the Zamolodchikov-Faddeev algebra.

One-particle states of a d=1+1 scalar of mass m are parametrized by
rapidity, p(theta) = m (cosh theta, sinh theta).  For a test function f
supported in the right wedge x > |t| the mass-shell restriction

    fhat(theta) = int f(x) exp(-i p(theta).x) d^2x

extends analytically to the strip 0 <= Im theta <= pi: the continuation is
computed by the same position-space quadrature, which converges (damps)
there precisely because of the wedge support, and blows up for left-wedge
support -- the numerical rendering of modular localization.  At the upper
boundary p(theta + i pi) = -p(theta), which is the crossing move: the
two-particle vacuum formfactor of B = :phi^2:(g), continued in one
rapidity by i pi, lands on the crossed one-particle matrix element.

The ZF algebra Z*(t1) Z*(t2) = S(t1 - t2) Z*(t2) Z*(t1) is realized on an
S-symmetric rapidity Fock space truncated at k_max particles; creation
inserts a packet with one S factor per transposition needed to reach its
ordered slot, annihilation contracts with the matching S-dressed terms.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, NumericError, TruncationError
from .quadrature import gl_nodes

C0_SQ = 1.0 / (4.0 * np.pi)     # <phi phi> rapidity density: dtheta / 4 pi
_GROWTH_THRESHOLD = 1e3


def _bump(s):
    s = np.asarray(s, float)
    out = np.zeros_like(s)
    m = np.abs(s) < 1.0
    out[m] = np.exp(-s[m] ** 2 / (1.0 - s[m] ** 2))
    return out


@dataclass(frozen=True)
class WedgeTestFn:
    """C-infinity product bump supported in a box inside one wedge."""

    center_t: float
    center_x: float
    half_width_t: float
    half_width_x: float
    mass: float
    amplitude: float = 1.0

    def __post_init__(self):
        if self.half_width_t <= 0 or self.half_width_x <= 0:
            raise ConfigurationError("half widths must be positive")
        if self.mass <= 0:
            raise ConfigurationError("mass must be positive")
        if self.wedge is None:
            raise DomainError(
                "support box must lie strictly inside the right or left wedge"
            )

    @property
    def wedge(self):
        t_reach = abs(self.center_t) + self.half_width_t
        if self.center_x - self.half_width_x > t_reach:
            return "right"
        if self.center_x + self.half_width_x < -t_reach:
            return "left"
        return None

    def __call__(self, t, x):
        return (self.amplitude
                * _bump((np.asarray(t) - self.center_t) / self.half_width_t)
                * _bump((np.asarray(x) - self.center_x) / self.half_width_x))

    def _nodes(self, order=96):
        tn, tw = gl_nodes(self.center_t - self.half_width_t,
                          self.center_t + self.half_width_t, order)
        xn, xw = gl_nodes(self.center_x - self.half_width_x,
                          self.center_x + self.half_width_x, order)
        return tn, tw, xn, xw

    def fourier(self, p0, p1, order=96):
        """int f(t,x) exp(i (p0 t - p1 x)) dt dx, complex momenta allowed;
        separable, so two 1-d sums."""
        tn, tw, xn, xw = self._nodes(order)
        ft = self.amplitude * _bump((tn - self.center_t) / self.half_width_t)
        fx = _bump((xn - self.center_x) / self.half_width_x)
        p0 = np.atleast_1d(np.asarray(p0, complex))
        p1 = np.atleast_1d(np.asarray(p1, complex))
        It = np.exp(1j * np.multiply.outer(p0, tn)) @ (tw * ft)
        Ix = np.exp(-1j * np.multiply.outer(p1, xn)) @ (xw * fx)
        return It * Ix

    def mass_shell(self, theta):
        """fhat(theta) = int f(x) exp(-i p(theta).x) d^2x on complex
        rapidities.  |exp| = exp(-m sin(Im theta) (x cosh - t sinh)), so for
        right-wedge support (x > |t|) the strip 0 <= Im theta <= pi damps."""
        theta = np.asarray(theta, complex)
        p0 = self.mass * np.cosh(theta)
        p1 = self.mass * np.sinh(theta)
        return self.fourier(-p0.ravel(), -p1.ravel()).reshape(theta.shape)

    def creation_wave(self, theta):
        """Wave function of phi(f)|0> in rapidity: int f exp(+i p(theta).x);
        equals mass_shell(theta + i pi) by p(theta + i pi) = -p(theta)."""
        theta = np.asarray(theta, complex)
        p0 = self.mass * np.cosh(theta)
        p1 = self.mass * np.sinh(theta)
        return self.fourier(p0.ravel(), p1.ravel()).reshape(theta.shape)


# ----------------------------------------------------------------------
# modular localization: strip analyticity of wedge wave functions
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RapidityFn:
    thetas: np.ndarray
    lambdas: np.ndarray
    values: np.ndarray             # shape (len(thetas), len(lambdas))
    source: WedgeTestFn

    def evaluate(self, z):
        return self.source.mass_shell(np.asarray(z, complex))

    def cauchy_riemann_residual(self, h=2e-5):
        """max |d fhat / d zbar| / |d fhat / d z| on interior grid points,
        via the 4-point stencil; zero for an analytic function up to
        O(h^2 f''') truncation."""
        th = self.thetas[1:-1:max(1, len(self.thetas) // 7)]
        lm = self.lambdas[1:-1:max(1, len(self.lambdas) // 5)]
        worst = 0.0
        for l in lm:
            z = th + 1j * l
            fp = self.evaluate(z + h)
            fm = self.evaluate(z - h)
            gp = self.evaluate(z + 1j * h)
            gm = self.evaluate(z - 1j * h)
            dzbar = (fp - fm + 1j * (gp - gm)) / (4.0 * h)
            dz = (fp - fm - 1j * (gp - gm)) / (4.0 * h)
            scale = np.maximum(np.abs(dz), 1e-12 * np.max(np.abs(self.values)))
            worst = max(worst, float(np.max(np.abs(dzbar) / scale)))
        return worst

    def involution_defect(self):
        """For real f the strip boundary carries fhat(theta + i pi)
        = conj(fhat(theta)): the one-particle modular involution."""
        top = self.evaluate(self.thetas + 1j * np.pi)
        bot = self.evaluate(self.thetas)
        scale = np.max(np.abs(bot))
        return float(np.max(np.abs(top - np.conj(bot))) / scale)


def _strip_growth_ratio(f, theta_probe):
    mid = abs(complex(f.mass_shell(0.5j * np.pi)))
    far = max(abs(complex(f.mass_shell(theta_probe + 0.5j * np.pi))),
              abs(complex(f.mass_shell(-theta_probe + 0.5j * np.pi))))
    return far / max(mid, 1e-300)


def mass_shell_restrict(f, thetas=None, lambdas=None, theta_probe=3.5):
    """Strip values of fhat; raises NumericError when the continuation
    grows instead of damping (support in the wrong wedge leaks)."""
    if thetas is None:
        thetas = np.linspace(-2.5, 2.5, 21)
    if lambdas is None:
        lambdas = np.linspace(0.0, np.pi, 9)
    thetas = np.asarray(thetas, float)
    lambdas = np.asarray(lambdas, float)
    if np.any(lambdas < -1e-12) or np.any(lambdas > np.pi + 1e-12):
        raise DomainError("strip is 0 <= Im theta <= pi")
    ratio = _strip_growth_ratio(f, theta_probe)
    if ratio > _GROWTH_THRESHOLD:
        raise NumericError(
            f"strip continuation diverges (growth ratio {ratio:.3e}); "
            f"support leaks out of the right wedge"
        )
    z = thetas[:, None] + 1j * lambdas[None, :]
    return RapidityFn(thetas=thetas, lambdas=lambdas, values=f.mass_shell(z),
                      source=f)


# ----------------------------------------------------------------------
# free crossing and the two-point KMS identity
# ----------------------------------------------------------------------

def pair_formfactor(g, theta1, theta2):
    """<0| :phi^2:(g) |theta1, theta2> = 2 c0^2 g~(-p1 - p2)."""
    t1 = np.asarray(theta1, complex)
    t2 = np.asarray(theta2, complex)
    p0 = -g.mass * (np.cosh(t1) + np.cosh(t2))
    p1 = -g.mass * (np.sinh(t1) + np.sinh(t2))
    return 2.0 * C0_SQ * g.fourier(p0.ravel(), p1.ravel()).reshape(t1.shape)


def crossed_formfactor(g, theta1, theta2):
    """<theta1| :phi^2:(g) |theta2> = 2 c0^2 g~(p1 - p2)."""
    t1 = np.asarray(theta1, complex)
    t2 = np.asarray(theta2, complex)
    p0 = g.mass * (np.cosh(t1) - np.cosh(t2))
    p1 = g.mass * (np.sinh(t1) - np.sinh(t2))
    return 2.0 * C0_SQ * g.fourier(p0.ravel(), p1.ravel()).reshape(t1.shape)


@dataclass(frozen=True)
class CrossingReport:
    continued: np.ndarray          # <0|B|t1 + i pi, t2> on the real grid
    crossed: np.ndarray            # <t1|B|t2>
    max_rel_defect: float


def free_crossing_check(g, thetas1=None, thetas2=None):
    """Continue the vacuum pair formfactor in theta1 by i pi through the
    strip and compare with the crossed matrix element.  The path through
    the strip must stay bounded (wedge support); both endpoints are
    independent quadratures."""
    if g.wedge != "right":
        raise DomainError("crossing check needs a right-wedge smearing")
    if thetas1 is None:
        thetas1 = np.linspace(-1.5, 1.5, 20)
    if thetas2 is None:
        thetas2 = np.linspace(-1.2, 1.8, 20)
    t1 = np.asarray(thetas1, float)
    t2 = np.asarray(thetas2, float)
    T1, T2 = np.meshgrid(t1, t2, indexing="ij")

    # boundedness along the continuation path (the substance of wedge support)
    probe = np.max(np.abs(pair_formfactor(g, T1[:4, :4], T2[:4, :4])))
    for lam in (0.25 * np.pi, 0.5 * np.pi, 0.75 * np.pi):
        level = np.max(np.abs(pair_formfactor(g, T1[:4, :4] + 1j * lam, T2[:4, :4])))
        if level > _GROWTH_THRESHOLD * max(probe, 1e-300):
            raise NumericError(
                f"continuation grows through the strip (Im theta = {lam:.2f})"
            )

    continued = pair_formfactor(g, T1 + 1j * np.pi, T2)
    crossed = crossed_formfactor(g, T1, T2)
    scale = max(float(np.max(np.abs(crossed))), 1e-300)
    defect = float(np.max(np.abs(continued - crossed)) / scale)
    return CrossingReport(continued, crossed, defect)


@dataclass(frozen=True)
class KMSIdentityReport:
    lhs: complex
    rel_diff: float


def _rapidity_cutoff(f, tol=1e-9):
    th = 0.5
    base = abs(complex(f.mass_shell(0.0)))
    while th < 12.0:
        if (abs(complex(f.mass_shell(th))) < tol * base
                and abs(complex(f.mass_shell(-th))) < tol * base):
            return th
        th += 0.5
    return 12.0


def _cone_ranges(f):
    """Ranges of the lightray coordinates x - t and x + t over the support."""
    xm, xp = f.center_x - f.half_width_x, f.center_x + f.half_width_x
    tm, tp = f.center_t - f.half_width_t, f.center_t + f.half_width_t
    return (xm - tp, xp - tm), (xm + tm, xp + tp)


def kms_free_identity(g, f1, f2, n_nodes=90):
    """Two-point instance of the wedge KMS identity for B = :phi^2:(g):

        <B phi(f1) phi(f2)> = int w1(t1) fhat2(t2) <t2|B|t1> dt1 dt2 / 4 pi,

    the right side being the theta2 contour shifted to Im theta2 = pi.  The
    shift turns the pair formfactor into the crossed element <t2|B|t1> and
    the creation wave of f2 into its antiparticle boundary value fhat2 (the
    modular conjugate); the boost continuation is what moves the contour.
    The shift converges when f2 sits between the wedge edge and g in both
    lightray coordinates (the nonoverlapping configuration); outside that
    cone ordering the free two-point instantiation has no convergent
    continuation and a DomainError is raised.  All four ingredient
    quadratures are independent."""
    for fn, name in ((g, "g"), (f1, "f1"), (f2, "f2")):
        if fn.wedge != "right":
            raise DomainError(f"{name} must be right-wedge localized")
    (f2_u_lo, f2_u_hi), (f2_v_lo, f2_v_hi) = _cone_ranges(f2)
    (g_u_lo, _), (g_v_lo, _) = _cone_ranges(g)
    if not (f2_u_hi < g_u_lo and f2_v_hi < g_v_lo):
        raise DomainError(
            "f2 must sit between the wedge edge and g in both lightray "
            "coordinates for the boost continuation to converge"
        )
    cut = max(_rapidity_cutoff(f1), max(_rapidity_cutoff(f2), 1.5))
    n_theta = max(n_nodes, int(80 * cut))
    tn, tw = gl_nodes(-cut, cut, n_theta)
    w1 = tw * f1.creation_wave(tn)
    w2 = tw * f2.creation_wave(tn)
    w2c = tw * f2.mass_shell(tn)     # = creation wave continued by i pi

    # factor the double rapidity integral through the position nodes of g:
    # M(t1, t2) = 2 c0^2 sum_z wz g(z) e^{-i p1.z} e^{-i p2.z}, so each side
    # collapses to sum_z wz g(z) V1(z) V2(z) with 1-d theta sums V.
    tg, twg, xg, xwg = g._nodes()
    gz = g(tg[:, None], xg[None, :])
    wz = twg[:, None] * xwg[None, :]
    p0 = g.mass * np.cosh(tn)
    p1 = g.mass * np.sinh(tn)
    A_minus = np.exp(-1j * np.outer(p0, tg))    # e^{-i p0 t}
    B_minus = np.exp(1j * np.outer(p1, xg))     # e^{+i p1 x}
    v1 = np.einsum("q,qj,qk->jk", w1, A_minus, B_minus)
    v2 = np.einsum("q,qj,qk->jk", w2, A_minus, B_minus)
    v2c = np.einsum("q,qj,qk->jk", w2c, np.conj(A_minus), np.conj(B_minus))
    lhs = 2.0 * C0_SQ**2 * np.sum(wz * gz * v1 * v2)
    rhs = 2.0 * C0_SQ**2 * np.sum(wz * gz * v1 * v2c)
    scale = max(abs(lhs), abs(rhs))
    rel = 0.0 if scale == 0.0 else abs(lhs - rhs) / scale
    return KMSIdentityReport(lhs=complex(lhs), rel_diff=rel)


# ----------------------------------------------------------------------
# the elastic S matrix and the ZF algebra
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SMatrixModel:
    """Scalar factorizing two-particle S matrix.  The sinh-Gordon-type
    factor S(theta) = (sinh theta - i sin b)/(sinh theta + i sin b) is the
    canonical family: unitary on the real line, S(theta)S(-theta) = 1 and
    S(i pi - theta) = S(theta) hold identically."""

    coupling: float

    def __post_init__(self):
        if not (0.0 < self.coupling < np.pi):
            raise ConfigurationError("coupling must lie in (0, pi)")

    def __call__(self, theta):
        sh = np.sinh(np.asarray(theta, complex))
        ib = 1j * np.sin(self.coupling)
        return (sh - ib) / (sh + ib)


def smatrix_properties(S, thetas=None, complex_points=None):
    """Defects of |S| = 1 (real line), S(t)S(-t) = 1, S(i pi - t) = S(t)."""
    if thetas is None:
        thetas = np.linspace(-6.0, 6.0, 121)
    thetas = np.asarray(thetas, float)
    if complex_points is None:
        complex_points = thetas[::6] + 0.37j
    unit = float(np.max(np.abs(np.abs(S(thetas)) - 1.0)))
    inv = float(np.max(np.abs(S(thetas) * S(-thetas) - 1.0)))
    zz = np.asarray(complex_points, complex)
    crossing = float(np.max(np.abs(S(1j * np.pi - zz) - S(zz))))
    return {"unitarity": unit, "inverse": inv, "crossing": crossing}


@dataclass(frozen=True)
class ZFState:
    """Particle-number-truncated vector on a rapidity grid.  Component k is
    an S-symmetric function of k rapidities: exchanging adjacent arguments
    costs one factor S, which is exactly the ordering rule 'commute the
    inserted rapidity through the cluster, one S per transposition'."""

    theta_grid: np.ndarray
    weights: np.ndarray
    components: tuple
    k_max: int
    leaked_norm: float = 0.0


def zf_vacuum(n_grid=16, theta_span=4.0, k_max=4):
    tn, tw = gl_nodes(-theta_span, theta_span, n_grid)
    comps = [np.zeros((n_grid,) * k, complex) for k in range(k_max + 1)]
    comps[0] = np.array(1.0 + 0.0j)
    return ZFState(tn, tw, tuple(comps), k_max)


def _axis_view(vec, axis, ndim):
    shape = [1] * ndim
    shape[axis] = len(vec)
    return vec.reshape(shape)


def _insert_packet(S, f_vals, psi, thetas):
    """(k+1)-particle S-symmetrized tensor

        (1/sqrt(k+1)) sum_j [prod_{a<j} S(t_a - t_j)] f(t_j) psi(..j dropped..):

    the packet enters at slot j after being commuted through the cluster to
    its left, one S factor per transposition."""
    k = 0 if psi.shape == () else psi.ndim
    n = len(thetas)
    ndim = k + 1
    # S(theta_j - theta_a): the inserted rapidity (slot j) is commuted past
    # each occupied slot a < j, one factor S(inserted - passed) per step
    smat = S(thetas[None, :] - thetas[:, None])
    out = np.zeros((n,) * ndim, complex)
    for j in range(ndim):
        term = np.broadcast_to(
            _axis_view(np.asarray(f_vals, complex), j, ndim), (n,) * ndim
        ).copy()
        if k > 0:
            term = term * np.expand_dims(psi, axis=j)
        for a in range(j):
            shape = [n if t in (a, j) else 1 for t in range(ndim)]
            term = term * smat.reshape(shape)
        out += term
    return out / np.sqrt(ndim)


def _tensor_norm_sq(weights, comp):
    k = 0 if comp.shape == () else comp.ndim
    if k == 0:
        return float(np.abs(comp) ** 2)
    w = np.abs(comp) ** 2
    for axis in range(k):
        w = np.tensordot(weights, w, axes=([0], [0]))
    return float(np.real(w))


def zf_norm_sq(state):
    return sum(_tensor_norm_sq(state.weights, c) for c in state.components)


def zf_apply(op, packet, state, S, leak_tol=None):
    """Apply Z*(packet) ('create') or Z(packet) ('annihilate').

    Creation pushes every k-component to k+1 with the ordered S-dressed
    insertion; what would land beyond k_max is measured and dropped
    (TruncationError if a tolerance is given and exceeded).  Annihilation
    contracts the first slot against conj(packet); the S dressing of the
    remaining contractions is carried by the stored S symmetry of the
    component itself.
    """
    f_vals = np.asarray(packet, complex)
    if f_vals.shape != state.theta_grid.shape:
        raise DomainError("packet must be sampled on the state's rapidity grid")
    comps = list(state.components)
    n = len(state.theta_grid)
    leaked = state.leaked_norm
    if op == "create":
        new = [np.zeros_like(c) for c in comps]
        new[0] = np.array(0.0 + 0.0j)
        for k in range(state.k_max):
            src = comps[k]
            if np.max(np.abs(src)) == 0.0:
                continue
            new[k + 1] = new[k + 1] + _insert_packet(S, f_vals, src, state.theta_grid)
        top = comps[state.k_max]
        if np.max(np.abs(top)) != 0.0:
            overflow = _insert_packet(S, f_vals, top, state.theta_grid)
            leak = _tensor_norm_sq(state.weights, overflow)
            leaked += leak
            if leak_tol is not None and leaked > leak_tol:
                raise TruncationError(
                    f"truncation overflow beyond k_max={state.k_max}",
                    leaked_norm=leaked,
                )
    elif op == "annihilate":
        new = [np.zeros_like(c) for c in comps]
        for k in range(1, state.k_max + 1):
            src = comps[k]
            if np.max(np.abs(src)) == 0.0:
                continue
            contracted = np.tensordot(np.conj(f_vals) * state.weights, src,
                                      axes=([0], [0]))
            val = np.sqrt(k) * contracted
            new[k - 1] = new[k - 1] + (val if k > 1 else np.asarray(complex(val)))
    else:
        raise DomainError(f"unknown ZF operation {op!r}")
    return ZFState(state.theta_grid, state.weights, tuple(new),
                   state.k_max, leaked)


def zf_two_particle(S, f_vals, g_vals, thetas):
    """Z*(f) Z*(g) |0> as a pointwise two-particle function on a grid."""
    f = np.asarray(f_vals, complex)
    g = np.asarray(g_vals, complex)
    smat = S(thetas[None, :] - thetas[:, None])    # smat[a, b] = S(t_b - t_a)
    return (f[:, None] * g[None, :] + smat * f[None, :] * g[:, None]) / np.sqrt(2.0)


def zf_exchange_check(S, f_vals, g_vals, thetas):
    """Defect of the exchange relation Z*(t1)Z*(t2) = S(t1-t2)Z*(t2)Z*(t1),
    smeared: the left side is built by ordered insertion, the right side by
    weaving S(t1-t2) through the opposite insertion order and contracting
    the deltas; both are explicit pointwise evaluations and the S products
    are left unsimplified, so the two orders are mutual oracles."""
    f = np.asarray(f_vals, complex)
    g = np.asarray(g_vals, complex)
    direct = zf_two_particle(S, f, g, thetas)
    sab = S(thetas[:, None] - thetas[None, :])     # S(alpha - beta)
    sba = S(thetas[None, :] - thetas[:, None])     # S(beta - alpha)
    woven = (sba * f[None, :] * g[:, None]
             + sab * sba * f[:, None] * g[None, :]) / np.sqrt(2.0)
    return float(np.max(np.abs(direct - woven)) / np.max(np.abs(direct)))


def _s_twist(S, psi, thetas):
    """(T psi)(a, b) = S(t_b - t_a) psi(b, a): adjacent exchange move."""
    smat = S(thetas[None, :] - thetas[:, None])
    return smat * psi.T


def zf_double_exchange_check(S, f_vals, g_vals, thetas):
    """Exchanging twice is the identity: S(t)S(-t) = 1 operationally.
    Applied to the raw (unsymmetrized) product so the check is not vacuous."""
    psi = np.asarray(f_vals, complex)[:, None] * np.asarray(g_vals, complex)[None, :]
    back = _s_twist(S, _s_twist(S, psi, thetas), thetas)
    return float(np.max(np.abs(back - psi)) / np.max(np.abs(psi)))


def zf_associativity_check(S, f_vals, g_vals, h_vals, thetas):
    """The two transposition paths (1,2),(2,3),(1,2) and (2,3),(1,2),(2,3)
    from (f,g,h) to (h,g,f) must agree: scalar S needs no Yang-Baxter
    structure, and this confirms the path independence operationally."""
    psi = (np.asarray(f_vals, complex)[:, None, None]
           * np.asarray(g_vals, complex)[None, :, None]
           * np.asarray(h_vals, complex)[None, None, :])
    smat = S(thetas[None, :] - thetas[:, None])

    def t12(t):
        return smat[:, :, None] * np.swapaxes(t, 0, 1)

    def t23(t):
        return smat[None, :, :] * np.swapaxes(t, 1, 2)

    path_a = t12(t23(t12(psi)))
    path_b = t23(t12(t23(psi)))
    return float(np.max(np.abs(path_a - path_b)) / np.max(np.abs(path_a)))
