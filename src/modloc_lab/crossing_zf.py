"""Crossing from wedge localization, and the Zamolodchikov-Faddeev algebra.

One-particle states of a d=1+1 free scalar are parametrized by rapidity,
p(theta) = (cosh theta, sinh theta): the mass is 1, so lengths are in
Compton wavelengths 1/m.  For a free field the mass only sets that unit
(the wedge's modular group is the boost at every mass), so a mass m on
boxes B is the same check as mass 1 on boxes m B.  For a test function f
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

from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, DomainError, NumericError
from .quadrature import gl_nodes, row_blocks

C0_SQ = 1.0 / (4.0 * np.pi)     # <phi phi> rapidity density: dtheta / 4 pi
_GROWTH_THRESHOLD = 1e3
_ORDER = 96                     # Gauss-Legendre nodes per axis of the box


def _bump(s):
    s = np.asarray(s, float)
    out = np.zeros_like(s)
    m = np.abs(s) < 1.0
    out[m] = np.exp(-s[m] ** 2 / (1.0 - s[m] ** 2))
    return out


class _WedgeTestFnFields(NamedTuple):
    center_t: float
    center_x: float
    half_width_t: float
    half_width_x: float


class WedgeTestFn(_WedgeTestFnFields):
    """C-infinity product bump supported in a box inside one wedge."""

    __slots__ = ()

    def __new__(cls, center_t, center_x, half_width_t, half_width_x):
        if half_width_t <= 0 or half_width_x <= 0:
            raise ConfigurationError("half widths must be positive")
        self = super().__new__(cls, center_t, center_x, half_width_t, half_width_x)
        if self.wedge is None:
            raise DomainError(
                "support box must lie strictly inside the right or left wedge"
            )
        return self

    @property
    def wedge(self):
        t_reach = abs(self.center_t) + self.half_width_t
        if self.center_x - self.half_width_x > t_reach:
            return "right"
        if self.center_x + self.half_width_x < -t_reach:
            return "left"
        return None

    def _weighted_nodes(self):
        """The box nodes with each weight times its factor of the product
        bump: (tn, tw ft, xn, xw fx)."""
        tn, tw = gl_nodes(self.center_t - self.half_width_t,
                          self.center_t + self.half_width_t, _ORDER)
        xn, xw = gl_nodes(self.center_x - self.half_width_x,
                          self.center_x + self.half_width_x, _ORDER)
        ft = _bump((tn - self.center_t) / self.half_width_t)
        fx = _bump((xn - self.center_x) / self.half_width_x)
        return tn, tw * ft, xn, xw * fx

    def fourier(self, p0, p1):
        """int f(t,x) exp(i (p0 t - p1 x)) dt dx, complex momenta allowed;
        separable, so two 1-d sums, formed in row_blocks."""
        tn, wt, xn, wx = self._weighted_nodes()
        p0 = np.atleast_1d(np.asarray(p0, complex))
        p1 = np.atleast_1d(np.asarray(p1, complex))
        out = np.empty(p0.shape, complex)
        for b in row_blocks(p0.size, _ORDER):
            out[b] = np.exp(1j * np.multiply.outer(p0[b], tn)) @ wt
            out[b] *= np.exp(-1j * np.multiply.outer(p1[b], xn)) @ wx
        return out

    def fourier_outer(self, pa, pb):
        """fourier(p0a_i + p0b_j, p1a_i + p1b_j) on the len(pa) x len(pb)
        grid, pa = (p0a, p1a) and pb = (p0b, p1b) 1-d momentum components.
        The exponential of the sum factors into a phase table per side, so
        each separable 1-d node sum is a GEMM, formed in row_blocks."""
        nodes = self._weighted_nodes()
        (p0a, p1a), (ct, cx) = pa, _col_tables(nodes, pb)
        out = np.empty((p0a.size, ct.shape[1]), complex)
        for b in row_blocks(p0a.size, ct.shape[1]):
            rt, rx = _row_tables(nodes, (p0a[b], p1a[b]))
            out[b] = rt @ ct
            out[b] *= rx @ cx
        return out

    def mass_shell(self, theta):
        """fhat(theta) = int f(x) exp(-i p(theta).x) d^2x on complex
        rapidities.  |exp| = exp(-sin(Im theta) (x cosh - t sinh)), so for
        right-wedge support (x > |t|) the strip 0 <= Im theta <= pi damps."""
        theta = np.asarray(theta, complex)
        p0, p1 = _on_shell(theta.ravel(), -1.0)
        return self.fourier(p0, p1).reshape(theta.shape)

    def creation_wave(self, theta):
        """Wave function of phi(f)|0> in rapidity: int f exp(+i p(theta).x);
        equals mass_shell(theta + i pi) by p(theta + i pi) = -p(theta)."""
        theta = np.asarray(theta, complex)
        p0, p1 = _on_shell(theta.ravel(), 1.0)
        return self.fourier(p0, p1).reshape(theta.shape)


# ----------------------------------------------------------------------
# modular localization: strip analyticity of wedge wave functions
# ----------------------------------------------------------------------

class RapidityFn(NamedTuple):
    thetas: np.ndarray
    lambdas: np.ndarray
    values: np.ndarray             # shape (len(thetas), len(lambdas))
    source: WedgeTestFn

    def evaluate(self, z):
        return self.source.mass_shell(np.asarray(z, complex))

    def cauchy_riemann_residual(self):
        """max |d fhat / d zbar| / |d fhat / d z| on interior grid points.
        For analytic f the 4-point stencil at step h returns h^2 f'''/6 as
        d/dzbar; Richardson-combining steps h and 2h cancels that term, so
        the residual is O(h^4) truncation plus rounding."""
        h = 1e-3
        th = self.thetas[1:-1:max(1, len(self.thetas) // 7)]
        lm = self.lambdas[1:-1:max(1, len(self.lambdas) // 5)]
        worst = 0.0
        for l in lm:
            z = th + 1j * l
            dzbar = dz = 0.0
            for s, c in ((h, 4.0 / 3.0), (2.0 * h, -1.0 / 3.0)):
                fp, fm, gp, gm = (self.evaluate(z + d)
                                  for d in (s, -s, 1j * s, -1j * s))
                dzbar = dzbar + c * (fp - fm + 1j * (gp - gm)) / (4.0 * s)
                dz = dz + c * (fp - fm - 1j * (gp - gm)) / (4.0 * s)
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


def _strip_growth_ratio(f):
    mid = abs(complex(f.mass_shell(0.5j * np.pi)))
    far = max(abs(complex(f.mass_shell(sign * 3.5 + 0.5j * np.pi)))
              for sign in (1.0, -1.0))
    return far / max(mid, 1e-300)


def mass_shell_restrict(f):
    """Strip values of fhat on a fixed grid; raises NumericError when the
    continuation grows instead of damping (support in the wrong wedge
    leaks)."""
    thetas = np.linspace(-2.5, 2.5, 21)
    lambdas = np.linspace(0.0, np.pi, 9)
    ratio = _strip_growth_ratio(f)
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

def _on_shell(theta, sign):
    """The momentum components sign * p(theta) of 1-d rapidities."""
    t = np.asarray(theta, complex)
    return sign * np.cosh(t), sign * np.sinh(t)


def _pair_shells(theta1, theta2):
    """The momenta -p1, -p2 at which the pair formfactor reads g~."""
    return _on_shell(theta1, -1.0), _on_shell(theta2, -1.0)


def _crossed_shells(theta1, theta2):
    """The momenta p1, -p2 at which the crossed formfactor reads g~."""
    return _on_shell(theta1, 1.0), _on_shell(theta2, -1.0)


def pair_formfactor(g, theta1, theta2):
    """<0| :phi^2:(g) |theta1, theta2> = 2 c0^2 g~(-p1 - p2) on the
    len(theta1) x len(theta2) grid of 1-d rapidities."""
    out = g.fourier_outer(*_pair_shells(theta1, theta2))
    out *= 2.0 * C0_SQ
    return out


def crossed_formfactor(g, theta1, theta2):
    """<theta1| :phi^2:(g) |theta2> = 2 c0^2 g~(p1 - p2) on the
    len(theta1) x len(theta2) grid of 1-d rapidities."""
    out = g.fourier_outer(*_crossed_shells(theta1, theta2))
    out *= 2.0 * C0_SQ
    return out


class CrossingReport(NamedTuple):
    continued: np.ndarray          # <0|B|t1 + i pi, t2> on the real grid
    crossed: np.ndarray            # <t1|B|t2>
    max_rel_defect: float


def free_crossing_check(g, thetas1, thetas2):
    """Continue the vacuum pair formfactor in theta1 by i pi through the
    strip and compare with the crossed matrix element.  The path through
    the strip must stay bounded (wedge support); both endpoints are
    independent quadratures."""
    if g.wedge != "right":
        raise DomainError("crossing check needs a right-wedge smearing")
    t1 = np.asarray(thetas1, float)
    t2 = np.asarray(thetas2, float)

    # boundedness along the continuation path (the substance of wedge support)
    probe = np.max(np.abs(pair_formfactor(g, t1[:4], t2[:4])))
    for lam in (0.25 * np.pi, 0.5 * np.pi, 0.75 * np.pi):
        level = np.max(np.abs(pair_formfactor(g, t1[:4] + 1j * lam, t2[:4])))
        if level > _GROWTH_THRESHOLD * max(probe, 1e-300):
            raise NumericError(
                f"continuation grows through the strip (Im theta = {lam:.2f})"
            )

    continued = pair_formfactor(g, t1 + 1j * np.pi, t2)
    crossed = crossed_formfactor(g, t1, t2)
    defect = float(np.max(np.abs(continued - crossed)) / np.max(np.abs(crossed)))
    return CrossingReport(continued, crossed, defect)


class KMSIdentityReport(NamedTuple):
    lhs: complex
    rel_diff: float


def _rapidity_cutoff(f):
    th = 0.5
    floor = 1e-9 * abs(complex(f.mass_shell(0.0)))
    while th < 12.0:
        if (abs(complex(f.mass_shell(th))) < floor
                and abs(complex(f.mass_shell(-th))) < floor):
            return th
        th += 0.5
    return 12.0


def _cone_ranges(f):
    """Ranges of the lightray coordinates x - t and x + t over the support."""
    xm, xp = f.center_x - f.half_width_x, f.center_x + f.half_width_x
    tm, tp = f.center_t - f.half_width_t, f.center_t + f.half_width_t
    return (xm - tp, xp - tm), (xm + tm, xp + tp)


def _row_tables(nodes, pa):
    """Row-side factors of fourier_outer at pa = (p0a, p1a): the
    (n_a x _ORDER) phase tables of t and x, node weights folded in."""
    tn, wt, xn, wx = nodes
    p0, p1 = pa
    return (np.exp(1j * np.multiply.outer(p0, tn)) * wt,
            np.exp(-1j * np.multiply.outer(p1, xn)) * wx)


def _col_tables(nodes, pb):
    """Column-side factors of fourier_outer at pb = (p0b, p1b): the
    (_ORDER x n_b) phase tables of t and x."""
    tn, _, xn, _ = nodes
    p0, p1 = pb
    return (np.exp(1j * np.multiply.outer(tn, p0)),
            np.exp(-1j * np.multiply.outer(xn, p1)))


def _kms_contraction(g, shells, w_rows, w_cols):
    """sum_ij w_rows_i F_ij w_cols_j for F = 2 c0^2 g.fourier_outer(*shells),
    without F: with the row tables R, X and column tables C, Y,
    F_ij = 2 c0^2 (R C)_ij (X Y)_ij, so the sum is 2 c0^2 sum_ab G_ab H_ab
    for G = R^T diag(w_rows) X and H = C diag(w_cols) Y^T, summed over
    row_blocks: O(n _ORDER^2) work, not O(n^2 _ORDER)."""
    nodes = g._weighted_nodes()
    (p0a, p1a), (p0b, p1b) = shells
    G = np.zeros((_ORDER, _ORDER), complex)
    H = np.zeros_like(G)
    for b in row_blocks(p0a.size, _ORDER):
        rt, rx = _row_tables(nodes, (p0a[b], p1a[b]))
        G += rt.T @ (w_rows[b, None] * rx)
    for b in row_blocks(p0b.size, _ORDER):
        ct, cx = _col_tables(nodes, (p0b[b], p1b[b]))
        H += (w_cols[b] * ct) @ cx.T
    return 2.0 * C0_SQ * np.sum(G * H)


def kms_free_identity(g, f1, f2):
    """Two-point instance of the wedge KMS identity for B = :phi^2:(g):

        <B phi(f1) phi(f2)> = int w1(t1) fhat2(t2) <t2|B|t1> dt1 dt2 / 4 pi,

    the right side being the theta2 contour shifted to Im theta2 = pi.  The
    shift turns the pair formfactor into the crossed element <t2|B|t1> and
    the creation wave of f2 into its antiparticle boundary value fhat2 (the
    modular conjugate); the boost continuation is what moves the contour.
    The shift converges when f2 sits between the wedge edge and g in both
    lightray coordinates (the nonoverlapping configuration); outside that
    cone ordering the free two-point instantiation has no convergent
    continuation and a DomainError is raised.  _kms_contraction contracts
    the form factors of pair_formfactor and crossed_formfactor with the
    wave functions, three separate quadratures, without forming a grid."""
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
    n_theta = max(90, int(80 * cut))
    tn, tw = gl_nodes(-cut, cut, n_theta)
    w1 = tw * f1.creation_wave(tn)
    w2 = tw * f2.creation_wave(tn)
    w2c = tw * f2.mass_shell(tn)     # = creation wave continued by i pi
    lhs = C0_SQ * _kms_contraction(g, _pair_shells(tn, tn), w1, w2)
    rhs = C0_SQ * _kms_contraction(g, _crossed_shells(tn, tn), w2c, w1)
    rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
    return KMSIdentityReport(lhs=complex(lhs), rel_diff=rel)


# ----------------------------------------------------------------------
# the elastic S matrix and the ZF algebra
# ----------------------------------------------------------------------

class _SMatrixModelFields(NamedTuple):
    coupling: float


class SMatrixModel(_SMatrixModelFields):
    """Scalar factorizing two-particle S matrix.  The sinh-Gordon-type
    factor S(theta) = (sinh theta - i sin b)/(sinh theta + i sin b) is the
    canonical family: unitary on the real line, S(theta)S(-theta) = 1 and
    S(i pi - theta) = S(theta) hold identically."""

    __slots__ = ()

    def __new__(cls, coupling):
        if not (0.0 < coupling < np.pi):
            raise ConfigurationError("coupling must lie in (0, pi)")
        return super().__new__(cls, coupling)

    def __call__(self, theta):
        sh = np.sinh(np.asarray(theta, complex))
        ib = 1j * np.sin(self.coupling)
        return (sh - ib) / (sh + ib)


def smatrix_properties(S):
    """Defects of |S| = 1 (real line), S(t)S(-t) = 1, S(i pi - t) = S(t)."""
    thetas = np.linspace(-6.0, 6.0, 121)
    unit = float(np.max(np.abs(np.abs(S(thetas)) - 1.0)))
    inv = float(np.max(np.abs(S(thetas) * S(-thetas) - 1.0)))
    zz = thetas[::6] + 0.37j
    crossing = float(np.max(np.abs(S(1j * np.pi - zz) - S(zz))))
    return {"unitarity": unit, "inverse": inv, "crossing": crossing}


class ZFState(NamedTuple):
    """Particle-number-truncated vector on a rapidity grid.  Component k is
    an S-symmetric function of k rapidities: exchanging adjacent arguments
    costs one factor S, which is exactly the ordering rule 'commute the
    inserted rapidity through the cluster, one S per transposition'.

    Components above ``occupied``, the highest particle number that may be
    nonzero, are read-only zero views (_vacant) that hold no memory."""

    theta_grid: np.ndarray
    weights: np.ndarray
    components: tuple
    k_max: int
    occupied: int
    leaked_norm: float = 0.0


_ZERO = np.zeros((), complex)
_ZERO.flags.writeable = False


def _vacant(n_grid, k):
    """The zero k-particle component: a stride-0 view of one scalar."""
    return np.broadcast_to(_ZERO, (n_grid,) * k)


def zf_vacuum(n_grid, k_max):
    tn, tw = gl_nodes(-4.0, 4.0, n_grid)
    comps = [np.array(1.0 + 0.0j)]
    comps += [_vacant(n_grid, k) for k in range(1, k_max + 1)]
    return ZFState(tn, tw, tuple(comps), k_max, 0)


def _axis_view(vec, axis, ndim):
    shape = [1] * ndim
    shape[axis] = len(vec)
    return vec.reshape(shape)


def _insert_packet(S, f_vals, psi, thetas):
    """(k+1)-particle S-symmetrized tensor

        (1/sqrt(k+1)) sum_j [prod_{a<j} S(t_a - t_j)] f(t_j) psi(..j dropped..):

    the packet enters at slot j after being commuted through the cluster to
    its left, one S factor per transposition."""
    n = len(thetas)
    ndim = psi.ndim + 1
    f = np.asarray(f_vals, complex)
    # S(theta_j - theta_a): the inserted rapidity (slot j) is commuted past
    # each occupied slot a < j, one factor S(inserted - passed) per step
    smat = S(thetas[None, :] - thetas[:, None])
    out = np.zeros((n,) * ndim, complex)
    for j in range(ndim):
        term = _axis_view(f, j, ndim) * np.expand_dims(psi, axis=j)
        for a in range(j):
            shape = [n if t in (a, j) else 1 for t in range(ndim)]
            term *= smat.reshape(shape)
        out += term
    out /= np.sqrt(ndim)
    return out


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


def zf_apply(op, packet, state, S):
    """Apply Z*(packet) ('create') or Z(packet) ('annihilate').

    Creation pushes every occupied k-component to k+1 with the ordered
    S-dressed insertion; what would land beyond k_max is measured, added to
    leaked_norm and dropped.  Annihilation contracts the first slot against
    conj(packet); the S dressing of the remaining contractions is carried by
    the stored S symmetry of the component itself.  Only components up to
    state.occupied are read; the vacant ones above it are passed on as they
    are.
    """
    f_vals = np.asarray(packet, complex)
    if f_vals.shape != state.theta_grid.shape:
        raise DomainError("packet must be sampled on the state's rapidity grid")
    comps = state.components
    new = list(comps)
    n = len(state.theta_grid)
    occ = state.occupied
    leaked = state.leaked_norm
    if op == "create":
        new[0] = _vacant(n, 0)
        for k in range(min(occ + 1, state.k_max)):
            new[k + 1] = _insert_packet(S, f_vals, comps[k], state.theta_grid)
        if occ == state.k_max:
            overflow = _insert_packet(S, f_vals, comps[occ], state.theta_grid)
            leaked += _tensor_norm_sq(state.weights, overflow)
        occ = min(occ + 1, state.k_max)
    elif op == "annihilate":
        bra = np.conj(f_vals) * state.weights
        for k in range(1, occ + 1):
            val = np.sqrt(k) * np.tensordot(bra, comps[k], axes=([0], [0]))
            new[k - 1] = val if k > 1 else np.asarray(complex(val))
        new[occ] = _vacant(n, occ)
        occ = max(occ - 1, 0)
    else:
        raise DomainError(f"unknown ZF operation {op!r}")
    return ZFState(state.theta_grid, state.weights, tuple(new),
                   state.k_max, occ, leaked)


def zf_exchange_check(S, f_vals, g_vals, thetas):
    """Defect of the exchange relation Z*(t1)Z*(t2) = S(t1-t2)Z*(t2)Z*(t1),
    smeared: the left side is the ordered insertion _insert_packet that
    zf_apply creates with, the right side weaves S(t1-t2) through the
    opposite insertion order and contracts the deltas pointwise; the S
    products are left unsimplified, so the two orders are mutual oracles."""
    f = np.asarray(f_vals, complex)
    g = np.asarray(g_vals, complex)
    direct = _insert_packet(S, f, g, thetas)
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
    """The transposition paths (1,2),(2,3),(1,2) and (2,3),(1,2),(2,3) from
    (f,g,h) to (h,g,f), with s_ij = S(t_j - t_i), psi_kji = (f_k g_j) h_i:
    path_a = s_ij (s_ik (s_jk psi_kji)), path_b = s_jk (s_ik (s_ij psi_kji)),
    one slab of i at a time.  For a scalar S both are the same three
    factors in another order: the defect is rounding and cannot fail."""
    f, g, h = (np.asarray(v, complex) for v in (f_vals, g_vals, h_vals))
    smat = S(thetas[None, :] - thetas[:, None])
    fg = f[None, :] * g[:, None]
    diff, scale = [], []
    for i in range(len(thetas)):
        psi = fg * h[i]
        s_i = smat[i]
        path_a = s_i[:, None] * (s_i[None, :] * (smat * psi))
        path_b = smat * (s_i[None, :] * (s_i[:, None] * psi))
        diff.append(np.max(np.abs(path_a - path_b)))
        scale.append(np.max(np.abs(path_a)))
    return float(np.max(diff) / np.max(scale))
