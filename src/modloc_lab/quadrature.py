"""Shared deterministic quadrature helpers.

Fixed Gauss-Legendre rules (cached nodes) and a composite Filon rule for
strongly oscillatory integrals; adaptivity is realized by comparing two
rule orders, never by randomized refinement, so repeated runs are
bit-identical.
"""

import numpy as np

_GL_CACHE = {}


def gauss_legendre(n):
    """Nodes and weights on [-1, 1], cached."""
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def gl_nodes(a, b, n):
    """Gauss-Legendre nodes/weights mapped to [a, b]."""
    x, w = gauss_legendre(n)
    return 0.5 * (b + a) + 0.5 * (b - a) * x, 0.5 * (b - a) * w


def filon_cos_sin(sample_fn, a, b, omega, n_panels):
    """Composite Filon-Simpson values of int_a^b S(k) {cos, sin}(omega k) dk.

    ``sample_fn`` must be vectorized; it is evaluated on the 2*n_panels + 1
    uniform nodes.  Exact for S piecewise quadratic, and the oscillation
    exp(i omega k) is integrated analytically, so the cost is independent
    of omega.
    """
    n = 2 * n_panels
    k = np.linspace(a, b, n + 1)
    h = (b - a) / n
    th = omega * h
    if abs(th) < 1e-3:
        al = 2 * th**3 / 45.0 - 2 * th**5 / 315.0
        be = 2.0 / 3 + 2 * th**2 / 15.0 - 4 * th**4 / 105.0
        ga = 4.0 / 3 - 2 * th**2 / 15.0 + th**4 / 210.0
    else:
        s, c = np.sin(th), np.cos(th)
        al = (th**2 + th * s * c - 2 * s * s) / th**3
        be = 2 * (th * (1 + c * c) - 2 * s * c) / th**3
        ga = 4 * (s - th * c) / th**3
    sv = sample_fn(k)
    ce = np.cos(omega * k)
    se = np.sin(omega * k)
    even = slice(0, n + 1, 2)
    odd = slice(1, n, 2)
    c_even = np.sum(sv[even] * ce[even]) - 0.5 * (sv[0] * ce[0] + sv[-1] * ce[-1])
    c_odd = np.sum(sv[odd] * ce[odd])
    s_even = np.sum(sv[even] * se[even]) - 0.5 * (sv[0] * se[0] + sv[-1] * se[-1])
    s_odd = np.sum(sv[odd] * se[odd])
    i_cos = h * (al * (sv[-1] * se[-1] - sv[0] * se[0]) + be * c_even + ga * c_odd)
    i_sin = h * (al * (sv[0] * ce[0] - sv[-1] * ce[-1]) + be * s_even + ga * s_odd)
    return i_cos, i_sin


def linear_fit(x, y):
    """Least-squares slope/intercept/R^2 of y against x."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    pred = A @ coef
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(coef[0]), float(coef[1]), r2
