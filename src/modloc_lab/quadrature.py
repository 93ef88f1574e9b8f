"""Shared deterministic quadrature helpers.

Fixed Gauss-Legendre rules (cached, read-only nodes and weights, found by
Newton's method on the three-term Legendre recurrence), a composite Filon
rule for strongly oscillatory integrals, and a closed-form line fit.
Adaptivity is realized by comparing two rule orders, never by randomized
refinement, so repeated runs are bit-identical.  Nothing here calls LAPACK.
row_blocks is the one rule by which every engine cuts its 2-d scratch tables.
"""

import numpy as np

from .errors import FitError

_GL_CACHE = {}
_GL_NEWTON_STEPS = 10   # a cap: from Tricomi's guesses every order takes 4
_BLOCK_ENTRIES = 8192   # entries per row block of a scratch table (64 KiB)


def _legendre_and_derivative(n, x):
    """P_n(x) and P_n'(x) by the three-term recurrence, for |x| < 1."""
    p_prev, p = np.ones_like(x), x
    for k in range(1, n):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    return p, n * (p_prev - x * p) / ((1.0 - x) * (1.0 + x))


def _gauss_legendre_rule(n):
    """The n-point rule, nodes ascending: Newton's method on the
    nonnegative roots of P_n from Tricomi's guesses, mirrored, so that x is
    exactly antisymmetric and w exactly symmetric.  O(n^2) time, O(n)
    memory."""
    half = (n + 1) // 2
    x = np.cos(np.pi * (np.arange(1, half + 1) - 0.25) / (n + 0.5))
    if n % 2:
        x[-1] = 0.0                     # the middle root of an odd rule
    for _ in range(_GL_NEWTON_STEPS):
        p, dp = _legendre_and_derivative(n, x)
        step = p / dp
        x -= step
        if np.max(np.abs(step)) <= 1e-15 * np.max(np.abs(x)):
            break
    _, dp = _legendre_and_derivative(n, x)
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp**2)
    inner = slice(0, half - 1) if n % 2 else slice(0, half)
    return (np.concatenate((-x[inner], x[::-1])),
            np.concatenate((w[inner], w[::-1])))


def gauss_legendre(n):
    """Nodes and weights on [-1, 1], cached and read-only."""
    if n not in _GL_CACHE:
        rule = _gauss_legendre_rule(n)
        for a in rule:
            a.flags.writeable = False
        _GL_CACHE[n] = rule
    return _GL_CACHE[n]


def gl_nodes(a, b, n):
    """Gauss-Legendre nodes/weights mapped to [a, b]."""
    x, w = gauss_legendre(n)
    return 0.5 * (b + a) + 0.5 * (b - a) * x, 0.5 * (b - a) * w


def row_blocks(n_rows, width):
    """Row slices that cover an n_rows x width table in blocks of the most
    rows, a multiple of 8 and at least 8, whose entries fit _BLOCK_ENTRIES.
    A one-row remainder joins the block before it.  BLAS matrix-vector
    products take rows in groups of up to 8, and a single row is reduced
    by other kernels than a block of rows, so each row's product or sum
    rounds as it does in the whole table."""
    step = max(8, _BLOCK_ENTRIES // max(width, 1) // 8 * 8)
    edges = list(range(0, n_rows, step)) + [n_rows]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def panel_sums(edges, n, integrand):
    """n-point Gauss-Legendre sum of integrand over each panel
    [edges[i], edges[i+1]], with integrand evaluated once on every node."""
    kn, kw = gl_nodes(edges[:-1, None], edges[1:, None], n)
    return np.sum(kw * integrand(kn.ravel()).reshape(kn.shape), axis=1)


def filon_cos_sin(sample_fn, a, b, omega, n_panels):
    """Composite Filon-Simpson values of int_a^b S(k) {cos, sin}(omega k) dk.

    ``sample_fn`` must be vectorized; it is evaluated once on the
    2*n_panels + 1 uniform nodes and may return a stack of samples (nodes
    on the last axis), which gives one pair of values per sample.  Exact
    for S piecewise quadratic, and the oscillation exp(i omega k) is
    integrated analytically, so the cost is independent of omega.
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
    sv_a, sv_b = sv[..., 0], sv[..., -1]
    c_even = np.sum(sv[..., even] * ce[even], axis=-1) - 0.5 * (sv_a * ce[0] + sv_b * ce[-1])
    c_odd = np.sum(sv[..., odd] * ce[odd], axis=-1)
    s_even = np.sum(sv[..., even] * se[even], axis=-1) - 0.5 * (sv_a * se[0] + sv_b * se[-1])
    s_odd = np.sum(sv[..., odd] * se[odd], axis=-1)
    i_cos = h * (al * (sv_b * se[-1] - sv_a * se[0]) + be * c_even + ga * c_odd)
    i_sin = h * (al * (sv_a * ce[0] - sv_b * ce[-1]) + be * s_even + ga * s_odd)
    return i_cos, i_sin


def linear_fit(x, y):
    """Least-squares slope/intercept/R^2 of y against x, in the centered
    closed form; FitError if x has fewer than two distinct values or y is
    constant (no slope or R^2)."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    # np.ptp, not np.unique, which imports numpy.ma (0.5 MiB) on first use
    if np.ptp(x) == 0 or np.ptp(y) == 0:
        raise FitError("degenerate linear fit: need two distinct x values and a varying y")
    x_mean, y_mean = np.mean(x), np.mean(y)
    dx, dy = x - x_mean, y - y_mean
    slope = float(np.sum(dx * dy) / np.sum(dx * dx))
    intercept = float(y_mean - slope * x_mean)
    ss_res = float(np.sum((y - (slope * x + intercept)) ** 2))
    ss_tot = float(np.sum(dy**2))
    return slope, intercept, 1.0 - ss_res / ss_tot
