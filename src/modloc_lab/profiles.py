"""Ramp profiles for plateau smearing functions.

Both ramps interpolate 1 -> 0 over s in [0, 1]:

  smooth_bump    r(s) = h(1-s)/(h(1-s)+h(s)),  h(t) = exp(-1/t)   (C-infinity)
  raised_cosine  r(s) = (1 + cos(pi s))/2                          (C^1)

The chiral smearings, the Unruh transform's window and the one-particle
packet use the smooth bump, whose first and second derivatives are
closed-form, so the variance engines differentiate nothing numerically; the
partial charge uses the raised cosine.
"""

import numpy as np

_T_FLOOR = 1.5e-3  # below this exp(-1/t) underflows harmlessly to 0

# The bump and its derivatives are formed from h(1 - s), h(s) and their
# floored arguments, each computed once per call, by in-place operations in
# the order of the closed forms, so a call holds at most eight arrays the
# size of s.  The engines call them on row blocks of their node tables.


def _h_floored(t):
    """h(t) and max(t, floor), the second formed in t's place: exp(-1/t)
    is taken at the floored argument, then set to 0 where t is not above
    the floor (NaN included)."""
    off = ~(t > _T_FLOOR)
    np.maximum(t, _T_FLOOR, out=t)
    h = np.divide(-1.0, t)
    np.exp(h, out=h)
    h[off] = 0.0
    return h, t


def _h(t):
    return _h_floored(np.array(t, float))[0]


def _flat(s):
    return np.asarray(s, float).reshape(-1)


def _terms(s):
    """a = h(1 - s), b = h(s), a + b with 1 where both vanish, and the
    floored arguments t_a and t_b, at which the derivatives h' = h / t^2
    and h'' = h (1 - 2t) / t^4 divide no zero."""
    a, ta = _h_floored(1.0 - s)
    b, tb = _h_floored(s.copy())
    den = a + b
    den[den == 0.0] = 1.0
    return a, b, den, ta, tb


def _d1_term(h, t, g):
    """h'(t) g = h / t^2 g, for h = h(t) and floored t; formed in t."""
    np.square(t, out=t)
    np.divide(h, t, out=t)
    t *= g
    return t


def _d2_term(h, t, g):
    """h''(t) g = h (1 - 2t) / t^4 g, for h = h(t) and floored t."""
    out = np.multiply(t, 2.0)
    np.subtract(1.0, out, out=out)
    out *= h
    out /= np.power(t, 4)
    out *= g
    return out


def smooth_bump(s):
    x = _flat(s)
    a, b, den, _, _ = _terms(x)
    r = np.divide(a, den, out=a)
    r[x <= 0.0] = 1.0
    r[x >= 1.0] = 0.0
    return r.reshape(np.shape(s))


def smooth_bump_d1(s):
    # (a' b - a b') / den^2 with a' = -h'(1 - s) and b' = h'(s)
    x = _flat(s)
    a, b, den, ta, tb = _terms(x)
    num = _d1_term(a, ta, b)
    np.negative(num, out=num)
    num -= _d1_term(b, tb, a)
    r = np.divide(num, np.square(den, out=den), out=num)
    r[(x <= 0.0) | (x >= 1.0)] = 0.0
    return r.reshape(np.shape(s))


def smooth_bump_d2(s):
    # ((a'' b - a b'') den - 2 (a' b - a b') (a' + b')) / den^3
    x = _flat(s)
    a, b, den, ta, tb = _terms(x)
    nump = _d2_term(a, ta, b)
    nump -= _d2_term(b, tb, a)
    ap = np.negative(np.divide(a, np.square(ta, out=ta), out=ta), out=ta)
    bp = np.divide(b, np.square(tb, out=tb), out=tb)
    num = np.multiply(ap, b, out=b)
    num -= np.multiply(a, bp, out=a)
    nump *= den
    num *= 2.0
    num *= np.add(ap, bp, out=ap)
    nump -= num
    r = np.divide(nump, np.power(den, 3, out=den), out=nump)
    r[(x <= 0.0) | (x >= 1.0)] = 0.0
    return r.reshape(np.shape(s))


def raised_cosine(s):
    r = 0.5 * (1.0 + np.cos(np.pi * np.clip(s, 0.0, 1.0)))
    return np.where(s <= 0.0, 1.0, np.where(s >= 1.0, 0.0, r))
