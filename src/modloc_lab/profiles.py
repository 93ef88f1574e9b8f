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


def _h(t):
    t = np.asarray(t, float)
    out = np.zeros_like(t)
    m = t > _T_FLOOR
    out[m] = np.exp(-1.0 / t[m])
    return out


def _t_floor(t):
    """t where h(t) > 0, and the floor where h(t) = 0, so the derivatives
    h' = h / t^2 and h'' = h (1 - 2t) / t^4 divide no zero."""
    return np.maximum(t, _T_FLOOR)


def smooth_bump(s):
    a = _h(1.0 - s)
    b = _h(s)
    den = a + b
    den = np.where(den == 0.0, 1.0, den)
    r = a / den
    return np.where(s <= 0.0, 1.0, np.where(s >= 1.0, 0.0, r))


def smooth_bump_d1(s):
    a = _h(1.0 - s)
    b = _h(s)
    ap = -a / _t_floor(1.0 - s) ** 2
    bp = b / _t_floor(s) ** 2
    den = a + b
    den = np.where(den == 0.0, 1.0, den)
    r = (ap * b - a * bp) / den**2
    return np.where((s <= 0.0) | (s >= 1.0), 0.0, r)


def smooth_bump_d2(s):
    a = _h(1.0 - s)
    b = _h(s)
    ta = _t_floor(1.0 - s)
    tb = _t_floor(s)
    ap = -a / ta**2
    bp = b / tb**2
    app = a * (1.0 - 2.0 * ta) / ta**4
    bpp = b * (1.0 - 2.0 * tb) / tb**4
    den = a + b
    den = np.where(den == 0.0, 1.0, den)
    num = ap * b - a * bp
    nump = app * b - a * bpp
    r = (nump * den - 2.0 * num * (ap + bp)) / den**3
    return np.where((s <= 0.0) | (s >= 1.0), 0.0, r)


def raised_cosine(s):
    r = 0.5 * (1.0 + np.cos(np.pi * np.clip(s, 0.0, 1.0)))
    return np.where(s <= 0.0, 1.0, np.where(s >= 1.0, 0.0, r))
