import numpy as np
import pytest

from modloc_lab import charge_fluct as cf
from modloc_lab.errors import ConfigurationError, FitError
from modloc_lab.quadrature import gl_nodes


def spec(R=3.0, dR=1.0, T=0.2, **kw):
    return cf.PartialChargeSpec(R, dR, T, **kw)


# ----- radial transforms against direct quadrature oracles -----

def _piecewise_nodes(s, n=2000):
    # integrate plateau and ramp separately: the profile has a kink at R
    from modloc_lab.profiles import ramp
    r1, w1 = gl_nodes(0.0, s.radius, n)
    r2, w2 = gl_nodes(s.radius, s.radius + s.ramp_width, n)
    prof = np.concatenate([np.ones(n),
                           ramp(s.profile, 0)((r2 - s.radius) / s.ramp_width)])
    return np.concatenate([r1, r2]), np.concatenate([w1, w2]), prof


def test_ftilde_1d_against_direct():
    s = spec()
    ks = np.array([0.3, 1.7, 6.2, 20.1])
    rn, rw, prof = _piecewise_nodes(s)
    ref = 2.0 * np.cos(np.outer(ks, rn)) @ (rw * prof)
    mine = cf.ftilde_radial(s, 1, ks)
    assert np.max(np.abs(mine - ref)) < 1e-10


def test_ftilde_3d_against_direct():
    s = spec()
    ks = np.array([0.4, 2.2, 9.7])
    rn, rw, prof = _piecewise_nodes(s)
    ref = 4.0 * np.pi * (np.sin(np.outer(ks, rn)) @ (rw * rn * prof)) / ks
    mine = cf.ftilde_radial(s, 3, ks)
    assert np.max(np.abs(mine - ref)) / np.max(np.abs(ref)) < 1e-12


# ----- pair phase-space integrals against brute-force oracles -----

def test_pair_integral_2d_brute():
    k, m, T = 3.7, 1.0, 0.1
    pmax = 5.7 / T + k
    xn, xw = gl_nodes(-pmax, pmax, 300)
    yn, yw = gl_nodes(-pmax, pmax, 300)
    PX, PY = xn[:, None], yn[None, :]
    Ep = np.sqrt(PX**2 + PY**2 + m * m)
    Eq = np.sqrt((k - PX) ** 2 + PY**2 + m * m)
    brute = float(((xw[:, None] * yw[None, :])
                   * (Ep - Eq) ** 2 / (4 * Ep * Eq)
                   * np.exp(-((Ep + Eq) * T) ** 2)).sum())
    assert cf._pair_integral_2d(k, m, T) == pytest.approx(brute, rel=2e-4)


def test_pair_integral_3d_brute():
    k, m, T = 2.9, 1.0, 0.1
    pmax = 5.7 / T + k
    xn, xw = gl_nodes(-pmax, pmax, 240)
    rn, rw = gl_nodes(1e-9, pmax, 240)
    PX, PR = xn[:, None], rn[None, :]
    Ep = np.sqrt(PX**2 + PR**2 + m * m)
    Eq = np.sqrt((k - PX) ** 2 + PR**2 + m * m)
    brute = float(2 * np.pi * ((xw[:, None] * rw[None, :]) * PR
                               * (Ep - Eq) ** 2 / (4 * Ep * Eq)
                               * np.exp(-((Ep + Eq) * T) ** 2)).sum())
    assert cf._pair_integral_3d(k, m, T) == pytest.approx(brute, rel=2e-4)


# ----- the variance itself -----

def test_zero_and_bilinearity():
    m = cf.ScalarModel(1.0, 2)
    assert cf.charge_variance(m, spec(amplitude=0.0)) == 0.0
    F1 = cf.charge_variance(m, spec())
    F2 = cf.charge_variance(m, spec(amplitude=2.0))
    assert F2 == pytest.approx(4.0 * F1, rel=1e-12)
    assert F1 > 0.0


def test_log_law_increments():
    # n = 2: halving dR adds a constant increment (log law), within 5%
    m = cf.ScalarModel(1e-8, 2)
    Fs = [cf.charge_variance(m, spec(4.0, 0.4 / 2**k, 0.001))
          for k in range(6)]
    inc = np.diff(Fs)
    assert np.all(inc > 0)
    ratios = inc[1:] / inc[:-1]
    assert np.max(np.abs(ratios - 1.0)) < 0.05


def test_scaling_fit_n3_exponent():
    model = cf.ScalarModel(1.0, 3)
    specs = [spec(0.5 * x, 0.5, 0.05)
             for x in np.exp(np.linspace(np.log(6), np.log(62), 7))]
    rep = cf.scaling_fit(model, specs)
    assert not rep.fitted_log_flag
    assert rep.fitted_exponent == pytest.approx(1.0, abs=0.1)
    assert rep.r_squared > 0.999


def test_scaling_fit_n4_exponent():
    model = cf.ScalarModel(1.0, 4)
    specs = [spec(0.5 * x, 0.5, 0.05)
             for x in np.exp(np.linspace(np.log(8), np.log(82), 7))]
    rep = cf.scaling_fit(model, specs)
    assert rep.fitted_exponent == pytest.approx(2.0, abs=0.1)
    assert rep.r_squared > 0.999


def test_scaling_fit_n2_log_flag():
    model = cf.ScalarModel(1e-6, 2)
    specs = []
    for x in np.exp(np.linspace(np.log(100), np.log(1100), 6)):
        R = 6.0 * np.sqrt(x / 100.0)
        specs.append(spec(R, R / x, 0.1 * R / x))
    rep = cf.scaling_fit(model, specs)
    assert rep.fitted_log_flag
    assert rep.r_squared > 0.999          # F linear in ln(R/dR)
    assert rep.log_slope > 0


def test_scaling_fit_preconditions():
    model = cf.ScalarModel(1.0, 3)
    with pytest.raises(FitError):
        cf.scaling_fit(model, [spec(2.0, 0.5, 0.05)] * 5)
    with pytest.raises(FitError):
        cf.scaling_fit(model, [spec(2.0 + 0.1 * i, 0.5, 0.05)
                               for i in range(6)])


def test_area_law_report():
    rows2 = cf.area_law_report(2, entropy_fit=None)
    assert rows2[0].status == "unverified-by-design"
    rows4 = cf.area_law_report(4)
    assert len(rows4) == 2
    assert all(r.status == "unverified-by-design" for r in rows4)
    assert "ln(1/eps)" in rows4[0].formula
    assert "strict area" in rows4[1].formula


def test_validation():
    with pytest.raises(ConfigurationError):
        cf.ScalarModel(0.0, 2)
    with pytest.raises(ConfigurationError):
        cf.ScalarModel(1.0, 5)
    with pytest.raises(ConfigurationError):
        cf.PartialChargeSpec(1.0, 2.0, 0.1)    # dR > R
    with pytest.raises(ConfigurationError):
        cf.PartialChargeSpec(1.0, 0.5, 0.0)
