import numpy as np
import pytest

from modloc_lab import charge_fluct as cf
from modloc_lab.errors import ConfigurationError, FitError, NumericError
from modloc_lab.profiles import raised_cosine, smooth_bump
from modloc_lab import quadrature as quad
from modloc_lab.cli_bench.config import _SCHEMAS
from modloc_lab.quadrature import filon_cos_sin, gl_nodes, row_blocks


def spec(R=3.0, dR=1.0, T=0.2, **kw):
    return cf.PartialChargeSpec(R, dR, T, **kw)


def ragged(n_rows, width):
    # the row blocks of an n_rows x width table end on a block of another
    # height than the first, with more than one row
    sizes = [b.stop - b.start for b in row_blocks(n_rows, width)]
    return len(sizes) > 1 and 1 < sizes[-1] != sizes[0]


# ----- radial transforms against direct quadrature oracles -----

def _piecewise_nodes(s, panels=16, n=16):
    # integrate plateau and ramp separately (the profile has a kink at R),
    # each on equal panels of a short Gauss-Legendre rule: at kR = 93 a
    # panel spans under one period, and the sums match ftilde_radial to
    # 1e-14, closer than one 2000-node rule does
    def composite(a, b):
        edges = np.linspace(a, b, panels + 1)
        r, w = gl_nodes(edges[:-1, None], edges[1:, None], n)
        return r.ravel(), w.ravel()

    r1, w1 = composite(0.0, s.radius)
    r2, w2 = composite(s.radius, s.radius + s.ramp_width)
    prof = np.concatenate([np.ones_like(r1),
                           raised_cosine((r2 - s.radius) / s.ramp_width)])
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


def test_ftilde_2d_against_direct():
    from scipy.special import j0

    s = spec()
    ks = np.array([0.4, 2.2, 9.7, 12.0, 31.0])   # kR from 1.2 to 93, past 30
    rn, rw, prof = _piecewise_nodes(s)
    ref = 2.0 * np.pi * (j0(np.outer(ks, rn)) @ (rw * rn * prof))
    mine = cf.ftilde_radial(s, 2, ks)
    assert np.max(np.abs(mine - ref)) / np.max(np.abs(ref)) < 1e-12


def test_bessel_j_against_scipy_and_mpmath():
    # series below 2, backward recurrence below 30, Hankel's expansion above;
    # measured 5.2e-16 off scipy on [0, 40] and 1.4e-17 off mpmath beyond 30.
    # scipy's own j0, j1 round x - pi/4 and are up to 3.6e-15 off near 3000
    from scipy.special import j0, j1

    mp = pytest.importorskip("mpmath")
    switch = np.arange(-40, 41)
    near = np.concatenate([2.0 + switch * np.spacing(2.0),
                           30.0 + switch * np.spacing(30.0)])
    for x, bound in ((np.concatenate([np.linspace(0.0, 40.0, 40001), near]), 1e-15),
                     (np.linspace(30.0, 3000.0, 40001), 5e-15)):
        assert np.max(np.abs(cf._bessel_j(0, x) - j0(x))) < bound
        assert np.max(np.abs(cf._bessel_j(1, x) - j1(x))) < bound
    x = np.linspace(30.0, 3000.0, 97)
    with mp.workdps(30):
        for nu in (0, 1):
            ref = np.array([float(mp.besselj(nu, v)) for v in x])
            assert np.max(np.abs(cf._bessel_j(nu, x) - ref)) < 1e-16


@pytest.mark.parametrize("R, dR", [(3.0, 1.0), (31.0, 0.5)])
def test_envelope_2d_reproduces_ftilde_radial(R, dR):
    # kR from 30 up to kmax R = 240 and 2480; measured 1.1e-13 and 6e-16
    s = spec(R, dR, 0.05)
    ks = np.linspace(30.0 / R, cf._kmax(s), 2001)
    A, B = cf._envelope_2d(s, ks)
    ref = cf.ftilde_radial(s, 2, ks)
    mine = A * np.sin(ks * R) + B * np.cos(ks * R)
    assert np.max(np.abs(mine - ref)) < 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("R, dR", [(4.0, 1.0), (64.0, 1.0), (3.0, 0.5)])
def test_ftilde_differences_against_ftilde_radial(R, dR):
    s = spec(R, dR)
    pn, _ = gl_nodes(-0.5, 1.5, 200)
    dd = pn[:, None] - pn[None, :]            # diagonal: dd = 0
    ref = cf.ftilde_radial(s, 1, dd.ravel()).reshape(dd.shape)
    mine = np.concatenate([blk for _, blk in cf._ftilde_1d_differences(s, pn)])
    assert np.max(np.abs(mine - ref)) < 1e-13 * np.max(np.abs(ref))


# ----- pair phase-space integrals against brute-force oracles -----

def test_pair_integral_2d_brute():
    # the Cartesian grid is 5e-10 off the converged value at 600^2
    k, m, T = 3.7, 1.0, 0.1
    pmax = 5.7 / T + k
    xn, xw = gl_nodes(-pmax, pmax, 600)
    yn, yw = gl_nodes(-pmax, pmax, 600)
    PX, PY = xn[:, None], yn[None, :]
    Ep = np.sqrt(PX**2 + PY**2 + m * m)
    Eq = np.sqrt((k - PX) ** 2 + PY**2 + m * m)
    brute = float(((xw[:, None] * yw[None, :])
                   * (Ep - Eq) ** 2 / (4 * Ep * Eq)
                   * np.exp(-((Ep + Eq) * T) ** 2)).sum())
    assert cf._pair_integral(2, k, m, T) == pytest.approx(brute, rel=1e-8)


def test_pair_integral_3d_brute():
    # the cylindrical grid is 8e-11 off the converged value at 480^2
    k, m, T = 2.9, 1.0, 0.1
    pmax = 5.7 / T + k
    xn, xw = gl_nodes(-pmax, pmax, 480)
    rn, rw = gl_nodes(1e-9, pmax, 480)
    PX, PR = xn[:, None], rn[None, :]
    Ep = np.sqrt(PX**2 + PR**2 + m * m)
    Eq = np.sqrt((k - PX) ** 2 + PR**2 + m * m)
    brute = float(2 * np.pi * ((xw[:, None] * rw[None, :]) * PR
                               * (Ep - Eq) ** 2 / (4 * Ep * Eq)
                               * np.exp(-((Ep + Eq) * T) ** 2)).sum())
    assert cf._pair_integral(3, k, m, T) == pytest.approx(brute, rel=1e-9)


def _pair_integral_polar(D, k, m, T, n_p=480, n_h=720, panels=12):
    # I_D(k) in polar coordinates about p = 0: |p| on Gauss-Legendre panels
    # with an edge at the focus |p| = k, the angle to k on [0, pi]
    pmax = 5.7 / T + k
    edges = np.concatenate([np.linspace(0.0, k, panels + 1),
                            np.linspace(k, pmax, panels + 1)[1:]])
    pn, pw = gl_nodes(edges[:-1, None], edges[1:, None], n_p // panels)
    P, pw = pn.ravel()[:, None], pw.ravel()[:, None]
    hn, hw = gl_nodes(0.0, np.pi, n_h)
    Ep = np.sqrt(P * P + m * m)
    Eq = np.sqrt((P - k) ** 2 + 2.0 * P * k * (1.0 - np.cos(hn)) + m * m)
    val = pw * hw * P * (Ep - Eq) ** 2 / (4 * Ep * Eq) * np.exp(-((Ep + Eq) * T) ** 2)
    if D == 2:
        return 2.0 * float(val.sum())
    return 2.0 * np.pi * float((val * P * np.sin(hn)).sum())


@pytest.mark.parametrize("D", [2, 3])
@pytest.mark.parametrize("k", [1e-4, 1.0, 39.0, 79.0])
def test_pair_integral_against_converged_polar_rule(D, k):
    # the reference agrees with itself at 1.5 times its orders to 1.3e-12;
    # the rule under test is 4e-11 off at D = 2, k = 79
    ref = _pair_integral_polar(D, k, 1.0, 0.05)
    assert cf._pair_integral(D, k, 1.0, 0.05) == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("D", [2, 3])
@pytest.mark.parametrize("T", [0.05, 0.2])
def test_pair_integral_orders_converged(monkeypatch, D, T):
    # the 64 x 48 rule against the same rule at 1.5 times its orders, over
    # the k range of the suite's n = 3, 4 kernels (T = 0.05) and, at T = 0.2,
    # beyond 5.7 / T
    ks = np.exp(np.linspace(np.log(1e-5), np.log(82.0), 12))
    mine = np.array([cf._pair_integral(D, k, 1.0, T) for k in ks])
    monkeypatch.setattr(cf, "gl_nodes", lambda a, b, n: gl_nodes(a, b, 3 * n // 2))
    ref = np.array([cf._pair_integral(D, k, 1.0, T) for k in ks])
    np.testing.assert_allclose(mine, ref, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("dim", [3, 4])
def test_pair_kernel_beyond_gaussian_cutoff(monkeypatch, dim):
    # kmax = 40 > 5.7 / T = 28.5, so at the top of the kernel grid every pair
    # energy has |g~|^2 < 1e-14; the kernel stays finite there, and F agrees
    # with F on a kernel of polar-rule values
    s = spec(2.0, 1.0, 0.2)
    model = cf.ScalarModel(1.0, dim)
    pair = cf._PairKernel(dim - 1, 1.0, s.time_width, cf._kmax(s))
    assert np.exp(pair._lnk[-1]) > 5.7 / s.time_width
    assert np.all(np.isfinite(pair._lnI))
    F = cf.charge_variance(model, s)
    monkeypatch.setattr(cf, "_pair_integral", lambda D, k, m, T:
                        _pair_integral_polar(D, k, m, T, 120, 240, 6))
    assert F == pytest.approx(cf.charge_variance(model, s), rel=1e-9)


# ----- the variance itself -----

def test_log_law_increments():
    # n = 2: halving dR adds a constant increment (log law), within 5%
    m = cf.ScalarModel(1e-8, 2)
    Fs = [cf.charge_variance(m, spec(4.0, 0.4 / 2**k, 0.001))
          for k in range(6)]
    inc = np.diff(Fs)
    assert np.all(inc > 0)
    ratios = inc[1:] / inc[:-1]
    assert np.max(np.abs(ratios - 1.0)) < 0.05


def n3_specs():
    return [spec(0.5 * x, 0.5, 0.05)
            for x in np.exp(np.linspace(np.log(6), np.log(62), 7))]


def n2_specs():
    # six distinct T = 0.1 dR, so six distinct pair kernels
    specs = []
    for x in np.exp(np.linspace(np.log(100), np.log(1100), 6)):
        R = 6.0 * np.sqrt(x / 100.0)
        specs.append(spec(R, R / x, 0.1 * R / x))
    return specs


def test_scaling_fit_n3_exponent():
    model = cf.ScalarModel(1.0, 3)
    rep = cf.scaling_fit(model, n3_specs())
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
    rep = cf.scaling_fit(model, n2_specs())
    assert rep.fitted_log_flag
    assert rep.r_squared > 0.999          # F linear in ln(R/dR)
    assert rep.log_slope > 0


def test_scaling_fit_log_flag_read_from_data(monkeypatch):
    # a d = 2 scan with F ~ (R/dR)^0.5 fits ln F ~ p ln(R/dR) better than
    # F ~ ln(R/dR), so the log flag is down
    monkeypatch.setattr(cf, "_PairKernel", lambda *args: None)
    monkeypatch.setattr(cf, "_variance", lambda model, s, pair: s.ratio ** 0.5)
    rep = cf.scaling_fit(cf.ScalarModel(1e-6, 2), n2_specs())
    assert rep.fitted_exponent == pytest.approx(0.5)
    assert not rep.fitted_log_flag


@pytest.mark.parametrize("mass, dim, make_specs, builds",
                         [(1.0, 3, n3_specs, 1), (1e-6, 2, n2_specs, 6)])
def test_scaling_fit_builds_each_kernel_once(monkeypatch, mass, dim,
                                             make_specs, builds):
    model = cf.ScalarModel(mass, dim)
    specs = make_specs()
    alone = [cf.charge_variance(model, s) for s in specs]
    built = []

    class CountingKernel(cf._PairKernel):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(cf, "_PairKernel", CountingKernel)
    rep = cf.scaling_fit(model, specs)
    assert len(built) == builds
    assert [F for _, F in rep.samples] == alone


def test_scaling_fit_preconditions():
    model = cf.ScalarModel(1.0, 3)
    with pytest.raises(FitError):
        cf.scaling_fit(model, [spec(2.0, 0.5, 0.05)] * 5)
    with pytest.raises(FitError):
        cf.scaling_fit(model, [spec(2.0 + 0.1 * i, 0.5, 0.05)
                               for i in range(6)])


def test_area_law_report():
    rows4 = cf.area_law_report(4)
    assert len(rows4) == 2
    assert "(R/dR)^2 ln(1/eps)" in rows4[0]
    assert "strict area" in rows4[1]


def test_validation():
    with pytest.raises(ConfigurationError):
        cf.ScalarModel(0.0, 2)
    with pytest.raises(ConfigurationError):
        cf.ScalarModel(1.0, 5)
    with pytest.raises(ConfigurationError):
        cf.PartialChargeSpec(1.0, 2.0, 0.1)    # dR > R
    with pytest.raises(ConfigurationError):
        cf.PartialChargeSpec(1.0, 0.5, 0.0)


# ----- whole-array k passes against their per-k and per-panel loops -----

def _pair_integral_1d_scalar(k, m, T):
    # one k at a time, as the kernel grid was built before it became one array
    y_hi = np.arcsinh(k / (2.0 * m))
    y_lo = -np.arcsinh((5.7 / T + k) / m)
    yn, yw = gl_nodes(y_lo, y_hi, 320)
    p = m * np.sinh(yn)
    ep = m * np.cosh(yn)
    eq = np.sqrt((k - p) ** 2 + m * m)
    val = (ep - eq) ** 2 / (4.0 * eq) * np.exp(-np.clip(((ep + eq) * T) ** 2, 0.0, 700.0))
    return 2.0 * float(np.sum(yw * val))


@pytest.mark.parametrize("m, T, kmax", [(1.0, 0.2, 40.0), (1e-6, 5e-6, 8e3)])
def test_pair_integral_1d_array_equals_per_k_loop(traced_peak, m, T, kmax):
    # the pair kernel's 320 grid points, in blocks of 24 rows and a ragged
    # one of 8, and 337, where a one-row remainder joins the block before it
    for n in (320, 337):
        ks = np.exp(np.linspace(np.log(1e-3 * min(m, 1.0 / kmax)), np.log(kmax), n))
        assert ragged(n, 320)
        ref = np.array([_pair_integral_1d_scalar(k, m, T) for k in ks])
        np.testing.assert_array_equal(cf._pair_integral_1d(ks, m, T), ref)
    # measured 0.59 MiB at 320 points; 128-row blocks took 3.1, the whole
    # 320 x 320 table and its temporaries 7.0
    assert traced_peak(lambda: cf._pair_integral_1d(ks, m, T)) < 0.75


def _variance_filon_per_panel(spec, D, pair):
    # one ftilde_radial or envelope evaluation per panel, and one Filon
    # sample per moment, summed in panel order
    R = spec.radius
    kmax = cf._kmax(spec)
    k_split = min(30.0 / R, kmax)
    total = 0.0
    edges = np.linspace(0.0, k_split, 61)
    for a, b in zip(edges[:-1], edges[1:]):
        kn, kw = gl_nodes(a, b, 12)
        ft = cf.ftilde_radial(spec, D, kn)
        total += float(np.sum(kw * kn ** (D - 1) * ft**2 * pair(kn)))
    if k_split < kmax:
        env = {1: cf._envelope_1d, 2: cf._envelope_2d, 3: cf._envelope_3d}[D]

        def s_slow(k):
            A, B = env(spec, k)
            return 0.5 * (A * A + B * B) * k ** (D - 1) * pair(k)

        def s_cos(k):
            A, B = env(spec, k)
            return 0.5 * (B * B - A * A) * k ** (D - 1) * pair(k)

        def s_sin(k):
            A, B = env(spec, k)
            return A * B * k ** (D - 1) * pair(k)

        n_pan = int(max(80, 12 * kmax * spec.ramp_width))
        geo = np.exp(np.linspace(np.log(k_split), np.log(kmax), 48))
        for a, b in zip(geo[:-1], geo[1:]):
            kn, kw = gl_nodes(a, b, 16)
            total += float(np.sum(kw * s_slow(kn)))
        ic, _ = filon_cos_sin(s_cos, k_split, kmax, 2.0 * R, n_pan)
        _, isn = filon_cos_sin(s_sin, k_split, kmax, 2.0 * R, n_pan)
        total += ic + isn
    ang = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}[D]
    return ang / (2.0 * np.pi) ** (2 * D) * total


@pytest.mark.parametrize("dim, m, s", [
    (2, 1.0, spec(3.0, 1.0, 0.2)),
    (2, 1.0, spec(2.5, 0.7, 0.15)),             # dR/R > 0.38: ramp order moves
    (2, 1.0, spec(1.0, 0.5, 0.5)),              # k_split = kmax: no Filon part
    (2, 1e-6, spec(6.0 * 120**0.5, 6.0 / 120**0.5, 0.6 / 120**0.5)),
    (4, 1.0, spec(4.0, 0.5, 0.05)),
    (4, 1.0, spec(41.0, 0.5, 0.05)),
    (3, 1.0, spec(3.0, 0.5, 0.05)),
    (3, 1.0, spec(31.0, 0.5, 0.05)),
    (3, 1.0, spec(1.0, 0.5, 0.5)),              # k_split = kmax: no Filon part
])
def test_charge_variance_matches_per_panel_loop(dim, m, s):
    model = cf.ScalarModel(m, dim)
    pair = cf._PairKernel(dim - 1, m, s.time_width, cf._kmax(s))
    ref = _variance_filon_per_panel(s, dim - 1, pair)
    assert cf._variance(model, s, pair) == pytest.approx(ref, rel=1e-14, abs=0.0)


def _ftilde_2d_scipy(s, ks):
    # ftilde_radial's D = 2 sums on scipy's j0, j1
    from scipy.special import j0, j1

    sn, base = cf._ramp_rule(s, np.max(ks))
    rn = s.radius + sn
    return 2.0 * np.pi * (s.radius * j1(ks * s.radius) / ks
                          + j0(np.outer(ks, rn)) @ (base * rn))


def _variance_half_periods(s, D, pair):
    # f~^2 on 8-point panels of a quarter of its period pi / (R + dR) across
    # [0, kmax]: about 3 200 panels at R = 31.  It agrees with eighths of a
    # period to 2.7e-7 on the n = 3 and 4 scans
    kmax = cf._kmax(s)
    n = 2 * int(np.ceil(kmax / (np.pi / (s.radius + s.ramp_width) / 2.0)))
    edges = np.linspace(0.0, kmax, n + 1)
    kn, kw = gl_nodes(edges[:-1, None], edges[1:, None], 8)
    kn, kw = kn.ravel(), kw.ravel()
    total = 0.0
    for i in range(0, kn.size, 4096):
        k = kn[i:i + 4096]
        ft = _ftilde_2d_scipy(s, k) if D == 2 else cf.ftilde_radial(s, D, k)
        total += float(np.sum(kw[i:i + 4096] * k ** (D - 1) * ft**2 * pair(k)))
    ang = {2: 2.0 * np.pi, 3: 4.0 * np.pi}[D]
    return ang / (2.0 * np.pi) ** (2 * D) * total


@pytest.mark.parametrize("dim, lo, hi", [(3, 6.0, 62.0), (4, 8.0, 82.0)])
def test_charge_variance_against_half_period_panels(dim, lo, hi):
    # the suite's n = 3 and n = 4 scans: the Filon route is 1.1e-7 to 1.9e-6
    # off (n = 3) and 6.4e-8 to 2.2e-6 (n = 4), below the 5e-5 error of the
    # pair kernel, which both routes share
    model = cf.ScalarModel(1.0, dim)
    specs = [spec(0.5 * x, 0.5, 0.05) for x in np.exp(np.linspace(np.log(lo), np.log(hi), 7))]
    pair = cf._PairKernel(dim - 1, 1.0, 0.05, cf._kmax(specs[0]))
    for s in specs:
        ref = _variance_half_periods(s, dim - 1, pair)
        assert cf._variance(model, s, pair) == pytest.approx(ref, rel=1e-5, abs=0.0)


def test_filon_stacked_samples_equal_separate_calls():
    rows = (lambda k: np.cos(3.0 * k) / (1.0 + k), lambda k: k * np.exp(-k))
    ic, isn = filon_cos_sin(lambda k: np.stack([f(k) for f in rows]),
                            0.1, 7.0, 13.0, 200)
    for i, f in enumerate(rows):
        assert (ic[i], isn[i]) == filon_cos_sin(f, 0.1, 7.0, 13.0, 200)


def _charge_variance_lattice_dense(model, s):
    # the lattice transform as a dense sum of exp(-i k_j x_n)
    N = 512
    a = 4.0 * (s.radius + s.ramp_width) / N
    L = N * a
    xs = (np.arange(N) - N // 2) * a
    f = raised_cosine((np.abs(xs) - s.radius) / s.ramp_width)
    js = np.arange(N) - N // 2
    ks = 2.0 * np.pi * js / L
    ft = a * np.exp(-1j * np.outer(ks, xs)) @ f
    E = np.sqrt(model.mass**2 + (2.0 / a * np.sin(ks * a / 2.0)) ** 2)
    idx = (js[:, None] + js[None, :] + N // 2) % N
    Ep, Eq = E[:, None], E[None, :]
    val = ((Ep - Eq) ** 2 / (4.0 * Ep * Eq) * np.abs(ft[idx]) ** 2
           * np.exp(-np.clip(((Ep + Eq) * s.time_width) ** 2, 0.0, 700.0)))
    return float(val.sum()) / L**2


@pytest.mark.parametrize("s", [spec(2.0, 1.0, 0.2), spec(3.5, 0.5, 0.1),
                               spec(4.0, 2.0, 0.3)])
def test_lattice_fft_matches_dense_sum(s):
    model = cf.ScalarModel(1.0, 2)
    ref = _charge_variance_lattice_dense(model, s)
    assert cf.charge_variance_lattice(model, s) == pytest.approx(ref, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("dim, s", [(2, spec(3.0, 1.0, 0.2)), (4, spec(41.0, 0.5, 0.05)),
                                    (3, spec(31.0, 0.5, 0.05))])
def test_charge_variance_evaluates_each_k_pass_once(monkeypatch, dim, s):
    # one f~ pass on the small-k panels, one envelope pass on the geometric
    # panels and one on the Filon grid; the D = 1 pair kernel is one array.
    # ftilde_radial's own envelope call is part of its pass, not counted.
    calls = []
    depth = [0]

    def counted(name):
        fn = getattr(cf, name)

        def wrapper(*args):
            if depth[0] == 0:
                calls.append(name)
            depth[0] += 1
            try:
                return fn(*args)
            finally:
                depth[0] -= 1
        monkeypatch.setattr(cf, name, wrapper)

    for name in ("ftilde_radial", "_envelope_1d", "_envelope_2d", "_envelope_3d",
                 "_pair_integral_1d"):
        counted(name)
    F = cf.charge_variance(cf.ScalarModel(1.0, dim), s)
    assert F > 0.0
    passes = [c for c in calls if c != "_pair_integral_1d"]
    assert calls.count("ftilde_radial") == 1
    assert len(passes) <= 3
    assert calls.count("_pair_integral_1d") == (dim == 2)


@pytest.mark.parametrize("mass", [5e-324, 1e-310])
def test_subnormal_mass_is_a_numeric_error(mass):
    # the pair kernel grid is not finite at these masses; the NaN variance
    # is raised, never returned
    s = spec(6.0, 6.0 / 1.2e4, 6e-5)
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="not finite"):
        cf.charge_variance(cf.ScalarModel(mass, 2), s)
    # the pair kernel itself refuses the non-finite grid
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="pair kernel"):
        cf._PairKernel(1, mass, s.time_width, cf._kmax(s))


def test_tiny_normal_mass_still_runs():
    # at 1e-300 the pair kernel grid starts where k^2 is still a normal
    # float, not at 1e-3 m, where the pair integrand is 0/0
    s = spec(6.0, 6.0 / 1.2e4, 6e-5)
    pair = cf._PairKernel(1, 1e-300, s.time_width, cf._kmax(s))
    assert np.isfinite(pair._lnI).all()
    F = cf.charge_variance(cf.ScalarModel(1e-300, 2), s)
    assert np.isfinite(F) and F > 0.0


def _worst_kernel_error(m, ratios):
    # largest relative miss of the pair kernel against _pair_integral_1d on
    # 400 k up to kmax, where I(k) exceeds 1e-3 of its peak, over n2 scan
    # geometries (R = 6 sqrt(R/dR / 100), T = dR / 10)
    worst = 0.0
    for x in ratios:
        R = 6.0 * np.sqrt(x / 100.0)
        s = spec(R, R / x, 0.1 * R / x)
        T, kmax = s.time_width, cf._kmax(s)
        ks = np.exp(np.linspace(np.log(1e-3 / kmax), np.log(kmax), 400))
        direct = cf._pair_integral_1d(ks, m, T)
        keep = direct > 1e-3 * direct.max()
        kernel = cf._PairKernel(1, m, T, kmax)
        worst = max(worst, np.max(np.abs(kernel(ks[keep]) / direct[keep] - 1.0)))
    return worst


def test_pair_kernel_holds_at_the_mass_floor():
    # the n2_mass floor of the config schema: the kernel's grid runs from
    # 1e-3 m, so its log step grows as the mass falls.  Measured 4.2 % at
    # the floor and 3.6 % at the default mass 1e-6; at 1e-300 (step 1.14)
    # the interpolant misses the Gaussian cutoff by up to 98 %
    floor = _SCHEMAS["charge-scaling"]["n2_mass"][2][0]
    ratios = np.exp(np.linspace(np.log(1.2e4), np.log(1.2e5), 8))
    assert _worst_kernel_error(floor, ratios) < 0.05
    assert _worst_kernel_error(1e-300, ratios[:1]) > 0.5


N2_MASS_LO, N2_MASS_HI = _SCHEMAS["charge-scaling"]["n2_mass"][2]


@pytest.mark.parametrize("mass", [N2_MASS_LO, 1e-6, 1.0, N2_MASS_HI])
@pytest.mark.parametrize("ratio", [1.2e4, 1.2e5])
def test_pair_kernel_variance_across_the_mass_range(mass, ratio):
    # F on the 320-point pair kernel against F on _pair_integral_1d at each
    # k, over the admitted n2_mass range at the n2 end geometries.  Measured
    # 3.1e-5 to 3.5e-5 at 1e-7 and 1e-6, 9.5e-5 at 1 and 2.3e-4 at 100: the
    # kernel resolves the range unevenly, but well inside the log-slope
    # checks it feeds
    R = 6.0 * np.sqrt(ratio / 100.0)
    s = spec(R, R / ratio, 0.1 * R / ratio)
    model = cf.ScalarModel(mass, 2)
    exact = cf._variance(model, s,
                         lambda k: cf._pair_integral_1d(k, mass, s.time_width))
    assert cf.charge_variance(model, s) == pytest.approx(exact, rel=5e-4, abs=0.0)


# ----- row-blocked tables against the whole tables they replace -----

def _envelope_2d_one_shot(s, ks):
    # the whole (k, s) tables
    R = s.radius
    k = np.asarray(ks, float)
    P, Q = cf._hankel_pq(1, k * R)
    disc = 2.0 * np.pi * R * np.sqrt(1.0 / (np.pi * k * R)) / k
    A, B = disc * (P + Q), disc * (Q - P)
    sn, base = cf._ramp_rule(s, np.max(k))
    xr = np.outer(k, R + sn)
    P, Q = cf._hankel_pq(0, xr)
    amp = np.sqrt(1.0 / (np.pi * xr))
    U, V = amp * (P + Q), amp * (P - Q)
    ph = np.outer(k, sn)
    c, sn_ph = np.cos(ph), np.sin(ph)
    w = 2.0 * np.pi * base * (R + sn)
    A = A + (V * c - U * sn_ph) @ w
    B = B + (U * c + V * sn_ph) @ w
    return A, B


def _ramp_moments_one_shot(s, ks, weight_r):
    sn, base = cf._ramp_rule(s, np.max(np.abs(ks)))
    if weight_r:
        base = base * (s.radius + sn)
    return np.cos(np.outer(ks, sn)) @ base, np.sin(np.outer(ks, sn)) @ base


def _ftilde_2d_one_shot(s, ks):
    R = s.radius
    out = 2.0 * np.pi * R * cf._bessel_j(1, ks * R) / ks
    sn, base = cf._ramp_rule(s, np.max(ks))
    rn = R + sn
    return out + 2.0 * np.pi * (cf._bessel_j(0, np.outer(ks, rn)) @ (base * rn))


@pytest.mark.parametrize("geometry, kfac, n", [
    pytest.param((50.0, 0.5, 0.05), 1.0, 961, id="961"),
    pytest.param((50.0, 0.5, 0.05), 1.0, 752, id="752"),
    pytest.param((31.0, 3.1, 0.05), 4.0, 961, id="4kmax-961"),
    pytest.param((31.0, 3.1, 0.05), 4.0, 730, id="4kmax-730")])
def test_envelope_2d_blocks_match_the_whole_tables(traced_peak, geometry, kfac, n):
    # the n3 scan's Filon grid (961 nodes) and geometric panels (752 nodes)
    # on its 72 ramp nodes, and k up to 4 kmax on 239 ramp nodes, each
    # ending on a ragged block; the ramp moments and the D = 2 J0 table of
    # ftilde_radial are (k, s) tables of the same shape
    s = spec(*geometry)
    ks = np.linspace(30.0 / s.radius, kfac * cf._kmax(s), n)
    width = cf._ramp_rule(s, np.max(ks))[0].size
    assert ragged(n, width)
    for mine, ref in zip(cf._envelope_2d(s, ks), _envelope_2d_one_shot(s, ks)):
        assert np.array_equal(mine, ref)
    for weight_r in (False, True):
        for mine, ref in zip(cf._ramp_moments(s, ks, weight_r),
                             _ramp_moments_one_shot(s, ks, weight_r)):
            assert np.array_equal(mine, ref)
    assert np.array_equal(cf.ftilde_radial(s, 2, ks), _ftilde_2d_one_shot(s, ks))
    # measured 0.83 MiB (envelope), 0.85 (ftilde_radial) and 0.27 (ramp
    # moments) at 961 nodes; 128-row blocks took 1.0 for the envelope, and
    # the whole tables 5.8, 6.6 and 1.1
    assert traced_peak(lambda: cf._envelope_2d(s, ks)) < 1.0
    assert traced_peak(lambda: cf.ftilde_radial(s, 2, ks)) < 1.05
    assert traced_peak(lambda: cf._ramp_moments(s, ks, True)) < 0.35


@pytest.mark.parametrize("rows", [None, 96, 200])
def test_lattice_blocks_match_the_whole_sum(monkeypatch, traced_peak, rows):
    # numpy's pairwise sum of the whole 512 x 512 table is a balanced tree
    # over its row sums, which the blocked sum rebuilds; the default budget
    # gives even blocks, and budgets of 96 and 200 rows end on ragged
    # blocks of 32 and 112 rows
    if rows:
        monkeypatch.setattr(quad, "_BLOCK_ENTRIES", rows * 512)
        assert ragged(512, 512)
    model = cf.ScalarModel(1.0, 2)
    for s in (spec(2.0, 1.0, 0.2), spec(3.5, 0.5, 0.1), spec(2.5, 0.7, 0.15)):
        N = 512
        a = 4.0 * (s.radius + s.ramp_width) / N
        xs = (np.arange(N) - N // 2) * a
        f = raised_cosine((np.abs(xs) - s.radius) / s.ramp_width)
        js = np.arange(N) - N // 2
        ks = 2.0 * np.pi * js / (N * a)
        ft = a * np.fft.fft(np.fft.ifftshift(f))[js % N]
        E = np.sqrt(model.mass**2 + (2.0 / a * np.sin(ks * a / 2.0)) ** 2)
        ft2 = np.abs(ft[(js[:, None] + js[None, :] + N // 2) % N]) ** 2
        Ep, Eq = E[:, None], E[None, :]
        val = (Ep - Eq) ** 2 / (4.0 * Ep * Eq) * ft2 * cf._g2(Ep + Eq, s.time_width)
        assert cf.charge_variance_lattice(model, s) == float(val.sum()) / (N * a) ** 2
    if rows is None:
        # measured 0.48 MiB; 128-row blocks took 3.5, the whole table 12.0
        assert traced_peak(lambda: cf.charge_variance_lattice(model, s)) < 0.6


def _ftilde_1d_differences_one_shot(s, p):
    # the whole f~(p_i - p_j) table, from whole C and S tables
    dd = p[:, None] - p[None, :]
    kk = np.where(np.abs(dd) < 1e-14, 1e-14, np.abs(dd))
    sn, base = cf._ramp_rule(s, np.max(kk))
    x = np.outer(s.radius + sn, p)
    C, S = np.cos(x), np.sin(x)
    ramp_part = (C.T * base) @ C + (S.T * base) @ S
    return 2.0 * (np.sin(kk * s.radius) / kk + ramp_part)


def _one_particle_deviation_one_shot(model, s, t_shift):
    # the whole 360 x 360 f~(p - p') and kernel tables
    m = model.mass
    pn, pw = gl_nodes(0.5 - 1.0, 0.5 + 1.0, 360)
    psi = smooth_bump((np.abs(pn - 0.5) - 0.125) / 0.125)
    E = np.sqrt(pn * pn + m * m)
    mu = pw / (2.0 * np.pi * 2.0 * E)
    ft = _ftilde_1d_differences_one_shot(s, pn)
    gh = np.exp(-0.5 * ((E[:, None] - E[None, :]) * s.time_width) ** 2)
    if t_shift != 0.0:
        gh = gh * np.exp(1j * (E[:, None] - E[None, :]) * t_shift)
    q_psi = ((E[:, None] + E[None, :]) * ft * gh) @ (mu * psi)
    dev = np.sum(mu * np.abs(q_psi - psi) ** 2)
    return float(np.real(dev)) / float(np.sum(mu * psi**2))


@pytest.mark.parametrize("R, rows", [
    pytest.param(4.0, None, id="4.0"), pytest.param(64.0, None, id="64.0"),
    pytest.param(4.0, 48, id="4.0-48rows"), pytest.param(64.0, 48, id="64.0-48rows")])
@pytest.mark.parametrize("t_shift", [0.0, 0.1])
def test_global_limit_blocks_match_the_whole_tables(monkeypatch, traced_peak, R,
                                                    rows, t_shift):
    # the global limit's 360 packet nodes: 22 blocks of 16 and a ragged one
    # of 8 at the default budget, and seven of 48 and one of 24 at a budget
    # of 48 rows
    model = cf.ScalarModel(1.0, 2)
    s = spec(R, 1.0, 0.2)
    if rows:
        monkeypatch.setattr(quad, "_BLOCK_ENTRIES", rows * 360)
        assert ragged(360, 360)
    assert (cf._one_particle_deviation(model, s, t_shift)
            == _one_particle_deviation_one_shot(model, s, t_shift))
    if rows is None:
        # measured 0.60 MiB (real kernel) and 0.73 MiB (t_shift); 128-row
        # blocks took 3.4 and 4.5, the whole tables 5.2 and 6.1
        assert traced_peak(lambda: cf._one_particle_deviation(model, s, t_shift)) < 0.9


@pytest.mark.parametrize("geometry", [(4.0, 1.0, 0.2), (16.0, 10.0, 0.2)])
@pytest.mark.parametrize("rows", [None, 48])
def test_ftilde_1d_differences_blocks_match_the_whole_table(monkeypatch, geometry,
                                                            rows):
    # f~(p_i - p_j) on the packet's 360 nodes, in row blocks, from C and S
    # formed in row blocks of the ramp nodes: 32 of them at dR = 1 (two
    # blocks of 16) and 44 at dR = 10 (a ragged block of 12).  A budget of
    # 48 rows ends the table on a ragged block of 24.  At other column counts
    # the GEMMs round some rows differently from the whole table's, at any
    # block height, so the test keeps the 360 columns the limit uses
    if rows:
        monkeypatch.setattr(quad, "_BLOCK_ENTRIES", rows * 360)
    s = spec(*geometry)
    p, _ = gl_nodes(-0.5, 1.5, 360)
    got = np.empty((360, 360))
    for blk, block in cf._ftilde_1d_differences(s, p):
        got[blk] = block
    assert np.array_equal(got, _ftilde_1d_differences_one_shot(s, p))
