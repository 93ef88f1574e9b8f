import numpy as np
import pytest

from modloc_lab import chiral_ej as ce
from modloc_lab import profiles
from modloc_lab.errors import ConfigurationError, DomainError, FitError, NumericError
from modloc_lab.quadrature import gauss_legendre, gl_nodes, linear_fit

TWO_PI = 2.0 * np.pi
N0 = 1.0 / (4.0 * np.pi**2)

# closed-form kernel values (eps -> 0)
VAC_AT_1 = -N0                                       # -1/(4 pi^2) ~ -0.025330
TH_2PI_AT_1 = -(1.0 / (16 * np.pi**2)) / np.sinh(0.5) ** 2


def bump(center=0.5, plateau=0.4, ramp=0.3, amplitude=1.0):
    return ce.SmearingFn(center, plateau, ramp, amplitude=amplitude)


def test_kernel_values():
    vac = ce.vacuum_kernel()
    assert complex(ce.current_two_point(vac, 1.0, 0.0)).real == pytest.approx(VAC_AT_1, rel=1e-9)
    assert VAC_AT_1 == pytest.approx(-0.025330, abs=1e-6)
    th = ce.thermal_kernel(TWO_PI)
    assert complex(ce.current_two_point(th, 1.0, 0.0)).real == pytest.approx(TH_2PI_AT_1, rel=1e-9)


def test_thermal_short_distance_limit():
    th = ce.thermal_kernel(5.0)
    vac = ce.vacuum_kernel()
    for du in (0.1, 0.01, 0.001):
        ratio = complex(ce.current_two_point(th, du, 0.0)
                        / ce.current_two_point(vac, du, 0.0))
        assert abs(ratio - 1.0) < 2.0 * du**2


@pytest.mark.parametrize("beta", [1.0, 2.0, TWO_PI])
def test_image_sum_consistency(beta):
    k = ce.thermal_kernel(beta)
    for du in (0.3, 1.0, 2.7):
        direct = ce.current_two_point(k, du, 0.0)
        imaged = ce.thermal_image_sum(k, du, 0.0)
        assert abs(imaged - direct) / abs(direct) < 1e-8


def test_kms_periodicity_complex_grid():
    for beta in (1.0, 2.0, TWO_PI):
        k = ce.thermal_kernel(beta)
        grid = np.linspace(0.2, 1.8, 9) * beta / 2 - 0.31j * beta
        assert ce.kms_periodicity_defect(k, grid) < 1e-10


def test_profile_derivatives_match_finite_differences():
    f = bump()
    us = np.linspace(-0.4, 1.4, 57)
    h = 1e-5
    fd1 = (f(us + h) - f(us - h)) / (2 * h)
    assert np.max(np.abs(fd1 - f.d1(us))) < 5e-7
    d1p = (f.d1(us + h) - f.d1(us - h)) / (2 * h)
    assert np.max(np.abs(d1p - f.d2(us))) < 5e-5


def test_current_variance_routes_agree():
    f = bump()
    for kernel in (ce.vacuum_kernel(), ce.thermal_kernel(TWO_PI)):
        pos = ce.smeared_current_variance(f, kernel)
        spec = ce.current_variance_spectral(f, kernel)
        assert abs(pos - spec) / spec < 1e-10


def test_energy_variance_routes_agree():
    f = bump()
    vac = ce.energy_variance(f, ce.vacuum_kernel())
    vac_s = ce.energy_variance_spectral(f, ce.vacuum_kernel())
    assert abs(vac - vac_s) / vac_s < 1e-9
    th = ce.energy_variance(f, ce.thermal_kernel(TWO_PI))
    th_s = ce.energy_variance_spectral(f, ce.thermal_kernel(TWO_PI))
    assert abs(th - th_s) / th_s < 1e-6


def test_variance_positivity_and_scaling():
    vac = ce.vacuum_kernel()
    f = bump()
    v = ce.smeared_current_variance(f, vac)
    assert v >= -1e-10
    f3 = bump(amplitude=3.0)
    v3 = ce.smeared_current_variance(f3, vac)
    assert v3 == pytest.approx(9.0 * v, rel=1e-10)
    # the amplitude scales the value and both derivatives, and a translate
    # keeps it
    u = np.linspace(0.0, 1.0, 11)
    for order in (0, 1, 2):
        ref = 3.0 * f.deriv(order)(u)
        assert f3.deriv(order)(u) == pytest.approx(ref, rel=1e-15, abs=0.0)
    assert f3.translated(0.25).amplitude == 3.0


def test_translation_covariance():
    vac = ce.vacuum_kernel()
    th = ce.thermal_kernel(3.0)
    f = bump()
    for kernel in (vac, th):
        a = ce.smeared_current_variance(f, kernel)
        b = ce.smeared_current_variance(f.translated(-1.7), kernel)
        assert abs(a - b) / a < 1e-10


def test_thermal_variance_exceeds_vacuum():
    f = bump()
    v_vac = ce.smeared_current_variance(f, ce.vacuum_kernel())
    v_th = ce.smeared_current_variance(f, ce.thermal_kernel(TWO_PI))
    assert v_th > v_vac


def test_variance_log_growth_in_sharp_ramp_limit():
    # Var ~ N [2 ln(R/dR) + const] for the current: fit against ln(1/dR)
    vac = ce.vacuum_kernel()
    ramps = [0.4 / 2**k for k in range(5)]
    vs = [ce.smeared_current_variance(ce.SmearingFn(0.0, 1.0, w), vac)
          for w in ramps]
    slope, _, r2 = linear_fit(np.log(1.0 / np.asarray(ramps)), np.asarray(vs))
    assert r2 > 0.99
    assert slope == pytest.approx(2.0 * N0, rel=0.08)


def test_dilation_covariance():
    # current with density weight is dilation invariant; T scales as lambda^2
    vac = ce.vacuum_kernel()
    f = bump(0.0, 0.5, 0.4)
    lam = 2.0
    f_l = ce.SmearingFn(0.0, 0.5 / lam, 0.4 / lam)
    vj = ce.smeared_current_variance(f, vac)
    vj_l = ce.smeared_current_variance(f_l, vac)
    assert vj_l == pytest.approx(vj, rel=1e-6)
    vt = ce.energy_variance(f, vac)
    vt_l = ce.energy_variance(f_l, vac)
    assert vt_l == pytest.approx(lam**2 * vt, rel=1e-6)


def test_exp_map_images():
    imap = ce.exp_map(TWO_PI, 0.0, 1.0)
    assert imap.image == pytest.approx((1.0, np.e), rel=1e-14)
    assert ce.exp_map(1.0, 0.0, 1.0).image[1] == pytest.approx(np.exp(TWO_PI), rel=1e-14)
    # doubling beta halves the exponent rate
    m1 = ce.exp_map(2.0, 0.0, 1.0)
    m2 = ce.exp_map(4.0, 0.0, 1.0)
    assert m2.apply(1.0) ** 2 == pytest.approx(m1.apply(1.0), rel=1e-12)
    # half-line region maps into (0, 1): the relative-commutant interval
    m = ce.exp_map(TWO_PI, -30.0, 0.0)
    assert 0.0 < m.image[0] < m.image[1] == pytest.approx(1.0)


# at beta = 1e6 and 1e12 exp(wu) - exp(wu') cancels as w = 2 pi / beta -> 0;
# the translated images expm1(wu) keep the defect near rounding
@pytest.mark.parametrize("beta", [1.0, 2.0, np.pi, TWO_PI, 10.0, 1e6, 1e12])
def test_isomorphism_identity(beta):
    imap = ce.exp_map(beta, 0.0, 1.0)
    us = np.linspace(0.03, 0.97, 11)
    grid = [(u, v) for u in us for v in us if abs(u - v) > 1e-3]
    assert ce.verify_isomorphism(imap, grid) < 1e-10


def test_isomorphism_diagonal_behavior():
    imap = ce.exp_map(TWO_PI, 0.0, 1.0)
    with pytest.raises(DomainError):
        ce.verify_isomorphism(imap, [(0.5, 0.5)])
    th = ce.thermal_kernel(TWO_PI)
    vac = ce.vacuum_kernel()
    for du in (1e-2, 1e-4):
        u, up = 0.5 + du, 0.5
        lhs = ce.current_two_point(th, u, up)
        rhs = (imap.jacobian(u) * imap.jacobian(up)
               * ce.current_two_point(vac, imap.apply(u), imap.apply(up)))
        assert abs(lhs / rhs - 1.0) < 1e-8    # both diverge together


def test_isomorphism_overflow_is_not_a_pass():
    # at beta = 1e-3, exp(2 pi u / beta) overflows: the defect is NaN, never
    # a running max() that keeps 0.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        imap = ce.exp_map(1e-3, 0.0, 1.0)
        defect = ce.verify_isomorphism(imap, [(0.1, 0.9), (0.9, 0.1)])
    assert not defect < 1.0


def test_ej_compare_rejects_overflowing_beta():
    # exp(2 pi * 1.5 / 0.01) overflows a float: rejected before any
    # quadrature, with no overflow warning
    with pytest.raises(ConfigurationError, match="beta = 0.01"):
        ce.ej_compare(ce.SmearingFn(0.0, 1.0, 0.5), 0.01)


def test_first_outer_panel_resolves_the_smallest_piece():
    # at small beta the exp-mapped smearing varies on scales far below its
    # smallest breakpoint difference; the outer rule must start below them
    g = ce.TransportedSmearing(ce.SmearingFn(0.0, 1.0, 0.5), 0.7)
    assert ce._outer_edges(g)[0] <= min(hi - lo for lo, hi in g.pieces(0))


def test_corr_derivative_stays_inside_the_pieces():
    # outer nodes of the beta = 0.5 transported bump where u - x rounded
    # just outside its f'' piece, which took log(0) in d2
    g = ce.TransportedSmearing(ce.SmearingFn(0.0, 1.0, 0.5), 0.5)
    xs = [67216049.0333344, 69124903.33727264, 71136237.19477645]
    assert np.all(np.isfinite(ce._corr_derivative(g, 1, 2, xs, 56)))


SUITE_GEOMETRIES = [(0.5, 0.4, 0.3), (0.0, 1.0, 0.5), (-0.3, 0.2, 0.6)]


def _fourier_sq_one_shot(f, ps):
    # the whole len(ps) x n phase table, exponentiated in place
    lo, hi = f.support
    pmax = float(np.max(np.abs(ps)))
    n = int(min(6000, max(160, 48 + 1.3 * pmax * (hi - lo) / np.pi)))
    un, uw = gl_nodes(lo, hi, n)
    ph = np.outer(-1j * ps, un)
    return np.abs(np.exp(ph, out=ph) @ (uw * f.deriv(0)(un))) ** 2


@pytest.mark.parametrize("geometry", SUITE_GEOMETRIES)
def test_fourier_sq_blocks_match_the_whole_table(traced_peak, geometry):
    # current_variance_spectral's 1600 momenta: twelve blocks of _ROWS and
    # a ragged one of 64
    f = ce.SmearingFn(*geometry)
    pn, _ = ce._panel_rule(0.0, ce._spectral_pmax(f), 16)
    assert pn.size == 1600 and 1 < pn.size % ce._ROWS
    assert np.array_equal(ce._fourier_sq(f, pn), _fourier_sq_one_shot(f, pn))
    # measured 0.7-1.1 MiB over the geometries; the whole table took 5.2-9.9
    assert traced_peak(lambda: ce._fourier_sq(f, pn)) < 1.4


def _integrate_per_panel(sm, corr_fn, kern, order_inner, order_outer):
    # one correlation call per outer panel, as the engine did before it
    # evaluated every panel's nodes in one call
    edges = ce._outer_edges(sm)
    total = 0.0
    for a, b in zip(np.concatenate([[0.0], edges[:-1]]), edges):
        xn, xw = gl_nodes(a, b, order_outer)
        total += float(np.sum(xw * corr_fn(xn, order_inner) * kern(xn)))
    return 2.0 * total


@pytest.mark.parametrize("geometry", SUITE_GEOMETRIES)
@pytest.mark.parametrize("case", ["thermal", "vacuum", "transported"])
def test_by_parts_matches_the_per_panel_loop(monkeypatch, geometry, case):
    f = ce.SmearingFn(*geometry)
    sm, kernel = {
        "thermal": (f, ce.thermal_kernel(TWO_PI)),
        "vacuum": (f, ce.vacuum_kernel()),
        "transported": (ce.TransportedSmearing(f, TWO_PI), ce.vacuum_kernel()),
    }[case]
    runs = [(which, oi, oo) for which in ("current", "energy")
            for oi, oo in ((56, 26), (88, 42))]
    got = [ce._variance_by_parts(sm, kernel, *run) for run in runs]
    monkeypatch.setattr(ce, "_integrate_against", _integrate_per_panel)
    ref = [ce._variance_by_parts(sm, kernel, *run) for run in runs]
    assert got == pytest.approx(ref, rel=1e-15, abs=0.0)


def test_inner_rule_is_the_unit_interval_rule(monkeypatch):
    # gl_nodes(0, 1, n) is the [-1, 1] rule halved, bit for bit, and it is
    # the rule the correlation engine asks for
    for n in (56, 88):
        tn, tw = gauss_legendre(n)
        un, uw = gl_nodes(0.0, 1.0, n)
        assert np.array_equal(un, 0.5 * (tn + 1.0))
        assert np.array_equal(uw, 0.5 * tw)
    rules = []

    def recorded(a, b, n):
        rules.append((a, b, n))
        return gl_nodes(a, b, n)

    monkeypatch.setattr(ce, "gl_nodes", recorded)
    ce._corr_derivative(bump(), 1, 2, [0.1], 56)
    assert rules == [(0.0, 1.0, 56)]


def test_corr_derivative_evaluates_bounded_blocks():
    # every outer node goes into one call, but the smearing sees at most
    # _ROWS of them at a time, so the memory does not grow with the panels
    g = ce.TransportedSmearing(bump(0.0, 1.0, 0.5), TWO_PI)
    xs, _ = gl_nodes(0.0, g.support[1] - g.support[0], 5 * ce._ROWS)
    rows = []

    class Recording(ce.TransportedSmearing):
        def deriv(self, order):
            fn = super().deriv(order)

            def recorded(x):
                rows.append(x.shape[0])
                return fn(x)
            return recorded

    rec = Recording(bump(0.0, 1.0, 0.5), TWO_PI)
    got = ce._corr_derivative(rec, 1, 2, xs, 56)
    assert 0 < max(rows) <= ce._ROWS
    # BLAS may round a row differently at another row count
    ref = np.concatenate([ce._corr_derivative(g, 1, 2, xs[i:i + 50], 56)
                          for i in range(0, xs.size, 50)])
    assert np.max(np.abs(got - ref)) < 1e-14 * np.max(np.abs(ref))


def _log_image(g, segments):
    # each segment of the lightray mapped by x = exp(w u), cut into pieces
    # of at most 0.4 in ln x
    out = []
    for a, b in segments:
        lo, hi = np.exp(g.w * a), np.exp(g.w * b)
        n_sub = max(1, int(np.ceil(np.log(hi / lo) / 0.4)))
        edges = np.exp(np.linspace(np.log(lo), np.log(hi), n_sub + 1))
        out.extend(zip(edges[:-1], edges[1:]))
    return out


@pytest.mark.parametrize("beta", [TWO_PI, 0.7])
@pytest.mark.parametrize("geometry", SUITE_GEOMETRIES)
def test_transported_pieces_are_the_images_of_the_smearings(geometry, beta):
    # g^(k) lives where f^(k-1) does: g'' = (f' + f''/w)/x is exactly 0 on
    # the image of the plateau, so no order-2 piece enters it
    f = ce.SmearingFn(*geometry)
    g = ce.TransportedSmearing(f, beta)
    for k in (0, 1, 2):
        assert g.pieces(k) == _log_image(g, f.pieces(max(k - 1, 0)))
    lo, hi = np.exp(g.w * f.breakpoints[1]), np.exp(g.w * f.breakpoints[2])
    assert all(b <= lo or a >= hi for a, b in g.pieces(2))
    assert np.all(g.d2(np.geomspace(lo, hi, 101)) == 0.0)


class _AllPieces(ce.TransportedSmearing):
    # the whole support at every order, zeros of the derivative included
    def pieces(self, order):
        return super().pieces(0)


@pytest.mark.parametrize("beta, n_pairs", [(TWO_PI, 36), (0.7, 1656)])
def test_corr_derivative_walks_only_the_nonzero_piece_pairs(beta, n_pairs):
    # geometry 1 cuts into 9 pieces at beta = 2 pi, 4 of which carry g''
    # (69 and 24 at 0.7), so one C''' call walks 9 x 4 pairs, not 9 x 9
    sizes = []

    class Recording(ce.TransportedSmearing):
        def pieces(self, order):
            out = super().pieces(order)
            sizes.append((order, len(out)))
            return out

    ce._corr_derivative(Recording(ce.SmearingFn(*SUITE_GEOMETRIES[1]), beta),
                        1, 2, [0.1], 56)
    assert sum(n for order, n in sizes if order == 2) == n_pairs


@pytest.mark.parametrize("beta", [TWO_PI, 0.7])
@pytest.mark.parametrize("geometry", SUITE_GEOMETRIES)
def test_skipped_piece_pairs_add_exact_zeros(geometry, beta):
    # dropping the plateau image from g'' leaves C''' unchanged bit for bit
    f = ce.SmearingFn(*geometry)
    g = ce.TransportedSmearing(f, beta)
    xs, _ = gl_nodes(0.0, g.support[1] - g.support[0], 7)
    got = ce._corr_derivative(g, 1, 2, xs, 56)
    assert np.any(got != 0.0)
    assert np.array_equal(got, ce._corr_derivative(_AllPieces(f, beta), 1, 2, xs, 56))


@pytest.mark.parametrize("kernel, n_calls", [(ce.thermal_kernel(TWO_PI), 4),
                                             (ce.vacuum_kernel(), 2)])
def test_energy_variance_one_correlation_pass_per_integral(monkeypatch, kernel,
                                                           n_calls):
    # two rule orders; the thermal energy integrates C' and C''', the
    # vacuum one C''' only, each over every outer panel in one call
    calls = []
    corr = ce._corr_derivative

    def counted(*args):
        calls.append(args)
        return corr(*args)

    monkeypatch.setattr(ce, "_corr_derivative", counted)
    ce.energy_variance(bump(), kernel)
    assert len(calls) == n_calls


@pytest.mark.parametrize("gap, current_ok, energy_ok", [(5e-8, True, True),
                                                         (5e-7, True, False),
                                                         (5e-6, False, False)])
def test_variance_tolerances_are_fixed(monkeypatch, gap, current_ok, energy_ok):
    # the two rule orders must agree to 1e-6 (current) and 1e-7 (energy),
    # relative; no caller can pass another tolerance
    def by_parts(sm, kernel, which, order_inner, order_outer):
        return 1.0 + (gap if order_inner > 56 else 0.0)

    monkeypatch.setattr(ce, "_variance_by_parts", by_parts)
    for fn, ok in ((ce.smeared_current_variance, current_ok),
                   (ce.energy_variance, energy_ok)):
        if ok:
            assert fn(bump(), ce.vacuum_kernel()) == 1.0 + gap
        else:
            with pytest.raises(NumericError, match="not converged"):
                fn(bump(), ce.vacuum_kernel())


def test_bump_ramp_derivatives_match_the_exponential_formulas():
    # h' = exp(-1/t) / t^2 and h'' = exp(-1/t) (1 - 2t) / t^4, each with its
    # own exponential, on a grid straddling the floor of h, s = 0 and s = 1
    fl = profiles._T_FLOOR
    s = np.concatenate([np.linspace(-0.5, 1.5, 20001),
                        [0.0, 1.0, fl, 1.0 - fl, np.nextafter(fl, 0.0),
                         np.nextafter(fl, 1.0), 1.0 - np.nextafter(fl, 1.0)]])

    def hp(t):
        out = np.zeros_like(t)
        m = t > fl
        out[m] = np.exp(-1.0 / t[m]) / t[m] ** 2
        return out

    def hpp(t):
        out = np.zeros_like(t)
        m = t > fl
        out[m] = np.exp(-1.0 / t[m]) * (1.0 - 2.0 * t[m]) / t[m] ** 4
        return out

    a, b = profiles._h(1.0 - s), profiles._h(s)
    ap, bp = -hp(1.0 - s), hp(s)
    den = np.where(a + b == 0.0, 1.0, a + b)
    edge = (s <= 0.0) | (s >= 1.0)
    num = ap * b - a * bp
    d1 = np.where(edge, 0.0, num / den**2)
    nump = hpp(1.0 - s) * b - a * hpp(s)
    d2 = np.where(edge, 0.0, (nump * den - 2.0 * num * (ap + bp)) / den**3)
    assert np.array_equal(profiles.smooth_bump_d1(s), d1)
    assert np.array_equal(profiles.smooth_bump_d2(s), d2)


def test_ej_compare_other_beta_and_zero():
    cmp = ce.ej_compare(ce.SmearingFn(0.0, 0.12, 0.13), 1.0)
    assert cmp.rel_diff < 1e-6
    zero = ce.ej_compare(bump(amplitude=0.0), TWO_PI)
    assert zero.thermal_variance == 0.0
    assert zero.transported_variance == 0.0
    assert zero.rel_diff == 0.0


def test_ej_compare_stable_under_support_halving():
    # the full-size bump(0.5, 0.4, 0.3) is the ej-fluct suite's geometry-0,
    # asserted at the same tolerance by the acceptance tests
    assert ce.ej_compare(bump(0.25, 0.2, 0.15), TWO_PI).rel_diff < 1e-6


def test_transported_smearing_chain_rule():
    f = bump()
    tr = ce.TransportedSmearing(f, TWO_PI)
    xs = np.linspace(tr.support[0] * 1.01, tr.support[1] * 0.99, 41)
    h = 1e-6
    fd = (tr.value(xs + h) - tr.value(xs - h)) / (2 * h)
    assert np.max(np.abs(fd - tr.d1(xs))) < 1e-5
    fd2 = (tr.d1(xs + h) - tr.d1(xs - h)) / (2 * h)
    assert np.max(np.abs(fd2 - tr.d2(xs))) < 1e-4


def test_entropy_relation_check():
    # the suite's chain and temperature: at 600 sites the fixed calibration
    # interval fits at R^2 = 0.9920, too close to the bound to pin
    rep = ce.entropy_relation_check(
        [40, 80, 120, 160], [1.0, 0.5, 0.25, 0.125], n_sites=1200, beta=TWO_PI)
    assert rep.thermal_r2 > 0.99
    assert rep.localization_r2 > 0.99
    assert rep.calibration_ratio > 0
    assert len(rep.thermal_entropies) == 4
    assert all(b > a for a, b in zip(rep.thermal_entropies[:-1],
                                     rep.thermal_entropies[1:]))
    with pytest.raises(FitError):
        ce.entropy_relation_check([40, 80], [1.0, 0.5], n_sites=1200,
                                  beta=TWO_PI)
    with pytest.raises(FitError):                  # no spread in L to fit
        ce.entropy_relation_check([40, 40, 40, 40], [1.0, 0.5, 0.25, 0.125],
                                  n_sites=1200, beta=TWO_PI)


def test_kernel_validation():
    with pytest.raises(ConfigurationError):
        ce.ChiralKernel("thermal")                    # missing beta
    with pytest.raises(ConfigurationError):
        ce.SmearingFn(0.0, -1.0, 0.5)
