import tracemalloc

import numpy as np
import pytest

from modloc_lab import crossing_zf as cz
from modloc_lab.errors import ConfigurationError, DomainError, NumericError
from modloc_lab.quadrature import gl_nodes, row_blocks


def right_fn(ct=0.2, cx=2.0, wt=0.6, wx=0.8):
    return cz.WedgeTestFn(ct, cx, wt, wx)


# the crossing suite's default 20 x 20 rapidity grid
T1 = np.linspace(-1.5, 1.5, 20)
T2 = np.linspace(-1.2, 1.8, 20)


def inner(state_a, state_b):
    tot = 0.0 + 0.0j
    w = state_a.weights
    for ca, cb in zip(state_a.components, state_b.components):
        k = 0 if ca.shape == () else ca.ndim
        t = np.conj(ca) * cb
        for _ in range(k):
            t = np.tensordot(w, t, axes=([0], [0]))
        tot += complex(t)
    return tot


# ----- wedge support and strip analyticity -----

def test_wedge_classification():
    assert right_fn().wedge == "right"
    assert cz.WedgeTestFn(0.2, -2.0, 0.6, 0.8).wedge == "left"
    with pytest.raises(DomainError):
        cz.WedgeTestFn(0.0, 0.5, 0.6, 0.8)   # straddles the edge


def test_strip_analyticity_and_involution():
    rf = cz.mass_shell_restrict(right_fn())
    assert rf.cauchy_riemann_residual() < 1e-11
    assert rf.involution_defect() < 1e-8


def test_left_wedge_fails_convergence():
    with pytest.raises(NumericError):
        cz.mass_shell_restrict(cz.WedgeTestFn(0.2, -2.0, 0.6, 0.8))


def test_mass_only_sets_the_unit_of_length():
    # the engine works at mass 1: a free field of mass m smeared on boxes
    # B / m is the unit-mass field on boxes B, m^2 fhat_{B/m}(m p) = fhat_B(p)
    th = np.linspace(-2.5, 2.5, 21)
    for ct, cx, wt, wx in ((0.0, 2.5, 0.7, 0.9), (0.2, 2.0, 0.6, 0.8),
                           (0.0, 0.45, 0.15, 0.2)):
        f = cz.WedgeTestFn(ct, cx, wt, wx)
        for sign in (1.0, -1.0):
            p0, p1 = cz._on_shell(th, sign)
            ref = f.fourier(p0, p1)
            for m in (0.5, 2.0, 10.0):
                g = cz.WedgeTestFn(ct / m, cx / m, wt / m, wx / m)
                got = m ** 2 * g.fourier(m * p0, m * p1)
                assert np.max(np.abs(got - ref)) < 1e-13 * np.max(np.abs(ref))


def test_translation_along_edge_is_a_phase():
    f = right_fn()
    g = cz.WedgeTestFn(f.center_t + 0.4, f.center_x + 0.4, f.half_width_t,
                       f.half_width_x)
    th = np.linspace(-1.2, 1.2, 9)
    a = f.mass_shell(th)
    b = g.mass_shell(th)
    # lightlike translation multiplies by exp(-i p.c); moduli must agree
    assert np.max(np.abs(np.abs(b) - np.abs(a)) / np.max(np.abs(a))) < 1e-12
    phase = b / a
    assert np.max(np.abs(np.abs(phase) - 1.0)) < 1e-10


# ----- crossing -----

def test_free_crossing_identity():
    for g in (right_fn(0.0, 2.5, 0.7, 0.9), right_fn(0.3, 3.0, 0.5, 0.8),
              right_fn(-0.2, 2.2, 0.6, 0.7)):
        rep = cz.free_crossing_check(g, T1, T2)
        assert rep.max_rel_defect < 1e-6


def test_formfactor_hermiticity():
    # for real g (B* = B): <t1,t2|B|0> = conj <0|B|t1,t2>; the ket is the
    # outer-grid transform, the bra per-point quadratures of g~ on the same
    # 20 x 20 real rapidity grid
    g = right_fn(0.0, 2.5, 0.7, 0.9)
    ket = cz.pair_formfactor(g, T1, T2)
    A1, A2 = np.meshgrid(T1, T2, indexing="ij")
    p0 = np.cosh(A1) + np.cosh(A2)
    p1 = np.sinh(A1) + np.sinh(A2)
    bra = 2.0 * cz.C0_SQ * g.fourier(p0.ravel(), p1.ravel()).reshape(A1.shape)
    assert ket.shape == (20, 20)
    assert np.max(np.abs(bra - np.conj(ket))) / np.max(np.abs(ket)) < 1e-12


def test_formfactor_grids_match_pointwise_quadrature():
    # both GEMM grids against per-point g~ on a 7 x 11 grid: with n1 != n2 a
    # transposed axis cannot hide
    g = right_fn(0.3, 3.0, 0.5, 0.8)
    t1 = np.linspace(-1.5, 1.5, 7)
    t2 = np.linspace(-1.2, 1.8, 11)
    T1, T2 = np.meshgrid(t1 + 1j * np.pi, t2.astype(complex), indexing="ij")
    for got, sign, a in (
            (cz.pair_formfactor(g, t1 + 1j * np.pi, t2), -1.0, T1),
            (cz.crossed_formfactor(g, t1, t2), 1.0, T1.real)):
        p0 = sign * np.cosh(a) - np.cosh(T2)
        p1 = sign * np.sinh(a) - np.sinh(T2)
        ref = 2.0 * cz.C0_SQ * g.fourier(p0.ravel(), p1.ravel()).reshape(a.shape)
        assert got.shape == (7, 11)
        assert np.max(np.abs(got - ref)) < 1e-13 * np.max(np.abs(ref))


def test_free_crossing_needs_right_wedge():
    with pytest.raises(DomainError):
        cz.free_crossing_check(cz.WedgeTestFn(0.0, -2.5, 0.7, 0.9),
                               T1, T2)


def test_kms_identity_and_cyclicity():
    g = right_fn(0.0, 2.5, 0.7, 0.9)
    f1 = right_fn(-0.1, 2.2, 0.5, 0.7)
    f2 = right_fn(0.0, 0.45, 0.15, 0.2)
    rep = cz.kms_free_identity(g, f1, f2)
    assert rep.rel_diff < 1e-6
    # free Bose fields: swapping the smearings leaves the Wick value alone,
    # which is the KMS-cyclicity consistency of the two-point instance
    f1b = right_fn(0.0, 0.4, 0.1, 0.15)
    rep_swapped = cz.kms_free_identity(g, f2, f1b)
    rep_direct = cz.kms_free_identity(g, f1b, f2)
    assert rep_swapped.rel_diff < 1e-6
    assert rep_direct.lhs == pytest.approx(rep_swapped.lhs, rel=1e-9)


def test_kms_identity_runs_through_the_crossed_formfactor(monkeypatch):
    # a crossed element that forgets to flip the outgoing momentum is no
    # longer the contour-shifted pair formfactor; the identity must see it.
    # crossed_formfactor and the identity's blocked contraction read their
    # momenta from the one definition, _crossed_shells
    def wrong_sign(theta1, theta2):
        return cz._on_shell(theta1, -1.0), cz._on_shell(theta2, -1.0)

    g = right_fn(0.0, 2.5, 0.7, 0.9)
    f1 = right_fn(-0.1, 2.2, 0.5, 0.7)
    f2 = right_fn(0.0, 0.45, 0.15, 0.2)
    assert cz.kms_free_identity(g, f1, f2).rel_diff < 1e-6
    monkeypatch.setattr(cz, "_crossed_shells", wrong_sign)
    assert np.array_equal(cz.crossed_formfactor(g, T1[:3], T2[:3]),
                          cz.pair_formfactor(g, T1[:3], T2[:3]))
    assert cz.kms_free_identity(g, f1, f2).rel_diff > 1e-6


def test_kms_identity_ordering_precondition():
    g = right_fn(0.0, 2.5, 0.7, 0.9)
    f1 = right_fn(-0.1, 2.2, 0.5, 0.7)
    with pytest.raises(DomainError):
        cz.kms_free_identity(g, f1, right_fn(0.0, 3.5, 0.3, 0.4))


def test_kms_spacelike_decay_is_correlated():
    g = right_fn(0.0, 2.6, 0.5, 0.6)
    f1 = right_fn(-0.1, 2.2, 0.5, 0.7)
    f2 = cz.WedgeTestFn(0.0, 0.45, 0.1, 0.15)
    mags = []
    for shift in (0.0, 0.6, 1.2):
        # move f1 lightlike away from g: both sides must decay together
        f1s = cz.WedgeTestFn(f1.center_t + shift, f1.center_x + shift,
                             f1.half_width_t, f1.half_width_x)
        rep = cz.kms_free_identity(g, f1s, f2)
        mags.append(abs(rep.lhs))
        assert rep.rel_diff < 1e-5
    assert mags[0] > mags[1] > mags[2]


def test_crossing_and_kms_agree():
    g = right_fn(0.0, 2.5, 0.7, 0.9)
    cross = cz.free_crossing_check(g, T1, T2).max_rel_defect
    kms = cz.kms_free_identity(g, right_fn(-0.1, 2.2, 0.5, 0.7),
                               right_fn(0.0, 0.45, 0.15, 0.2)).rel_diff
    floor = 1e-12
    assert kms <= 10 * (cross + floor)
    assert cross <= 10 * (kms + floor)


@pytest.mark.parametrize("n", [480, 184, 187])
def test_kms_contraction_matches_the_whole_grids(n):
    # the factored contraction of both KMS sides against the whole pair and
    # crossed form-factor grids, contracted in one expression, on the
    # crossing suite's rapidity range.  480 is the suite's node count (whole
    # row blocks); 184 and 187 end on a ragged block.  The contraction sums
    # in another order than the grids, so the two agree to rounding
    g = right_fn(0.0, 2.5, 0.7, 0.9)
    f1 = right_fn(-0.1, 2.2, 0.5, 0.7)
    f2 = right_fn(0.0, 0.45, 0.15, 0.2)
    cut = max(cz._rapidity_cutoff(f1), cz._rapidity_cutoff(f2), 1.5)
    tn, tw = gl_nodes(-cut, cut, n)
    sizes = [b.stop - b.start for b in row_blocks(n, cz._ORDER)]
    assert (sizes[-1] < sizes[0]) == (n != 480)
    w1 = tw * f1.creation_wave(tn)
    w2 = tw * f2.creation_wave(tn)
    w2c = tw * f2.mass_shell(tn)
    lhs = w1 @ cz.pair_formfactor(g, tn, tn) @ w2
    rhs = w1 @ cz.crossed_formfactor(g, tn, tn).T @ w2c
    for got, ref in (
            (cz._kms_contraction(g, cz._pair_shells(tn, tn), w1, w2), lhs),
            (cz._kms_contraction(g, cz._crossed_shells(tn, tn), w2c, w1), rhs)):
        assert abs(got - ref) <= 1e-15 * abs(ref)
    if n == 480:        # the identity itself runs on these nodes
        assert max(90, int(80 * cut)) == n
        rep = cz.kms_free_identity(g, f1, f2)
        assert abs(rep.lhs - cz.C0_SQ * lhs) <= 1e-15 * abs(cz.C0_SQ * lhs)


def test_kms_identity_holds_no_grid(traced_peak):
    # measured 1.28 MiB: six row blocks of phase tables and the two
    # _ORDER x _ORDER factors.  The per-block grid contraction it replaces
    # took 2.3, whole phase tables on both sides 4.8, and the whole grids
    # and their temporaries 8.5
    g = right_fn(0.0, 2.5, 0.7, 0.9)
    f1 = right_fn(-0.1, 2.2, 0.5, 0.7)
    f2 = right_fn(0.0, 0.45, 0.15, 0.2)
    assert traced_peak(lambda: cz.kms_free_identity(g, f1, f2)) < 1.5


def _fourier_one_shot(f, p0, p1):
    # the unblocked transform: whole (n x _ORDER) phase tables
    tn, wt, xn, wx = f._weighted_nodes()
    return ((np.exp(1j * np.multiply.outer(p0, tn)) @ wt)
            * (np.exp(-1j * np.multiply.outer(p1, xn)) @ wx))


def _fourier_outer_one_shot(f, pa, pb):
    # the unblocked grid: whole phase tables on both sides, one GEMM each
    tn, wt, xn, wx = f._weighted_nodes()
    rt = np.exp(1j * np.multiply.outer(pa[0], tn)) * wt
    rx = np.exp(-1j * np.multiply.outer(pa[1], xn)) * wx
    ct = np.exp(1j * np.multiply.outer(tn, pb[0]))
    cx = np.exp(-1j * np.multiply.outer(xn, pb[1]))
    out = rt @ ct
    out *= rx @ cx
    return out


@pytest.mark.parametrize("n", [120, 187])
def test_fourier_blocks_match_one_shot_tables(n):
    # 120 rapidities (the benchmark's crossing grid) and 187 span several row
    # blocks of both transforms and end on a partial one.  Each block rounds
    # as the whole table does
    g = right_fn(0.0, 2.5, 0.7, 0.9)
    t1 = np.linspace(-1.5, 1.5, n)
    t2 = np.linspace(-1.2, 1.8, n)
    assert len(row_blocks(n, cz._ORDER)) > 1 and len(row_blocks(n, n)) > 1
    for theta in (t1, t1 + 1j * np.pi, t1 + 0.4j):
        for sign in (1.0, -1.0):
            p0, p1 = cz._on_shell(theta, sign)
            assert np.array_equal(g.fourier(p0, p1), _fourier_one_shot(g, p0, p1))
    for shells in (cz._pair_shells(t1 + 1j * np.pi, t2),
                   cz._crossed_shells(t1, t2)):
        assert np.array_equal(g.fourier_outer(*shells),
                              _fourier_outer_one_shot(g, *shells))


# ----- S matrix -----

def test_smatrix_coupling_off_limit():
    S = cz.SMatrixModel(1e-8)
    th = np.array([0.5, 1.0, 3.0])
    assert np.max(np.abs(S(th) - 1.0)) < 1e-7


def test_smatrix_validation():
    with pytest.raises(ConfigurationError):
        cz.SMatrixModel(0.0)


# ----- ZF algebra -----

THETAS = np.linspace(-3.0, 3.0, 90)
FV = np.exp(-((THETAS - 0.4) ** 2))
GV = np.exp(-((THETAS + 0.3) ** 2) / 0.5)


def two_particle(S, f, g, thetas):
    """Z*(f) Z*(g) |0> written out pointwise, the k = 1 oracle of
    _insert_packet: (f(a) g(b) + S(t_b - t_a) f(b) g(a)) / sqrt 2."""
    smat = S(thetas[None, :] - thetas[:, None])    # smat[a, b] = S(t_b - t_a)
    return (f[:, None] * g[None, :] + smat * f[None, :] * g[:, None]) / np.sqrt(2.0)


@pytest.mark.parametrize("b", [0.3, 1.0, 2.5])
def test_exchange_relation(b):
    S = cz.SMatrixModel(b)
    assert cz.zf_exchange_check(S, FV, GV, THETAS) < 1e-10
    assert cz.zf_double_exchange_check(S, FV, GV, THETAS) < 1e-12


def test_exchange_check_runs_through_the_insertion(monkeypatch):
    # an insertion that drops its S factor builds the free symmetric
    # product, which breaks the exchange relation for any S != 1
    insert = cz._insert_packet

    def unit_s(theta):
        return np.ones_like(np.asarray(theta, complex))

    S = cz.SMatrixModel(1.0)
    assert cz.zf_exchange_check(S, FV, GV, THETAS) < 1e-10
    monkeypatch.setattr(cz, "_insert_packet",
                        lambda _, f, psi, th: insert(unit_s, f, psi, th))
    assert cz.zf_exchange_check(S, FV, GV, THETAS) > 1e-10


@pytest.mark.parametrize("b", [0.3, 1.0, 2.5])
def test_associativity_paths(b):
    th = np.linspace(-2.5, 2.5, 36)
    S = cz.SMatrixModel(b)
    d = cz.zf_associativity_check(
        S, np.exp(-((th - 0.5) ** 2)), np.exp(-(th**2) / 0.8),
        np.exp(-((th + 0.6) ** 2) / 1.2), th)
    assert d < 1e-10


def _associativity_by_paths(S, f_vals, g_vals, h_vals, thetas):
    # the whole-tensor form: psi of all three rapidities and the
    # transposition steps t12, t23 applied to it
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


@pytest.mark.parametrize("n", [36, 40, 41])
def test_associativity_slabs_match_the_path_form(n):
    th = np.linspace(-2.5, 2.5, n)
    packets = (np.exp(-((th - 0.5) ** 2)), np.exp(-(th**2) / 0.8),
               np.exp(-((th + 0.6) ** 2) / 1.2))
    for b in (0.3, 1.0, 2.5):
        S = cz.SMatrixModel(b)
        assert (cz.zf_associativity_check(S, *packets, th)
                == _associativity_by_paths(S, *packets, th))


def test_associativity_check_holds_one_slab(traced_peak):
    # the suite's 40 nodes: measured 0.20 MiB; the whole tensors took 4.42
    th = np.linspace(-2.5, 2.5, 40)
    args = (cz.SMatrixModel(1.0), np.exp(-((th - 0.5) ** 2)),
            np.exp(-(th**2) / 0.8), np.exp(-((th + 0.6) ** 2) / 1.2), th)
    assert traced_peak(lambda: cz.zf_associativity_check(*args)) < 0.3


def test_coincident_packets_fermionic_at_equal_rapidity():
    # f = g: S(0) = -1 forces the two-particle function to vanish on the
    # diagonal (effective Pauli exclusion at coincident rapidities)
    S = cz.SMatrixModel(1.0)
    psi = cz._insert_packet(S, FV, FV, THETAS)
    diag = np.abs(np.diag(psi))
    assert np.max(diag) < 1e-12
    assert np.max(np.abs(psi)) > 0.1


def test_free_field_degeneration_ccr():
    class TrivialS:
        def __call__(self, th):
            return np.ones_like(np.asarray(th, complex))

    S1 = TrivialS()
    st = cz.zf_vacuum(n_grid=12, k_max=3)
    tn = st.theta_grid
    f = np.exp(-((tn - 0.5) ** 2))
    h = np.exp(-((tn + 0.7) ** 2) / 0.6)
    created = cz.zf_apply("create", f, st, S1)
    back = cz.zf_apply("annihilate", h, created, S1)
    ip = complex(np.sum(st.weights * np.conj(h) * f))
    assert complex(back.components[0]) == pytest.approx(ip, rel=1e-12)
    # symmetric two-particle function, no S dressing
    two = cz.zf_apply("create", h, created, S1).components[2]
    assert np.max(np.abs(two - two.T)) < 1e-14


def test_zf_adjointness():
    S = cz.SMatrixModel(1.3)
    st = cz.zf_vacuum(n_grid=10, k_max=3)
    tn = st.theta_grid
    f = np.exp(-(tn**2))
    a = cz.zf_apply("create", np.exp(-((tn - 0.4) ** 2)), st, S)
    a = cz.zf_apply("create", np.exp(-((tn + 0.2) ** 2) / 0.7), a, S)
    b = cz.zf_apply("create", np.exp(-((tn - 0.1) ** 2) / 1.3), st, S)
    b = cz.zf_apply("create", np.exp(-((tn + 0.6) ** 2)), b, S)
    b = cz.zf_apply("create", np.exp(-(tn**2) / 0.9), b, S)
    lhs = inner(cz.zf_apply("create", f, a, S), b)
    rhs = inner(a, cz.zf_apply("annihilate", f, b, S))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_ordered_disjoint_insertion():
    S = cz.SMatrixModel(1.0)
    st = cz.zf_vacuum(n_grid=14, k_max=4)
    tn = st.theta_grid
    pk_lo = np.where(tn < 0.0, np.exp(-((tn + 2.0) ** 2) * 2), 0.0)
    pk_hi = np.where(tn > 2.0, np.exp(-((tn - 3.0) ** 2) * 4), 0.0)
    s1 = cz.zf_apply("create", pk_lo, st, S)
    s2 = cz.zf_apply("create", pk_hi, s1, S)
    # on the ordered sector theta1 > theta2 the rightmost insertion carries
    # no S factor: the value is the bare product / sqrt(2)
    i_hi = int(np.argmax(pk_hi))
    i_lo = int(np.argmax(pk_lo))
    val = complex(s2.components[2][i_hi, i_lo])
    assert val == pytest.approx(pk_hi[i_hi] * pk_lo[i_lo] / np.sqrt(2.0), rel=1e-12)
    # annihilating with a rapidity-disjoint packet gives zero
    probe = np.where(tn > 2.0, 1.0, 0.0)
    z = cz.zf_apply("annihilate", probe, s1, S)
    assert cz.zf_norm_sq(z) == 0.0


def test_truncation_overflow_and_conservation():
    S = cz.SMatrixModel(1.0)
    st = cz.zf_vacuum(n_grid=10, k_max=3)
    tn = st.theta_grid
    packets = [np.exp(-((tn - c) ** 2) / w)
               for c, w in ((0.5, 1.0), (-0.7, 0.6), (0.0, 1.0))]
    for p in packets:
        st = cz.zf_apply("create", p, st, S)
    assert st.leaked_norm == 0.0
    # a number-conserving in/out pair leaks nothing
    st2 = cz.zf_apply("annihilate", packets[0], st, S)
    st2 = cz.zf_apply("create", np.exp(-(tn**2) / 2), st2, S)
    assert st2.leaked_norm < 1e-8
    # one more creation overflows k_max; the leak is measured
    st3 = cz.zf_apply("create", np.exp(-((tn + 1.0) ** 2)), st, S)
    assert st3.leaked_norm > 0.0


def test_norm_and_exchange_consistency_on_states():
    S = cz.SMatrixModel(0.8)
    st = cz.zf_vacuum(n_grid=14, k_max=2)
    tn = st.theta_grid
    f = np.exp(-((tn - 0.5) ** 2))
    g = np.exp(-((tn + 0.7) ** 2) / 0.6)
    s_fg = cz.zf_apply("create", f, cz.zf_apply("create", g, st, S), S)
    two = two_particle(S, f, g, tn)
    assert np.max(np.abs(s_fg.components[2] - two)) < 1e-13
    assert cz.zf_norm_sq(s_fg) > 0.0


def test_deep_sequence_leaves_inputs_and_top_component_untouched():
    # the zf-algebra suite's k_max = 6 in/out sequence on its 14-point grid.
    # It never holds more than 4 particles, so the rank-5 and rank-6
    # components (8.6 and 120 MB if allocated) stay read-only zero views
    S = cz.SMatrixModel(1.0)
    tn = cz.zf_vacuum(n_grid=14, k_max=6).theta_grid
    packets = [np.exp(-((tn - c) ** 2) / w)
               for c, w in ((0.5, 1.0), (-0.7, 0.6), (0.0, 1.0), (1.0, 0.8))]
    steps = [("create", p) for p in packets]
    steps += [("annihilate", packets[0]), ("create", np.exp(-((tn + 1.2) ** 2)))]

    def run(k_max, check):
        st = cz.zf_vacuum(n_grid=14, k_max=k_max)
        for op, p in steps:
            # vacant levels are read-only, so only occupied ones are copied
            before = ([c.copy() for c in st.components[:st.occupied + 1]]
                      if check else [])
            out = cz.zf_apply(op, p, st, S)
            if check:
                for c, b in zip(st.components, before):
                    assert np.array_equal(c, b)
                for c in out.components[out.occupied + 1:]:
                    assert not c.flags.writeable and not c.any()
            st = out
        return st

    tracemalloc.start()
    try:
        run(6, check=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20          # 249 MiB with every level allocated

    deep, shallow = run(6, check=True), run(4, check=True)
    assert deep.occupied == shallow.occupied == 4
    assert deep.leaked_norm == shallow.leaked_norm == 0.0
    for c, ref in zip(deep.components, shallow.components):
        assert np.array_equal(c, ref)
    assert [c.shape for c in deep.components[5:]] == [(14,) * 5, (14,) * 6]
    assert not deep.components[6].any()


def test_creation_carries_the_vacuum_amplitude():
    # Z*(f) Z(h) Z*(g)|0> = <h|g> Z*(f)|0>: the zero-particle amplitude
    # that the annihilation leaves multiplies the created packet
    S = cz.SMatrixModel(1.0)
    st = cz.zf_vacuum(n_grid=10, k_max=3)
    tn = st.theta_grid
    g = np.exp(-((tn - 0.3) ** 2))
    h = np.exp(-((tn + 0.2) ** 2))
    f = np.exp(-(tn**2) / 2)
    scalar = cz.zf_apply("annihilate", h, cz.zf_apply("create", g, st, S), S)
    ip = complex(np.sum(st.weights * h * g))
    assert scalar.occupied == 0
    assert complex(scalar.components[0]) == pytest.approx(ip, rel=1e-14)
    one = cz.zf_apply("create", f, scalar, S)
    assert one.occupied == 1
    assert np.allclose(one.components[1], ip * f, rtol=1e-14, atol=0.0)
    # annihilating the vacuum gives the zero vector
    assert cz.zf_norm_sq(cz.zf_apply("annihilate", h, st, S)) == 0.0
