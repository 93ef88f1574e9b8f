import numpy as np
import pytest

from modloc_lab import crossing_zf as cz
from modloc_lab.errors import (ConfigurationError, DomainError, NumericError,
                               TruncationError)


def right_fn(ct=0.2, cx=2.0, wt=0.6, wx=0.8, m=1.0, amp=1.0):
    return cz.WedgeTestFn(ct, cx, wt, wx, mass=m, amplitude=amp)


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
    assert cz.WedgeTestFn(0.2, -2.0, 0.6, 0.8, mass=1.0).wedge == "left"
    with pytest.raises(DomainError):
        cz.WedgeTestFn(0.0, 0.5, 0.6, 0.8, mass=1.0)   # straddles the edge


def test_strip_analyticity_and_involution():
    rf = cz.mass_shell_restrict(right_fn())
    assert rf.cauchy_riemann_residual() < 1e-8
    assert rf.involution_defect() < 1e-8


def test_left_wedge_fails_convergence():
    with pytest.raises(NumericError):
        cz.mass_shell_restrict(cz.WedgeTestFn(0.2, -2.0, 0.6, 0.8, mass=1.0))


def test_translation_along_edge_is_a_phase():
    f = right_fn()
    g = cz.WedgeTestFn(f.center_t + 0.4, f.center_x + 0.4, f.half_width_t,
                       f.half_width_x, mass=f.mass)
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
        rep = cz.free_crossing_check(g)
        assert rep.max_rel_defect < 1e-6


def test_free_crossing_zero_smearing():
    rep = cz.free_crossing_check(right_fn(amp=0.0))
    assert np.max(np.abs(rep.continued)) == 0.0
    assert np.max(np.abs(rep.crossed)) == 0.0


def test_formfactor_hermiticity():
    # for real g (B* = B): <t1,t2|B|0> = conj <0|B|t1,t2>, each side its own
    # quadrature of g~ on the 20 x 20 real rapidity grid
    g = right_fn(0.0, 2.5, 0.7, 0.9)
    t1, t2 = np.meshgrid(np.linspace(-1.5, 1.5, 20), np.linspace(-1.2, 1.8, 20),
                         indexing="ij")
    ket = cz.pair_formfactor(g, t1, t2)
    p0 = g.mass * (np.cosh(t1) + np.cosh(t2))
    p1 = g.mass * (np.sinh(t1) + np.sinh(t2))
    bra = 2.0 * cz.C0_SQ * g.fourier(p0.ravel(), p1.ravel()).reshape(t1.shape)
    assert np.max(np.abs(bra - np.conj(ket))) / np.max(np.abs(ket)) < 1e-12


def test_free_crossing_needs_right_wedge():
    with pytest.raises(DomainError):
        cz.free_crossing_check(cz.WedgeTestFn(0.0, -2.5, 0.7, 0.9, mass=1.0))


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


def test_kms_identity_ordering_precondition():
    g = right_fn(0.0, 2.5, 0.7, 0.9)
    f1 = right_fn(-0.1, 2.2, 0.5, 0.7)
    with pytest.raises(DomainError):
        cz.kms_free_identity(g, f1, right_fn(0.0, 3.5, 0.3, 0.4))


def test_kms_spacelike_decay_is_correlated():
    g = right_fn(0.0, 2.6, 0.5, 0.6)
    f1 = right_fn(-0.1, 2.2, 0.5, 0.7)
    f2 = cz.WedgeTestFn(0.0, 0.45, 0.1, 0.15, mass=1.0)
    mags = []
    for shift in (0.0, 0.6, 1.2):
        # move f1 lightlike away from g: both sides must decay together
        f1s = cz.WedgeTestFn(f1.center_t + shift, f1.center_x + shift,
                             f1.half_width_t, f1.half_width_x, mass=1.0)
        rep = cz.kms_free_identity(g, f1s, f2)
        mags.append(abs(rep.lhs))
        assert rep.rel_diff < 1e-5
    assert mags[0] > mags[1] > mags[2]


def test_crossing_and_kms_agree():
    g = right_fn(0.0, 2.5, 0.7, 0.9)
    cross = cz.free_crossing_check(g).max_rel_defect
    kms = cz.kms_free_identity(g, right_fn(-0.1, 2.2, 0.5, 0.7),
                               right_fn(0.0, 0.45, 0.15, 0.2)).rel_diff
    floor = 1e-12
    assert kms <= 10 * (cross + floor)
    assert cross <= 10 * (kms + floor)


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


@pytest.mark.parametrize("b", [0.3, 1.0, 2.5])
def test_exchange_relation(b):
    S = cz.SMatrixModel(b)
    assert cz.zf_exchange_check(S, FV, GV, THETAS) < 1e-10
    assert cz.zf_double_exchange_check(S, FV, GV, THETAS) < 1e-12


@pytest.mark.parametrize("b", [0.3, 1.0, 2.5])
def test_associativity_paths(b):
    th = np.linspace(-2.5, 2.5, 36)
    S = cz.SMatrixModel(b)
    d = cz.zf_associativity_check(
        S, np.exp(-((th - 0.5) ** 2)), np.exp(-(th**2) / 0.8),
        np.exp(-((th + 0.6) ** 2) / 1.2), th)
    assert d < 1e-10


def test_coincident_packets_fermionic_at_equal_rapidity():
    # f = g: S(0) = -1 forces the two-particle function to vanish on the
    # diagonal (effective Pauli exclusion at coincident rapidities)
    S = cz.SMatrixModel(1.0)
    psi = cz.zf_two_particle(S, FV, FV, THETAS)
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
    with pytest.raises(TruncationError):
        cz.zf_apply("create", np.exp(-((tn + 1.0) ** 2)), st, S, leak_tol=1e-12)


def test_norm_and_exchange_consistency_on_states():
    S = cz.SMatrixModel(0.8)
    st = cz.zf_vacuum(n_grid=14, k_max=2)
    tn = st.theta_grid
    f = np.exp(-((tn - 0.5) ** 2))
    g = np.exp(-((tn + 0.7) ** 2) / 0.6)
    s_fg = cz.zf_apply("create", f, cz.zf_apply("create", g, st, S), S)
    two = cz.zf_two_particle(S, f, g, tn)
    assert np.max(np.abs(s_fg.components[2] - two)) < 1e-13
    assert cz.zf_norm_sq(s_fg) > 0.0
