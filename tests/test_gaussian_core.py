import tracemalloc

import numpy as np
import pytest
from scipy.linalg import circulant, eigh, toeplitz

from modloc_lab import gaussian_core as gc
from modloc_lab.errors import ConfigurationError, DomainError, FitError, SpectralError

# Two-site periodic chain, m = 1, a = 1: the ring has a double bond,
# K = [[3, -2], [-2, 3]], so the normal modes are w- = m = 1 (uniform) and
# w+ = sqrt(m^2 + 4/a^2) = sqrt(5) (staggered).  Hand-diagonalized
# ground-state covariances are the oracle below.
W_MINUS = 1.0
W_PLUS = np.sqrt(5.0)

X00 = 0.25 * (1.0 / W_MINUS + 1.0 / W_PLUS)
X01 = 0.25 * (1.0 / W_MINUS - 1.0 / W_PLUS)
P00 = 0.25 * (W_MINUS + W_PLUS)
NU_HALF_CHAIN = np.sqrt(X00 * P00)

# Single-mode Bose occupancy oracle at beta = 1, omega = 1:
# nu = 1/(e - 1) + 1/2, and the closed-form entropy of that nu.
NU_THERMAL = 1.0 / (np.e - 1.0) + 0.5
S_THERMAL = float((NU_THERMAL + 0.5) * np.log(NU_THERMAL + 0.5)
                  - (NU_THERMAL - 0.5) * np.log(NU_THERMAL - 0.5))


# A mass far above the unit hopping decouples the sites: n independent
# oscillators of frequency M.  Read at beta / M, with phi in units of
# 1/sqrt(M) and pi in units of sqrt(M), they are unit-frequency oscillators.
M = 1e8


def decoupled_lattice(n=2):
    return gc.HarmonicLattice(n, M)


def test_decoupled_oscillator_ground_state():
    st = gc.build_vacuum_state(decoupled_lattice())
    assert st.phi_col[0] * M == pytest.approx(0.5, abs=1e-10)
    assert st.pi_col[0] / M == pytest.approx(0.5, abs=1e-10)
    assert abs(st.phi_col[1] * M) < 1e-10


def test_two_site_closed_form():
    lat = gc.HarmonicLattice(2, 1.0)
    st = gc.build_vacuum_state(lat)
    assert st.phi_col[0] == pytest.approx(X00, abs=1e-12)
    assert st.phi_col[1] == pytest.approx(X01, abs=1e-12)
    assert st.pi_col[0] == pytest.approx(P00, abs=1e-12)


@pytest.mark.parametrize("n,mass", [(16, 1.0), (64, 0.3), (33, 2.0)])
def test_vacuum_purity(n, mass):
    st = gc.build_vacuum_state(gc.HarmonicLattice(n, mass))
    nus = gc.symplectic_spectrum(st)
    assert np.max(np.abs(nus - 0.5)) < 1e-10
    assert gc.entanglement_entropy(nus) < 1e-8


def dense_covariances(lattice, beta=None):
    """Reference build: dense eigh of the periodic dynamical matrix K."""
    n, m = lattice.n_sites, lattice.effective_mass
    K = np.diag(np.full(n, 2.0 + m**2))
    idx = np.arange(n)
    K[idx, (idx + 1) % n] = K[(idx + 1) % n, idx] = -1.0
    w2, V = eigh(K)
    w = np.sqrt(w2)
    c = 1.0 if beta is None else 1.0 / np.tanh(beta * w / 2.0)
    return (V * (0.5 * c / w)) @ V.T, (V * (0.5 * c * w)) @ V.T


def test_plane_wave_build_matches_dense_eigh():
    for n, mass in ((64, 0.3), (512, 1.0)):
        lat = gc.HarmonicLattice(n, mass)
        for beta, st in ((None, gc.build_vacuum_state(lat)),
                         (2.0, gc.build_thermal_state(lat, 2.0))):
            X, P = dense_covariances(lat, beta)
            assert np.max(np.abs(toeplitz(st.phi_col) - X)) < 1e-12
            assert np.max(np.abs(toeplitz(st.pi_col) - P)) < 1e-12
    # zero mode of the IR-regulated critical chain, where the dense build
    # is 9e-4 off: K 1 = m_eff^2 1, so every row of X = K^{-1/2}/2 sums
    # to 1/(2 m_eff)
    n = 2000
    lat = gc.HarmonicLattice(n, 0.0, ir_regulator=1e-3 / n)
    row_sums = toeplitz(gc.build_vacuum_state(lat).phi_col).sum(axis=1)
    target = 0.5 / lat.effective_mass
    assert np.max(np.abs(row_sums / target - 1.0)) < 1e-12


def test_thermal_single_mode_occupancy():
    st = gc.build_thermal_state(decoupled_lattice(), beta=1.0 / M)
    nus = gc.symplectic_spectrum(st)
    assert nus[0] == pytest.approx(NU_THERMAL, abs=1e-9)
    assert nus[0] == pytest.approx(1.0820, abs=2e-4)


def test_thermal_zero_temperature_limit():
    lat = gc.HarmonicLattice(24, 1.0)
    th = gc.build_thermal_state(lat, 1e6)
    vac = gc.build_vacuum_state(lat)
    assert np.max(np.abs(th.phi_col - vac.phi_col)) < 1e-8
    assert np.max(np.abs(th.pi_col - vac.pi_col)) < 1e-8


def test_thermal_strictly_impure():
    st = gc.build_thermal_state(gc.HarmonicLattice(12, 1.0), beta=2.0)
    assert np.all(gc.symplectic_spectrum(st) > 0.5)


def test_reduce_identity_region():
    lat = gc.HarmonicLattice(8, 1.0)
    st = gc.build_vacuum_state(lat)
    red = gc.reduce_state(st, 8)
    assert np.array_equal(red.phi_col, st.phi_col)
    assert np.array_equal(red.pi_col, st.pi_col)


def test_reduce_decoupled_is_pure():
    st = gc.build_vacuum_state(decoupled_lattice())
    red = gc.reduce_state(st, 1)
    assert gc.symplectic_spectrum(red)[0] == pytest.approx(0.5, abs=1e-10)


def test_reduce_coupled_half_chain_oracle():
    st = gc.build_vacuum_state(gc.HarmonicLattice(2, 1.0))
    red = gc.reduce_state(st, 1)
    nu = gc.symplectic_spectrum(red)[0]
    assert nu > 0.5
    assert nu == pytest.approx(NU_HALF_CHAIN, abs=1e-12)


def test_spectrum_invariant_under_relabeling():
    # the dense solver on the sites of [0, 4) listed as (3, 1, 0, 2)
    st = gc.build_vacuum_state(gc.HarmonicLattice(12, 0.5))
    a = gc.symplectic_spectrum(gc.reduce_state(st, 4))
    ix = np.ix_(*2 * ([3, 1, 0, 2],))
    b = gc._sympl_eigs_block(toeplitz(st.phi_col[:4])[ix], toeplitz(st.pi_col[:4])[ix])
    assert np.allclose(a, b[::-1], atol=1e-12)


def _sympl_eigs_general(X, P, M):
    """|eigenvalues| of i sigma Gamma, Gamma = [[X, M], [M^T, P]], paired:
    the reference route the block route is compared against."""
    n = X.shape[0]
    gamma = np.block([[X, M], [M.T, P]])
    sigma = np.block(
        [[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]]
    )
    ev = np.abs(np.linalg.eigvals(1j * sigma @ gamma))
    ev.sort()
    return 0.5 * (ev[0::2] + ev[1::2])  # average the +/- partners


@pytest.mark.parametrize("lattice,beta,length", [
    pytest.param(gc.HarmonicLattice(6, 1.0), None, 3, id="vacuum-6"),
    pytest.param(gc.HarmonicLattice(64, 1.0), 2.0, 16, id="gibbs-64"),
    pytest.param(gc.HarmonicLattice(200, 0.0, ir_regulator=1e-3 / 200), None, 32,
                 id="critical-200"),
])
def test_general_symplectic_path_matches_block_path(lattice, beta, length):
    st = (gc.build_vacuum_state(lattice) if beta is None
          else gc.build_thermal_state(lattice, beta))
    red = gc.reduce_state(st, length)
    nus_block = gc.symplectic_spectrum(red)
    X = toeplitz(red.phi_col)
    nus_gen = _sympl_eigs_general(X, toeplitz(red.pi_col), np.zeros_like(X))
    assert np.allclose(np.sort(nus_block), np.sort(nus_gen), atol=1e-10)


def test_entropy_values():
    assert gc.entanglement_entropy(np.array([0.5, 0.5])) == 0.0
    one = gc.entanglement_entropy(np.array([NU_THERMAL]))
    assert one == pytest.approx(S_THERMAL, rel=1e-12)
    assert one == pytest.approx(1.041, abs=2e-3)


def test_entropy_additive_over_uncoupled_blocks():
    st = gc.build_vacuum_state(decoupled_lattice(4))
    th = gc.build_thermal_state(decoupled_lattice(4), beta=0.7 / M)
    s_pair = gc.entanglement_entropy(
        gc.symplectic_spectrum(gc.reduce_state(th, 2)))
    s_each = gc.entanglement_entropy(
        gc.symplectic_spectrum(gc.reduce_state(th, 1)))
    assert s_pair == pytest.approx(2 * s_each, rel=1e-10)
    assert gc.entanglement_entropy(gc.symplectic_spectrum(st)) < 1e-10


def test_restriction_impurity_all_proper_intervals():
    lat = gc.HarmonicLattice(32, 0.0, ir_regulator=5e-3 / 32)
    st = gc.build_vacuum_state(lat)
    for L in (1, 5, 16, 31):
        s = gc.interval_entropy(st, L)
        assert s > 1e-6


def test_uncertainty_bound_across_states():
    for beta in (0.5, 3.0, None):
        lat = gc.HarmonicLattice(20, 0.7)
        st = (gc.build_vacuum_state(lat) if beta is None
              else gc.build_thermal_state(lat, beta))
        for length in (20, 9):
            nus = gc.symplectic_spectrum(gc.reduce_state(st, length))
            assert np.all(nus >= 0.5 - 1e-9)
        # a region that is no interval, through the dense solver
        ix = np.ix_(*2 * ([0, 5, 11],))
        nus = gc._sympl_eigs_block(toeplitz(st.phi_col)[ix], toeplitz(st.pi_col)[ix])
        assert np.all(nus >= 0.5 - 1e-9)


def test_entropy_scan_log_fit():
    n = 900
    lat = gc.HarmonicLattice(n, 0.0, ir_regulator=1e-3 / n)
    rows, fit = gc.entropy_scan(lat, (8, 16, 32, 64, 128), [1.0])
    assert fit.r_squared > 0.995
    assert fit.slope == pytest.approx(1.0 / 3.0, abs=0.02)
    # doubling the interval at fixed eps increases the entropy
    ents = [S for (_, _, S) in rows]
    assert all(b > a for a, b in zip(ents[:-1], ents[1:]))


def test_entropy_scan_eps_direction():
    n = 600
    lat = gc.HarmonicLattice(n, 0.0, ir_regulator=1e-3 / n)
    rows, fit = gc.entropy_scan(lat, [16], [1.0, 0.5, 0.25, 0.125])
    assert fit.r_squared > 0.99
    # sharper attenuation (smaller eps) raises the entropy
    ents = [S for (_, _, S) in rows]
    assert all(b > a for a, b in zip(ents[:-1], ents[1:]))


# beta = 6.6347 on the 1200-site chain pushed the dense eigh build below
# the uncertainty bound
@pytest.mark.parametrize("n,beta", [(400, 2 * np.pi), (1200, 6.6347)])
def test_thermal_interval_extensivity(n, beta):
    lat = gc.HarmonicLattice(n, 0.0, ir_regulator=1e-3 / n)
    Ls = [40, 80, 120, 160]
    Ss = gc.thermal_interval_entropies(lat, beta, Ls)
    from modloc_lab.quadrature import linear_fit
    slope, _, r2 = linear_fit(np.asarray(Ls, float), np.asarray(Ss))
    assert r2 > 0.99
    assert slope == pytest.approx(np.pi / (3 * beta), rel=0.05)


def test_validation_errors():
    with pytest.raises(ConfigurationError):
        gc.HarmonicLattice(1, 1.0)
    with pytest.raises(ConfigurationError):
        gc.HarmonicLattice(8, 0.0)              # massless without regulator
    with pytest.raises(ConfigurationError):
        gc.HarmonicLattice(8, 0.0, ir_regulator=1.0)   # outside the IR window
    with pytest.raises(ConfigurationError):
        gc.build_thermal_state(gc.HarmonicLattice(4, 1.0), beta=-1.0)
    st = gc.build_vacuum_state(gc.HarmonicLattice(4, 1.0))
    for length in (0, 5):
        with pytest.raises(DomainError):
            gc.reduce_state(st, length)
    with pytest.raises(DomainError):
        gc.entropy_scan(gc.HarmonicLattice(64, 1.0), [8, 16, 65], [2.0, 4.0])
    with pytest.raises(FitError):
        gc.entropy_scan(gc.HarmonicLattice(64, 1.0), [8], [1.0])


def test_spectral_error_reports_offender():
    bad = gc.GaussianState(np.array([0.1, 0.0]), np.array([0.1, 0.0]))
    with pytest.raises(SpectralError) as err:
        gc.symplectic_spectrum(bad)
    assert err.value.offending_value is not None
    assert err.value.offending_value < 0.5
    # X = [[0.1, 0.2], [0.2, 0.1]] is not positive definite: the odd sector
    # 0.1 - 0.2 has no Cholesky factor
    indefinite = gc.GaussianState(np.array([0.1, 0.2]), np.array([1.0, 0.0]))
    with pytest.raises(SpectralError) as err:
        gc.symplectic_spectrum(indefinite)
    assert err.value.offending_value < 0


@pytest.mark.parametrize("n", [511, 512])
def test_covariances_exactly_symmetric_and_centrosymmetric(n):
    # c_j = c_{N-j} exactly, so the chain's circulant block is the symmetric,
    # centrosymmetric Toeplitz block of the column
    for lat in (gc.HarmonicLattice(n, 1.0),
                gc.HarmonicLattice(n, 0.0, ir_regulator=1e-3 / n)):
        for st in (gc.build_vacuum_state(lat), gc.build_thermal_state(lat, 2.0)):
            for col in (st.phi_col, st.pi_col):
                assert np.array_equal(col[1:], col[:0:-1])
                M = toeplitz(col)
                assert np.array_equal(M, circulant(col))
                assert np.array_equal(M, M[::-1, ::-1])


@pytest.mark.parametrize("mass", [1.0, 0.5])
@pytest.mark.parametrize("beta", [None, 2.0])
def test_reflection_sectors_match_unsplit_spectrum(mass, beta):
    # 66 = 2 mod 4: the half-shift fold of the whole chain leaves columns
    # of odd length 33
    for n in (63, 64, 66):
        lat = gc.HarmonicLattice(n, mass)
        st = (gc.build_vacuum_state(lat) if beta is None
              else gc.build_thermal_state(lat, beta))
        for length in (n, 7, 16):
            red = gc.reduce_state(st, length)
            unsplit = gc._sympl_eigs_block(toeplitz(red.phi_col),
                                           toeplitz(red.pi_col))[::-1]
            nus = gc.symplectic_spectrum(red)
            assert nus.shape == unsplit.shape
            assert np.max(np.abs(nus - unsplit)) < 1e-12


def test_reflection_sector_sizes(monkeypatch):
    # each sector is solved in two steps, X's Cholesky factorization and
    # then L^T P L: both see the sector's size, X first
    sizes = []
    cholesky, factored = gc._cholesky, gc._sympl_eigs_factored

    def recording_cholesky(X):
        sizes.append(X.shape[0])
        return cholesky(X)

    def recording_factored(L, P):
        assert P.shape == L.shape == (sizes[-1], sizes[-1])
        return factored(L, P)

    monkeypatch.setattr(gc, "_cholesky", recording_cholesky)
    monkeypatch.setattr(gc, "_sympl_eigs_factored", recording_factored)
    # a whole chain of even n >= 4 is folded by its half-shift into two
    # n/2-site columns, and each is split by reflection; an odd chain and
    # every interval that is not itself circulant keep the two halves
    for n, expected in ((64, [16, 16, 16, 16]), (66, [17, 16, 17, 16]),
                        (63, [32, 31]), (4, [1, 1, 1, 1])):
        sizes.clear()
        gc.symplectic_spectrum(gc.build_vacuum_state(gc.HarmonicLattice(n, 0.5)))
        assert sizes == expected, n
    st = gc.build_vacuum_state(gc.HarmonicLattice(128, 0.5))
    for length, expected in ((64, [32, 32]), (7, [4, 3]), (4, [2, 2]),
                             (1, [1])):          # one site: no odd sector
        sizes.clear()
        gc.symplectic_spectrum(gc.reduce_state(st, length))
        assert sizes == expected, length


def _dense_sector(M, parity):
    """A +/- CJ sliced out of a dense centrosymmetric block: the reference the
    column route must reproduce bit for bit."""
    n = M.shape[0]
    h = n // 2
    A, CJ = M[:h, :h], M[:h, ::-1][:, :h]
    if parity < 0:
        return A - CJ
    if n % 2 == 0:
        return A + CJ
    S = np.empty((h + 1, h + 1))
    np.add(A, CJ, out=S[:h, :h])
    S[:h, h] = np.sqrt(2.0) * M[:h, h]
    S[h, :h] = np.sqrt(2.0) * M[h, :h]
    S[h, h] = M[h, h]
    return S


@pytest.mark.parametrize("n", [1, 2, 3, 63, 64, 512])
def test_sectors_from_column_match_dense_slicing(n):
    lat = gc.HarmonicLattice(512, 0.0, ir_regulator=1e-3 / 512)
    for st in (gc.build_vacuum_state(lat), gc.build_thermal_state(lat, 2.0)):
        red = gc.reduce_state(st, n)
        for col in (red.phi_col, red.pi_col):
            for parity in (1, -1):
                assert np.array_equal(gc._sector(col, parity),
                                      _dense_sector(toeplitz(col), parity))


def test_state_build_allocates_no_dense_block():
    lat = gc.HarmonicLattice(2048, 0.0, ir_regulator=1e-3 / 2048)
    gc.build_vacuum_state(lat)           # warm numpy's FFT plan cache
    tracemalloc.start()
    try:
        for build in (gc.build_vacuum_state, lambda lat: gc.build_thermal_state(lat, 2.0)):
            tracemalloc.reset_peak()
            build(lat)
            assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()


def _traced_spectrum(state, monkeypatch):
    """(peak, held): the traced peak of one symplectic_spectrum(state), and
    the bytes alive as each LAPACK call starts, keyed by "cholesky" and
    "eigvalsh"."""
    gc.symplectic_spectrum(state)        # warm LAPACK
    held = {"cholesky": [], "eigvalsh": []}

    def traced(name):
        call = getattr(np.linalg, name)

        def traced_call(a, **kw):
            held[name].append(tracemalloc.get_traced_memory()[0])
            return call(a, **kw)
        monkeypatch.setattr(np.linalg, name, traced_call)

    for name in held:
        traced(name)
    tracemalloc.start()
    try:
        gc.symplectic_spectrum(state)
        return tracemalloc.get_traced_memory()[1], held
    finally:
        tracemalloc.stop()


def test_symplectic_spectrum_holds_three_sector_blocks(monkeypatch):
    # the solve drops X, P and L as each is consumed: at most three
    # (n/2) x (n/2) blocks are alive at once, where keeping them held five.
    # P is formed only after the Cholesky step, so X alone is held as
    # cholesky starts on it, and only L^T P L as eigvalsh starts
    n = 512
    block = (n // 2) ** 2 * 8
    lat = gc.HarmonicLattice(2 * n, 0.0, ir_regulator=1e-3 / (2 * n))
    red = gc.reduce_state(gc.build_vacuum_state(lat), n)
    peak, held = _traced_spectrum(red, monkeypatch)
    assert peak < 3.5 * block
    for name in ("cholesky", "eigvalsh"):
        assert len(held[name]) == 2 and max(held[name]) < 1.5 * block, name


def test_whole_chain_spectrum_holds_three_quarter_blocks(monkeypatch):
    # the half-shift fold solves a whole chain in four (n/4) x (n/4) blocks,
    # one at a time: the peak stays under three and a half of them, where
    # the unfolded solve held three (n/2) x (n/2) sectors
    n = 2048
    quarter = (n // 4) ** 2 * 8
    st = gc.build_vacuum_state(gc.HarmonicLattice(n, 1.0))
    peak, held = _traced_spectrum(st, monkeypatch)
    assert peak < 3.5 * quarter
    for name in ("cholesky", "eigvalsh"):
        assert len(held[name]) == 4 and max(held[name]) < 1.5 * quarter, name


def test_thermal_interval_entropy_against_mpmath():
    """Sector-route entropies of [0, L), L = 2..20, on the 64-site
    IR-regulated chain at beta = 2 pi, against a 50-digit build and solve.
    The zero mode puts ~1e7 into every entry of X, so both float routes
    carry a rounding error: the unsplit route's worst is 3.3e-8 here and
    the sector route's 1.2e-7, and the bound is fixed at 2e-7."""
    mp = pytest.importorskip("mpmath")
    n, lengths = 64, range(2, 21)
    lat = gc.HarmonicLattice(n, 0.0, ir_regulator=1e-3 / n)
    st = gc.build_thermal_state(lat, 2 * np.pi)
    with mp.workdps(50):
        exact = _mp_gibbs_entropies(mp, n, lat.effective_mass, lengths)
    for L, ref in zip(lengths, exact):
        red = gc.reduce_state(st, L)
        unsplit = gc.entanglement_entropy(
            gc._sympl_eigs_block(toeplitz(red.phi_col), toeplitz(red.pi_col)))
        assert abs(float(unsplit - ref)) < 2e-7, L
        assert abs(float(gc.interval_entropy(st, L) - ref)) < 2e-7, L


def _mp_gibbs_entropies(mp, n, m, lengths):
    """Entropies of [0, L) in the beta = 2 pi Gibbs state of the n-site chain
    of mass m, built and solved at the working precision of mp."""
    m, half, d = mp.mpf(m), mp.mpf(1) / 2, max(lengths)
    w = [mp.sqrt(m**2 + 4 * mp.sin(mp.pi * k / n) ** 2) for k in range(n)]
    occ = [1 / mp.tanh(mp.pi * wk) for wk in w]     # coth(beta w / 2)
    cos = [[mp.cos(2 * mp.pi * k * j / n) for k in range(n)] for j in range(d)]
    x = [mp.fsum(o / (2 * wk) * c for o, wk, c in zip(occ, w, cj)) / n for cj in cos]
    p = [mp.fsum(o * wk / 2 * c for o, wk, c in zip(occ, w, cj)) / n for cj in cos]
    out = []
    for L in lengths:
        X = mp.matrix([[x[abs(i - j)] for j in range(L)] for i in range(L)])
        P = mp.matrix([[p[abs(i - j)] for j in range(L)] for i in range(L)])
        C = mp.cholesky(X)
        nus = [mp.sqrt(e) for e in mp.eigsy(C.T * P * C, eigvals_only=True)]
        out.append(mp.fsum((v + half) * mp.log(v + half) - (v - half) * mp.log(v - half)
                           for v in nus))
    return out
