import numpy as np
import pytest
from scipy.linalg import eigh

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


def decoupled_lattice(n=2, mass=1.0):
    # enormous spacing turns off the hopping: n independent oscillators
    return gc.HarmonicLattice(n, mass, spacing=1e8)


def test_decoupled_oscillator_ground_state():
    st = gc.build_vacuum_state(decoupled_lattice())
    assert np.allclose(np.diag(st.phi_phi), 0.5, atol=1e-10)
    assert np.allclose(np.diag(st.pi_pi), 0.5, atol=1e-10)
    assert abs(st.phi_phi[0, 1]) < 1e-10


def test_two_site_closed_form():
    lat = gc.HarmonicLattice(2, 1.0)
    st = gc.build_vacuum_state(lat)
    assert st.phi_phi[0, 0] == pytest.approx(X00, abs=1e-12)
    assert st.phi_phi[0, 1] == pytest.approx(X01, abs=1e-12)
    assert st.pi_pi[0, 0] == pytest.approx(P00, abs=1e-12)


@pytest.mark.parametrize("n,mass", [(16, 1.0), (64, 0.3), (33, 2.0)])
def test_vacuum_purity(n, mass):
    st = gc.build_vacuum_state(gc.HarmonicLattice(n, mass))
    sp = gc.symplectic_spectrum(st)
    assert np.max(np.abs(sp.nus - 0.5)) < 1e-10
    assert gc.entanglement_entropy(sp).entropy < 1e-8


def dense_covariances(lattice, beta=None):
    """Reference build: dense eigh of the periodic dynamical matrix K."""
    n, a, m = lattice.n_sites, lattice.spacing, lattice.effective_mass
    K = np.diag(np.full(n, 2.0 / a**2 + m**2))
    idx = np.arange(n)
    K[idx, (idx + 1) % n] = K[(idx + 1) % n, idx] = -1.0 / a**2
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
            assert np.max(np.abs(st.phi_phi - X)) < 1e-12
            assert np.max(np.abs(st.pi_pi - P)) < 1e-12
    # zero mode of the IR-regulated critical chain, where the dense build
    # is 9e-4 off: K 1 = m_eff^2 1, so every row of X = K^{-1/2}/2 sums
    # to 1/(2 m_eff)
    n = 2000
    lat = gc.HarmonicLattice(n, 0.0, ir_regulator=1e-3 / n)
    row_sums = gc.build_vacuum_state(lat).phi_phi.sum(axis=1)
    target = 0.5 / lat.effective_mass
    assert np.max(np.abs(row_sums / target - 1.0)) < 1e-12


def test_thermal_single_mode_occupancy():
    st = gc.build_thermal_state(decoupled_lattice(), beta=1.0)
    sp = gc.symplectic_spectrum(st)
    assert sp.nus[0] == pytest.approx(NU_THERMAL, abs=1e-9)
    assert sp.nus[0] == pytest.approx(1.0820, abs=2e-4)


def test_thermal_zero_temperature_limit():
    lat = gc.HarmonicLattice(24, 1.0)
    th = gc.build_thermal_state(lat, 1e6)
    vac = gc.build_vacuum_state(lat)
    assert np.max(np.abs(th.phi_phi - vac.phi_phi)) < 1e-8
    assert np.max(np.abs(th.pi_pi - vac.pi_pi)) < 1e-8


def test_thermal_strictly_impure():
    st = gc.build_thermal_state(gc.HarmonicLattice(12, 1.0), beta=2.0)
    assert np.all(gc.symplectic_spectrum(st).nus > 0.5)


def test_reduce_identity_region():
    lat = gc.HarmonicLattice(8, 1.0)
    st = gc.build_vacuum_state(lat)
    red = gc.reduce_state(st, gc.Region.interval(0, 8))
    assert np.array_equal(red.phi_phi, st.phi_phi)


def test_reduce_decoupled_is_pure():
    st = gc.build_vacuum_state(decoupled_lattice())
    red = gc.reduce_state(st, gc.Region((0,)))
    assert gc.symplectic_spectrum(red).nus[0] == pytest.approx(0.5, abs=1e-10)


def test_reduce_coupled_half_chain_oracle():
    st = gc.build_vacuum_state(gc.HarmonicLattice(2, 1.0))
    red = gc.reduce_state(st, gc.Region((0,)))
    nu = gc.symplectic_spectrum(red).nus[0]
    assert nu > 0.5
    assert nu == pytest.approx(NU_HALF_CHAIN, abs=1e-12)


def test_spectrum_invariant_under_relabeling():
    st = gc.build_vacuum_state(gc.HarmonicLattice(12, 0.5))
    a = gc.symplectic_spectrum(gc.reduce_state(st, gc.Region((1, 2, 3, 4))))
    b = gc.symplectic_spectrum(gc.reduce_state(st, gc.Region((4, 2, 1, 3))))
    assert np.allclose(a.nus, b.nus, atol=1e-12)


def test_general_symplectic_path_matches_block_path():
    st = gc.build_vacuum_state(gc.HarmonicLattice(6, 1.0))
    red = gc.reduce_state(st, gc.Region.interval(0, 3))
    nus_block = gc.symplectic_spectrum(red).nus
    nus_gen = gc._sympl_eigs_general(red.phi_phi, red.pi_pi, red.phi_pi)
    assert np.allclose(np.sort(nus_block), np.sort(nus_gen), atol=1e-10)


def test_entropy_values():
    zero = gc.entanglement_entropy(gc.ModularSpectrum(np.array([0.5, 0.5])))
    assert zero.entropy == 0.0
    one = gc.entanglement_entropy(gc.ModularSpectrum(np.array([NU_THERMAL])))
    assert one.entropy == pytest.approx(S_THERMAL, rel=1e-12)
    assert one.entropy == pytest.approx(1.041, abs=2e-3)


def test_entropy_additive_over_uncoupled_blocks():
    st = gc.build_vacuum_state(decoupled_lattice(4))
    th = gc.build_thermal_state(decoupled_lattice(4), beta=0.7)
    s_pair = gc.entanglement_entropy(
        gc.symplectic_spectrum(gc.reduce_state(th, gc.Region((0, 1))))).entropy
    s_each = gc.entanglement_entropy(
        gc.symplectic_spectrum(gc.reduce_state(th, gc.Region((0,))))).entropy
    assert s_pair == pytest.approx(2 * s_each, rel=1e-10)
    assert gc.entanglement_entropy(gc.symplectic_spectrum(st)).entropy < 1e-10


def test_restriction_impurity_all_proper_intervals():
    lat = gc.HarmonicLattice(32, 0.0, ir_regulator=5e-3 / 32)
    st = gc.build_vacuum_state(lat)
    for L in (1, 5, 16, 31):
        s = gc.interval_entropy(st, 0, L)
        assert s > 1e-6


def test_uncertainty_bound_across_states():
    for beta in (0.5, 3.0, None):
        lat = gc.HarmonicLattice(20, 0.7)
        st = (gc.build_vacuum_state(lat) if beta is None
              else gc.build_thermal_state(lat, beta))
        for region in (gc.Region.interval(0, 20), gc.Region.interval(3, 9),
                       gc.Region((0, 5, 11))):
            nus = gc.symplectic_spectrum(gc.reduce_state(st, region)).nus
            assert np.all(nus >= 0.5 - 1e-9)


def test_entropy_scan_log_fit():
    n = 900
    lat = gc.HarmonicLattice(n, 0.0, ir_regulator=1e-3 / n)
    regions = [gc.Region.interval(0, L) for L in (8, 16, 32, 64, 128)]
    rows = gc.entropy_scan(lat, regions, [1.0])
    fit = rows[0].fit_metadata
    assert fit.r_squared > 0.995
    assert fit.slope == pytest.approx(1.0 / 3.0, abs=0.02)
    # doubling the interval at fixed eps increases the entropy
    ents = [r.entropy for r in rows]
    assert all(b > a for a, b in zip(ents[:-1], ents[1:]))


def test_entropy_scan_eps_direction():
    n = 600
    lat = gc.HarmonicLattice(n, 0.0, ir_regulator=1e-3 / n)
    rows = gc.entropy_scan(lat, [gc.Region.interval(0, 16)],
                           [1.0, 0.5, 0.25, 0.125])
    assert rows[0].fit_metadata.r_squared > 0.99
    # sharper attenuation (smaller eps) raises the entropy
    ents = [r.entropy for r in rows]
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
    with pytest.raises(DomainError):
        gc.Region(())
    with pytest.raises(DomainError):
        gc.reduce_state(gc.build_vacuum_state(gc.HarmonicLattice(4, 1.0)),
                        gc.Region((7,)))
    with pytest.raises(FitError):
        gc.entropy_scan(gc.HarmonicLattice(64, 1.0),
                        [gc.Region.interval(0, 8)], [1.0])


def test_spectral_error_reports_offender():
    bad = gc.GaussianState(np.diag([0.1, 0.1]), np.diag([0.1, 0.1]),
                           np.zeros((2, 2)), "vacuum")
    with pytest.raises(SpectralError) as err:
        gc.symplectic_spectrum(bad)
    assert err.value.offending_value is not None
    assert err.value.offending_value < 0.5
