"""Correlation-matrix engine for Gaussian states of a harmonic lattice field.

The chain Hamiltonian is

    H = 1/2 sum_i pi_i^2 + 1/2 sum_i [ (phi_{i+1}-phi_i)^2 / a^2 + m^2 phi_i^2 ]

on a periodic chain (phi_N = phi_0), so H = 1/2 pi.pi + 1/2 phi.K.phi with a
circulant K.  Its normal modes are the N plane waves, with closed-form
frequencies omega_k^2 = m^2 + (4/a^2) sin^2(pi k/N), and every covariance
block is the circulant matrix of one inverse FFT of a function of omega_k.

Vacuum and thermal states are fixed by their covariance blocks
X = <phi phi>, P = <pi pi>, M = <{phi, pi}/2>; restriction to a region is a
sub-block, the symplectic spectrum {nu_k} of the reduced covariance carries
the whole modular (entanglement) data, and

    S = sum_k (nu_k + 1/2) ln(nu_k + 1/2) - (nu_k - 1/2) ln(nu_k - 1/2)

is the von Neumann entropy of the reduced Gaussian state (nats).
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import circulant, eigh

from .errors import ConfigurationError, DomainError, FitError, SpectralError
from .quadrature import linear_fit

UNCERTAINTY_TOL = 1e-9
IR_WINDOW = (1e-4, 1e-2)  # allowed m_IR * (n_sites * spacing)


@dataclass(frozen=True)
class HarmonicLattice:
    """Periodic chain geometry.  A massless chain must carry an explicit IR
    regulator; the regulated mass is recorded so downstream manifests can
    echo it."""

    n_sites: int
    mass: float
    spacing: float = 1.0
    ir_regulator: float | None = None

    def __post_init__(self):
        if self.n_sites < 2:
            raise ConfigurationError("n_sites must be >= 2")
        if self.spacing <= 0:
            raise ConfigurationError("spacing must be positive")
        if self.mass < 0:
            raise ConfigurationError("mass must be >= 0")
        if self.mass == 0.0:
            if self.ir_regulator is None or self.ir_regulator <= 0:
                raise ConfigurationError(
                    "massless chain requires a positive ir_regulator mass"
                )
            mL = self.ir_regulator * self.n_sites * self.spacing
            if not (IR_WINDOW[0] <= mL <= IR_WINDOW[1]):
                raise ConfigurationError(
                    f"ir_regulator * total length = {mL:.3g} outside {IR_WINDOW}"
                )

    @property
    def effective_mass(self):
        return self.mass if self.mass > 0 else self.ir_regulator


@dataclass(frozen=True)
class Region:
    """Ordered set of lattice sites; contiguous intervals are the common case."""

    sites: tuple

    def __post_init__(self):
        if len(self.sites) == 0:
            raise DomainError("region must be nonempty")
        if len(set(self.sites)) != len(self.sites):
            raise DomainError("region sites must be distinct")

    @classmethod
    def interval(cls, start, length):
        return cls(tuple(range(start, start + length)))

    def validate(self, lattice):
        if min(self.sites) < 0 or max(self.sites) >= lattice.n_sites:
            raise DomainError("region outside lattice")

    def __len__(self):
        return len(self.sites)


@dataclass(frozen=True)
class GaussianState:
    phi_phi: np.ndarray
    pi_pi: np.ndarray
    phi_pi: np.ndarray
    kind: str                      # "vacuum" | "thermal"
    beta: float | None = None

    @property
    def n_modes(self):
        return self.phi_phi.shape[0]


@dataclass(frozen=True)
class ModularSpectrum:
    nus: np.ndarray                # symplectic eigenvalues, sorted descending


@dataclass(frozen=True)
class FitRecord:
    slope: float
    r_squared: float


@dataclass(frozen=True)
class EntropyResult:
    entropy: float
    length: float | None = None       # physical interval length
    attenuation: float | None = None  # attenuation length (cutoff) epsilon
    fit_metadata: FitRecord | None = field(default=None, compare=False)


def _plane_wave_frequencies(lattice):
    """omega_k = sqrt(m^2 + (4/a^2) sin^2(pi k/N)): the periodic chain is
    circulant, so its normal modes are the N plane waves."""
    n = lattice.n_sites
    s = np.sin(np.pi * np.arange(n) / n)
    return np.sqrt(lattice.effective_mass**2 + (2.0 * s / lattice.spacing) ** 2)


def _circulant(spectrum):
    """The matrix that is diagonal in the plane-wave basis with this spectrum."""
    return circulant(np.fft.ifft(spectrum).real)


def build_vacuum_state(lattice):
    """Ground-state covariances X = K^{-1/2}/2, P = K^{1/2}/2, M = 0."""
    w = _plane_wave_frequencies(lattice)
    n = lattice.n_sites
    return GaussianState(_circulant(0.5 / w), _circulant(0.5 * w),
                         np.zeros((n, n)), "vacuum")


def build_thermal_state(lattice, beta):
    """Gibbs covariances: each normal mode carries nu(omega) = coth(beta omega/2)/2."""
    if not (beta > 0) or not np.isfinite(beta):
        raise ConfigurationError("beta must be finite and positive")
    w = _plane_wave_frequencies(lattice)
    c = 1.0 / np.tanh(np.clip(beta * w / 2.0, 1e-300, 350.0))
    n = lattice.n_sites
    return GaussianState(_circulant(0.5 * c / w), _circulant(0.5 * c * w),
                         np.zeros((n, n)), "thermal", beta=beta)


def reduce_state(state, region):
    """Sub-block restriction of every covariance block to the region's sites."""
    sites = np.asarray(region.sites, int)
    if sites.size == 0:
        raise DomainError("region must be nonempty")
    if sites.min() < 0 or sites.max() >= state.n_modes:
        raise DomainError("region outside state")
    ix = np.ix_(sites, sites)
    return GaussianState(
        state.phi_phi[ix].copy(),
        state.pi_pi[ix].copy(),
        state.phi_pi[ix].copy(),
        state.kind,
        beta=state.beta,
    )


def _sympl_eigs_block(X, P):
    """nu_k for M = 0 covariances via the symmetric product X^{1/2} P X^{1/2}."""
    ex, Vx = eigh(X)
    if ex[0] <= 0.0:
        raise SpectralError(
            f"phi-phi block not positive definite ({ex[0]:.3e})", offending_value=float(ex[0])
        )
    Xh = (Vx * np.sqrt(ex)) @ Vx.T
    ev = eigh(Xh @ P @ Xh, eigvals_only=True)
    if ev[0] <= 0.0:
        raise SpectralError(
            f"covariance numerically indefinite ({ev[0]:.3e})", offending_value=float(ev[0])
        )
    return np.sqrt(ev)


def _sympl_eigs_general(X, P, M):
    """|eigenvalues| of i sigma Gamma, paired; used when <{phi,pi}> != 0."""
    n = X.shape[0]
    gamma = np.block([[X, M], [M.T, P]])
    sigma = np.block(
        [[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]]
    )
    ev = np.abs(np.linalg.eigvals(1j * sigma @ gamma))
    ev.sort()
    return 0.5 * (ev[0::2] + ev[1::2])  # average the +/- partners


def symplectic_spectrum(state, tol=UNCERTAINTY_TOL):
    """Symplectic eigenvalues of the state's covariance, sorted descending.

    Raises SpectralError (with the offending value) if any nu < 1/2 - tol,
    which would violate the uncertainty bound.
    """
    if np.max(np.abs(state.phi_pi)) == 0.0:
        nus = _sympl_eigs_block(state.phi_phi, state.pi_pi)
    else:
        nus = _sympl_eigs_general(state.phi_phi, state.pi_pi, state.phi_pi)
    nus = np.sort(nus)[::-1]
    if nus[-1] < 0.5 - tol:
        raise SpectralError(
            f"symplectic eigenvalue {nus[-1]:.12f} below the uncertainty bound",
            offending_value=float(nus[-1]),
        )
    return ModularSpectrum(nus=nus)


def entanglement_entropy(spectrum, tol=UNCERTAINTY_TOL):
    """S = sum (nu+1/2)ln(nu+1/2) - (nu-1/2)ln(nu-1/2), nats; 0 ln 0 := 0."""
    nus = np.asarray(spectrum.nus, float)
    if nus.size and nus.min() < 0.5 - tol:
        raise SpectralError(
            f"spectrum below uncertainty bound ({nus.min():.12f})",
            offending_value=float(nus.min()),
        )
    up = nus + 0.5
    dn = np.clip(nus - 0.5, 0.0, None)
    s = up * np.log(up)
    pos = dn > 0.0
    s[pos] -= dn[pos] * np.log(dn[pos])
    return EntropyResult(entropy=float(np.sum(s)))


def interval_entropy(state, start, length):
    """Entropy of the contiguous interval [start, start+length)."""
    red = reduce_state(state, Region.interval(start, length))
    return entanglement_entropy(symplectic_spectrum(red)).entropy


def entropy_scan(lattice, region_family, eps_family):
    """Table of (L, eps, S) over nested intervals and attenuation lengths.

    The attenuation length eps is realized as a short-distance cutoff: a row
    with physical interval length L and attenuation eps is read off as the
    sharp-interval entropy of round(L/eps) sites, i.e. the same interval
    resolved at lattice spacing eps (the boundary is fuzzy below one
    refined-lattice cell).  On the critical chain S depends on L and eps only
    through L/eps, which is what the least-squares fit of S against
    ln(L/eps) quantifies.
    """
    regions = list(region_family)
    eps_values = [float(e) for e in eps_family]
    if len(regions) * len(eps_values) < 4:
        raise FitError("entropy scan needs at least 4 points")
    for r in regions:
        r.validate(lattice)
    for e in eps_values:
        if e <= 0:
            raise ConfigurationError("attenuation lengths must be positive")

    state = build_vacuum_state(lattice)
    cache = {}

    def sharp_entropy(n_eff):
        if n_eff not in cache:
            cache[n_eff] = interval_entropy(state, 0, n_eff)
        return cache[n_eff]

    rows = []
    for region in regions:
        L = len(region) * lattice.spacing
        for eps in eps_values:
            n_eff = int(round(L / eps))
            if n_eff < 2:
                raise DomainError(
                    f"interval of length {L} unresolvable at attenuation {eps}"
                )
            if n_eff > lattice.n_sites:
                raise DomainError(
                    f"L/eps = {n_eff} exceeds the lattice ({lattice.n_sites} sites)"
                )
            rows.append((L, eps, sharp_entropy(n_eff)))

    x = np.log([L / e for (L, e, _) in rows])
    y = np.array([S for (_, _, S) in rows])
    slope, _, r2 = linear_fit(x, y)
    fit = FitRecord(slope, r2)          # S against ln(L/eps)
    return [
        EntropyResult(entropy=S, length=L, attenuation=e, fit_metadata=fit)
        for (L, e, S) in rows
    ]


def thermal_interval_entropies(lattice, beta, lengths):
    """Entropies of [0, L) in the Gibbs state; extensive for L >> 1/T."""
    state = build_thermal_state(lattice, beta)
    return [interval_entropy(state, 0, int(L)) for L in lengths]

