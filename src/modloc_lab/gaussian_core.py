"""Correlation-matrix engine for Gaussian states of a harmonic lattice field.

The chain Hamiltonian is

    H = 1/2 sum_i pi_i^2 + 1/2 sum_i [ (phi_{i+1}-phi_i)^2 + m^2 phi_i^2 ]

on a periodic chain (phi_N = phi_0) in units of the lattice spacing, so
H = 1/2 pi.pi + 1/2 phi.K.phi with a circulant K.  Its normal modes are the
N plane waves, with closed-form frequencies
omega_k^2 = m^2 + 4 sin^2(pi k/N), and every covariance
block is the circulant matrix of one inverse FFT of a function of omega_k.

Vacuum and thermal states are fixed by their covariance blocks
X = <phi phi> and P = <pi pi> (the mixed block <{phi, pi}/2> vanishes for
both).  Both are symmetric Toeplitz, X_ij = x[|i-j|], so a state is held
as the two first columns; restriction to an interval of L sites is the
L-entry prefix wherever the interval starts.  The symplectic spectrum
{nu_k} of the reduced covariance carries the whole modular (entanglement)
data.  It is solved in dense blocks formed from the columns: the
reflection i -> L-1-i splits every block into two halves, and a whole
chain of even N, whose blocks are also circulant, is first folded by its
half-shift i -> i + N/2, so it is solved in four quarter-size blocks.

The entropy

    S = sum_k (nu_k + 1/2) ln(nu_k + 1/2) - (nu_k - 1/2) ln(nu_k - 1/2)

is the von Neumann entropy of the reduced Gaussian state (nats).
"""

from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError, DomainError, FitError, SpectralError
from .quadrature import linear_fit

UNCERTAINTY_TOL = 1e-9
IR_WINDOW = (1e-4, 1e-2)  # allowed m_IR * n_sites


class _HarmonicLatticeFields(NamedTuple):
    n_sites: int
    mass: float
    ir_regulator: float | None


class HarmonicLattice(_HarmonicLatticeFields):
    """Periodic chain geometry in units of the lattice spacing.  A massless
    chain must carry an explicit IR regulator; the regulated mass is
    recorded so downstream manifests can echo it."""

    __slots__ = ()

    def __new__(cls, n_sites, mass, ir_regulator=None):
        if not (isinstance(n_sites, (int, np.integer)) and n_sites >= 2):
            raise ConfigurationError("n_sites must be an integer >= 2")
        if not (mass >= 0):
            raise ConfigurationError("mass must be >= 0")
        if mass == 0.0:
            if ir_regulator is None or not (ir_regulator > 0):
                raise ConfigurationError(
                    "massless chain requires a positive ir_regulator mass"
                )
            mL = ir_regulator * n_sites
            if not (IR_WINDOW[0] <= mL <= IR_WINDOW[1]):
                raise ConfigurationError(
                    f"ir_regulator * total length = {mL:.3g} outside {IR_WINDOW}"
                )
        return super().__new__(cls, n_sites, mass, ir_regulator)

    @property
    def effective_mass(self):
        return self.mass if self.mass > 0 else self.ir_regulator


class GaussianState(NamedTuple):
    """First columns of the Toeplitz blocks: X_ij = phi_col[|i-j|] and
    P_ij = pi_col[|i-j|]."""

    phi_col: np.ndarray
    pi_col: np.ndarray

    @property
    def n_modes(self):
        return self.phi_col.shape[0]


class FitRecord(NamedTuple):
    slope: float
    r_squared: float


def _plane_wave_frequencies(lattice):
    """omega_k = sqrt(m^2 + 4 sin^2(pi k/N)): the periodic chain is
    circulant, so its normal modes are the N plane waves."""
    n = lattice.n_sites
    s = np.sin(np.pi * np.arange(n) / n)
    return np.sqrt(lattice.effective_mass**2 + (2.0 * s) ** 2)


def _column(spectrum):
    """First column of the matrix that is diagonal in the plane-wave basis
    with this spectrum.

    The spectrum is even in k, so the column obeys c_j = c_{N-j}; the inverse
    FFT keeps that only to rounding, and averaging the column with its mirror
    makes it exact, so the circulant matrix is the symmetric Toeplitz matrix
    of this column."""
    c = np.fft.ifft(spectrum).real
    return (c + np.roll(c[::-1], 1)) / 2.0


def build_vacuum_state(lattice):
    """Ground-state covariances X = K^{-1/2}/2, P = K^{1/2}/2."""
    w = _plane_wave_frequencies(lattice)
    return GaussianState(_column(0.5 / w), _column(0.5 * w))


def build_thermal_state(lattice, beta):
    """Gibbs covariances: each normal mode carries nu(omega) = coth(beta omega/2)/2."""
    if not (beta > 0) or not np.isfinite(beta):
        raise ConfigurationError("beta must be finite and positive")
    w = _plane_wave_frequencies(lattice)
    c = 1.0 / np.tanh(np.clip(beta * w / 2.0, 1e-300, 350.0))
    return GaussianState(_column(0.5 * c / w), _column(0.5 * c * w))


def reduce_state(state, length):
    """Restriction to an interval of `length` sites: the Toeplitz blocks of
    every such interval are the same, with the column prefix."""
    if not 1 <= length <= state.n_modes:
        raise DomainError(f"interval length {length} outside [1, {state.n_modes}]")
    return GaussianState(state.phi_col[:length], state.pi_col[:length])


def _cholesky(X):
    """The lower Cholesky factor L of the phi-phi block, X = L L^T."""
    try:
        return np.linalg.cholesky(X)
    except np.linalg.LinAlgError:
        ex0 = float(np.linalg.eigvalsh(X)[0])
        raise SpectralError(
            f"phi-phi block not positive definite ({ex0:.3e})", offending_value=ex0
        ) from None


def _sympl_eigs_factored(L, P):
    """nu_k, ascending, from X's Cholesky factor L: X P = L (L^T P L) L^{-1},
    so nu_k^2 are the eigenvalues of the symmetric L^T P L."""
    # drop each block once it is consumed, so that no product holds more
    # than three n x n blocks; the product keeps its (L^T P) L order
    M = L.T @ P
    del P
    M = M @ L
    del L
    ev = np.linalg.eigvalsh(M)
    if ev[0] <= 0.0:
        raise SpectralError(
            f"covariance numerically indefinite ({ev[0]:.3e})", offending_value=float(ev[0])
        )
    return np.sqrt(ev)


def _sympl_eigs_block(X, P):
    """nu_k, ascending, of the dense blocks X and P: the two steps composed.
    Four blocks are alive during the Cholesky step here (X, P, LAPACK's
    copy of X and L), where symplectic_spectrum holds at most three."""
    return _sympl_eigs_factored(_cholesky(X), P)


def _sector(col, parity):
    """Block of the n x n Toeplitz matrix of col in the reflection-even
    (parity +1) or reflection-odd (-1) orthonormal basis
    (e_i +/- e_{n-1-i})/sqrt 2, i < n//2: A +/- CJ with A_ij = col[|i-j|]
    and (CJ)_ij = col[n-1-i-j].  For odd n the even basis also holds the
    middle site e_{n//2}."""
    n = col.shape[0]
    h = n // 2
    # both h x h blocks as strided views of the column (h = 0 leaves no row)
    A = sliding_window_view(np.concatenate([col[h - 1:0:-1], col[:h]]), h)[::-1][:h]
    CJ = sliding_window_view(col[n - 2 * h + 1:][::-1], h)[:h]
    if parity < 0:
        return A - CJ
    if n % 2 == 0:
        return A + CJ
    S = np.empty((h + 1, h + 1))
    np.add(A, CJ, out=S[:h, :h])
    S[:h, h] = S[h, :h] = np.sqrt(2.0) * col[h:0:-1]
    S[h, h] = col[0]
    return S


def _is_circulant(col):
    """True when the symmetric Toeplitz matrix of col is also circulant,
    c_k = c_{n-k}: the whole chain, or an interval that happens to be one."""
    return np.array_equal(col[1:], col[:0:-1])


def symplectic_spectrum(state):
    """Symplectic eigenvalues of the state's covariance, sorted descending.

    The reflection i -> n-1-i maps every symmetric Toeplitz block to itself,
    so it commutes with X P and the spectrum is the union of the spectra of
    the even and odd sectors; each half-size sector is formed from the
    columns and solved in turn.  One site has no odd sector.

    A whole chain of even n >= 4 is folded first: its columns are circulant,
    so the half-shift i -> i + n/2 commutes with X, P and the reflection,
    and its even / odd sectors are the symmetric Toeplitz blocks of the
    n/2-entry columns c_k +/- c_{n/2-k}.  Each is then split by reflection,
    so the spectrum comes from four quarter-size blocks.

    Raises SpectralError (with the offending value) if any nu falls below
    1/2 - UNCERTAINTY_TOL, which would violate the uncertainty bound.
    """
    n, x, p = state.n_modes, state.phi_col, state.pi_col
    cols = [(x, p)]
    if n >= 4 and n % 2 == 0 and _is_circulant(x) and _is_circulant(p):
        # fold once only: folding the even half again, down to 1 x 1 blocks,
        # is the closed-form plane-wave spectrum, which would make the
        # purity check restate how the state was built
        h = n // 2
        cols = [(x[:h] + t * x[h:0:-1], p[:h] + t * p[h:0:-1]) for t in (1, -1)]
    # each sector's P block is formed only after X's Cholesky factorization
    # has returned and X is freed: np.linalg.cholesky copies X into a LAPACK
    # buffer, so forming P first would hold four blocks at once (X, P, the
    # copy and L)
    nus = np.concatenate([
        _sympl_eigs_factored(_cholesky(_sector(x, parity)), _sector(p, parity))
        for x, p in cols for parity in ((1, -1) if x.shape[0] > 1 else (1,))])
    nus = np.sort(nus)[::-1]
    if nus[-1] < 0.5 - UNCERTAINTY_TOL:
        raise SpectralError(
            f"symplectic eigenvalue {nus[-1]:.12f} below the uncertainty bound",
            offending_value=float(nus[-1]),
        )
    return nus


def entanglement_entropy(nus):
    """S = sum (nu+1/2)ln(nu+1/2) - (nu-1/2)ln(nu-1/2), nats; 0 ln 0 := 0."""
    nus = np.asarray(nus, float)
    if nus.size and nus.min() < 0.5 - UNCERTAINTY_TOL:
        raise SpectralError(
            f"spectrum below uncertainty bound ({nus.min():.12f})",
            offending_value=float(nus.min()),
        )
    up = nus + 0.5
    dn = np.clip(nus - 0.5, 0.0, None)
    s = up * np.log(up)
    pos = dn > 0.0
    s[pos] -= dn[pos] * np.log(dn[pos])
    return float(np.sum(s))


def interval_entropy(state, length):
    """Entropy of an interval of `length` sites."""
    return entanglement_entropy(symplectic_spectrum(reduce_state(state, length)))


def entropy_scan(lattice, lengths, eps_family):
    """(rows, fit): the (L, eps, S) rows over nested intervals and
    attenuation lengths, and the least-squares fit of S against ln(L/eps).

    The attenuation length eps is realized as a short-distance cutoff: a row
    with physical interval length L and attenuation eps is read off as the
    sharp-interval entropy of round(L/eps) sites, i.e. the same interval
    resolved at lattice spacing eps (the boundary is fuzzy below one
    refined-lattice cell).  On the critical chain S depends on L and eps only
    through L/eps, which is what the least-squares fit of S against
    ln(L/eps) quantifies.
    """
    lengths = list(lengths)
    eps_values = [float(e) for e in eps_family]
    if len(lengths) * len(eps_values) < 4:
        raise FitError("entropy scan needs at least 4 points")
    for n in lengths:
        if not 1 <= n <= lattice.n_sites:
            raise DomainError(f"interval length {n} outside [1, {lattice.n_sites}]")
    for e in eps_values:
        if e <= 0:
            raise ConfigurationError("attenuation lengths must be positive")

    state = build_vacuum_state(lattice)
    rows = []
    for L in lengths:
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
            rows.append((L, eps, interval_entropy(state, n_eff)))

    x = np.log([L / e for (L, e, _) in rows])
    y = np.array([S for (_, _, S) in rows])
    slope, _, r2 = linear_fit(x, y)
    return rows, FitRecord(slope, r2)


def thermal_interval_entropies(lattice, beta, lengths):
    """Entropies of L-site intervals in the Gibbs state; extensive for L >> 1/T."""
    state = build_thermal_state(lattice, beta)
    return [interval_entropy(state, int(L)) for L in lengths]

