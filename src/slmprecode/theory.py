"""Closed-form transmit-energy quantities for channel-inversion precoding.

For a square invertible channel H, inverting at the transmitter sends
s = H^-1 u and costs energy gamma = ||s||^2 = u^T Q u with
Q = (H^-1)^T H^-1. Everything here is a function of Q's eigenvalues
lambda_1 >= ... >= lambda_M and of the per-dimension entropy of the data:

* the entropy-matched Gaussian variance sigma^2 = 2^(2H) / (2 pi e),
* the energy-minimizing data covariance  Sigma = (prod lambda)^(1/M) sigma^2 H H^T,
* the minimum average energy             e_opt = M (prod lambda)^(1/M) sigma^2,
* the channel gain                       AM(lambda) / GM(lambda) >= 1,
* large-candidate-count limits of minimum-energy selection over a region
  (selective mapping), via the unit-ball volume B_M and Gamma(1 + r/M).

Entropies are in bits throughout. The whitened data vector
v = sqrt(Lambda) U^T u has per-component variance
r_eq2 = (prod lambda)^(1/M) sigma^2, so e_opt = M * r_eq2.

Energies come in three forms, all ``ChannelMatrix`` methods: ``energy(u)`` =
||chol^T u||^2 = u^T Q u and ``gamma(u)`` = ||H^-1 u||^2 of one M-vector or of
each row of a (T, M) array, each row with the bits of its own GEMV and dot
call (one stacked matmul); and the selection metric ``energies(rows)``, whose
bits are its own: below M = 708 they do not depend on the rows sharing a call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatchError,
    IllConditionedError,
    NonPositiveEigenvalueError,
    NonSquareError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    SingularMatrixError,
)
from .linalg import EigenSystem

TWO_PI_E = 2.0 * math.pi * math.e

# Default bound on the eigenvalue spread of Q, i.e. on cond_2(H)^2.
CONDITION_LIMIT = 1e8


@dataclass(frozen=True, eq=False)
class ChannelMatrix:
    """A square invertible channel with cached derived factors, equal only to itself.

    Fields beyond ``h`` are consistent caches: ``h_inv`` its inverse,
    ``q = h_inv.T @ h_inv`` (symmetric positive definite), ``eig`` the
    eigensystem of q (descending), and ``chol`` the lower Cholesky factor
    of q, so that u^T q u = ||chol.T @ u||^2; ``build_channel`` makes them read-only.
    """

    h: np.ndarray
    h_inv: np.ndarray
    q: np.ndarray
    eig: EigenSystem
    chol: np.ndarray

    @property
    def m(self) -> int:
        return self.h.shape[0]

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.eig.eigenvalues

    @property
    def condition(self) -> float:
        """Eigenvalue spread of q, i.e. the squared 2-norm condition of h."""
        lam = self.eig.eigenvalues
        return float(lam[0] / lam[-1])

    def energy(self, u) -> float | np.ndarray:
        """u^T Q u = ||chol^T u||^2 of one M-vector (a float) or of each row of a (T, M) array."""
        return _norms(self.chol.T, u)

    def gamma(self, u) -> float | np.ndarray:
        """gamma = ||H^-1 u||^2 of one M-vector (a float) or of each row of a (T, M) array."""
        return _norms(self.h_inv, u)

    def energies(self, u_rows: np.ndarray) -> np.ndarray:
        """The selection metric u^T Q u of each row: GEMMs of ``energy_block(M)`` rows, 2-12x
        as fast as ``energy`` on bulk candidates, with other bits; perfbench traces this name."""
        u_rows = np.asarray(u_rows, dtype=np.float64)
        n = u_rows.shape[0]
        # a 1-row tail joins the block before it: numpy sends 1 row to GEMV, which sums otherwise
        block = energy_block(self.m)
        stops = list(range(block, n - 1, block)) + [n]
        out = np.empty(n)
        start = 0
        for stop in stops:
            w = u_rows[start:stop] @ self.chol
            out[start:stop] = np.einsum("ij,ij->i", w, w)
            start = stop
        return out


def _norms(a: np.ndarray, u) -> float | np.ndarray:
    """||a @ u||^2 of one vector or of each row: a stacked matmul, each row its own GEMV and dot."""
    w = a @ np.asarray(u, dtype=np.float64)[..., None]
    out = (w.swapaxes(-1, -2) @ w)[..., 0, 0]
    return out if out.ndim else float(out)


def energy_block(m: int) -> int:
    """Rows per (rows, M) @ (M, M) product in ``ChannelMatrix.energies`` at M = m.

    OpenBLAS 0.3.31 (scipy-openblas, Haswell, 2 cores) changes GEMM path once
    m*n*k exceeds 10^6: a row's bits first differ from a 2-row product's at
    2501 rows for M = 20 (0.23 ms a product, 2500 rows 0.06 ms), 1480 for
    M = 26 and 278 for M = 60. A block stays below, a folded 1-row tail too;
    from M = 708 no 2-row product does, so blocks would only cost time.
    """
    return 4096 if 2 * m * m > 10**6 else max(2, min(4096, 10**6 // (m * m) - 1))


# Entries a kernel holds at once: VP or nested candidates, scan leaves, search G u components,
# Philox words. No search node cap: (7,5) PAM 4 at M = 36-52 (random channels 3, 7, 23, 2-core Xeon
# VM) kept its winners, 3.4-328 ms median a trial (4.0-447 at 256 nodes a batch), nodes -20%/+136%.
GROUP_ENTRIES = 2**13


def group_rows(entries_per_row: int) -> int:
    """The rows of ``entries_per_row`` entries each that fit ``GROUP_ENTRIES``, one at least."""
    return max(1, GROUP_ENTRIES // max(1, entries_per_row))


def build_channel(h, condition_limit: float = CONDITION_LIMIT) -> ChannelMatrix:
    """Validate a channel matrix and build all cached factors.

    ``condition_limit`` bounds the eigenvalue spread of Q (the squared
    2-norm condition number of H); channels beyond it are rejected because
    inversion energies become numerically meaningless. It is the only
    conditioning limit.
    """
    h = linalg.as_matrix(h, "channel matrix")
    if h.shape[0] != h.shape[1]:
        raise NonSquareError(f"channel matrix must be square, got {h.shape}")
    h_inv = linalg.invert(h)
    with np.errstate(over="ignore"):
        q = h_inv.T @ h_inv
        q = (q + q.T) / 2.0
    if not np.all(np.isfinite(q)):
        raise SingularMatrixError("the channel inverse's energies overflow a float")
    eig = linalg.sym_eigen(q)
    lam = eig.eigenvalues
    if lam[-1] <= 0.0:
        raise IllConditionedError("Gram matrix of the inverse is not positive definite")
    spread = float(lam[0] / lam[-1])
    if spread > condition_limit:
        raise IllConditionedError(
            f"eigenvalue spread {spread:.3e} exceeds limit {condition_limit:.1e}"
        )
    chol = linalg.cholesky(q)
    for a in (h, h_inv, q, eig.eigenvalues, eig.eigenvectors, chol):
        a.flags.writeable = False
    return ChannelMatrix(h=h, h_inv=h_inv, q=q, eig=eig, chol=chol)


def sigma_from_entropy(entropy_bits_per_dim: float) -> float:
    """Variance of the Gaussian whose differential entropy is the given bits.

    Inverts H = 0.5 * log2(2 pi e sigma^2), giving sigma^2 = 2^(2H) / (2 pi e).
    """
    h = float(entropy_bits_per_dim)
    if not math.isfinite(h):
        raise ValueError("entropy must be finite")
    return 2.0 ** (2.0 * h) / TWO_PI_E


def _geomean_eigenvalues(eigenvalues: np.ndarray) -> float:
    lam = np.asarray(eigenvalues, dtype=np.float64)
    if np.any(lam <= 0.0):
        raise NonPositiveEigenvalueError("all eigenvalues must be strictly positive")
    return float(np.exp(np.mean(np.log(lam))))


def equivalent_radius_sq(ch: ChannelMatrix, sigma2: float) -> float:
    """Per-component variance r_eq2 = (prod lambda)^(1/M) sigma^2 of the whitened data."""
    if sigma2 <= 0.0:
        raise ValueError("sigma2 must be positive")
    return _geomean_eigenvalues(ch.eigenvalues) * sigma2


def optimal_covariance(ch: ChannelMatrix, sigma2: float) -> np.ndarray:
    """Energy-minimizing data covariance (prod lambda)^(1/M) sigma^2 * H H^T."""
    if sigma2 <= 0.0:
        raise ValueError("sigma2 must be positive")
    scale = _geomean_eigenvalues(ch.eigenvalues) * sigma2
    sig = scale * (ch.h @ ch.h.T)
    return (sig + sig.T) / 2.0


def e_opt(ch: ChannelMatrix, sigma2: float) -> float:
    """Minimum average transmit energy M * (prod lambda)^(1/M) * sigma^2."""
    return ch.m * equivalent_radius_sq(ch, sigma2)


def average_energy(ch: ChannelMatrix, mu, sigma) -> float:
    """Average energy tr(Q Sigma) + mu^T Q mu of data with mean mu, covariance Sigma."""
    mu = linalg.as_vector(mu, "mu")
    sigma = linalg.as_matrix(sigma, "sigma")
    m = ch.m
    if mu.shape[0] != m or sigma.shape != (m, m):
        raise DimensionMismatchError(
            f"channel is {m}x{m} but mu has length {mu.shape[0]} "
            f"and sigma has shape {sigma.shape}"
        )
    skew = np.max(np.abs(sigma - sigma.T))
    if skew > 1e-9 * max(1.0, np.max(np.abs(sigma))):
        raise NotSymmetricError("sigma must be symmetric")
    if sigma.size and np.linalg.eigvalsh(sigma).min() < -1e-9 * max(1.0, np.max(np.abs(sigma))):
        raise NotPositiveDefiniteError("sigma must be positive semidefinite")
    return float(np.trace(ch.q @ sigma) + mu @ ch.q @ mu)


def channel_gain(eig) -> float:
    """Arithmetic-over-geometric mean of the eigenvalues of Q; 1 iff all equal."""
    lam = eig.eigenvalues if isinstance(eig, EigenSystem) else np.asarray(eig, dtype=np.float64)
    gm = _geomean_eigenvalues(lam)
    return float(np.mean(lam) / gm)


def ball_volume(m: int) -> float:
    """Lebesgue volume pi^(M/2) / Gamma(1 + M/2) of the unit M-ball."""
    if m < 1:
        raise ValueError("dimension must be >= 1")
    return math.pi ** (m / 2.0) / math.gamma(1.0 + m / 2.0)


def log_ball_volume(m: int) -> float:
    """Natural log 0.5 M log(pi) - lgamma(1 + M/2) of the unit M-ball's volume B_M."""
    if m < 1:
        raise ValueError("dimension must be >= 1")
    return 0.5 * m * math.log(math.pi) - math.lgamma(1.0 + 0.5 * m)


def slm_limit_uniform(m: int, r: float, region_volume: float) -> float:
    """Large-N limit of E{N^(r/M) * min_i ||s_i||^r} for uniform candidates.

    For N i.i.d. candidates uniform over a region of volume V containing the
    origin, the scaled minimum r-th-power norm converges to
    B_M^(-r/M) * Gamma(1 + r/M) * V^(r/M), in the log domain: finite for M <= 1024.
    """
    if region_volume <= 0.0:
        raise ValueError("region_volume must be positive")
    if r <= 0.0:
        raise ValueError("order r must be positive")
    rm = r / m
    return math.exp(math.lgamma(1.0 + rm) + rm * (math.log(region_volume) - log_ball_volume(m)))


def slm_limit_general(m: int, r: float, g_rho: float) -> float:
    """Large-N selection limit B_M^(-r/M) * Gamma(1 + r/M) * g_rho^(-r/M).

    ``g_rho`` is the infimum over small origin-centered balls of candidate
    probability mass per unit volume; for a uniform distribution over a
    region of volume V it equals 1/V: this is ``slm_limit_uniform`` at V = 1/g_rho.
    """
    if g_rho <= 0.0:
        raise ValueError("g_rho must be positive")
    return slm_limit_uniform(m, r, 1.0 / g_rho)


def e_slm(ch: ChannelMatrix, sigma2: float) -> float:
    """Large-dimension selection-energy reference Gamma(1 + 2/M) * M * r_eq2.

    This is the sphere-region evaluation of the uniform selection limit; it
    exceeds e_opt by exactly Gamma(1 + 2/M) and approaches it as M grows.
    """
    return math.gamma(1.0 + 2.0 / ch.m) * ch.m * equivalent_radius_sq(ch, sigma2)


@dataclass(frozen=True)
class TheoryReport:
    """Closed-form reference quantities for one channel and data entropy."""

    m: int
    sigma2: float
    e_opt: float
    channel_gain: float
    r_eq2: float
    e_slm_limit: float
    eigenvalues: np.ndarray = field(repr=False)


def theory_report(ch: ChannelMatrix, sigma2: float) -> TheoryReport:
    """Evaluate all closed-form references for one channel, each with the bits of its function."""
    if sigma2 <= 0.0:
        raise ValueError("sigma2 must be positive")
    gm = _geomean_eigenvalues(ch.eigenvalues)
    r_eq2 = gm * sigma2
    return TheoryReport(
        m=ch.m,
        sigma2=float(sigma2),
        e_opt=ch.m * r_eq2,
        channel_gain=float(np.mean(ch.eigenvalues) / gm),
        r_eq2=r_eq2,
        e_slm_limit=math.gamma(1.0 + 2.0 / ch.m) * ch.m * r_eq2,
        eigenvalues=ch.eigenvalues.copy(),
    )
