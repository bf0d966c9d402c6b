"""Tests for closed-form energy expressions and asymptotic limits."""

import math

import numpy as np
import pytest

from oracles import slm_limit_linear
from slmprecode import harness, theory
from slmprecode.errors import (
    DimensionMismatchError,
    IllConditionedError,
    NonPositiveEigenvalueError,
    NotPositiveDefiniteError,
    PrecodingError,
)


def _rng():
    return np.random.default_rng(777)


# ---------------------------------------------------------------------------
# channel construction / Gram matrix Q
# ---------------------------------------------------------------------------


def test_build_channel_identity():
    ch = theory.build_channel(np.eye(3))
    assert np.allclose(ch.q, np.eye(3))
    assert np.allclose(ch.eigenvalues, np.ones(3))
    assert ch.condition == pytest.approx(1.0)


def test_gram_diagonal():
    # H = diag(2, 1) -> Q = diag(1/4, 1)
    q = theory.build_channel(np.diag([2.0, 1.0])).q
    assert np.allclose(q, np.diag([0.25, 1.0]), rtol=0, atol=1e-14)


def test_gram_random_agreement():
    rng = _rng()
    for _ in range(10):
        h = rng.standard_normal((4, 4))
        if np.linalg.cond(h) > 1e4:
            continue
        q = theory.build_channel(h).q
        h_inv = np.linalg.inv(h)
        assert np.linalg.norm(q - h_inv.T @ h_inv) <= 1e-10 * np.linalg.norm(q)
        assert np.allclose(q, q.T)


def test_build_channel_condition_limit():
    with pytest.raises(IllConditionedError):
        theory.build_channel(np.diag([1.0, 1e-5]), condition_limit=1e6)
    # condition_limit is the only limit: a channel whose eigenvalue spread
    # (1e18 here) is within it is accepted
    ch = theory.build_channel(np.diag([1.0, 1e-9]), condition_limit=1e20)
    assert ch.condition == pytest.approx(1e18)
    with pytest.raises(IllConditionedError):
        theory.build_channel(np.diag([1.0, 1e-9]))


@pytest.mark.parametrize(
    "h",
    [[[0.0]], [[0.0, 0.0], [0.0, 0.0]], [[1e-300, 0.0], [0.0, 1e-300]], [[1e-200]]],
    ids=["zero_1x1", "zero_2x2", "tiny_2x2", "tiny_1x1"],
)
def test_build_channel_refuses_zero_and_tiny_channels(h):
    # an all-zero channel has no inverse; a tiny, well-conditioned one has
    # an inverse whose Gram matrix overflows a float
    with pytest.raises(PrecodingError):
        theory.build_channel(np.array(h))


def test_channel_energy_matches_quadratic_form():
    rng = _rng()
    ch = theory.build_channel(rng.standard_normal((4, 4)))
    for _ in range(50):
        u = rng.standard_normal(4)
        assert ch.energy(u) == pytest.approx(u @ ch.q @ u, rel=1e-10)
    rows = rng.standard_normal((64, 4))
    batch = ch.energies(rows)
    single = np.array([ch.energy(r) for r in rows])
    assert np.allclose(batch, single, rtol=1e-12)


@pytest.mark.parametrize("m", [4, 8])
def test_energies_blocked_bit_identical(m):
    # more than energy_block(m) = 4096 rows run in blocks; 4097 and 8193 end in a
    # 1-row tail, which must not go through numpy's GEMV path
    rng = _rng()
    ch = theory.build_channel(rng.standard_normal((m, m)))
    for n in (1, 4096, 4097, 8193, 65537):
        x = rng.standard_normal((n, m))
        w = x @ ch.chol
        assert np.array_equal(ch.energies(x), np.einsum("ij,ij->i", w, w)), n


@pytest.mark.parametrize("m", [4, 8, 12, 20, 24, 26, 64])
def test_energies_rows_match_two_row_calls(m):
    # every product stays under the size at which OpenBLAS changes GEMM
    # path, so a row's bits do not depend on the rows that share its call;
    # energy_block(m) + 1 rows are one block with its 1-row tail folded in
    rng = _rng()
    ch = theory.build_channel(rng.standard_normal((m, m)))
    for n in (2, 4096, 4097, 8193, theory.energy_block(m) + 1):
        x = rng.standard_normal((n, m))
        # rows in pairs; with n odd, the last row paired with the one before it
        pairs = [ch.energies(x[i:i + 2]) for i in range(0, n - 1, 2)]
        pairs += [ch.energies(x[-2:])[1:]] if n % 2 else []
        assert np.array_equal(ch.energies(x), np.concatenate(pairs)), n


@pytest.mark.parametrize("m", [1, 2, 3, 4, 8, 16, 17, 33, 64, 128, 256, 512, 1024])
def test_stacked_energies_match_per_row_calls(m):
    # energy and gamma give each row of a stack the bits of its own GEMV and
    # dot call, whatever rows share the call, and a single vector those bits
    # too; a numpy or BLAS change that breaks this fails here, not in a
    # golden report
    def gemv_norm(a, u):
        w = a @ u
        return float(w @ w)

    for seed in (3, 7, 21):
        ch = harness.load_channel({"kind": "random", "seed": seed}, m, condition_limit=1e300)
        rows = np.random.default_rng(seed).standard_normal((256, m))
        for n in (1, 2, 256):
            energy = [gemv_norm(ch.chol.T, u) for u in rows[:n]]
            gamma = [gemv_norm(ch.h_inv, u) for u in rows[:n]]
            assert ch.energy(rows[:n]).tolist() == energy, (seed, n)
            assert ch.gamma(rows[:n]).tolist() == gamma, (seed, n)
            assert [ch.energy(u) for u in rows[:n]] == energy, (seed, n)
            assert [ch.gamma(u) for u in rows[:n]] == gamma, (seed, n)
        assert type(ch.energy(rows[0])) is float and type(ch.gamma(rows[0])) is float


def test_energy_block_past_the_gemm_switch():
    # from M = 708 even a 2-row product is past the 10^6 switch, so blocks
    # would protect no row's bits: energies takes up to 4096 rows as one product
    assert [theory.energy_block(m) for m in (577, 707, 708, 1024)] == [2, 2, 4096, 4096]
    rng = _rng()
    ch = theory.build_channel(rng.standard_normal((708, 708)), condition_limit=1e300)
    for n in (2, 3, 4095, 4096):
        x = rng.standard_normal((n, 708))
        w = x @ ch.chol
        assert np.array_equal(ch.energies(x), np.einsum("ij,ij->i", w, w)), n


# ---------------------------------------------------------------------------
# entropy-matched variance
# ---------------------------------------------------------------------------


def test_sigma_from_entropy_gaussian_fixed_point():
    # differential entropy of N(0,1) is (1/2) log2(2*pi*e) bits
    h = 0.5 * math.log2(2 * math.pi * math.e)
    assert theory.sigma_from_entropy(h) == pytest.approx(1.0, rel=1e-12)
    # scaling: +1 bit quadruples the variance... no: sigma2 = 2^{2H}/(2 pi e)
    assert theory.sigma_from_entropy(h + 1) == pytest.approx(4.0, rel=1e-12)


def test_sigma_from_entropy_uniform():
    # uniform on [-2, 2): H = log2(4) = 2 bits -> sigma2 = 16 / (2 pi e)
    got = theory.sigma_from_entropy(2.0)
    assert got == pytest.approx(16.0 / (2 * math.pi * math.e), rel=1e-12)


# ---------------------------------------------------------------------------
# optimal covariance and minimum energy
# ---------------------------------------------------------------------------


def test_optimal_covariance_identity_channel():
    ch = theory.build_channel(np.eye(2))
    sigma = theory.optimal_covariance(ch, sigma2=3.0)
    assert np.allclose(sigma, 3.0 * np.eye(2), rtol=0, atol=1e-14)


def test_optimal_covariance_diagonal_channel():
    # H = diag(2, 1): eigenvalues of Q are 1/4 and 1, geometric mean 1/2,
    # H H^T = diag(4, 1) -> Sigma = sigma2 * diag(2, 1/2)
    ch = theory.build_channel(np.diag([2.0, 1.0]))
    sigma = theory.optimal_covariance(ch, sigma2=1.0)
    assert np.allclose(sigma, np.diag([2.0, 0.5]), rtol=1e-12)


def test_optimal_covariance_trace_identity():
    # tr(Q Sigma_opt) must equal e_opt for any channel
    rng = _rng()
    for _ in range(10):
        h = rng.standard_normal((4, 4))
        if np.linalg.cond(h) > 1e3:
            continue
        ch = theory.build_channel(h)
        sigma = theory.optimal_covariance(ch, sigma2=2.0)
        target = theory.e_opt(ch, sigma2=2.0)
        assert abs(np.trace(ch.q @ sigma) - target) <= 1e-9 * target


def test_e_opt_examples():
    ch = theory.build_channel(np.eye(2))
    assert theory.e_opt(ch, sigma2=1.0) == pytest.approx(2.0, rel=1e-12)
    ch2 = theory.build_channel(np.diag([2.0, 1.0]))
    # geometric mean of {1/4, 1} is 1/2 -> E = 2 * (1/2) * sigma2
    assert theory.e_opt(ch2, sigma2=3.0) == pytest.approx(3.0, rel=1e-12)


def test_e_opt_matches_average_energy_at_optimum():
    rng = _rng()
    ch = theory.build_channel(rng.standard_normal((5, 5)))
    sigma = theory.optimal_covariance(ch, sigma2=1.3)
    mean = theory.average_energy(ch, np.zeros(5), sigma)
    assert mean == pytest.approx(theory.e_opt(ch, sigma2=1.3), rel=1e-10)


# ---------------------------------------------------------------------------
# average energy of a given source distribution
# ---------------------------------------------------------------------------


def test_average_energy_identity_channel_white_source():
    ch = theory.build_channel(np.eye(3))
    mean = theory.average_energy(ch, np.zeros(3), np.eye(3))
    assert mean == pytest.approx(3.0, rel=1e-12)


def test_average_energy_hand_value():
    # H = diag(2, 1), mean (1, 0), covariance 0: energy = mu^T Q mu = 1/4
    ch = theory.build_channel(np.diag([2.0, 1.0]))
    mean = theory.average_energy(ch, np.array([1.0, 0.0]), np.zeros((2, 2)))
    assert mean == pytest.approx(0.25, rel=1e-12)


def test_average_energy_monte_carlo():
    rng = _rng()
    h = rng.standard_normal((3, 3))
    ch = theory.build_channel(h)
    mu = np.array([0.3, -0.2, 0.1])
    a = rng.standard_normal((3, 3))
    cov = a @ a.T + 0.5 * np.eye(3)
    predicted = theory.average_energy(ch, mu, cov)
    samples = rng.multivariate_normal(mu, cov, size=200_000)
    measured = np.mean(np.einsum("ij,jk,ik->i", samples, ch.q, samples))
    assert abs(measured - predicted) <= 0.02 * predicted


def test_average_energy_validation():
    ch = theory.build_channel(np.eye(2))
    with pytest.raises(DimensionMismatchError):
        theory.average_energy(ch, np.zeros(3), np.eye(2))
    with pytest.raises(DimensionMismatchError):
        theory.average_energy(ch, np.zeros(2), np.eye(3))
    with pytest.raises(NotPositiveDefiniteError):
        theory.average_energy(ch, np.zeros(2), np.diag([1.0, -1.0]))


# ---------------------------------------------------------------------------
# channel gain
# ---------------------------------------------------------------------------


def test_channel_gain_examples():
    assert theory.channel_gain(np.array([1.0, 1.0])) == pytest.approx(1.0, abs=1e-12)
    # AM/GM of {2, 0.5}: (1.25) / 1.0
    assert theory.channel_gain(np.array([2.0, 0.5])) == pytest.approx(1.25, abs=1e-12)
    # AM/GM of {5, 3, 1}: 3 / 15^{1/3}
    got = theory.channel_gain(np.array([5.0, 3.0, 1.0]))
    assert got == pytest.approx(3.0 / 15.0 ** (1 / 3), rel=1e-12)


def test_channel_gain_scale_invariant():
    lam = np.array([4.0, 2.0, 1.0, 0.25])
    assert theory.channel_gain(lam) == pytest.approx(
        theory.channel_gain(17.3 * lam), rel=1e-12
    )
    assert theory.channel_gain(lam) >= 1.0


def test_channel_gain_rejects_nonpositive():
    with pytest.raises(NonPositiveEigenvalueError):
        theory.channel_gain(np.array([1.0, 0.0]))
    with pytest.raises(NonPositiveEigenvalueError):
        theory.channel_gain(np.array([1.0, -2.0]))


def test_channel_gain_accepts_eigensystem():
    ch = theory.build_channel(np.diag([2.0, 1.0]))
    assert theory.channel_gain(ch.eig) == pytest.approx(
        theory.channel_gain(ch.eigenvalues), rel=1e-14
    )


# ---------------------------------------------------------------------------
# ball volume and selection limits
# ---------------------------------------------------------------------------


_ORDERS = (1.0, 2.0, 3.5)
_VOLUMES = (1e-30, 1e-3, 1.0, math.pi, 1e30)


def test_ball_volume_known_dimensions():
    assert theory.ball_volume(1) == pytest.approx(2.0, rel=1e-12)
    assert theory.ball_volume(2) == pytest.approx(math.pi, rel=1e-12)
    assert theory.ball_volume(3) == pytest.approx(4 * math.pi / 3, rel=1e-12)
    assert theory.ball_volume(4) == pytest.approx(math.pi**2 / 2, rel=1e-12)


def test_slm_limit_uniform_norm_moments_on_unit_volume():
    # r = M: B_M^{-1} Gamma(2) V = 1/B_M * 1 * B_M for V = B_M... pick direct
    # cases instead.  For the unit-volume set in M dims the limit of the
    # r-th norm moment of the minimum is B_M^{-r/M} Gamma(1 + r/M).
    m = 2
    got = theory.slm_limit_uniform(m, 2, math.pi)
    # volume pi = unit disk: N * min-norm^2 -> Gamma(2) = 1
    assert got == pytest.approx(1.0, rel=1e-12)
    got1 = theory.slm_limit_uniform(1, 1, 2.0)
    # unit-radius interval: B_1 = 2, limit Gamma(2) * (V / B_1) = 1
    assert got1 == pytest.approx(1.0, rel=1e-12)


def test_slm_limit_uniform_volume_scaling():
    base = theory.slm_limit_uniform(3, 2, 1.0)
    scaled = theory.slm_limit_uniform(3, 2, 8.0)
    assert scaled == pytest.approx(base * 8.0 ** (2 / 3), rel=1e-12)
    with pytest.raises(ValueError):
        theory.slm_limit_uniform(3, 2, 0.0)


def test_slm_limit_general_reduces_to_uniform():
    # density 1/V at the origin reproduces the uniform-set limit
    for m in (1, 2, 4, 64, 341, 342, 1024):
        for r in _ORDERS:
            for vol in _VOLUMES + (5.0,):
                uni = theory.slm_limit_uniform(m, r, vol)
                gen = theory.slm_limit_general(m, r, g_rho=1.0 / vol)
                assert gen == pytest.approx(uni, rel=1e-12)


def test_slm_limit_general_hand_value():
    # M=4, r=2, g = 1: B_4^{-1/2} Gamma(3/2) = (pi^2/2)^{-1/2} * sqrt(pi)/2
    got = theory.slm_limit_general(4, 2, g_rho=1.0)
    want = (math.pi**2 / 2) ** (-0.5) * math.sqrt(math.pi) / 2
    assert got == pytest.approx(want, rel=1e-12)


def test_slm_limits_finite_at_every_config_dimension():
    # configs take m up to 1024; math.gamma(1 + M/2) overflows from M = 342
    for m in range(1, 1025):
        for r in _ORDERS:
            for vol in _VOLUMES:
                assert math.isfinite(theory.slm_limit_uniform(m, r, vol))
                assert math.isfinite(theory.slm_limit_general(m, r, 1.0 / vol))


def test_slm_limits_match_the_linear_formula():
    for m in range(1, 342):
        for r in _ORDERS:
            for vol in _VOLUMES:
                want = slm_limit_linear(m, r, vol)
                assert theory.slm_limit_uniform(m, r, vol) == pytest.approx(want, rel=1e-12)


def test_e_slm_is_the_uniform_limit_of_its_ball():
    # E_SLM is the r = 2 limit over the ball of radius sqrt(M r_eq2):
    # V = B_M (M r_eq2)^(M/2), so the limit is Gamma(1 + 2/M) M r_eq2
    rng = _rng()
    for m in (2, 4, 8):
        ch = theory.build_channel(rng.standard_normal((m, m)) + 3.0 * np.eye(m))
        r_eq2 = theory.equivalent_radius_sq(ch, 1.7)
        vol = theory.ball_volume(m) * (m * r_eq2) ** (m / 2)
        want = theory.slm_limit_uniform(m, 2, vol)
        assert theory.e_slm(ch, 1.7) == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# selection-mapping energy and report
# ---------------------------------------------------------------------------


def test_e_slm_ratio_is_gamma_factor():
    rng = _rng()
    for m in (2, 3, 4, 8):
        h = rng.standard_normal((m, m))
        if np.linalg.cond(h) > 1e4:
            continue
        ch = theory.build_channel(h)
        ratio = theory.e_slm(ch, sigma2=1.7) / theory.e_opt(ch, sigma2=1.7)
        assert ratio == pytest.approx(math.gamma(1 + 2 / m), rel=1e-12)


def test_e_slm_known_dimensions():
    ch2 = theory.build_channel(np.eye(2))
    # Gamma(2) = 1 -> E_slm = E_opt = 2
    assert theory.e_slm(ch2, sigma2=1.0) == pytest.approx(2.0, rel=1e-12)
    ch4 = theory.build_channel(np.eye(4))
    # Gamma(3/2) = sqrt(pi)/2 -> E_slm = 4 * sqrt(pi)/2 = 2 sqrt(pi)
    assert theory.e_slm(ch4, sigma2=1.0) == pytest.approx(2 * math.sqrt(math.pi), rel=1e-12)


def test_theory_report_fields_equal_their_functions():
    # one geometric mean serves every field, with each function's bits
    rng = _rng()
    for m in (1, 3, 5, 7, 12, 24):  # sizes that are no power of 2 round differently
        ch = theory.build_channel(rng.standard_normal((m, m)), condition_limit=1e300)
        for sigma2 in (0.3, 0.7, 1.3, 2.0):
            rep = theory.theory_report(ch, sigma2)
            assert rep.e_opt == theory.e_opt(ch, sigma2)
            assert rep.channel_gain == theory.channel_gain(ch.eig)
            assert rep.r_eq2 == theory.equivalent_radius_sq(ch, sigma2)
            assert rep.e_slm_limit == theory.e_slm(ch, sigma2)
            sig = rep.r_eq2 * (ch.h @ ch.h.T)
            assert np.array_equal(theory.optimal_covariance(ch, sigma2), (sig + sig.T) / 2.0)
    for fn in (theory.theory_report, theory.e_opt, theory.e_slm, theory.equivalent_radius_sq,
               theory.optimal_covariance):
        for sigma2 in (0.0, -1.0):
            with pytest.raises(ValueError, match="sigma2 must be positive"):
                fn(ch, sigma2)


def test_channel_and_eigensystem_equal_only_themselves():
    a = theory.build_channel(np.eye(2))
    b = theory.build_channel(np.eye(2))
    for x, y in ((a, b), (a.eig, b.eig)):
        assert x == x and x != y
        assert x in [y, x] and x not in [y]
        assert len({x, y, x}) == 2 and hash(x) == hash(x)


def test_theory_report_consistency():
    rng = _rng()
    h = rng.standard_normal((4, 4))
    ch = theory.build_channel(h)
    rep = theory.theory_report(ch, sigma2=2.0)
    assert rep.m == 4
    assert rep.sigma2 == 2.0
    assert rep.e_opt == pytest.approx(4 * rep.r_eq2, rel=1e-14)
    assert rep.e_slm_limit == pytest.approx(math.gamma(1.5) * rep.e_opt, rel=1e-12)
    assert rep.channel_gain == pytest.approx(theory.channel_gain(ch.eigenvalues))
    # det(Q) = det(H)^{-2}
    det_h = np.linalg.det(h)
    assert np.prod(rep.eigenvalues) == pytest.approx(det_h**-2, rel=1e-8)
    # the optimal covariance attains the report's optimum
    mean = theory.average_energy(ch, np.zeros(4), theory.optimal_covariance(ch, 2.0))
    assert mean == pytest.approx(rep.e_opt, rel=1e-10)
