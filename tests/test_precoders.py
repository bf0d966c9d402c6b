"""Tests for plain inversion, random selection, and lattice perturbation."""

import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from slmprecode import precoders, regions, theory
from slmprecode.errors import (
    DimensionMismatchError,
    EmptyCandidateSetError,
    SearchBudgetExceededError,
)


def _rng():
    return np.random.default_rng(4321)


# ---------------------------------------------------------------------------
# plain inversion
# ---------------------------------------------------------------------------


def test_invert_precode_identity():
    ch = theory.build_channel(np.eye(2))
    res = precoders.invert_precode(ch, np.array([0.3, -0.4]))
    assert np.allclose(res.s, [0.3, -0.4])
    assert res.gamma == pytest.approx(0.25, rel=1e-12)
    assert res.n_candidates == 1


def test_invert_precode_diagonal():
    ch = theory.build_channel(np.diag([2.0, 0.5]))
    res = precoders.invert_precode(ch, np.array([1.0, 1.0]))
    assert np.allclose(res.s, [0.5, 2.0], rtol=1e-12)
    assert res.gamma == pytest.approx(0.25 + 4.0, rel=1e-12)
    # receiver sees the payload exactly
    assert np.allclose(ch.h @ res.s, [1.0, 1.0], rtol=1e-12)


def test_invert_precode_random_consistency():
    rng = _rng()
    ch = theory.build_channel(rng.standard_normal((5, 5)))
    u = rng.standard_normal(5)
    res = precoders.invert_precode(ch, u)
    assert np.allclose(ch.h @ res.s, u, atol=1e-10)
    assert res.gamma == pytest.approx(float(res.s @ res.s), rel=1e-12)
    assert res.gamma == pytest.approx(ch.energy(u), rel=1e-12)


def test_invert_precode_dimension_check():
    ch = theory.build_channel(np.eye(2))
    with pytest.raises(DimensionMismatchError):
        precoders.invert_precode(ch, np.zeros(3))


# ---------------------------------------------------------------------------
# random selection
# ---------------------------------------------------------------------------


def test_slm_random_single_candidate():
    ch = theory.build_channel(np.eye(2))
    res = precoders.slm_random(ch, np.array([[0.5, 0.5]]))
    assert res.candidate_index == 0
    assert res.gamma == pytest.approx(0.5)
    # one M-vector is one candidate: the result is plain inversion's, bit for bit
    ch = theory.build_channel(_rng().standard_normal((3, 3)))
    u = np.array([0.3, -0.7, 0.1])
    one, plain = precoders.slm_random(ch, u), precoders.invert_precode(ch, u)
    assert (one.candidate_index, one.n_candidates) == (0, 1)
    assert one.gamma == plain.gamma
    assert one.u_chosen.tobytes() == plain.u_chosen.tobytes()
    assert one.s.tobytes() == plain.s.tobytes()


def test_slm_random_picks_minimum():
    ch = theory.build_channel(np.eye(2))
    cands = np.array([[1.0, 0.0], [0.0, 0.1]])
    res = precoders.slm_random(ch, cands)
    assert res.candidate_index == 1
    assert res.gamma == pytest.approx(0.01)
    assert np.allclose(res.u_chosen, [0.0, 0.1])


def test_slm_random_matches_independent_scan():
    rng = _rng()
    while True:
        h = rng.standard_normal((4, 4))
        if np.linalg.cond(h) < 100:
            break
    ch = theory.build_channel(h)
    cands = rng.uniform(-1, 1, size=(1024, 4))
    res = precoders.slm_random(ch, cands)
    # independent oracle: quadratic form per row, first minimum wins
    energies = np.array([c @ ch.q @ c for c in cands])
    want_idx = int(np.argmin(energies))
    assert res.candidate_index == want_idx
    assert res.gamma == pytest.approx(energies[want_idx], rel=1e-12)
    assert res.n_candidates == 1024


def test_slm_random_nested_prefix_monotone():
    # the best of a prefix can never beat the best of the full set
    rng = _rng()
    ch = theory.build_channel(rng.standard_normal((3, 3)))
    cands = rng.uniform(-1, 1, size=(256, 3))
    prev = math.inf
    for n in (1, 4, 16, 64, 256):
        g = precoders.slm_random(ch, cands[:n]).gamma
        assert g <= prev + 1e-15
        prev = g
    assert precoders.slm_random(ch, cands).gamma <= ch.energy(cands[0]) + 1e-15


def test_slm_random_tie_breaks_lowest_index():
    ch = theory.build_channel(np.eye(2))
    cands = np.array([[0.5, 0.0], [0.0, 0.5], [0.5, 0.0]])
    res = precoders.slm_random(ch, cands)
    assert res.candidate_index == 0


def test_slm_random_empty_raises():
    ch = theory.build_channel(np.eye(2))
    with pytest.raises(EmptyCandidateSetError):
        precoders.slm_random(ch, np.zeros((0, 2)))


def test_slm_random_shape_check():
    ch = theory.build_channel(np.eye(2))
    with pytest.raises(DimensionMismatchError):
        precoders.slm_random(ch, np.zeros((4, 3)))


@pytest.mark.parametrize("cands", [[[np.nan, 0.0], [1.0, 1.0]], [[1.0, 1.0], [np.inf, 0.0]],
                                   [-np.inf, 0.0]], ids=["nan_first", "inf_second", "one_row"])
def test_slm_random_rejects_non_finite_candidates(cands):
    # a nan or inf entry gives a nan energy, which argmin would pick; refused
    # as invert_precode refuses it
    ch = theory.build_channel(np.eye(2))
    with pytest.raises(ValueError, match="non-finite"):
        precoders.slm_random(ch, cands)


# ---------------------------------------------------------------------------
# interval folding
# ---------------------------------------------------------------------------


def test_fold_interval_values():
    assert precoders.fold_interval(0.6, 2.0) == pytest.approx(0.6)
    assert precoders.fold_interval(1.4, 2.0) == pytest.approx(-0.6)
    assert precoders.fold_interval(-1.4, 2.0) == pytest.approx(0.6)
    assert precoders.fold_interval(7.0, 2.0) == pytest.approx(-1.0)
    # half-open convention: the upper edge maps to the lower edge
    assert precoders.fold_interval(1.0, 2.0) == pytest.approx(-1.0)
    assert precoders.fold_interval(-1.0, 2.0) == pytest.approx(-1.0)
    # just below the upper edge stays there, although x / tau + 0.5 rounds to 1
    assert precoders.fold_interval(1.4999999999999998, 3.0) == 1.4999999999999998


def test_fold_interval_idempotent_and_periodic():
    rng = _rng()
    tau = 1.7
    x = rng.uniform(-40, 40, size=1000)
    f = precoders.fold_interval(x, tau)
    assert np.all(f >= -tau / 2)
    assert np.all(f < tau / 2)
    assert np.allclose(precoders.fold_interval(f, tau), f, atol=1e-12)
    assert np.allclose(precoders.fold_interval(x + 3 * tau, tau), f, atol=1e-9)


@pytest.mark.parametrize("tau", [3.0, 2.0, 1.7, 0.1, 1 / 3, 1e-3])
def test_fold_interval_stays_inside_next_to_an_edge(tau):
    # floor(x / tau + 0.5) can round up by one just below an upper edge, which
    # sent 1.4999999999999998 (tau 3) to -1.5000000000000002
    edges = tau / 2 + tau * np.arange(-1000.0, 1000.0)
    x = np.concatenate([np.nextafter(edges, -np.inf), edges, np.nextafter(edges, np.inf),
                        np.nextafter(-edges, -np.inf), np.nextafter(-edges, np.inf)])
    f = precoders.fold_interval(x, tau)
    assert np.all(f >= -tau / 2) and np.all(f < tau / 2)
    # a result the floor formula already puts inside keeps its bits
    rounded = x - tau * np.floor(x / tau + 0.5)
    inside = (rounded >= -tau / 2) & (rounded < tau / 2)
    assert f[inside].tobytes() == rounded[inside].tobytes()
    # one that it puts outside is replaced by x less an exact multiple of tau
    for xi, fi in zip(x[~inside], f[~inside]):
        assert ((Fraction(xi) - Fraction(fi)) / Fraction(tau)).denominator == 1
    assert precoders.fold_interval(f, tau).tobytes() == f.tobytes()


# ---------------------------------------------------------------------------
# vector perturbation
# ---------------------------------------------------------------------------


def test_vector_perturb_b1_equals_inversion():
    rng = _rng()
    ch = theory.build_channel(rng.standard_normal((3, 3)))
    u = np.array([0.2, -0.3, 0.4])
    vp = precoders.vector_perturb(ch, u, tau=2.0, b=1)
    assert vp.gamma == pytest.approx(precoders.invert_precode(ch, u).gamma, rel=1e-12)
    assert np.allclose(vp.meta["offset"], 0)


def test_vector_perturb_hand_example():
    # identity channel, u = (0.6, 0), tau = 1: shifting by -1 gives (-0.4, 0)
    # with energy 0.16 < 0.36
    ch = theory.build_channel(np.eye(2))
    res = precoders.vector_perturb(ch, np.array([0.6, 0.0]), tau=1.0, b=3)
    assert res.gamma == pytest.approx(0.16, rel=1e-12)
    assert np.allclose(res.u_chosen, [-0.4, 0.0], atol=1e-12)
    assert np.array_equal(res.meta["offset"], [-1, 0])
    assert res.n_candidates == 9


def test_vector_perturb_matches_exhaustive_grid():
    rng = _rng()
    ch = theory.build_channel(rng.standard_normal((3, 3)))
    tau, b = 2.0, 3
    for _ in range(20):
        u = rng.uniform(-tau / 2, tau / 2, size=3)
        res = precoders.vector_perturb(ch, u, tau=tau, b=b)
        # independent scan over the same centered offset grid
        best = math.inf
        for l in itertools.product((-1, 0, 1), repeat=3):
            g = ch.energy(u + tau * np.array(l))
            if g < best - 1e-15:
                best = g
        assert res.gamma == pytest.approx(best, rel=1e-12)


def test_vector_perturb_dominates_inversion():
    # strongly correlated channel where perturbation pays off
    ch = theory.build_channel(np.array([[1.0, 0.99], [0.99, 1.0]]))
    rng = _rng()
    wins = 0
    for _ in range(50):
        u = rng.uniform(-1, 1, size=2)
        plain = precoders.invert_precode(ch, u).gamma
        vp = precoders.vector_perturb(ch, u, tau=2.0, b=5).gamma
        assert vp <= plain + 1e-12
        if vp < plain * 0.99:
            wins += 1
    assert wins > 10


def test_vector_perturb_coset_invariant():
    # adding multiples of tau to the payload cannot change the chosen energy
    rng = _rng()
    ch = theory.build_channel(rng.standard_normal((4, 4)))
    tau = 2.0
    for _ in range(20):
        u = rng.uniform(-1, 1, size=4)
        k = rng.integers(-3, 4, size=4)
        a = precoders.vector_perturb(ch, u, tau=tau, b=3)
        b_ = precoders.vector_perturb(ch, u + tau * k, tau=tau, b=3)
        assert b_.gamma == pytest.approx(a.gamma, abs=1e-9 * (1 + a.gamma))


def test_vector_perturb_tie_breaks_lowest_index():
    # u = -0.5, tau 1, b 2: offsets {0, 1} give "-0.5" and "0.5" -> fold puts
    # u at -0.5; candidates -0.5 (index 0) and 0.5 (index 1) tie; index 0 wins
    ch = theory.build_channel(np.eye(1))
    res = precoders.vector_perturb(ch, np.array([-0.5]), tau=1.0, b=2)
    assert res.candidate_index == 0
    assert res.gamma == pytest.approx(0.25)


def test_vector_perturb_budget():
    ch = theory.build_channel(np.eye(8))
    with pytest.raises(SearchBudgetExceededError):
        precoders.vector_perturb(ch, np.zeros(8), tau=1.0, b=7)  # 7^8 > 2^20


def test_vector_perturb_validation():
    ch = theory.build_channel(np.eye(2))
    with pytest.raises(ValueError):
        precoders.vector_perturb(ch, np.zeros(2), tau=0.0, b=3)
    with pytest.raises(ValueError):
        precoders.vector_perturb(ch, np.zeros(2), tau=1.0, b=0)


def test_offset_range_centering():
    assert np.array_equal(precoders.offset_range(1), [0])
    assert np.array_equal(precoders.offset_range(2), [0, 1])
    assert np.array_equal(precoders.offset_range(3), [-1, 0, 1])
    assert np.array_equal(precoders.offset_range(4), [-1, 0, 1, 2])
    assert np.array_equal(precoders.offset_range(5), [-2, -1, 0, 1, 2])


# ---------------------------------------------------------------------------
# receiver-side verification
# ---------------------------------------------------------------------------


def test_receiver_verify_plain():
    rng = _rng()
    ch = theory.build_channel(rng.standard_normal((4, 4)))
    for _ in range(100):
        u = rng.uniform(-1, 1, size=4)
        res = precoders.invert_precode(ch, u)
        assert precoders.receiver_verify(ch, res, u, tau=2.0)


def test_receiver_verify_vector_perturb():
    rng = _rng()
    ch = theory.build_channel(rng.standard_normal((4, 4)))
    tau = 2.0
    for _ in range(1000):
        u = rng.uniform(-tau / 2, tau / 2, size=4)
        res = precoders.vector_perturb(ch, u, tau=tau, b=3)
        assert precoders.receiver_verify(ch, res, u, tau=tau)


def test_receiver_verify_detects_corruption():
    ch = theory.build_channel(np.eye(2))
    res = precoders.invert_precode(ch, np.array([0.3, 0.1]))
    assert not precoders.receiver_verify(ch, res, np.array([0.3, 0.4]), tau=2.0)


@pytest.mark.parametrize("s", [[math.nan, 0.1], [math.inf, 0.1], [-math.inf, math.inf],
                               [1e308, 1e308]])
def test_receiver_verify_rejects_a_non_finite_signal(s):
    # NaN compares false with everything, so it must fail the check, not pass it, and warn
    # nothing (numpy warnings are errors here)
    ch = theory.build_channel(np.array([[1.0, 0.5], [0.5, 1.0]]))
    res = precoders.invert_precode(ch, np.array([0.3, 0.1]))
    assert precoders.receiver_verify(ch, res, np.array([0.3, 0.1]), tau=2.0)
    bad = dataclasses.replace(res, s=np.array(s))
    assert not precoders.receiver_verify(ch, bad, np.array([0.3, 0.1]), tau=2.0)


def test_receiver_verify_wraps_the_period_edge():
    # -tau/2 and tau/2 are one point: a fold just below tau/2 recovers -tau/2
    ch = theory.build_channel(np.eye(2))
    res = precoders.invert_precode(ch, np.array([1.0 - 1e-12, 0.2]))
    assert precoders.receiver_verify(ch, res, np.array([-1.0, 0.2]), tau=2.0)
    assert not precoders.receiver_verify(ch, res, np.array([-1.0 + 1e-6, 0.2]), tau=2.0)


# ---------------------------------------------------------------------------
# distribution-level corollary
# ---------------------------------------------------------------------------


def test_equal_volume_ball_beats_cube_after_selection():
    # candidates drawn from a ball achieve a lower selected energy than from a
    # cube of equal volume (the limit depends on the region only through its
    # volume, but at finite N the ball's rotational symmetry helps; we check
    # the weaker statement that both converge to the same scale).
    rng = _rng()
    ch = theory.build_channel(np.eye(2))
    n, trials = 256, 400
    vol = 4.0  # cube side 2; ball radius sqrt(vol/pi)
    r = math.sqrt(vol / math.pi)
    cube = regions.Sampler(regions.hypercube(2.0, 2), seed=10)
    ball = regions.Sampler(regions.ball(r, 2), seed=11)
    g_cube = np.mean(
        [precoders.slm_random(ch, cube.draw(n)).gamma for _ in range(trials)]
    )
    g_ball = np.mean(
        [precoders.slm_random(ch, ball.draw(n)).gamma for _ in range(trials)]
    )
    limit = theory.slm_limit_uniform(2, 2, vol) / n
    assert g_cube == pytest.approx(limit, rel=0.2)
    assert g_ball == pytest.approx(limit, rel=0.2)
