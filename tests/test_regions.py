"""Tests for source regions, samplers, and reproducible streams."""

import math
import warnings

import numpy as np
import pytest

from slmprecode import regions, theory
from slmprecode.errors import NotPositiveDefiniteError


# ---------------------------------------------------------------------------
# streams
# ---------------------------------------------------------------------------


def test_make_stream_reproducible():
    a = regions.make_stream(42, 7).standard_normal(100)
    b = regions.make_stream(42, 7).standard_normal(100)
    assert np.array_equal(a, b)


def test_make_stream_index_separation():
    a = regions.make_stream(42, 0).standard_normal(100)
    b = regions.make_stream(42, 1).standard_normal(100)
    assert not np.array_equal(a, b)


def test_channel_stream_distinct_from_trial_streams():
    ch = regions.channel_stream(42).standard_normal(100)
    for idx in range(4):
        trial = regions.make_stream(42, idx).standard_normal(100)
        assert not np.array_equal(ch, trial)


_SEEDS = [2024, -5, 2**63 + 5, 2**64 - 1, 2**70 + 3]  # keys take a seed's low 64 bits


@pytest.mark.parametrize("seed", _SEEDS)
def test_chunk_draws_are_make_stream_draws(seed):
    # row i of a chunk's one Philox pass is what make_stream(seed, trials[i])
    # draws, for the whole chunk and for one-trial chunks: doubles across the
    # 4-word block boundary, and integers with odd sizes, which leave a 32-bit
    # half unused
    for trials in (range(300), range(2**20 - 5, 2**20 + 3)):
        singles = (0, 1, len(trials) - 1)  # rows drawn as one-trial chunks
        for m in (1, 3, 4, 5, 8, 9, 17):
            cube = regions.hypercube(2.0, m)
            want = np.array([regions.draw(cube, regions.make_stream(seed, t)) for t in trials])
            assert np.array_equal(regions.draw_rows(cube, seed, trials), want), m
            for i in singles:
                assert np.array_equal(regions.draw_rows(cube, seed, trials[i:i + 1])[0], want[i])
        for high in (2, 4, 2**20, 2**32):
            for size in (1, 2, 7, 16):
                want = np.array(
                    [regions.make_stream(seed, t).integers(0, high, size=size) for t in trials])
                got = regions.integer_rows(seed, trials, high, size, np.int64)
                assert got.dtype == np.int64 and np.array_equal(got, want), (high, size)
                for i in singles:
                    row = regions.integer_rows(seed, trials[i:i + 1], high, size, np.int64)[0]
                    assert np.array_equal(row, want[i]), (high, size)


def test_chunk_draws_keep_their_bits_past_a_pass():
    # a pass is a run of whole rows of at most GROUP_ENTRIES Philox words, one
    # row at least: a row one block wider than a pass is drawn alone, and
    # narrower rows in passes of 8 (doubles) or 16 (integers) rows and a tail
    entries = theory.GROUP_ENTRIES
    for m, trials in ((entries + 3, range(3)), (1000, range(5, 40))):
        cube = regions.hypercube(1.0, m)
        rows = regions.draw_rows(cube, 9, trials)
        for row, t in zip(rows, trials):
            assert np.array_equal(row, regions.draw(cube, regions.make_stream(9, t))), m
    for size, trials in ((2 * entries + 5, range(2)), (1001, range(5, 40))):
        bits = regions.integer_rows(9, trials, 2, size, np.uint8)
        for row, t in zip(bits, trials):
            assert np.array_equal(row, regions.make_stream(9, t).integers(0, 2, size=size)), size


def test_zero_width_integer_rows_are_empty_rows():
    # no value to draw: a (T, 0) array, as numpy's integers(..., size=0) is
    got = regions.integer_rows(3, range(4), 5, 0, np.int64)
    assert got.shape == (4, 0) and got.dtype == np.int64
    assert np.array_equal(got[2], regions.make_stream(3, 2).integers(0, 5, size=0))


def test_chunk_draws_at_the_largest_seed_raise_no_warning():
    # the wrapping uint64 products and sums run on arrays, where numpy does
    # not warn; tier-1 makes any warning an error, and this makes sure of it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = regions.draw_rows(regions.hypercube(2.0, 5), 2**64 - 1, range(2**20 - 2, 2**20))
        ints = regions.integer_rows(2**64 - 1, range(3), 3**12, 3, np.int64)
    assert np.array_equal(rows[1], regions.draw(
        regions.hypercube(2.0, 5), regions.make_stream(2**64 - 1, 2**20 - 1)))
    assert np.array_equal(ints[2], regions.make_stream(2**64 - 1, 2).integers(0, 3**12, size=3))


def test_integer_rows_refuse_a_range_past_32_bits():
    with pytest.raises(ValueError):
        regions.integer_rows(1, range(2), 2**32 + 1, 1, np.int64)


@pytest.mark.parametrize(
    "region",
    [regions.hypercube(2.0, 3), regions.ball(1.5, 3), regions.gaussian(np.diag([1.0, 2.0, 3.0]))],
    ids=["hypercube", "ball", "gaussian"],
)
@pytest.mark.parametrize("n", [None, 5])
def test_draw_on_a_rekeyed_stream_is_the_sampler_draw(region, n):
    # slm_random's trials draw with regions.draw on make_stream(seed, t); API
    # users with a Sampler
    for t in (4, 1, 4):
        a = regions.draw(region, regions.make_stream(31, t), n)
        b = regions.Sampler(region, 31, t).draw(n)
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# region factories
# ---------------------------------------------------------------------------


def test_hypercube_region_bookkeeping():
    reg = regions.hypercube(2.0, 3)
    assert reg.kind == "hypercube"
    assert reg.dim == 3
    assert reg.volume == pytest.approx(8.0)
    assert reg.entropy_bits_per_dim == pytest.approx(1.0)
    assert reg.tau == 2.0


def test_ball_region_bookkeeping():
    reg = regions.ball(1.0, 2)
    assert reg.kind == "ball"
    assert reg.volume == pytest.approx(math.pi)
    assert reg.entropy_bits_per_dim == pytest.approx(0.5 * math.log2(math.pi))
    assert reg.radius == 1.0


def test_gaussian_region_bookkeeping():
    reg = regions.gaussian(np.eye(2))
    assert reg.kind == "gaussian"
    # differential entropy per dim of N(0,1) in bits
    assert reg.entropy_bits_per_dim == pytest.approx(0.5 * math.log2(2 * math.pi * math.e))


def test_gaussian_region_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        regions.gaussian(np.diag([1.0, -1.0]))


def test_region_validation():
    with pytest.raises(ValueError):
        regions.hypercube(-1.0, 2)
    with pytest.raises(ValueError):
        regions.hypercube(1.0, 0)
    with pytest.raises(ValueError):
        regions.ball(0.0, 2)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def test_hypercube_sampler_support_and_moments():
    tau, m, n = 2.0, 3, 1_000_000
    s = regions.Sampler(regions.hypercube(tau, m), seed=5)
    x = s.draw(n)
    assert x.shape == (n, m)
    assert np.all(x >= -tau / 2)
    assert np.all(x < tau / 2)
    # mean within 3 standard errors, variance within 1%
    se_mean = tau / math.sqrt(12 * n)
    assert np.all(np.abs(x.mean(axis=0)) <= 3 * se_mean)
    assert np.allclose(x.var(axis=0), tau**2 / 12, rtol=0.01)


def test_ball_sampler_support_and_second_moment():
    r, m, n = 1.5, 4, 200_000
    s = regions.Sampler(regions.ball(r, m), seed=6)
    x = s.draw(n)
    norms2 = np.sum(x * x, axis=1)
    assert np.all(norms2 <= r * r * (1 + 1e-12))
    # E||u||^2 for uniform ball = M r^2 / (M + 2)
    want = m * r * r / (m + 2)
    assert np.mean(norms2) == pytest.approx(want, rel=0.01)
    se = np.std(norms2) / math.sqrt(n)
    assert abs(np.mean(norms2) - want) <= 4 * se


def test_gaussian_sampler_covariance():
    cov = np.array([[4.0, 2.0], [2.0, 5.0]])
    s = regions.Sampler(regions.gaussian(cov), seed=7)
    x = s.draw(400_000)
    est = np.cov(x.T)
    assert np.allclose(est, cov, rtol=0.02)
    assert np.all(np.abs(x.mean(axis=0)) <= 0.02)


def test_gaussian_sampler_attains_optimal_energy():
    # drawing from the optimal covariance reproduces the closed-form minimum
    rng = np.random.default_rng(8)
    ch = theory.build_channel(rng.standard_normal((4, 4)))
    sigma = theory.optimal_covariance(ch, sigma2=1.0)
    s = regions.Sampler(regions.gaussian(sigma), seed=9)
    x = s.draw(200_000)
    measured = np.mean(ch.energies(x))
    assert measured == pytest.approx(theory.e_opt(ch, sigma2=1.0), rel=0.02)


def test_sampler_reproducible():
    a = regions.Sampler(regions.hypercube(1.0, 2), seed=3, stream_index=11).draw(64)
    b = regions.Sampler(regions.hypercube(1.0, 2), seed=3, stream_index=11).draw(64)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# expanded regions
# ---------------------------------------------------------------------------


def test_expanded_region_sides():
    base = regions.hypercube(2.0, 4)
    assert regions.expanded_region(base, 1).tau == pytest.approx(2.0)
    assert regions.expanded_region(base, 16).tau == pytest.approx(4.0)
    assert regions.expanded_region(base, 256).tau == pytest.approx(8.0)


def test_expanded_region_entropy_bookkeeping():
    # expanding to hold N candidates adds (1/M) log2 N bits per dimension
    base = regions.hypercube(2.0, 4)
    big = regions.expanded_region(base, 256)
    extra = big.entropy_bits_per_dim - base.entropy_bits_per_dim
    assert extra == pytest.approx(math.log2(256) / 4, rel=1e-12)
    assert big.volume == pytest.approx(base.volume * 256, rel=1e-12)


def test_expanded_region_requires_hypercube():
    with pytest.raises(ValueError):
        regions.expanded_region(regions.ball(1.0, 2), 4)
    with pytest.raises(ValueError):
        regions.expanded_region(regions.hypercube(1.0, 2), 0)
