"""Sampling regions and deterministic random streams for data vectors.

Data vectors u live in one of three region kinds: a hypercube of side tau
(the continuous approximation of a cubic lattice code), a solid ball, or a
zero-mean Gaussian with arbitrary covariance (the "oval" shaped source used
to verify the closed-form optimum). Each region carries the per-dimension
differential entropy of its distribution, in bits; a finite region's
Lebesgue volume is derived on read.

Randomness is counter-based: every stream is a numpy Philox generator keyed
by a pair of 64-bit words (``stream_key``), so parallel trials derive
independent, scheduling-independent streams from (master_seed, trial_index)
without any coordination. ``make_stream`` builds one such stream. ``draw``
is the one sampling law of a region, used by ``Sampler`` and by
``slm_random``'s trials on ``make_stream(master_seed, t)``.

A task's small draws skip the generators: ``draw_rows`` (hypercube rows)
and ``integer_rows`` (bounded integers) run Philox4x64-10 in numpy uint64
arrays over the task's trials in passes of whole rows, each at most
``theory.GROUP_ENTRIES`` words (one row at least), keyed by ``stream_key`` from
counter 1 as numpy's Philox is, and map its words by numpy's own laws for
doubles and for 32-bit bounded integers. Row i is then what
``make_stream(master_seed, trials[i])`` would draw, bit for bit; the rare
row that numpy's integer rejection would redraw is drawn from that stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg, theory
from .errors import NotPositiveDefiniteError

# Second key word reserved for channel generation so the channel stream can
# never collide with a trial stream (trial indices are < 2^63).
CHANNEL_STREAM_TAG = 0xFFFF_FFFF_FFFF_FFFF

LOG2_TWO_PI_E = math.log2(2.0 * math.pi * math.e)


def stream_key(seed: int, index: int) -> np.ndarray:
    """The Philox key of stream (seed, index): the seed's low 64 bits, then the index."""
    return np.array([seed & 0xFFFF_FFFF_FFFF_FFFF, index], dtype=np.uint64)


def make_stream(seed: int, index: int) -> np.random.Generator:
    """Independent Philox stream keyed by (seed, index)."""
    return np.random.Generator(np.random.Philox(key=stream_key(seed, index)))


def channel_stream(seed: int) -> np.random.Generator:
    """Dedicated stream for drawing random channel matrices."""
    return make_stream(seed, CHANNEL_STREAM_TAG)


@dataclass(frozen=True, eq=False)
class Region:
    """A sampling region for data vectors.

    ``entropy_bits_per_dim`` is the differential entropy per dimension of
    the region's distribution: log2(tau) for the hypercube, (1/M)
    log2(volume) for the ball, and the Gaussian closed form for the oval
    case. ``chol`` is the lower Cholesky factor of the Gaussian's
    covariance.
    """

    kind: str
    dim: int
    entropy_bits_per_dim: float
    tau: Optional[float] = None
    radius: Optional[float] = None
    chol: Optional[np.ndarray] = None

    @property
    def volume(self) -> Optional[float]:
        """Lebesgue volume 2^(M h) of a hypercube or ball, inf where that
        overflows a float; None for the Gaussian."""
        if self.kind == "gaussian":
            return None
        try:
            return 2.0 ** (self.dim * self.entropy_bits_per_dim)
        except OverflowError:
            return math.inf


def hypercube(tau: float, m: int) -> Region:
    """Centered hypercube [-tau/2, tau/2)^M."""
    tau = float(tau)
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    if m < 1:
        raise ValueError("dimension must be >= 1")
    return Region(
        kind="hypercube",
        dim=int(m),
        entropy_bits_per_dim=math.log2(tau),
        tau=tau,
    )


def ball(radius: float, m: int) -> Region:
    """Solid origin-centered M-ball of the given radius."""
    radius = float(radius)
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    if m < 1:
        raise ValueError("dimension must be >= 1")
    # log2 of the linear form wherever that is a positive float, so those
    # entropies keep their bits; the log form where it leaves the float range.
    try:
        volume = theory.ball_volume(m) * radius**m
    except OverflowError:
        volume = math.inf
    if 0.0 < volume < math.inf:
        entropy = math.log2(volume) / m
    else:
        entropy = theory.log_ball_volume(m) / (m * math.log(2.0)) + math.log2(radius)
    return Region(
        kind="ball",
        dim=int(m),
        entropy_bits_per_dim=entropy,
        radius=radius,
    )


def gaussian(sigma) -> Region:
    """Zero-mean Gaussian region with covariance sigma (the oval source)."""
    sigma = linalg.as_matrix(sigma, "sigma")
    if sigma.shape[0] != sigma.shape[1]:
        raise ValueError(f"covariance must be square, got {sigma.shape}")
    m = sigma.shape[0]
    sign, logdet = np.linalg.slogdet(sigma)
    if sign <= 0:
        raise NotPositiveDefiniteError("covariance must be positive definite")
    # h = (1/2) log2((2 pi e)^M det Sigma) bits total, divided by M.
    entropy = 0.5 * LOG2_TWO_PI_E + 0.5 * logdet / (m * math.log(2.0))
    return Region(
        kind="gaussian",
        dim=m,
        entropy_bits_per_dim=entropy,
        chol=linalg.cholesky(sigma),
    )


@dataclass
class Sampler:
    """Single-owner random stream tied to a region.

    Two Samplers built from the same (region, seed) emit bitwise-identical
    sample streams; distinct Samplers may run in parallel.
    """

    region: Region
    seed: int
    stream_index: int = 0

    def __post_init__(self):
        self.gen = make_stream(self.seed, self.stream_index)

    def draw(self, n: Optional[int] = None) -> np.ndarray:
        """``draw(self.region, self.gen, n)``: the next sample or batch of this stream."""
        return draw(self.region, self.gen, n)


def draw(region: Region, gen: np.random.Generator, n: Optional[int] = None) -> np.ndarray:
    """One sample (shape (M,)) or a batch of n samples (shape (n, M)) of region from gen.

    Hypercube coordinates are i.i.d. uniform on [-tau/2, tau/2). A ball
    sample is a normalized standard Gaussian direction with norm
    radius * U^(1/M), the inverse CDF of the radial distribution. A
    Gaussian sample colors white noise with the region's Cholesky factor.
    """
    shape = (region.dim,) if n is None else (int(n), region.dim)
    if region.kind == "hypercube":
        return _cube(region, gen.random(shape))
    if region.kind == "ball":
        g = gen.standard_normal(shape)
        norms = np.linalg.norm(g, axis=-1, keepdims=True)
        # A zero Gaussian draw has probability zero; guard anyway.
        norms = np.where(norms == 0.0, 1.0, norms)
        u = gen.random(shape[:-1] + (1,))
        return g / norms * (region.radius * u ** (1.0 / region.dim))
    return gen.standard_normal(shape) @ region.chol.T


def _cube(region: Region, uniform: np.ndarray) -> np.ndarray:
    """Uniforms on [0, 1) mapped to the hypercube's [-tau/2, tau/2), elementwise, in place."""
    uniform -= 0.5
    uniform *= region.tau
    return uniform


# Philox4x64-10 as numpy runs it: its multipliers, whole and in 32-bit halves, and key bumps.
# The uint64 constants are 0-d arrays: a numpy scalar operand slows a small ufunc call.
_M32, _S32, _S11 = (np.array(c, dtype=np.uint64) for c in (0xFFFF_FFFF, 32, 11))
_MUL = np.array([0xD2E7_470E_E14C_6C93, 0xCA5A_8263_9512_1157], dtype=np.uint64)[:, None, None]
_MUL_LO, _MUL_HI = _MUL & _M32, _MUL >> _S32
_BUMPS = np.arange(10, dtype=np.uint64)[:, None, None, None] * np.array(
    [0x9E37_79B9_7F4A_7C15, 0xBB67_AE85_84CA_A73B], dtype=np.uint64)[:, None, None]


def _philox(key: np.ndarray, n: int) -> np.ndarray:
    """Row i: the words of blocks 1 to n of the Philox stream keyed key[:, i].

    Words 0 and 2 (``a``) and words 1 and 3 (``b``) are (2, rows, n) arrays,
    so one ufunc serves both lanes. A round maps them to ``hi(M a)`` and
    ``lo(M a)``, lanes swapped, the first XOR ``b`` and the round's key; the
    128-bit product's high word is summed from 32-bit halves. The multipliers
    are spread to the pass's shape once, since a broadcast operand slows each call.
    """
    a, b = np.zeros((2, 2, key.shape[1], n), dtype=np.uint64)
    a[0] = np.arange(1, 1 + n)
    mul, mul_lo, mul_hi = (np.broadcast_to(c, a.shape).copy() for c in (_MUL, _MUL_LO, _MUL_HI))
    for k in key[:, :, None] + _BUMPS:
        low, high = a & _M32, a >> _S32
        mid = high * mul_lo + (low * mul_lo >> _S32)
        hi = high * mul_hi + (mid >> _S32) + (low * mul_hi + (mid & _M32) >> _S32)
        a, b = hi[::-1] ^ b ^ k, (a * mul)[::-1]
    return np.stack((a, b), axis=-1).transpose(1, 2, 0, 3).reshape(key.shape[1], 4 * n)


def _values(seed: int, trials: range, width: int, halves: bool):
    """Yield (rows, values) of the first ``width`` values of ``make_stream(seed, t)``.

    A value is a word, or with ``halves`` a word's low and then high 32 bits.
    A pass is a run of whole rows, at most ``theory.GROUP_ENTRIES`` words or one row.
    """
    blocks = -(-width // (8 if halves else 4))
    step = theory.group_rows(4 * blocks)
    t = np.arange(trials.start, trials.stop, trials.step, dtype=np.uint64)
    key = np.stack([np.full_like(t, stream_key(seed, 0)[0]), t])
    for r in range(0, len(t), step):
        words = _philox(key[:, r:r + step], blocks)
        values = words.astype("<u8", copy=False).view("<u4") if halves else words
        yield slice(r, r + step), values[:, :width]


def draw_rows(region: Region, seed: int, trials: range) -> np.ndarray:
    """Row i is ``draw(region, make_stream(seed, trials[i]))``, for a hypercube region.

    numpy's double is ``(word >> 11) * 2^-53``, and the cube map is
    elementwise, so it runs once on the whole array.
    """
    if region.kind != "hypercube":
        raise ValueError(f"draw_rows draws from a hypercube, got {region.kind}")
    uniform = np.empty((len(trials), region.dim))
    for rows, words in _values(seed, trials, region.dim, False):
        np.multiply(words >> _S11, 2.0**-53, out=uniform[rows])
    return _cube(region, uniform)


def integer_rows(seed: int, trials: range, high: int, size: int, dtype) -> np.ndarray:
    """Row i: ``make_stream(seed, trials[i]).integers(0, high, size)`` as ``dtype``; high <= 2^32.

    numpy maps each 32-bit value by Lemire's rule ``(u32 * high) >> 32``, and
    draws again where the product's low half is under ``(2^32 - high) %
    high`` (never for a power of two), which shifts the rest of the row: such
    a row is drawn from its stream.
    """
    if not 1 <= high <= 2**32:
        raise ValueError(f"integer_rows draws below at most 2^32, got {high}")
    out = np.empty((len(trials), size), dtype=dtype)
    threshold = (2**32 - high) % high
    multiplier = np.array(high, dtype=np.uint64)
    redraw = np.zeros(len(trials), dtype=bool)
    for rows, u32 in _values(seed, trials, size, True):
        product = u32 * multiplier
        out[rows] = product >> _S32
        redraw[rows] |= ((product & _M32) < threshold).any(axis=1)
    for i in np.flatnonzero(redraw):
        out[i] = make_stream(seed, trials[i]).integers(0, high, size=size)
    return out


def expanded_region(base: Region, n_candidates: int) -> Region:
    """Hypercube grown to hold n_candidates points per data vector.

    Selective mapping embeds each data vector among N equivalent points, so
    the carrier volume grows to N times the base volume: the side becomes
    tau * N^(1/M) and the per-dimension entropy gains (1/M) log2(N) bits.
    """
    if base.kind != "hypercube":
        raise ValueError(f"expanded_region requires a hypercube base, got {base.kind}")
    n = int(n_candidates)
    if n < 1:
        raise ValueError("n_candidates must be >= 1")
    if n == 1:
        return base
    return hypercube(base.tau * n ** (1.0 / base.dim), base.dim)
