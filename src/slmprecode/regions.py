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
without any coordination. ``make_stream`` builds one such stream. A chunk of
trials owns one ``Streams(master_seed)``, which re-keys a single generator to
each trial's (master_seed, t) under the same key law, so it draws the bits
that ``make_stream(master_seed, t)`` would without building a generator per
trial. ``draw`` is the one sampling law of a region, used by ``Sampler`` and
by the trials; ``draw_rows`` stacks one hypercube draw per stream of a
``Streams``.
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


class Streams:
    """The streams (seed, index) of one seed, through one generator that ``at`` re-keys.

    After ``at(index)`` the generator draws exactly the bits of
    ``make_stream(seed, index)``. Re-keying assigns a state built once (key
    word set to the index, counter zeroed, nothing buffered), which costs a
    fraction of building a generator. Every call returns the same generator,
    re-keyed, so a stream is read to its end before the next ``at``.
    """

    __slots__ = ("_bits", "_gen", "_state", "_key")

    def __init__(self, seed: int) -> None:
        self._bits = np.random.Philox(key=stream_key(seed, 0))
        self._gen = np.random.Generator(self._bits)
        self._state = self._bits.state  # a copy: the start of stream (seed, 0)
        self._key = self._state["state"]["key"]

    def at(self, index: int) -> np.random.Generator:
        self._key[1] = index
        self._bits.state = self._state
        return self._gen


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


def draw_rows(region: Region, streams: Streams, indices: range) -> np.ndarray:
    """Row i is ``draw(region, streams.at(indices[i]))``, for a hypercube region.

    Each stream fills its own row of uniforms, and the map to the cube runs
    once on the whole array; it is elementwise, so every row keeps its bits.
    """
    if region.kind != "hypercube":
        raise ValueError(f"draw_rows draws from a hypercube, got {region.kind}")
    uniform = np.empty((len(indices), region.dim))
    for row, index in zip(uniform, indices):
        streams.at(index).random(out=row)
    return _cube(region, uniform)


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
