"""Sign-bit trellis shaping and per-user nested-lattice coset selection.

Both schemes realize selective mapping under the independency condition:
the transmitter may alter each data symbol only in ways each receiver can
undo on its own coordinate(s).

Sign-bit shaping maps payload bits onto PAM symbols (one sign bit plus
magnitude bits per symbol) and XORs the sign bits with a codeword of a
binary convolutional code; every codeword yields the same information, so
the transmitter searches the coset {u(payload, c) : c in C} for the vector
minimizing gamma = u^T Q u. A codeword bit flips the sign of its symbol,
so u(payload, c) = u0 * (1 - 2c) with u0 = u(payload, 0) the zero-codeword
point, and the codewords are indexed by the encoder's free input bits.

The search is ``trellis_shape``. Because Q couples all dimensions, branch
metrics come from the triangular factorization Q = L L^T: with G = L^T,
gamma = ||G u||^2 and component i of G u depends only on u_i..u_M, so the
code tree is searched from its root in reverse symbol order with exact
additive metric increments (a depth-first branch-and-bound on an explicit
stack that expands a batch of nodes per array operation, bounded by
``SEARCH_BUDGET`` nodes). ``shape_rows`` gives the same chosen vectors for
each row of a (T, M) array of zero-codeword points, and is the one place
that picks how: a code tree of at most ``_SCAN_LIMIT`` = 2^14 codewords
((7,5) up to M = 32) is scanned whole, a codeword's metric two halves that
meet in the middle on the encoder state; a larger tree is searched one row
at a time. Either metric only prunes, by one rounding bound and one keep
rule, so both send the smallest (``ChannelMatrix.energy``, codeword, input
index). Scan groups and search batches hold at most ``theory.GROUP_ENTRIES``.

Like the precoders, both searches take the data vector: ``trellis_shape``
the zero-codeword point u0, ``nested_select`` the M-vector of the users'
stacked blocks. The sign/magnitude bit labeling lives only in
``payload_to_coset`` and ``coset_to_payload``; a codeword c only flips
signs, u0 * (1 - 2c), so they take none.

Each parameter is stated once: a code is its tap masks (n_s and the memory
follow), and a constellation is its level count and spacing (the modulo
period tau = n_levels * spacing and the bits per symbol follow). The three
scheme types check their own fields however they are built (constructor or
``dataclasses.replace``); ``pam_constellation`` and ``lattice_partition`` are
two of the classes.

Nested-lattice selection gives each user K a partition Lambda/Lambda' of a
scaled integer lattice in 2*n_u dimensions; shifting a user's block by any
element of Lambda' preserves its information modulo Lambda'. Since
Lambda' = q*spacing * Z^(2 n_u), a joint shift of all K blocks is an integer
perturbation with period q*spacing, so ``nested_select`` is vector
perturbation (``precoders.vector_perturb``) with q offsets per coordinate.
Coset representatives come from their indices by ``precoders.lex_digits``.
"""

from __future__ import annotations

import functools
import math
import reprlib
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import linalg, theory
from .errors import (
    ConfigError,
    DimensionMismatchError,
    LengthMismatchError,
    SearchBudgetExceededError,
)
from .precoders import (
    SEARCH_BUDGET,
    PrecodeResult,
    check_dim,
    lex_digits,
    precode_result,
    vector_perturb,
)
from .theory import ChannelMatrix

# shape_rows scans a tree of at most this many codewords, else searches. (7,5) PAM 4, 2-core Xeon
# VM, ms a trial, scan vs search: 0.04 vs 0.80 at 2^10 codewords (M = 24), 0.17 vs 6.1 at 2^14,
# 0.74 vs 6.1 at 2^16, 2.4 vs 22 at 2^18 (M = 40): no crossover, but only M > 32 would move.
_SCAN_LIMIT = 2**14
# The sign of a symbol whose codeword bit is 0 or 1.
_SIGN = np.array([1.0, -1.0])


# ---------------------------------------------------------------------------
# Convolutional shaping code
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShapingCode:
    """Feed-forward binary convolutional code of rate 1/n_s.

    ``generators[i]`` is the tap mask of output i: bit ``memory`` of the
    mask taps the current input bit, bit ``memory - d`` taps the input
    delayed by d steps (the usual most-significant-digit-first octal
    convention, e.g. 0o7 = 1 + D + D^2 and 0o5 = 1 + D^2 at memory 2). The
    encoder state is the shift register of the last ``memory`` input bits.
    The masks are ints in numeric form (write them as octal literals); fewer
    than two, or one that is not a non-negative integer, raise ConfigError.
    """

    generators: Tuple[int, ...]

    def __post_init__(self) -> None:
        masks = tuple(self.generators)
        if any(not isinstance(g, (int, np.integer)) or g < 0 for g in masks):
            raise ConfigError(f"tap masks must be non-negative integers, got {reprlib.repr(masks)}")
        if len(masks) < 2:
            raise ConfigError(f"need n_s >= 2 output streams, got {len(masks)}")
        object.__setattr__(self, "generators", tuple(int(g) for g in masks))

    @functools.cached_property
    def n_s(self) -> int:
        return len(self.generators)

    @functools.cached_property
    def memory(self) -> int:
        return max(0, max(g.bit_length() for g in self.generators) - 1)

    def codeword_count(self, n_steps: int) -> int:
        """Number of distinct terminated input sequences over n_steps.

        The last ``memory`` steps take forced zero inputs, which drive the
        encoder back to state 0.
        """
        return 1 << max(0, n_steps - self.memory)


def code_from_octal(spec: str) -> ShapingCode:
    """Parse a comma-separated octal generator string, e.g. "7,5"."""
    toks = [t.strip() for t in str(spec).split(",") if t.strip()]
    if not toks:
        raise ConfigError(f"no generators in {reprlib.repr(spec)}")
    try:
        masks = [int(t, 8) for t in toks]
    except ValueError:
        raise ConfigError(f"bad octal generator in {reprlib.repr(spec)}") from None
    return ShapingCode(masks)


DEFAULT_CODE_SPEC = "7,5"


def default_code() -> ShapingCode:
    """The canonical small shaping code: rate (1,2), generators (7,5) octal."""
    return code_from_octal(DEFAULT_CODE_SPEC)


# ---------------------------------------------------------------------------
# Partitioned PAM constellation (sign bit + magnitude bits)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PartitionedConstellation:
    """Uniform PAM levels with a sign/magnitude bit labeling for shaping.

    The levels are spacing*(k + 1/2), k = 0..n_levels/2 - 1, and their
    negatives, filling the modulo period ``tau`` = n_levels*spacing. A symbol
    carries ``bits_per_symbol`` = log2(n_levels) bits: a sign bit (1 means
    negative), then magnitude bits (natural binary, 0 = innermost level).
    ``n_levels`` is checked by ``pam_levels``; ``spacing`` must be positive.
    """

    n_levels: int
    spacing: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_levels", pam_levels(self.n_levels))
        if self.spacing <= 0.0:
            raise ConfigError("spacing must be positive")
        object.__setattr__(self, "spacing", float(self.spacing))

    @property
    def tau(self) -> float:
        return self.n_levels * self.spacing

    @property
    def bits_per_symbol(self) -> int:
        return self.n_levels.bit_length() - 1


# The name the harness builds a constellation by: perfbench's tracer wraps it.
pam_constellation = PartitionedConstellation


def pam_levels(n_levels: int, name: str = "n_levels") -> int:
    """A PAM size as an int: a power of two from 2 to 2^53, else a ConfigError naming ``name``.

    Within that range each magnitude index k and k + 1/2 are exact in a
    float64 and the labeling's int64 arithmetic cannot overflow.
    """
    n_levels = int(n_levels)
    if n_levels < 2 or n_levels > 2**53 or n_levels & (n_levels - 1):
        got = reprlib.repr(n_levels)
        raise ConfigError(f"{name} must be a power of two from 2 to 2^53, got {got}")
    return n_levels


def payload_to_coset(payload_bits, cons: PartitionedConstellation) -> np.ndarray:
    """Map payload bits to the PAM symbols of the zero-codeword point u0.

    The payload supplies ``bits_per_symbol`` bits per symbol, sign bit
    first. Symbol j is (1 - 2 s_j) * spacing * (k_j + 1/2) with s_j the
    sign bit and k_j the magnitude bits read as a binary number. Codeword c
    flips the signs of u0, u0 * (1 - 2c), so all codewords of the shaping
    code carry the same information.
    """
    bps = cons.bits_per_symbol
    payload = np.asarray(payload_bits)
    if payload.ndim != 1 or payload.size % bps:
        raise LengthMismatchError(
            f"payload must be a flat sequence of {bps}-bit symbols, got shape {payload.shape}"
        )
    not_bits = "payload bits must contain only 0/1 values"
    # other than integers, values are checked before the cast, which truncates 0.5 to 0
    if payload.dtype.kind not in "biu" and not np.all((payload == 0) | (payload == 1)):
        raise LengthMismatchError(not_bits)
    bits = payload.astype(np.int64)
    if (bits & -2).any():
        raise LengthMismatchError(not_bits)
    return _pam_map(bits, cons)


def _pam_map(bits: np.ndarray, cons: PartitionedConstellation) -> np.ndarray:
    """Unchecked ``payload_to_coset`` of rows of uint8 or int64 bits: (..., M*bps) -> (..., M)."""
    bps = cons.bits_per_symbol
    bits = bits.reshape(bits.shape[:-1] + (-1, bps))
    k = np.zeros(bits.shape[:-1], dtype=np.int64)
    for j in range(1, bps):  # a bit at a time: no int64 copy of uint8 bits
        k = k << 1 | bits[..., j]
    return (1.0 - 2.0 * bits[..., 0]) * cons.spacing * (k + 0.5)


def coset_to_payload(u, cons: PartitionedConstellation) -> np.ndarray:
    """Invert payload_to_coset from symbols whose codeword's sign flips are undone.

    Each receiver reads its own coordinate: the magnitude bits come from
    the level's magnitude index, and the sign bit is 1 for a negative
    symbol. A symbol that is not a level within 1e-6 * spacing raises
    ValueError.
    """
    u = linalg.as_vector(u, "u")
    mag = np.abs(u)
    k = np.rint(mag / cons.spacing - 0.5)
    off = (k >= cons.n_levels // 2) | (
        np.abs(mag - cons.spacing * (k + 0.5)) > 1e-6 * cons.spacing
    )
    if off.any():
        raise ValueError(f"{float(u[off][0])!r} is not a constellation level")
    bps = cons.bits_per_symbol
    bits = np.empty((u.size, bps), dtype=np.int64)
    bits[:, 0] = u < 0
    bits[:, 1:] = (k.astype(np.int64)[:, None] >> np.arange(bps - 2, -1, -1)) & 1
    return bits.reshape(-1)


# ---------------------------------------------------------------------------
# Minimum-energy coset search over the code trellis
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=1)
def _generator_matrix(code: ShapingCode, n_steps: int) -> np.ndarray:
    """The code's F x M generator matrix over its free inputs x_0..x_{F-1}.

    Row j holds the output bits of input x_j alone: bit k of generator i
    taps x_j at step j + memory - k. A codeword is ``inputs @ gen & 1``;
    the uint8 product wraps modulo 256, which keeps the parity. Read-only,
    built once per (code, n_steps).
    """
    free = max(0, n_steps - code.memory)
    gen = np.zeros((free, n_steps, code.n_s), dtype=np.uint8)
    rows = np.arange(free)
    for k in range(code.memory + 1):
        gen[rows, rows + code.memory - k] = [(g >> k) & 1 for g in code.generators]
    gen = gen.reshape(free, n_steps * code.n_s)
    gen.flags.writeable = False
    return gen


@functools.lru_cache(maxsize=1)
def _half_signs(code: ShapingCode, n_steps: int) -> Tuple[np.ndarray, np.ndarray, int]:
    """Signs 1 - 2c of a tree's symbols before and from step n_steps // 2, and the state bits.

    The low table has a row per setting of x_0..x_{b-1}, the high table per
    setting of x_a..x_{F-1} (a = max(0, split - memory), b = min(split, F));
    the b - a inputs both read are the state. Leaf v has low row v >> (F - b)
    and high row v mod 2^(F - a). Read-only, built once per (code, n_steps).
    """
    gen = _generator_matrix(code, n_steps)
    free, split = len(gen), n_steps // 2
    a, b = max(0, min(split - code.memory, free)), min(split, free)
    low, high = (_SIGN[lex_digits(np.arange(1 << bits), 2, bits) @ taps & 1] for bits, taps in
                 ((b, gen[:b, :split * code.n_s]), (free - a, gen[a:, split * code.n_s:])))
    low.flags.writeable = high.flags.writeable = False
    return low, high, b - a


def _rounding_bound(ch: ChannelMatrix, u0) -> float | np.ndarray:
    """32 M 2^-53 ||a||^2, a = |u0| |L|, of one u0 or each row: inf where 2 ||a||^2 overflows.

    A leaf u = u0 * s has |u| = |u0|, so each component of its exact w = u L is at most a.
    Its ``ch.energy``, search path metric and scan metric each sum at most M products a
    component and M terms a metric, so each is within (3 M + 2) 2^-53 ||a||^2 of gamma =
    ||w||^2 to first order, a quarter of the bound. A winner v's energy is at most that of
    the leaf x of the lowest metric, and of an incumbent, so metric(v) <= metric(x) + bound
    and <= incumbent + bound / 2; a path metric only grows towards its leaves. So no leaf
    that ``_kept`` rules out could win by ``ch.energy``.
    """
    a = np.abs(u0) @ np.abs(ch.chol)
    return 16 * ch.m * 2.0**-53 * np.einsum("...i,...i->...", 2.0 * a, a)


def _kept(lowest, bound):
    """The highest metric a winner may have, given the lowest metric or energy and the bound."""
    return lowest + 2e-9 * (1.0 + np.abs(lowest)) + bound


def shape_rows(ch: ChannelMatrix, u0_rows: np.ndarray, code: ShapingCode) -> np.ndarray:
    """The minimum-energy coset member of each row of ``u0_rows``, a (T, M) array of u0 rows.

    Row i of the result is ``trellis_shape(ch, u0_rows[i], code).u_chosen``; the rows are not
    checked. A tree of at most ``_SCAN_LIMIT`` codewords is scanned, in groups of at most
    ``theory.GROUP_ENTRIES`` leaves (one row at least), meet in the middle on the state S of
    ``_half_signs``: leaf (P, S, R) sends w = (u0 * s) L = w_low(P, S) + w_high(S, R), so
    its metric ||w_low||^2 + ||w_high||^2 + 2 w_low . w_high takes one product per half and
    one per state, 2^F * M multiply-adds a row, not 2^F * M^2. The metric only prunes: a row
    sends its one ``_kept`` leaf, or the group scores its rows' kept leaves in one
    ``ch.energy`` call. A larger tree is searched, one ``trellis_shape`` call per row.
    """
    n_steps = ch.m // code.n_s
    leaves = code.codeword_count(n_steps)
    if leaves > _SCAN_LIMIT:
        return np.array([trellis_shape(ch, u0, code).u_chosen for u0 in u0_rows])
    low, high, state_bits = _half_signs(code, n_steps)
    t, n_low, n_high = low.shape[1], len(low) >> state_bits, len(high) >> state_bits
    def signs(v):  # the signs of the leaves of input indices v
        return np.hstack([low[v // n_high], high[v % len(high)]])
    chosen = np.empty(u0_rows.shape)
    size = theory.group_rows(leaves)
    for start in range(0, len(u0_rows), size):
        u0 = u0_rows[start:start + size]
        scaled = u0[:, :, None] * ch.chol
        w_low = (low @ scaled[:, :t, :t]).reshape(len(u0), n_low, 1 << state_bits, t)
        w_high = (high @ scaled[:, t:]).reshape(len(u0), 1 << state_bits, n_high, ch.m)
        # (rows, P, S, R): the cross term one product per state, the squares broadcast
        metric = (2.0 * w_low.swapaxes(1, 2) @ w_high[..., :t].swapaxes(2, 3)).swapaxes(1, 2)
        metric += np.einsum("gpsi,gpsi->gps", w_low, w_low)[..., None]
        metric += np.einsum("gsri,gsri->gsr", w_high, w_high)[:, None]
        metric = metric.reshape(len(u0), leaves)
        lowest = metric.min(axis=1, keepdims=True)
        keep = ~(metric > _kept(lowest, _rounding_bound(ch, u0)[:, None]))
        best = keep.argmax(axis=1)  # a row's one kept leaf is its winner
        ties = np.flatnonzero(np.count_nonzero(keep, axis=1) > 1)
        if ties.size:  # the kept leaves of the group's other rows, in one energy call
            row, leaf = np.nonzero(keep[ties])
            flips = signs(leaf)
            energy = ch.energy(u0[ties[row]] * flips)
            for j, i in enumerate(ties):
                k = np.flatnonzero(row == j)
                # a codeword's bits are its sign flips; a leaf's key is (gamma, codeword, index)
                best[i] = min(zip(energy[k].tolist(), (flips[k] < 0).tolist(), leaf[k].tolist()))[2]
        chosen[start:start + size] = u0 * signs(best)
    return chosen


def trellis_shape(ch: ChannelMatrix, u0, code: ShapingCode) -> PrecodeResult:
    """Exact minimum-energy coset member via branch-and-bound over the code trellis.

    ``u0`` is the zero-codeword point, e.g. payload_to_coset(payload, cons).
    A codeword bit flips the sign of its symbol, so the coset member of
    codeword c is u0 * (1 - 2c).
    The encoder runs n = M/n_s steps, the last ``memory`` with forced zero
    inputs, so the codewords are indexed by the F = n - memory free inputs
    x_0..x_{F-1}, and the n_s output bits of step t depend only on the
    window x_{t-memory}..x_t (inputs before x_0 are zero).

    gamma = ||G u||^2 with G = L^T upper triangular, so the search assigns
    the steps backward from t = n - 1: step t fixes x_{t-memory} (a single
    child when t < memory) and symbols t*n_s..t*n_s+n_s-1, which completes
    components t*n_s..t*n_s+n_s-1 of G u: exact additive metric
    increments. The depth-first search starts at the root and runs on an
    explicit stack of batches of nodes at one step, and expands all nodes
    of a batch with array operations; a node keeps only the components of
    G u that are not yet complete. A node is pruned when its partial metric
    exceeds ``_kept`` of the incumbent energy. Live children go back on the
    stack sorted by partial metric, the best batch on top. Once its free
    inputs are set a node is a leaf, and its forced steps are scored in one
    step; the leaves ``_kept`` of their batch's best are scored in one
    ``ch.energy`` call. ``meta["nodes"]`` counts the unpruned nodes, the
    root and the forced ones included, at every tree size.

    The winner has the smallest (``ch.energy``, codeword, input index), where
    the input index reads x_0..x_{F-1} as a binary number with x_0 most
    significant, so the result equals an exhaustive scan of the codewords at
    every tree size and conditioning; a count of more than ``SEARCH_BUDGET``
    nodes raises SearchBudgetExceededError.
    """
    if ch.m % code.n_s:
        raise DimensionMismatchError(
            f"M = {ch.m} is not divisible by symbols-per-step n_s = {code.n_s}"
        )
    u0 = check_dim(ch, u0, "u0")
    n_s, mem = code.n_s, code.memory
    n_steps = ch.m // n_s
    free = max(0, n_steps - mem)
    count = code.codeword_count(n_steps)
    gen = _generator_matrix(code, n_steps)
    # Row j of scaled is u0_j * G[:, j]: symbol j's share of G u, unflipped.
    scaled = u0[:, None] * ch.chol
    rounding = _rounding_bound(ch, u0)

    best_key = best_u = best_metric = None
    best_gamma = math.inf
    # A batch holds nodes at one step t (steps t..n-1 assigned) in
    # increasing order of partial metric: the metrics, components
    # 0..t*n_s-1 of G u, and the input bits x_0..x_{F-1} with the unset
    # ones zero. A node at step t <= memory is a leaf. The first batch is
    # the root at step n.
    stack = [(n_steps, np.zeros(1), np.zeros((1, ch.m)), np.zeros((1, free), dtype=np.uint8))]
    nodes = 0
    while stack:
        t, partial, resid, bits = stack.pop()
        bound = _kept(best_gamma, rounding)
        if partial[-1] > bound:
            n_live = partial.searchsorted(bound, "right")
            if not n_live:
                continue
            partial, resid, bits = partial[:n_live], resid[:n_live], bits[:n_live]
        nodes += partial.size
        leaf = t <= mem
        if leaf:
            # The symbols of steps 0..t-1 complete the leaves' metrics; the
            # last t steps below a leaf are forced nodes.
            hi, last = t * n_s, min(t, free)
            tail = resid + _SIGN[bits[:, :last] @ gen[:last, :hi] & 1] @ scaled[:hi, :hi]
            metric = partial + np.einsum("ij,ij->i", tail, tail)
            nodes += t * np.count_nonzero(metric <= bound)
        if nodes > SEARCH_BUDGET:
            raise SearchBudgetExceededError(
                f"trellis search visited more than {SEARCH_BUDGET} nodes"
            )
        if leaf:
            near = np.flatnonzero(metric <= min(bound, _kept(metric.min(), rounding)))
            codewords = bits[near] @ gen & 1
            us = u0 * _SIGN[codewords]
            for k, x, codeword, u, gamma in zip(near, bits[near], codewords, us,
                                                ch.energy(us).tolist()):
                key = (gamma, codeword.tolist(), x.tolist() + [0] * (n_steps - free))
                if best_key is None or key < best_key:
                    best_key, best_u, best_metric, best_gamma = key, u, float(metric[k]), gamma
            continue
        s = t - 1
        lo, hi = s * n_s, t * n_s
        # The two children of each node set x_{s-memory} to 0 and 1; step
        # s's outputs depend on x_{s-memory}..x_s.
        kids = bits.repeat(2, axis=0)
        kids[1::2, s - mem] = 1
        a, b = s - mem, min(t, free)
        signs = _SIGN[kids[:, a:b] @ gen[a:b, lo:hi] & 1]
        full = resid.repeat(2, axis=0) + signs @ scaled[lo:hi, :hi]
        done = full[:, lo:]
        child_partial = partial.repeat(2) + np.einsum("ij,ij->i", done, done)
        order = child_partial.argsort()
        child_partial = child_partial[order]
        n_live = child_partial.searchsorted(bound, "right")
        # At most theory.GROUP_ENTRIES stored components a batch bound a deep search's stack
        size = theory.group_rows(lo)
        for start in range((n_live - 1) // size * size, -1, -size):
            rows = order[start:start + size]
            stack.append((s, child_partial[start:start + size], full[rows, :lo], kids[rows]))

    _, codeword, best_inputs = best_key
    index = 0
    for bit in best_inputs[:free]:
        index = (index << 1) | bit
    return precode_result(
        ch, best_u, index, count,
        codeword=np.array(codeword, dtype=np.int64),
        inputs=np.array(best_inputs, dtype=np.int64),
        path_metric=best_metric,
        nodes=nodes,
    )


# ---------------------------------------------------------------------------
# Per-user nested-lattice partition
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LatticePartition:
    """Self-similar partition Lambda/Lambda' of a scaled integer lattice.

    Lambda = spacing * Z^(2 n_u) per user and Lambda' = q * Lambda, so
    |Lambda/Lambda'| = q^(2 n_u). ``representatives`` gives the coset
    representatives (one point per coset) inside the fundamental domain
    [-q*spacing/2, q*spacing/2)^(2 n_u); they double as the per-user
    constellation. The search shift set is Lambda'-valued:
    q*spacing times an integer from the same centered range used by
    vector perturbation.
    """

    n_u: int
    q: int
    spacing: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_u", int(self.n_u))
        object.__setattr__(self, "q", int(self.q))
        if self.n_u < 1:
            raise ConfigError("n_u must be >= 1")
        if self.q < 1:
            raise ConfigError("q must be >= 1")
        if self.spacing <= 0.0:
            raise ConfigError("spacing must be positive")
        object.__setattr__(self, "spacing", float(self.spacing))

    def representatives(self, idx) -> np.ndarray:
        """One row per coset index 0 .. q^(2 n_u) - 1, in lexicographic order.

        Row idx is spacing * (d - q // 2), d the 2*n_u base-q digits of idx:
        residues centered into the half-open fundamental domain of Lambda'.
        """
        return self.spacing * (lex_digits(idx, self.q, self.dim) - self.q // 2)

    @property
    def dim(self) -> int:
        return 2 * self.n_u

    @property
    def coset_count(self) -> int:
        return self.q ** self.dim

    @property
    def modulo_period(self) -> float:
        """Per-coordinate period of Lambda': q * spacing."""
        return self.q * self.spacing


# The name the harness builds a partition by: perfbench's tracer wraps it.
lattice_partition = LatticePartition


def nested_select(ch: ChannelMatrix, u, part: LatticePartition) -> PrecodeResult:
    """Jointly minimize gamma over the per-user Lambda' shift sets.

    ``u`` is the M-vector of the K users' stacked blocks of 2*n_u symbols.
    The search is vector perturbation of ``u`` with period q*spacing and q
    offsets per coordinate: the symbols are first folded into the
    fundamental domain [-q*spacing/2, q*spacing/2), which leaves coset
    representatives unchanged, then every combination of per-user shifts
    (q^(2*n_u) each, |Lambda/Lambda'|^K in total) is evaluated; ties go to
    the lexicographically smallest shift vector. ``meta["offset"]`` is the
    integer shift in units of q*spacing. Receivers recover their block by
    folding modulo q*spacing per coordinate.
    """
    if np.ndim(u) != 1 or np.size(u) % part.dim:
        raise DimensionMismatchError(
            f"u must be a flat vector of {part.dim}-symbol blocks, got shape {np.shape(u)}"
        )
    return vector_perturb(ch, u, part.modulo_period, part.q)
