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
Because Q couples all dimensions, branch metrics come from the triangular
factorization Q = L L^T: with G = L^T, gamma = ||G u||^2 and component i of
G u depends only on u_i..u_M, so the code tree is searched in reverse
symbol order with exact additive metric increments (a depth-first
branch-and-bound on an explicit stack, bounded by ``SEARCH_BUDGET`` visited
nodes; ties go to the smallest codeword, then the smallest input index; see
``trellis_shape``).

Like the precoders, both searches take the data vector: ``trellis_shape``
and ``exhaustive_shape`` the zero-codeword point u0, ``nested_select`` the
M-vector of the users' stacked blocks. The sign/magnitude bit labeling
lives only in ``payload_to_coset`` and ``coset_to_payload``.

Each parameter is stated once: a code is its tap masks (n_s and the memory
follow), and a constellation is its level count and spacing (the modulo
period tau = n_levels * spacing and the bits per symbol follow).

Nested-lattice selection gives each user K a partition Lambda/Lambda' of a
scaled integer lattice in 2*n_u dimensions; shifting a user's block by any
element of Lambda' preserves its information modulo Lambda'. Since
Lambda' = q*spacing * Z^(2 n_u), a joint shift of all K blocks is an integer
perturbation with period q*spacing, so ``nested_select`` is vector
perturbation (``precoders.vector_perturb``) with q offsets per coordinate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import linalg
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
    offset_range,
    precode_result,
    vector_perturb,
)
from .theory import ChannelMatrix

ORACLE_BUDGET = 2**16


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
    """

    generators: Tuple[int, ...]

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


def shaping_code(generators) -> ShapingCode:
    """Build a ShapingCode from its n_s tap masks.

    The masks are ints, already in numeric form (write them as octal
    literals).
    """
    masks = tuple(generators)
    if any(not isinstance(g, (int, np.integer)) or g < 0 for g in masks):
        raise ConfigError(f"tap masks must be non-negative integers, got {masks!r}")
    if len(masks) < 2:
        raise ConfigError(f"need n_s >= 2 output streams, got {len(masks)}")
    return ShapingCode(generators=tuple(int(g) for g in masks))


def code_from_octal(spec: str) -> ShapingCode:
    """Parse a comma-separated octal generator string, e.g. "7,5"."""
    toks = [t.strip() for t in str(spec).split(",") if t.strip()]
    if not toks:
        raise ConfigError(f"no generators in {spec!r}")
    try:
        masks = [int(t, 8) for t in toks]
    except ValueError as exc:
        raise ConfigError(f"bad octal generator in {spec!r}: {exc}") from None
    return shaping_code(masks)


DEFAULT_CODE_SPEC = "7,5"


def default_code() -> ShapingCode:
    """The canonical small shaping code: rate (1,2), generators (7,5) octal."""
    return code_from_octal(DEFAULT_CODE_SPEC)


def _as_bits(bits, name: str) -> np.ndarray:
    arr = np.asarray(bits)
    if arr.ndim != 1:
        raise LengthMismatchError(f"{name} must be a flat bit sequence")
    arr = arr.astype(np.int64)
    if arr.size and not np.all((arr == 0) | (arr == 1)):
        raise LengthMismatchError(f"{name} must contain only 0/1 values")
    return arr


def conv_encode(code: ShapingCode, bits) -> np.ndarray:
    """Encode from the all-zero state, n_s output bits per input bit."""
    bits = _as_bits(bits, "input bits")
    state = 0
    out = np.empty(bits.size * code.n_s, dtype=np.int64)
    for t, bit in enumerate(bits):
        window = (int(bit) << code.memory) | state
        for i, g in enumerate(code.generators):
            out[t * code.n_s + i] = (g & window).bit_count() & 1
        state = window >> 1
    return out


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
    """

    n_levels: int
    spacing: float

    @property
    def tau(self) -> float:
        return self.n_levels * self.spacing

    @property
    def bits_per_symbol(self) -> int:
        return self.n_levels.bit_length() - 1


def pam_constellation(n_levels: int, spacing: float = 1.0) -> PartitionedConstellation:
    """Symmetric uniform PAM with a sign/magnitude bit labeling.

    ``n_levels`` must be a power of two from 2 to 2^53, so that each
    magnitude index k and k + 1/2 are exact in a float64 and the labeling's
    int64 arithmetic cannot overflow; ``spacing`` must be positive.
    """
    n_levels = int(n_levels)
    if n_levels < 2 or n_levels > 2**53 or n_levels & (n_levels - 1):
        raise ConfigError(f"n_levels must be a power of two from 2 to 2^53, got {n_levels}")
    if spacing <= 0.0:
        raise ConfigError("spacing must be positive")
    return PartitionedConstellation(n_levels=n_levels, spacing=float(spacing))


def payload_to_coset(payload_bits, codeword_bits, cons: PartitionedConstellation) -> np.ndarray:
    """Map payload bits to PAM symbols, sign bits XORed with a codeword.

    The payload supplies ``bits_per_symbol`` bits per symbol, sign bit
    first; the codeword supplies one XOR bit per symbol. Symbol j is
    (1 - 2 s_j) * spacing * (k_j + 1/2) with s_j the XORed sign bit and k_j
    the magnitude bits read as a binary number. All codewords of the
    shaping code therefore carry the same information.
    """
    payload = _as_bits(payload_bits, "payload bits")
    codeword = _as_bits(codeword_bits, "codeword bits")
    bps = cons.bits_per_symbol
    n_sym = codeword.size
    if payload.size != n_sym * bps:
        raise LengthMismatchError(
            f"payload has {payload.size} bits but {n_sym} symbols need {n_sym * bps}"
        )
    bits = payload.reshape(n_sym, bps)
    sign = bits[:, 0] ^ codeword
    k = bits[:, 1:] @ (1 << np.arange(bps - 2, -1, -1))
    return (1.0 - 2.0 * sign) * cons.spacing * (k + 0.5)


def coset_to_payload(u, codeword_bits, cons: PartitionedConstellation) -> np.ndarray:
    """Invert payload_to_coset from received symbols and the codeword.

    Each receiver reads its own coordinate: the magnitude bits come from
    the level's magnitude index, and the payload sign bit is the received
    sign XOR the codeword bit. A symbol that is not a level within
    1e-6 * spacing raises ValueError.
    """
    u = linalg.as_vector(u, "u")
    codeword = _as_bits(codeword_bits, "codeword bits")
    if u.size != codeword.size:
        raise LengthMismatchError(
            f"{u.size} symbols but {codeword.size} codeword bits"
        )
    mag = np.abs(u)
    k = np.rint(mag / cons.spacing - 0.5)
    off = (k >= cons.n_levels // 2) | (
        np.abs(mag - cons.spacing * (k + 0.5)) > 1e-6 * cons.spacing
    )
    if off.any():
        raise ValueError(f"{float(u[off][0])!r} is not a constellation level")
    bps = cons.bits_per_symbol
    bits = np.empty((u.size, bps), dtype=np.int64)
    bits[:, 0] = (u < 0) ^ codeword
    bits[:, 1:] = (k.astype(np.int64)[:, None] >> np.arange(bps - 2, -1, -1)) & 1
    return bits.reshape(-1)


# ---------------------------------------------------------------------------
# Minimum-energy coset search over the code trellis
# ---------------------------------------------------------------------------


def _check_trellis_args(ch: ChannelMatrix, u0, code: ShapingCode) -> np.ndarray:
    if ch.m % code.n_s:
        raise DimensionMismatchError(
            f"M = {ch.m} is not divisible by symbols-per-step n_s = {code.n_s}"
        )
    return check_dim(ch, u0, "u0")


def trellis_shape(ch: ChannelMatrix, u0, code: ShapingCode) -> PrecodeResult:
    """Exact minimum-energy coset member via search over the code trellis.

    ``u0`` is the zero-codeword point, e.g. payload_to_coset(payload, 0).
    A codeword bit flips the sign of its symbol, so the coset member of
    codeword c is u0 * (1 - 2c).
    The encoder runs n = M/n_s steps, the last ``memory`` with forced zero
    inputs, so the codewords are indexed by the F = n - memory free inputs
    x_0..x_{F-1}, and the n_s output bits of step t depend only on the
    window x_{t-memory}..x_t (inputs before x_0 are zero). gamma =
    ||G u||^2 with G = L^T upper triangular, so the search assigns the
    steps backward from t = n - 1: step t fixes x_{t-memory} (a single
    child when t < memory) and symbols t*n_s..t*n_s+n_s-1, which completes
    components t*n_s..t*n_s+n_s-1 of G u: exact additive metric
    increments.

    The depth-first search runs on an explicit stack and tries a node's
    children in increasing order of their increment. A node is pruned when
    its partial metric exceeds the incumbent energy by more than
    1e-9 * (1 + incumbent); leaves are scored with ``ch.energy``. Among the
    leaves the winner has the smallest (gamma, codeword, input index),
    where the input index reads x_0..x_{F-1} as a binary number with x_0
    most significant, so the result is bit-identical to
    ``exhaustive_shape``. A search that visits more than ``SEARCH_BUDGET``
    unpruned nodes, leaves included, raises SearchBudgetExceededError.
    """
    u0 = _check_trellis_args(ch, u0, code)
    n_s, mem = code.n_s, code.memory
    n_steps = ch.m // n_s
    g_upper = ch.chol.T
    g_rows = [g_upper[j, j:] for j in range(ch.m)]
    keep = (1 << (mem + 1)) - 1
    u = u0.copy()
    inputs = np.zeros(n_steps, dtype=np.int64)

    def place(t: int, window: int) -> None:
        """Set step t's symbols from the window's output bits."""
        for i, g in enumerate(code.generators):
            j = t * n_s + i
            u[j] = -u0[j] if (g & window).bit_count() & 1 else u0[j]

    best_key = best_u = best_metric = None
    best_gamma = math.inf
    nodes = 0
    # (partial metric, step t, window): steps t..n-1 are assigned, and bit
    # memory - d of the window holds x_{t-d}; the root is step n.
    stack = [(0.0, n_steps, 0)]
    while stack:
        partial, t, window = stack.pop()
        if partial > best_gamma + 1e-9 * (1.0 + abs(best_gamma)):
            continue
        nodes += 1
        if nodes > SEARCH_BUDGET:
            raise SearchBudgetExceededError(
                f"trellis search visited more than {SEARCH_BUDGET} nodes"
            )
        if t < n_steps:
            place(t, window)
            if t >= mem:
                inputs[t - mem] = window & 1
        if t == 0:
            gamma = ch.energy(u)
            if gamma <= best_gamma:
                # A codeword bit is set exactly where u differs from u0.
                key = (gamma, (u != u0).tolist(), inputs.tolist())
                if best_key is None or key < best_key:
                    best_key, best_u, best_metric = key, u.copy(), partial
                    best_gamma = gamma
            continue
        s = t - 1
        shifted = (window << 1) & keep
        children = []
        for w in (shifted, shifted | 1) if s >= mem else (shifted,):
            place(s, w)
            inc = 0.0
            for j in range(s * n_s, t * n_s):
                comp = float(g_rows[j] @ u[j:])
                inc += comp * comp
            children.append((inc, w))
        children.sort(reverse=True)  # the smallest increment is popped first
        stack.extend((partial + inc, s, w) for inc, w in children)

    _, codeword, best_inputs = best_key
    free = max(0, n_steps - mem)
    index = 0
    for bit in best_inputs[:free]:
        index = (index << 1) | bit
    return precode_result(
        ch, best_u, index, code.codeword_count(n_steps),
        codeword=np.array(codeword, dtype=np.int64),
        inputs=np.array(best_inputs, dtype=np.int64),
        path_metric=best_metric,
    )


def exhaustive_shape(ch: ChannelMatrix, u0, code: ShapingCode) -> PrecodeResult:
    """Oracle mode: enumerate every terminated codeword and scan for the minimum.

    Semantics are identical to ``trellis_shape`` (same tie-break); kept as
    an independently coded cross-check, which builds each codeword with
    ``conv_encode``, and refused beyond ``ORACLE_BUDGET`` codewords.
    """
    u0 = _check_trellis_args(ch, u0, code)
    m = ch.m
    n_steps = m // code.n_s
    free = max(0, n_steps - code.memory)
    count = 1 << free
    if count > ORACLE_BUDGET:
        raise SearchBudgetExceededError(
            f"{count} codewords exceed the oracle budget {ORACLE_BUDGET}"
        )
    best: Optional[Tuple[float, Tuple[int, ...], int, np.ndarray, np.ndarray]] = None
    for v in range(count):
        in_bits = [(v >> (free - 1 - t)) & 1 for t in range(free)]
        in_bits += [0] * (n_steps - free)
        codeword = conv_encode(code, in_bits)
        u = u0 * (1 - 2 * codeword)
        gamma = ch.energy(u)
        key = (gamma, tuple(int(b) for b in codeword))
        if best is None or key < best[:2]:
            best = key + (v, u, codeword)
    assert best is not None
    gamma, cw_tuple, v, u, codeword = best
    return precode_result(
        ch, u, v, count,
        codeword=codeword,
        inputs=np.array(
            [(v >> (free - 1 - t)) & 1 for t in range(free)] + [0] * (n_steps - free),
            dtype=np.int64,
        ),
    )


# ---------------------------------------------------------------------------
# Per-user nested-lattice partition
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LatticePartition:
    """Self-similar partition Lambda/Lambda' of a scaled integer lattice.

    Lambda = spacing * Z^(2 n_u) per user and Lambda' = q * Lambda, so
    |Lambda/Lambda'| = q^(2 n_u). ``cosets`` holds the coset
    representatives (one point per coset) inside the fundamental domain
    [-q*spacing/2, q*spacing/2)^(2 n_u); they double as the per-user
    constellation. The search shift set is Lambda'-valued:
    q*spacing times an integer from the same centered range used by
    vector perturbation.
    """

    n_u: int
    q: int
    spacing: float
    cosets: np.ndarray

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

    def offsets(self) -> np.ndarray:
        """The q^(2 n_u) Lambda' shift vectors searched per user."""
        rng = self.q * self.spacing * offset_range(self.q)
        grids = np.meshgrid(*([rng] * self.dim), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)


def lattice_partition(n_u: int, q: int, spacing: float = 1.0) -> LatticePartition:
    """Build the self-similar partition Lambda / q*Lambda in 2*n_u dimensions."""
    n_u = int(n_u)
    q = int(q)
    if n_u < 1:
        raise ConfigError("n_u must be >= 1")
    if q < 1:
        raise ConfigError("q must be >= 1")
    if spacing <= 0.0:
        raise ConfigError("spacing must be positive")
    # Residues centered into the half-open fundamental domain of Lambda'.
    reps = spacing * np.arange(-(q // 2), q - (q // 2))
    dim = 2 * n_u
    grids = np.meshgrid(*([reps] * dim), indexing="ij")
    cosets = np.stack([g.ravel() for g in grids], axis=-1)
    return LatticePartition(n_u=n_u, q=q, spacing=float(spacing), cosets=cosets)


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
