"""Reference implementations that the tests check the package against.

``precoder_trial`` runs one Monte Carlo trial through the public precoders,
one data vector at a time, for comparison with the harness, which runs its
trials a group at a time. ``exhaustive_shape`` enumerates every terminated
codeword of a shaping code and scans for the minimum-energy coset member; it
builds each codeword with ``conv_encode``, a bit-serial shift-register
encoder, so it shares no code with ``shaping.trellis_shape``, and it is the
one oracle of both trellis kernels, the search and ``shaping.shape_rows``.
``lattice_offsets`` lists a nested-lattice partition's shift vectors for
scans that do not go through ``vector_perturb``, and ``reconstruct``
multiplies an eigensystem back out.
``offset_grid`` and ``coset_table`` build the vector-perturbation offsets
and a partition's coset representatives with ``np.meshgrid``, apart from
the package's digit map ``precoders.lex_digits``. ``slm_limit_linear`` is
the selection limit in its linear form, from ``math.gamma`` and powers, apart
from the package's log-domain ``theory.slm_limit_uniform``.
"""

import math

import numpy as np

from slmprecode import regions, shaping
from slmprecode.errors import (
    DimensionMismatchError,
    LengthMismatchError,
    SearchBudgetExceededError,
)
from slmprecode.precoders import (
    check_dim,
    invert_precode,
    offset_range,
    precode_result,
    slm_random,
    vector_perturb,
)

ORACLE_BUDGET = 2**16


def precoder_trial(precoder, ch, tau, gen):
    """(gamma of the precoder, gamma with no selection) of one trial drawn from ``gen``.

    ``precoder`` is a config's precoder dict, of any kind, with every key
    given (an ``slm_random`` region's too).
    """
    kind, m = precoder["kind"], ch.m
    if kind == "plain":
        gamma = invert_precode(ch, regions.draw(regions.hypercube(tau, m), gen)).gamma
        return gamma, gamma
    if kind == "slm_random":
        n, spec = precoder["n"], precoder["region"]
        if spec["kind"] == "ball":
            region = regions.ball(spec["radius"], m)
        elif spec["expand"]:
            region = regions.expanded_region(regions.hypercube(tau, m), n)
        else:
            region = regions.hypercube(tau, m)
        candidates = regions.draw(region, gen, n)
        return slm_random(ch, candidates).gamma, ch.energy(candidates[0])
    if kind == "vector_perturb":
        u = regions.draw(regions.hypercube(tau, m), gen)
        return vector_perturb(ch, u, tau, precoder["b"]).gamma, ch.energy(u)
    if kind == "trellis":
        levels = precoder["pam"]
        cons = shaping.pam_constellation(levels, spacing=tau / levels)
        u0 = shaping.payload_to_coset(gen.integers(0, 2, size=m * cons.bits_per_symbol), cons)
        code = shaping.code_from_octal(precoder["generators"])
        return shaping.trellis_shape(ch, u0, code).gamma, ch.energy(u0)
    q = precoder["q"]
    part = shaping.lattice_partition(precoder["n_u"], q, spacing=tau / q)
    u = part.representatives(gen.integers(0, part.coset_count, size=precoder["k"])).reshape(-1)
    return shaping.nested_select(ch, u, part).gamma, ch.energy(u)


def conv_encode(code, bits) -> np.ndarray:
    """Encode from the all-zero state, n_s output bits per input bit."""
    bits = np.asarray(bits)
    if bits.ndim != 1:
        raise LengthMismatchError("input bits must be a flat bit sequence")
    bits = bits.astype(np.int64)
    if bits.size and not np.all((bits == 0) | (bits == 1)):
        raise LengthMismatchError("input bits must contain only 0/1 values")
    state = 0
    out = np.empty(bits.size * code.n_s, dtype=np.int64)
    for t, bit in enumerate(bits):
        window = (int(bit) << code.memory) | state
        for i, g in enumerate(code.generators):
            out[t * code.n_s + i] = (g & window).bit_count() & 1
        state = window >> 1
    return out


def exhaustive_shape(ch, u0, code):
    """Enumerate every terminated codeword and scan for the minimum.

    The winner has the smallest (``ch.energy``, codeword, input index), each
    codeword's energy from its own ``ch.energy`` call, as ``trellis_shape``
    and ``shape_rows`` promise at every conditioning; refused beyond
    ``ORACLE_BUDGET`` codewords.
    """
    if ch.m % code.n_s:
        raise DimensionMismatchError(
            f"M = {ch.m} is not divisible by symbols-per-step n_s = {code.n_s}"
        )
    u0 = check_dim(ch, u0, "u0")
    n_steps = ch.m // code.n_s
    free = max(0, n_steps - code.memory)
    count = 1 << free
    if count > ORACLE_BUDGET:
        raise SearchBudgetExceededError(
            f"{count} codewords exceed the oracle budget {ORACLE_BUDGET}"
        )
    best = None
    for v in range(count):
        in_bits = [(v >> (free - 1 - t)) & 1 for t in range(free)]
        in_bits += [0] * (n_steps - free)
        codeword = conv_encode(code, in_bits)
        u = u0 * (1 - 2 * codeword)
        gamma = ch.energy(u)
        key = (gamma, tuple(int(b) for b in codeword))
        if best is None or key < best[:2]:
            best = key + (v, u, codeword, in_bits)
    _, _, v, u, codeword, in_bits = best
    return precode_result(
        ch, u, v, count,
        codeword=codeword,
        inputs=np.array(in_bits, dtype=np.int64),
    )


def _lex_rows(values, width) -> np.ndarray:
    """Every ``width``-tuple of ``values`` as a row, the first coordinate varying slowest."""
    grids = np.meshgrid(*([values] * width), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def lattice_offsets(part) -> np.ndarray:
    """The q^(2 n_u) Lambda' shift vectors searched per user."""
    return _lex_rows(part.q * part.spacing * offset_range(part.q), part.dim)


def offset_grid(b, m) -> np.ndarray:
    """The b^m vector-perturbation offset vectors as float rows, in lexicographic order."""
    return _lex_rows(offset_range(b), m).astype(np.float64)


def coset_table(part) -> np.ndarray:
    """All q^(2 n_u) coset representatives of a partition, row idx for coset index idx."""
    reps = part.spacing * np.arange(-(part.q // 2), part.q - (part.q // 2))
    return _lex_rows(reps, part.dim)


def slm_limit_linear(m, r, volume) -> float:
    """B_M^(-r/M) * Gamma(1 + r/M) * V^(r/M); math.gamma overflows from M = 342 on."""
    ball = math.pi ** (m / 2.0) / math.gamma(1.0 + m / 2.0)
    return ball ** (-r / m) * math.gamma(1.0 + r / m) * volume ** (r / m)


def reconstruct(eig) -> np.ndarray:
    """U diag(values) U^T of an eigensystem."""
    u = eig.eigenvectors
    return (u * eig.eigenvalues) @ u.T
