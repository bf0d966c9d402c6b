"""Tests for convolutional sign shaping and nested-lattice selection."""

import itertools
import math
import sys

import numpy as np
import pytest

from slmprecode import precoders, shaping, theory
from slmprecode.errors import (
    ConfigError,
    DimensionMismatchError,
    LengthMismatchError,
    SearchBudgetExceededError,
)


def _rng():
    return np.random.default_rng(2468)


def _random_channel(rng, m, cond_cap=300.0):
    while True:
        h = rng.standard_normal((m, m))
        if np.linalg.cond(h) < cond_cap:
            return theory.build_channel(h)


def _u0(payload, con):
    """The zero-codeword point of a payload, the vector the shaping searches take."""
    n_sym = len(payload) // con.bits_per_symbol
    return shaping.payload_to_coset(payload, np.zeros(n_sym, dtype=np.int64), con)


# ---------------------------------------------------------------------------
# code construction
# ---------------------------------------------------------------------------


def test_shaping_code_default():
    code = shaping.default_code()
    assert code.n_s == 2
    assert code.memory == 2
    assert code.generators == (0o7, 0o5)


def test_code_from_octal():
    code = shaping.code_from_octal("7,5")
    assert code.generators == (7, 5)
    code2 = shaping.code_from_octal("17,13")
    assert code2.generators == (0o17, 0o13)
    assert code2.memory == 3
    with pytest.raises(ConfigError):
        shaping.code_from_octal("7,9")  # 9 is not an octal digit
    with pytest.raises(ConfigError):
        shaping.code_from_octal(",")


def test_shaping_code_validation():
    with pytest.raises(ConfigError):
        # single output stream cannot shape
        shaping.shaping_code([0o7])
    with pytest.raises(ConfigError):
        # each generator is one tap mask
        shaping.shaping_code([[1], [1, 1], [1, 1]])


def test_codeword_count():
    code = shaping.default_code()
    # termination consumes `memory` trailing zero-input steps
    assert code.codeword_count(6) == 2**4
    assert code.codeword_count(2) == 1
    assert code.codeword_count(1) == 1


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------


def test_conv_encode_zero_input():
    code = shaping.default_code()
    bits = shaping.conv_encode(code, [0, 0, 0, 0])
    assert np.array_equal(bits, np.zeros(8, dtype=np.int64))


def test_conv_encode_hand_trace():
    # classic (7,5) impulse response: input 1 0 0 -> output 11 10 11
    code = shaping.default_code()
    bits = shaping.conv_encode(code, [1, 0, 0])
    assert np.array_equal(bits, [1, 1, 1, 0, 1, 1])


def test_conv_encode_linearity():
    code = shaping.default_code()
    rng = _rng()
    for _ in range(50):
        a = rng.integers(0, 2, size=8)
        b = rng.integers(0, 2, size=8)
        ca = shaping.conv_encode(code, a)
        cb = shaping.conv_encode(code, b)
        cab = shaping.conv_encode(code, (a + b) % 2)
        assert np.array_equal(cab, (ca + cb) % 2)


def test_conv_encode_rejects_non_binary():
    code = shaping.default_code()
    with pytest.raises(LengthMismatchError):
        shaping.conv_encode(code, [0, 2, 0])


# ---------------------------------------------------------------------------
# partitioned constellation
# ---------------------------------------------------------------------------


def test_pam_constellation_levels():
    con = shaping.pam_constellation(4, spacing=1.0)
    levels = sorted(shaping.payload_to_coset(p, [0], con)[0]
                    for p in itertools.product((0, 1), repeat=2))
    assert np.allclose(levels, [-1.5, -0.5, 0.5, 1.5])
    assert con.bits_per_symbol == 2
    assert con.tau == pytest.approx(4.0)
    # the modulo period and the bits per symbol follow from n_levels and spacing
    con2 = shaping.pam_constellation(8, spacing=0.5)
    assert con2.n_levels == 8
    assert con2.tau == 4.0
    assert con2.bits_per_symbol == 3


def test_pam_constellation_sign_magnitude():
    con = shaping.pam_constellation(4, spacing=1.0)
    # sign bit 0 -> positive half, magnitude index orders outward
    u = shaping.payload_to_coset([0, 0, 0, 1, 1, 0, 1, 1], [0, 0, 0, 0], con)
    assert np.array_equal(u, [0.5, 1.5, -0.5, -1.5])
    # every label of PAM 2/4/8 maps to (1 - 2s) * spacing * (k + 1/2), with s
    # the sign bit XOR the codeword bit and k the magnitude bits in binary,
    # and back; 0.7 and the first level past the outermost are refused
    for n_levels, spacing, outside in ((2, 1.0, 1.5), (4, 1.0, 2.5), (8, 0.5, 2.25)):
        con = shaping.pam_constellation(n_levels, spacing=spacing)
        for bits in itertools.product((0, 1), repeat=con.bits_per_symbol):
            k = int("".join(map(str, bits[1:])) or "0", 2)
            for cw in (0, 1):
                u = shaping.payload_to_coset(bits, [cw], con)
                assert u[0] == (1 - 2 * (bits[0] ^ cw)) * spacing * (k + 0.5)
                assert tuple(shaping.coset_to_payload(u, [cw], con)) == bits
        for bad in (0.7, outside):
            with pytest.raises(ValueError):
                shaping.coset_to_payload([bad], [0], con)


def test_pam_constellation_validation():
    with pytest.raises(ConfigError):
        shaping.pam_constellation(3, spacing=1.0)
    with pytest.raises(ConfigError):
        shaping.pam_constellation(4, spacing=-1.0)
    # beyond 2^53 levels the labeling is not exact in int64/float64 arithmetic
    assert shaping.pam_constellation(2**53).bits_per_symbol == 53
    with pytest.raises(ConfigError):
        shaping.pam_constellation(2**54)


# ---------------------------------------------------------------------------
# payload/coset maps
# ---------------------------------------------------------------------------


def test_payload_to_coset_zero_codeword():
    con = shaping.pam_constellation(4, spacing=1.0)
    # payload per symbol: [sign, magnitude]; zero codeword leaves signs alone
    u = shaping.payload_to_coset([0, 1, 1, 0], [0, 0], con)
    assert np.allclose(u, [1.5, -0.5])


def test_payload_to_coset_sign_flip():
    con = shaping.pam_constellation(4, spacing=1.0)
    base = shaping.payload_to_coset([0, 1, 0, 1], [0, 0], con)
    flipped = shaping.payload_to_coset([0, 1, 0, 1], [1, 1], con)
    assert np.allclose(flipped, -base)
    assert np.allclose(np.abs(flipped), np.abs(base))


def test_payload_coset_roundtrip_exhaustive():
    con = shaping.pam_constellation(4, spacing=1.0)
    for payload in itertools.product((0, 1), repeat=4):
        for cw in itertools.product((0, 1), repeat=2):
            u = shaping.payload_to_coset(payload, cw, con)
            back = shaping.coset_to_payload(u, cw, con)
            assert tuple(back) == payload


def test_payload_to_coset_validation():
    con = shaping.pam_constellation(4, spacing=1.0)
    with pytest.raises(LengthMismatchError):
        shaping.payload_to_coset([0, 1, 1], [0, 0], con)
    with pytest.raises(LengthMismatchError):
        shaping.payload_to_coset([0, 1, 1, 0], [0], con)


# ---------------------------------------------------------------------------
# trellis search
# ---------------------------------------------------------------------------


def test_trellis_shape_memoryless_zero_code():
    # a memory-0 code with zero generators always emits the zero codeword,
    # so the search must return the zero-codeword coset point unchanged
    code = shaping.shaping_code([0, 0])
    assert code.memory == 0
    con = shaping.pam_constellation(4, spacing=1.0)
    rng = _rng()
    ch = _random_channel(rng, 4)
    payload = rng.integers(0, 2, size=8)
    res = shaping.trellis_shape(ch, _u0(payload, con), code)
    u0 = shaping.payload_to_coset(payload, np.zeros(4, dtype=np.int64), con)
    assert np.array_equal(res.u_chosen, u0)
    assert np.array_equal(res.meta["codeword"], np.zeros(4, dtype=np.int64))
    assert res.gamma == pytest.approx(ch.energy(u0), rel=1e-9)


def test_trellis_shape_identity_channel_prefers_zero_codeword():
    # with H = I the energy is sign-independent, so the lexicographically
    # smallest codeword (all zeros) must win every tie
    ch = theory.build_channel(np.eye(8))
    code = shaping.default_code()
    con = shaping.pam_constellation(4, spacing=1.0)
    rng = _rng()
    for _ in range(10):
        payload = rng.integers(0, 2, size=16)
        res = shaping.trellis_shape(ch, _u0(payload, con), code)
        assert res.n_candidates == 4  # 4 steps, 2 free before termination
        assert np.array_equal(res.meta["codeword"], np.zeros(8, dtype=np.int64))
        assert np.array_equal(res.meta["inputs"], np.zeros(4, dtype=np.int64))
        assert res.candidate_index == 0


@pytest.mark.parametrize(
    "spec, symbols",
    [
        pytest.param("7,5", (4, 6, 8, 10), id="7,5"),
        pytest.param("5,7", (4, 6, 8, 10), id="5,7"),
        pytest.param("17,15", (4, 6, 8, 10, 12), id="17,15"),
        # memory 0: every input bit is free
        pytest.param("1,1", (2, 4, 6, 8, 10), id="1,1"),
        # every input sequence gives the zero codeword, so all tie on it
        pytest.param("0,0", (2, 4, 6, 8), id="0,0"),
        pytest.param("7,7,5", (3, 6, 9, 12), id="7,7,5"),
        # M/n_s <= memory: one codeword
        pytest.param("7,5", (2,), id="7,5-one-codeword"),
    ],
)
def test_trellis_shape_matches_exhaustive(spec, symbols):
    rng = _rng()
    code = shaping.code_from_octal(spec)
    for trial in range(20):
        m = int(rng.choice(symbols))
        con = shaping.pam_constellation(int(rng.choice([2, 4, 8])), spacing=1.0)
        ch = _random_channel(rng, m)
        payload = rng.integers(0, 2, size=m * con.bits_per_symbol)
        fast = shaping.trellis_shape(ch, _u0(payload, con), code)
        slow = shaping.exhaustive_shape(ch, _u0(payload, con), code)
        # bit-identical under the (gamma, codeword, input index) tie-break
        assert np.array_equal(fast.meta["codeword"], slow.meta["codeword"]), f"trial {trial}"
        assert np.array_equal(fast.meta["inputs"], slow.meta["inputs"])
        assert np.array_equal(fast.u_chosen, slow.u_chosen)
        assert fast.gamma == slow.gamma
        assert fast.candidate_index == slow.candidate_index
        assert fast.n_candidates == slow.n_candidates


def test_trellis_shape_budget(monkeypatch):
    # H = I ties every leaf, so nothing is pruned: M = 8 under (7,5) visits
    # the root, 2 + 4 nodes that fix a free input and 4 + 4 forced ones
    ch = theory.build_channel(np.eye(8))
    code = shaping.default_code()
    con = shaping.pam_constellation(4, spacing=1.0)
    payload = _rng().integers(0, 2, size=16)
    monkeypatch.setattr(shaping, "SEARCH_BUDGET", 15)
    assert shaping.trellis_shape(ch, _u0(payload, con), code).n_candidates == 4
    monkeypatch.setattr(shaping, "SEARCH_BUDGET", 14)
    with pytest.raises(SearchBudgetExceededError):
        shaping.trellis_shape(ch, _u0(payload, con), code)


def test_trellis_shape_deeper_than_recursion_limit(monkeypatch):
    # more trellis steps than Python allows nested calls: the first dive
    # reaches a leaf, and the search then stops at its node budget
    n_steps = sys.getrecursionlimit() + 50
    ch = theory.build_channel(np.eye(2 * n_steps))
    code = shaping.default_code()
    con = shaping.pam_constellation(4, spacing=1.0)
    monkeypatch.setattr(shaping, "SEARCH_BUDGET", n_steps + 10)
    with pytest.raises(SearchBudgetExceededError):
        shaping.trellis_shape(ch, _u0(np.zeros(4 * n_steps, dtype=np.int64), con), code)


def test_trellis_shape_dominates_zero_codeword():
    rng = _rng()
    code = shaping.default_code()
    con = shaping.pam_constellation(4, spacing=1.0)
    ch = _random_channel(rng, 6)
    for _ in range(20):
        payload = rng.integers(0, 2, size=12)
        res = shaping.trellis_shape(ch, _u0(payload, con), code)
        u0 = shaping.payload_to_coset(payload, np.zeros(6, dtype=np.int64), con)
        assert res.gamma <= ch.energy(u0) * (1 + 1e-9) + 1e-12


def test_trellis_shape_metric_matches_energy():
    rng = _rng()
    code = shaping.default_code()
    con = shaping.pam_constellation(4, spacing=1.0)
    ch = _random_channel(rng, 8)
    for _ in range(10):
        payload = rng.integers(0, 2, size=16)
        res = shaping.trellis_shape(ch, _u0(payload, con), code)
        assert res.meta["path_metric"] == pytest.approx(res.gamma, rel=1e-8)
        assert res.gamma == pytest.approx(ch.energy(res.u_chosen), rel=1e-8)
        # the winning codeword is a real codeword of the shaping code
        cw = shaping.conv_encode(code, res.meta["inputs"])
        assert np.array_equal(cw, res.meta["codeword"])


def test_trellis_shape_receiver_recovers_payload():
    # the receiver knows the winning codeword and undoes the sign flips
    rng = _rng()
    code = shaping.default_code()
    con = shaping.pam_constellation(4, spacing=1.0)
    ch = _random_channel(rng, 6)
    for _ in range(50):
        payload = rng.integers(0, 2, size=12)
        res = shaping.trellis_shape(ch, _u0(payload, con), code)
        y = ch.h @ res.s
        back = shaping.coset_to_payload(y, res.meta["codeword"], con)
        assert np.array_equal(back, payload)


def test_trellis_shape_validation():
    code = shaping.default_code()
    con = shaping.pam_constellation(4, spacing=1.0)
    ch = theory.build_channel(np.eye(4))
    with pytest.raises(LengthMismatchError):
        shaping.trellis_shape(ch, _u0([0, 1, 0], con), code)
    with pytest.raises(DimensionMismatchError):
        shaping.trellis_shape(ch, [0.5, -0.5, 0.5], code)  # 3 symbols, M = 4
    ch3 = theory.build_channel(np.eye(3))
    with pytest.raises(DimensionMismatchError):
        shaping.trellis_shape(ch3, _u0([0] * 6, con), code)


def test_exhaustive_shape_budget():
    code = shaping.default_code()
    con = shaping.pam_constellation(4, spacing=1.0)
    ch = theory.build_channel(np.eye(40))
    with pytest.raises(SearchBudgetExceededError):
        shaping.exhaustive_shape(ch, _u0([0] * 80, con), code)


# ---------------------------------------------------------------------------
# nested-lattice selection
# ---------------------------------------------------------------------------


def test_lattice_partition_bookkeeping():
    part = shaping.lattice_partition(n_u=1, q=2, spacing=1.0)
    assert part.dim == 2
    assert part.coset_count == 4
    assert part.modulo_period == pytest.approx(2.0)
    # representatives live in the fundamental domain of the coarse lattice
    reps = part.cosets
    assert reps.shape == (4, 2)
    assert np.all(reps >= -part.modulo_period / 2)
    assert np.all(reps < part.modulo_period / 2)
    # all distinct modulo the coarse lattice
    assert len({tuple(r) for r in reps}) == 4


def test_lattice_partition_offsets_centered():
    part = shaping.lattice_partition(n_u=1, q=3, spacing=0.5)
    offs = part.offsets()
    assert offs.shape == (9, 2)
    assert np.allclose(sorted(set(offs[:, 0])), [-1.5, 0.0, 1.5])


def test_lattice_partition_validation():
    with pytest.raises(ConfigError):
        shaping.lattice_partition(n_u=0, q=2, spacing=1.0)
    with pytest.raises(ConfigError):
        shaping.lattice_partition(n_u=1, q=0, spacing=1.0)
    with pytest.raises(ConfigError):
        shaping.lattice_partition(n_u=1, q=2, spacing=0.0)


def test_nested_select_q1_is_inversion():
    # q = 1 collapses the partition to a single coset with a lone zero
    # shift, so selection degenerates to plain inversion of the symbols
    rng = _rng()
    ch = _random_channel(rng, 4)
    part = shaping.lattice_partition(n_u=2, q=1, spacing=1.0)
    symbols = rng.uniform(-0.5, 0.5, size=(1, 4))
    res = shaping.nested_select(ch, symbols.ravel(), part)
    assert res.n_candidates == 1
    assert np.array_equal(res.u_chosen, symbols.ravel())
    assert res.gamma == pytest.approx(
        precoders.invert_precode(ch, symbols.ravel()).gamma, rel=1e-12
    )


def test_nested_select_identity_channel_separable():
    # H = I decouples users: the joint minimum equals per-user minima
    ch = theory.build_channel(np.eye(4))
    part = shaping.lattice_partition(n_u=1, q=2, spacing=1.0)
    rng = _rng()
    for _ in range(20):
        symbols = part.cosets[rng.integers(0, 4, size=2)]
        res = shaping.nested_select(ch, symbols.ravel(), part)
        per_user = 0.0
        for blk in symbols:
            per_user += min(float(np.sum((blk + off) ** 2)) for off in part.offsets())
        assert res.gamma == pytest.approx(per_user, rel=1e-12)


def test_nested_select_matches_independent_scan():
    rng = _rng()
    for trial in range(50):
        k = int(rng.choice([2, 3, 4]))
        part = shaping.lattice_partition(n_u=1, q=2, spacing=1.0)
        ch = _random_channel(rng, 2 * k)
        symbols = part.cosets[rng.integers(0, 4, size=k)]
        res = shaping.nested_select(ch, symbols.ravel(), part)
        # independent oracle: loop every joint shift with itertools
        offs = part.offsets()
        best_g, best_u = math.inf, None
        for combo in itertools.product(range(len(offs)), repeat=k):
            u = np.concatenate([symbols[i] + offs[c] for i, c in enumerate(combo)])
            g = float(u @ ch.q @ u)
            if g < best_g:
                best_g, best_u = g, u
        assert res.gamma == pytest.approx(best_g, rel=1e-8), f"trial {trial}"
        assert np.allclose(res.u_chosen, best_u, atol=1e-12)


def test_nested_select_equals_blockwise_vector_perturb():
    # the joint nested search over K users is exactly a vector perturbation
    # of the stacked blocks with period q * spacing and q offsets per
    # dimension, bit for bit
    rng = _rng()
    for k, q, spacing in itertools.product((1, 2, 3), (2, 3, 4), (1.0, 0.7)):
        part = shaping.lattice_partition(n_u=1, q=q, spacing=spacing)
        ch = _random_channel(rng, 2 * k)
        for _ in range(5):
            symbols = part.cosets[rng.integers(0, part.coset_count, size=k)]
            res = shaping.nested_select(ch, symbols.ravel(), part)
            vp = precoders.vector_perturb(
                ch, symbols.ravel(), tau=part.modulo_period, b=part.q
            )
            assert res.gamma == vp.gamma
            assert np.array_equal(res.u_chosen, vp.u_chosen)
            assert np.array_equal(res.s, vp.s)
            assert res.candidate_index == vp.candidate_index
            assert res.n_candidates == vp.n_candidates == q ** (2 * k)


def test_nested_select_receiver_folds_back():
    rng = _rng()
    part = shaping.lattice_partition(n_u=1, q=2, spacing=1.0)
    ch = _random_channel(rng, 4)
    period = part.modulo_period
    for _ in range(200):
        symbols = part.cosets[rng.integers(0, 4, size=2)]
        res = shaping.nested_select(ch, symbols.ravel(), part)
        assert precoders.receiver_verify(ch, res, symbols.ravel(), tau=period)


def test_nested_select_offset_is_coarse_lattice_point():
    # meta["offset"] is the integer shift in units of the coarse period
    rng = _rng()
    part = shaping.lattice_partition(n_u=1, q=2, spacing=1.0)
    ch = _random_channel(rng, 4)
    for _ in range(20):
        symbols = part.cosets[rng.integers(0, 4, size=2)]
        res = shaping.nested_select(ch, symbols.ravel(), part)
        offset = np.asarray(res.meta["offset"])
        assert np.issubdtype(offset.dtype, np.integer)
        assert np.allclose(
            res.u_chosen - symbols.ravel(), part.modulo_period * offset, atol=1e-12
        )


def test_nested_select_validation():
    part = shaping.lattice_partition(n_u=1, q=2, spacing=1.0)
    ch = theory.build_channel(np.eye(4))
    with pytest.raises(DimensionMismatchError):
        shaping.nested_select(ch, part.cosets[:3].ravel(), part)  # 3*2 != 4
    with pytest.raises(DimensionMismatchError):
        shaping.nested_select(ch, np.zeros((2, 3)), part)  # not a flat vector
    with pytest.raises(DimensionMismatchError):
        shaping.nested_select(ch, np.zeros(3), part)  # 3 is not a multiple of 2


def test_nested_select_budget():
    part = shaping.lattice_partition(n_u=1, q=8, spacing=1.0)
    ch = theory.build_channel(np.eye(16))
    symbols = np.tile(part.cosets[0], (8, 1))
    with pytest.raises(SearchBudgetExceededError):
        shaping.nested_select(ch, symbols.ravel(), part)  # 64^8 joint shifts
