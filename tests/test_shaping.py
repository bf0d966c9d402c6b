"""Tests for convolutional sign shaping and nested-lattice selection."""

import dataclasses
import itertools
import math
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slmprecode import harness, linalg, precoders, regions, shaping, theory
from slmprecode.errors import (
    ConfigError,
    DimensionMismatchError,
    LengthMismatchError,
    SearchBudgetExceededError,
)

from oracles import (
    coset_table,
    conv_encode,
    exhaustive_shape,
    lattice_offsets,
    offset_grid,
)


def _rng():
    return np.random.default_rng(2468)


def _random_channel(rng, m, cond_cap=300.0):
    while True:
        h = rng.standard_normal((m, m))
        if np.linalg.cond(h) < cond_cap:
            return theory.build_channel(h)


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
        shaping.ShapingCode([0o7])
    with pytest.raises(ConfigError):
        # each generator is one tap mask
        shaping.ShapingCode([[1], [1, 1], [1, 1]])


# (class, fields of a good instance, field, a value the class refuses, the ConfigError's text)
_REFUSED = [
    (shaping.PartitionedConstellation, (4, 1.0), "n_levels", 3, "power of two"),
    (shaping.PartitionedConstellation, (4, 1.0), "n_levels", 2**54, "power of two"),
    (shaping.PartitionedConstellation, (4, 1.0), "spacing", 0.0, "spacing must be positive"),
    (shaping.PartitionedConstellation, (4, 1.0), "spacing", -1.0, "spacing must be positive"),
    (shaping.LatticePartition, (1, 2, 1.0), "n_u", 0, "n_u must be >= 1"),
    (shaping.LatticePartition, (1, 2, 1.0), "q", 0, "q must be >= 1"),
    (shaping.LatticePartition, (1, 2, 1.0), "spacing", 0.0, "spacing must be positive"),
    (shaping.LatticePartition, (1, 2, 1.0), "spacing", -0.5, "spacing must be positive"),
    (shaping.ShapingCode, ((0o7, 0o5),), "generators", (0o7,), "n_s >= 2"),
    (shaping.ShapingCode, ((0o7, 0o5),), "generators", (7.0, 5), "non-negative integers"),
    (shaping.ShapingCode, ((0o7, 0o5),), "generators", (7, -5), "non-negative integers"),
    (shaping.ShapingCode, ((0o7, 0o5),), "generators", ([1], [1, 1]), "non-negative integers"),
]


@pytest.mark.parametrize("cls, fields, name, bad, text", _REFUSED,
                         ids=[f"{c.__name__}.{n}={b!r}" for c, _, n, b, _ in _REFUSED])
def test_scheme_types_refuse_bad_fields_however_built(cls, fields, name, bad, text):
    # the constructor and dataclasses.replace run the same checks, with the same message
    kwargs = dict(zip([f.name for f in dataclasses.fields(cls)], fields), **{name: bad})
    messages = []
    for build in (lambda: cls(**kwargs), lambda: dataclasses.replace(cls(*fields), **{name: bad})):
        with pytest.raises(ConfigError, match=text) as err:
            build()
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def test_scheme_types_normalize_their_fields():
    code = shaping.ShapingCode([7, np.int64(5)])
    assert code.generators == (7, 5) and type(code.generators[1]) is int
    assert code == shaping.code_from_octal("7,5") and hash(code) == hash(shaping.default_code())
    assert shaping._generator_matrix(code, 4).shape == (2, 8)  # a cache key
    assert dataclasses.replace(code, generators=[0o17, 0o13]) == shaping.code_from_octal("17,13")
    cons = shaping.PartitionedConstellation(np.int64(8))
    assert (type(cons.n_levels), cons.spacing, type(cons.spacing)) == (int, 1.0, float)
    part = shaping.LatticePartition(np.int64(1), 3.0, 1)
    assert (type(part.n_u), type(part.q), part.q, type(part.spacing)) == (int, int, 3, float)
    # the names the harness builds by are the classes
    assert shaping.pam_constellation is shaping.PartitionedConstellation
    assert shaping.lattice_partition is shaping.LatticePartition


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
    bits = conv_encode(code, [0, 0, 0, 0])
    assert np.array_equal(bits, np.zeros(8, dtype=np.int64))


def test_conv_encode_hand_trace():
    # classic (7,5) impulse response: input 1 0 0 -> output 11 10 11
    code = shaping.default_code()
    bits = conv_encode(code, [1, 0, 0])
    assert np.array_equal(bits, [1, 1, 1, 0, 1, 1])


def test_conv_encode_linearity():
    code = shaping.default_code()
    rng = _rng()
    for _ in range(50):
        a = rng.integers(0, 2, size=8)
        b = rng.integers(0, 2, size=8)
        ca = conv_encode(code, a)
        cb = conv_encode(code, b)
        cab = conv_encode(code, (a + b) % 2)
        assert np.array_equal(cab, (ca + cb) % 2)


def test_conv_encode_rejects_non_binary():
    code = shaping.default_code()
    with pytest.raises(LengthMismatchError):
        conv_encode(code, [0, 2, 0])


# ---------------------------------------------------------------------------
# partitioned constellation
# ---------------------------------------------------------------------------


def test_pam_constellation_levels():
    con = shaping.pam_constellation(4, spacing=1.0)
    levels = sorted(shaping.payload_to_coset(p, con)[0]
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
    u = shaping.payload_to_coset([0, 0, 0, 1, 1, 0, 1, 1], con)
    assert np.array_equal(u, [0.5, 1.5, -0.5, -1.5])
    # every label of PAM 2/4/8 maps to (1 - 2s) * spacing * (k + 1/2), with s
    # the sign bit and k the magnitude bits in binary, and back; a codeword
    # bit flips the sign, which flips only the sign bit read back; 0.7 and
    # the first level past the outermost are refused
    for n_levels, spacing, outside in ((2, 1.0, 1.5), (4, 1.0, 2.5), (8, 0.5, 2.25)):
        con = shaping.pam_constellation(n_levels, spacing=spacing)
        for bits in itertools.product((0, 1), repeat=con.bits_per_symbol):
            k = int("".join(map(str, bits[1:])) or "0", 2)
            u = shaping.payload_to_coset(bits, con)
            assert u[0] == (1 - 2 * bits[0]) * spacing * (k + 0.5)
            assert tuple(shaping.coset_to_payload(u, con)) == bits
            assert tuple(shaping.coset_to_payload(-u, con)) == (1 - bits[0],) + bits[1:]
        for bad in (0.7, outside):
            with pytest.raises(ValueError):
                shaping.coset_to_payload([bad], con)


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
    u = shaping.payload_to_coset([0, 1, 1, 0], con)
    assert np.allclose(u, [1.5, -0.5])


def test_payload_to_coset_sign_flip():
    # setting the sign bits negates the symbols, as an all-ones codeword does
    con = shaping.pam_constellation(4, spacing=1.0)
    base = shaping.payload_to_coset([0, 1, 0, 1], con)
    flipped = shaping.payload_to_coset([1, 1, 1, 1], con)
    assert np.array_equal(flipped, -base)
    assert np.array_equal(np.abs(flipped), np.abs(base))


def test_payload_coset_roundtrip_exhaustive():
    # the codeword's sign flips u0 * (1 - 2c), undone by the receiver, give the payload back
    con = shaping.pam_constellation(4, spacing=1.0)
    for payload in itertools.product((0, 1), repeat=4):
        for cw in itertools.product((0, 1), repeat=2):
            sign = 1 - 2 * np.array(cw)
            u = shaping.payload_to_coset(payload, con) * sign
            back = shaping.coset_to_payload(u * sign, con)
            assert tuple(back) == payload


def test_payload_to_coset_validation():
    con = shaping.pam_constellation(4, spacing=1.0)
    with pytest.raises(LengthMismatchError):
        shaping.payload_to_coset([0, 1, 1], con)  # not a whole number of symbols
    with pytest.raises(LengthMismatchError):
        shaping.payload_to_coset([0, 2, 1, 0], con)
    with pytest.raises(LengthMismatchError):
        shaping.payload_to_coset([[0, 1], [1, 0]], con)


@pytest.mark.parametrize(
    "payload",
    [[0.5, 1, 0, 1], [1.0, 0.0, 1.5, 0.0], [float("nan"), 1, 0, 1], [-1, 1, 0, 1],
     np.array([2**64 - 1, 1, 0, 1], dtype=np.uint64)],
    ids=["half", "one_and_a_half", "nan", "minus_one", "uint64_max"],
)
def test_payload_to_coset_refuses_values_that_are_not_bits(payload):
    # a fraction is refused, not truncated to a bit by the int64 cast
    con = shaping.pam_constellation(4, spacing=1.0)
    with pytest.raises(LengthMismatchError):
        shaping.payload_to_coset(payload, con)


def test_payload_to_coset_takes_bits_of_any_numeric_type():
    con = shaping.pam_constellation(4, spacing=1.0)
    expected = shaping.payload_to_coset([1, 0, 0, 1], con)
    for payload in ([1.0, 0.0, 0.0, 1.0], [True, False, False, True],
                    np.array([1, 0, 0, 1], dtype=np.uint8)):
        assert np.array_equal(shaping.payload_to_coset(payload, con), expected)


# ---------------------------------------------------------------------------
# trellis search
# ---------------------------------------------------------------------------


def test_trellis_shape_memoryless_zero_code():
    # a memory-0 code with zero generators always emits the zero codeword,
    # so the search must return the zero-codeword coset point unchanged
    code = shaping.ShapingCode([0, 0])
    assert code.memory == 0
    con = shaping.pam_constellation(4, spacing=1.0)
    rng = _rng()
    ch = _random_channel(rng, 4)
    payload = rng.integers(0, 2, size=8)
    u0 = shaping.payload_to_coset(payload, con)
    res = shaping.trellis_shape(ch, u0, code)
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
        res = shaping.trellis_shape(ch, shaping.payload_to_coset(payload, con), code)
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
        u0 = shaping.payload_to_coset(payload, con)
        fast = shaping.trellis_shape(ch, u0, code)
        slow = exhaustive_shape(ch, u0, code)
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
    u0 = shaping.payload_to_coset(_rng().integers(0, 2, size=16), con)
    monkeypatch.setattr(shaping, "SEARCH_BUDGET", 15)
    assert shaping.trellis_shape(ch, u0, code).n_candidates == 4
    monkeypatch.setattr(shaping, "SEARCH_BUDGET", 14)
    with pytest.raises(SearchBudgetExceededError):
        shaping.trellis_shape(ch, u0, code)


def test_trellis_shape_deeper_than_recursion_limit(monkeypatch):
    # more trellis steps than Python allows nested calls: the first dive
    # reaches a leaf, and the search then stops at its node budget
    n_steps = sys.getrecursionlimit() + 50
    # the identity channel's factors are all the identity; building them
    # through build_channel would factor a 2100 x 2100 matrix
    eye = np.eye(2 * n_steps)
    ch = theory.ChannelMatrix(h=eye, h_inv=eye, q=eye,
                              eig=linalg.EigenSystem(np.ones(2 * n_steps), eye), chol=eye)
    code = shaping.default_code()
    con = shaping.pam_constellation(4, spacing=1.0)
    monkeypatch.setattr(shaping, "SEARCH_BUDGET", n_steps + 10)
    with pytest.raises(SearchBudgetExceededError):
        shaping.trellis_shape(ch, shaping.payload_to_coset([0] * (4 * n_steps), con), code)


def test_trellis_shape_counts_nodes():
    # the 15 nodes of test_trellis_shape_budget's search
    ch = theory.build_channel(np.eye(8))
    con = shaping.pam_constellation(4, spacing=1.0)
    payload = _rng().integers(0, 2, size=16)
    res = shaping.trellis_shape(ch, shaping.payload_to_coset(payload, con), shaping.default_code())
    assert res.meta["nodes"] == 15


_ORACLE_CODES = ["7,5", "5,7", "17,15", "1,1", "0,0", "7,7,5"]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    spec=st.sampled_from(_ORACLE_CODES),
    steps=st.integers(1, 10),
    pam=st.sampled_from([2, 4, 8]),
    channel=st.sampled_from(["random", "identity", "equal_magnitudes"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_trellis_shape_equals_oracle(spec, steps, pam, channel, seed):
    # H = I ties every codeword; with H = I and equal |u0| the tie-break
    # alone picks the winner
    code = shaping.code_from_octal(spec)
    m = steps * code.n_s
    rng = np.random.default_rng(seed)
    con = shaping.pam_constellation(pam, spacing=1.0)
    if channel == "random":
        ch = _random_channel(rng, m)
        u0 = shaping.payload_to_coset(rng.integers(0, 2, size=m * con.bits_per_symbol), con)
    elif channel == "identity":
        ch = theory.build_channel(np.eye(m))
        u0 = shaping.payload_to_coset(rng.integers(0, 2, size=m * con.bits_per_symbol), con)
    else:
        ch = theory.build_channel(np.eye(m))
        u0 = 0.5 * rng.choice([-1.0, 1.0], size=m)
    fast = shaping.trellis_shape(ch, u0, code)
    slow = exhaustive_shape(ch, u0, code)
    assert np.array_equal(fast.meta["codeword"], slow.meta["codeword"])
    assert np.array_equal(fast.meta["inputs"], slow.meta["inputs"])
    assert np.array_equal(fast.u_chosen, slow.u_chosen)
    assert fast.gamma == slow.gamma
    assert fast.candidate_index == slow.candidate_index
    assert np.array_equal(shaping.shape_rows(ch, u0[None], code)[0], slow.u_chosen)


# ---------------------------------------------------------------------------
# whole-tree scan
# ---------------------------------------------------------------------------


def _scan_channel(rng, m, kind):
    """A channel of the scan's exactness cases; every leaf ties on the last three."""
    if kind == "random":
        return _random_channel(rng, m)
    if kind == "ill_conditioned":
        # singular values over 5.5 decades: cond(Q) = 10^11, past the default limit
        u, _, v = np.linalg.svd(rng.standard_normal((m, m)))
        ch = theory.build_channel(u @ np.diag(np.logspace(0, -5.5, m)) @ v, condition_limit=1e14)
        assert m == 1 or ch.eig.eigenvalues.max() / ch.eig.eigenvalues.min() >= 1e10
        return ch
    if kind == "identity":
        return theory.build_channel(np.eye(m))
    if kind == "signed_permutation":
        return theory.build_channel(np.eye(m)[rng.permutation(m)] * rng.choice([-1.0, 1.0], m))
    return theory.build_channel(np.diag(rng.choice([0.5, 2.0], m)))


_TIE_CHANNELS = ("identity", "signed_permutation", "diagonal")


def _exhaustive_rows(ch, u0_rows, code):
    return np.array([exhaustive_shape(ch, u0, code).u_chosen for u0 in u0_rows])


@pytest.mark.parametrize("channel", ("random", "ill_conditioned") + _TIE_CHANNELS)
@pytest.mark.parametrize(
    "spec, symbols",
    [
        # F = 0 at M = 2 and 4, up to 2^10 codewords at M = 24
        pytest.param("7,5", (2, 4, 6, 10, 16, 24), id="7,5"),
        # memory 3: F < memory at M = 8
        pytest.param("17,15", (2, 8, 12, 20), id="17,15"),
        pytest.param("7,7,5", (3, 9, 15, 24), id="7,7,5"),
        # memory 0: every input is free, and "0,0" gives only the zero codeword
        pytest.param("1,1", (2, 8, 16), id="1,1"),
        pytest.param("0,0", (2, 8, 16), id="0,0"),
    ],
)
def test_shape_rows_equals_the_whole_tree_scan(spec, symbols, channel, monkeypatch):
    # the meet-in-the-middle metric only prunes: row for row, shape_rows sends
    # what the exhaustive oracle picks. A tie row keeps all its tied leaves and
    # scores them in ch.energy; a clean row makes no energy call
    calls = []
    real = theory.ChannelMatrix.energy

    def counting(self, u_rows):
        calls.append(len(u_rows))
        return real(self, u_rows)

    rng = np.random.default_rng(97)
    code = shaping.code_from_octal(spec)
    for m in symbols:
        ch = _scan_channel(rng, m, channel)
        con = shaping.pam_constellation(int(rng.choice([2, 4, 8])), spacing=0.5)
        u0_rows = shaping._pam_map(rng.integers(0, 2, size=(12, m * con.bits_per_symbol)), con)
        calls.clear()
        monkeypatch.setattr(theory.ChannelMatrix, "energy", counting)
        got = shaping.shape_rows(ch, u0_rows, code)
        monkeypatch.undo()
        assert got.tobytes() == _exhaustive_rows(ch, u0_rows, code).tobytes(), m
        leaves = code.codeword_count(m // code.n_s)
        if leaves == 1:
            assert calls == [], m
        elif channel in _TIE_CHANNELS or spec == "0,0":
            assert sum(calls) == len(u0_rows) * leaves, m
        elif spec == "1,1":
            # the all-ones input flips every sign, and u and -u tie
            assert sum(calls) == 2 * len(u0_rows), m
        elif channel == "random":
            assert calls == [], m


@pytest.mark.parametrize("entries", [1, 4, 16, 100])
def test_shape_rows_groups_cross_the_chunk(entries, monkeypatch):
    # groups of at most `entries` leaf metrics (one row at least) give every
    # row the scan's winner, tie rows among clean ones included
    rng = np.random.default_rng(5)
    code = shaping.default_code()
    con = shaping.pam_constellation(4, spacing=0.5)
    for m in (4, 8, 12, 16):
        for ch in (_random_channel(rng, m), theory.build_channel(np.eye(m))):
            u0_rows = shaping._pam_map(rng.integers(0, 2, size=(37, 2 * m)), con)
            # equal magnitudes tie every leaf of these rows on any channel with H = I
            u0_rows[::5] = 0.25 * np.sign(u0_rows[::5])
            want = _exhaustive_rows(ch, u0_rows, code)
            monkeypatch.setattr(theory, "GROUP_ENTRIES", entries)
            got = shaping.shape_rows(ch, u0_rows, code)
            monkeypatch.undo()
            assert got.tobytes() == want.tobytes(), (m, entries)


def _rank_one_channel(seed, k_low, k_high, m=12):
    """H^-1 = I + K e_j v^T, v in {-1, 1}^M and K in [k_low, k_high), and 64 rows of +-0.25.

    A leaf u with v . u = 0 costs gamma = ||u||^2 = M / 16 exactly and any
    other leaf at least K^2 / 4 more, so a row's sign-balanced leaves tie,
    while its metrics carry rounding errors that grow as K^2.
    """
    rng = np.random.default_rng(seed)
    k = rng.uniform(k_low, k_high)
    h_inv = np.eye(m)
    h_inv[rng.integers(m)] += k * rng.choice([-1.0, 1.0], m)
    ch = theory.build_channel(np.linalg.inv(h_inv), condition_limit=1e18)
    return ch, 0.25 * rng.choice([-1.0, 1.0], (64, m))


@pytest.mark.parametrize("seed, k_low, k_high", [
    # cond(Q) = 9.6e9: the scan's half metrics cancel to M / 16 with errors
    # past 1e-9 (1 + low), so the tied winner is kept by the rounding bound alone
    pytest.param(0, 5e3, 1e4, id="rounding_bound"),
    # cond(Q) = 7.4e15: energies, energy and the search's path metric round the tied
    # leaves apart, and a near set within 1e-9 (1 + low) of the lowest energies or path
    # metric drops one row's winner by energy
    pytest.param(1235, 1e7, 5e7, id="energies_near_set"),
    # cond(Q) = 3.1e17: such a near set of energies drops the winner on 18 of the 64 rows
    pytest.param(115, 1e7, 5e7, id="energies_near_set_18_rows"),
])
def test_shape_rows_keeps_the_tied_winner_where_rounding_decides(seed, k_low, k_high):
    # every kernel sends the smallest (ch.energy, codeword, input index)
    ch, u0_rows = _rank_one_channel(seed, k_low, k_high)
    code = shaping.default_code()
    want = _exhaustive_rows(ch, u0_rows, code)
    assert shaping.shape_rows(ch, u0_rows, code).tobytes() == want.tobytes()
    searched = np.array([shaping.trellis_shape(ch, u0, code).u_chosen for u0 in u0_rows])
    assert searched.tobytes() == want.tobytes()


@pytest.mark.parametrize("entries", [None, 1])
def test_every_kernel_keeps_the_winner_within_the_rounding_bound(entries, monkeypatch):
    # the rounding bound covers an energy that errs by an eighth of it: lower each
    # leaf's ch.energy by a fraction of that fixed by its signs, as rounding might,
    # and both kernels still send the oracle's winner by the lowered energy. On the
    # rank-one channel the bound is 3.4e-5 of gamma, past the 2e-9 slack; groups of
    # one entry make the search meet its incumbent leaf by leaf and prune against it
    ch, u0_rows = _rank_one_channel(0, 5e3, 1e4)
    real = theory.ChannelMatrix.energy

    def lowered(self, u):
        frac = (np.asarray(u) < 0) @ (np.arange(self.m) * 37 % 11) % 7 / 6
        return real(self, u) - frac * shaping._rounding_bound(self, u) / 8

    monkeypatch.setattr(theory.ChannelMatrix, "energy", lowered)
    if entries:
        monkeypatch.setattr(theory, "GROUP_ENTRIES", entries)
    code = shaping.default_code()
    want = _exhaustive_rows(ch, u0_rows, code)
    assert shaping.shape_rows(ch, u0_rows, code).tobytes() == want.tobytes()
    searched = np.array([shaping.trellis_shape(ch, u0, code).u_chosen for u0 in u0_rows])
    assert searched.tobytes() == want.tobytes()


def test_half_signs_compose_every_codeword():
    # a leaf's signs are its low and high half-table rows: for every scanned
    # tree size of these codes they are 1 - 2c of conv_encode's codeword, in
    # input-index order, and the state bits are the inputs both halves read
    for spec, symbols in (("7,5", range(2, 25, 2)), ("17,15", range(2, 21, 2)),
                          ("7,7,5", range(3, 25, 3)), ("1,1", (2, 8)), ("0,0", (2, 8))):
        code = shaping.code_from_octal(spec)
        for m in symbols:
            n_steps = m // code.n_s
            free = max(0, n_steps - code.memory)
            low, high, state_bits = shaping._half_signs(code, n_steps)
            assert not low.flags.writeable and not high.flags.writeable
            n_high = len(high) >> state_bits
            assert len(low) * n_high == 1 << free
            split = n_steps // 2
            assert state_bits == min(split, free) - max(0, min(split - code.memory, free))
            for v in range(1 << free):
                bits = [(v >> (free - 1 - t)) & 1 for t in range(free)] + [0] * (n_steps - free)
                want = 1 - 2 * conv_encode(code, bits)
                got = np.hstack([low[v // n_high], high[v % len(high)]])
                assert np.array_equal(got, want), (spec, m, v)


def test_trellis_shape_m56():
    # a (7,5) search over 2^26 codewords; the expected bits are those of the
    # one-node-at-a-time search, which took about 15 s on a 2-core machine
    ch = harness.load_channel({"kind": "random", "seed": 23}, 56, 1e14)
    con = shaping.pam_constellation(4, spacing=0.5)
    payload = regions.make_stream(1000, 0).integers(0, 2, size=112)
    start = time.perf_counter()
    res = shaping.trellis_shape(ch, shaping.payload_to_coset(payload, con), shaping.default_code())
    elapsed = time.perf_counter() - start
    assert res.gamma.hex() == "0x1.fe5629097787bp-2"
    assert "".join(map(str, res.meta["codeword"])) == (
        "00001110110000000000110110011111011001000101111101100111"
    )
    assert "".join(map(str, res.meta["inputs"])) == "0010000000111001110110011100"
    assert res.candidate_index == 8447847
    assert elapsed < 2.0


def test_trellis_shape_memory_is_bounded(monkeypatch):
    # an M = 1024 search that stops at a lowered node budget after about a
    # second: its stack holds only the components of G u that are not yet
    # complete, in batches capped in size
    m = 1024
    rng = np.random.default_rng(5)
    ch = theory.build_channel(np.eye(m) + 0.3 * rng.standard_normal((m, m)) / math.sqrt(m))
    con = shaping.pam_constellation(4, spacing=1.0)
    u0 = shaping.payload_to_coset(rng.integers(0, 2, size=2 * m), con)
    monkeypatch.setattr(shaping, "SEARCH_BUDGET", 2**17)
    tracemalloc.start()
    try:
        with pytest.raises(SearchBudgetExceededError):
            shaping.trellis_shape(ch, u0, shaping.default_code())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128e6


def test_trellis_shape_dominates_zero_codeword():
    rng = _rng()
    code = shaping.default_code()
    con = shaping.pam_constellation(4, spacing=1.0)
    ch = _random_channel(rng, 6)
    for _ in range(20):
        payload = rng.integers(0, 2, size=12)
        u0 = shaping.payload_to_coset(payload, con)
        res = shaping.trellis_shape(ch, u0, code)
        assert res.gamma <= ch.energy(u0) * (1 + 1e-9) + 1e-12


def test_trellis_shape_metric_matches_energy():
    rng = _rng()
    code = shaping.default_code()
    con = shaping.pam_constellation(4, spacing=1.0)
    ch = _random_channel(rng, 8)
    for _ in range(10):
        payload = rng.integers(0, 2, size=16)
        res = shaping.trellis_shape(ch, shaping.payload_to_coset(payload, con), code)
        assert res.meta["path_metric"] == pytest.approx(res.gamma, rel=1e-8)
        assert res.gamma == pytest.approx(ch.energy(res.u_chosen), rel=1e-8)
        # the winning codeword is a real codeword of the shaping code
        cw = conv_encode(code, res.meta["inputs"])
        assert np.array_equal(cw, res.meta["codeword"])


def test_trellis_shape_receiver_recovers_payload():
    # the receiver knows the winning codeword and undoes the sign flips
    rng = _rng()
    code = shaping.default_code()
    con = shaping.pam_constellation(4, spacing=1.0)
    ch = _random_channel(rng, 6)
    for _ in range(50):
        payload = rng.integers(0, 2, size=12)
        res = shaping.trellis_shape(ch, shaping.payload_to_coset(payload, con), code)
        y = ch.h @ res.s
        back = shaping.coset_to_payload(y * (1 - 2 * res.meta["codeword"]), con)
        assert np.array_equal(back, payload)


def test_trellis_shape_validation():
    code = shaping.default_code()
    con = shaping.pam_constellation(4, spacing=1.0)
    ch = theory.build_channel(np.eye(4))
    with pytest.raises(LengthMismatchError):
        shaping.trellis_shape(ch, shaping.payload_to_coset([0, 1, 0], con), code)
    with pytest.raises(DimensionMismatchError):
        shaping.trellis_shape(ch, [0.5, -0.5, 0.5], code)  # 3 symbols, M = 4
    ch3 = theory.build_channel(np.eye(3))
    with pytest.raises(DimensionMismatchError):
        shaping.trellis_shape(ch3, shaping.payload_to_coset([0] * 6, con), code)


def test_exhaustive_shape_budget():
    code = shaping.default_code()
    con = shaping.pam_constellation(4, spacing=1.0)
    ch = theory.build_channel(np.eye(40))
    with pytest.raises(SearchBudgetExceededError):
        exhaustive_shape(ch, shaping.payload_to_coset([0] * 80, con), code)


# ---------------------------------------------------------------------------
# nested-lattice selection
# ---------------------------------------------------------------------------


def test_lattice_partition_bookkeeping():
    part = shaping.lattice_partition(n_u=1, q=2, spacing=1.0)
    assert part.dim == 2
    assert part.coset_count == 4
    assert part.modulo_period == pytest.approx(2.0)
    # representatives live in the fundamental domain of the coarse lattice
    reps = part.representatives(np.arange(part.coset_count))
    assert reps.shape == (4, 2)
    assert np.all(reps >= -part.modulo_period / 2)
    assert np.all(reps < part.modulo_period / 2)
    # all distinct modulo the coarse lattice
    assert len({tuple(r) for r in reps}) == 4


def test_digit_map_matches_meshgrid_oracles():
    # the coset representatives and the vector-perturbation offset grid,
    # built from precoders.lex_digits, equal the meshgrid tables bit for bit
    for n_u, q, spacing in itertools.product((1, 2, 3), (2, 3, 4, 5), (1.0, 0.7, 1 / 3)):
        part = shaping.lattice_partition(n_u=n_u, q=q, spacing=spacing)
        reps = part.representatives(np.arange(part.coset_count))
        table = coset_table(part)
        assert reps.dtype == table.dtype and reps.shape == table.shape
        assert reps.tobytes() == table.tobytes(), (n_u, q, spacing)
    for m in range(1, 13):
        b = 1
        while b**m <= 4096:
            grid = precoders._offset_grid(b, m)
            want = offset_grid(b, m)
            assert grid.dtype == want.dtype and grid.shape == want.shape
            assert grid.tobytes() == want.tobytes(), (b, m)
            b += 1


def test_lattice_partition_offsets_centered():
    part = shaping.lattice_partition(n_u=1, q=3, spacing=0.5)
    offs = lattice_offsets(part)
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
        symbols = part.representatives(rng.integers(0, 4, size=2))
        res = shaping.nested_select(ch, symbols.ravel(), part)
        per_user = 0.0
        for blk in symbols:
            per_user += min(float(np.sum((blk + off) ** 2)) for off in lattice_offsets(part))
        assert res.gamma == pytest.approx(per_user, rel=1e-12)


def test_nested_select_matches_independent_scan():
    rng = _rng()
    for trial in range(50):
        k = int(rng.choice([2, 3, 4]))
        part = shaping.lattice_partition(n_u=1, q=2, spacing=1.0)
        ch = _random_channel(rng, 2 * k)
        symbols = part.representatives(rng.integers(0, 4, size=k))
        res = shaping.nested_select(ch, symbols.ravel(), part)
        # independent oracle: loop every joint shift with itertools
        offs = lattice_offsets(part)
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
            symbols = part.representatives(rng.integers(0, part.coset_count, size=k))
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
        symbols = part.representatives(rng.integers(0, 4, size=2))
        res = shaping.nested_select(ch, symbols.ravel(), part)
        assert precoders.receiver_verify(ch, res, symbols.ravel(), tau=period)


def test_nested_select_offset_is_coarse_lattice_point():
    # meta["offset"] is the integer shift in units of the coarse period
    rng = _rng()
    part = shaping.lattice_partition(n_u=1, q=2, spacing=1.0)
    ch = _random_channel(rng, 4)
    for _ in range(20):
        symbols = part.representatives(rng.integers(0, 4, size=2))
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
        shaping.nested_select(ch, part.representatives(np.arange(3)).ravel(), part)  # 3*2 != 4
    with pytest.raises(DimensionMismatchError):
        shaping.nested_select(ch, np.zeros((2, 3)), part)  # not a flat vector
    with pytest.raises(DimensionMismatchError):
        shaping.nested_select(ch, np.zeros(3), part)  # 3 is not a multiple of 2


def test_nested_select_budget():
    part = shaping.lattice_partition(n_u=1, q=8, spacing=1.0)
    ch = theory.build_channel(np.eye(16))
    symbols = np.tile(part.representatives(0), (8, 1))
    with pytest.raises(SearchBudgetExceededError):
        shaping.nested_select(ch, symbols.ravel(), part)  # 64^8 joint shifts
