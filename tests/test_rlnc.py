"""Generation construction, recoding and decoding."""

import re

import numpy as np
import pytest

from ncdetect.acceptance import _reference_solve, _RefField
from ncdetect.algebra import binary_field, prime_field
from ncdetect.detect import HashParams, oracle_verify
from ncdetect.rlnc import (
    NotDecodable,
    decode,
    fit_layout,
    make_generation,
    random_combinations,
    recover_subspan,
    reduced_row_echelon,
)

GF256 = binary_field(8)


def build(G, k_data, field=GF256, hash_k=None, seed=0):
    """A generation, its source wire rows (I | S) and the rng that drew it."""
    rng = np.random.default_rng(seed)
    hp = None if hash_k is None else HashParams(k=hash_k, field=field)
    gen = make_generation(field.random_elements(rng, (G, k_data)), field, hp)
    return gen, gen.source_wire_rows(), rng


def test_accounting_identity_enforced():
    # fit_layout's split fills the packet exactly:
    # n = (G + k_data + hash symbols) * symbol_bits, one hash symbol per
    # hash_k payload symbols, rounded up.
    for n, G, symbol_bits, hash_k in [(64, 4, 8, None), (120, 2, 3, 50),
                                      (1000, 10, 8, 50), (4096, 4, 16, 7),
                                      (512, 10, 4, 7), (26, 1, 2, 1)]:
        k_data, n_h = fit_layout(n, G, symbol_bits, hash_k)
        assert (G + k_data + n_h) * symbol_bits == n
        assert n_h == (0 if hash_k is None else -(-k_data // hash_k))


def test_fit_solves_layout():
    assert fit_layout(1000, G=10, symbol_bits=8, hash_k=50) == (112, 3)
    assert fit_layout(512, G=10, symbol_bits=4, hash_k=7) == (103, 15)
    assert fit_layout(64, G=4, symbol_bits=8) == (4, 0)
    with pytest.raises(ValueError, match="multiple of symbol_bits"):
        fit_layout(1001, G=10, symbol_bits=8)
    with pytest.raises(ValueError, match="hash_k"):
        fit_layout(1000, G=10, symbol_bits=8, hash_k=0)
    with pytest.raises(ValueError, match="no feasible symbol layout"):
        fit_layout(80, G=10, symbol_bits=8)
    for G, symbol_bits in ((0, 8), (-1, 8), (4, 0)):
        with pytest.raises(ValueError, match="must be positive"):
            fit_layout(64, G=G, symbol_bits=symbol_bits)


def test_single_packet_generation():
    gen, src, _ = build(1, 4)
    assert src[0, :1].tolist() == [1]
    assert np.array_equal(src[0, 1:], gen.source_payloads[0])


def test_source_packets_are_unit_vectors():
    src = make_generation(np.zeros((4, 3), dtype=np.int64), GF256).source_wire_rows()
    assert src.dtype == GF256.dtype
    assert np.array_equal(src[:, :4], np.eye(4))
    assert np.all(src[:, 4:] == 0)


def test_two_percent_hash_overhead_layout():
    # One hash symbol per 50 payload symbols: 1/51 of the data symbols.
    gen, src, _ = build(50, 50, hash_k=50)
    assert gen.source_hashes.shape == (50, 1)
    assert src.shape == (50, 50 + 50 + 1)
    frac = 1 / (50 + 1)
    assert abs(frac - 0.02) < 0.0004


def test_make_generation_dimension_mismatch():
    # A (2, 3, 4) stack is two generations; an empty stack is none.
    for shape in [(), (3,), (0, 3), (3, 0), (0, 3, 4), (2, 3, 0)]:
        with pytest.raises(ValueError, match="non-empty"):
            make_generation(np.zeros(shape), GF256)


def test_generation_stack_keeps_its_leading_axes():
    # A (2, 3) stack of generations: every row equals its own call's.
    rng = np.random.default_rng(7)
    hp = HashParams(k=2, field=GF256)
    payloads = GF256.random_elements(rng, (2, 3, 4, 5))
    stack = make_generation(payloads, GF256, hp)
    assert stack.source_wire_rows().shape == (2, 3, 4, 4 + 5 + 3)
    for i, j in np.ndindex(2, 3):
        one = make_generation(payloads[i, j], GF256, hp)
        assert np.array_equal(stack.source_rows()[i, j], one.source_rows())
        assert np.array_equal(stack.source_wire_rows()[i, j], one.source_wire_rows())


@pytest.mark.parametrize("field, value", [(GF256, 300), (prime_field(257), -1)],
                         ids=repr)
def test_make_generation_rejects_payloads_outside_the_field(field, value):
    message = re.escape(f"{field!r} elements must be integers in [0, {field.q})")
    with pytest.raises(ValueError, match=message):
        make_generation(np.full((2, 3), value), field)


@pytest.mark.parametrize("value", [7, 100])
def test_make_generation_rejects_a_hash_over_another_field(value):
    # 7 lies in both fields and 100 only in GF(2^8): neither may be hashed
    # in GF(2^4) or blamed on it.
    hp = HashParams(k=3, field=binary_field(4))
    with pytest.raises(ValueError, match=r"hash over GF\(2\^4\).*over GF\(2\^8\)"):
        make_generation(np.full((2, 3), value), GF256, hp)


def test_generation_layout_is_the_payload_shape():
    hp = HashParams(k=3, field=GF256)
    gen = make_generation(np.ones((5, 7), dtype=np.int64), GF256, hp)
    assert gen.source_payloads.shape == (5, 7)
    assert gen.source_hashes.shape == (5, 3)
    assert gen.source_rows().shape == (5, 7 + 3)
    assert gen.source_wire_rows().shape == (5, 5 + 7 + 3)


def test_singleton_combine_is_scaling():
    gen, src, rng = build(4, 5, seed=1)
    coeffs, out = random_combinations(GF256, src[2:3], 1, rng)
    c = int(coeffs[0, 0])
    assert int(out[0, 2]) == c
    assert np.array_equal(out[0], GF256.mul_arr(c, src[2]))


def test_combine_of_two_sources_has_their_support():
    gen, src, rng = build(8, 5, seed=2)
    _, out = random_combinations(GF256, src[[1, 6]], 1, rng)
    support = set(np.nonzero(out[0, :8])[0].tolist())
    assert support <= {1, 6}


def test_combine_stays_in_span():
    gen, src, rng = build(8, 6, hash_k=3, seed=3)
    pool = src
    for _ in range(20):
        _, row = random_combinations(GF256, pool, 1, rng)
        assert oracle_verify(row[0], gen)
        pool = np.vstack([pool, row])  # recoded recodings stay in the span too


def test_random_combinations_over_a_stack():
    # A (T, R, width) stack draws (T, count, R) coefficients, one product each.
    gen, src, rng = build(4, 3, seed=4)
    stack = np.stack([src, src[::-1]])
    coeffs, out = random_combinations(GF256, stack, 5, rng)
    assert coeffs.shape == (2, 5, 4) and out.shape == (2, 5, 4 + 3)
    for t in range(2):
        assert np.array_equal(out[t], GF256.matmul(coeffs[t], stack[t]))


def test_decode_of_source_packets_is_identity():
    gen, src, _ = build(6, 9, seed=6)
    assert np.array_equal(decode(GF256, src, 6), gen.source_payloads)


@pytest.mark.parametrize("field", [GF256, binary_field(7), prime_field(127)],
                         ids=repr)
@pytest.mark.parametrize("G", [1, 2, 4, 8, 16, 50])
def test_roundtrip_exact(field, G):
    gen, src, rng = build(G, 7, field=field, seed=G)
    for _ in range(50):
        _, rx = random_combinations(field, src, G, rng)
        try:
            got = decode(field, rx, G)
        except NotDecodable:
            continue
        assert np.array_equal(got, gen.source_payloads)
        return
    pytest.fail("every mixing draw was singular, which is absurd")


def test_rank_deficient_returns_not_decodable():
    gen, src, rng = build(8, 4, seed=7)
    _, rx = random_combinations(GF256, src, 7, rng)
    with pytest.raises(NotDecodable) as err:
        decode(GF256, rx, 8)
    assert err.value.rank <= 7
    assert err.value.needed == 8


def test_decode_failure_agrees_with_reference_oracle():
    # decode must fail exactly when the reference eliminator finds rank < G.
    ref = _RefField(256, 0b100011011)
    gen, src, rng = build(4, 3, seed=8)
    outcomes = {True: 0, False: 0}
    for _ in range(300):
        _, rx = random_combinations(GF256, src, 4, rng)
        expected = _reference_solve(ref, rx.tolist(), 4)
        try:
            got = decode(GF256, rx, 4)
        except NotDecodable:
            got = None
        assert (got is None) == (expected is None)
        outcomes[got is None] += 1
        if got is not None:
            assert [[int(v) for v in r] for r in got] == expected
    assert outcomes[False] > 250  # singular draws are rare but do occur
    assert outcomes[True] > 0


def test_decode_never_fabricates_on_corruption():
    gen, src, rng = build(6, 5, seed=9)
    stream = src.copy()
    stream[3, 6:] ^= 1  # plus 1 in GF(2^8)
    got = decode(GF256, stream, 6)
    assert not np.array_equal(got, gen.source_payloads)


def test_hash_symbols_ride_the_same_combination():
    gen, src, rng = build(4, 6, hash_k=2, seed=10)
    _, rx = random_combinations(GF256, src, 4, rng)
    try:
        got = decode(GF256, rx, 4)
    except NotDecodable:
        pytest.skip("singular draw")
    assert np.array_equal(got[:, :6], gen.source_payloads)
    assert np.array_equal(got[:, 6:], gen.source_hashes)


def test_matrix_rank_over_fields():
    def rank(field, m):
        return len(reduced_row_echelon(field, m)[1])

    f = prime_field(127)
    m = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert rank(f, m) == 2
    f2 = binary_field(2)
    assert rank(f2, [[1, 1], [1, 1]]) == 1
    assert rank(f2, [[1, 0], [0, 1]]) == 2


def test_wire_size_accounting():
    k_data, n_h = fit_layout(1000, G=10, symbol_bits=GF256.w, hash_k=50)
    gen, src, _ = build(10, k_data, hash_k=50)
    assert gen.source_hashes.shape[1] == n_h
    assert src.shape[1] * GF256.w == 1000


def test_random_combinations_needs_a_row_stack():
    gen, src, rng = build(4, 3, seed=13)
    with pytest.raises(ValueError, match="expected"):
        random_combinations(GF256, src[0], 1, rng)


def test_decode_rejects_rows_narrower_than_G():
    gen, src, rng = build(4, 3, seed=14)
    for rows, G in ((src[0], 4), (src[:, :3], 4), (src[:2], -1), (src[:2], 8)):
        for solve in (decode, recover_subspan):
            with pytest.raises(ValueError, match="expected"):
                solve(GF256, rows, G)
    zeros = np.zeros((2, 3), dtype=np.uint8)
    for m, pivot_width in ((src[:2], -1), (src[:2], 8), (zeros, 4)):
        with pytest.raises(ValueError, match="pivot_width"):
            reduced_row_echelon(GF256, m, pivot_width)
