"""Generation construction, recoding and decoding."""

import numpy as np
import pytest

from ncdetect.acceptance import _reference_solve, _RefField
from ncdetect.algebra import binary_field, prime_field
from ncdetect.detect import HashParams, oracle_verify
from ncdetect.rlnc import (
    CORRUPTED,
    GenerationParams,
    NotDecodable,
    combine_with_coefficients,
    decode,
    make_generation,
    random_combinations,
    random_payloads,
    reduced_row_echelon,
)

GF256 = binary_field(8)


def build(G, k_data, field=GF256, hash_k=None, seed=0, gen_id=0):
    rng = np.random.default_rng(seed)
    hp = None
    n_h = 0
    if hash_k is not None:
        hp = HashParams(k=hash_k, s=1, field=field)
        n_h = hp.hash_symbol_count(k_data)
    sb = field.w if field.kind == "binary-extension" else (field.q - 1).bit_length()
    gp = GenerationParams.from_symbols(G, k_data, sb, n_h)
    gen, src = make_generation(
        random_payloads(field, G, k_data, rng), gp, field, hp, generation_id=gen_id
    )
    return gen, src, rng


def test_accounting_identity_enforced():
    GenerationParams(G=4, n=64, k_data=3, symbol_bits=8, hash_symbols=1)
    with pytest.raises(ValueError):
        GenerationParams(G=4, n=65, k_data=3, symbol_bits=8, hash_symbols=1)
    with pytest.raises(ValueError):
        GenerationParams(G=0, n=64, k_data=4, symbol_bits=8)


def test_fit_solves_layout():
    gp = GenerationParams.fit(1000, G=10, symbol_bits=8, hash_k=50)
    assert gp.n == 1000
    assert gp.G + gp.k_data + gp.hash_symbols == 125
    assert -(-gp.k_data // 50) == gp.hash_symbols
    with pytest.raises(ValueError):
        GenerationParams.fit(1001, G=10, symbol_bits=8)
    with pytest.raises(ValueError, match="hash_k"):
        GenerationParams.fit(1000, G=10, symbol_bits=8, hash_k=0)


def test_single_packet_generation():
    gen, src, _ = build(1, 4)
    assert list(src[0].coeffs) == [1]
    assert np.array_equal(src[0].payload, gen.source_payloads[0])


def test_source_packets_are_unit_vectors():
    field = GF256
    gp = GenerationParams.from_symbols(4, 3, 8)
    gen, src = make_generation(np.zeros((4, 3)), gp, field)
    for i, pkt in enumerate(src):
        expect = np.zeros(4)
        expect[i] = 1
        assert np.array_equal(pkt.coeffs, expect)
        assert np.all(pkt.payload == 0)


def test_two_percent_hash_overhead_layout():
    # One hash symbol per 50 payload symbols: 1/51 of the data symbols.
    gen, src, _ = build(50, 50, hash_k=50)
    assert len(src[0].hash_syms) == 1
    frac = 1 / (50 + 1)
    assert abs(frac - 0.02) < 0.0004


def test_make_generation_dimension_mismatch():
    gp = GenerationParams.from_symbols(4, 3, 8)
    with pytest.raises(ValueError):
        make_generation(np.zeros((3, 3)), gp, GF256)


def test_singleton_combine_is_scaling():
    gen, src, rng = build(4, 5, seed=1)
    out = random_combinations([src[2]], 1, rng)[0]
    c = int(out.coeffs[2])
    expect = combine_with_coefficients([src[2]], [[c]])[0]
    assert np.array_equal(out.wire(), expect.wire())


def test_combine_of_two_sources_has_their_support():
    gen, src, rng = build(8, 5, seed=2)
    out = random_combinations([src[1], src[6]], 1, rng)[0]
    support = set(np.nonzero(out.coeffs)[0].tolist())
    assert support <= {1, 6}


def test_combine_stays_in_span():
    gen, src, rng = build(8, 6, hash_k=3, seed=3)
    pool = list(src)
    for _ in range(20):
        pkt = random_combinations(pool, 1, rng)[0]
        assert oracle_verify(pkt, gen)
        pool.append(pkt)  # recoded recodings stay in the span too


def test_mixing_generations_rejected():
    _, src_a, rng = build(4, 3, seed=4, gen_id=0)
    _, src_b, _ = build(4, 3, seed=5, gen_id=1)
    with pytest.raises(ValueError):
        random_combinations([src_a[0], src_b[0]], 1, rng)


def test_decode_of_source_packets_is_identity():
    gen, src, _ = build(6, 9, seed=6)
    assert np.array_equal(decode(src, 6), gen.source_payloads)


@pytest.mark.parametrize("field", [GF256, binary_field(7), prime_field(127)],
                         ids=repr)
@pytest.mark.parametrize("G", [1, 2, 4, 8, 16, 50])
def test_roundtrip_exact(field, G):
    gen, src, rng = build(G, 7, field=field, seed=G)
    for _ in range(50):
        rx = random_combinations(src, G, rng)
        try:
            got = decode(rx, G)
        except NotDecodable:
            continue
        assert np.array_equal(got, gen.source_payloads)
        return
    pytest.fail("every mixing draw was singular, which is absurd")


def test_rank_deficient_returns_not_decodable():
    gen, src, rng = build(8, 4, seed=7)
    rx = random_combinations(src, 7, rng)
    with pytest.raises(NotDecodable) as err:
        decode(rx, 8)
    assert err.value.rank <= 7
    assert err.value.needed == 8


def test_decode_failure_agrees_with_reference_oracle():
    # decode must fail exactly when the reference eliminator finds rank < G.
    ref = _RefField(256, 0b100011011)
    gen, src, rng = build(4, 3, seed=8)
    outcomes = {True: 0, False: 0}
    for _ in range(300):
        rx = random_combinations(src, 4, rng)
        rows = [[int(v) for v in p.wire()] for p in rx]
        expected = _reference_solve(ref, rows, 4)
        try:
            got = decode(rx, 4)
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
    bad = src[3].replaced(
        payload=src[3].field.add_arr(src[3].payload, 1), origin_tag=CORRUPTED
    )
    stream = src[:3] + [bad] + src[4:]
    got = decode(stream, 6)
    assert not np.array_equal(got, gen.source_payloads)


def test_hash_symbols_ride_the_same_combination():
    gen, src, rng = build(4, 6, hash_k=2, seed=10)
    rx = random_combinations(src, 4, rng)
    try:
        got = decode(rx, 4)
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
    gen, src, _ = build(10, 112, hash_k=50)
    pkt = src[0]
    symbols = len(pkt.coeffs) + len(pkt.payload) + len(pkt.hash_syms)
    assert symbols * gen.params.symbol_bits == gen.params.n == 1000


def test_origin_tag_propagates_through_combines():
    gen, src, rng = build(4, 3, seed=12)
    tainted = src[1].replaced(origin_tag=CORRUPTED)
    out = combine_with_coefficients([src[0], tainted], [[1, 1], [1, 0]])
    assert out[0].origin_tag == CORRUPTED
    assert out[1].origin_tag == "valid"


def test_combine_needs_one_column_per_packet():
    gen, src, rng = build(4, 3, seed=13)
    for coeffs in ([1, 1], [[1, 1, 1]]):
        with pytest.raises(ValueError, match="one column per packet"):
            combine_with_coefficients(src[:2], coeffs)
