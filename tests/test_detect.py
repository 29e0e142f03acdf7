"""Generation hash, subspace signature and the span oracle."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncdetect.adversary import blind_forge_with_rng
from ncdetect.algebra import (
    _INT64_SAFE_Q,
    binary_field,
    is_prime,
    make_group,
    prime_field,
)
from ncdetect.detect import (
    HashParams,
    Verdict,
    check_hash_test_vectors,
    gen_hash_append,
    gen_hash_verify,
    oracle_verify,
    sig_keygen,
    sig_verify,
    split_decoded_width,
    subspan_consistency,
    write_hash_test_vectors,
)
from ncdetect.rlnc import (
    CORRUPTED,
    GenerationParams,
    combine_with_coefficients,
    decode,
    make_generation,
    random_combinations,
    random_payloads,
    reduced_row_echelon,
)

GF256 = binary_field(8)
GF128 = binary_field(7)


def build(G, k_data, field=GF256, hash_k=4, seed=0):
    rng = np.random.default_rng(seed)
    hp = HashParams(k=hash_k, s=1, field=field)
    gp = GenerationParams.from_symbols(
        G, k_data, field.w, hp.hash_symbol_count(k_data)
    )
    gen, src = make_generation(
        random_payloads(field, G, k_data, rng), gp, field, hp
    )
    return gen, src, hp, rng


def brute_force_hash(field, payload, k):
    """Term-by-term polynomial evaluation with plain repeated multiplication."""
    out = []
    for start in range(0, len(payload), k):
        acc = 0
        for i, x in enumerate(payload[start : start + k], start=1):
            term = 1
            for _ in range(i + 1):
                term = field.mul(term, int(x))
            acc = field.add(acc, term)
        out.append(acc)
    return out


def test_hash_of_zero_payload_is_zero():
    hp = HashParams(k=4, s=1, field=GF256)
    assert np.all(gen_hash_append(np.zeros(8, dtype=np.int64), hp) == 0)


def test_hash_k1_squares_the_symbol():
    hp = HashParams(k=1, s=1, field=GF256)
    for a in (0, 1, 7, 201):
        assert gen_hash_append(np.array([a]), hp)[0] == GF256.pow(a, 2)


def test_hash_char2_example():
    # k=3 over GF(2^3), payload [1,1,1]: 1^2 + 1^3 + 1^4 = 1 in char 2.
    f = binary_field(3)
    hp = HashParams(k=3, s=1, field=f)
    assert gen_hash_append(np.array([1, 1, 1]), hp)[0] == 1


@pytest.mark.parametrize("field", [GF256, GF128, prime_field(127)], ids=repr)
def test_hash_matches_brute_force(field):
    rng = np.random.default_rng(1)
    hp = HashParams(k=5, s=1, field=field)
    for _ in range(40):
        payload = field.random_elements(rng, 13)
        got = gen_hash_append(payload, hp)
        assert [int(v) for v in got] == brute_force_hash(field, payload, 5)


def test_split_decoded_width():
    assert split_decoded_width(51, 50) == (50, 1)
    assert split_decoded_width(115, 50) == (112, 3)
    assert split_decoded_width(8, 1) == (4, 4)
    with pytest.raises(ValueError):
        split_decoded_width(1, 50)


def test_verify_untouched_generation():
    gen, src, hp, rng = build(8, 12, seed=2)
    decoded = decode(random_combinations(src, 8, rng), 8)
    assert gen_hash_verify(decoded, hp) is Verdict.VALID


def test_verify_flags_single_flip():
    # q-1 = 127 is prime, so y -> y^e is a bijection over GF(128)* and a
    # changed payload symbol can never collide: every flip must be caught.
    gen, src, hp, rng = build(6, 10, field=GF128, hash_k=10, seed=3)
    truth = np.hstack([gen.source_payloads, gen.source_hashes])
    for _ in range(50):
        decoded = truth.copy()
        r = int(rng.integers(0, 6))
        c = int(rng.integers(0, 10))
        old = int(decoded[r, c])
        new = int(rng.integers(0, 127))
        decoded[r, c] = new + 1 if new >= old else new
        assert gen_hash_verify(decoded, hp) is Verdict.CORRUPTED


def test_single_flip_miss_rate_within_bound():
    # Random single-symbol flips with the hash left stale; misses happen
    # only on degree-(k+1) collisions, so the rate stays under (k+1)/q.
    gen, src, hp, rng = build(4, 8, field=GF256, hash_k=8, seed=4)
    trials, misses = 1500, 0
    truth = np.hstack([gen.source_payloads, gen.source_hashes])
    for _ in range(trials):
        decoded = truth.copy()
        r = int(rng.integers(0, 4))
        c = int(rng.integers(0, 8))
        old = int(decoded[r, c])
        new = int(rng.integers(0, 255))
        decoded[r, c] = new + 1 if new >= old else new
        if gen_hash_verify(decoded, hp) is Verdict.VALID:
            misses += 1
    bound = (8 + 1) / 256
    sigma = math.sqrt(bound * (1 - bound) / trials)
    assert misses / trials <= bound + 3 * sigma


def test_blind_forgery_is_caught_after_mixing():
    gen, src, hp, rng = build(8, 12, field=GF128, hash_k=12, seed=5)
    caught = trials = 0
    for t in range(100):
        rx = random_combinations(src, 8, rng)
        forged = blind_forge_with_rng(rx, 3, np.random.default_rng(t))
        try:
            decoded = decode(forged, 8)
        except Exception:
            continue
        trials += 1
        if gen_hash_verify(decoded, hp) is Verdict.CORRUPTED:
            caught += 1
    assert trials > 80
    assert caught == trials  # miss bound at s=3 is (13/128)^3 ~ 1e-3


def test_blind_forgery_of_entire_generation_detected():
    # Even with every received packet forged, the junk decodes through
    # claimed coefficients the forger never chose; detection probability
    # stays above 1 - ((k+1)/q)^G.
    gen, src, hp, rng = build(6, 12, field=GF128, hash_k=12, seed=21)
    caught = trials = 0
    for t in range(100):
        rx = random_combinations(src, 6, rng)
        forged = blind_forge_with_rng(rx, 6, np.random.default_rng(t))
        try:
            decoded = decode(forged, 6)
        except Exception:
            continue
        trials += 1
        caught += gen_hash_verify(decoded, hp) is Verdict.CORRUPTED
    assert trials > 80
    assert caught == trials  # bound at s=G is (13/128)^6 ~ 1e-6


def test_subspan_valid_packets():
    gen, src, hp, rng = build(8, 6, seed=6)
    half = random_combinations(src[:4], 4, rng)
    verdict, _, _ = subspan_consistency(half, hp)
    assert verdict in (Verdict.VALID, Verdict.INCONCLUSIVE)
    # full-rank draws decide; force one by retrying
    for _ in range(20):
        half = random_combinations(src[:4], 4, rng)
        if subspan_consistency(half, hp)[0] is Verdict.VALID:
            return
    pytest.fail("no full-rank half-generation draw in 20 tries")


def test_subspan_equivalent_to_full_check_at_size_g():
    gen, src, hp, rng = build(8, 6, seed=7)
    rx = random_combinations(src, 8, rng)
    sub, _, _ = subspan_consistency(rx, hp)
    try:
        full = gen_hash_verify(decode(rx, 8), hp)
    except Exception:
        full = None
    if full is not None:
        assert sub is full
    else:
        assert sub is Verdict.INCONCLUSIVE


def test_subspan_flags_corruption_with_sufficient_rank():
    gen, src, hp, rng = build(8, 10, field=GF128, hash_k=10, seed=8)
    flags = checks = 0
    for t in range(60):
        half = random_combinations(src[:4], 4, rng)
        bad = half[0].replaced(
            payload=GF128.add_arr(half[0].payload, 1), origin_tag=CORRUPTED
        )
        verdict, _, _ = subspan_consistency([bad] + half[1:], hp)
        if verdict is Verdict.INCONCLUSIVE:
            continue
        checks += 1
        flags += verdict is Verdict.CORRUPTED
    assert checks > 40
    assert flags == checks


def test_subspan_single_combination_inconclusive():
    gen, src, hp, rng = build(8, 6, seed=9)
    one = random_combinations(src, 1, rng)[0]
    while np.count_nonzero(one.coeffs) < 2:
        one = random_combinations(src, 1, rng)[0]
    assert subspan_consistency([one], hp)[0] is Verdict.INCONCLUSIVE


def test_subspan_empty_is_vacuously_valid():
    hp = HashParams(k=4, s=1, field=GF256)
    assert subspan_consistency([], hp)[0] is Verdict.VALID


def test_subspan_linear_inconsistency_is_corrupted():
    # Two packets claiming the same combination but carrying different
    # data cannot both be images of any source matrix.
    gen, src, hp, rng = build(8, 6, seed=10)
    pkt = random_combinations(src, 1, rng)[0]
    clash = pkt.replaced(payload=GF256.add_arr(pkt.payload, 3))
    verdict, _, _ = subspan_consistency([pkt, clash], hp)
    assert verdict is Verdict.CORRUPTED


def test_subspan_solves_scaled_source_packet():
    gen, src, hp, rng = build(8, 6, seed=11)
    scaled = combine_with_coefficients([src[2]], [[5]])[0]
    verdict, support, rows = subspan_consistency([scaled], hp)
    assert verdict is Verdict.VALID
    assert list(support) == [2]
    assert np.array_equal(rows[0, :6], gen.source_payloads[2])


def test_verdicts_ignore_origin_tags():
    gen, src, hp, rng = build(8, 6, seed=12)
    rx = random_combinations(src, 8, rng)
    lied = [p.replaced(origin_tag=CORRUPTED) for p in rx]
    v1, _, _ = subspan_consistency(rx, hp)
    v2, _, _ = subspan_consistency(lied, hp)
    assert v1 is v2
    assert oracle_verify(rx[0], gen) == oracle_verify(lied[0], gen)


def test_hash_completeness_no_false_flags():
    rng = np.random.default_rng(13)
    hp = HashParams(k=6, s=1, field=GF256)
    gp = GenerationParams.from_symbols(4, 6, 8, 1)
    for t in range(300):
        gen, src = make_generation(
            random_payloads(GF256, 4, 6, rng), gp, GF256, hp, generation_id=t
        )
        try:
            decoded = decode(random_combinations(src, 4, rng), 4)
        except Exception:
            continue
        assert gen_hash_verify(decoded, hp) is Verdict.VALID


def test_hash_completeness_at_scale():
    # Decoding honest traffic reproduces source rows exactly (round-trip
    # tests), so completeness reduces to append/verify agreement; batch
    # 1e5 random rows through the verifier in one call.
    rng = np.random.default_rng(23)
    hp = HashParams(k=10, s=1, field=GF256)
    payloads = GF256.random_elements(rng, (100_000, 10))
    decoded = np.hstack([payloads, gen_hash_append(payloads, hp)])
    assert gen_hash_verify(decoded, hp) is Verdict.VALID


# -- signature scheme ---------------------------------------------------------


@pytest.fixture(scope="module")
def sig_setup():
    group = make_group(32, 33, rng=random.Random(7))
    field = prime_field(group.order)
    rng = np.random.default_rng(14)
    gp = GenerationParams.from_symbols(3, 4, (field.q - 1).bit_length())
    gen, src = make_generation(random_payloads(field, 3, 4, rng), gp, field)
    key = sig_keygen(gen, group, rng)
    return group, field, gen, src, key, rng


def test_sig_accepts_source_packets(sig_setup):
    _, _, gen, src, key, _ = sig_setup
    assert all(sig_verify(p.wire(), key) for p in src)


def test_sig_accepts_random_combinations(sig_setup):
    _, _, gen, src, key, rng = sig_setup
    for pkt in random_combinations(src, 200, rng):
        assert sig_verify(pkt.wire(), key)


def test_sig_accepts_zero_vector(sig_setup):
    _, field, gen, src, key, _ = sig_setup
    zero = src[0].replaced(
        coeffs=field._arr(np.zeros(3, dtype=np.int64)),
        payload=field._arr(np.zeros(4, dtype=np.int64)),
    )
    assert sig_verify(zero.wire(), key)  # zero lies in every subspace


def test_sig_rejects_corruptions(sig_setup):
    _, field, gen, src, key, rng = sig_setup
    for pkt in random_combinations(src, 300, rng):
        j = int(rng.integers(0, 4))
        payload = pkt.payload.copy()
        payload[j] = field.add(int(payload[j]), 1 + int(rng.integers(0, field.q - 1)))
        assert not sig_verify(pkt.replaced(payload=payload).wire(), key)


def test_sig_linearity_exact(sig_setup):
    _, field, gen, src, key, rng = sig_setup
    w1 = random_combinations(src, 1, rng)[0]
    w2 = random_combinations(src, 1, rng)[0]
    for _ in range(20):
        c1, c2 = (int(v) for v in field.random_elements(rng, 2))
        mix = combine_with_coefficients([w1, w2], [[c1, c2]])[0]
        assert sig_verify(mix.wire(), key)


def test_sig_key_size_accounting(sig_setup):
    group, _, gen, _, key, _ = sig_setup
    bits_per_element = (group.modulus - 1).bit_length()
    assert key.key_size_bits == (3 + 4) * bits_per_element


def test_sig_length_mismatch_rejected(sig_setup):
    _, field, _, src, key, _ = sig_setup
    short = src[0].replaced(payload=src[0].payload[:-1])
    with pytest.raises(ValueError):
        sig_verify(short.wire(), key)


def test_sig_keygen_minimal_dimensions():
    # G=2, k_data=2: the orthogonal complement has dimension 2 and
    # keygen succeeds.
    group = make_group(16, 20, rng=21)
    field = prime_field(group.order)
    rng = np.random.default_rng(22)
    gp = GenerationParams.from_symbols(2, 2, (field.q - 1).bit_length())
    gen, src = make_generation(random_payloads(field, 2, 2, rng), gp, field)
    key = sig_keygen(gen, group, rng)
    assert len(key.h_vec) == 4
    assert all(sig_verify(p.wire(), key) for p in src)


def test_sig_keygen_preconditions():
    rng = np.random.default_rng(15)
    gp = GenerationParams.from_symbols(3, 4, 8)
    gen, _ = make_generation(random_payloads(GF256, 3, 4, rng), gp, GF256)
    group = make_group(16, 20, rng=3)
    with pytest.raises(ValueError):
        sig_keygen(gen, group, rng)  # binary coding field

    field = prime_field(group.order)
    hp = HashParams(k=4, s=1, field=field)
    gph = GenerationParams.from_symbols(3, 4, (field.q - 1).bit_length(), 1)
    genh, _ = make_generation(random_payloads(field, 3, 4, rng), gph, field, hp)
    with pytest.raises(ValueError):
        sig_keygen(genh, group, rng)  # hash symbols present


# -- oracle -------------------------------------------------------------------


def test_oracle_accepts_source_and_combines():
    gen, src, hp, rng = build(6, 5, seed=16)
    assert all(oracle_verify(p, gen) for p in src)
    for pkt in random_combinations(src, 30, rng):
        assert oracle_verify(pkt, gen)


def test_oracle_rejects_any_flip():
    gen, src, hp, rng = build(6, 5, seed=17)
    for pkt in random_combinations(src, 30, rng):
        j = int(rng.integers(0, 5))
        payload = pkt.payload.copy()
        payload[j] = GF256.add(int(payload[j]), 1 + int(rng.integers(0, 255)))
        assert not oracle_verify(pkt.replaced(payload=payload), gen)


def _prime_near(q: int, step: int) -> int:
    while not is_prime(q):
        q += step
    return q


# Every binary field, and primes on both the int64 and the object-dtype path.
ORACLE_FIELDS = [binary_field(w) for w in range(2, 17)] + [
    prime_field(q) for q in (2, 257, _prime_near(_INT64_SAFE_Q, -1),
                             _prime_near(_INT64_SAFE_Q + 1, 1))
]


@pytest.mark.parametrize("f", ORACLE_FIELDS, ids=repr)
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), G=st.integers(1, 5),
       k_data=st.integers(1, 6), hash_k=st.integers(1, 4))
def test_oracle_matches_rank_oracle(f, seed, G, k_data, hash_k):
    # The direct check d == c S must agree with the rank test: w is in
    # the span of the source rows iff appending it leaves the rank at G.
    rng = np.random.default_rng(seed)
    hp = HashParams(k=hash_k, s=1, field=f)
    gp = GenerationParams.from_symbols(G, k_data, f.q.bit_length(),
                                       hp.hash_symbol_count(k_data))
    gen, src = make_generation(random_payloads(f, G, k_data, rng), gp, f, hp)
    rows = np.hstack([f._arr(np.eye(G, dtype=np.int64)), gen.source_rows()])

    def in_span_by_rank(w):
        return len(reduced_row_echelon(f, np.vstack([rows, w[None, :]]))[1]) == G

    for pkt in random_combinations(src, 3, rng):
        assert oracle_verify(pkt, gen)
        assert in_span_by_rank(pkt.wire())
        w = pkt.wire().copy()
        j = int(rng.integers(0, len(w)))
        w[j] = f.add(int(w[j]), int(rng.integers(1, f.q)))
        bad = pkt.replaced(coeffs=w[:G], payload=w[G : G + k_data],
                           hash_syms=w[G + k_data :])
        assert oracle_verify(bad, gen) == in_span_by_rank(w)


def test_oracle_width_mismatch():
    gen, src, hp, rng = build(6, 5, seed=18)
    with pytest.raises(ValueError):
        oracle_verify(src[0].replaced(payload=src[0].payload[:-1]), gen)


# -- conformance vectors ------------------------------------------------------


def test_hash_test_vector_roundtrip(tmp_path):
    hp = HashParams(k=5, s=1, field=GF128)
    path = tmp_path / "vectors.jsonl"
    n = write_hash_test_vectors(path, hp, k_data=12, count=60, seed=19)
    assert n == 60
    ok, bad = check_hash_test_vectors(path, hp)
    assert (ok, bad) == (60, 0)
    lines = path.read_text().splitlines()
    assert any('"verdict": "accept"' in ln for ln in lines)
    assert any('"verdict": "reject"' in ln for ln in lines)


def test_hash_test_vector_tampering_detected(tmp_path):
    import json

    hp = HashParams(k=5, s=1, field=GF128)
    path = tmp_path / "vectors.jsonl"
    write_hash_test_vectors(path, hp, k_data=12, count=10, seed=20)
    records = [json.loads(ln) for ln in path.read_text().splitlines()]
    records[0]["verdict"] = (
        "reject" if records[0]["verdict"] == "accept" else "accept"
    )
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    ok, bad = check_hash_test_vectors(path, hp)
    assert bad == 1

    records[1]["q"] = 999
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    with pytest.raises(ValueError):
        check_hash_test_vectors(path, hp)
