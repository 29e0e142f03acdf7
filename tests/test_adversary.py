"""Corruption models: reproducibility, rates, and rewrite semantics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncdetect.adversary import (
    MODES,
    blind_forge_with_rng,
    corrupt_stream_with_rng,
    rewrite_rows,
)
from ncdetect.algebra import _INT64_SAFE_Q, binary_field, is_prime, prime_field
from ncdetect.detect import HashParams, gen_hash_append, hash_consistent
from ncdetect.rlnc import make_generation

GF256 = binary_field(8)


def seeded(seed):
    return np.random.default_rng(seed)


def sources(G=4, k_data=3, hash_k=None, seed=0, count=None):
    """A stream's (payload | hash) rows: a generation's source rows, repeated
    up to count rows."""
    rng = np.random.default_rng(seed)
    hp = HashParams(k=hash_k, field=GF256) if hash_k else None
    gen = make_generation(GF256.random_elements(rng, (G, k_data)), GF256, hp)
    src = gen.source_rows()
    if count:
        src = np.resize(src, (count, src.shape[1]))
    return src, hp


def test_p_zero_leaves_stream_unchanged():
    # The one case that draws nothing: no row can be hit.
    src, _ = sources()
    rng = seeded(1)
    state = rng.bit_generator.state
    out, hit = corrupt_stream_with_rng(src, GF256, 3, 0.0, rng)
    assert np.array_equal(out, src) and not hit.any()
    assert rng.bit_generator.state == state


def test_p_one_corrupts_everything():
    src, _ = sources()
    out, hit = corrupt_stream_with_rng(src, GF256, 3, 1.0, seeded(2))
    assert hit.all()


def test_binomial_concentration_at_scale():
    src, _ = sources(G=4, k_data=1, count=100_000, seed=3)
    _, hit = corrupt_stream_with_rng(src, GF256, 1, 0.1, seeded(4))
    sigma = math.sqrt(100_000 * 0.1 * 0.9)
    assert abs(int(hit.sum()) - 10_000) <= 3 * sigma


def test_identical_seed_identical_stream():
    src, _ = sources(hash_k=3)
    out1, hit1 = corrupt_stream_with_rng(src, GF256, 3, 0.5, seeded(5))
    out2, hit2 = corrupt_stream_with_rng(src, GF256, 3, 0.5, seeded(5))
    assert np.array_equal(out1, out2)
    assert np.array_equal(hit1, hit2)


def test_corrupted_packet_always_differs():
    src, _ = sources(hash_k=3, seed=6)
    for out, _ in (corrupt_stream_with_rng(src, GF256, 3, 1.0, seeded(7)),
                   blind_forge_with_rng(src, GF256, 3, len(src), seeded(7))):
        assert np.all(np.any(out != src, axis=1))


def test_random_symbol_touches_one_payload_symbol_only():
    src, _ = sources(hash_k=3, seed=8)
    out, _ = corrupt_stream_with_rng(src, GF256, 3, 1.0, seeded(9))
    assert np.array_equal(out[:, 3:], src[:, 3:])  # hash left stale
    assert np.all(np.sum(out[:, :3] != src[:, :3], axis=1) == 1)


def test_hash_aware_forgery_is_self_consistent():
    src, hp = sources(hash_k=3, seed=10)
    out = rewrite_rows(GF256, src, 3, "hash-aware-forgery", seeded(11), hp)
    assert np.array_equal(out[:, 3:], gen_hash_append(out[:, :3], hp))


def test_hash_aware_requires_params():
    src, _ = sources(hash_k=3, seed=10)
    with pytest.raises(ValueError, match="needs hash_params"):
        rewrite_rows(GF256, src, 3, "hash-aware-forgery", seeded(11))


def test_model_validation():
    src, _ = sources()
    for p in (-0.1, 1.5):
        with pytest.raises(ValueError, match="p must lie"):
            corrupt_stream_with_rng(src, GF256, 3, p, seeded(12))
    for k_data in (0, 4):
        with pytest.raises(ValueError, match="expected"):
            corrupt_stream_with_rng(src, GF256, k_data, 0.5, seeded(12))
    with pytest.raises(ValueError, match="unknown attack mode"):
        rewrite_rows(GF256, src, 3, "downgrade", seeded(12))


def test_blind_forge_zero_is_noop():
    src, _ = sources(hash_k=3, seed=12)
    out, hit = blind_forge_with_rng(src, GF256, 3, 0, seeded(13))
    assert np.array_equal(out, src) and not hit.any()


def test_blind_forge_all():
    src, _ = sources(hash_k=3, seed=14)
    out, hit = blind_forge_with_rng(src, GF256, 3, len(src), seeded(15))
    assert hit.all()
    assert np.all(np.any(out[:, :3] != src[:, :3], axis=1))


def test_blind_forge_count_and_bounds():
    src, _ = sources(G=8, k_data=3, seed=16)
    out, hit = blind_forge_with_rng(src, GF256, 3, 3, seeded(17))
    assert int(hit.sum()) == 3
    assert np.array_equal(out[~hit], src[~hit])  # the others pass untouched
    for s in (-1, 9):
        with pytest.raises(ValueError, match="cannot forge"):
            blind_forge_with_rng(src, GF256, 3, s, seeded(18))


# -- the row kernel -----------------------------------------------------------


def _prime_near(q: int, step: int) -> int:
    while not is_prime(q):
        q += step
    return q


# Every binary field, and primes on both the int64 and the object-dtype
# path; the two near sqrt(2^63) ~ 3037000499 straddle the point where
# int64 products overflow and are formed in uint64.
KERNEL_FIELDS = [binary_field(w) for w in range(2, 17)] + [
    prime_field(q) for q in (2, 257, 3_037_000_493, 3_037_000_507,
                             _prime_near(_INT64_SAFE_Q, -1),
                             _prime_near(_INT64_SAFE_Q + 1, 1))
]


@pytest.mark.parametrize("f", KERNEL_FIELDS, ids=repr)
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6),
       k_data=st.integers(1, 5), hash_k=st.integers(1, 3))
def test_rewrite_rows_modes(f, seed, n, k_data, hash_k):
    rng = np.random.default_rng(seed)
    hp = HashParams(k=hash_k, field=f)
    payload = f.random_elements(rng, (n, k_data))
    rows = np.concatenate([payload, gen_hash_append(payload, hp)], axis=1)
    before = rows.copy()
    for mode in MODES:
        out = rewrite_rows(f, rows, k_data, mode, rng, hp)
        assert np.array_equal(rows, before)  # the input is not modified
        assert out.shape == rows.shape and out.dtype == f.dtype
        assert all(0 <= int(v) < f.q for v in out.ravel())
        if f.dtype == object:  # np.int64 elements would wrap silently
            assert all(type(v) is int for v in out.ravel())
        changed = np.not_equal(out[:, :k_data], rows[:, :k_data]).sum(axis=1)
        assert np.all(changed >= 1)  # every mode really corrupts the payload
        if mode == "random-symbol":
            assert np.all(changed == 1)
            assert np.array_equal(out[:, k_data:], rows[:, k_data:])  # stale
        if mode == "hash-aware-forgery":
            assert np.all(hash_consistent(out[:, None], hp))


@pytest.mark.parametrize("mode", MODES)
def test_rewrite_rows_empty_stack_is_a_noop(mode):
    rng = seeded(19)
    state = rng.bit_generator.state
    hp = HashParams(k=3, field=GF256)
    out = rewrite_rows(GF256, np.zeros((0, 4), dtype=np.uint8), 3, mode, rng, hp)
    assert out.shape == (0, 4)
    assert rng.bit_generator.state == state


def test_rewrite_rows_rejects_bad_input():
    rows = np.zeros((2, 4), dtype=np.uint8)
    with pytest.raises(ValueError, match="unknown attack mode"):
        rewrite_rows(GF256, rows, 3, "downgrade", seeded(20))
    with pytest.raises(ValueError, match="needs hash_params"):
        rewrite_rows(GF256, rows, 3, "hash-aware-forgery", seeded(20))
    for k_data in (0, 5):
        with pytest.raises(ValueError, match="expected"):
            rewrite_rows(GF256, rows, k_data, "random-symbol", seeded(20))
    with pytest.raises(ValueError, match="expected"):
        rewrite_rows(GF256, rows[0], 3, "random-symbol", seeded(20))


def test_rewrite_rows_rejects_a_hash_over_another_field():
    rows = np.zeros((2, 4), dtype=np.uint8)  # GF(2^8) rows
    other = HashParams(k=3, field=binary_field(4))
    with pytest.raises(ValueError, match=r"hash over GF\(2\^4\).*over GF\(2\^8\)"):
        rewrite_rows(GF256, rows, 3, "hash-aware-forgery", seeded(20), other)
