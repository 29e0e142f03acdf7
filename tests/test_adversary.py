"""Corruption models: reproducibility, rates, and rewrite semantics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncdetect.adversary import (
    MODES,
    AttackModel,
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
    rng = np.random.default_rng(seed)
    hp = HashParams(k=hash_k, field=GF256) if hash_k else None
    _, src = make_generation(GF256.random_elements(rng, (G, k_data)), GF256, hp)
    if count:
        src = (src * (count // G + 1))[:count]
    return src, hp


def test_p_zero_leaves_stream_unchanged():
    src, _ = sources()
    out = corrupt_stream_with_rng(src, AttackModel(p=0.0), seeded(1))
    assert all(o is p for o, p in zip(out, src))


def test_p_one_corrupts_everything():
    src, _ = sources()
    out = corrupt_stream_with_rng(src, AttackModel(p=1.0), seeded(2))
    assert all(o.corrupted for o in out)


def test_binomial_concentration_at_scale():
    src, _ = sources(G=4, k_data=1, count=100_000, seed=3)
    out = corrupt_stream_with_rng(src, AttackModel(p=0.1), seeded(4))
    hits = sum(o.corrupted for o in out)
    sigma = math.sqrt(100_000 * 0.1 * 0.9)
    assert abs(hits - 10_000) <= 3 * sigma


def test_identical_seed_identical_stream():
    src, _ = sources(hash_k=3)
    model = AttackModel(p=0.5)
    out1 = corrupt_stream_with_rng(src, model, seeded(5))
    out2 = corrupt_stream_with_rng(src, model, seeded(5))
    for a, b in zip(out1, out2):
        assert np.array_equal(a.wire(), b.wire())
        assert a.corrupted == b.corrupted


def test_corrupted_packet_always_differs():
    for mode in ("random-symbol", "random-payload", "blind-s-packet"):
        src, _ = sources(hash_k=3, seed=6)
        out = corrupt_stream_with_rng(src, AttackModel(p=1.0, mode=mode), seeded(7))
        for before, after in zip(src, out):
            assert not np.array_equal(before.wire(), after.wire())


def test_random_symbol_touches_one_payload_symbol_only():
    src, _ = sources(hash_k=3, seed=8)
    out = corrupt_stream_with_rng(src, AttackModel(p=1.0), seeded(9))
    for before, after in zip(src, out):
        assert np.array_equal(before.coeffs, after.coeffs)
        assert np.array_equal(before.hash_syms, after.hash_syms)  # left stale
        diff = np.sum(np.not_equal(before.payload, after.payload))
        assert diff == 1


def test_hash_aware_forgery_is_self_consistent():
    src, hp = sources(hash_k=3, seed=10)
    model = AttackModel(p=1.0, mode="hash-aware-forgery", hash_params=hp)
    for pkt in corrupt_stream_with_rng(src, model, seeded(11)):
        assert np.array_equal(pkt.hash_syms, gen_hash_append(pkt.payload, hp))


def test_hash_aware_requires_params():
    with pytest.raises(ValueError):
        AttackModel(p=0.5, mode="hash-aware-forgery")


def test_model_validation():
    with pytest.raises(ValueError):
        AttackModel(p=1.5)
    with pytest.raises(ValueError):
        AttackModel(p=0.5, mode="downgrade")


def test_blind_forge_zero_is_noop():
    src, _ = sources(hash_k=3, seed=12)
    out = blind_forge_with_rng(src, 0, seeded(13))
    assert all(o is p for o, p in zip(out, src))


def test_blind_forge_all():
    src, _ = sources(hash_k=3, seed=14)
    out = blind_forge_with_rng(src, len(src), seeded(15))
    assert all(o.corrupted for o in out)
    for before, after in zip(src, out):
        assert np.array_equal(before.coeffs, after.coeffs)  # claims stay


def test_blind_forge_count_and_bounds():
    src, _ = sources(G=8, k_data=3, seed=16)
    out = blind_forge_with_rng(src, 3, seeded(17))
    assert sum(o.corrupted for o in out) == 3
    for s in (-1, 9):
        with pytest.raises(ValueError, match="cannot forge"):
            blind_forge_with_rng(src, s, seeded(18))


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
