"""Batch kernels against the scalar reference path, over every field kind.

Each property runs on GF(2^w) for every w in 2..16 and on prime fields on
both sides of the int64 limit, so the object-dtype path is covered too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncdetect.algebra import (
    _INT64_SAFE_Q,
    _carryless_mul_mod,
    binary_field,
    is_prime,
    prime_field,
)
from ncdetect.detect import HashParams, gen_hash_append, gen_hash_verify, hash_consistent
from ncdetect.rlnc import NotDecodable, Packet, decode, decode_batch
from ncdetect.sim import estimate_hash_miss_rate


def _prime_near(q: int, step: int) -> int:
    while not is_prime(q):
        q += step
    return q


PRIME_BELOW = _prime_near(_INT64_SAFE_Q, -1)  # int64 path
PRIME_ABOVE = _prime_near(_INT64_SAFE_Q + 1, 1)  # object-dtype path
FIELDS = (
    [binary_field(w) for w in range(2, 17)]
    + [prime_field(q) for q in (2, 257, PRIME_BELOW, PRIME_ABOVE)]
)
FIELD_IDS = [repr(f) for f in FIELDS]

PROPERTY = settings(max_examples=25, deadline=None)


def _rng(seed):
    return np.random.default_rng(seed)


def _ints(a):
    return [[int(v) for v in row] for row in np.asarray(a).reshape(-1, a.shape[-1])]


def test_prime_fields_straddle_the_int64_limit():
    assert prime_field(PRIME_BELOW).dtype == np.int64
    assert prime_field(PRIME_ABOVE).dtype == object


@pytest.mark.parametrize("w", range(2, 9))
def test_mul_table_matches_carryless_product_exhaustively(w):
    f = binary_field(w)
    q = f.q
    ref = np.array([[_carryless_mul_mod(a, b, f.poly, w) for b in range(q)]
                    for a in range(q)])
    assert np.array_equal(f._mul_table.reshape(q, q), ref)
    a, b = np.divmod(np.arange(q * q), q)
    assert np.array_equal(f.mul_arr(a, b), ref[a, b])


@pytest.mark.parametrize("w", range(9, 17))
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_log_exp_product_matches_carryless_product(w, seed):
    f = binary_field(w)
    a = f.random_elements(_rng(seed), 32)
    b = f.random_elements(_rng(seed + 1), 32)
    a[:4] = 0
    b[2:6] = 0
    got = f.mul_arr(a[:, None], b[None, :])
    ref = [[_carryless_mul_mod(int(x), int(y), f.poly, w) for y in b] for x in a]
    assert np.array_equal(got, np.array(ref))


def _rank_limited(f, rng, T, R, G, width, rank):
    """T stacked (R, G + width) matrices whose encoding part has rank <= rank."""
    left = f.random_elements(rng, (T, R, rank))
    right = f.random_elements(rng, (T, rank, G))
    coeffs = f.matmul(left, right) if rank else f._arr(np.zeros((T, R, G)))
    return np.concatenate([coeffs, f.random_elements(rng, (T, R, width))], axis=-1)


@pytest.mark.parametrize("f", FIELDS, ids=FIELD_IDS)
@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    T=st.integers(1, 4),
    G=st.integers(1, 4),
    extra_rows=st.integers(-1, 2),
    width=st.integers(1, 4),
    deficit=st.integers(0, 2),
)
def test_decode_batch_matches_decode(f, seed, T, G, extra_rows, width, deficit):
    rng = _rng(seed)
    R = max(1, G + extra_rows)
    m = _rank_limited(f, rng, T, R, G, width, max(0, min(R, G) - deficit))
    full_rank, rows = decode_batch(f, m, G)
    assert full_rank.shape == (T,)
    assert rows.shape == (T, G, width)
    empty = f._arr(np.zeros(0, dtype=np.int64))
    for t in range(T):
        packets = [Packet(coeffs=r[:G], payload=r[G:], hash_syms=empty, field=f)
                   for r in m[t]]
        try:
            ref = decode(packets, G)
        except NotDecodable:
            assert not full_rank[t]
        else:
            assert full_rank[t]
            assert _ints(rows[t]) == _ints(ref)


@pytest.mark.parametrize("f", FIELDS, ids=FIELD_IDS)
def test_decode_batch_single_row_generation(f):
    m = f._arr(np.array([[[0, 5 % f.q]], [[1, 3 % f.q]]]))
    full_rank, rows = decode_batch(f, m, 1)
    assert full_rank.tolist() == [False, True]
    assert int(rows[1, 0, 0]) == 3 % f.q


def test_decode_batch_rejects_bad_shapes():
    f = binary_field(4)
    with pytest.raises(ValueError):
        decode_batch(f, np.zeros((3, 5), dtype=np.int64), 2)
    with pytest.raises(ValueError):
        decode_batch(f, np.zeros((1, 3, 1), dtype=np.int64), 2)


@pytest.mark.parametrize("f", FIELDS, ids=FIELD_IDS)
@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    T=st.integers(1, 3),
    r=st.integers(1, 4),
    m=st.integers(0, 4),
    c=st.integers(1, 4),
)
def test_batched_matmul_matches_each_slice(f, seed, T, r, m, c):
    rng = _rng(seed)
    a = f.random_elements(rng, (T, r, m))
    b = f.random_elements(rng, (T, m, c))
    out = f.matmul(a, b)
    assert out.shape == (T, r, c)
    for t in range(T):
        assert _ints(out[t]) == _ints(f.matmul(a[t], b[t]))
    # A shared right operand broadcasts over the batch axis.
    shared = f.matmul(a, b[0])
    for t in range(T):
        assert _ints(shared[t]) == _ints(f.matmul(a[t], b[0]))


@pytest.mark.parametrize("f", FIELDS, ids=FIELD_IDS)
@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), r=st.integers(1, 3), m=st.integers(1, 4),
       c=st.integers(1, 3))
def test_matmul_matches_scalar_arithmetic(f, seed, r, m, c):
    rng = _rng(seed)
    a = f.random_elements(rng, (r, m))
    b = f.random_elements(rng, (m, c))
    ref = [[0] * c for _ in range(r)]
    for i in range(r):
        for j in range(c):
            for x in range(m):
                ref[i][j] = f.add(ref[i][j], f.mul(int(a[i, x]), int(b[x, j])))
    assert _ints(f.matmul(a, b)) == ref


def test_matmul_rejects_mismatched_shapes():
    f = binary_field(8)
    with pytest.raises(ValueError):
        f.matmul(np.zeros((2, 3), dtype=np.int64), np.zeros((2, 3), dtype=np.int64))
    with pytest.raises(ValueError):
        f.matmul(np.zeros(3, dtype=np.int64), np.zeros((3, 1), dtype=np.int64))


@pytest.mark.parametrize("f", FIELDS, ids=FIELD_IDS)
@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    T=st.integers(1, 3),
    R=st.integers(1, 3),
    k=st.integers(1, 4),
    k_data=st.integers(1, 9),
)
def test_batched_hash_append_matches_rows(f, seed, T, R, k, k_data):
    hp = HashParams(k=k, s=1, field=f)
    payload = f.random_elements(_rng(seed), (T, R, k_data))
    h = gen_hash_append(payload, hp)
    n_h = hp.hash_symbol_count(k_data)  # a short trailing block when k ∤ k_data
    assert h.shape == (T, R, n_h)
    for t in range(T):
        for i in range(R):
            row = payload[t, i]
            assert [int(v) for v in gen_hash_append(row, hp)] == [int(v) for v in h[t, i]]
            # Independent oracle: sum over each block of x_j^(j mod k + 2).
            ref = [0] * n_h
            for j, x in enumerate(row):
                ref[j // k] = f.add(ref[j // k], f.pow(int(x), j % k + 2))
            assert [int(v) for v in h[t, i]] == ref


@pytest.mark.parametrize("f", FIELDS, ids=FIELD_IDS)
@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), T=st.integers(1, 4), R=st.integers(1, 3),
       k_data=st.integers(1, 7))
def test_hash_consistent_matches_gen_hash_verify(f, seed, T, R, k_data):
    rng = _rng(seed)
    hp = HashParams(k=3, s=1, field=f)
    payload = f.random_elements(rng, (T, R, k_data))
    rows = np.concatenate([payload, gen_hash_append(payload, hp)], axis=-1)
    # Perturb some matrices' symbols; small fields may perturb into a match.
    for t in range(0, T, 2):
        i, j = int(rng.integers(0, R)), int(rng.integers(0, rows.shape[-1]))
        rows[t, i, j] = f.add(int(rows[t, i, j]), 1)
    ok = hash_consistent(rows, hp)
    assert ok.shape == (T,)
    for t in range(T):
        assert bool(ok[t]) == (gen_hash_verify(rows[t], hp).value == "valid")


@pytest.mark.parametrize("f", [binary_field(2), binary_field(16), prime_field(257),
                               prime_field(PRIME_ABOVE)], ids=repr)
def test_miss_rate_run_on_every_field_kind(f):
    args = dict(field=f, G=3, k_data=4, hash_k=2, s=2, trials=40, seed=9)
    rep = estimate_hash_miss_rate(**args)
    assert rep == estimate_hash_miss_rate(**args)
    assert rep.trials == 40 and 0 <= rep.misses <= 40
    assert rep.bound == pytest.approx((3 / f.q) ** 2)
