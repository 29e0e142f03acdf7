"""Batch kernels against the scalar reference path, over every field kind.

Each property runs on GF(2^w) for every w in 2..16 and on prime fields on
both sides of the int64 limit, so the object-dtype path is covered too.
The miss-rate run is also pinned to recorded outcomes, so a faster kernel
cannot move one draw or verdict unnoticed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncdetect.algebra import (
    _INT64_SAFE_Q,
    _carryless_mul_mod,
    _poly_pow,
    binary_field,
    is_prime,
    prime_field,
)
from ncdetect.detect import (
    HashParams,
    Verdict,
    gen_hash_append,
    gen_hash_verify,
    hash_consistent,
    oracle_verify,
    subspan_consistency,
    subspan_consistency_batch,
)
from ncdetect.rlnc import (
    NotDecodable,
    decode,
    decode_batch,
    make_generation,
    random_combinations,
    reduced_row_echelon,
    solve_batch,
)
from ncdetect.sim import estimate_hash_miss_rate
from field_reference import ScalarField


def _prime_near(q: int, step: int) -> int:
    while not is_prime(q):
        q += step
    return q


PRIME_BELOW = _prime_near(_INT64_SAFE_Q, -1)  # int64 path
PRIME_ABOVE = _prime_near(_INT64_SAFE_Q + 1, 1)  # object-dtype path
# Primes either side of sqrt(2^63) ~ 3037000499: products of the larger
# overflow int64, so both int64-path cases check the uint64 products.
SQRT_INT64_PRIMES = (3_037_000_493, 3_037_000_507)
FIELDS = (
    [binary_field(w) for w in range(2, 17)]
    + [prime_field(q) for q in (2, 257, *SQRT_INT64_PRIMES, PRIME_BELOW, PRIME_ABOVE)]
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


@PROPERTY
@given(data=st.data())
def test_int64_products_below_2_32_equal_python_ints(data):
    q = PRIME_BELOW
    f = prime_field(q)
    r, m, c = (data.draw(st.integers(1, 4)) for _ in range(3))
    elem = st.one_of(st.integers(0, q - 1), st.just(q - 1))
    a = [[data.draw(elem) for _ in range(m)] for _ in range(r)]
    b = [[data.draw(elem) for _ in range(c)] for _ in range(m)]
    a[0][0] = b[0][0] = q - 1  # (q-1)(q-1), the largest product
    A, B = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
    prod = f.mul_arr(A[:, :, None], B[None, :, :])  # prod[i, j, k] = a_ij b_jk
    assert prod.dtype == np.int64
    assert prod.tolist() == [[[x * y % q for y in b[j]] for j, x in enumerate(row)]
                             for row in a]
    got = f.matmul(A, B)
    assert got.dtype == np.int64
    assert got.tolist() == [[sum(row[j] * b[j][k] for j in range(m)) % q
                             for k in range(c)] for row in a]


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
    _assert_decode_batch_equals_decode(f, m, G, full_rank, rows)


def _assert_decode_batch_equals_decode(f, m, G, full_rank, rows):
    """Each trial's rows equal decode's, or decode raises NotDecodable."""
    for t in range(len(m)):
        try:
            ref = decode(f, m[t], G)
        except NotDecodable:
            assert not full_rank[t]
        else:
            assert full_rank[t]
            assert _ints(rows[t]) == _ints(ref)


def _zero_rows(rng, m, share):
    """m with about share of its rows, and never all of them, set to zero."""
    m = m.copy()
    m[rng.random(m.shape[:2]) < share] = 0
    return m


@pytest.mark.parametrize("f", FIELDS, ids=FIELD_IDS)
@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    T=st.integers(1, 4),
    G=st.integers(1, 5),
    R=st.integers(0, 6),
    width=st.integers(0, 3),
    deficit=st.integers(0, 3),
    short=st.integers(0, 3),
    zeros=st.sampled_from([0.0, 0.3]),
)
def test_solve_batch_matches_reduced_row_echelon(f, seed, T, G, R, width, deficit,
                                                 short, zeros):
    # Ranks below G, pivot widths below the row width, R < G, zero rows
    # and columns: every trial may leave columns of its own unpivoted.
    rng = _rng(seed)
    rank = max(0, min(R, G) - deficit)
    m = _zero_rows(rng, _rank_limited(f, rng, T, R, G, width, rank), zeros)
    _assert_solve_batch_matches_reduced_row_echelon(f, m, max(0, G - short))
    # Every column may pivot: no data is left, and every tail row is zero.
    _assert_solve_batch_matches_reduced_row_echelon(f, m, m.shape[2])


def _assert_solve_batch_matches_reduced_row_echelon(f, m, G):
    """solve_batch over the first G columns against reduced_row_echelon.

    The pivoted columns are its pivots, and the tail data is nonzero
    exactly when the reference's is.  Each pivoted slot holds the data of
    its pivot row bit for bit when that data is unique: when the tail
    data is zero, or when every column pivots, so that both take the
    first nonzero row at or below the current one.
    """
    T, R, W = m.shape
    pivoted, rows = solve_batch(f, m, G)
    assert pivoted.shape == (T, G) and rows.shape == (T, max(R, G), W - G)
    for t in range(T):
        ref, pivots = reduced_row_echelon(f, m[t], G)
        assert np.flatnonzero(pivoted[t]).tolist() == pivots
        tail = ref[len(pivots) :, G:].any()
        assert np.delete(rows[t], pivots, axis=0).any() == tail
        if not tail or len(pivots) == G:
            assert rows[t, pivots].tolist() == ref[: len(pivots), G:].tolist()


def _sub_generations(f, rng, T, R, G, k_data, hp):
    """T stacks of R wire rows mixing random subsets of hashed source rows.

    Each trial mixes the source rows of a random support with coefficients
    of limited rank; some trials have one row's data symbol moved (a
    pollution the hash or the span may show) or a row zeroed.
    """
    payload = f.random_elements(rng, (T, G, k_data))
    src = np.concatenate([payload, gen_hash_append(payload, hp)], axis=-1)
    coeffs = f.random_elements(rng, (T, R, G))
    coeffs = np.where(rng.random((T, 1, G)) < 0.4, 0, coeffs)  # outside the support
    rank = rng.integers(0, G + 1, size=T)
    for t in range(T):
        if rank[t] < min(R, G):  # repeat rows: a dependent combination
            coeffs[t, rank[t]:] = coeffs[t, rng.integers(0, max(1, rank[t]), R - rank[t])]
    rows = np.concatenate([coeffs, f._matmul(coeffs, src)], axis=-1)
    for t in np.flatnonzero(rng.random(T) < 0.5):
        i, j = int(rng.integers(0, R)), G + int(rng.integers(0, k_data))
        rows[t, i, j] = ScalarField(f).add(int(rows[t, i, j]), 1)
    return _zero_rows(rng, rows, 0.15)


@pytest.mark.parametrize("f", FIELDS, ids=FIELD_IDS)
@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    T=st.integers(1, 5),
    G=st.integers(1, 5),
    R=st.integers(1, 6),
    k_data=st.integers(1, 4),
)
def test_subspan_consistency_batch_matches_each_stack(f, seed, T, G, R, k_data):
    hp = HashParams(k=2, field=f)
    rows = _sub_generations(f, _rng(seed), T, R, G, k_data, hp)
    verdicts, support, solved, rank = subspan_consistency_batch(rows, G, hp)
    assert verdicts.shape == rank.shape == (T,) and support.shape == (T, G)
    assert solved.shape == (T, G, rows.shape[2] - G)
    for t in range(T):
        verdict, sup, sol = subspan_consistency(rows[t], G, hp)
        assert verdicts[t] is verdict
        assert rank[t] == len(reduced_row_echelon(f, rows[t], G)[1])
        assert np.flatnonzero(support[t]).tolist() == sup.tolist()
        if sol is None:
            assert not solved[t].any()
        else:
            assert _ints(solved[t, sup]) == _ints(sol)
            assert not np.delete(solved[t], sup, axis=0).any()


@pytest.mark.parametrize("f", FIELDS, ids=FIELD_IDS)
@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    T=st.integers(1, 4),
    G=st.integers(1, 4),
    R=st.integers(1, 5),
    pad=st.integers(1, 4),
)
def test_zero_rows_change_no_verdict_and_no_decode(f, seed, T, G, R, pad):
    # The relay pads its streams with zero rows, between sent rows too.
    rng = _rng(seed)
    hp = HashParams(k=2, field=f)
    rows = _sub_generations(f, rng, T, R, G, 3, hp)
    at = np.sort(rng.integers(0, R + 1, size=pad))
    padded = np.insert(rows, at, 0, axis=1)
    assert padded.shape == (T, R + pad, rows.shape[2])
    got, want = (subspan_consistency_batch(m, G, hp) for m in (padded, rows))
    assert got[0].tolist() == want[0].tolist()
    assert np.array_equal(got[1], want[1]) and _ints(got[2]) == _ints(want[2])
    (full_rank, decoded), (ref_rank, ref_rows) = (decode_batch(f, m, G)
                                                  for m in (padded, rows))
    assert np.array_equal(full_rank, ref_rank)
    assert _ints(decoded[full_rank]) == _ints(ref_rows[ref_rank])


@pytest.mark.parametrize("f", FIELDS, ids=FIELD_IDS)
@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), T=st.integers(1, 4), G=st.integers(1, 5),
       k_data=st.integers(1, 4))
def test_g_row_check_of_full_rank_decodes_as_decode_batch(f, seed, T, G, k_data):
    # The relay sink decodes with its check: G rows of rank G leave no
    # tail, so they are pinned, polluted or not, and solved is decode's.
    rng = _rng(seed)
    hp = HashParams(k=2, field=f)
    payload = f.random_elements(rng, (T, G, k_data))
    src = np.concatenate([payload, gen_hash_append(payload, hp)], axis=-1)
    coeffs = f.random_elements(rng, (T, G, G))
    rows = _zero_rows(rng, np.concatenate([coeffs, f._matmul(coeffs, src)], axis=-1), 0.1)
    rows[0, 0, G] = ScalarField(f).add(int(rows[0, 0, G]), 1)
    _, _, solved, rank = subspan_consistency_batch(rows, G, hp)
    full_rank, decoded = decode_batch(f, rows, G)
    assert np.array_equal(rank == G, full_rank)
    assert _ints(solved[full_rank]) == _ints(decoded[full_rank])


@pytest.mark.parametrize("f", FIELDS, ids=FIELD_IDS)
def test_decode_batch_single_row_generation(f):
    m = f._arr(np.array([[[0, 5 % f.q]], [[1, 3 % f.q]]]))
    full_rank, rows = decode_batch(f, m, 1)
    assert full_rank.tolist() == [False, True]
    assert int(rows[1, 0, 0]) == 3 % f.q


def test_decode_batch_rejects_bad_shapes():
    f = binary_field(4)
    hp = HashParams(k=2, field=f)
    for shape, G in (((3, 5), 2), ((1, 3, 1), 2), ((1, 2, 4), -1), ((1, 2, 4), 5)):
        m = np.zeros(shape, dtype=np.int64)
        for solve in (decode_batch, solve_batch):
            with pytest.raises(ValueError):
                solve(f, m, G)
        with pytest.raises(ValueError):
            subspan_consistency_batch(m, G, hp)
        if len(shape) == 3:
            with pytest.raises(ValueError):
                subspan_consistency(m[0], G, hp)


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
    ref, s = [[0] * c for _ in range(r)], ScalarField(f)
    for i in range(r):
        for j in range(c):
            for x in range(m):
                ref[i][j] = s.add(ref[i][j], s.mul(int(a[i, x]), int(b[x, j])))
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
    hp = HashParams(k=k, field=f)
    payload = f.random_elements(_rng(seed), (T, R, k_data))
    h = gen_hash_append(payload, hp)
    n_h = hp.hash_symbol_count(k_data)  # a short trailing block when k ∤ k_data
    assert h.shape == (T, R, n_h)
    for t in range(T):
        for i in range(R):
            row = payload[t, i]
            assert [int(v) for v in gen_hash_append(row, hp)] == [int(v) for v in h[t, i]]
            # Independent oracle: sum over each block of x_j^(j mod k + 2).
            ref, s = [0] * n_h, ScalarField(f)
            for j, x in enumerate(row):
                ref[j // k] = s.add(ref[j // k], s.pow(int(x), j % k + 2))
            assert [int(v) for v in h[t, i]] == ref


@pytest.mark.parametrize("f", FIELDS, ids=FIELD_IDS)
@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), T=st.integers(1, 4), R=st.integers(1, 3),
       k_data=st.integers(1, 7))
def test_hash_consistent_matches_gen_hash_verify(f, seed, T, R, k_data):
    rng = _rng(seed)
    hp = HashParams(k=3, field=f)
    payload = f.random_elements(rng, (T, R, k_data))
    rows = np.concatenate([payload, gen_hash_append(payload, hp)], axis=-1)
    # Perturb some matrices' symbols; small fields may perturb into a match.
    for t in range(0, T, 2):
        i, j = int(rng.integers(0, R)), int(rng.integers(0, rows.shape[-1]))
        rows[t, i, j] = ScalarField(f).add(int(rows[t, i, j]), 1)
    ok = hash_consistent(rows, hp)
    assert ok.shape == (T,)
    for t in range(T):
        assert bool(ok[t]) == (gen_hash_verify(rows[t], hp) is Verdict.VALID)


# Binary fields of both product paths and primes on the int64 and the
# object-dtype path.
STACK_FIELDS = [binary_field(w) for w in (2, 8, 16)] + [
    prime_field(q) for q in (257, PRIME_BELOW, PRIME_ABOVE)]


@pytest.mark.parametrize("f", STACK_FIELDS, ids=repr)
@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), T=st.integers(1, 4), G=st.integers(1, 4),
       k_data=st.integers(1, 5), hash_k=st.integers(1, 3), N=st.integers(0, 4))
def test_generation_stack_equals_per_trial_calls(f, seed, T, G, k_data, hash_k, N):
    rng = _rng(seed)
    hp = HashParams(k=hash_k, field=f)
    payloads = f.random_elements(rng, (T, G, k_data))
    stack = make_generation(payloads, f, hp)
    gens = [make_generation(p, f, hp) for p in payloads]
    for rows in ("source_rows", "source_wire_rows"):
        got = getattr(stack, rows)()
        want = np.stack([getattr(g, rows)() for g in gens])
        assert got.shape == want.shape and got.dtype == want.dtype
        assert _ints(got) == _ints(want)
    # N mixes of each trial's source rows, about half with one symbol,
    # coefficient or data, moved by a nonzero amount.
    w = random_combinations(f, stack.source_wire_rows(), N, rng)[1]
    flipped = rng.random((T, N)) < 0.5
    for t, i in zip(*np.nonzero(flipped)):
        j = int(rng.integers(0, w.shape[-1]))
        w[t, i, j] = ScalarField(f).add(int(w[t, i, j]), int(rng.integers(1, f.q)))
    ok = oracle_verify(w, stack)
    assert ok.shape == (T, N) and ok[~flipped].all()
    assert ok.tolist() == [oracle_verify(w[t], gens[t]).tolist() for t in range(T)]


@pytest.mark.parametrize("f", [binary_field(2), binary_field(16), prime_field(257),
                               prime_field(SQRT_INT64_PRIMES[1]),
                               prime_field(PRIME_ABOVE)], ids=repr)
def test_miss_rate_run_on_every_field_kind(f):
    args = dict(field=f, G=3, k_data=4, hash_k=2, s=2, trials=40, seed=9)
    rep = estimate_hash_miss_rate(**args)
    assert rep == estimate_hash_miss_rate(**args)
    assert rep.trials == 40 and 0 <= rep.misses <= 40
    assert rep.bound == pytest.approx((3 / f.q) ** 2)


@pytest.mark.parametrize("w", range(2, 9))
def test_pow_table_matches_log_exp_reference(w):
    # Every a against every e in [0, 3q]: 0, q - 1 and its multiples too.
    f = binary_field(w)
    q = f.q
    a, e = np.divmod(np.arange(q * (3 * q + 1)), 3 * q + 1)
    ref = np.where(a == 0, (e == 0).astype(np.int64),
                   f._exp[f._log[a] * e % (q - 1)])
    assert np.array_equal(f.pow_arr(a, e), ref)
    table = f._pow_table.reshape(q, q)
    assert np.all(table[0] == 1) and np.all(table[1:, 0] == 0)
    assert np.array_equal(table[:, 1:], ref.reshape(q, 3 * q + 1)[1:, :q].T)


@pytest.mark.parametrize("w", range(2, 9))
def test_inverse_table_times_a_is_one(w):
    f = binary_field(w)
    a = np.arange(1, f.q)
    assert np.all(f.mul_arr(a, f._inv_table[a]) == 1)
    assert f._inv_table[0] == 0
    assert np.array_equal(f._inv(a), f._inv_table[a])


# Above w = 8 the log/exp gathers serve, so the table tests above would
# compare the kernels with themselves; these use the bit-level scalar
# references instead: every element at w = 9..12, a seeded sample above.
def _log_exp_elements(f):
    if f.w <= 12:
        return np.arange(f.q)
    return np.unique(np.r_[0, 1, f.q - 1, _rng(f.w).integers(0, f.q, 2000)])


@pytest.mark.parametrize("w", range(9, 17))
def test_log_exp_inverse_times_a_is_one(w):
    f = binary_field(w)
    a = _log_exp_elements(f).astype(f.dtype)
    inv = f._inv(a)
    assert inv.dtype == f.dtype and int(f._inv(a[:1])[0]) == 0  # 0 -> 0
    assert all(_carryless_mul_mod(int(x), int(y), f.poly, w) == 1
               for x, y in zip(a[1:], inv[1:]))
    assert [f.inv(int(x)) for x in a[1:]] == inv[1:].tolist()


@pytest.mark.parametrize("w", range(9, 17))
def test_log_exp_pow_matches_poly_pow(w):
    f = binary_field(w)
    q = f.q
    rng = _rng(100 + w)
    a = np.r_[0, 1, q - 1, rng.integers(0, q, 60)]
    e = np.r_[0, 1, q - 1, 2 * (q - 1), 2**62 - 1, 2**62, 2**62 + 1,
              (2**62 // (q - 1)) * (q - 1), rng.integers(0, 2**62, 20),
              rng.integers(0, 4 * q, 20)]
    got = f.pow_arr(a[:, None].astype(f.dtype), e[None, :])
    want = [[_poly_pow(int(x), int(y), f.poly, w) for y in e] for x in a]
    assert got.dtype == f.dtype and got.tolist() == want


@pytest.mark.parametrize("w", range(9, 17))
def test_log_exp_mul_and_matmul_match_carryless_products(w):
    f = binary_field(w)
    rng = _rng(200 + w)
    a = f.random_elements(rng, (2, 3, 4))
    b = f.random_elements(rng, (2, 4, 5))
    a[0, 0], b[1, :, 0] = 0, 0  # zero rows and columns hit log[0]
    prod = f._mul(a[..., None], b[:, None])  # every a[t, i, j] * b[t, j, c]
    ref = [[[[_carryless_mul_mod(int(x), int(y), f.poly, w) for y in b[t, j]]
             for j, x in enumerate(a[t, i])] for i in range(3)] for t in range(2)]
    assert prod.tolist() == ref
    want = np.bitwise_xor.reduce(np.array(ref), axis=2)
    assert np.array_equal(f.matmul(a, b), want)
    assert np.array_equal(f.matmul(a[0], b)[0], want[0])  # a 2-D operand broadcasts


def _every_matrix(q: int, n: int) -> np.ndarray:
    """All q^(n*n) n x n matrices over {0..q-1}, as a (q^(n*n), n, n) stack."""
    digits = np.arange(q ** (n * n))[:, None] // q ** np.arange(n * n) % q
    return digits.reshape(-1, n, n)


# |GL(n, q)| = prod_{i<n} (q^n - q^i)
@pytest.mark.parametrize("n, invertible", [(2, 180), (3, 181_440)])
def test_decode_batch_exhaustive_over_gf4(n, invertible):
    f = binary_field(2)
    C = f._arr(_every_matrix(f.q, n))
    D = f.random_elements(_rng(n), (len(C), n, 2))
    full_rank, rows = decode_batch(f, np.concatenate([C, D], axis=-1), n)
    assert int(full_rank.sum()) == invertible
    assert np.array_equal(f.matmul(C[full_rank], rows[full_rank]), D[full_rank])
    sample = _rng(10 + n).choice(len(C), size=min(len(C), 3000), replace=False)
    for t in sample:
        rank = len(reduced_row_echelon(f, C[t])[1])
        assert bool(full_rank[t]) == (rank == n)


# Hand-built stacks for the batched eliminator: (R, G) coefficient rows
# per trial.
DECODE_EDGE_CASES = {
    # Column 1 is zero in every row: a zero pivot mid-way, then column 2.
    "zero column": [[[1, 0, 2], [3, 0, 1], [1, 0, 1], [2, 0, 3]]],
    # Row 0 starts with 0: the pivot comes from below; extra rows repeat.
    "swap, R > G": [[[0, 1, 1], [1, 1, 0], [1, 0, 1], [1, 1, 0], [0, 2, 3]]],
    # Repeated rows (rank 2 of 3 in most fields), next to a full-rank trial.
    "repeats": [[[1, 2, 3], [1, 2, 3], [0, 1, 1], [2, 4, 6]],
                [[1, 2, 3], [0, 1, 1], [0, 0, 1], [0, 0, 0]]],
    # G = 1: zero rows before the first nonzero coefficient.
    "G=1": [[[0], [0], [3]], [[0], [0], [0]]],
    # Column 0 has no pivot, so row 0 is a tail slot; column 1's only
    # nonzero is in that slot, above row 1, and it swaps down.
    "tail row above": [[[0, 1]]],
    # R = G, and column 0 has no pivot: slot 0 is the only tail row, and
    # the repeated row's data shows there unless the data repeats too.
    "tail slot": [[[0, 1], [0, 1]]],
    # Column 1 has no pivot, so slot 1 is a tail row; column 2's pivot must
    # come from it, not from pivot row 0, which is nonzero there too.
    "pivot row above": [[[1, 1, 1], [0, 0, 1]]],
}


@pytest.mark.parametrize("case", sorted(DECODE_EDGE_CASES))
@pytest.mark.parametrize("f", FIELDS, ids=FIELD_IDS)
def test_decode_batch_edge_cases_match_decode(f, case):
    # Also checks solve_batch, and the span check built on it, against the
    # scalar path.
    coeffs = f._arr(np.array(DECODE_EDGE_CASES[case]) % f.q)
    T, R, G = coeffs.shape
    data = f.random_elements(_rng(len(case)), (T, R, 3))
    m = np.concatenate([coeffs, data], axis=-1)
    _assert_decode_batch_equals_decode(f, m, G, *decode_batch(f, m, G))
    _assert_solve_batch_matches_reduced_row_echelon(f, m, G)
    hp = HashParams(k=2, field=f)
    verdicts, _, solved, _ = subspan_consistency_batch(m, G, hp)
    for t in range(T):
        verdict, support, sol = subspan_consistency(m[t], G, hp)
        assert verdicts[t] is verdict
        if sol is None:
            assert not solved[t].any()
        else:
            assert _ints(solved[t, support]) == _ints(sol)


# (misses, redraws) of estimate_hash_miss_rate at seeds 1, 2 and 11: the
# draws and verdicts of this run must not move.  Chunk boundaries fix the
# draw order.  The two criterion shapes were re-pinned when the miss-rate
# chunk budget went from 2^14 to 2^16 elements, which cut their 200
# trials from 6 chunks to 2 (k=50) and from 12 to 3 (k=100).  Every other
# entry fits in one chunk under either budget and keeps the values
# recorded before the table-driven kernels.  Small fields and G = 1 make
# misses frequent.
MISS_RATE_GOLDEN = {
    "GF(2^2)": (binary_field(2), dict(G=3, k_data=4, hash_k=2, s=1, trials=200),
                [(3, 107), (2, 108), (1, 87)]),
    "GF(2^3)": (binary_field(3), dict(G=2, k_data=2, hash_k=2, s=1, trials=400),
                [(14, 70), (20, 65), (18, 72)]),
    "GF(2^7)": (binary_field(7), dict(G=1, k_data=3, hash_k=3, s=1, trials=1000),
                [(11, 5), (10, 10), (7, 5)]),
    "GF(2^7) criterion": (binary_field(7),
                          dict(G=8, k_data=50, hash_k=50, s=5, trials=200),
                          [(0, 3), (0, 0), (0, 2)]),
    "GF(2^8)": (binary_field(8), dict(G=1, k_data=3, hash_k=3, s=1, trials=2000),
                [(8, 12), (9, 6), (7, 7)]),
    "GF(2^8) criterion": (binary_field(8),
                          dict(G=8, k_data=100, hash_k=100, s=5, trials=200),
                          [(0, 2), (0, 2), (0, 0)]),
    "GF(257)": (prime_field(257), dict(G=1, k_data=3, hash_k=3, s=1, trials=2000),
                [(9, 12), (8, 6), (6, 7)]),
    "GF(4294967291)": (prime_field(4294967291),
                       dict(G=3, k_data=4, hash_k=2, s=1, trials=100),
                       [(0, 0), (0, 0), (0, 0)]),
}


@pytest.mark.parametrize("case", sorted(MISS_RATE_GOLDEN))
def test_miss_rate_run_is_pinned(case):
    f, args, want = MISS_RATE_GOLDEN[case]
    got = [estimate_hash_miss_rate(f, seed=seed, **args) for seed in (1, 2, 11)]
    assert [(r.misses, r.redraws) for r in got] == want

