"""Monte Carlo node simulation, grid comparison and the relay scenario."""

import dataclasses
import hashlib
import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from ncdetect import analytic, sim
from ncdetect.acceptance import DEFAULT_SEED
from ncdetect.adversary import corrupt_stream_with_rng, rewrite_rows
from ncdetect.algebra import (
    _INT64_SAFE_Q,
    binary_field,
    is_prime,
    make_group,
    prime_field,
)
from ncdetect.analytic import SchemeParams
from ncdetect.detect import (
    HashParams,
    Verdict,
    gen_hash_append,
    hash_consistent,
    oracle_verify,
    sig_keygen,
    sig_verify,
    sig_verify_batch,
    subspan_consistency_batch,
)
from ncdetect.rlnc import (
    NotDecodable,
    make_generation,
    random_combinations,
)
from ncdetect.sim import (
    RELAY_EDGES,
    RELAY_NODES,
    compare_grid,
    estimate_hash_miss_rate,
    signature_error_counts,
    simulate_node,
    simulate_relay,
)
from field_reference import hash_matches
from reference import decode
from relay_reference import simulate_relay_reference


def node(scheme, p, trials, seed=0, **params_kw):
    return simulate_node(scheme, SchemeParams.defaults(p=p, **params_kw), trials, seed)


def test_identical_arguments_identical_report():
    assert node("generation", 0.07, 5000, seed=42) == node("generation", 0.07, 5000, seed=42)


def test_ec_no_attack_no_overhead():
    rep = node("error-correction", 0.0, 10_000)
    assert rep.overhead_ratio == 0.0
    assert rep.stderr == 0.0


def test_ec_matches_binomial_mean():
    rep = node("error-correction", 0.1, 100_000, seed=1)
    sigma = math.sqrt(0.1 * 0.9 / 100_000)
    assert abs(rep.overhead_ratio - 0.1) <= 3 * sigma
    assert rep.dropped == 0


def test_packet_scheme_tracks_formula():
    for p in (0.0, 0.02, 0.06, 0.3):
        rep = node("packet", p, 100_000, seed=2)
        expect = analytic.overhead_packet(p, 1000, 60)
        assert abs(rep.overhead_ratio - expect) <= max(3 * rep.stderr, 0.005)
    rep = node("packet", 0.5, 50_000, seed=3)
    assert rep.overhead_ratio == 0.0  # deep in the clamped region


def test_generation_scheme_tracks_formula():
    for p, g in ((0.05, 10), (0.2, 5), (0.7, 20)):
        rep = node("generation", p, 20_000, seed=4, G=g)
        expect = analytic.overhead_generation(p, 1000, g, 0.02 * 1000 * g)
        assert abs(rep.overhead_ratio - expect) <= max(3 * rep.stderr, 0.005)


@pytest.mark.parametrize("scheme", ["generation", "packet"])
def test_generation_drop_counting(scheme):
    # A trial is a generation under the generation scheme and a packet
    # under the packet scheme; either scheme drops what it catches.
    trials = 50_000
    rep = node(scheme, 0.01, trials, seed=5, G=50)
    expect = analytic.drop_probability(0.01, 50 if scheme == "generation" else 1)
    sigma = math.sqrt(expect * (1 - expect) / trials)
    assert abs(rep.dropped / trials - expect) <= 3 * sigma


def test_simulate_node_validation():
    params = SchemeParams.defaults(p=0.1)
    with pytest.raises(ValueError, match="unknown scheme"):
        simulate_node("parity", params, 100, 0)
    with pytest.raises(ValueError, match="trials"):
        simulate_node("packet", params, 0, 0)
    with pytest.raises(TypeError, match="trials must be an integer, got 10.0"):
        simulate_node("packet", params, 10.0, 0)
    fields = [f.name for f in dataclasses.fields(sim.EmpiricalReport)]
    assert fields == ["scheme", "overhead_ratio", "stderr", "dropped", "trials"]


def test_compare_grid_empty():
    params = SchemeParams.defaults(p=0.0)
    assert compare_grid([], ["packet"], params, trials=100, seed=0) == []


def test_compare_grid_analytic_corners():
    params = SchemeParams.defaults(p=0.0, G=10)
    points = compare_grid([0.0, 0.5, 1.0], list(analytic.SCHEMES), params,
                          trials=0, seed=0)
    assert len(points) == 9
    assert all(gp.report is None for gp in points)
    by_key = {(gp.point.scheme, gp.point.params.p): gp.point.ratio
              for gp in points}
    assert by_key[("error-correction", 0.0)] == 0.0
    assert by_key[("error-correction", 0.5)] == 0.5
    assert by_key[("error-correction", 1.0)] == 1.0
    assert by_key[("packet", 0.0)] == pytest.approx(0.06)
    assert by_key[("packet", 0.5)] == 0.0
    assert by_key[("packet", 1.0)] == 0.0
    assert by_key[("generation", 0.0)] == pytest.approx(0.02)
    assert by_key[("generation", 0.5)] == pytest.approx(0.01951171875)
    assert by_key[("generation", 1.0)] == 0.0


def test_compare_grid_empirical_within_tolerance():
    params = SchemeParams.defaults(p=0.0, G=10)
    points = compare_grid(
        np.linspace(0.0, 1.0, 6), list(analytic.SCHEMES), params,
        trials={"error-correction": 20_000, "packet": 20_000,
                "generation": 4000},
        seed=7,
    )
    for gp in points:
        dev = abs(gp.report.overhead_ratio - gp.point.ratio)
        assert dev <= max(3 * gp.report.stderr, 0.005)


def test_compare_grid_unknown_scheme(monkeypatch):
    params = SchemeParams.defaults(p=0.0)
    with pytest.raises(ValueError):
        compare_grid([0.1], ["parity"], params, trials=0, seed=0)
    # Every scheme is checked before the first point is simulated.
    monkeypatch.setattr(sim, "simulate_node",
                        lambda *args: pytest.fail("simulated before the scheme check"))
    with pytest.raises(ValueError, match="unknown scheme 'parity'"):
        compare_grid([0.1], ["packet", "parity"], params, trials=100, seed=0)


def test_miss_rate_experiment_reports():
    rep = estimate_hash_miss_rate(binary_field(7), G=6, k_data=14, hash_k=14,
                                  s=2, trials=150, seed=8)
    assert rep.trials == 150
    assert rep.miss_rate <= rep.bound + 3 * math.sqrt(
        rep.bound * (1 - rep.bound) / rep.trials
    )
    assert rep.detection_rate == pytest.approx(1 - rep.miss_rate)
    assert rep.bound == pytest.approx((15 / 128) ** 2)


def test_miss_rate_validates_input():
    f = binary_field(7)
    for trials, s in ((0, 2), (-1, 2), (10, 0), (10, 7)):
        with pytest.raises(ValueError):
            estimate_hash_miss_rate(f, G=6, k_data=14, hash_k=14, s=s,
                                    trials=trials, seed=1)
    # Checked before any draw: unchecked, k_data=-2 with hash_k=2 divides
    # by zero sizing a chunk, and k_data=-1 is a negative array dimension.
    for k_data, hash_k in ((0, 14), (-1, 2), (-2, 2)):
        with pytest.raises(ValueError, match="k_data"):
            estimate_hash_miss_rate(f, G=6, k_data=k_data, hash_k=hash_k,
                                    s=2, trials=10, seed=1)
    # Counts that are not integers raise TypeError naming them.
    counts = dict(G=6, k_data=14, hash_k=14, s=2, trials=10)
    for name, value in counts.items():
        with pytest.raises(TypeError, match=f"^{name} must be an integer"):
            estimate_hash_miss_rate(f, **{**counts, name: float(value)}, seed=1)


def test_miss_rate_single_packet_generation():
    rep = estimate_hash_miss_rate(binary_field(4), G=1, k_data=3, hash_k=2,
                                  s=1, trials=400, seed=3)
    assert rep.trials == 400
    assert rep.redraws > 0  # a 1x1 draw is singular with probability 1/16
    assert rep.miss_rate <= rep.bound + 3 * math.sqrt(
        rep.bound * (1 - rep.bound) / rep.trials
    )


def test_miss_rate_chunking_is_deterministic(monkeypatch):
    args = dict(field=binary_field(3), G=3, k_data=4, hash_k=2, s=1,
                trials=300, seed=5)
    whole = estimate_hash_miss_rate(**args)
    monkeypatch.setattr(sim, "_MISS_RATE_CHUNK_ELEMENTS", 64)  # 2-trial chunks
    chunked = estimate_hash_miss_rate(**args)
    assert chunked == estimate_hash_miss_rate(**args)
    assert chunked.trials == whole.trials == 300
    # Frequent misses at q=8: both runs estimate the same rate.
    sd = math.sqrt(whole.bound / 300)
    assert abs(chunked.miss_rate - whole.miss_rate) <= 6 * sd
    assert chunked.redraws > 0 and whole.redraws > 0


@pytest.mark.parametrize("w, G, k, trials, passes", [
    (7, 8, 50, 32, [32]),  # hashbound criterion, k=50
    (8, 8, 100, 32, [32]),  # hashbound criterion, k=100
    (16, 32, 1000, 3, [1, 1, 1]),  # wide16: one trial per pass
])
def test_miss_rate_pass_structure(monkeypatch, w, G, k, trials, passes):
    # The miss-rate chunk budget runs a 32-trial call at either hashbound
    # shape as one pass, and keeps a G=32, k=1000 trial in a pass of its
    # own; the passes fix the draw order.
    sizes = []
    source_chunks = sim._source_chunks

    def recording(*args):
        for src in source_chunks(*args):
            sizes.append(len(src))
            yield src

    monkeypatch.setattr(sim, "_source_chunks", recording)
    estimate_hash_miss_rate(binary_field(w), G=G, k_data=k, hash_k=k, s=5,
                            trials=trials, seed=1)
    assert sizes == passes


def _negative_binomial_region(successes: int, p: float, alpha: float):
    """[lo, hi] holding the failures before `successes` successes of
    probability p, except with probability at most alpha (alpha/2 a side)."""
    mean = successes * (1 - p) / p
    sd = math.sqrt(successes * (1 - p)) / p
    r = np.arange(int(mean + 40 * sd))
    pmf = np.exp([
        math.lgamma(successes + k) - math.lgamma(successes) - math.lgamma(k + 1)
        + successes * math.log(p) + k * math.log1p(-p)
        for k in r
    ])
    below = np.cumsum(pmf)  # P(R <= r)
    above = np.cumsum(pmf[::-1])[::-1]  # P(R >= r), mass past 40 sd dropped
    lo = int(np.argmax(below > alpha / 2))  # P(R < lo) <= alpha/2
    hi = int(np.flatnonzero(above > alpha / 2)[-1])  # P(R > hi) <= alpha/2
    return lo, hi


@pytest.mark.parametrize("w", [2, 3])
def test_miss_rate_redraws_follow_the_rank_probability(w):
    # A uniform G x G matrix over GF(q) is invertible with probability
    # P = prod_{i=1..G} (1 - q^-i), and forgery keeps the claimed
    # coefficients, so each trial's redraws are geometric with mean
    # (1 - P)/P and their total is negative binomial.
    f, G, trials = binary_field(w), 2, 20_000
    P = math.prod(1 - f.q ** -i for i in range(1, G + 1))
    rep = estimate_hash_miss_rate(f, G=G, k_data=2, hash_k=2, s=1,
                                  trials=trials, seed=5)
    lo, hi = _negative_binomial_region(trials, P, alpha=1e-9)
    assert lo < trials * (1 - P) / P < hi
    assert lo <= rep.redraws <= hi


def _binomial_region(trials: int, p: float, alpha: float):
    """[lo, hi] holding a Binomial(trials, p) count, except with probability
    at most alpha (alpha/2 a side), from the exact pmf."""
    k = np.arange(trials + 1)
    pmf = np.exp([
        math.lgamma(trials + 1) - math.lgamma(i + 1) - math.lgamma(trials - i + 1)
        + i * math.log(p) + (trials - i) * math.log1p(-p)
        for i in k
    ])
    below = np.cumsum(pmf)  # P(X <= k)
    above = np.cumsum(pmf[::-1])[::-1]  # P(X >= k)
    lo = int(np.argmax(below > alpha / 2))  # P(X < lo) <= alpha/2
    hi = int(np.flatnonzero(above > alpha / 2)[-1])  # P(X > hi) <= alpha/2
    return lo, hi


PRIME_ABOVE = next(q for q in range(_INT64_SAFE_Q + 1, _INT64_SAFE_Q + 1000)
                   if is_prime(q))  # object-dtype path
# (field, G, k_data, hash_k, s, trials): GF(2^2) is often singular and
# often misses; GF(2^16) is the wide16 benchmark shape.
VERDICT_CASES = {
    "GF(2^8)": (binary_field(8), 10, 112, 50, 2, 60),
    "GF(2^2)": (binary_field(2), 4, 27, 50, 1, 60),
    "G=1": (binary_field(8), 1, 121, 50, 1, 60),
    "GF(257)": (prime_field(257), 6, 102, 50, 2, 60),
    "object": (prime_field(PRIME_ABOVE), 4, 35, 50, 1, 60),  # 33-bit symbols
    "GF(2^16)": (binary_field(16), 32, 1000, 1000, 5, 3),
    "s=G": (binary_field(3), 3, 4, 4, 3, 60),
}


@pytest.mark.parametrize("case", sorted(VERDICT_CASES))
def test_miss_rate_verdicts_match_packet_reference(case, monkeypatch):
    # The run decodes by linearity.  Each pass's trials are rebuilt from
    # the run's own draws as received wire rows: the mixing (C | C S),
    # with each victim's row replaced by its junk.  The reference decode
    # of those rows equals the rows the run checks, a trial is redrawn
    # exactly when that decode raises NotDecodable, and every hash verdict
    # equals the brute-force row hash's.
    f, G, k_data, hash_k, s, trials = VERDICT_CASES[case]
    source_chunks, draw_victims, solve = (
        sim._source_chunks, sim._draw_victims, sim.solve_batch)
    draws, ref, verdicts, redraws = {}, {}, [], 0

    def source_spy(*args):
        for src in source_chunks(*args):
            draws.update(src=src, todo=list(range(len(src))))
            yield src

    def victims_spy(*args):
        draws["victims"] = draw_victims(*args)
        return draws["victims"]

    def rewrite_spy(field, rows, *args):
        draws["honest"] = rows
        draws["junk"] = rewrite_rows(field, rows, *args)
        return draws["junk"]

    def solve_spy(field, m, g):
        nonlocal redraws
        pivoted, rows = solve(field, m, g)
        todo = draws["todo"]
        assert len(m) == len(todo)
        honest, junk = (draws[k].reshape(len(todo), s, -1) for k in ("honest", "junk"))
        for i, t in enumerate(todo):
            coeffs = m[i, :, :G]
            wire = np.concatenate([coeffs, f.matmul(coeffs, draws["src"][t])], axis=1)
            victims = draws["victims"][i]
            assert np.array_equal(wire[victims, G:], honest[i])
            wire[victims, G:] = junk[i]
            try:
                ref[t] = decode(f, wire, G)
            except NotDecodable:
                assert not pivoted[i].all()
                continue
            assert pivoted[i].all()
        draws["todo"] = [t for i, t in enumerate(todo) if not pivoted[i].all()]
        redraws += len(draws["todo"])
        return pivoted, rows

    def consistent_spy(rows, params):
        ok = hash_consistent(rows, params)
        assert draws["todo"] == [] and len(rows) == len(ref)
        for t, decoded in enumerate(rows):
            assert np.array_equal(decoded, ref[t])
            verdicts.append(hash_matches(f, decoded, hash_k))
            assert ok[t] == verdicts[-1]
        ref.clear()
        return ok

    monkeypatch.setattr(sim, "_source_chunks", source_spy)
    monkeypatch.setattr(sim, "_draw_victims", victims_spy)
    monkeypatch.setattr(sim, "rewrite_rows", rewrite_spy)
    monkeypatch.setattr(sim, "solve_batch", solve_spy)
    monkeypatch.setattr(sim, "hash_consistent", consistent_spy)
    rep = estimate_hash_miss_rate(f, G=G, k_data=k_data, hash_k=hash_k, s=s,
                                  trials=trials, seed=21)
    assert len(verdicts) == rep.trials == trials
    assert rep.misses == verdicts.count(True)
    assert rep.redraws == redraws
    if case == "GF(2^2)":
        assert set(verdicts) == {True, False} and redraws


def _gf2_mul_table(w: int, poly: int) -> np.ndarray:
    """GF(2^w) products by shift-and-xor modulo poly, apart from algebra."""
    q = 1 << w
    table = np.zeros((q, q), dtype=np.uint8)
    for a, b in itertools.product(range(q), repeat=2):
        r = 0
        for i in range(w):
            if b >> i & 1:
                r ^= a << i
        for i in range(2 * w - 2, w - 1, -1):
            if r >> i & 1:
                r ^= poly << (i - w)
        table[a, b] = r
    return table


def _exact_blind_miss(w: int, poly: int, G: int, k_data: int) -> Fraction:
    """Miss probability of one blind junk row with hash_k = k_data, exactly.

    Enumerates every source payload matrix X, full-rank mixing C, victim v
    and junk row, forges row v of D = C (X | H(X)) and decodes with C^-1.
    A miss is a decoded matrix whose every row is hash-consistent.  The
    junk follows rewrite_rows' blind rule: a uniform row, except that a
    payload equal to the honest one gets one of its k_data symbols moved
    to one of the q - 1 other values, so each such row splits into
    k_data (q - 1) equally likely moved rows.  Any reduction polynomial
    gives the same probability, since all GF(2^w) are isomorphic and
    every draw is uniform.
    """
    q = 1 << w
    mul = _gf2_mul_table(w, poly)

    def matmul(a, b):
        return np.bitwise_xor.reduce(mul[a[..., :, :, None], b[..., None, :, :]],
                                     axis=-2)

    def every(*shape):
        return np.array(list(itertools.product(range(q), repeat=math.prod(shape))),
                        dtype=np.uint8).reshape(-1, *shape)

    # The hash symbol sum_j x_j^(j+2) of every payload (hash_k = k_data
    # gives one), looked up by the payload's symbols read as base-q digits.
    hashes = np.zeros(q ** k_data, dtype=np.uint8)
    for j, x in enumerate(every(k_data).T):
        p = x
        for _ in range(j + 1):
            p = mul[p, x]
        hashes ^= p

    def hash_symbol(x):  # q^k_data <= 256, so the digits add up in uint8
        digits = x[..., 0]
        for j in range(1, k_data):
            digits = digits * np.uint8(q) + x[..., j]
        return hashes[digits]

    def missed(decoded):  # every decoded row hash-consistent
        return np.all(hash_symbol(decoded) == decoded[..., k_data], axis=-1)

    square = every(G, G)
    is_eye = (matmul(square[:, None], square[None]) == np.eye(G)).all(axis=(-2, -1))
    full_rank = is_eye.any(axis=1)
    C, C_inv = square[full_rank], square[is_eye[full_rank].argmax(axis=1)]
    X = every(G, k_data)
    S = np.concatenate([X, hash_symbol(X)[..., None]], axis=2)
    D = matmul(C, S[:, None])  # (payloads, mixings, G, k_data + 1)
    junk = every(k_data + 1)
    offsets = np.zeros((k_data * (q - 1), k_data), dtype=np.uint8)
    for i, (j, c) in enumerate(itertools.product(range(k_data), range(1, q))):
        offsets[i, j] = c
    moves = len(offsets)
    # Weights in units of 1 / (q^(k_data + 1) moves): a junk row weighs
    # `moves` unless its payload is the honest one, a moved row 1.
    misses = 0
    for v in range(G):
        # C^-1 times the forged D, split by rows of D: the honest rows'
        # part, and column v of C^-1 times the junk row.
        others = [i for i in range(G) if i != v]
        kept = matmul(C_inv[:, :, others], D[:, :, others])[:, :, None]
        column = C_inv[:, None, :, v, None]  # (mixings, 1, G, 1)
        from_junk = mul[column, junk[:, None]]  # the same for every payload
        for x in range(0, len(X), 16):
            honest = D[x : x + 16, :, v, :k_data]
            weight = moves * np.any(junk[:, :k_data] != honest[:, :, None], axis=-1)
            misses += int((weight * missed(kept[x : x + 16] ^ from_junk)).sum())
            lead = honest.shape[:2]
            moved = np.empty(lead + (moves, q, k_data + 1), dtype=np.uint8)
            moved[..., :k_data] = (honest[:, :, None] ^ offsets)[:, :, :, None]
            moved[..., k_data] = np.arange(q)  # the junk's hash symbol
            moved = moved.reshape(lead + (-1, 1, k_data + 1))
            misses += int(missed(kept[x : x + 16] ^ mul[column, moved]).sum())
    return Fraction(misses, len(X) * len(C) * G * len(junk) * moves)


# (w, reduction polynomial, G, k_data) of the exact oracle, at hash_k =
# k_data and s = 1, and the miss probability it gives.  GF(4) enumerates
# 256 payloads x 180 mixings x 2 victims x 88 junk rows, about 8.1e6 cases.
ORACLE_SHAPES = {
    "GF(4), G=2": ((2, 0b111, 2, 2), Fraction(3, 20)),  # bound 3/4
    "GF(8), G=1": ((3, 0b1011, 1, 2), Fraction(1, 8)),  # bound 3/8
}


@pytest.mark.parametrize("case", sorted(ORACLE_SHAPES))
def test_miss_rate_matches_the_exact_blind_miss_probability(case):
    # The exact miss probability obeys ((k+1)/q)^s, and the estimator,
    # which shares no code with the oracle, measures it.
    (w, poly, G, k_data), pinned = ORACLE_SHAPES[case]
    exact = _exact_blind_miss(w, poly, G, k_data)
    assert exact == pinned
    trials = 20_000
    rep = estimate_hash_miss_rate(binary_field(w), G=G, k_data=k_data,
                                  hash_k=k_data, s=1, trials=trials, seed=9)
    assert 0 < exact <= rep.bound == (k_data + 1) / (1 << w)
    lo, hi = _binomial_region(trials, float(exact), alpha=1e-9)
    assert lo <= rep.misses <= hi


# Group bits, group order and coding-field dtype per seed.  Seed 9 draws P
# above 3_037_000_499, whose int64 products overflow int64 and are formed
# in uint64; seed 3's 36-bit P lies above 2^32, so its symbols run on the
# object-dtype path; seed 2's 65-bit P lies above 2^64, where numpy's
# integers cannot draw its coefficients, keys or corruptions.
SIGNATURE_PATHS = {
    1: (32, 33, 2252690339, np.int64),
    2: (65, 80, 23952933804538818917, object),
    3: (36, 37, 54153538871, object),
    9: (32, 33, 4043322011, np.int64),
}


@pytest.mark.parametrize("seed", sorted(SIGNATURE_PATHS))
def test_signature_error_counts_small(seed, monkeypatch):
    bits_p, bits_q, order, dtype = SIGNATURE_PATHS[seed]
    verified = []

    def checking_verify(W, key):
        verdicts = sig_verify_batch(W, key)
        # Every verdict is the scalar reference's, row by row.
        assert verdicts.tolist() == [sig_verify(w, key) for w in W]
        verified.append(np.shape(W))
        return verdicts

    monkeypatch.setattr(sim, "sig_verify_batch", checking_verify)
    rep = signature_error_counts(accept_trials=500, reject_trials=200, seed=seed,
                                 bits_p=bits_p, bits_q=bits_q)
    assert rep.group_order == order
    assert prime_field(order).dtype == dtype
    # Every vector is verified, one batch per side.
    assert verified == [(500, 8), (200, 8)]
    assert rep.false_rejects == 0
    assert rep.false_accepts == 0
    assert rep.group_order.bit_length() == bits_p


@pytest.mark.parametrize("trials", [(-1, 10), (10, -1), (10.0, 1), (1, 10.0)])
def test_signature_error_counts_rejects_negative_trials(trials, monkeypatch):
    # The check comes before any draw: no group is searched.  A count
    # that is not an integer raises TypeError naming it.
    monkeypatch.setattr(sim, "make_group", None)
    error, match = ValueError, "must be >= 0"
    if float in map(type, trials):
        name = "accept_trials" if type(trials[0]) is float else "reject_trials"
        error, match = TypeError, f"^{name} must be an integer, got 10.0"
    with pytest.raises(error, match=match):
        signature_error_counts(*trials, seed=1)


def _signature_draws_digest(seed, monkeypatch):
    """sha256 of every matrix signature_error_counts verifies, and its key."""
    h = hashlib.sha256()

    def spy(W, key):
        h.update(repr((np.shape(W), [int(v) for v in np.ravel(W)])).encode())
        h.update(repr(key.h_vec).encode())
        return sig_verify_batch(W, key)

    monkeypatch.setattr(sim, "sig_verify_batch", spy)
    signature_error_counts(accept_trials=50, reject_trials=30, seed=seed)
    return h.hexdigest()


# The report's counts are 0 under any draw order, so these pins are what
# shows a moved coefficient, corruption or key draw.
SIGNATURE_DRAWS_GOLDEN = {
    1: "d9638b665d28311f41fb6a2bcf08fbdce08aa3ff4830b1b1dafe70aaad82e2d0",
    2: "8c6c32fd203c814a6ae5b48eb8187764e440f3300290b4a6606e39468ee02eaf",
}


@pytest.mark.parametrize("seed", sorted(SIGNATURE_DRAWS_GOLDEN))
def test_signature_draws_golden(seed, monkeypatch):
    assert _signature_draws_digest(seed, monkeypatch) == SIGNATURE_DRAWS_GOLDEN[seed]


def test_packet_filter_soundness_with_signature():
    # Packet-mode forwarding rule realized with the real verifier: every
    # forwarded packet must be a member of the source span.
    group = make_group(32, 33, rng=np.random.default_rng(10))
    f = prime_field(group.order)
    rng = np.random.default_rng(11)
    gen = make_generation(f.random_elements(rng, (4, 4)), f)
    key = sig_keygen(gen, group, rng)
    _, stream = random_combinations(f, gen.source_wire_rows(), 300, rng)
    stream[:, 4:], corrupted = corrupt_stream_with_rng(
        stream[:, 4:], f, 4, 0.3, np.random.default_rng(12))
    forwarded = np.array([sig_verify(w, key) for w in stream])
    assert oracle_verify(stream[forwarded], gen).all()
    assert corrupted[~forwarded].all()
    assert corrupted.any() and forwarded.any()


# -- relay scenario -----------------------------------------------------------


def test_relay_clean_run_decodes_everywhere():
    rep = simulate_relay(G=8, p_per_edge={}, seed=13, trials=40)
    for t in rep.trials:
        for node in ("B", "C", "D", "E", "F"):
            assert Verdict.CORRUPTED not in t.verdicts[node]
        assert t.f_clean
        assert t.first_flag is None
    decodable = [t for t in rep.trials if t.f_decodable]
    assert len(decodable) > 30  # singular mixing draws are the only losses
    assert all(t.f_matches_source for t in decodable)


def test_relay_flags_at_first_honest_checkpoint():
    rep = simulate_relay(G=8, p_per_edge={"A-B": 0.25}, seed=14, trials=150)
    hit = rep.trials_with_corruption("A-B")
    assert hit
    assert rep.flag_rate("B", hit) >= 0.98
    for t in hit:
        assert t.first_flag == "B"
        assert t.f_clean  # pollution never reaches the sink
    # C's path is untouched
    assert rep.flag_rate("C") == 0.0


def test_relay_corruption_below_d_only_visible_downstream():
    rep = simulate_relay(G=8, p_per_edge={"D-F": 1.0}, seed=15, trials=30)
    for t in rep.trials:
        assert t.verdicts["B"] == t.verdicts["C"] == (Verdict.VALID,)
        assert Verdict.CORRUPTED not in t.verdicts["D"]
        assert Verdict.CORRUPTED not in t.verdicts["E"]
    flagged = [t for t in rep.trials if t.first_flag == "F"]
    assert len(flagged) >= 28  # F is the first node able to notice


def test_relay_conservation_of_packets_at_sink():
    rep = simulate_relay(G=8, p_per_edge={"A-B": 0.3, "C-D": 0.2}, seed=16,
                         trials=60)
    for t in rep.trials:
        assert t.f_received == t.forwarded["D"] + t.forwarded["E"]


def test_relay_reencode_taints_combinations_of_wrongly_solved_rows():
    # A hash-consistent forgery of source row 0 passes the node's check,
    # so the node solves row 0 wrongly; every re-encoded combination that
    # gives row 0 a nonzero coefficient is tainted, and only those.
    f = binary_field(3)
    hp = HashParams(k=4, field=f)
    rng = np.random.default_rng(31)
    gen = make_generation(f.random_elements(rng, (8, 4)), f, hp)
    src = gen.source_wire_rows()
    rows = src[:2].copy()
    rows[:1, 8:12] = rewrite_rows(f, rows[:1, 8:12], 4, "random-symbol", rng)
    rows[:1, 12:] = gen_hash_append(rows[:1, 8:12], hp)
    # One trial's stream of 8 slots: the first 2 sent, row 0 tainted, the
    # rest zero.
    slots = np.zeros((1, 8, rows.shape[1]), dtype=f.dtype)
    slots[0, :2] = rows
    stream = (slots, np.arange(8)[None] < 2, np.arange(8)[None] < 1)
    check = subspan_consistency_batch(slots, 8, hp)
    assert check[0][0] is Verdict.VALID and check[3].tolist() == [2]
    ((mixed, present, taint),) = sim._forward(f, stream, check, src[None],
                                               [range(8)], [rng])
    mixed, taint = mixed[0], taint[0]
    assert present.all() and len(mixed) == 8 and 0 < taint.sum() < 8
    assert np.array_equal(taint, mixed[:, 0] != 0)
    assert not oracle_verify(mixed[taint], gen).any()
    assert oracle_verify(mixed[~taint], gen).all()


# Cases for the trial-by-trial oracle: every G the relay takes, with
# pollution on one edge, on every edge, certain on every edge and nowhere.
_RELAY_ORACLE_EDGES = {
    "A-B": [({"A-B": 0.2}, seed) for seed in (1, 303, DEFAULT_SEED)],
    "all-0.3": [({e: 0.3 for e in RELAY_EDGES}, 7)],
    "all-1.0": [({e: 1.0 for e in RELAY_EDGES}, 8)],
    "none": [({}, 9)],
}
RELAY_ORACLE_CASES = {
    f"G={G}-{name}-seed{seed}": dict(G=G, p_per_edge=edges, seed=seed,
                                     trials=40 if G == 8 else 15)
    for G in (4, 8, 12, 16)
    for name, runs in _RELAY_ORACLE_EDGES.items()
    for edges, seed in runs
}
RELAY_ORACLE_CASES.update({
    "GF(2^3)-k4": dict(G=4, p_per_edge={e: 0.3 for e in RELAY_EDGES}, seed=10,
                       trials=60, field=binary_field(3), hash_k=4),
    "GF(2^16)": dict(G=8, p_per_edge={e: 0.3 for e in RELAY_EDGES}, seed=11,
                     trials=15, field=binary_field(16)),
    "GF(257)": dict(G=8, p_per_edge={e: 0.3 for e in RELAY_EDGES}, seed=12,
                    trials=15, field=prime_field(257)),
    "GF(prime > 2^32)": dict(G=8, p_per_edge={e: 0.3 for e in RELAY_EDGES}, seed=13,
                             trials=8, field=prime_field(PRIME_ABOVE)),
    "one-trial": dict(G=8, p_per_edge={"A-B": 0.2}, seed=DEFAULT_SEED, trials=1),
})


@pytest.mark.parametrize("case", RELAY_ORACLE_CASES)
def test_relay_matches_the_trial_by_trial_oracle(case):
    kwargs = RELAY_ORACLE_CASES[case]
    got = simulate_relay(**kwargs)
    want = simulate_relay_reference(**kwargs)
    assert got.p_per_edge == want.p_per_edge and got.G == want.G
    assert len(got.trials) == len(want.trials) == kwargs["trials"]
    for t, (a, b) in enumerate(zip(got.trials, want.trials)):
        assert dataclasses.asdict(a) == dataclasses.asdict(b), t
        for node, verdicts in a.verdicts.items():
            assert all(type(v) is Verdict for v in verdicts), (t, node)


def test_relay_requires_divisible_g():
    with pytest.raises(ValueError):
        simulate_relay(G=6, p_per_edge={}, seed=0)


@pytest.mark.parametrize("G", [0, -4])
def test_relay_requires_a_positive_g(G):
    with pytest.raises(ValueError, match="G must be a positive multiple of 4"):
        simulate_relay(G=G, p_per_edge={}, seed=0)


def test_relay_requires_a_trial():
    with pytest.raises(ValueError, match="trials"):
        simulate_relay(G=8, p_per_edge={}, seed=0, trials=0)
    # Counts that are not integers raise TypeError naming them.
    for name, value in (("G", 8.0), ("trials", 2.0), ("hash_k", 16.0)):
        with pytest.raises(TypeError, match=f"^{name} must be an integer"):
            simulate_relay(**{"G": 8, "p_per_edge": {}, "seed": 0, name: value})


def test_relay_edge_name_validation():
    with pytest.raises(ValueError):
        simulate_relay(G=8, p_per_edge={"A-F": 0.1}, seed=0)
    with pytest.raises(ValueError):
        simulate_relay(G=8, p_per_edge={"A-B": 1.4}, seed=0)
    with pytest.raises(ValueError, match="unknown edge"):
        simulate_relay(G=8, p_per_edge={("A", "B"): 0.5}, seed=0)
    # Names are case-insensitive: fig2 --edge-p passes user text.
    rep = simulate_relay(G=8, p_per_edge={"a-b": 0.5}, seed=17, trials=5)
    assert rep.p_per_edge["A-B"] == 0.5
    assert set(rep.p_per_edge) == set(RELAY_EDGES)


def test_relay_summary_shape():
    rep = simulate_relay(G=8, p_per_edge={"A-B": 0.2}, seed=18, trials=20)
    s = rep.summary()
    assert s["trials"] == 20
    assert 0.0 <= s["flag_rate_B"] <= 1.0
    assert 0.0 <= s["f_clean_rate"] <= 1.0


# Digests of whole relay runs, pinned so that a moved draw fails here;
# edges without hits are left out of "hits".
_ALL_EDGES = {e: 0.3 for e in RELAY_EDGES}
RELAY_GOLDEN = {
    "seed-1": (
        dict(G=8, p_per_edge={"A-B": 0.2}, seed=1, trials=200),
        {"verdicts": {"B": {"corrupted": 131, "inconclusive": 1, "valid": 68},
                      "C": {"inconclusive": 2, "valid": 198},
                      "D": {"inconclusive": 5, "valid": 264},
                      "E": {"inconclusive": 4, "valid": 265},
                      "F": {"inconclusive": 7, "valid": 193}},
         "hits": {"A-B": 186},
         "first_flag": {"B": 131, "None": 69},
         "sums": {"f_decodable": 65, "f_clean": 200, "f_matches_source": 65,
                  "forwarded": 1076, "f_received": 1076}},
    ),
    "seed-303": (
        dict(G=8, p_per_edge={"A-B": 0.2}, seed=303, trials=200),
        {"verdicts": {"B": {"corrupted": 116, "valid": 84},
                      "C": {"valid": 200},
                      "D": {"valid": 284},
                      "E": {"inconclusive": 2, "valid": 282},
                      "F": {"inconclusive": 5, "valid": 195}},
         "hits": {"A-B": 161},
         "first_flag": {"B": 116, "None": 84},
         "sums": {"f_decodable": 84, "f_clean": 200, "f_matches_source": 84,
                  "forwarded": 1136, "f_received": 1136}},
    ),
    "default-seed": (
        dict(G=8, p_per_edge={"A-B": 0.2}, seed=DEFAULT_SEED, trials=200),
        {"verdicts": {"B": {"corrupted": 116, "inconclusive": 1, "valid": 83},
                      "C": {"valid": 200},
                      "D": {"inconclusive": 3, "valid": 281},
                      "E": {"inconclusive": 4, "valid": 280},
                      "F": {"inconclusive": 7, "valid": 193}},
         "hits": {"A-B": 150},
         "first_flag": {"B": 116, "None": 84},
         "sums": {"f_decodable": 79, "f_clean": 200, "f_matches_source": 79,
                  "forwarded": 1136, "f_received": 1136}},
    ),
    "all-edges": (
        dict(G=8, p_per_edge=_ALL_EDGES, seed=DEFAULT_SEED, trials=200),
        {"verdicts": {"B": {"corrupted": 154, "valid": 46},
                      "C": {"corrupted": 143, "valid": 57},
                      "D": {"corrupted": 56, "inconclusive": 1, "valid": 46},
                      "E": {"corrupted": 48, "valid": 55},
                      "F": {"corrupted": 47, "inconclusive": 1, "valid": 152}},
         "hits": {"A-B": 228, "A-C": 228, "B-D": 32, "B-E": 29, "C-D": 30,
                  "C-E": 30, "D-F": 28, "E-F": 39},
         "first_flag": {"B": 154, "C": 31, "D": 13, "E": 2},
         "sums": {"f_decodable": 0, "f_clean": 152, "f_matches_source": 0,
                  "forwarded": 204, "f_received": 204}},
    ),
    "GF(2^3)": (
        dict(G=4, p_per_edge=_ALL_EDGES, seed=DEFAULT_SEED, trials=200,
             field=binary_field(3), hash_k=4),
        {"verdicts": {"B": {"corrupted": 92, "inconclusive": 12, "valid": 96},
                      "C": {"corrupted": 97, "inconclusive": 6, "valid": 97},
                      "D": {"corrupted": 48, "inconclusive": 17, "valid": 141},
                      "E": {"corrupted": 62, "inconclusive": 16, "valid": 130},
                      "F": {"corrupted": 69, "inconclusive": 7, "valid": 124}},
         "hits": {"A-B": 113, "A-C": 112, "B-D": 22, "B-E": 29, "C-D": 31,
                  "C-E": 36, "D-F": 41, "E-F": 35},
         "first_flag": {"B": 92, "C": 56, "D": 22, "E": 13, "F": 11, "None": 6},
         "sums": {"f_decodable": 2, "f_clean": 127, "f_matches_source": 0,
                  "forwarded": 266, "f_received": 266}},
    ),
}


def _relay_digest(rep):
    trials = rep.trials
    return {
        "verdicts": {node: dict(Counter(str(v) for t in trials for v in t.verdicts[node]))
                     for node in RELAY_NODES[1:]},
        "hits": {e: n for e in RELAY_EDGES
                 if (n := sum(t.edge_corrupted[e] for t in trials))},
        "first_flag": dict(Counter(str(t.first_flag) for t in trials)),
        "sums": {
            "f_decodable": sum(t.f_decodable for t in trials),
            "f_clean": sum(t.f_clean for t in trials),
            "f_matches_source": sum(bool(t.f_matches_source) for t in trials),
            "forwarded": sum(t.forwarded["D"] + t.forwarded["E"] for t in trials),
            "f_received": sum(t.f_received for t in trials),
        },
    }


@pytest.mark.parametrize("case", RELAY_GOLDEN)
def test_relay_golden(case):
    kwargs, digest = RELAY_GOLDEN[case]
    assert _relay_digest(simulate_relay(**kwargs)) == digest
