"""End-to-end validation suite.

Each criterion checks one quantitative claim of the overhead model or of
the detection machinery at a pinned tolerance, using an oracle that is
independent of the code path under test (closed forms against grid
search, decoders against a self-contained reference eliminator, analytic
ratios against seeded Monte Carlo).  ``run_all`` executes them and is
what both the test suite and the command-line ``validate`` subcommand
drive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analytic
from .algebra import binary_field, prime_field
from .analytic import SchemeParams
from .rlnc import (
    NotDecodable,
    decode,
    make_generation,
    random_combinations,
)
from .sim import (
    compare_grid,
    estimate_hash_miss_rate,
    signature_error_counts,
    simulate_node,
    simulate_relay,
)

DEFAULT_SEED = 1234567


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    measured: str
    expected: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}: measured {self.measured}; expected {self.expected}"


def crossover(seed: int = DEFAULT_SEED) -> CriterionResult:
    """EC and packet curves intersect exactly at h_p / 2n."""
    n, h_p = 1000.0, 60.0
    p_cross = analytic.crossover_ec_vs_packet(n, h_p)
    gap = abs(
        analytic.overhead_error_correction(p_cross)
        - analytic.overhead_packet(p_cross, n, h_p)
    )
    ok = abs(p_cross - 0.03) <= 1e-12 and gap <= 1e-12
    return CriterionResult(
        name="crossover",
        passed=ok,
        measured=f"p={p_cross!r}, curve gap {gap:.2e}",
        expected="p = 0.03 exactly (tol 1e-12)",
    )


def peak(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Closed-form overhead peak matches a 1e-4-step grid search at G=5."""
    g = 5
    p_star = analytic.peak_attack_probability(g)
    n = 1000.0
    h_g = 0.02 * n * g
    ps = np.linspace(0.0, 1.0, 10_001)
    vals = [analytic.overhead_generation(float(p), n, g, h_g) for p in ps]
    p_grid = float(ps[int(np.argmax(vals))])
    ok = 0.15 <= p_star <= 0.25 and abs(p_star - p_grid) <= 1e-4
    return CriterionResult(
        name="peak",
        passed=ok,
        measured=f"p*={p_star:.6f}, grid argmax {p_grid:.4f}",
        expected="p* in [0.15, 0.25], |p* - argmax| <= 1e-4",
    )


def asymptote(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Large-G behaviour of the generation formula with the hash held fixed."""
    worst = 0.0
    for p in (0.1, 0.2, 0.3, 0.45):
        got = analytic.overhead_generation(p, 1000.0, 500, 20.0)
        worst = max(worst, abs(got - analytic.generation_limit(p)))
    return CriterionResult(
        name="asymptote",
        passed=worst < 1e-3,
        measured=f"max |ratio@G=500 - max(0,1-2p)| = {worst:.2e}",
        expected="< 1e-3 at p in {0.1, 0.2, 0.3, 0.45}",
    )


def drop(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Simulated generation-drop frequency against 1 - (1-p)^G."""
    trials = 1_000_000
    p, g = 0.01, 50
    rep = simulate_node("generation", SchemeParams.defaults(p=p, G=g), trials, seed)
    freq = rep.dropped / trials
    expect = analytic.drop_probability(p, g)
    sigma = math.sqrt(expect * (1.0 - expect) / trials)
    ok = abs(freq - expect) <= 3.0 * sigma
    return CriterionResult(
        name="drop",
        passed=ok,
        measured=f"{freq:.6f} over 1e6 generations",
        expected=f"{expect:.6f} +- {3 * sigma:.6f} (3 sigma)",
    )


def grid(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Monte Carlo agreement with all three closed forms on a 21-point grid."""
    params = SchemeParams.defaults(p=0.0)
    points = compare_grid(
        np.linspace(0.0, 1.0, 21),
        analytic.SCHEMES,
        params,
        trials={"error-correction": 100_000, "packet": 100_000,
                "generation": 10_000},
        seed=seed,
    )
    worst = 0.0
    failures = 0
    for gp in points:
        dev = abs(gp.report.overhead_ratio - gp.point.ratio)
        tol = max(3.0 * gp.report.stderr, 0.005)
        worst = max(worst, dev)
        if dev > tol:
            failures += 1
    return CriterionResult(
        name="grid",
        passed=failures == 0,
        measured=f"worst |empirical-analytic| = {worst:.5f}, {failures} points out of tolerance",
        expected="every point within max(3*stderr, 0.005)",
    )


def hashbound(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Blind s=5 forgery miss rate at the two standard hash settings."""
    r1 = estimate_hash_miss_rate(binary_field(7), G=8, k_data=50, hash_k=50,
                                 s=5, trials=10_000, seed=seed)
    r2 = estimate_hash_miss_rate(binary_field(8), G=8, k_data=100, hash_k=100,
                                 s=5, trials=10_000, seed=seed + 1)
    ok = r1.miss_rate <= 0.011 and r2.miss_rate <= 0.010
    return CriterionResult(
        name="hashbound",
        passed=ok,
        measured=(
            f"miss {r1.miss_rate:.4f} (k=50, log q=7), "
            f"{r2.miss_rate:.4f} (k=100, log q=8)"
        ),
        expected="miss <= 0.011 resp. 0.010 over 1e4 forged generations",
    )


def signature(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Signature completeness and soundness at a >= 2^31 group order."""
    rep = signature_error_counts(accept_trials=100_000, reject_trials=10_000,
                                 seed=seed)
    ok = (
        rep.false_rejects == 0
        and rep.false_accepts == 0
        and rep.group_order >= 2**31
    )
    return CriterionResult(
        name="signature",
        passed=ok,
        measured=(
            f"{rep.false_rejects} rejects of {rep.accept_trials} valid, "
            f"{rep.false_accepts} accepts of {rep.reject_trials} corrupted, "
            f"P ~ 2^{rep.group_order.bit_length()}"
        ),
        expected="0 false rejects, 0 false accepts, P >= 2^31",
    )


# -- reference eliminator for the round-trip criterion ------------------------
#
# Deliberately self-contained: its scalar arithmetic never touches
# FieldSpec (binary multiply is a carryless shift-and-xor loop, inverses
# come from a linear scan), so it is an independent witness for decode.


class _RefField:
    def __init__(self, q: int, poly: int):
        self.q = q
        self.poly = poly  # 0 for prime fields
        self.w = q.bit_length() - 1 if poly else 0

    def add(self, a, b):
        return a ^ b if self.poly else (a + b) % self.q

    def sub(self, a, b):
        return a ^ b if self.poly else (a - b) % self.q

    def mul(self, a, b):
        if not self.poly:
            return a * b % self.q
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a >> self.w:
                a ^= self.poly
        return r

    def inv(self, a):
        for b in range(1, self.q):
            if self.mul(a, b) == 1:
                return b
        raise ZeroDivisionError


def _reference_solve(ref: _RefField, rows: list[list[int]], g: int):
    """Row-reduce [C | D]; returns the solved source rows or None if rank < g."""
    m = [list(r) for r in rows]
    n_rows = len(m)
    rank = 0
    for col in range(g):
        pivot = next(
            (r for r in range(rank, n_rows) if m[r][col] != 0), None
        )
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = ref.inv(m[rank][col])
        m[rank] = [ref.mul(inv, v) for v in m[rank]]
        for r in range(n_rows):
            if r != rank and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [
                    ref.sub(v, ref.mul(factor, pv))
                    for v, pv in zip(m[r], m[rank])
                ]
        rank += 1
    if rank < g:
        return None
    return [row[g:] for row in m[:g]]


def roundtrip(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Decode of random full-rank mixtures equals a reference eliminator."""
    specs = [
        (binary_field(8), 0b100011011),
        (binary_field(7), 0b10001001),
        (binary_field(4), 0b10011),
        (prime_field(127), 0),
        (prime_field(257), 0),
    ]
    rng = np.random.default_rng(seed)
    trials = 1000
    mismatches = 0
    singular_agreed = 0
    singular_seen = 0
    for t in range(trials):
        f, poly = specs[t % len(specs)]
        ref = _RefField(f.q, poly)
        g = int(rng.choice([1, 2, 4, 8]))
        k_data = int(rng.integers(1, 9))
        gen = make_generation(f.random_elements(rng, (g, k_data)), f)
        short = t % 7 == 3 and g > 1  # exercise the erasure path too
        count = g - 1 if short else g
        _, received = random_combinations(f, gen.source_wire_rows(), count, rng)
        expected = _reference_solve(ref, received.tolist(), g)
        try:
            got = decode(f, received, g)
        except NotDecodable:
            got = None
        if expected is None or got is None:
            singular_seen += 1
            if (expected is None) == (got is None):
                singular_agreed += 1
            else:
                mismatches += 1
            continue
        truth = [[int(v) for v in row] for row in gen.source_payloads]
        got_ints = [[int(v) for v in row] for row in got]
        if got_ints != expected or got_ints != truth:
            mismatches += 1
    ok = mismatches == 0
    return CriterionResult(
        name="roundtrip",
        passed=ok,
        measured=(
            f"{mismatches} mismatches in {trials} instances "
            f"({singular_seen} rank-deficient, {singular_agreed} agreed)"
        ),
        expected="decode == reference eliminator == source on every instance",
    )


def relay(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Corruption on the A-B edge is flagged at B and never reaches F."""
    rep = simulate_relay(G=8, p_per_edge={"A-B": 0.2}, seed=seed, trials=1000)
    hit = rep.trials_with_corruption("A-B")
    b_rate = rep.flag_rate("B", hit)
    filtered = [t for t in rep.trials if t.upstream_dropped]
    clean = all(t.f_clean for t in filtered)
    ok = b_rate >= 0.98 and clean and len(hit) > 0
    return CriterionResult(
        name="relay",
        passed=ok,
        measured=(
            f"B flagged {b_rate:.3f} of {len(hit)} polluted sub-generations; "
            f"sink clean in {sum(t.f_clean for t in filtered)}/{len(filtered)} "
            "filtered trials"
        ),
        expected="B flag rate >= 0.98 and sink clean whenever filtering fired",
    )


CRITERIA = {
    "crossover": crossover,
    "peak": peak,
    "asymptote": asymptote,
    "drop": drop,
    "grid": grid,
    "hashbound": hashbound,
    "signature": signature,
    "roundtrip": roundtrip,
    "relay": relay,
}


def run_all(names=None, seed: int = DEFAULT_SEED) -> list[CriterionResult]:
    """Run the selected criteria (all by default), in declaration order."""
    selected = list(CRITERIA) if names is None else list(names)
    unknown = [n for n in selected if n not in CRITERIA]
    if unknown:
        raise ValueError(f"unknown criteria {unknown}; choose from {list(CRITERIA)}")
    return [CRITERIA[name](seed) for name in selected]
