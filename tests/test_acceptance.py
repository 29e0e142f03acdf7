"""End-to-end acceptance criteria at their pinned tolerances.

Each test runs one criterion and prints its pass/fail line; `ncdetect
validate` drives the same suite from the command line.
"""

import math

import numpy as np
import pytest

from ncdetect import acceptance


# Each criterion's line at DEFAULT_SEED, so that a draw that moves in a
# criterion fails here even when the criterion still passes.
LINES = {
    "crossover": (
        "PASS  crossover: measured p=0.03, curve gap 0.00e+00; expected p = "
        "0.03 exactly (tol 1e-12)"
    ),
    "peak": (
        "PASS  peak: measured p*=0.197258, grid argmax 0.1973; expected p* "
        "in [0.15, 0.25], |p* - argmax| <= 1e-4"
    ),
    "asymptote": (
        "PASS  asymptote: measured max |ratio@G=500 - max(0,1-2p)| = "
        "4.00e-05; expected < 1e-3 at p in {0.1, 0.2, 0.3, 0.45}"
    ),
    "drop": (
        "PASS  drop: measured 0.394857 over 1e6 generations; expected "
        "0.394994 +- 0.001467 (3 sigma)"
    ),
    "grid": (
        "PASS  grid: measured worst |empirical-analytic| = 0.00505, 0 "
        "points out of tolerance; expected every point within max(3*stderr, "
        "0.005)"
    ),
    "hashbound": (
        "PASS  hashbound: measured miss 0.0000 (k=50, log q=7), 0.0000 "
        "(k=100, log q=8); expected miss <= 0.011 resp. 0.010 over 1e4 "
        "forged generations"
    ),
    "signature": (
        "PASS  signature: measured 0 rejects of 100000 valid, 0 accepts of "
        "10000 corrupted, P ~ 2^32; expected 0 false rejects, 0 false "
        "accepts, P >= 2^31"
    ),
    "roundtrip": (
        "PASS  roundtrip: measured 0 mismatches in 1000 instances (124 "
        "rank-deficient, 124 agreed); expected decode == reference "
        "eliminator == source on every instance"
    ),
    "relay": (
        "PASS  relay: measured B flagged 1.000 of 627 polluted "
        "sub-generations; sink clean in 627/627 filtered trials; expected B "
        "flag rate >= 0.98 and sink clean whenever filtering fired"
    ),
}


def _run(name):
    result = acceptance.CRITERIA[name](acceptance.DEFAULT_SEED)
    print(result.line())
    assert result.passed, result.line()
    assert result.line() == LINES[name]
    return result


def test_criterion_crossover_exact():
    # EC and packet curves meet at h_p/2n = 0.03, exactly.
    _run("crossover")


def test_criterion_peak_location():
    # Overhead peak near p ~ 0.2 at G = 5, equal to the grid argmax.
    _run("peak")


def test_criterion_large_generation_asymptote():
    # Fixed-hash limit max(0, 1 - 2p) reached by G = 500 within 1e-3.
    _run("asymptote")


def test_criterion_drop_probability():
    # 1e6 simulated generations at (p=0.01, G=50) vs 1 - 0.99^50.
    _run("drop")


def test_criterion_monte_carlo_grid_agreement():
    # 21-point p grid, all three schemes, 1e5 packets / 1e4 generations.
    _run("grid")


def test_criterion_hash_detection_bound():
    # Blind s=5 forgeries: miss <= 1.1% (k=50, log q=7) and <= 1.0%
    # (k=100, log q=8) over 1e4 polluted generations each.
    _run("hashbound")


def test_criterion_signature_completeness_soundness():
    # 1e5 valid combinations all accept; 1e4 corruptions all reject.
    _run("signature")


def test_criterion_rlnc_roundtrip():
    # 1e3 random instances against the independent reference eliminator.
    _run("roundtrip")


def test_roundtrip_rank_deficient_count_follows_the_rank_probability(monkeypatch):
    # Every short trial (G - 1 rows) is rank-deficient.  A full-size trial
    # mixes G uniform combinations and is deficient with probability
    # 1 - prod_{i=1..G} (1 - q^-i), independently, so the full-size count
    # is Poisson-binomial; accept it in an exact region of false-fail
    # probability at most 1e-9.
    seen = []  # (q, G, rows, deficient) per decoded trial
    real_decode_batch = acceptance.decode_batch

    def decode_spy(field, received, G):
        full_rank, rows = real_decode_batch(field, received, G)
        assert received.shape[0] == 1
        seen.append([field.q, G, received.shape[1], not full_rank[0]])
        return full_rank, rows

    monkeypatch.setattr(acceptance, "decode_batch", decode_spy)
    assert acceptance.roundtrip(acceptance.DEFAULT_SEED).passed
    assert len(seen) == 1000
    short = [d for q, G, rows, d in seen if rows == G - 1]
    full = [(q, G, d) for q, G, rows, d in seen if rows == G]
    assert len(short) + len(full) == 1000
    assert short and all(short)
    pmf = np.ones(1)  # exact pmf of the full-size deficient count
    for q, G, _ in full:
        p = 1 - math.prod(1 - q ** -i for i in range(1, G + 1))
        pmf = np.append(pmf * (1 - p), 0) + np.append(0, pmf * p)
    below, above = np.cumsum(pmf), np.cumsum(pmf[::-1])[::-1]
    lo = int(np.argmax(below > 0.5e-9))  # P(X < lo) <= 1e-9 / 2
    hi = int(np.flatnonzero(above > 0.5e-9)[-1])  # P(X > hi) <= 1e-9 / 2
    assert lo <= sum(d for _, _, d in full) <= hi


def test_criterion_relay_scenario():
    # Corruption on A-B flagged at B >= 98% and never reaches the sink.
    _run("relay")


def test_run_all_reports_every_criterion():
    results = acceptance.run_all(["crossover", "asymptote"])
    assert [r.name for r in results] == ["crossover", "asymptote"]
    assert all(r.passed for r in results)
    with pytest.raises(ValueError):
        acceptance.run_all(["bogus"])
