"""Closed-form overhead model: reference values, shapes and limits."""

import math

import numpy as np
import pytest

from ncdetect import analytic
from ncdetect.analytic import (
    OverheadPoint,
    SchemeParams,
    crossover_ec_vs_packet,
    drop_probability,
    generation_limit,
    goodput_fraction_generation,
    goodput_fraction_packet,
    overhead_error_correction,
    overhead_for,
    overhead_generation,
    overhead_packet,
    peak_attack_probability,
)


def generation_ratio_oracle(p, n, G, h_g):
    """Test-local numpy evaluation of the generation-scheme ratio."""
    p = np.asarray(p, dtype=float)
    p_g = 1.0 - (1.0 - p) ** G
    raw = (h_g + p_g * (1.0 - p) * n * G - p * n * G) / (n * G)
    return np.clip(raw, 0.0, 1.0)


def test_error_correction_is_identity():
    assert overhead_error_correction(0.0) == 0.0
    assert overhead_error_correction(0.03) == 0.03
    assert overhead_error_correction(0.5) == 0.5
    with pytest.raises(ValueError):
        overhead_error_correction(1.2)


def test_packet_scheme_values():
    assert overhead_packet(0.0, 1000, 60) == pytest.approx(0.06)
    assert overhead_packet(0.06, 1000, 60) == 0.0  # cost fully canceled
    assert overhead_packet(0.5, 1000, 60) == 0.0
    assert overhead_packet(0.02, 1000, 60) == pytest.approx(0.04)


def test_packet_scheme_monte_carlo_oracle():
    # Independent accounting run: h_p bits paid per received packet, n
    # bits saved per dropped corrupted packet, expectation clamped.
    rng = np.random.default_rng(0)
    n_pkts = 100_000
    bad = (rng.random(n_pkts) < 0.02).sum()
    ratio = max(0.0, n_pkts * 60 - bad * 1000) / (n_pkts * 1000)
    assert ratio == pytest.approx(overhead_packet(0.02, 1000, 60), abs=0.002)


def test_generation_scheme_values():
    params = SchemeParams.defaults(p=0.0)
    assert overhead_generation(0.0, params.n, params.G, params.h_g) == pytest.approx(0.02)
    assert overhead_generation(1.0, params.n, params.G, params.h_g) == 0.0


def test_generation_reduces_to_packet_form_at_g1():
    # At G=1 with h_g = h_p the expression collapses to
    # max(0, h_p - p^2 n)/n: the only difference from the packet scheme
    # is p^2 (saved bits are only counted when the sole packet is bad).
    n, h = 1000.0, 60.0
    for p in np.linspace(0.0, 1.0, 101):
        got = overhead_generation(float(p), n, 1, h)
        assert got == pytest.approx(max(0.0, h - p * p * n) / n, abs=1e-12)


def test_drop_probability_values():
    assert drop_probability(0.3, 1) == pytest.approx(0.3)
    assert drop_probability(0.0, 50) == 0.0
    # direct product: 1 - 0.99^50
    expect = 1.0 - 0.99**50
    assert expect == pytest.approx(0.39499, abs=5e-6)
    assert drop_probability(0.01, 50) == pytest.approx(expect)


def test_goodput_fractions():
    assert goodput_fraction_packet(1000, 0) == 1.0
    assert goodput_fraction_packet(1000, 1000) == 0.0
    assert goodput_fraction_packet(1000, 60) == pytest.approx(0.94)
    assert goodput_fraction_generation(1000, 10, 0) == 1.0
    assert goodput_fraction_generation(1000, 10, 200) == pytest.approx(0.98)
    assert goodput_fraction_generation(1000, 10_000, 200) == pytest.approx(
        1.0, abs=1e-4
    )


def test_generation_limit():
    assert generation_limit(0.5) == 0.0
    assert generation_limit(0.0) == 1.0
    assert generation_limit(0.1) == pytest.approx(0.8)
    got = overhead_generation(0.1, 1000, 500, 20)
    assert abs(got - 0.8) < 1e-3


def test_limit_convergence_pointwise():
    for p in np.arange(0.05, 1.0, 0.05):
        got = overhead_generation(float(p), 1000, 1000, 20)
        assert abs(got - generation_limit(float(p))) < 1e-3


def test_peak_values():
    assert peak_attack_probability(1) == 0.0
    assert peak_attack_probability(5) == pytest.approx(0.197, abs=5e-4)
    assert 0.15 <= peak_attack_probability(5) <= 0.25
    assert peak_attack_probability(20) == pytest.approx(0.111, abs=5e-4)
    assert peak_attack_probability(20) < peak_attack_probability(5)


@pytest.mark.parametrize("G", list(range(2, 65)))
def test_peak_matches_grid_argmax(G):
    n = 1000.0
    h_g = 0.02 * n * G
    ps = np.linspace(0.0, 1.0, 10_001)
    grid_argmax = float(ps[np.argmax(generation_ratio_oracle(ps, n, G, h_g))])
    assert abs(peak_attack_probability(G) - grid_argmax) <= 1e-4


def test_crossover_values_and_bisection():
    assert crossover_ec_vs_packet(1000, 60) == pytest.approx(0.03, abs=1e-15)
    assert crossover_ec_vs_packet(1000, 0) == 0.0
    assert crossover_ec_vs_packet(1000, 100) == pytest.approx(0.05)
    # bisection on the difference of the two curves
    lo, hi = 1e-9, 0.06
    diff = lambda p: overhead_error_correction(p) - overhead_packet(p, 1000, 60)
    for _ in range(80):
        mid = (lo + hi) / 2
        if diff(mid) < 0:
            lo = mid
        else:
            hi = mid
    assert (lo + hi) / 2 == pytest.approx(0.03, abs=1e-9)


def test_curves_cross_exactly_once():
    n, h_p = 1000.0, 60.0
    ps = np.linspace(0.0, 1.0, 2001)
    ec = ps
    pkt = np.maximum(0.0, h_p - n * ps) / n
    signs = np.sign(ec - pkt)
    changes = np.nonzero(np.diff(signs[signs != 0]))[0]
    assert len(changes) == 1
    assert np.all(np.diff(pkt) <= 1e-15)  # nonincreasing
    assert np.all(np.diff(ec) > 0)  # increasing


def test_all_ratios_in_unit_interval():
    rng = np.random.default_rng(1)
    for _ in range(2000):
        p = float(rng.random())
        n = float(rng.integers(10, 10_000))
        G = int(rng.integers(1, 200))
        h_p = float(rng.random() * n)
        h_g = float(rng.random() * n * G)
        for val in (
            overhead_error_correction(p),
            overhead_packet(p, n, h_p),
            overhead_generation(p, n, G, h_g),
            drop_probability(p, G),
            goodput_fraction_packet(n, h_p),
            goodput_fraction_generation(n, G, h_g),
            generation_limit(p),
        ):
            assert 0.0 <= val <= 1.0


def test_scheme_params_validation():
    SchemeParams.defaults(p=0.5)
    with pytest.raises(ValueError):
        SchemeParams.defaults(p=1.5)
    with pytest.raises(ValueError):
        SchemeParams(n=1000, G=0, h_p=60, h_g=200, p=0.1)
    with pytest.raises(ValueError):
        SchemeParams(n=1000, G=10, h_p=2000, h_g=200, p=0.1)
    with pytest.raises(ValueError):
        SchemeParams(n=1000, G=10, h_p=60, h_g=-1, p=0.1)
    # A generation size that is not an integer is named, never computed with.
    for call in (lambda: SchemeParams.defaults(p=0.1, G=2.5),
                 lambda: SchemeParams(n=1000, G=10.0, h_p=60, h_g=200, p=0.1),
                 lambda: drop_probability(0.1, 2.5),
                 lambda: overhead_generation(0.1, 1000, 2.5, 200),
                 lambda: goodput_fraction_generation(1000, 2.5, 200),
                 lambda: peak_attack_probability(2.5)):
        with pytest.raises(TypeError, match="G must be an integer"):
            call()
    params = SchemeParams.defaults(p=0.1)
    assert params.h_p == pytest.approx(60)
    assert params.h_g == pytest.approx(200)
    assert params.at(0.3).p == 0.3


def test_overhead_point_and_dispatch():
    params = SchemeParams.defaults(p=0.25)
    for scheme in analytic.SCHEMES:
        pt = analytic.overhead_point(scheme, params)
        assert isinstance(pt, OverheadPoint)
        assert pt.ratio == overhead_for(scheme, params)
    with pytest.raises(ValueError):
        overhead_for("parity", params)
    with pytest.raises(ValueError):
        OverheadPoint(scheme="packet", params=params, ratio=1.4)
