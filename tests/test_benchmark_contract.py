"""What the benchmark under benchmarks/ reads from the library.

The traced run rebinds every name in spans.TARGETS and counts at its
hooks, and the relay workload reads verdicts as strings.  A rename in the
library, or a call shape a hook cannot read, would otherwise show only
when the benchmark runs; these tests only read benchmarks/ and change
nothing there.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from ncdetect import adversary, rlnc, sim
from ncdetect.algebra import binary_field
from ncdetect.detect import Verdict

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_installs_on_every_target_and_uninstalls():
    spans = _spans()
    decode = rlnc.decode
    tracer = spans.Tracer()
    tracer.install()  # a missing TARGETS name raises here
    try:
        assert rlnc.decode is not decode
        sim.simulate_relay(G=8, p_per_edge={"A-B": 1.0}, seed=3, trials=2)
    finally:
        tracer.uninstall()
    assert rlnc.decode is decode
    calls = dict(zip(tracer.names, tracer.calls))
    assert calls["sim.simulate_relay"] == 1 and calls["detect.subspan_consistency"] > 0
    assert tracer.counts["detect.verdict.corrupted"] > 0


def test_relay_verdicts_read_as_the_workload_strings():
    rep = sim.simulate_relay(G=8, p_per_edge={"A-B": 1.0}, seed=3, trials=4)
    for t in rep.trials:
        assert Verdict.CORRUPTED.value in t.verdicts["B"]
        for node, verdicts in t.verdicts.items():
            for v in verdicts:
                assert f"{v}" == v.value
                assert f"verdict.{node}.{v}" == f"verdict.{node}.{v.value}"


GF16 = binary_field(4)
# A G = 4 generation over GF(2^4): its source wire rows (I | S) and S.
_GEN = rlnc.make_generation(np.arange(12).reshape(4, 3), GF16)


def _decode(rows):
    """rlnc.decode's rows, or the rank it reports when they fall short."""
    try:
        return rlnc.decode(GF16, rows, 4).tolist()
    except rlnc.NotDecodable as exc:
        return exc.rank


def _blind_forge():
    rows, hit = adversary.blind_forge_with_rng(
        _GEN.source_rows(), GF16, 3, 2, np.random.default_rng(5))
    return rows.tolist(), hit.tolist()


# Each workload's entry point at tiny sizes, by workload, and the row
# functions whose hooks the workloads reach, each with the traced name it
# must call once.
_TRACED_CALLS = {
    "missrate-GF(2^7)": (
        "sim.estimate_hash_miss_rate",
        lambda: sim.estimate_hash_miss_rate(
            binary_field(7), G=4, k_data=8, hash_k=8, s=2, trials=20, seed=5)),
    "missrate-GF(2^16)": (
        "sim.estimate_hash_miss_rate",
        lambda: sim.estimate_hash_miss_rate(
            binary_field(16), G=4, k_data=8, hash_k=8, s=2, trials=20, seed=5)),
    "signature": (
        "sim.signature_error_counts",
        lambda: sim.signature_error_counts(accept_trials=10, reject_trials=10, seed=1)),
    "relay": (
        "sim.simulate_relay",
        lambda: sim.simulate_relay(
            G=8, p_per_edge={e: 0.5 for e in sim.RELAY_EDGES}, seed=2, trials=10)),
    "decode-full-rank": ("rlnc.decode", lambda: _decode(_GEN.source_wire_rows())),
    "decode-short": ("rlnc.decode", lambda: _decode(_GEN.source_wire_rows()[:3])),
    "blind-forge": ("adversary.blind_forge_with_rng", _blind_forge),
}


@pytest.mark.parametrize("name", _TRACED_CALLS)
def test_traced_entry_points_run_and_match_the_untraced_run(name):
    # A tracer hook that cannot read a call's arguments or result raises
    # inside the library call; this catches it before a traced benchmark run.
    entry, call = _TRACED_CALLS[name]
    untraced = call()
    tracer = _spans().Tracer()
    tracer.install()
    try:
        traced = call()
    finally:
        tracer.uninstall()
    assert traced == untraced
    calls = dict(zip(tracer.names, tracer.calls))
    assert calls[entry] == 1
    sim_calls = sum(n for prefix, n in calls.items() if prefix.startswith("sim."))
    assert sim_calls == entry.startswith("sim.")
    if name == "decode-short":
        assert untraced == 3
        assert tracer.counts["rlnc.decode.not_decodable"] == 1
