"""What the benchmark under benchmarks/ reads from the library.

The traced run rebinds every name in spans.TARGETS and counts at its
hooks, and the relay workload reads verdicts as strings.  A rename in the
library, or a call shape a hook cannot read, would otherwise show only
when the benchmark runs; these tests only read benchmarks/ and change
nothing there.
"""

import importlib.util
from pathlib import Path

import pytest

from ncdetect import rlnc, sim
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


# Each workload's entry point at tiny sizes, by workload.
_TRACED_CALLS = {
    "missrate-GF(2^7)": lambda: sim.estimate_hash_miss_rate(
        binary_field(7), G=4, k_data=8, hash_k=8, s=2, trials=20, seed=5),
    "missrate-GF(2^16)": lambda: sim.estimate_hash_miss_rate(
        binary_field(16), G=4, k_data=8, hash_k=8, s=2, trials=20, seed=5),
    "signature": lambda: sim.signature_error_counts(
        accept_trials=10, reject_trials=10, seed=1),
    "relay": lambda: sim.simulate_relay(
        G=8, p_per_edge={e: 0.5 for e in sim.RELAY_EDGES}, seed=2, trials=10),
}


@pytest.mark.parametrize("name", _TRACED_CALLS)
def test_traced_entry_points_run_and_match_the_untraced_run(name):
    # A tracer hook that cannot read a call's arguments or result raises
    # inside the library call; this catches it before a traced benchmark run.
    call = _TRACED_CALLS[name]
    untraced = call()
    tracer = _spans().Tracer()
    tracer.install()
    try:
        traced = call()
    finally:
        tracer.uninstall()
    assert traced == untraced
    entry_calls = [n for prefix, n in zip(tracer.names, tracer.calls)
                   if prefix.startswith("sim.")]
    assert sorted(entry_calls) == [0, 0, 1]
