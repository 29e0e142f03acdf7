"""What the benchmark under benchmarks/ reads from the library.

The traced run rebinds every name in spans.TARGETS, and the relay
workload reads verdicts as strings.  A rename in the library would
otherwise show only when the benchmark runs; these tests only read
benchmarks/ and change nothing there.
"""

import importlib.util
from pathlib import Path

from ncdetect import rlnc, sim
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
