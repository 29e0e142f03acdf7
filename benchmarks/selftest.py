#!/usr/bin/env python3
"""Self-test of the benchmark; run from the repository root:

    python3 benchmarks/selftest.py

1. A tiny-size smoke run of every workload, untraced and traced, must
   report exactly the metrics BENCHMARK.json names, each with its unit.
2. Each workload's correctness gate must fail on a fabricated wrong
   outcome, and a run fed one must report ``correct: false``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from collections import Counter

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def smoke(WORKLOADS, TINY) -> None:
    expected = {
        0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
        1: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
    }
    setup = {"import": 0.0, "build": 0.0, "warmup": 0.0}
    listed = {w["name"] for w in SPEC["workloads"]}
    assert listed == set(WORKLOADS), (listed, sorted(WORKLOADS))
    for name, cls in WORKLOADS.items():
        for trace in (0, 1):
            wl = cls(TINY[name])
            wl.prepare()
            wl.warm_up()
            with contextlib.redirect_stdout(io.StringIO()):
                result = run.execute(wl, seed=1, seconds=0.2, trace=bool(trace),
                                     setup=setup, probes=1)
            assert result["correct"], (name, trace, result)
            assert result["attempted"] >= 1 and result["failed"] == 0, result
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == expected[trace], (name, trace, set(got) ^ set(expected[trace]))
            for key, metric in result["metrics"].items():
                assert isinstance(metric["value"], (int, float)), (name, key)
            print(f"ok  smoke {name} trace={trace}: {len(got)} metrics")


# One fabricated wrong outcome per workload, as the totals of a run.
WRONG = {
    "hashbound": Counter({"k50.trials": 100, "k50.misses": 2,
                          "k100.trials": 100, "k100.misses": 0}),
    "wide16": Counter({"k1000.trials": 100, "k1000.misses": 1}),
    "relay": Counter({"ab_polluted": 100, "ab_polluted_flagged_at_B": 100,
                      "filtered": 100, "filtered_clean_sink": 99}),
    "signature": Counter({"accept_trials": 10, "reject_trials": 1,
                          "false_accepts": 1}),
}


def gates(WORKLOADS, TINY, Outcome) -> None:
    for name, cls in WORKLOADS.items():
        wl = cls(TINY[name])
        assert wl.gate(WRONG[name]), f"{name}: gate passed a wrong outcome"
        # The same through a whole run: every call reports the wrong totals.
        wl.prepare()
        wl.call = lambda index, seed, c=WRONG[name]: Outcome(
            trials=1, wrong=1, counts=Counter(c))
        with contextlib.redirect_stdout(io.StringIO()):
            result = run.execute(wl, seed=1, seconds=0.05, trace=False,
                                 setup={}, probes=1)
        assert not result["correct"] and result["failed"] > 0, (name, result)
        print(f"ok  gate {name} rejects a fabricated wrong outcome")


def main() -> int:
    run.import_ncdetect()
    from workloads import TINY, WORKLOADS, Outcome

    smoke(WORKLOADS, TINY)
    gates(WORKLOADS, TINY, Outcome)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
