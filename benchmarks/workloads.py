"""The benchmark's four workloads over ncdetect's public simulation API.

Each workload drives one entry point of ``ncdetect.sim`` in batches: one
call is one batch of trials, seeded from (workload seed, call index).  A
round is one call per setting (two on hashbound, which alternates the two
hash settings of its criterion; one elsewhere).  ``call`` returns the
call's outcome; ``gate`` applies the criterion's unchanged thresholds to
the outcome totals of a run.

Import this module only after ``ncdetect`` is importable.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

# Call through the modules, so the traced run's rebinding of ncdetect.*
# attributes reaches the entry points too.
from ncdetect import algebra, sim
from ncdetect.detect import Verdict


@dataclass
class Outcome:
    """One call's result: trials run, trials judged wrong, exact counts."""

    trials: int
    wrong: int
    counts: Counter = field(default_factory=Counter)


def call_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


class HashBound:
    """Blind s=5 forgery against the generation hash, both criterion settings."""

    name = "hashbound"
    calls_per_round = 2
    kernel = "small"  # reference kernel of calibrate.py
    # Baseline calls per second on a 2-core VM; sizes the traced run.
    nominal_calls_per_s = 18.0

    def __init__(self, trials_per_call: int = 32):
        self.trials_per_call = trials_per_call
        self.G, self.s = 8, 5
        # (log q, k, miss-rate limit) of the hashbound criterion.
        self.settings = ((7, 50, 0.011), (8, 100, 0.010))

    def prepare(self) -> None:
        self.fields = {w: algebra.binary_field(w) for w, _, _ in self.settings}

    def warm_up(self) -> None:
        for index in range(self.calls_per_round):
            self._run(index, trials=1, seed=0)

    def _run(self, index: int, trials: int, seed: int):
        w, k, _ = self.settings[index % len(self.settings)]
        return k, sim.estimate_hash_miss_rate(
            self.fields[w], G=self.G, k_data=k, hash_k=k, s=self.s,
            trials=trials, seed=seed,
        )

    def call(self, index: int, seed: int) -> Outcome:
        k, rep = self._run(index, self.trials_per_call, seed)
        return Outcome(
            trials=rep.trials, wrong=rep.misses,
            counts=Counter({f"k{k}.trials": rep.trials,
                            f"k{k}.misses": rep.misses,
                            f"k{k}.redraws": rep.redraws}),
        )

    def gate(self, totals: Counter) -> list[str]:
        failures = []
        for _, k, limit in self.settings:
            trials = totals[f"k{k}.trials"]
            if not trials:
                failures.append(f"k={k}: no trials run")
                continue
            rate = totals[f"k{k}.misses"] / trials
            if rate > limit:
                failures.append(f"k={k}: miss rate {rate:.4f} > {limit}")
        return failures


class Wide16(HashBound):
    """The same experiment at GF(2^16), G=32, k=1000: one large shape."""

    name = "wide16"
    calls_per_round = 1
    kernel = "wide"
    nominal_calls_per_s = 6.5

    def __init__(self, trials_per_call: int = 3):
        self.trials_per_call = trials_per_call
        self.G, self.s = 32, 5
        self.settings = ((16, 1000, None),)

    def gate(self, totals: Counter) -> list[str]:
        _, k, _ = self.settings[0]
        trials = totals[f"k{k}.trials"]
        if not trials:
            return [f"k={k}: no trials run"]
        bound = ((k + 1) / 2**16) ** self.s
        rate = totals[f"k{k}.misses"] / trials
        if rate > bound:
            return [f"k={k}: miss rate {rate:.3g} > bound ((k+1)/q)^s = {bound:.3g}"]
        return []


RELAY_NODES = ("B", "C", "D", "E", "F")


class Relay:
    """Six-node relay with pollution on the A-B edge (relay criterion)."""

    name = "relay"
    calls_per_round = 1
    kernel = "small"
    nominal_calls_per_s = 10.0

    def __init__(self, trials_per_call: int = 16):
        self.trials_per_call = trials_per_call
        self.G = 8
        self.p_per_edge = {"A-B": 0.2}

    def prepare(self) -> None:
        algebra.binary_field(8)  # the default relay field

    def warm_up(self) -> None:
        sim.simulate_relay(G=self.G, p_per_edge=self.p_per_edge, seed=0, trials=1)

    def call(self, index: int, seed: int) -> Outcome:
        rep = sim.simulate_relay(G=self.G, p_per_edge=self.p_per_edge, seed=seed,
                             trials=self.trials_per_call)
        counts = Counter()
        wrong = 0
        for t in rep.trials:
            polluted = t.edge_corrupted.get("A-B", 0) > 0
            b_flagged = Verdict.CORRUPTED.value in t.verdicts.get("B", ())
            leaked = t.upstream_dropped and not t.f_clean
            counts["trials"] += 1
            counts["ab_polluted"] += polluted
            counts["ab_polluted_flagged_at_B"] += polluted and b_flagged
            counts["filtered"] += t.upstream_dropped
            counts["filtered_clean_sink"] += t.upstream_dropped and t.f_clean
            counts["f_decodable"] += t.f_decodable
            for node in RELAY_NODES:
                for v in t.verdicts.get(node, ()):
                    counts[f"verdict.{node}.{v}"] += 1
            for edge, hits in t.edge_corrupted.items():
                counts[f"edge.{edge}"] += hits
            wrong += (polluted and not b_flagged) or leaked
        return Outcome(trials=len(rep.trials), wrong=wrong, counts=counts)

    def gate(self, totals: Counter) -> list[str]:
        failures = []
        polluted = totals["ab_polluted"]
        if not polluted:
            failures.append("no A-B-polluted trial was run")
        else:
            rate = totals["ab_polluted_flagged_at_B"] / polluted
            if rate < 0.98:
                failures.append(f"B flag rate {rate:.4f} < 0.98")
        leaked = totals["filtered"] - totals["filtered_clean_sink"]
        if leaked:
            failures.append(f"sink polluted in {leaked} filtered trials")
        return failures


class Signature:
    """Subspace-signature completeness and soundness (signature criterion)."""

    name = "signature"
    calls_per_round = 1
    kernel = "modpow"
    nominal_calls_per_s = 10.0

    def __init__(self, accepts_per_call: int = 1000):
        # Ten accepts per reject, as in the criterion (100000 / 10000).
        self.accepts = accepts_per_call
        self.rejects = max(1, accepts_per_call // 10)
        self.trials_per_call = self.accepts + self.rejects

    def prepare(self) -> None:
        pass  # group and key are built inside every call

    def warm_up(self) -> None:
        sim.signature_error_counts(accept_trials=1, reject_trials=1, seed=0)

    def call(self, index: int, seed: int) -> Outcome:
        rep = sim.signature_error_counts(accept_trials=self.accepts,
                                     reject_trials=self.rejects, seed=seed)
        counts = Counter({
            "accept_trials": rep.accept_trials,
            "reject_trials": rep.reject_trials,
            "false_rejects": rep.false_rejects,
            "false_accepts": rep.false_accepts,
            "small_group": rep.group_order < 2**31,
        })
        return Outcome(trials=rep.accept_trials + rep.reject_trials,
                       wrong=rep.false_rejects + rep.false_accepts,
                       counts=counts)

    def gate(self, totals: Counter) -> list[str]:
        failures = []
        if totals["false_rejects"]:
            failures.append(f"{totals['false_rejects']} false rejects")
        if totals["false_accepts"]:
            failures.append(f"{totals['false_accepts']} false accepts")
        if totals["small_group"]:
            failures.append("group order below 2^31")
        if not totals["accept_trials"] or not totals["reject_trials"]:
            failures.append("no trials run")
        return failures


WORKLOADS = {w.name: w for w in (HashBound, Relay, Signature, Wide16)}

# Sizes for the self-test's smoke run: tiny, but every code path.
TINY = {"hashbound": 2, "relay": 2, "signature": 10, "wide16": 1}
