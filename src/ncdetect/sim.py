"""Monte Carlo validation of the overhead model and detection bounds.

simulate_node reproduces the single-relay accounting: packets arrive,
each independently corrupted with probability params.p, and the node
applies the scheme's forwarding rule (forward-all, verify-and-drop-packet,
or verify-and-drop-generation).  Overhead is scored from ground-truth
corruption tags exactly as the closed forms define it -- analytic's
formulas at the observed rate for the per-packet schemes; the generation
estimator assembles the per-time-unit expectation from the simulated
corruption and drop frequencies, clamping that estimate at zero, so it
converges to the analytic ratio without clamping bias.

The other experiments exercise the actual machinery: the blind forgery
miss-rate run (estimate_hash_miss_rate), the signature accept/reject run
(signature_error_counts), and the six-node relay scenario in which
intermediate nodes check sub-generations and drop polluted ones before
they reach the sink.  Every run reads its counts (G, k_data, hash_k, s,
trials) through algebra._as_int, so a float raises TypeError naming it.

Every draw comes from one numpy Generator per run, _child_rng(seed, ...),
every generation (one, or a (T, G, k_data) stack of T) from
rlnc.make_generation, and every mixing step is one
rlnc.random_combinations call.  The miss-rate run mixes, forges
(adversary.blind_forge_with_rng), decodes (rlnc.decode_batch) and checks
(detect.hash_consistent) T generations at once.  The signature run
corrupts in one adversary.rewrite_rows call and verifies each side in one
detect.sig_verify_batch call.  The relay runs its T trials hop by hop on
(T, R, G + width) stacks of wire rows, with (T, R) masks of the rows sent
and of their ground-truth taint: each hop's checks are one
detect.subspan_consistency_batch call, each node's re-encodes one
_matmul, the sink's check of its G slots also decodes them, and
detect.oracle_verify scores the sink.  Only the draws stay per trial:
each trial keeps its own generator and adversary.corrupt_stream_with_rng
corrupts its rows one by one, so every trial draws what a trial-by-trial
run draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analytic
from .adversary import blind_forge_with_rng, corrupt_stream_with_rng, rewrite_rows
from .algebra import FieldSpec, _as_int, binary_field, make_group, prime_field
from .analytic import OverheadPoint, SchemeParams, overhead_point
from .detect import (
    HashParams,
    Verdict,
    hash_consistent,
    oracle_verify,
    sig_keygen,
    sig_verify_batch,
    subspan_consistency_batch,
)
from .rlnc import decode_batch, make_generation, random_combinations

_STDERR_BLOCKS = 50


def _child_rng(*keys: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(keys)))


def _child_seed(*keys: int) -> int:
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


@dataclass(frozen=True)
class EmpiricalReport:
    """Measured counterpart of one OverheadPoint.

    trials counts packets under the error-correction and packet schemes
    and generations under the generation scheme; dropped counts the
    trials the node dropped (0 under error correction), so dropped /
    trials is the drop frequency under every scheme.
    """

    scheme: str
    overhead_ratio: float
    stderr: float
    dropped: int
    trials: int


def simulate_node(scheme: str, params: SchemeParams, trials: int,
                  seed: int) -> EmpiricalReport:
    """Simulate the relay node for one (scheme, p) operating point.

    Packets are corrupted independently with probability params.p; for
    the bit accounting only the corruption indicators matter, so the run
    draws their counts directly (the same distribution as materializing
    packets) and scores them per the scheme's rule.  Equal arguments
    replay bit-identically.  trials < 1 raises ValueError, and so does an
    unknown scheme (through analytic.overhead_for).
    """
    trials = _as_int(trials, "trials")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = _child_rng(seed)

    if scheme != "generation":
        bad = int(rng.binomial(trials, params.p))
        p_hat = bad / trials
        return EmpiricalReport(
            scheme=scheme,
            overhead_ratio=analytic.overhead_for(scheme, params.at(p_hat)),
            stderr=math.sqrt(p_hat * (1.0 - p_hat) / trials),
            dropped=bad if scheme == "packet" else 0,
            trials=trials,
        )

    x_counts = rng.binomial(params.G, params.p, size=trials)
    hfrac = params.h_g / (params.n * params.G)

    def unclamped(xs: np.ndarray) -> float:
        # Overhead per time unit from the corruption and drop frequencies.
        p_hat = float(xs.sum()) / (len(xs) * params.G)
        return hfrac + np.count_nonzero(xs) / len(xs) * (1.0 - p_hat) - p_hat

    u = [unclamped(xs) for xs in np.array_split(x_counts, min(_STDERR_BLOCKS, trials))]
    return EmpiricalReport(
        scheme=scheme,
        overhead_ratio=max(0.0, min(1.0, unclamped(x_counts))),
        stderr=float(np.std(u, ddof=1) / math.sqrt(len(u))) if len(u) > 1 else 0.0,
        dropped=int(np.count_nonzero(x_counts)),
        trials=trials,
    )


@dataclass(frozen=True)
class GridPoint:
    """Analytic value and (optionally) its empirical measurement."""

    point: OverheadPoint
    report: EmpiricalReport | None


def compare_grid(p_grid, schemes, params: SchemeParams,
                 trials, seed: int) -> list[GridPoint]:
    """One analytic and one empirical point per (p, scheme).

    trials may be an int or a per-scheme mapping; 0 skips simulation.
    Each point gets an independent seed stream derived from (seed, scheme
    index, p index), so results do not depend on evaluation order.
    """
    for scheme in schemes:
        if scheme not in analytic.SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}")
    out = []
    for si, scheme in enumerate(schemes):
        t = trials.get(scheme, 0) if isinstance(trials, dict) else trials
        for pi, p in enumerate(p_grid):
            pp = params.at(float(p))
            point = overhead_point(scheme, pp)
            report = None
            if t:
                report = simulate_node(scheme, pp, t, _child_seed(seed, si, pi))
            out.append(GridPoint(point=point, report=report))
    return out


# -- blind forgery vs the generation hash ------------------------------------


@dataclass(frozen=True)
class HashMissReport:
    """Outcome of the blind s-packet forgery experiment."""

    trials: int
    misses: int
    bound: float
    s: int
    redraws: int

    @property
    def miss_rate(self) -> float:
        return self.misses / self.trials

    @property
    def detection_rate(self) -> float:
        return 1.0 - self.miss_rate


# The miss-rate run's chunk budget: elements of one (T, G, G + width)
# array in a chunk.  Chunks hold as many trials as fit, and at least one,
# so peak memory does not grow with the trial count.  Chunk boundaries fix
# the order of the draws, so the budget is pinned by MISS_RATE_GOLDEN.
#
# 2^16 holds a whole 32-trial call in one pass at both hashbound
# criterion shapes (75 trials fit at G=8, k=100; 138 at k=50), so a call
# pays numpy's fixed per-pass cost once.  A G=32, k=1000 trial (33 056
# elements) still gets a pass of its own: at three trials per pass its
# int64 index temporaries outgrow the cache and the run slows by 15-20%
# (2-vCPU VM).
_MISS_RATE_CHUNK_ELEMENTS = 1 << 16


def _source_chunks(field: FieldSpec, G: int, k_data: int, hp: HashParams,
                   trials: int, rng: np.random.Generator):
    """Yield fresh (T, G, width) source (payload | hash) rows per chunk,
    with as many trials per chunk as fit in _MISS_RATE_CHUNK_ELEMENTS
    elements (at least 1)."""
    width = k_data + hp.hash_symbol_count(k_data)
    chunk = max(1, _MISS_RATE_CHUNK_ELEMENTS // (G * (G + width)))
    for start in range(0, trials, chunk):
        payloads = field.random_elements(rng, (min(chunk, trials - start), G, k_data))
        yield make_generation(payloads, field, hp).source_rows()


def estimate_hash_miss_rate(field: FieldSpec, G: int, k_data: int,
                            hash_k: int, s: int, trials: int,
                            seed: int) -> HashMissReport:
    """Empirical miss rate of the generation hash against blind forgery.

    Per trial: a fresh generation is mixed into G random combinations (the
    honest randomness the forger never sees), s of them are hijacked in
    flight with junk data under unchanged claimed coefficients, and the
    receiver decodes and checks.  A miss is a Valid verdict on a polluted
    generation; the bound is ((k+1)/q)^s.  Singular mixing draws are
    redrawn (the receiver cannot check what it cannot decode).

    Trials run on the batch pipeline of the module docstring, with
    adversary.rewrite_rows's "blind-s-packet" mode as the forgery, in
    chunks of _MISS_RATE_CHUNK_ELEMENTS: a 32-trial call at either
    hashbound criterion shape is one pass.
    """
    G, k_data, hash_k, s, trials = (_as_int(v, name) for v, name in (
        (G, "G"), (k_data, "k_data"), (hash_k, "hash_k"), (s, "s"), (trials, "trials")))
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 1 <= s <= G:
        raise ValueError(f"s must lie in [1, G]; got s={s}, G={G}")
    if k_data < 1:
        raise ValueError(f"k_data must be >= 1; got k_data={k_data}")
    hp = HashParams(k=hash_k, field=field)
    rng = _child_rng(seed)
    misses = redraws = 0
    for src in _source_chunks(field, G, k_data, hp, trials, rng):
        decoded = np.empty_like(src)
        todo = np.arange(len(src))
        while todo.size:
            coeffs, data = random_combinations(field, src[todo], G, rng)
            data, _ = blind_forge_with_rng(data, field, k_data, s, rng)
            full_rank, rows = decode_batch(
                field, np.concatenate([coeffs, data], axis=-1), G)
            decoded[todo[full_rank]] = rows[full_rank]
            todo = todo[~full_rank]
            redraws += todo.size
        misses += int(np.count_nonzero(hash_consistent(decoded, hp)))
    return HashMissReport(trials=trials, misses=misses,
                          bound=hp.miss_bound(s), s=s, redraws=redraws)


# -- signature scheme error rates --------------------------------------------


@dataclass(frozen=True)
class SignatureReport:
    """Acceptance/rejection counts for the subspace signature."""

    accept_trials: int
    false_rejects: int
    reject_trials: int
    false_accepts: int
    group_order: int
    key_size_bits: int


# The signature run's generation: G packets of k_data payload symbols.
_SIGNATURE_G = _SIGNATURE_K_DATA = 4


def signature_error_counts(accept_trials: int, reject_trials: int,
                           seed: int, bits_p: int = 32,
                           bits_q: int = 33) -> SignatureReport:
    """Verify random valid combinations and single-symbol corruptions.

    Valid combinations must all accept (completeness); corrupted vectors
    accept only with probability 1/P, so at desk scale every one of them
    must reject.  One stream draws the group, key and vectors, a corrupted
    vector has one payload symbol changed, and each side is verified in
    one sig_verify_batch call.
    """
    accept_trials = _as_int(accept_trials, "accept_trials")
    reject_trials = _as_int(reject_trials, "reject_trials")
    if accept_trials < 0 or reject_trials < 0:
        raise ValueError("accept_trials and reject_trials must be >= 0")
    G, k_data = _SIGNATURE_G, _SIGNATURE_K_DATA
    rng = _child_rng(seed)
    group = make_group(bits_p, bits_q, rng)
    f = prime_field(group.order)
    gen = make_generation(f.random_elements(rng, (G, k_data)), f)
    key = sig_keygen(gen, group, rng)
    x = gen.source_payloads

    # A combination's wire row is its coefficients, then the mixed payload.
    w = np.concatenate(random_combinations(f, x, accept_trials, rng), axis=1)
    false_rejects = int(np.count_nonzero(~sig_verify_batch(w, key)))

    w = np.concatenate(random_combinations(f, x, reject_trials, rng), axis=1)
    w[:, G:] = rewrite_rows(f, w[:, G:], k_data, "random-symbol", rng)
    false_accepts = int(np.count_nonzero(sig_verify_batch(w, key)))

    return SignatureReport(
        accept_trials=accept_trials, false_rejects=false_rejects,
        reject_trials=reject_trials, false_accepts=false_accepts,
        group_order=group.order, key_size_bits=key.key_size_bits,
    )


# -- six-node relay with sub-generation checking ------------------------------

RELAY_NODES = ("A", "B", "C", "D", "E", "F")
RELAY_EDGES = ("A-B", "A-C", "B-D", "B-E", "C-D", "C-E", "D-F", "E-F")


@dataclass(frozen=True)
class RelayTrial:
    """Per-trial record of the two-path relay scenario.

    verdicts maps each node to the Verdicts of the sub-generations it
    checked, in arrival order.
    """

    verdicts: dict
    first_flag: str | None
    edge_corrupted: dict
    forwarded: dict
    f_received: int
    f_decodable: bool
    f_matches_source: bool | None
    f_clean: bool
    upstream_dropped: bool


@dataclass(frozen=True)
class RelayReport:
    """Aggregate of simulate_relay trials."""

    G: int
    p_per_edge: dict
    trials: tuple

    def trials_with_corruption(self, edge: str) -> list[RelayTrial]:
        return [t for t in self.trials if t.edge_corrupted.get(edge, 0) > 0]

    def flag_rate(self, node: str, subset=None) -> float:
        pool = list(self.trials) if subset is None else list(subset)
        if not pool:
            return 0.0
        hits = sum(Verdict.CORRUPTED in t.verdicts.get(node, ()) for t in pool)
        return hits / len(pool)

    def summary(self) -> dict:
        out = {"trials": len(self.trials), "G": self.G}
        for node in ("B", "C", "D", "E", "F"):
            out[f"flag_rate_{node}"] = self.flag_rate(node)
        n = len(self.trials)
        out["f_clean_rate"] = sum(t.f_clean for t in self.trials) / n
        out["f_decodable_rate"] = sum(t.f_decodable for t in self.trials) / n
        return out


def _normalize_edges(p_per_edge) -> dict:
    out = {e: 0.0 for e in RELAY_EDGES}
    for key, val in (p_per_edge or {}).items():
        name = str(key).upper()
        if name not in out:
            raise ValueError(f"unknown edge {key!r}; edges are {RELAY_EDGES}")
        if not 0.0 <= val <= 1.0:
            raise ValueError("edge probabilities must lie in [0, 1]")
        out[name] = float(val)
    return out


# Payload symbols per packet in simulate_relay.
_RELAY_K_DATA = 16


def _forward(f: FieldSpec, stream, check, src: np.ndarray, blocks,
             rngs) -> list:
    """One node's forwarding after its check, for T trials at once.

    A stream is (rows, present, taint): (T, R, G + width) wire rows, the
    (T, R) mask of the rows actually sent, and their (T, R) ground truth
    (a tainted row lies outside the source span).  Rows not present are
    zero and untainted.  Every stream carries one half of the source
    rows: src holds that half's (T, G/2, G + width) source wire rows
    (e_i | S_i), check is subspan_consistency_batch's (verdicts, support,
    solved, rank) over the half, and blocks are consecutive ranges of
    equal length within it.  Returns one stream of len(block) slots per
    block.

    A Corrupted verdict sends nothing.  An Inconclusive one forwards the
    received rows split evenly across the blocks (the node cannot prove
    pollution, so it keeps relaying); the streams into B and C are full
    and those into D and E go to one block, so the split is by slots.  A
    Valid one sends, per block that holds a solved row, len(block) random
    combinations of the block's solved source rows; a combination is
    tainted when it gives a wrongly solved row a nonzero coefficient.  The
    coefficients are drawn trial by trial, block by block, from each
    trial's own generator, and one _matmul then mixes every trial.
    """
    rows, present, taint = stream
    verdicts, support, solved, _ = check
    T, width = solved.shape[0], solved.shape[2]
    nb, n = len(blocks), len(blocks[0])
    span = slice(blocks[0].start, blocks[-1].stop)
    coeffs = np.zeros((T, nb, n, n), dtype=f.dtype)
    sent = np.zeros((T, nb), dtype=bool)
    held = support[:, span].reshape(T, nb, n).tolist()
    for t in np.flatnonzero(verdicts == Verdict.VALID).tolist():
        for b, block in enumerate(held[t]):
            members = [j for j, h in enumerate(block) if h]
            if members:
                coeffs[t, b][:, members] = f.random_elements(rngs[t], (n, len(members)))
                sent[t, b] = True
    honest = src[:, span]
    sources = honest.copy()
    sources[..., -width:] = np.where(support[:, span, None], solved[:, span],
                                     honest[..., -width:])
    wrong = np.any(sources != honest, axis=-1).reshape(T, nb, 1, n)
    out_rows = f._matmul(coeffs, sources.reshape(T, nb, n, -1))
    out_taint = np.any((coeffs != 0) & wrong, axis=-1)
    out_present = np.repeat(sent[..., None], n, axis=-1)
    relay = verdicts == Verdict.INCONCLUSIVE
    for out, received in ((out_rows, rows), (out_taint, taint), (out_present, present)):
        out[relay] = received.reshape(out.shape)[relay]
    return [(out_rows[:, b], out_present[:, b], out_taint[:, b]) for b in range(nb)]


def simulate_relay(G: int, p_per_edge, seed: int, trials: int = 1,
                   field: FieldSpec | None = None,
                   hash_k: int = 16) -> RelayReport:
    """Six-node two-path relay with sub-generation checking at each hop.

    A splits each generation's source packets in half and sends G/2
    random combinations of one half to B and of the other to C.  B and C
    check their halves, then re-encode quarter blocks towards D and E,
    which check each incoming quarter and forward to F.  F checks and
    decodes the whole generation.  Packets carry _RELAY_K_DATA payload
    symbols over field (GF(2^8) by default) and one hash symbol per hash_k
    of them.  Corruption is injected in flight on each edge with the given
    per-edge probability, changing one payload symbol of a hit packet, and
    every node drops a sub-generation its check flags as corrupted.

    All trials run together, one hop at a time, on the streams of _forward
    and one make_generation stack of the T generations.  Each hop's checks
    are one subspan_consistency_batch call: B and C as 2T stacks, the four
    quarters into D and E as 4T stacks, F as T stacks, whose solved rows
    are also F's decode; oracle_verify scores F's rows against the stack.
    A stream on B's path touches only the first half's source rows and one
    on C's path only the second's, so B to E check it over that half's
    coefficients; the columns left out are zero and change no verdict.
    Every trial draws from its own _child_rng(seed, t), in a loop over
    the trials after the check that decides the draws,
    in the order of a trial-by-trial run: the payload, the A-B then the
    A-C coefficients, the A-B then the A-C corruption, B's then C's
    re-encodes, the B-D, B-E, C-D and C-E corruption, then D's re-encodes
    and the D-F corruption, and E's re-encodes and the E-F corruption.
    """
    G, trials, hash_k = (_as_int(v, name) for v, name in (
        (G, "G"), (trials, "trials"), (hash_k, "hash_k")))
    if G <= 0 or G % 4:
        raise ValueError("G must be a positive multiple of 4")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    probs = _normalize_edges(p_per_edge)
    f = field or binary_field(8)
    hp = HashParams(k=hash_k, field=f)
    g2, g4 = G // 2, G // 4
    rngs = [_child_rng(seed, t) for t in range(trials)]
    payloads = np.stack([f.random_elements(rng, (G, _RELAY_K_DATA)) for rng in rngs])
    gen = make_generation(payloads, f, hp)
    src = gen.source_wire_rows()
    half = {"B": slice(0, g2), "C": slice(g2, G)}
    streams, checked = {}, {}
    edge_hits = {e: np.zeros(trials, dtype=np.int64) for e in RELAY_EDGES}

    def corrupt(*edges):
        # Only the data columns of present rows are rewritten; a row hit
        # twice counts once.  At p = 0 corrupt_stream_with_rng draws
        # nothing, so such edges are skipped.
        for edge in edges:
            if not probs[edge]:
                continue
            rows, present, taint = streams[edge]
            for t, rng in enumerate(rngs):
                at = np.flatnonzero(present[t])
                if len(at):
                    rows[t, at, G:], hit = corrupt_stream_with_rng(
                        rows[t, at, G:], f, _RELAY_K_DATA, probs[edge], rng)
                    edge_hits[edge][t] = np.count_nonzero(hit & ~taint[t, at])
                    taint[t, at] |= hit

    def half_of(edge):
        return half["B" if "B" in edge else "C"]

    def check(edges):
        # One check of the edges' streams, each over its path's half.
        out = subspan_consistency_batch(np.concatenate([
            np.concatenate([streams[e][0][..., half_of(e)], streams[e][0][..., G:]],
                           axis=-1)
            for e in edges]), g2, hp)
        return {e: tuple(a[i * trials : (i + 1) * trials] for a in out)
                for i, e in enumerate(edges)}

    # Each trial draws A-B's coefficients, then A-C's.
    coeffs = np.stack([[f.random_elements(rng, (g2, g2)) for _ in half] for rng in rngs])
    mixed = f._matmul(coeffs, src.reshape(trials, 2, g2, -1))
    for i, node in enumerate(half):
        streams[f"A-{node}"] = (mixed[:, i], np.ones((trials, g2), dtype=bool),
                                np.zeros((trials, g2), dtype=bool))
    corrupt("A-B", "A-C")
    results = check(("A-B", "A-C"))
    for node in half:
        edge = f"A-{node}"
        checked[node] = [(results[edge][0], np.ones(trials, dtype=bool))]
        streams[f"{node}-D"], streams[f"{node}-E"] = _forward(
            f, streams[edge], results[edge], src[:, half[node]],
            [range(g4), range(g4, g2)], rngs)
    corrupt("B-D", "B-E", "C-D", "C-E")
    # D and E check each incoming quarter on its own; D re-encodes the
    # first quarter of each half, E the second.
    results = check(("B-D", "C-D", "B-E", "C-E"))
    for node, block in (("D", range(g4)), ("E", range(g4, g2))):
        checked[node], out = [], []
        for edge in (f"B-{node}", f"C-{node}"):
            checked[node].append((results[edge][0], streams[edge][1].any(axis=1)))
            out += _forward(f, streams[edge], results[edge], src[:, half_of(edge)],
                            [block], rngs)
        streams[f"{node}-F"] = tuple(np.concatenate(a, axis=1) for a in zip(*out))
        corrupt(f"{node}-F")

    to_f = np.concatenate([streams["D-F"][0], streams["E-F"][0]], axis=1)
    # D and E send G slots in all, so F's check decodes every full-rank
    # trial: its solved rows are the whole generation.
    verdicts, _, decoded, rank = subspan_consistency_batch(to_f, G, hp)
    checked["F"] = [(verdicts, np.ones(trials, dtype=bool))]
    full_rank = rank == G
    matches = np.all(decoded == gen.source_rows(), axis=(1, 2)).tolist()
    clean = oracle_verify(to_f, gen).all(axis=1)
    sent = {n: streams[f"{n}-F"][1].sum(axis=1).tolist() for n in ("D", "E")}
    records = []
    for t, (f_decodable, f_clean) in enumerate(zip(full_rank.tolist(), clean.tolist())):
        verdicts = {node: tuple(v[t] for v, received in checked[node] if received[t])
                    for node in RELAY_NODES[1:]}
        flagged = [n for n in RELAY_NODES[1:] if Verdict.CORRUPTED in verdicts[n]]
        records.append(RelayTrial(
            verdicts=verdicts,
            first_flag=flagged[0] if flagged else None,
            edge_corrupted={e: int(edge_hits[e][t]) for e in RELAY_EDGES},
            forwarded={n: sent[n][t] for n in sent},
            f_received=sent["D"][t] + sent["E"][t],
            f_decodable=f_decodable,
            f_matches_source=matches[t] if f_decodable else None,
            f_clean=f_clean,
            upstream_dropped=any(n != "F" for n in flagged),
        ))
    return RelayReport(G=G, p_per_edge=probs, trials=tuple(records))
