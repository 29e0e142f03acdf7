"""Monte Carlo validation of the overhead model and detection bounds.

simulate_node reproduces the single-relay accounting: packets arrive,
each independently corrupted with probability p, and the node applies the
scheme's forwarding rule (forward-all, verify-and-drop-packet, or
verify-and-drop-generation).  Overhead is scored from ground-truth
corruption tags exactly as the closed forms define it -- the empirical
estimator assembles the per-time-unit expectation from the simulated
corruption and drop frequencies, with the clamp at zero applied to that
estimate, so it converges to the analytic ratio without clamping bias.

The other experiments exercise the actual machinery: the blind forgery
miss-rate run (estimate_hash_miss_rate), the signature accept/reject run
(signature_error_counts), the optional real-hash detector inside
simulate_node, and the six-node relay scenario in which intermediate nodes
check sub-generations and drop polluted ones before they reach the sink.

The miss-rate run and the hash-detector node run share one batch
pipeline: T generations at once as (T, G, width) field arrays, mixed by
one batched product, corrupted by adversary.rewrite_rows, decoded by
rlnc.decode_batch and checked by detect.hash_consistent.  The signature
run verifies all valid combinations in one detect.sig_verify_batch call
and all corrupted vectors in another.  The relay walks Packet lists
through rlnc.decode and the detectors; that scalar path, with
detect.sig_verify, is the reference the batch kernels are tested against.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from . import analytic
from .adversary import AttackModel, corrupt_stream_with_rng, rewrite_rows
from .algebra import FieldSpec, binary_field, make_group, prime_field
from .analytic import OverheadPoint, SchemeParams, overhead_point
from .detect import (
    HashParams,
    Verdict,
    gen_hash_append,
    hash_consistent,
    oracle_verify,
    sig_keygen,
    sig_verify_batch,
    subspan_consistency,
)
from .rlnc import (
    Generation,
    NotDecodable,
    Packet,
    decode,
    decode_batch,
    fit_layout,
    make_generation,
    random_combinations,
)

_STDERR_BLOCKS = 50
# Payload symbols per hash symbol in simulate_node's hash detector.
_DETECTOR_HASH_K = 50


def _child_rng(*keys: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(keys)))


def _child_seed(*keys: int) -> int:
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


@dataclass(frozen=True)
class TrialConfig:
    """One simulate_node run; identical configs replay bit-identically.

    trials counts packets for the error-correction and packet schemes and
    generations for the generation scheme.  use_hash_detector switches the
    generation scheme to a run where the node really decodes and
    hash-checks each generation over detector_field, GF(2^8) by default
    (detector misses are then reported as false_accepts; overhead is still
    scored from ground truth).  A hash-aware-forgery attack in that run
    must carry a hash over detector_field with the detector's width.
    """

    scheme: str
    params: SchemeParams
    attack: AttackModel
    trials: int
    seed: int
    use_hash_detector: bool = False
    detector_field: FieldSpec | None = None

    def __post_init__(self):
        if self.scheme not in analytic.SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.attack.p != self.params.p:
            raise ValueError("attack.p and params.p must agree")
        if self.use_hash_detector and self.scheme != "generation":
            raise ValueError("the hash detector applies to the generation scheme")
        if self.use_hash_detector and self.attack.mode == "hash-aware-forgery":
            f, k_data = _detector_layout(self)
            forged = self.attack.hash_params
            got = forged.hash_symbol_count(k_data)
            want = -(-k_data // _DETECTOR_HASH_K)
            if forged.field != f or got != want:
                raise ValueError(
                    f"hash-aware-forgery hash gives {got} symbols over "
                    f"{forged.field!r}, but the detector's hash (k = "
                    f"{_DETECTOR_HASH_K}) gives {want} over {f!r} for "
                    f"{k_data} payload symbols"
                )


@dataclass(frozen=True)
class EmpiricalReport:
    """Measured counterpart of one OverheadPoint."""

    scheme: str
    overhead_ratio: float
    stderr: float
    goodput_fraction: float
    generations_dropped: int
    packets_dropped: int
    false_accepts: int
    false_rejects: int
    bits_transmitted: int
    trials: int
    undecodable: int = 0


def _block_stderr(values: np.ndarray) -> float:
    if len(values) < 2:
        return 0.0
    return float(np.std(values, ddof=1) / math.sqrt(len(values)))


def _generation_report(params: SchemeParams, x_counts: np.ndarray,
                       scored_drops: np.ndarray, *, bits_transmitted: int,
                       false_accepts: int = 0, false_rejects: int = 0,
                       undecodable: int = 0) -> EmpiricalReport:
    trials = len(x_counts)
    n, g = params.n, params.G
    hfrac = params.h_g / (n * g)
    p_hat = float(x_counts.sum()) / (trials * g)
    pg_hat = float(scored_drops.sum()) / trials
    unclamped = min(1.0, hfrac + pg_hat * (1.0 - p_hat) - p_hat)
    blocks = min(_STDERR_BLOCKS, trials)
    u_blocks = []
    for xs, ds in zip(np.array_split(x_counts, blocks),
                      np.array_split(scored_drops, blocks)):
        pb = float(xs.sum()) / (len(xs) * g)
        gb = float(ds.sum()) / len(xs)
        u_blocks.append(hfrac + gb * (1.0 - pb) - pb)
    return EmpiricalReport(
        scheme="generation",
        overhead_ratio=max(0.0, unclamped),
        stderr=_block_stderr(np.asarray(u_blocks)),
        goodput_fraction=analytic.goodput_fraction_generation(n, g, params.h_g),
        generations_dropped=int(scored_drops.sum()),
        packets_dropped=int(scored_drops.sum()) * g,
        false_accepts=false_accepts,
        false_rejects=false_rejects,
        bits_transmitted=bits_transmitted,
        trials=trials,
        undecodable=undecodable,
    )


def simulate_node(config: TrialConfig) -> EmpiricalReport:
    """Simulate the relay node for one (scheme, p) operating point.

    The corruption process is per-packet Bernoulli(p); for the bit
    accounting only the corruption indicators matter, so the default run
    draws them directly (exact same distribution as materializing
    packets) and aggregates wasted bits per the scheme's rule.
    """
    params = config.params
    p = params.p
    n = params.n
    rng = _child_rng(config.seed)

    if config.scheme == "error-correction":
        bad = int(rng.binomial(config.trials, p))
        p_hat = bad / config.trials
        return EmpiricalReport(
            scheme=config.scheme,
            overhead_ratio=p_hat,
            stderr=math.sqrt(p_hat * (1.0 - p_hat) / config.trials),
            goodput_fraction=1.0 - p_hat,
            generations_dropped=0,
            packets_dropped=0,
            false_accepts=0,
            false_rejects=0,
            bits_transmitted=round(config.trials * n),
            trials=config.trials,
        )

    if config.scheme == "packet":
        bad = int(rng.binomial(config.trials, p))
        p_hat = bad / config.trials
        unclamped = (params.h_p - n * p_hat) / n
        return EmpiricalReport(
            scheme=config.scheme,
            overhead_ratio=max(0.0, unclamped),
            stderr=math.sqrt(p_hat * (1.0 - p_hat) / config.trials),
            goodput_fraction=analytic.goodput_fraction_packet(n, params.h_p),
            generations_dropped=0,
            packets_dropped=bad,
            false_accepts=0,
            false_rejects=0,
            bits_transmitted=round((config.trials - bad) * n),
            trials=config.trials,
        )

    if config.use_hash_detector:
        return _simulate_generation_with_hash(config, rng)

    x_counts = rng.binomial(params.G, p, size=config.trials)
    drops = (x_counts > 0).astype(np.int64)
    bits = round((config.trials - int(drops.sum())) * n * params.G)
    return _generation_report(params, x_counts, drops, bits_transmitted=bits)


def _detector_layout(config: TrialConfig) -> tuple[FieldSpec, int]:
    """The hash-detector node run's field and payload symbols per packet."""
    f = config.detector_field or binary_field(8)
    symbol_bits = f.w or (f.q - 1).bit_length()  # w is 0 for prime fields
    return f, fit_layout(int(config.params.n), config.params.G, symbol_bits,
                         hash_k=_DETECTOR_HASH_K)[0]


def _simulate_generation_with_hash(config: TrialConfig,
                                   rng: np.random.Generator) -> EmpiricalReport:
    """Generation scheme with the node really decoding and hash-checking.

    Chunks of generations are materialized and mixed, each received packet
    is corrupted in flight with probability p, then the node decodes and
    verifies.  Forwarding follows the detector's verdict (undecodable
    generations are counted and pass through unverified); overhead is
    still scored from ground truth per the model's definition.
    """
    params, attack = config.params, config.attack
    g = params.G
    f, k_data = _detector_layout(config)
    hp = HashParams(k=_DETECTOR_HASH_K, s=1, field=f)
    x_counts, verdicts = [], []
    for src in _source_chunks(f, g, k_data, hp, config.trials, rng):
        coeffs, data = _mix(f, src, rng)
        hit = rng.random(data.shape[:2]) < attack.p
        data[hit] = rewrite_rows(f, data[hit], k_data, attack.mode, rng,
                                 attack.hash_params)
        full_rank, rows = decode_batch(f, np.concatenate([coeffs, data], axis=-1), g)
        x_counts.append(hit.sum(axis=1))
        # 1 Valid, 0 Corrupted, -1 undecodable.
        verdicts.append(np.where(full_rank, hash_consistent(rows, hp), -1))
    x_counts = np.concatenate(x_counts)
    verdict = np.concatenate(verdicts)
    bad = x_counts > 0
    return _generation_report(
        params, x_counts, bad.astype(np.int64),
        bits_transmitted=int(np.count_nonzero(verdict != 0)) * round(params.n * g),
        false_accepts=int(np.count_nonzero((verdict == 1) & bad)),
        false_rejects=int(np.count_nonzero((verdict == 0) & ~bad)),
        undecodable=int(np.count_nonzero(verdict < 0)),
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
    out = []
    for si, scheme in enumerate(schemes):
        if scheme not in analytic.SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}")
        t = trials.get(scheme, 0) if isinstance(trials, dict) else trials
        for pi, p in enumerate(p_grid):
            pp = params.at(float(p))
            point = overhead_point(scheme, pp)
            report = None
            if t:
                cfg = TrialConfig(
                    scheme=scheme, params=pp,
                    attack=AttackModel(p=float(p)),
                    trials=t, seed=_child_seed(seed, si, pi),
                )
                report = simulate_node(cfg)
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


# Elements of one (T, G, G + width) array in a chunk of a batch run.
# Chunks hold as many trials as fit, so peak memory does not grow with the
# trial count.  2^14 keeps a chunk's arrays at a few hundred KiB and
# still holds 18-34 trials at the hashbound criterion's shapes.
_CHUNK_ELEMENTS = 1 << 14


def _source_chunks(field: FieldSpec, G: int, k_data: int, hp: HashParams,
                   trials: int, rng: np.random.Generator):
    """Yield fresh (T, G, width) source (payload | hash) rows per chunk."""
    width = k_data + hp.hash_symbol_count(k_data)
    chunk = max(1, _CHUNK_ELEMENTS // (G * (G + width)))
    for start in range(0, trials, chunk):
        payloads = field.random_elements(rng, (min(chunk, trials - start), G, k_data))
        yield np.concatenate([payloads, gen_hash_append(payloads, hp)], axis=-1)


def _mix(field: FieldSpec, src: np.ndarray, rng: np.random.Generator):
    """G uniform combinations of each trial's source rows: (coeffs, data)."""
    T, G, _ = src.shape
    coeffs = field.random_elements(rng, (T, G, G))
    # The operands are field arrays already, so skip matmul's conversion;
    # this also keeps the 2-D matmul accounting of benchmarks/spans.py
    # exact, as no batched product passes through FieldSpec.matmul.
    return coeffs, field._matmul(coeffs, src)


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

    Trials run in chunks on the batch pipeline of the module docstring,
    with adversary.rewrite_rows's "blind-s-packet" mode as the forgery.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 1 <= s <= G:
        raise ValueError(f"s must lie in [1, G]; got s={s}, G={G}")
    hp = HashParams(k=hash_k, s=s, field=field)
    rng = _child_rng(seed)
    misses = redraws = 0
    for src in _source_chunks(field, G, k_data, hp, trials, rng):
        decoded = np.empty_like(src)
        todo = np.arange(len(src))
        while todo.size:
            full_rank, rows = _blind_forge_and_decode(field, src[todo], k_data, s, rng)
            decoded[todo[full_rank]] = rows[full_rank]
            todo = todo[~full_rank]
            redraws += todo.size
        misses += int(np.count_nonzero(hash_consistent(decoded, hp)))
    return HashMissReport(trials=trials, misses=misses,
                          bound=hp.miss_bound(), s=s, redraws=redraws)


def _blind_forge_and_decode(field: FieldSpec, src: np.ndarray, k_data: int,
                            s: int, rng: np.random.Generator):
    """Mix, blind-forge and decode each of T generations once.

    src is (T, G, width), the source (payload | hash) rows.  Each trial
    draws G uniform combinations, then s distinct victims' rows go through
    one rewrite_rows call, in victim order.  Returns decode_batch's
    (full_rank, rows).
    """
    T, G, _ = src.shape
    coeffs, data = _mix(field, src, rng)
    # s distinct victims per trial: the first s of a random permutation.
    victims = rng.permuted(np.broadcast_to(np.arange(G), (T, G)), axis=1)[:, :s]
    hit = (np.repeat(np.arange(T), s), victims.ravel())
    data[hit] = rewrite_rows(field, data[hit], k_data, "blind-s-packet", rng)
    return decode_batch(field, np.concatenate([coeffs, data], axis=-1), G)


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
    must reject.  Each side is verified in one sig_verify_batch call; the
    corruption draws are made per vector, in order.
    """
    G, k_data = _SIGNATURE_G, _SIGNATURE_K_DATA
    group = make_group(bits_p, bits_q, random.Random(seed))
    f = prime_field(group.order)
    rng = _child_rng(seed)
    gen, _ = make_generation(f.random_elements(rng, (G, k_data)), f)
    key = sig_keygen(gen, group, rng)

    coeffs = f.random_elements(rng, (accept_trials, G))
    w = np.concatenate([coeffs, f.matmul(coeffs, gen.source_payloads)], axis=1)
    false_rejects = int(np.count_nonzero(~sig_verify_batch(w, key)))

    coeffs = f.random_elements(rng, (reject_trials, G))
    w = np.concatenate([coeffs, f.matmul(coeffs, gen.source_payloads)], axis=1)
    for row in w:  # per-vector draws, in row order: they fix the outcomes
        j = int(rng.integers(G, G + k_data))  # corrupt a payload symbol
        delta = int(rng.integers(1, f.q))
        row[j] = f.add(int(row[j]), delta)
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
        out["f_clean_rate"] = (
            sum(t.f_clean for t in self.trials) / len(self.trials)
        )
        out["f_decodable_rate"] = (
            sum(t.f_decodable for t in self.trials) / len(self.trials)
        )
        return out


def _normalize_edges(p_per_edge) -> dict:
    out = {e: 0.0 for e in RELAY_EDGES}
    for key, val in (p_per_edge or {}).items():
        name = "-".join(key) if isinstance(key, tuple) else str(key)
        name = name.upper()
        if name not in out:
            raise ValueError(f"unknown edge {key!r}; edges are {RELAY_EDGES}")
        if not 0.0 <= val <= 1.0:
            raise ValueError("edge probabilities must lie in [0, 1]")
        out[name] = float(val)
    return out


def _corrupt_edge(packets, edge: str, probs: dict, rng: np.random.Generator):
    p = probs[edge]
    if not packets or p == 0.0:
        return packets, 0
    model = AttackModel(p=p)  # random-symbol: one payload symbol changed
    before = sum(pk.corrupted for pk in packets)
    out = corrupt_stream_with_rng(packets, model, rng)
    after = sum(pk.corrupted for pk in out)
    return out, after - before


def _row_packets(gen: Generation, support, rows) -> dict:
    """Pseudo-source packets for recovered rows, ground-truth tagged."""
    truth = gen.source_rows()
    f = gen.field
    g, k = gen.source_payloads.shape
    out = {}
    for i, src_idx in enumerate(np.asarray(support).tolist()):
        row = rows[i]
        coeffs = np.zeros(g, dtype=np.int64)
        coeffs[src_idx] = 1
        out[src_idx] = Packet(
            coeffs=f._arr(coeffs), payload=row[:k], hash_syms=row[k:],
            field=f, generation_id=gen.id,
            corrupted=not np.array_equal(row, truth[src_idx]),
        )
    return out


def _forward_blocks(received, blocks, hash_params, gen,
                    rng: np.random.Generator):
    """Check a sub-generation, then re-encode one batch per block.

    Returns (verdict, batches).  A Corrupted verdict drops everything; an
    Inconclusive one forwards the raw packets split across the blocks
    (the node cannot prove pollution, so it keeps relaying).
    """
    if not received:
        return Verdict.VALID, [[] for _ in blocks]
    verdict, support, rows = subspan_consistency(received, hash_params)
    if verdict is Verdict.CORRUPTED:
        return verdict, [[] for _ in blocks]
    if verdict is Verdict.INCONCLUSIVE:
        chunks = np.array_split(np.arange(len(received)), len(blocks))
        return verdict, [[received[i] for i in ch] for ch in chunks]
    row_pkts = _row_packets(gen, support, rows)
    batches = []
    for block in blocks:
        members = [row_pkts[i] for i in block if i in row_pkts]
        count = len(block)
        batches.append(
            random_combinations(members, count, rng) if members else []
        )
    return verdict, batches


# Payload symbols per packet in simulate_relay.
_RELAY_K_DATA = 16


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
    """
    if G % 4:
        raise ValueError("G must be divisible by 4")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    probs = _normalize_edges(p_per_edge)
    f = field or binary_field(8)
    hp = HashParams(k=hash_k, s=1, field=f)
    g2, g4 = G // 2, G // 4
    quarters = [list(range(i * g4, (i + 1) * g4)) for i in range(4)]
    records = []
    for t in range(trials):
        rng = _child_rng(seed, t)
        gen, src = make_generation(
            f.random_elements(rng, (G, _RELAY_K_DATA)), f, hp, generation_id=t
        )
        verdicts: dict = {}
        edge_hits: dict = {}

        to_b = random_combinations(src[:g2], g2, rng)
        to_c = random_combinations(src[g2:], g2, rng)
        to_b, edge_hits["A-B"] = _corrupt_edge(to_b, "A-B", probs, rng)
        to_c, edge_hits["A-C"] = _corrupt_edge(to_c, "A-C", probs, rng)

        vb, (b_to_d, b_to_e) = _forward_blocks(
            to_b, [quarters[0], quarters[1]], hp, gen, rng
        )
        vc, (c_to_d, c_to_e) = _forward_blocks(
            to_c, [quarters[2], quarters[3]], hp, gen, rng
        )
        verdicts["B"] = (vb,)
        verdicts["C"] = (vc,)

        b_to_d, edge_hits["B-D"] = _corrupt_edge(b_to_d, "B-D", probs, rng)
        b_to_e, edge_hits["B-E"] = _corrupt_edge(b_to_e, "B-E", probs, rng)
        c_to_d, edge_hits["C-D"] = _corrupt_edge(c_to_d, "C-D", probs, rng)
        c_to_e, edge_hits["C-E"] = _corrupt_edge(c_to_e, "C-E", probs, rng)

        to_f = []
        for node, streams in (("D", [(b_to_d, quarters[0]), (c_to_d, quarters[2])]),
                              ("E", [(b_to_e, quarters[1]), (c_to_e, quarters[3])])):
            node_verdicts = []
            out = []
            for stream, block in streams:
                v, (batch,) = _forward_blocks(stream, [block], hp, gen, rng)
                if stream:
                    node_verdicts.append(v)
                out.extend(batch)
            verdicts[node] = tuple(node_verdicts)
            edge = f"{node}-F"
            out, edge_hits[edge] = _corrupt_edge(out, edge, probs, rng)
            if node == "D":
                d_forwarded = out
            else:
                e_forwarded = out
            to_f.extend(out)

        vf, _, _ = subspan_consistency(to_f, hp) if to_f else (Verdict.VALID, None, None)
        verdicts["F"] = (vf,)
        f_decodable = False
        f_matches: bool | None = None
        if len(to_f) >= G:
            try:
                decoded = decode(to_f, G)
                f_decodable = True
                f_matches = bool(np.array_equal(decoded, gen.source_rows()))
            except NotDecodable:
                pass
        f_clean = all(oracle_verify(pk, gen) for pk in to_f)
        first_flag = next(
            (node for node in ("B", "C", "D", "E", "F")
             if Verdict.CORRUPTED in verdicts.get(node, ())),
            None,
        )
        upstream_dropped = any(
            Verdict.CORRUPTED in verdicts.get(node, ())
            for node in ("B", "C", "D", "E")
        )
        records.append(RelayTrial(
            verdicts=verdicts,
            first_flag=first_flag,
            edge_corrupted=edge_hits,
            forwarded={"D": len(d_forwarded), "E": len(e_forwarded)},
            f_received=len(to_f),
            f_decodable=f_decodable,
            f_matches_source=f_matches,
            f_clean=f_clean,
            upstream_dropped=upstream_dropped,
        ))
    return RelayReport(G=G, p_per_edge=probs, trials=tuple(records))
