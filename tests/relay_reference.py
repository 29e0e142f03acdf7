"""The relay run trial by trial: the oracle for sim.simulate_relay.

This is simulate_relay as it ran before it was batched: each trial takes
its hops in turn on (R, G + width) wire rows, checks every sub-generation
with reference.subspan_consistency, decodes the sink with
reference.decode and corrupts through adversary.corrupt_stream_with_rng.
The checks run on the scalar eliminator, not on rlnc.solve_batch.  Every trial draws from its own
_child_rng(seed, t) in the order the batched run keeps, so the two give
equal RelayTrial records.
"""

import numpy as np

from ncdetect.adversary import corrupt_stream_with_rng
from ncdetect.algebra import FieldSpec, binary_field
from ncdetect.detect import HashParams, Verdict, oracle_verify
from ncdetect.rlnc import NotDecodable, make_generation, random_combinations
from ncdetect.sim import (
    _RELAY_K_DATA,
    RELAY_NODES,
    RelayReport,
    RelayTrial,
    _child_rng,
    _normalize_edges,
)
from reference import decode, subspan_consistency


def _forward_blocks(rows, taint, blocks, hash_params, src,
                    rng: np.random.Generator):
    """Check a sub-generation, then re-encode one stream per block.

    A stream is (rows, taint): (R, G + width) wire rows and their (R,)
    ground truth; src holds the G source wire rows (e_i | S_i).  Returns
    (verdict, streams).  A Corrupted verdict drops everything; an
    Inconclusive one forwards the received rows split across the blocks
    (the node cannot prove pollution, so it keeps relaying).  A Valid one
    sends, per block, len(block) random combinations of the block's
    solved source rows; a combination is tainted when it gives a wrongly
    solved row a nonzero coefficient.
    """
    G = len(src)
    empty = (rows[:0], taint[:0])
    if not len(rows):
        return Verdict.VALID, [empty] * len(blocks)
    verdict, support, solved = subspan_consistency(rows, G, hash_params)
    if verdict is Verdict.CORRUPTED:
        return verdict, [empty] * len(blocks)
    if verdict is Verdict.INCONCLUSIVE:
        chunks = np.array_split(np.arange(len(rows)), len(blocks))
        return verdict, [(rows[ch], taint[ch]) for ch in chunks]
    f = hash_params.field
    sources = src[support]
    wrong = np.any(sources[:, G:] != solved, axis=1)
    sources[:, G:] = solved
    streams = []
    for block in blocks:
        members = [j for j, i in enumerate(support.tolist()) if i in block]
        if not members:
            streams.append(empty)
            continue
        coeffs, mixed = random_combinations(f, sources[members], len(block), rng)
        streams.append((mixed, np.any(coeffs[:, wrong[members]] != 0, axis=1)))
    return verdict, streams


def simulate_relay_reference(G: int, p_per_edge, seed: int, trials: int = 1,
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
    if G <= 0 or G % 4:
        raise ValueError("G must be a positive multiple of 4")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    probs = _normalize_edges(p_per_edge)
    f = field or binary_field(8)
    hp = HashParams(k=hash_k, field=f)
    g2, g4 = G // 2, G // 4
    quarters = [range(i * g4, (i + 1) * g4) for i in range(4)]
    records = []
    for t in range(trials):
        rng = _child_rng(seed, t)
        gen = make_generation(f.random_elements(rng, (G, _RELAY_K_DATA)), f, hp)
        src = gen.source_wire_rows()
        streams, verdicts, edge_hits = {}, {}, {}

        def corrupt(*edges):
            # Only the data columns are rewritten; a row hit twice counts once.
            for edge in edges:
                rows, taint = streams[edge]
                rows[:, G:], hit = corrupt_stream_with_rng(
                    rows[:, G:], f, _RELAY_K_DATA, probs[edge], rng)
                edge_hits[edge] = int(np.count_nonzero(hit & ~taint))
                taint |= hit

        for edge, half in (("A-B", src[:g2]), ("A-C", src[g2:])):
            streams[edge] = (random_combinations(f, half, g2, rng)[1],
                             np.zeros(g2, dtype=bool))
        corrupt("A-B", "A-C")
        for node, blocks in (("B", quarters[:2]), ("C", quarters[2:])):
            v, (streams[f"{node}-D"], streams[f"{node}-E"]) = _forward_blocks(
                *streams[f"A-{node}"], blocks, hp, src, rng)
            verdicts[node] = (v,)
        corrupt("B-D", "B-E", "C-D", "C-E")
        # D and E check each incoming quarter on its own.
        for node, quarter_in in (("D", (0, 2)), ("E", (1, 3))):
            node_verdicts, out = [], []
            for edge, q in zip((f"B-{node}", f"C-{node}"), quarter_in):
                v, (batch,) = _forward_blocks(*streams[edge], [quarters[q]], hp, src, rng)
                if len(streams[edge][0]):
                    node_verdicts.append(v)
                out.append(batch)
            verdicts[node] = tuple(node_verdicts)
            streams[f"{node}-F"] = tuple(np.concatenate(a) for a in zip(*out))
            corrupt(f"{node}-F")

        to_f = np.concatenate([streams["D-F"][0], streams["E-F"][0]])
        vf = subspan_consistency(to_f, G, hp)[0] if len(to_f) else Verdict.VALID
        verdicts["F"] = (vf,)
        try:
            decoded, f_decodable = decode(f, to_f, G), True
        except NotDecodable:
            f_decodable = False
        flagged = [n for n in RELAY_NODES[1:] if Verdict.CORRUPTED in verdicts[n]]
        records.append(RelayTrial(
            verdicts=verdicts,
            first_flag=flagged[0] if flagged else None,
            edge_corrupted=edge_hits,
            forwarded={"D": len(streams["D-F"][0]), "E": len(streams["E-F"][0])},
            f_received=len(to_f),
            f_decodable=f_decodable,
            f_matches_source=(bool(np.array_equal(decoded, gen.source_rows()))
                              if f_decodable else None),
            f_clean=bool(oracle_verify(to_f, gen).all()),
            upstream_dropped=any(n != "F" for n in flagged),
        ))
    return RelayReport(G=G, p_per_edge=probs, trials=tuple(records))
