"""Byzantine corruption models for a packet stream arriving at a node.

Corruption happens in flight, upstream of the observing node: each packet
is independently rewritten with probability p.  The rewrite never touches
the encoding vector -- the attacker hijacks a packet's data while its
claimed coefficients stay plausible -- and hash symbols are left stale
except in the hash-aware mode, which recomputes them so the forged row
looks self-consistent in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detect import HashParams, gen_hash_append
from .rlnc import CORRUPTED, Packet

MODES = (
    "random-symbol",
    "random-payload",
    "hash-aware-forgery",
    "blind-s-packet",
)


@dataclass(frozen=True)
class AttackModel:
    """Per-packet corruption probability plus the rewrite behaviour.

    hash_params is only consulted by hash-aware-forgery, which needs the
    hash construction to recompute matching symbols.
    """

    p: float
    mode: str = "random-symbol"
    hash_params: HashParams | None = None

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        if self.mode not in MODES:
            raise ValueError(f"unknown attack mode {self.mode!r}")
        if self.mode == "hash-aware-forgery" and self.hash_params is None:
            raise ValueError("hash-aware-forgery needs hash_params")


def _random_different(field, current: int, rng: np.random.Generator) -> int:
    """Uniform draw over the q-1 values different from current."""
    r = int(rng.integers(0, field.q - 1))
    return r + 1 if r >= current else r


def _rewrite(packet: Packet, mode: str, rng: np.random.Generator,
             hash_params: HashParams | None) -> Packet:
    f = packet.field
    if mode == "random-symbol":
        payload = packet.payload.copy()
        j = int(rng.integers(0, len(payload)))
        payload[j] = _random_different(f, int(payload[j]), rng)
        return packet.replaced(payload=payload, origin_tag=CORRUPTED)

    payload = f.random_elements(rng, len(packet.payload))
    if np.array_equal(payload, packet.payload):
        j = int(rng.integers(0, len(payload)))
        payload[j] = _random_different(f, int(payload[j]), rng)

    if mode == "random-payload":
        return packet.replaced(payload=payload, origin_tag=CORRUPTED)
    if mode == "hash-aware-forgery":
        hash_syms = packet.hash_syms
        if len(hash_syms):
            hash_syms = gen_hash_append(payload, hash_params)
        return packet.replaced(payload=payload, hash_syms=hash_syms,
                               origin_tag=CORRUPTED)
    # blind-s-packet: junk payload and junk hash, chosen without looking
    # at anything else in the stream.
    hash_syms = packet.hash_syms
    if len(hash_syms):
        hash_syms = f.random_elements(rng, len(hash_syms))
    return packet.replaced(payload=payload, hash_syms=hash_syms,
                           origin_tag=CORRUPTED)


def corrupt_stream_with_rng(packets: list[Packet], model: AttackModel,
                            rng: np.random.Generator) -> list[Packet]:
    """Each packet is independently corrupted with probability model.p.

    Reproducible for a given rng state; untouched packets pass through
    unchanged.
    """
    out = []
    for p in packets:
        if rng.random() < model.p:
            out.append(_rewrite(p, model.mode, rng, model.hash_params))
        else:
            out.append(p)
    return out


def blind_forge_with_rng(packets: list[Packet], s: int,
                         rng: np.random.Generator) -> list[Packet]:
    """Replace s packets' (payload, hash) with blind forgeries.

    The forger picks junk without reading the other packets, and the
    victims' encoding vectors stay as claimed, so the forgery's deviation
    from the true row space gets spread over the decoded rows by mixing
    coefficients the forger never saw.  This is the adversary the
    ((k+1)/q)^s miss bound is stated against.
    """
    if s < 0 or s > len(packets):
        raise ValueError(f"cannot forge {s} of {len(packets)} packets")
    if s == 0:
        return list(packets)
    idx = set(rng.choice(len(packets), size=s, replace=False).tolist())
    return [
        _rewrite(p, "blind-s-packet", rng, None) if i in idx else p
        for i, p in enumerate(packets)
    ]
