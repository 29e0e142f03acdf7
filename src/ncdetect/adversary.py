"""Byzantine corruption models for a packet stream arriving at a node.

Corruption happens in flight, upstream of the observing node: each packet
is independently rewritten with probability p.  The rewrite never touches
the encoding vector -- the attacker hijacks a packet's data while its
claimed coefficients stay plausible.  Hash symbols are left stale, except
that the hash-aware mode recomputes them so the forged row looks
self-consistent in isolation, and the blind mode replaces them with junk.
rewrite_rows is the one corruption kernel; the Packet functions use it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .detect import HashParams, gen_hash_append
from .rlnc import Packet

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


def _change_one_symbol(field, rows: np.ndarray, k_data: int,
                       rng: np.random.Generator) -> None:
    """In place, move one uniform payload symbol per row to a uniform other value."""
    at = (np.arange(len(rows)), rng.integers(0, k_data, size=len(rows)))
    r = rng.integers(0, field.q - 1, size=len(rows))
    rows[at] = field._arr(np.where(r >= rows[at], r + 1, r))


def rewrite_rows(field, rows, k_data: int, mode: str, rng: np.random.Generator,
                 hash_params: HashParams | None = None) -> np.ndarray:
    """Corrupt N (payload | hash) rows under one of the MODES.

    rows is (N, width), payload symbols first, in the caller's order; the
    draws are spent in that order.  Returns new rows whose payloads all
    differ from the input: random-symbol changes one symbol, the other
    modes draw junk (one symbol changed if it equals the honest payload).
    """
    if mode not in MODES:
        raise ValueError(f"unknown attack mode {mode!r}")
    if mode == "hash-aware-forgery":
        if hash_params is None:
            raise ValueError("hash-aware-forgery needs hash_params")
        hash_params.check_field(field)
    rows = field._elements(rows)
    if rows.ndim != 2 or not 1 <= k_data <= rows.shape[1]:
        raise ValueError(f"expected (N, width >= {k_data}) rows, got {rows.shape}")
    out = rows.copy()
    if mode == "random-symbol":
        _change_one_symbol(field, out, k_data, rng)
        return out
    width = out.shape[1] if mode == "blind-s-packet" else k_data
    out[:, :width] = field.random_elements(rng, (len(out), width))
    for i in np.flatnonzero(np.all(out[:, :k_data] == rows[:, :k_data], axis=1)):
        _change_one_symbol(field, out[i : i + 1], k_data, rng)
    if mode == "hash-aware-forgery" and out.shape[1] > k_data:
        out[:, k_data:] = gen_hash_append(out[:, :k_data], hash_params)
    return out


def _rewrite(packet: Packet, mode: str, rng: np.random.Generator,
             hash_params: HashParams | None) -> Packet:
    k = len(packet.payload)
    row = np.concatenate([packet.payload, packet.hash_syms])[None]
    (out,) = rewrite_rows(packet.field, row, k, mode, rng, hash_params)
    return replace(packet, payload=out[:k], hash_syms=out[k:], corrupted=True)


def corrupt_stream_with_rng(packets: list[Packet], model: AttackModel,
                            rng: np.random.Generator) -> list[Packet]:
    """Each packet is independently corrupted with probability model.p.

    Reproducible for a given rng state; untouched packets pass through
    unchanged.
    """
    return [
        _rewrite(p, model.mode, rng, model.hash_params) if rng.random() < model.p else p
        for p in packets
    ]


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
    idx = set(rng.choice(len(packets), size=s, replace=False).tolist())
    return [
        _rewrite(p, "blind-s-packet", rng, None) if i in idx else p
        for i, p in enumerate(packets)
    ]
