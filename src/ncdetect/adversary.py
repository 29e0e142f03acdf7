"""Byzantine corruption models for a packet stream arriving at a node.

Corruption happens in flight, upstream of the observing node: each packet
is independently rewritten with probability p.  The rewrite never touches
the encoding vector -- the attacker hijacks a packet's data while its
claimed coefficients stay plausible -- so the functions here take a
stream's (payload | hash) rows, the wire rows without their G
coefficients.  Hash symbols are left stale, except that the hash-aware
mode recomputes them so the forged row looks self-consistent in
isolation, and the blind mode replaces them with junk.  rewrite_rows is
the one corruption kernel; the stream functions call it one row at a
time, in row order.
"""

from __future__ import annotations

import numpy as np

from .detect import HashParams, gen_hash_append

MODES = (
    "random-symbol",
    "random-payload",
    "hash-aware-forgery",
    "blind-s-packet",
)


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


def _stream(rows, field, k_data: int) -> np.ndarray:
    rows = field._elements(rows)
    if rows.ndim != 2 or not 1 <= k_data <= rows.shape[1]:
        raise ValueError(f"expected (R, width >= {k_data}) rows, got {rows.shape}")
    return rows.copy()


def corrupt_stream_with_rng(rows, field, k_data: int, p: float,
                            rng: np.random.Generator):
    """Each row is independently corrupted with probability p.

    rows is (R, width): a stream's (payload | hash) rows, k_data payload
    symbols first.  Each row draws rng.random(), and a hit row then has
    one payload symbol changed (random-symbol; hash symbols stay stale)
    before the next row draws; at p = 0 nothing is drawn.  Returns new
    rows and the (R,) bool mask of the rows rewritten.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    out = _stream(rows, field, k_data)
    hit = np.zeros(len(out), dtype=bool)
    if p == 0.0:
        return out, hit
    for i in range(len(out)):
        if rng.random() < p:
            out[i] = rewrite_rows(field, out[i : i + 1], k_data, "random-symbol", rng)[0]
            hit[i] = True
    return out, hit


def blind_forge_with_rng(rows, field, k_data: int, s: int,
                         rng: np.random.Generator):
    """Replace s rows' (payload | hash) with blind forgeries.

    rows is (R, width) as for corrupt_stream_with_rng.  The forger picks
    junk without reading the other rows, and the victims' encoding
    vectors stay as claimed, so the forgery's deviation from the true row
    space gets spread over the decoded rows by mixing coefficients the
    forger never saw.  This is the adversary the ((k+1)/q)^s miss bound
    is stated against.  The s victims are drawn first, then rewritten in
    index order.  Returns new rows and the (R,) bool mask of the victims.
    """
    out = _stream(rows, field, k_data)
    if s < 0 or s > len(out):
        raise ValueError(f"cannot forge {s} of {len(out)} packets")
    hit = np.zeros(len(out), dtype=bool)
    hit[rng.choice(len(out), size=s, replace=False)] = True
    for i in np.flatnonzero(hit):
        out[i] = rewrite_rows(field, out[i : i + 1], k_data, "blind-s-packet", rng)[0]
    return out, hit
