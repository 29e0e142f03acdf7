"""Byzantine corruption models for a packet stream arriving at a node.

Corruption happens in flight, upstream of the observing node: each packet
is independently rewritten with probability p.  The rewrite never touches
the encoding vector -- the attacker hijacks a packet's data while its
claimed coefficients stay plausible -- so the functions here take a
stream's (payload | hash) rows, the wire rows without their G
coefficients.  rewrite_rows is the one corruption kernel, with two
modes: random-symbol moves one payload symbol and leaves the hash
symbols stale, and blind-s-packet replaces the whole row with junk.
corrupt_stream_with_rng calls it one row at a time, in row order, and
blind_forge_with_rng once per stack of streams, on the victims that
_draw_victims picks.
"""

from __future__ import annotations

import numpy as np

from .algebra import _as_int, _randbelow

MODES = ("random-symbol", "blind-s-packet")


def _change_one_symbol(field, rows: np.ndarray, k_data: int,
                       rng: np.random.Generator) -> None:
    """In place, move one uniform payload symbol per row to a uniform other value."""
    at = (np.arange(len(rows)), rng.integers(0, k_data, size=len(rows)))
    r = _randbelow(rng, field.q - 1, len(rows))
    rows[at] = field._arr(np.where(r >= rows[at], r + 1, r))


def rewrite_rows(field, rows, k_data: int, mode: str,
                 rng: np.random.Generator) -> np.ndarray:
    """Corrupt N (payload | hash) rows under one of the MODES.

    rows is (N, width), payload symbols first, in the caller's order; the
    draws are spent in that order.  Returns new rows whose payloads all
    differ from the input: random-symbol changes one symbol, blind-s-packet
    draws a whole junk row (one symbol changed if its payload equals the
    honest one).
    """
    if mode not in MODES:
        raise ValueError(f"unknown attack mode {mode!r}")
    rows = field._elements(rows)
    if rows.ndim != 2 or not 1 <= _as_int(k_data, "k_data") <= rows.shape[1]:
        raise ValueError(f"expected (N, width >= {k_data}) rows over {field!r}, "
                         f"got {rows.shape}")
    if mode == "random-symbol":
        out = rows.copy()
        _change_one_symbol(field, out, k_data, rng)
        return out
    out = field.random_elements(rng, rows.shape)
    for i in np.flatnonzero(np.all(out[:, :k_data] == rows[:, :k_data], axis=1)):
        _change_one_symbol(field, out[i : i + 1], k_data, rng)
    return out


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
    out = field._elements(rows).copy()
    if out.ndim != 2 or not 1 <= _as_int(k_data, "k_data") <= out.shape[1]:
        raise ValueError(f"expected (R, width >= {k_data}) rows over {field!r}, "
                         f"got {out.shape}")
    hit = np.zeros(len(out), dtype=bool)
    if p == 0.0:
        return out, hit
    for i in range(len(out)):
        if rng.random() < p:
            out[i] = rewrite_rows(field, out[i : i + 1], k_data, "random-symbol", rng)[0]
            hit[i] = True
    return out, hit


def _draw_victims(rng: np.random.Generator, n: int, R: int, s: int) -> np.ndarray:
    """The (n, s) victim rows of n streams of R rows: the first s of each
    stream's rng.permuted order, drawn in one call for all n."""
    return rng.permuted(np.broadcast_to(np.arange(R), (n, R)), axis=1)[:, :s]


def blind_forge_with_rng(rows, field, k_data: int, s: int,
                         rng: np.random.Generator):
    """Replace s rows' (payload | hash) with blind forgeries in each stream.

    rows is (..., R, width): streams as for corrupt_stream_with_rng.
    The forger picks junk without reading the other rows, and the
    victims' encoding vectors stay as claimed, so the forgery's deviation
    from the true row space gets spread over the decoded rows by mixing
    coefficients the forger never saw.  This is the adversary the
    ((k+1)/q)^s miss bound is stated against.  _draw_victims picks each
    stream's victims; one rewrite_rows call forges them all, stream by
    stream, in victim order.  Returns new rows and the (..., R) bool mask
    of the victims.  sim.estimate_hash_miss_rate makes the same draws in
    the same order, but mixes and forges only the victims' rows.
    """
    rows = field._elements(rows)
    if rows.ndim < 2 or not 1 <= _as_int(k_data, "k_data") <= rows.shape[-1]:
        raise ValueError(f"expected (..., R, width >= {k_data}) rows over "
                         f"{field!r}, got {rows.shape}")
    *lead, R, width = rows.shape
    if not 0 <= _as_int(s, "s") <= R:
        raise ValueError(f"cannot forge {s} of {R} packets")
    n = int(np.prod(lead))
    out = rows.reshape(n, R, width).copy()
    victims = _draw_victims(rng, n, R, s)
    hit = (np.repeat(np.arange(n), s), victims.ravel())
    out[hit] = rewrite_rows(field, out[hit], k_data, "blind-s-packet", rng)
    mask = np.zeros((n, R), dtype=bool)
    mask[hit] = True
    return out.reshape(rows.shape), mask.reshape(rows.shape[:-1])
