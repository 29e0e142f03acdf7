"""Random block linear network coding.

A source emits data in generations of G packets; only packets from the
same generation are ever mixed.  Each packet carries its encoding vector
(the coefficients expressing it as a combination of the generation's
source packets), payload symbols, and optional hash symbols that ride
along under the same linear combinations.

The module provides generation construction, random recoding,
Gauss-Jordan decoding over any supported field, and the partial solve
(:func:`recover_subspan`) behind local checks at intermediate nodes.
A generation's layout is the shape of its arrays, counted in symbols;
:func:`fit_layout` turns a packet size in bits into such a layout.

Two representations share the decoder's rules.  The packet path
(:class:`Packet` lists, :func:`decode`, :func:`reduced_row_echelon`) is
the reference and serves the relay and single-generation APIs.  The batch
path stacks T generations' received wire rows into one (T, R, G + width)
integer array, and :func:`decode_batch` runs Gauss-Jordan on all T at
once with the same pivot choice, so its rows equal :func:`decode`'s bit
for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import FieldSpec


class NotDecodable(Exception):
    """Received packets do not span the generation (erasure, not corruption)."""

    def __init__(self, rank: int, needed: int):
        super().__init__(f"coefficient rank {rank} < generation size {needed}")
        self.rank = rank
        self.needed = needed


def fit_layout(n: int, G: int, symbol_bits: int,
               hash_k: int | None = None) -> tuple[int, int]:
    """Split a packet of n bits into (k_data, hash symbols) beside G coefficients.

    The largest k_data wins for which G + k_data + hash symbols fills the
    n // symbol_bits symbols exactly.  With hash_k set, each packet carries
    one hash symbol per hash_k payload symbols (rounded up).
    """
    if G < 1 or symbol_bits < 1:
        raise ValueError("G and symbol_bits must be positive")
    if hash_k is not None and hash_k < 1:
        raise ValueError("hash_k must be >= 1")
    if n % symbol_bits:
        raise ValueError(f"n={n} is not a multiple of symbol_bits={symbol_bits}")
    total = n // symbol_bits
    for k_data in range(total - G, 0, -1):
        n_h = 0 if hash_k is None else -(-k_data // hash_k)
        if G + k_data + n_h == total:
            return k_data, n_h
    raise ValueError(f"no feasible symbol layout for n={n}, G={G}")


@dataclass(frozen=True, eq=False)
class Packet:
    """One coded packet: encoding vector, payload, optional hash symbols.

    corrupted is ground truth for simulation accounting only; detection
    logic never reads it (use :meth:`wire` for the detector-visible part).
    """

    coeffs: np.ndarray
    payload: np.ndarray
    hash_syms: np.ndarray
    field: FieldSpec
    generation_id: int = 0
    corrupted: bool = False

    def wire(self) -> np.ndarray:
        """The transmitted symbol vector: coeffs | payload | hash."""
        return np.concatenate([self.coeffs, self.payload, self.hash_syms])


@dataclass(frozen=True, eq=False)
class Generation:
    """A block of G source packets mixed only among themselves."""

    id: int
    source_payloads: np.ndarray  # G x k_data
    source_hashes: np.ndarray  # G x hash_symbols
    field: FieldSpec

    def source_rows(self) -> np.ndarray:
        """The G x (k_data + hash_symbols) source (payload | hash) matrix S.

        Source packet i is (e_i | S_i), so the valid row space is that of
        (I | S).
        """
        return np.hstack([self.source_payloads, self.source_hashes])

    def source_packets(self) -> list[Packet]:
        out = []
        g = len(self.source_payloads)
        for i in range(g):
            coeffs = np.zeros(g, dtype=np.int64)
            coeffs[i] = 1
            out.append(Packet(
                coeffs=self.field._arr(coeffs),
                payload=self.source_payloads[i].copy(),
                hash_syms=self.source_hashes[i].copy(),
                field=self.field,
                generation_id=self.id,
            ))
        return out


def make_generation(
    payloads,
    field: FieldSpec,
    hash_scheme=None,
    generation_id: int = 0,
) -> tuple[Generation, list[Packet]]:
    """Build a generation and its G source packets from a (G, k_data) matrix.

    Source packet i carries the unit encoding vector e_i.  When a hash
    scheme (detect.HashParams) is given, hash symbols are computed from
    each packet's payload and appended; they are then carried through
    recoding by the same linear combinations as the payload.  Payloads
    and scheme must lie over field, or ValueError is raised.
    """
    payloads = np.asarray(payloads)
    if payloads.ndim != 2 or payloads.size == 0:
        raise ValueError(
            f"payloads must be a non-empty (G, k_data) matrix, got shape "
            f"{payloads.shape}"
        )
    payloads = field._elements(payloads)
    if hash_scheme is not None:
        from .detect import gen_hash_append  # runtime import: detect builds on rlnc

        hash_scheme.check_field(field)
        hashes = gen_hash_append(payloads, hash_scheme)
    else:
        hashes = field._arr(np.zeros((len(payloads), 0), dtype=np.int64))
    gen = Generation(
        id=generation_id, source_payloads=payloads, source_hashes=hashes,
        field=field,
    )
    return gen, gen.source_packets()


def _check_stream(packets: list[Packet]) -> Packet:
    if not packets:
        raise ValueError("empty packet list")
    first = packets[0]
    for p in packets[1:]:
        if p.generation_id != first.generation_id:
            raise ValueError("packets from different generations cannot mix")
        if p.field != first.field:
            raise ValueError("packets from different fields cannot mix")
        if (len(p.coeffs) != len(first.coeffs)
                or len(p.payload) != len(first.payload)
                or len(p.hash_syms) != len(first.hash_syms)):
            raise ValueError("packet symbol layouts differ")
    return first


def combine_with_coefficients(packets: list[Packet], coeffs) -> list[Packet]:
    """One linear combination of packets per row of coeffs.

    coeffs is (count, len(packets)).  A combination is tagged corrupted
    when it gives a corrupted input a nonzero coefficient.
    """
    first = _check_stream(packets)
    f = first.field
    c = f._arr(coeffs)
    if c.ndim != 2 or c.shape[1] != len(packets):
        raise ValueError("coefficient matrix needs one column per packet")
    out = f.matmul(c, np.vstack([p.wire() for p in packets]))
    g = len(first.coeffs)
    k = len(first.payload)
    tainted = [i for i, p in enumerate(packets) if p.corrupted]
    hit = np.not_equal(c[:, tainted], 0).any(axis=1)
    return [
        Packet(
            coeffs=row[:g], payload=row[g : g + k], hash_syms=row[g + k :],
            field=f, generation_id=first.generation_id,
            corrupted=bool(h),
        )
        for row, h in zip(out, hit)
    ]


def random_combinations(packets: list[Packet], count: int,
                        rng: np.random.Generator) -> list[Packet]:
    """count fresh random combinations of the given packets.

    Coefficients are uniform over the whole field including zero; singular
    draws are not resampled, so rank-deficient outcomes surface downstream
    as NotDecodable and erasure accounting stays faithful.
    """
    f = _check_stream(packets).field
    return combine_with_coefficients(
        packets, f.random_elements(rng, (count, len(packets)))
    )


# -- linear algebra over a FieldSpec ----------------------------------------


def reduced_row_echelon(field: FieldSpec, matrix,
                        pivot_width: int | None = None):
    """Gauss-Jordan elimination; pivots are searched in the first
    pivot_width columns but row operations span the full width.

    Returns (R, pivot_cols).
    """
    m = field._arr(matrix).copy()
    if m.ndim != 2:
        raise ValueError("matrix must be 2-D")
    rows, cols = m.shape
    if pivot_width is None:
        pivot_width = cols
    pivots: list[int] = []
    r = 0
    for col in range(pivot_width):
        if r >= rows:
            break
        nz = np.nonzero(m[r:, col])[0]
        if len(nz) == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        m[r] = field.mul_arr(field.inv(int(m[r, col])), m[r])
        others = np.nonzero(m[:, col])[0]
        others = others[others != r]
        if len(others):
            factors = m[others, col]
            m[others] = field.sub_arr(
                m[others], field.mul_arr(factors[:, None], m[r][None, :])
            )
        pivots.append(col)
        r += 1
    return m, pivots


def decode(packets: list[Packet]) -> np.ndarray:
    """Recover the source (payload | hash) matrix by Gaussian elimination.

    The generation size G is the packets' encoding vector length.
    Succeeds exactly when the received encoding vectors have rank G;
    raises NotDecodable otherwise, which distinguishes "need more packets"
    from corruption.  The returned matrix has one row per source packet;
    columns are the payload symbols followed by any hash symbols.
    """
    first = _check_stream(packets)
    G = len(first.coeffs)
    m = np.vstack([p.wire() for p in packets])
    r, pivots = reduced_row_echelon(first.field, m, pivot_width=G)
    if len(pivots) < G:
        raise NotDecodable(rank=len(pivots), needed=G)
    return r[:G, G:]


def decode_batch(field: FieldSpec, m, G: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`decode` of T stacked received matrices at once.

    m is (T, R, G + width): trial t's R received wire rows.  Returns
    (full_rank, rows): full_rank[t] is True exactly when decode would
    succeed on trial t's rows, and rows[t] is then the (G, width) matrix
    decode returns; rows of rank-deficient trials hold arbitrary field
    elements.  Each column takes, per trial, the first nonzero entry at or
    below the current row as pivot, as decode does, and a trial without
    one is rank-deficient.  Pivot rows are not normalised per column:
    every other row loses m[r, c] / pivot times the pivot row, and the G
    pivot rows are scaled once at the end, which leaves the unique reduced
    form of a full-rank trial, decode's rows, bit for bit.  A zero pivot's
    inverse reads as 0, so rank-deficient trials run the same updates as
    no-ops instead of raising.
    """
    m = field._arr(m).copy()
    if m.ndim != 3 or m.shape[2] < G:
        raise ValueError(f"expected (T, R, G + width) rows, got {m.shape}")
    T, R, _ = m.shape
    if R < G:
        return np.zeros(T, dtype=bool), field._arr(np.zeros((T, G, m.shape[2] - G)))
    full_rank = np.ones(T, dtype=bool)
    trials = np.arange(T)
    binary = field.kind == "binary-extension"  # subtraction is XOR, in place
    for c in range(G):
        # Once columns < c hold pivots, row c is zero left of column c and
        # every row update can start at column c.
        pivot = m[:, c, c]  # a view: it sees the swaps below
        if not pivot.all():
            pivot_row = c + (m[:, c:, c] != 0).argmax(axis=1)
            move = trials[pivot_row != c]
            src = pivot_row[move]
            m[move, src], m[move, c] = m[move, c], m[move, src]
            full_rank &= pivot != 0  # no nonzero entry at or below row c
        factors = field._mul(m[:, :, c], field._inv(pivot)[:, None])
        factors[:, c] = 0
        update = field._mul(factors[:, :, None], m[:, None, c, c:])
        if binary:
            m[:, :, c:] ^= update
        else:
            m[:, :, c:] = field._sub(m[:, :, c:], update)
    diag = np.arange(G)
    return full_rank, field._mul(field._inv(m[:, diag, diag])[:, :, None],
                                 m[:, :G, G:])


def recover_subspan(packets: list[Packet]):
    """Solve for the source rows a set of received combinations pins down.

    Returns (status, support, rows):

    * status "solved": every source index touched by the encoding vectors
      is uniquely determined; support lists those indices and rows holds
      the corresponding (payload | hash) source rows.
    * status "inconsistent": no source matrix can explain the received
      data (linearly dependent encoding vectors carry conflicting data).
    * status "underdetermined": a consistent preimage exists but is not
      unique, so nothing can be checked yet.
    """
    if not packets:
        return "solved", np.zeros(0, dtype=np.int64), None
    first = _check_stream(packets)
    f = first.field
    g = len(first.coeffs)
    m = np.vstack([p.wire() for p in packets])
    support = np.flatnonzero(np.any(m[:, :g] != 0, axis=0))
    r, pivots = reduced_row_echelon(f, m, pivot_width=g)
    # Rows whose encoding part eliminated to zero must carry zero data,
    # else rank([C|D]) > rank(C) and no linear preimage exists.
    tail = r[len(pivots) :]
    if tail.size and np.any(tail[:, g:] != 0):
        return "inconsistent", support, None
    if len(pivots) < len(support):
        return "underdetermined", support, None
    rows = r[: len(pivots), g:]
    return "solved", np.asarray(pivots, dtype=np.int64), rows
