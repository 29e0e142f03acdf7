"""Random block linear network coding.

A source emits data in generations of G packets; only packets from the
same generation are ever mixed.  Each packet carries its encoding vector
(the coefficients expressing it as a combination of the generation's
source packets), payload symbols, and optional hash symbols that ride
along under the same linear combinations.

The module provides generation construction, random recoding,
Gauss-Jordan decoding over any supported field, and the partial solve
(:func:`recover_subspan`) behind local checks at intermediate nodes.

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

VALID = "valid"
CORRUPTED = "corrupted"


class NotDecodable(Exception):
    """Received packets do not span the generation (erasure, not corruption)."""

    def __init__(self, rank: int, needed: int):
        super().__init__(f"coefficient rank {rank} < generation size {needed}")
        self.rank = rank
        self.needed = needed


@dataclass(frozen=True)
class GenerationParams:
    """Wire-level shape of one generation's packets.

    The accounting identity n = (G + k_data + hash_symbols) * symbol_bits
    ties the bit size used by the overhead formulas to the symbol layout;
    it is checked at construction.
    """

    G: int
    n: int  # packet length in bits, including encoding vector and hashes
    k_data: int
    symbol_bits: int
    hash_symbols: int = 0

    def __post_init__(self):
        if self.G < 1 or self.k_data < 1 or self.symbol_bits < 1:
            raise ValueError("G, k_data and symbol_bits must be positive")
        if self.hash_symbols < 0:
            raise ValueError("hash_symbols must be >= 0")
        expected = (self.G + self.k_data + self.hash_symbols) * self.symbol_bits
        if self.n != expected:
            raise ValueError(
                f"packet size accounting mismatch: n={self.n} but symbols "
                f"add up to {expected} bits"
            )

    @classmethod
    def from_symbols(
        cls, G: int, k_data: int, symbol_bits: int, hash_symbols: int = 0
    ) -> "GenerationParams":
        n = (G + k_data + hash_symbols) * symbol_bits
        return cls(G=G, n=n, k_data=k_data, symbol_bits=symbol_bits,
                   hash_symbols=hash_symbols)

    @classmethod
    def fit(cls, n: int, G: int, symbol_bits: int,
            hash_k: int | None = None) -> "GenerationParams":
        """Split a target packet size of n bits into a feasible symbol layout.

        With hash_k set, each packet carries one hash symbol per hash_k
        payload symbols (rounded up).
        """
        if hash_k is not None and hash_k < 1:
            raise ValueError("hash_k must be >= 1")
        if n % symbol_bits:
            raise ValueError(f"n={n} is not a multiple of symbol_bits={symbol_bits}")
        total = n // symbol_bits
        for k_data in range(total - G, 0, -1):
            n_h = 0 if hash_k is None else -(-k_data // hash_k)
            if G + k_data + n_h == total:
                return cls(G=G, n=n, k_data=k_data, symbol_bits=symbol_bits,
                           hash_symbols=n_h)
        raise ValueError(f"no feasible symbol layout for n={n}, G={G}")


@dataclass(frozen=True, eq=False)
class Packet:
    """One coded packet: encoding vector, payload, optional hash symbols.

    origin_tag is ground truth for simulation accounting only; detection
    logic never reads it (use :meth:`wire` for the detector-visible part).
    """

    coeffs: np.ndarray
    payload: np.ndarray
    hash_syms: np.ndarray
    field: FieldSpec
    generation_id: int = 0
    origin_tag: str = VALID

    def wire(self) -> np.ndarray:
        """The transmitted symbol vector: coeffs | payload | hash."""
        return np.concatenate([self.coeffs, self.payload, self.hash_syms])

    def replaced(self, **kw) -> "Packet":
        fields = dict(
            coeffs=self.coeffs, payload=self.payload, hash_syms=self.hash_syms,
            field=self.field, generation_id=self.generation_id,
            origin_tag=self.origin_tag,
        )
        fields.update(kw)
        return Packet(**fields)


@dataclass(frozen=True, eq=False)
class Generation:
    """A block of G source packets mixed only among themselves."""

    id: int
    source_payloads: np.ndarray  # G x k_data
    source_hashes: np.ndarray  # G x hash_symbols
    params: GenerationParams
    field: FieldSpec

    def source_rows(self) -> np.ndarray:
        """The G x (k_data + hash_symbols) source (payload | hash) matrix S.

        Source packet i is (e_i | S_i), so the valid row space is that of
        (I | S).
        """
        return np.hstack([self.source_payloads, self.source_hashes])

    def source_packets(self) -> list[Packet]:
        out = []
        g = self.params.G
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
    params: GenerationParams,
    field: FieldSpec,
    hash_scheme=None,
    generation_id: int = 0,
) -> tuple[Generation, list[Packet]]:
    """Build a generation and its G source packets.

    Source packet i carries the unit encoding vector e_i.  When a hash
    scheme (detect.HashParams) is given, hash symbols are computed from
    each packet's payload and appended; they are then carried through
    recoding by the same linear combinations as the payload.
    """
    payloads = field._arr(payloads)
    if payloads.shape != (params.G, params.k_data):
        raise ValueError(
            f"payload matrix is {payloads.shape}, expected "
            f"({params.G}, {params.k_data})"
        )
    if hash_scheme is not None:
        from .detect import gen_hash_append  # runtime import: detect builds on rlnc

        hashes = gen_hash_append(payloads, hash_scheme)
    else:
        hashes = field._arr(np.zeros((params.G, 0), dtype=np.int64))
    if hashes.shape[1] != params.hash_symbols:
        raise ValueError(
            f"hash scheme produces {hashes.shape[1]} symbols per packet, "
            f"params expect {params.hash_symbols}"
        )
    gen = Generation(
        id=generation_id, source_payloads=payloads, source_hashes=hashes,
        params=params, field=field,
    )
    return gen, gen.source_packets()


def random_payloads(field: FieldSpec, G: int, k_data: int,
                    rng: np.random.Generator) -> np.ndarray:
    return field.random_elements(rng, (G, k_data))


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
    tainted = [i for i, p in enumerate(packets) if p.origin_tag == CORRUPTED]
    hit = np.not_equal(c[:, tainted], 0).any(axis=1)
    return [
        Packet(
            coeffs=row[:g], payload=row[g : g + k], hash_syms=row[g + k :],
            field=f, generation_id=first.generation_id,
            origin_tag=CORRUPTED if h else VALID,
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


def decode(packets: list[Packet], G: int) -> np.ndarray:
    """Recover the source (payload | hash) matrix by Gaussian elimination.

    Succeeds exactly when the received encoding vectors have rank G;
    raises NotDecodable otherwise, which distinguishes "need more packets"
    from corruption.  The returned matrix has one row per source packet;
    columns are the payload symbols followed by any hash symbols.
    """
    first = _check_stream(packets)
    f = first.field
    if len(first.coeffs) != G:
        raise ValueError("encoding vector length differs from G")
    m = np.vstack([p.wire() for p in packets])
    r, pivots = reduced_row_echelon(f, m, pivot_width=G)
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
    below the current row as pivot, as decode does; the row updates run
    on all trials, with the pivot row masked out of the elimination.
    """
    m = field._arr(m).copy()
    if m.ndim != 3 or m.shape[2] < G:
        raise ValueError(f"expected (T, R, G + width) rows, got {m.shape}")
    T, R, _ = m.shape
    if R < G:
        return np.zeros(T, dtype=bool), field._arr(np.zeros((T, G, m.shape[2] - G)))
    full_rank = np.ones(T, dtype=bool)
    trials = np.arange(T)
    for c in range(G):
        # Once columns < c hold pivots, row c is zero left of column c and
        # every row update can start at column c.
        nonzero = m[:, c:, c] != 0
        found = nonzero.any(axis=1)
        full_rank &= found
        pivot_row = c + nonzero.argmax(axis=1)
        move = trials[pivot_row != c]
        if move.size:
            src = pivot_row[move]
            m[move, src], m[move, c] = m[move, c], m[move, src]
        pivot = np.where(found, m[:, c, c], 1)
        m[:, c, c:] = field.mul_arr(field.inv_arr(pivot)[:, None], m[:, c, c:])
        factors = m[:, :, c].copy()
        factors[:, c] = 0
        m[:, :, c:] = field.sub_arr(
            m[:, :, c:], field.mul_arr(factors[:, :, None], m[:, None, c, c:])
        )
    return full_rank, m[:, :G, G:]


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
