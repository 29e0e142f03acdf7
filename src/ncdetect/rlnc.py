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

A packet is a wire row (coeffs | payload | hash) of field elements, and
a stream of R packets is an (R, G + width) array.
:func:`random_combinations` mixes any (..., R, width) stack,
:func:`decode` solves one stream with :func:`reduced_row_echelon` and is
the reference, and :func:`recover_subspan` solves a partial one.
:func:`solve_batch` is the one batched Gauss-Jordan loop: it reduces a
(T, R, G + width) stack of T generations at once and leaves each pivot
row in its column's row, so the rank, the solved rows and the
consistency of the data read straight off its output.
:func:`decode_batch` is its full-rank case, equal to :func:`decode` bit
for bit; the relay's checks call :func:`solve_batch` directly.
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
class Generation:
    """A block of G source packets mixed only among themselves."""

    source_payloads: np.ndarray  # G x k_data
    source_hashes: np.ndarray  # G x hash_symbols
    field: FieldSpec

    def source_rows(self) -> np.ndarray:
        """The G x (k_data + hash_symbols) source (payload | hash) matrix S.

        Source packet i is (e_i | S_i), so the valid row space is that of
        (I | S).
        """
        return np.hstack([self.source_payloads, self.source_hashes])

    def source_wire_rows(self) -> np.ndarray:
        """The G source packets' wire rows (I | S): coeffs | payload | hash."""
        g = len(self.source_payloads)
        return np.hstack([self.field._arr(np.eye(g, dtype=np.int64)),
                          self.source_rows()])


def make_generation(payloads, field: FieldSpec, hash_scheme=None) -> Generation:
    """Build a generation from its (G, k_data) source payload matrix.

    Source packet i carries the unit encoding vector e_i
    (:meth:`Generation.source_wire_rows`).  When a hash scheme
    (detect.HashParams) is given, hash symbols are computed from each
    packet's payload and appended; they are then carried through recoding
    by the same linear combinations as the payload.  Payloads and scheme
    must lie over field, or ValueError is raised.
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
    return Generation(source_payloads=payloads, source_hashes=hashes, field=field)


def random_combinations(field: FieldSpec, rows, count: int,
                        rng: np.random.Generator):
    """count fresh random combinations of each stack's rows.

    rows is (..., R, width) over field, e.g. wire rows (coeffs | data) or
    source (payload | hash) rows.  Draws (..., count, R) coefficients and
    returns (coeffs, coeffs @ rows).  Coefficients are uniform over the
    whole field including zero; singular draws are not resampled, so
    rank-deficient outcomes surface downstream as NotDecodable and
    erasure accounting stays faithful.
    """
    rows = field._elements(rows)
    if rows.ndim < 2:
        raise ValueError(f"expected (..., R, width) {field!r} rows, got {rows.shape}")
    coeffs = field.random_elements(rng, rows.shape[:-2] + (count, rows.shape[-2]))
    return coeffs, field._matmul(coeffs, rows)


# -- linear algebra over a FieldSpec ----------------------------------------


def reduced_row_echelon(field: FieldSpec, matrix,
                        pivot_width: int | None = None):
    """Gauss-Jordan elimination; pivots are searched in the first
    pivot_width columns but row operations span the full width.

    Returns (R, pivot_cols).
    """
    m = field._elements(matrix).copy()
    if m.ndim != 2:
        raise ValueError(f"matrix over {field!r} must be 2-D, got {m.shape}")
    rows, cols = m.shape
    if pivot_width is None:
        pivot_width = cols
    if not 0 <= pivot_width <= cols:
        raise ValueError(f"pivot_width must lie in [0, {cols}], got {pivot_width}")
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
            m[others] = field._sub(
                m[others], field.mul_arr(factors[:, None], m[r][None, :])
            )
        pivots.append(col)
        r += 1
    return m, pivots


def decode(field: FieldSpec, rows, G: int) -> np.ndarray:
    """Recover the source (payload | hash) matrix by Gaussian elimination.

    rows is (R, G + width): R received wire rows over field.  Succeeds
    exactly when their encoding vectors have rank G; raises NotDecodable
    otherwise, which distinguishes "need more packets" from corruption.
    The returned matrix has one row per source packet; columns are the
    payload symbols followed by any hash symbols.  This is the reference
    eliminator :func:`decode_batch` is tested against.
    """
    m = field._elements(rows)
    if m.ndim != 2 or not 0 <= G <= m.shape[1]:
        raise ValueError(f"expected (R, G + width) {field!r} rows with "
                         f"0 <= G <= row width, got {m.shape} and G = {G}")
    r, pivots = reduced_row_echelon(field, m, pivot_width=G)
    if len(pivots) < G:
        raise NotDecodable(rank=len(pivots), needed=G)
    return r[:G, G:]


def solve_batch(field: FieldSpec, m, G: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jordan elimination of T stacked matrices over their first G columns.

    m is (T, R, G + width).  Returns (pivoted, rows): pivoted is the (T, G)
    mask of the columns that hold a pivot, so the rank is pivoted.sum(1),
    and rows is the (T, max(R, G), width) data part of the reduced stack.
    Row c < G is column c's slot: if column c is pivoted, it holds the
    data of the reduced row with its leading 1 in column c.  Every other
    row, an unpivoted slot or a row past G, is a tail row, zero in the
    first G columns, and the data is consistent with the coefficients
    exactly when the tail data is zero.  The reduced rows are then unique
    and equal :func:`reduced_row_echelon`'s bit for bit, and a full-rank
    trial's always equal :func:`decode`'s.

    The stack is padded with zero rows up to G rows.  Column c takes row c
    as its pivot row.  Only where row c is zero in column c is the first
    tail row with a nonzero entry there swapped in; with none, column c
    stays a tail slot.  While every trial's slots above c hold pivots, as
    in a stack of full-rank trials, that row lies below c, as decode takes
    it, and only the rows below c are searched.  Pivot rows are not
    normalised per column: every other row loses m[r, c] / pivot times the
    pivot row, and the pivoted slots are scaled once at the end.  A zero
    pivot's inverse reads as 0, so a tail slot's row updates are no-ops.
    """
    m = field._elements(m)
    if m.ndim != 3 or not 0 <= G <= m.shape[2]:
        raise ValueError(f"expected (T, R, G + width) {field!r} rows with "
                         f"0 <= G <= row width, got {m.shape} and G = {G}")
    T, R, W = m.shape
    m = np.concatenate([m, np.zeros((T, max(G - R, 0), W), dtype=m.dtype)], axis=1)
    pivoted = np.ones((T, G), dtype=bool)
    trials = np.arange(T)
    binary = field.kind == "binary-extension"  # subtraction is XOR, in place
    for c in range(G):
        # Once columns < c are reduced, every tail row, row c among them,
        # is zero left of column c, and every row update can start there.
        pivot = m[:, c, c]  # a view: it sees the swaps below
        if not pivot.all():
            if pivoted[:, :c].all():  # no trial has a tail slot above c
                src = c + (m[:, c:, c] != 0).argmax(axis=1)
                move = trials[src != c]
            else:  # unpivoted slots above c are tail rows too
                nz = m[:, :, c] != 0
                nz[:, :c] &= ~pivoted[:, :c]
                src = nz.argmax(axis=1)
                move = trials[(pivot == 0) & nz[trials, src]]
            src = src[move]
            m[move, src], m[move, c] = m[move, c], m[move, src]
            pivoted[:, c] = pivot != 0
        factors = field._mul(m[:, :, c], field._inv(pivot)[:, None])
        factors[:, c] = 0
        update = field._mul(factors[:, :, None], m[:, None, c, c:])
        if binary:
            m[:, :, c:] ^= update
        else:
            m[:, :, c:] = field._sub(m[:, :, c:], update)
    diag = np.arange(G)
    # Tail slots keep their data: it decides consistency.
    scale = np.where(pivoted, field._inv(m[:, diag, diag]), 1)
    rows = field._mul(scale[:, :, None], m[:, :G, G:])
    if R > G:
        rows = np.concatenate([rows, m[:, G:, G:]], axis=1)
    return pivoted, rows


def decode_batch(field: FieldSpec, m, G: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`decode` of T stacked received matrices at once.

    m is (T, R, G + width): trial t's R received wire rows.  Returns
    (full_rank, rows): full_rank[t] is True exactly when decode would
    succeed on trial t's rows, and rows[t] is then the (G, width) matrix
    decode returns, bit for bit; rows of rank-deficient trials hold
    arbitrary field elements.  This is :func:`solve_batch` with every
    column pivoted, and its G slots.
    """
    pivoted, rows = solve_batch(field, m, G)
    return pivoted.all(axis=1), rows[:, :G]


def recover_subspan(field: FieldSpec, rows, G: int):
    """Solve for the source rows a set of received combinations pins down.

    rows is (R, G + width): R received wire rows (coeffs | data) over
    field.  Returns (status, support, solved):

    * status "solved": every source index touched by the encoding vectors
      is uniquely determined; support lists those indices and solved holds
      the corresponding (payload | hash) source rows.
    * status "inconsistent": no source matrix can explain the received
      data (linearly dependent encoding vectors carry conflicting data).
    * status "underdetermined": a consistent preimage exists but is not
      unique, so nothing can be checked yet.
    """
    m = field._elements(rows)
    if m.ndim != 2 or not 0 <= G <= m.shape[1]:
        raise ValueError(f"expected (R, G + width) {field!r} rows with "
                         f"0 <= G <= row width, got {m.shape} and G = {G}")
    support = np.flatnonzero(np.any(m[:, :G] != 0, axis=0))
    r, pivots = reduced_row_echelon(field, m, pivot_width=G)
    # Rows whose encoding part eliminated to zero must carry zero data,
    # else rank([C|D]) > rank(C) and no linear preimage exists.
    tail = r[len(pivots) :]
    if tail.size and np.any(tail[:, G:] != 0):
        return "inconsistent", support, None
    if len(pivots) < len(support):
        return "underdetermined", support, None
    return "solved", np.asarray(pivots, dtype=np.int64), r[: len(pivots), G:]
