"""The scalar eliminator and the one-stream solvers built on it.

These are ncdetect's reduced_row_echelon, decode, recover_subspan and
subspan_consistency as they were before each became one trial of
rlnc.solve_batch: a pivot-by-pivot Gauss-Jordan loop over one (R, G +
width) matrix, with its own pivot search, row swaps and normalisation.
The batched kernels, and the one-trial calls built on them, are tested
against these, so a fault in solve_batch cannot also be the expected
value.  subspan_consistency checks hashes with field_reference's
brute-force hash_matches, not with detect.hash_consistent.  Input checks
are left to the library.
"""

import numpy as np

from ncdetect.detect import Verdict
from ncdetect.rlnc import NotDecodable

from field_reference import hash_matches


def reduced_row_echelon(field, matrix, pivot_width):
    """Gauss-Jordan elimination with pivots searched in the first
    pivot_width columns and row operations over the full width.

    Returns (R, pivot_cols): the pivot rows in column order, then the
    rest, the rows whose first pivot_width columns eliminated to zero.
    """
    m = field._elements(matrix).copy()
    rows = m.shape[0]
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


def decode(field, rows, G):
    """The (G, width) source matrix of R received wire rows; NotDecodable
    when their encoding vectors have rank below G."""
    r, pivots = reduced_row_echelon(field, rows, G)
    if len(pivots) < G:
        raise NotDecodable(rank=len(pivots), needed=G)
    return r[:G, G:]


def recover_subspan(field, rows, G):
    """(status, support, solved) of the source rows that R received wire
    rows pin down: "solved", "inconsistent" or "underdetermined"."""
    m = field._elements(rows)
    support = np.flatnonzero(np.any(m[:, :G] != 0, axis=0))
    r, pivots = reduced_row_echelon(field, m, G)
    # Rows whose encoding part eliminated to zero must carry zero data,
    # else rank([C|D]) > rank(C) and no linear preimage exists.
    tail = r[len(pivots):]
    if tail.size and np.any(tail[:, G:] != 0):
        return "inconsistent", support, None
    if len(pivots) < len(support):
        return "underdetermined", support, None
    return "solved", np.asarray(pivots, dtype=np.int64), r[: len(pivots), G:]


def subspan_consistency(rows, G, params):
    """(verdict, support, solved) of one sub-generation's received rows."""
    status, support, solved = recover_subspan(params.field, rows, G)
    if status == "inconsistent":
        return Verdict.CORRUPTED, support, None
    if status == "underdetermined":
        return Verdict.INCONCLUSIVE, support, None
    if solved.shape[0] == 0 or hash_matches(params.field, solved, params.k):
        return Verdict.VALID, support, solved
    return Verdict.CORRUPTED, support, solved
