"""Byzantine pollution detection for coded packet streams.

Two schemes plus an exact ground-truth oracle:

* a per-generation polynomial hash: every packet carries one hash symbol
  per k payload symbols, computed as h = sum_i x_i^(i+1) over each block.
  The hash symbols mix linearly along with the payload, and a node that
  decodes a (sub-)generation re-derives every source row and checks the
  rows' hashes for consistency.  A forger who has not seen the honest
  combinations passes with probability at most ((k+1)/q)^s, the
  root-counting bound of the degree-(k+1) hash polynomial.
* a per-packet subspace signature: a public vector h_i = g^(u_i) over a
  prime-order group, with the secret u orthogonal to every source row.
  A packet (coeffs | payload) verifies iff the product of h_i^(w_i) is 1,
  which holds exactly for members of the source span and for anything
  else only with probability 1/P over the key draw.  sig_verify checks
  one vector with Python's pow and is the reference; sig_verify_batch
  checks a matrix of them with the fixed-base method of Brickell, Gordon,
  McCurley & Wilson (EUROCRYPT 1992).  The bases h_i are fixed per key,
  so each key caches tables T[i, m, j] = h_i^(j 2^(8m)) mod Q, one window
  per byte of the exponent: ceil(bitlen(P-1)/8) windows of 256 entries
  (8 x 4 x 256 uint64, 64 KiB, for n = 8 at a 32-bit P), built by
  doubling.  prod_i h_i^(w_i) is then a product of table entries, one
  per (i, byte of w_i), with no squarings.  For Q < 2^40 the products
  run in uint64 with a 16-bit split of one operand; larger Q use the same
  tables as Python ints.
* oracle_verify: exact membership in the source span of one generation
  or a stack, used for ground truth when scoring simulations.  The source
  rows are (e_i | S_i), so w = (c | d) is in their span exactly when
  d = c S: one field product.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .algebra import FieldSpec, GroupSpec, _as_int
from .rlnc import Generation, recover_subspan, solve_batch


class Verdict(str, enum.Enum):
    """A node's decision; each member equals, hashes and formats as its
    string ("valid", "corrupted", "inconclusive")."""

    __str__ = str.__str__

    VALID = "valid"
    CORRUPTED = "corrupted"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class HashParams:
    """The generation hash over field: one symbol per k payload symbols."""

    k: int
    field: FieldSpec

    def __post_init__(self):
        object.__setattr__(self, "k", _as_int(self.k, "k"))
        if self.k < 1:
            raise ValueError("k must be >= 1")

    def check_field(self, field: FieldSpec) -> None:
        """Raise unless symbols over field are what this hash covers."""
        if field != self.field:
            raise ValueError(f"a hash over {self.field!r} cannot cover "
                             f"symbols over {field!r}")

    def hash_symbol_count(self, k_data: int) -> int:
        return -(-k_data // self.k)

    def overhead_fraction(self, k_data: int) -> float:
        """Hash symbols as a fraction of payload+hash symbols (~1/(k+1))."""
        n_h = self.hash_symbol_count(k_data)
        return n_h / (k_data + n_h)

    def miss_bound(self, s: int) -> float:
        """Upper bound on the miss probability for a blind s-packet forgery."""
        return ((self.k + 1) / self.field.q) ** s


def gen_hash_append(payload, params: HashParams) -> np.ndarray:
    """Hash symbols for payload rows along the last axis.

    payload is (..., k_data): one row, a matrix of rows or a stack of
    such matrices; the result is (..., hash symbols).  Each block of k
    symbols x_1..x_k yields one symbol sum_i x_i^(i+1); a short trailing
    block is implicitly zero-padded (zero terms vanish).
    """
    f = params.field
    p = f._elements(payload)
    if p.ndim == 0 or p.shape[-1] < 1:
        raise ValueError(f"{f!r} payload must have at least one symbol")
    k_data = p.shape[-1]
    powered = f.pow_arr(p, (np.arange(k_data) % params.k) + 2)
    starts = np.arange(0, k_data, params.k)
    if f.kind == "binary-extension":
        return np.bitwise_xor.reduceat(powered, starts, axis=-1)
    return np.add.reduceat(powered, starts, axis=-1) % f.q


def split_decoded_width(width: int, k: int) -> tuple[int, int]:
    """Split a decoded row width into (k_data, hash symbols) for coverage k.

    A row of k_data payload symbols carries n_h = ceil(k_data / k) hash
    symbols, so its width k_data + n_h fixes n_h = ceil(width / (k + 1)).
    """
    n_h = -(-width // (k + 1))
    if n_h < 1 or -(-(width - n_h) // k) != n_h:
        raise ValueError(f"width {width} is not payload+hash for k={k}")
    return width - n_h, n_h


def hash_consistent(rows, params: HashParams) -> np.ndarray:
    """Whether every row's hash symbols match its payload, per matrix.

    rows is (..., r, width), each row payload symbols followed by hash
    symbols; the result is a bool array of shape rows.shape[:-2] (a 0-d
    array for one matrix).
    """
    d = params.field._elements(rows)
    if d.ndim < 2 or d.shape[-1] < 2:
        raise ValueError(f"expected (..., r, payload + hash) {params.field!r} rows, "
                         f"got {d.shape}")
    try:
        k_data, _ = split_decoded_width(d.shape[-1], params.k)
    except ValueError as exc:
        raise ValueError(f"{exc} over {params.field!r}") from None
    recomputed = gen_hash_append(d[..., :k_data], params)
    return np.all(recomputed == d[..., k_data:], axis=(-2, -1))


def gen_hash_verify(decoded: np.ndarray, params: HashParams) -> Verdict:
    """Check a decoded generation's rows for hash consistency.

    decoded is the matrix rlnc.decode returns (or one trial of
    rlnc.decode_batch): one row per source packet, payload symbols
    followed by hash symbols.
    """
    d = params.field._elements(decoded)
    if d.ndim != 2:
        raise ValueError(f"expected a 2-D {params.field!r} matrix, got {d.shape}")
    return Verdict.VALID if hash_consistent(d, params) else Verdict.CORRUPTED


def subspan_consistency(rows, G: int, params: HashParams):
    """Check the received combinations of a sub-generation.

    rows is (R, G + width): R received wire rows over params.field.
    Solves for a consistent source preimage within the local span: if the
    touched source rows are uniquely determined, their hashes decide
    Valid/Corrupted; if the received data cannot be any linear image of a
    source matrix, Corrupted; otherwise Inconclusive (not enough rank to
    decide -- an empty sub-generation is vacuously valid).

    Returns (verdict, support, solved); solved is None unless the span
    pins the touched source rows down uniquely.
    """
    status, support, solved = recover_subspan(params.field, rows, G)
    if status == "inconsistent":
        return Verdict.CORRUPTED, support, None
    if status == "underdetermined":
        return Verdict.INCONCLUSIVE, support, None
    if solved.shape[0] == 0 or hash_consistent(solved, params):
        return Verdict.VALID, support, solved
    return Verdict.CORRUPTED, support, solved


def subspan_consistency_batch(rows, G: int, params: HashParams):
    """:func:`subspan_consistency` of T stacked sub-generations at once.

    rows is (T, R, G + width).  A zero row changes no verdict: it never
    pivots, touches no source index and hashes to 0, so stacks of fewer
    rows may be padded with zero rows.  Returns (verdicts, support,
    solved, rank): verdicts is a (T,) object array of Verdicts, each equal
    to subspan_consistency's; support is the (T, G) bool mask of the
    source indices the encoding vectors touch; solved is (T, G, width),
    where row j of a trial whose span pins its touched rows down holds
    source row j as solved for each j in its support, and every other row
    is 0; rank is the (T,) rank of the encoding vectors.  A stack of G
    rows with rank G has no tail, so it is pinned and its solved rows are
    decode's.  One solve_batch call reduces all T stacks: the rank is its
    pivot count, data in a tail row makes a trial inconsistent, and a
    pinned trial's slots are its solved rows, since its pivot columns are
    its support and its tail slots hold zero data.  One hash_consistent
    call checks the pinned trials.
    """
    f = params.field
    m = f._elements(rows)
    pivoted, r = solve_batch(f, m, G)
    support = np.any(m[:, :, :G] != 0, axis=1)
    rank = pivoted.sum(axis=1)
    # Tail rows are zero in the encoding part; nonzero data there means
    # rank([C|D]) > rank(C), and no linear preimage exists.
    tail = np.pad(~pivoted, ((0, 0), (0, r.shape[1] - G)), constant_values=True)
    inconsistent = np.any((r != 0) & tail[:, :, None], axis=(1, 2))
    pinned = ~inconsistent & (rank >= support.sum(axis=1))
    solved = np.where(pinned[:, None, None], r[:, :G], 0)
    hash_ok = np.ones(len(m), dtype=bool)
    check = pinned & (rank > 0)
    if check.any():
        hash_ok[check] = hash_consistent(solved[check], params)
    verdicts = np.empty(len(m), dtype=object)
    verdicts[:] = Verdict.INCONCLUSIVE
    verdicts[pinned] = Verdict.VALID
    verdicts[inconsistent | (pinned & ~hash_ok)] = Verdict.CORRUPTED
    return verdicts, support, solved, rank


@dataclass(frozen=True)
class SignatureKey:
    """Public key h_i = g^(u_i) for a secret u orthogonal to the source rows."""

    group: GroupSpec
    h_vec: tuple[int, ...]

    @property
    def key_size_bits(self) -> int:
        return len(self.h_vec) * (self.group.modulus - 1).bit_length()

    @functools.cached_property
    def _tables(self) -> np.ndarray:
        """Fixed-base tables T[i, m, j] = h_i^(j 2^(8m)) mod Q, (n, windows, 256).

        uint64 below _UINT64_MULMOD_Q, Python ints (object) above.  Built
        once per key on first use; a cached property is not a field, so
        it takes no part in equality or hashing.
        """
        q = self.group.modulus
        windows = -(-(self.group.order - 1).bit_length() // 8)
        fast = q < _UINT64_MULMOD_Q
        t = np.ones((len(self.h_vec), windows, 256),
                    dtype=np.uint64 if fast else object)
        t[..., 1] = [[pow(h, 1 << (8 * m), q) for m in range(windows)]
                     for h in self.h_vec]
        # Doubling: with b^0..b^(s-1) in place, b^s..b^(2s-1) are those
        # times b^s = (b^(s/2))^2.
        for s in (2, 4, 8, 16, 32, 64, 128):
            step = _mulmod(t[..., s // 2], t[..., s // 2], q)
            t[..., s : 2 * s] = _mulmod(t[..., :s], step[..., None], q)
        return t


def sig_keygen(generation: Generation, group: GroupSpec,
               rng: np.random.Generator) -> SignatureKey:
    """Key for one generation: secret u uniform over the orthogonal
    complement of the augmented source rows (coeffs | payload) over F_P.

    The coding field must be the prime field F_P of the group order, so
    that packet symbols are natively exponents; and signature generations
    carry no hash symbols (the signature replaces the hash).
    """
    f = generation.field
    if f.kind != "prime" or f.q != group.order:
        raise ValueError(
            "signature scheme needs the coding field to be the prime field "
            "of the group order"
        )
    x = generation.source_payloads
    if x.ndim != 2:
        raise ValueError(f"sig_keygen keys one generation, not a stack of {x.shape}")
    if generation.source_hashes.shape[1]:
        raise ValueError("signature generations must not carry hash symbols")
    g_count, k_data = x.shape
    while True:
        t = f.random_elements(rng, k_data)
        if np.any(t != 0):
            break
    # Rows are (e_i | x_i): u = (-X t | t) is orthogonal to every row, and
    # t uniform makes u uniform over the complement.
    head = f._sub(np.zeros(g_count, dtype=f.dtype), f.matmul(x, t[:, None])[:, 0])
    u = np.concatenate([head, t])
    q_mod = group.modulus
    h_vec = tuple(pow(group.generator, int(ui), q_mod) for ui in u)
    return SignatureKey(group=group, h_vec=h_vec)


def sig_verify(w, key: SignatureKey) -> bool:
    """Accept iff prod_i h_i^(w_i) = 1 (mod Q) for the wire vector w.

    w is a wire row (coeffs | payload): signature generations carry no
    hash symbols.  Every linear combination of signed source
    packets accepts; anything outside the span accepts only if it happens
    to be orthogonal to the secret u, probability 1/P over the key draw.
    The all-zero vector accepts trivially (it lies in every subspace);
    simulations treat zero packets as erasures, not forgeries.

    This is the scalar reference: one Python pow per symbol.
    sig_verify_batch gives the same verdicts for a matrix of vectors
    from the key's fixed-base tables.
    """
    if len(w) != len(key.h_vec):
        raise ValueError(
            f"vector length {len(w)} does not match key length "
            f"{len(key.h_vec)}"
        )
    q_mod = key.group.modulus
    acc = 1
    for h, wi in zip(key.h_vec, w):
        acc = acc * pow(h, int(wi), q_mod) % q_mod
    return acc == 1


# Below this modulus, table products run in uint64: for a, b < Q < 2^40,
# a (b >> 16) < 2^64 and (x << 16) + a (b & 0xFFFF) < 2^57 for x < Q.
_UINT64_MULMOD_Q = 1 << 40


def _mulmod(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Elementwise a b mod q for reduced operands of the tables' dtype."""
    if a.dtype == object:
        return a * b % q
    q = np.uint64(q)
    return ((a * (b >> 16) % q << 16) + a * (b & 0xFFFF)) % q


def sig_verify_batch(W, key: SignatureKey) -> np.ndarray:
    """sig_verify for every row of W, an (N, n) matrix of wire vectors.

    Returns a bool array of N verdicts, equal to sig_verify's row by row.
    Each exponent is reduced mod P (h_i has order P) and cut into bytes;
    byte m of w_i selects T[i, m, byte], and the N products of n x
    windows table entries are reduced pairwise in one pass per level.
    """
    W = np.asarray(W)
    n = len(key.h_vec)
    if W.ndim != 2 or W.shape[1] != n:
        raise ValueError(
            f"expected (N, {n}) wire vectors for this key, got shape {W.shape}"
        )
    if W.dtype.kind not in "iuO":
        raise ValueError(f"wire vectors must be integers, got dtype {W.dtype}")
    t = key._tables
    windows = t.shape[1]
    p = key.group.order
    if t.dtype == object:
        e = W.astype(object) % p  # exact Python ints
        shifts = np.array([8 * m for m in range(windows)], dtype=object)
    else:
        if W.dtype.kind != "O":  # widen, so that P fits the dtype
            W = W.astype(np.int64 if W.dtype.kind == "i" else np.uint64)
        e = (W % p).astype(np.uint64)  # floor mod, below P < 2^40: exact
        shifts = np.arange(0, 8 * windows, 8, dtype=np.uint64)
    digits = ((e[:, :, None] >> shifts) & 255).astype(np.intp)
    digits += (np.arange(n * windows) * 256).reshape(n, windows)
    vals = t.reshape(-1)[digits].reshape(len(W), n * windows)
    while vals.shape[1] > 1:
        h = vals.shape[1] // 2
        head = _mulmod(vals[:, :h], vals[:, h : 2 * h], key.group.modulus)
        vals = np.concatenate([head, vals[:, 2 * h :]], axis=1)
    return vals[:, 0] == 1


def oracle_verify(w, generation: Generation):
    """Exact ground truth: are wire vectors in the source span?

    w is one wire vector (coeffs | data) or an (..., N, n) stack whose
    leading axes broadcast with the generation stack's; the result is one
    bool for one vector of one generation, else (..., N) bools.  As the
    source rows are (e_i | S_i), w = (c | d) lies in their span exactly
    when d = c S.  Used for simulation scoring, never by the schemes.
    """
    f = generation.field
    s = generation.source_rows()
    g, n = s.shape[-2], s.shape[-2] + s.shape[-1]
    w = f._elements(w)
    m = np.atleast_2d(w)
    lead = zip(m.shape[-3::-1], s.shape[-3::-1])
    if w.ndim == 0 or w.shape[-1] != n or any(a != b and 1 not in (a, b) for a, b in lead):
        raise ValueError(f"{f!r} wire rows must have width {n} and broadcast against "
                         f"generations of shape {s.shape}, got {w.shape}")
    ok = np.all(f._matmul(m[..., :g], s) == m[..., g:], axis=-1)
    return bool(ok[0]) if ok.ndim == 1 and w.ndim == 1 else ok
