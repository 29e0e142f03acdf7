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
  else only with probability 1/P over the key draw.
* oracle_verify: exact membership in the source span, used for ground
  truth when scoring simulations.  The source rows are (e_i | S_i), so
  w = (c | d) is in their span exactly when d = c S: one field product.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass

import numpy as np

from .algebra import FieldSpec, GroupSpec
from .rlnc import Generation, Packet, recover_subspan


class Verdict(enum.Enum):
    VALID = "valid"
    CORRUPTED = "corrupted"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class HashParams:
    """Generation-hash tuning: one hash symbol covers k payload symbols.

    s is the number of packets an adversary must forge without seeing the
    rest of the generation; it parameterizes the miss bound ((k+1)/q)^s
    and the blind-forgery experiments, not the verifier itself.
    """

    k: int
    s: int
    field: FieldSpec

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.s < 1:
            raise ValueError("s must be >= 1")

    def hash_symbol_count(self, k_data: int) -> int:
        return -(-k_data // self.k)

    def overhead_fraction(self, k_data: int) -> float:
        """Hash symbols as a fraction of payload+hash symbols (~1/(k+1))."""
        n_h = self.hash_symbol_count(k_data)
        return n_h / (k_data + n_h)

    def miss_bound(self, s: int | None = None) -> float:
        """Upper bound on the miss probability for a blind s-packet forgery."""
        e = self.s if s is None else s
        return ((self.k + 1) / self.field.q) ** e


def gen_hash_append(payload, params: HashParams) -> np.ndarray:
    """Hash symbols for payload rows along the last axis.

    payload is (..., k_data): one row, a matrix of rows or a stack of
    such matrices; the result is (..., hash symbols).  Each block of k
    symbols x_1..x_k yields one symbol sum_i x_i^(i+1); a short trailing
    block is implicitly zero-padded (zero terms vanish).
    """
    f = params.field
    p = f._arr(payload)
    if p.ndim == 0 or p.shape[-1] < 1:
        raise ValueError("payload must have at least one symbol")
    k_data = p.shape[-1]
    powered = f.pow_arr(p, (np.arange(k_data) % params.k) + 2)
    starts = np.arange(0, k_data, params.k)
    if f.kind == "binary-extension":
        return np.bitwise_xor.reduceat(powered, starts, axis=-1)
    return np.add.reduceat(powered, starts, axis=-1) % f.q


def split_decoded_width(width: int, k: int) -> tuple[int, int]:
    """Split a decoded row width into (k_data, hash symbols) for coverage k."""
    for n_h in range(1, width):
        k_data = width - n_h
        if -(-k_data // k) == n_h:
            return k_data, n_h
    raise ValueError(f"width {width} is not payload+hash for k={k}")


def hash_consistent(rows, params: HashParams) -> np.ndarray:
    """Whether every row's hash symbols match its payload, per matrix.

    rows is (..., r, width), each row payload symbols followed by hash
    symbols; the result is a bool array of shape rows.shape[:-2] (a 0-d
    array for one matrix).
    """
    d = params.field._arr(rows)
    if d.ndim < 2 or d.shape[-1] < 2:
        raise ValueError("decoded matrix must be 2-D with payload and hash")
    k_data, _ = split_decoded_width(d.shape[-1], params.k)
    recomputed = gen_hash_append(d[..., :k_data], params)
    return np.all(recomputed == d[..., k_data:], axis=(-2, -1))


def gen_hash_verify(decoded: np.ndarray, params: HashParams) -> Verdict:
    """Check a decoded generation's rows for hash consistency.

    decoded is the matrix returned by rlnc.decode: one row per source
    packet, payload symbols followed by hash symbols.
    """
    d = params.field._arr(decoded)
    if d.ndim != 2:
        raise ValueError("decoded matrix must be 2-D with payload and hash")
    return Verdict.VALID if hash_consistent(d, params) else Verdict.CORRUPTED


def subspan_consistency(packets, params: HashParams):
    """Check the received combinations of a sub-generation.

    Solves for a consistent source preimage within the local span: if the
    touched source rows are uniquely determined, their hashes decide
    Valid/Corrupted; if the received data cannot be any linear image of a
    source matrix, Corrupted; otherwise Inconclusive (not enough rank to
    decide -- an empty sub-generation is vacuously valid).

    Returns (verdict, support, rows); rows is None unless the span pins
    the touched source rows down uniquely.
    """
    status, support, rows = recover_subspan(list(packets))
    if status == "inconsistent":
        return Verdict.CORRUPTED, support, None
    if status == "underdetermined":
        return Verdict.INCONCLUSIVE, support, None
    if rows is None or rows.shape[0] == 0 or hash_consistent(rows, params):
        return Verdict.VALID, support, rows
    return Verdict.CORRUPTED, support, rows


@dataclass(frozen=True)
class SignatureKey:
    """Public key h_i = g^(u_i) for a secret u orthogonal to the source rows."""

    group: GroupSpec
    h_vec: tuple[int, ...]

    @property
    def key_size_bits(self) -> int:
        return len(self.h_vec) * (self.group.modulus - 1).bit_length()


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
    if generation.params.hash_symbols:
        raise ValueError("signature generations must not carry hash symbols")
    x = generation.source_payloads
    g_count, k_data = x.shape
    while True:
        t = f.random_elements(rng, k_data)
        if np.any(t != 0):
            break
    # Rows are (e_i | x_i): u = (-X t | t) is orthogonal to every row, and
    # t uniform makes u uniform over the complement.
    head = f.sub_arr(np.zeros(g_count, dtype=np.int64), f.matmul(x, t[:, None])[:, 0])
    u = np.concatenate([head, t])
    q_mod = group.modulus
    h_vec = tuple(pow(group.generator, int(ui), q_mod) for ui in u)
    return SignatureKey(group=group, h_vec=h_vec)


def sig_verify(w, key: SignatureKey) -> bool:
    """Accept iff prod_i h_i^(w_i) = 1 (mod Q) for the wire vector w.

    w is (coeffs | payload), a packet's wire(): signature generations
    carry no hash symbols.  Every linear combination of signed source
    packets accepts; anything outside the span accepts only if it happens
    to be orthogonal to the secret u, probability 1/P over the key draw.
    The all-zero vector accepts trivially (it lies in every subspace);
    simulations treat zero packets as erasures, not forgeries.
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


def oracle_verify(packet: Packet, generation: Generation) -> bool:
    """Exact ground truth: is the packet's wire vector in the source span?

    The source rows are (e_i | S_i), so w = (c | d) lies in their span
    exactly when d = c S.  Used for simulation scoring, never by the
    schemes under test.
    """
    f = generation.field
    s = generation.source_rows()
    g = generation.params.G
    w = f._arr(packet.wire())
    if w.shape != (g + s.shape[1],):
        raise ValueError("packet width does not match the generation")
    return bool(np.array_equal(f.matmul(w[None, :g], s)[0], w[g:]))


# -- conformance test vectors ------------------------------------------------


def _vector_verdict(row: np.ndarray, params: HashParams) -> str:
    """A record's verdict: whether payload | hash is hash-consistent."""
    return "accept" if hash_consistent(row[None, :], params) else "reject"


def write_hash_test_vectors(path, params: HashParams, k_data: int,
                            count: int, seed: int) -> int:
    """Write (payload, hash, verdict) conformance records as JSON lines.

    Half the records carry the true hash, half a perturbed one; the
    stored verdict is recomputed from the data so the file is
    self-consistent ground truth for any implementation.
    """
    f = params.field
    rng = np.random.default_rng(seed)
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(count):
            payload = f.random_elements(rng, k_data)
            h = gen_hash_append(payload, params)
            if i % 2:
                j = int(rng.integers(0, len(h)))
                bump = int(rng.integers(1, f.q))
                h = h.copy()
                h[j] = f.add(int(h[j]), bump)
            verdict = _vector_verdict(np.concatenate([payload, h]), params)
            rec = {
                "q": f.q,
                "k": params.k,
                "payload": [int(v) for v in payload],
                "hash": [int(v) for v in h],
                "verdict": verdict,
            }
            fh.write(json.dumps(rec) + "\n")
            n += 1
    return n


def check_hash_test_vectors(path, params: HashParams) -> tuple[int, int]:
    """Re-verify a conformance file; returns (matching, mismatching) counts."""
    ok = bad = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["q"] != params.field.q or rec["k"] != params.k:
                raise ValueError("test vectors use different hash parameters")
            row = params.field._arr(rec["payload"] + rec["hash"])
            if _vector_verdict(row, params) == rec["verdict"]:
                ok += 1
            else:
                bad += 1
    return ok, bad
