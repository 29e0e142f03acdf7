"""Finite-field arithmetic and prime-order group arithmetic.

Two field kinds are supported:

* binary extension fields GF(2^w) for 2 <= w <= 16, each reduced modulo a
  fixed irreducible polynomial so that element encodings and test vectors
  are stable across runs and implementations,
* prime fields GF(q) for prime q.

Scalar operations (``add``, ``mul``, ``inv``, ``pow``) take and return
reduced ints; the ``*_arr`` methods of :class:`FieldSpec` operate
elementwise on integer numpy arrays and are what the coding hot paths use.
GF(2^w) products come from one q x q table for w <= 8 and from log/exp
tables above that.  The multiplicative-group side (:class:`GroupSpec`,
:func:`make_group`) provides the prime-order subgroup of Z_Q^* needed by
the subspace signature scheme; its arithmetic is Python's ``pow``.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass

import numpy as np

# Irreducible polynomials over GF(2), one per extension degree w.
# Bit i of the constant is the coefficient of x^i.  w=8 is the AES
# polynomial x^8 + x^4 + x^3 + x + 1; the others are standard
# minimal-weight choices.
IRREDUCIBLE_POLY = {
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011011,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
    14: 0b100010001000011,
    15: 0b1000000000000011,
    16: 0b10001000000001011,
}

# Largest prime modulus for which int64 products cannot overflow.
_INT64_SAFE_Q = 3_037_000_499

# Largest w for which GF(2^w) keeps a full q x q product table (64 KiB at
# w = 8; 4 GiB at w = 16, so log/exp serves w > 8).
_MUL_TABLE_MAX_W = 8

_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test.

    Deterministic for n < 3.3e24 with the fixed witness set; a strong
    probable-prime test beyond that (error probability < 4^-12).
    """
    if n < 2:
        return False
    for p in _MILLER_RABIN_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _carryless_mul_mod(a: int, b: int, poly: int, w: int) -> int:
    """Polynomial multiplication of a and b modulo poly, over GF(2)."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> w:
            a ^= poly
    return r


class FieldSpec:
    """Arithmetic context for one finite field.

    Instances are immutable after construction and cached; obtain them via
    :func:`binary_field`, :func:`prime_field` or :func:`GF`.  Elements are
    reduced integer representatives in [0, q).  Arrays of them have dtype
    ``dtype``: uint8 for GF(2^w) with w <= 8, uint16 up to w = 16, int64
    for primes up to ``_INT64_SAFE_Q`` and Python ints (object) above.
    """

    def __init__(self, kind: str, q: int, poly: int = 0):
        if kind == "binary-extension":
            w = q.bit_length() - 1
            if q != 1 << w or w not in IRREDUCIBLE_POLY:
                raise ValueError(f"unsupported binary field order {q}")
            self.w = w
            self.poly = poly or IRREDUCIBLE_POLY[w]
            self.dtype = np.dtype(np.uint8 if w <= 8 else np.uint16)
            self._build_tables()
        elif kind == "prime":
            if not is_prime(q):
                raise ValueError(f"{q} is not prime")
            self.w = 0
            self.poly = 0
            self.dtype = np.dtype(np.int64 if q <= _INT64_SAFE_Q else object)
            self._mul_table = None
        else:
            raise ValueError(f"unknown field kind {kind!r}")
        self.kind = kind
        self.q = q

    def _build_tables(self) -> None:
        q = 1 << self.w
        # Find a generator of the multiplicative group.  The modulus
        # polynomial need not be primitive (the AES one is not), so try
        # small candidates and check the order via the factors of q-1.
        factors = _prime_factors(q - 1)
        g = 0
        for cand in range(2, q):
            if all(
                _poly_pow(cand, (q - 1) // f, self.poly, self.w) != 1
                for f in factors
            ):
                g = cand
                break
        # exp covers log sums up to 2(q-2); log[0] = 2(q-1) points past
        # them into a run of zeros, so exp[log[a] + log[b]] is 0 whenever
        # a or b is, without a mask.
        exp = np.zeros(4 * (q - 1) + 1, dtype=self.dtype)
        log = np.zeros(q, dtype=np.int64)
        x = 1
        for i in range(q - 1):
            exp[i] = x
            log[x] = i
            x = _carryless_mul_mod(x, g, self.poly, self.w)
        exp[q - 1 : 2 * (q - 1)] = exp[: q - 1]
        log[0] = 2 * (q - 1)
        self._exp = exp
        self._log = log
        self.generator = g
        # A full product table, flat and indexed by (a << w) | b, makes a
        # product one gather instead of two log gathers, an add and an exp
        # gather (Plank, Greenan & Miller, FAST 2013).  One byte per entry
        # keeps it at 64 KiB for w = 8.
        self._mul_table = None
        if self.w <= _MUL_TABLE_MAX_W:
            table = np.empty(q * q, dtype=np.uint8)
            for a in range(q):  # row by row: no q x q index temporary
                table[a * q : (a + 1) * q] = exp[log[a] + log]
            self._mul_table = table

    # -- scalar operations -------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.kind == "binary-extension":
            return a ^ b
        return (a + b) % self.q

    def sub(self, a: int, b: int) -> int:
        if self.kind == "binary-extension":
            return a ^ b
        return (a - b) % self.q

    def neg(self, a: int) -> int:
        if self.kind == "binary-extension":
            return a
        return (-a) % self.q

    def mul(self, a: int, b: int) -> int:
        if self.kind == "binary-extension":
            if a == 0 or b == 0:
                return 0
            return int(self._exp[self._log[a] + self._log[b]])
        return a * b % self.q

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        if self.kind == "binary-extension":
            return int(self._exp[(self.q - 1) - self._log[a]])
        return pow(a, self.q - 2, self.q)

    def pow(self, a: int, e: int) -> int:
        """a**e with the convention 0**0 = 1."""
        if e < 0:
            raise ValueError("negative exponent")
        if e == 0:
            return 1
        if a == 0:
            return 0
        if self.kind == "binary-extension":
            return int(self._exp[self._log[a] * e % (self.q - 1)])
        return pow(a, e, self.q)

    # -- array operations ---------------------------------------------------

    def _arr(self, x) -> np.ndarray:
        if self.dtype != object:
            return np.asarray(x, dtype=self.dtype)
        a = np.asarray(x, dtype=object)
        # Force Python-int elements: np.int64 objects would wrap silently
        # when products exceed 64 bits.
        out = np.array([int(v) for v in a.ravel()], dtype=object)
        return out.reshape(a.shape)

    def add_arr(self, a, b) -> np.ndarray:
        a, b = self._arr(a), self._arr(b)
        if self.kind == "binary-extension":
            return a ^ b
        return (a + b) % self.q

    def sub_arr(self, a, b) -> np.ndarray:
        a, b = self._arr(a), self._arr(b)
        if self.kind == "binary-extension":
            return a ^ b
        return (a - b) % self.q

    def mul_arr(self, a, b) -> np.ndarray:
        a, b = self._arr(a), self._arr(b)
        if self._mul_table is not None:
            return self._mul_table[np.left_shift(a, self.w, dtype=np.intp) | b]
        if self.kind == "binary-extension":
            # Gathering logs before broadcasting keeps a scalar-times-row
            # product at two full-size passes.
            return self._exp[self._log[a] + self._log[b]]
        return a * b % self.q

    def inv_arr(self, a) -> np.ndarray:
        a = self._arr(a)
        if np.any(a == 0):
            raise ZeroDivisionError("zero has no multiplicative inverse")
        if self.kind == "binary-extension":
            return self._exp[(self.q - 1) - self._log[a]]
        flat = [pow(int(v), self.q - 2, self.q) for v in np.ravel(a)]
        return self._arr(flat).reshape(np.shape(a))

    def pow_arr(self, a, e) -> np.ndarray:
        """Elementwise a**e; e may be a scalar or an array of exponents >= 0.

        Follows the same 0**0 = 1 convention as :meth:`pow`.
        """
        a = self._arr(a)
        e = np.asarray(e, dtype=np.int64)
        if np.any(e < 0):
            raise ValueError("negative exponent")
        if self.kind == "binary-extension":
            a, e = np.broadcast_arrays(a, e)
            idx = self._log[a]  # a fresh array: reduce it in place
            idx *= e
            idx %= self.q - 1
            out = self._exp[idx]
            out[(a == 0) & (e > 0)] = 0
            out[e == 0] = 1
            return out
        a, e = np.broadcast_arrays(a, e)
        out = np.ones_like(a)
        base = a.copy()
        e = e.copy()
        while np.any(e > 0):
            odd = (e & 1) == 1
            out[odd] = self.mul_arr(out[odd], base[odd])
            e >>= 1
            live = e > 0
            base[live] = self.mul_arr(base[live], base[live])
        return out

    def matmul(self, a, b) -> np.ndarray:
        """Matrix product over the field; a is (..., r, m), b is (..., m, c).

        Leading batch axes broadcast as in numpy's matmul, so T products
        of a stack of T generations take one call.
        """
        a, b = self._arr(a), self._arr(b)
        if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
            raise ValueError(f"cannot multiply shapes {a.shape} and {b.shape}")
        return self._matmul(a, b)

    def _matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """matmul on operands already in this field's array form.

        Accumulates over the inner axis one index at a time, so no
        (..., r, m, c) temporary is built; each partial product is reduced
        before it is added, so int64 cannot overflow.
        """
        if self.dtype == object:
            return (a @ b) % self.q  # exact Python ints
        m = a.shape[-1]
        if m == 0:
            shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
            return np.zeros(shape + (a.shape[-2], b.shape[-1]), dtype=self.dtype)
        out = self.mul_arr(a[..., :, :1], b[..., :1, :])
        for j in range(1, m):
            out = self.add_arr(out, self.mul_arr(a[..., :, j : j + 1],
                                                 b[..., j : j + 1, :]))
        return out

    def random_elements(self, rng: np.random.Generator, size) -> np.ndarray:
        vals = rng.integers(0, self.q, size=size, dtype=np.uint64)
        return self._arr(vals.astype(object) if self.dtype == object else vals)

    def random_nonzero(self, rng: np.random.Generator, size) -> np.ndarray:
        vals = rng.integers(1, self.q, size=size, dtype=np.uint64)
        return self._arr(vals.astype(object) if self.dtype == object else vals)

    # -- identity -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldSpec)
            and self.kind == other.kind
            and self.q == other.q
            and self.poly == other.poly
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.q, self.poly))

    def __repr__(self) -> str:
        if self.kind == "binary-extension":
            return f"GF(2^{self.w})"
        return f"GF({self.q})"


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _poly_pow(a: int, e: int, poly: int, w: int) -> int:
    r = 1
    while e:
        if e & 1:
            r = _carryless_mul_mod(r, a, poly, w)
        a = _carryless_mul_mod(a, a, poly, w)
        e >>= 1
    return r


_FIELD_CACHE: dict[tuple, FieldSpec] = {}


def binary_field(w: int) -> FieldSpec:
    """GF(2^w) with the module's fixed irreducible polynomial."""
    key = ("binary-extension", 1 << w)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = FieldSpec("binary-extension", 1 << w)
    return _FIELD_CACHE[key]


def prime_field(q: int) -> FieldSpec:
    key = ("prime", q)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = FieldSpec("prime", q)
    return _FIELD_CACHE[key]


def GF(q: int) -> FieldSpec:
    """Field of order q: a power of two gives GF(2^w), a prime gives GF(q)."""
    if q > 2 and q & (q - 1) == 0:
        return binary_field(q.bit_length() - 1)
    return prime_field(q)


@dataclass(frozen=True)
class GroupSpec:
    """Prime-order subgroup of Z_Q^*: g generates the order-P subgroup."""

    modulus: int  # Q, odd prime
    order: int  # P, prime divisor of Q-1
    generator: int  # g, multiplicative order P mod Q

    def __post_init__(self):
        q, p, g = self.modulus, self.order, self.generator
        if not (is_prime(q) and q % 2 == 1):
            raise ValueError("modulus must be an odd prime")
        if not is_prime(p) or (q - 1) % p != 0:
            raise ValueError("order must be a prime divisor of modulus-1")
        if g % q in (0, 1) or pow(g, p, q) != 1:
            raise ValueError("generator must have multiplicative order P")

    @property
    def element_bits(self) -> int:
        return (self.modulus - 1).bit_length()


def make_group(bits_p: int, bits_q: int, rng: random.Random | int) -> GroupSpec:
    """Generate a GroupSpec with P of bits_p bits and Q of bits_q bits.

    Draws P prime, then searches Q = k*P + 1 prime in the requested size,
    then derives a generator of the order-P subgroup.  Deterministic for a
    given rng state.  Requests at cryptographic sizes (e.g. 160/1024 bits)
    are honored but slow; a warning marks that path.
    """
    if bits_p < 8:
        raise ValueError("bits_p must be >= 8")
    if bits_q <= bits_p:
        raise ValueError("bits_q must exceed bits_p")
    if bits_q >= 512:
        warnings.warn(
            f"group generation at {bits_p}/{bits_q} bits is a slow path",
            stacklevel=2,
        )
    if isinstance(rng, int):
        rng = random.Random(rng)

    while True:
        p = rng.getrandbits(bits_p) | (1 << (bits_p - 1)) | 1
        if not is_prime(p):
            continue
        k_lo = -(-(1 << (bits_q - 1)) // p)  # ceil
        k_hi = ((1 << bits_q) - 1) // p
        k_lo += k_lo % 2  # Q odd needs k even
        if k_lo > k_hi:
            continue
        q = 0
        for _ in range(4 * bits_q):
            k = rng.randrange(k_lo, k_hi + 1)
            k -= k % 2
            if k < k_lo:
                continue
            cand = k * p + 1
            if is_prime(cand):
                q = cand
                break
        if not q:
            continue
        cofactor = (q - 1) // p
        while True:
            h = rng.randrange(2, q - 1)
            g = pow(h, cofactor, q)
            if g != 1:
                return GroupSpec(modulus=q, order=p, generator=g)
