"""Finite-field arithmetic and prime-order group arithmetic.

Two field kinds are supported:

* binary extension fields GF(2^w) for 2 <= w <= 16, each reduced modulo a
  fixed irreducible polynomial so that element encodings are stable
  across runs and implementations,
* prime fields GF(q) for prime q.

Scalar operations (``add``, ``mul``, ``inv``, ``pow``) take and return
reduced ints and, like the array ops, raise ValueError for elements
outside [0, q); the ``*_arr`` methods of :class:`FieldSpec` operate
elementwise on integer numpy arrays and are what the coding hot paths use.
GF(2^w) for w <= 8 keeps q x q product and power tables and a q-entry
inverse table, so a product, a power or an inverse is one gather; above
w = 8 the log/exp tables are gathered with ``take``, and a matmul gathers
its operands' logs once per call.  Prime fields up to 2^32 hold int64 arrays
and form products in uint64, exact because (q-1)^2 < 2^64; larger primes
fall back to Python ints in object arrays.  The multiplicative-group side
(:class:`GroupSpec`, :func:`make_group`) provides the prime-order subgroup
of Z_Q^* needed by the subspace signature scheme; its arithmetic is
Python's ``pow``.  :func:`make_group` draws its P candidates in blocks of
raw words and sieves them, and Q = k*P + 1 where only one even k fits, by
one gcd with the product of the odd primes below 2^9 before Miller-Rabin;
it then rewinds the generator to just past the chosen P, so its draws are
those of testing one candidate at a time.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
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

# Largest modulus whose elements stay in int64 arrays: products of two
# elements below 2^32 fit uint64.
_INT64_SAFE_Q = 1 << 32

# Largest w for which GF(2^w) keeps full q x q product and power tables
# (64 KiB each at w = 8; 4 GiB at w = 16, so log/exp serves w > 8).
_MUL_TABLE_MAX_W = 8

_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)

# psi_j (OEIS A014233): the least odd composite that is a strong pseudoprime
# to each of the first j prime bases (Jaeschke, Math. Comp. 1993; Sorenson
# & Webster, Math. Comp. 2017).  Below psi_j the first j bases decide.
_MILLER_RABIN_PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051,
    3825123056546413051, 3825123056546413051, 318665857834031151167461,
    3317044064679887385961981,
)


def _as_int(value, what: str) -> int:
    """value as a Python int; numpy integers pass, floats and strings do not."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{what} must be an integer, got {value!r}") from None


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test on a ladder of witness sets.

    n is tested against the first j bases of _MILLER_RABIN_BASES, j the
    smallest index with n < psi_j: 4 or 5 witnesses at 32/33 bits.
    Deterministic for n < psi_13 = 3317044064679887385961981 (about
    3.3e24); from there on all 14 bases, 2..43, make it a strong
    probable-prime test (error probability < 4^-14) that still rejects
    psi_13 itself.
    """
    n = _as_int(n, "n")
    if n < 2:
        return False
    for p in _MILLER_RABIN_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MILLER_RABIN_BASES[: bisect.bisect_right(_MILLER_RABIN_PSI, n) + 1]:
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


def _word_bits(bitgen) -> int:
    """Bits in one random_raw word of a numpy bit generator.

    MT19937 gives 32-bit words; PCG64, PCG64DXSM, Philox and SFC64 give
    64-bit ones.
    """
    return 32 if isinstance(bitgen, np.random.MT19937) else 64


def _randbelow(rng: np.random.Generator, n: int, size=None):
    """Uniform ints in [0, n) for any n >= 1: one int, or an array of size.

    An array with n <= 2^64 is one uint64 rng.integers call.  Otherwise each
    try joins ceil(bits / w) raw words of rng's bit generator, w its word
    width (_word_bits; a twentieth of the cost of an rng.bytes call),
    keeps bit_length(n - 1) bits and rejects values >= n, so a try
    succeeds with probability above 1/2.
    """
    if size is not None:
        if n <= 1 << 64:
            return rng.integers(0, n, size=size, dtype=np.uint64)
        out = np.empty(size, dtype=object)
        out.reshape(-1)[:] = [_randbelow(rng, n) for _ in range(out.size)]
        return out
    bits = (n - 1).bit_length()
    raw = rng.bit_generator.random_raw
    word = _word_bits(rng.bit_generator)
    while True:
        r = 0
        for _ in range(-(-bits // word)):
            r = r << word | raw()
        r &= (1 << bits) - 1
        if r < n:
            return r


class FieldSpec:
    """Arithmetic context for one finite field.

    Instances are immutable after construction and cached; obtain them via
    :func:`binary_field`, :func:`prime_field` or :func:`GF`.  Elements are
    reduced integer representatives in [0, q).  Arrays of them have dtype
    ``dtype``: uint8 for GF(2^w) with w <= 8, uint16 up to w = 16, int64
    for primes up to ``_INT64_SAFE_Q`` = 2^32 and Python ints (object)
    above.  int64 products are formed in uint64 and reduced there; sums
    stay below 2^33 and need no widening.

    GF(2^w) with w <= ``_MUL_TABLE_MAX_W`` carries three flat tables
    (Plank, Greenan & Miller, FAST 2013): products at (a << w) | b; powers
    at (r << w) | x, row r holding x^r for every x (row 0 all ones, so
    0^0 = 1, and 0^r = 0 for r > 0); and inverses, with 0 at index 0.
    The underscore operations (``_add``, ``_sub``, ``_mul``, ``_inv``,
    ``_pow``, ``_matmul``) take operands already in array form and skip
    conversion and checks; the public ``*_arr`` methods convert, check
    and call them.
    """

    def __init__(self, kind: str, q: int):
        q = _as_int(q, "field order")
        if kind == "binary-extension":
            w = q.bit_length() - 1
            if q != 1 << w or w not in IRREDUCIBLE_POLY:
                raise ValueError(f"unsupported binary field order {q}")
            self.w = w
            self.poly = IRREDUCIBLE_POLY[w]
            self.dtype = np.dtype(np.uint8 if w <= 8 else np.uint16)
            # Arrays of this dtype need no range check: it holds only [0, q).
            self._exact_dtype = self.dtype if self.dtype.itemsize * 8 == w else None
            self._build_tables()
        elif kind == "prime":
            if not is_prime(q):
                raise ValueError(f"{q} is not prime")
            self.w = 0
            self.poly = 0
            self.dtype = np.dtype(np.int64 if q <= _INT64_SAFE_Q else object)
            self._exact_dtype = None
            self._mul_table = self._pow_table = self._inv_table = None
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
        # Full product and power tables make a product or a power one
        # gather instead of two log gathers, an add and an exp gather, or
        # a log gather, a multiply, a modulo, an exp gather and two masks.
        # One byte per entry keeps each at 64 KiB for w = 8.
        self._mul_table = self._pow_table = self._inv_table = None
        if self.w <= _MUL_TABLE_MAX_W:
            table = np.empty(q * q, dtype=np.uint8)
            for a in range(q):  # row by row: no q x q index temporary
                table[a * q : (a + 1) * q] = exp[log[a] + log]
            self._mul_table = table
            # log[0]'s sentinel times r is 0 mod q - 1, so column 0 reads
            # exp[0] = 1: right in row 0 (0^0 = 1), cleared below it.
            powers = exp[np.arange(q)[:, None] * log % (q - 1)]
            powers[1:, 0] = 0
            self._pow_table = powers.ravel()
            inverses = np.zeros(q, dtype=np.uint8)
            inverses[1:] = exp[(q - 1) - log[1:]]
            self._inv_table = inverses

    # -- scalar operations -------------------------------------------------

    def _scalar(self, a) -> int:
        """a as a Python int, checked by _elements to lie in [0, q)."""
        if type(a) is int and 0 <= a < self.q:
            return a
        return int(self._elements(a))

    def add(self, a: int, b: int) -> int:
        a, b = self._scalar(a), self._scalar(b)
        if self.kind == "binary-extension":
            return a ^ b
        return (a + b) % self.q

    def mul(self, a: int, b: int) -> int:
        a, b = self._scalar(a), self._scalar(b)
        if self.kind == "binary-extension":
            if a == 0 or b == 0:
                return 0
            return int(self._exp[self._log[a] + self._log[b]])
        return a * b % self.q

    def inv(self, a: int) -> int:
        a = self._scalar(a)
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        if self.kind == "binary-extension":
            return int(self._exp[(self.q - 1) - self._log[a]])
        return pow(a, self.q - 2, self.q)

    def pow(self, a: int, e: int) -> int:
        """a**e with the convention 0**0 = 1."""
        a = self._scalar(a)
        if e < 0:
            raise ValueError("negative exponent")
        if e == 0:
            return 1
        if a == 0:
            return 0
        if self.kind == "binary-extension":
            # Reducing e first keeps log(a) * e below 2^32.
            return int(self._exp[self._log[a] * (e % (self.q - 1)) % (self.q - 1)])
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

    def _elements(self, x) -> np.ndarray:
        """x in array form for the public ops, checked to lie in [0, q).

        Entries outside [0, q) would wrap in the cast, index past the
        tables or, in a uint64 product, read as huge residues, so they
        raise ValueError naming the field.  In-range Python ints and
        arrays whose dtype holds exactly [0, q) (uint8 at w = 8, uint16 at
        w = 16) pass without a scan.
        """
        if type(x) is np.ndarray and x.dtype is self._exact_dtype:
            return x
        if type(x) is int:
            if 0 <= x < self.q:
                return np.asarray(x, dtype=self.dtype)
        else:
            a = np.asarray(x)
            if a.size == 0 or (
                a.dtype.kind in "buiO"
                and (a.dtype.kind in "bu" or a.min() >= 0)
                and a.max() < self.q
            ):
                return self._arr(a)
        raise ValueError(f"{self!r} elements must be integers in [0, {self.q})")

    def add_arr(self, a, b) -> np.ndarray:
        return self._add(self._elements(a), self._elements(b))

    def sub_arr(self, a, b) -> np.ndarray:
        return self._sub(self._elements(a), self._elements(b))

    def mul_arr(self, a, b) -> np.ndarray:
        return self._mul(self._elements(a), self._elements(b))

    def pow_arr(self, a, e) -> np.ndarray:
        """Elementwise a**e; e may be a scalar or an array of exponents >= 0.

        Follows the same 0**0 = 1 convention as :meth:`pow`.
        """
        e = np.asarray(e, dtype=np.int64)
        if np.any(e < 0):
            raise ValueError("negative exponent")
        return self._pow(self._elements(a), e)

    def _add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.kind == "binary-extension":
            return a ^ b
        return (a + b) % self.q

    def _sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.kind == "binary-extension":
            return a ^ b
        return (a - b) % self.q

    def _mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self._mul_table is not None:
            # Table indices stay below 2^16, so the index pass can write
            # uint16; take() gathers with such an index much faster than
            # fancy indexing does.
            return self._mul_table.take(np.left_shift(a, self.w, dtype=np.uint16) | b)
        if self.kind == "binary-extension":
            # Gathering logs before broadcasting keeps a scalar-times-row
            # product at two full-size passes.
            return self._exp.take(self._log.take(a) + self._log.take(b))
        if self.dtype == object:
            return a * b % self.q
        # Reduced operands are below 2^32, so the uint64 product is exact;
        # the reduced result is below 2^32 again and views back as int64.
        prod = np.multiply(a, b, dtype=np.uint64, casting="unsafe")
        prod %= np.uint64(self.q)
        return prod.view(np.int64)

    def _inv(self, a: np.ndarray) -> np.ndarray:
        """Elementwise inverse, with 0 taken to 0 rather than rejected."""
        if self._inv_table is not None:
            return self._inv_table.take(a)
        if self.kind == "binary-extension":
            # log[0] = 2(q-1) makes the index -(q-1), which take() reads
            # from the end of exp, inside its run of zeros.
            return self._exp.take((self.q - 1) - self._log.take(a))
        flat = [pow(int(v), self.q - 2, self.q) for v in np.ravel(a)]
        return self._arr(flat).reshape(np.shape(a))

    def _pow(self, a: np.ndarray, e: np.ndarray) -> np.ndarray:
        """Elementwise a**e for int64 exponents e >= 0, broadcast against a."""
        if self.kind == "binary-extension":
            # x^e = x^r for r = ((e - 1) mod (q - 1)) + 1 when e > 0; r >= 1
            # keeps 0^e = 0, and r = q - 1 gives x^(k(q-1)) = 1 for x != 0.
            r = np.where(e > 0, (e - 1) % (self.q - 1) + 1, 0)
            if self._pow_table is not None:
                return self._pow_table.take(np.left_shift(r, self.w).astype(np.uint16) | a)
            # log(a) * r = hi * 2^w + lo is hi + lo mod q - 1, and for a != 0
            # hi + lo < 2(q-1), inside exp's periodic run: one fold, in
            # place, instead of a modulo.  a = 0 stays in bounds, masked.
            idx = self._log.take(a) * r
            hi = idx >> self.w
            idx &= self.q - 1
            idx += hi
            return np.where((a == 0) & (r > 0), 0, self._exp.take(idx))
        a, e = np.broadcast_arrays(a, e)
        out = np.ones_like(a)
        base = a.copy()
        e = e.copy()
        while np.any(e > 0):
            odd = (e & 1) == 1
            out[odd] = self._mul(out[odd], base[odd])
            e >>= 1
            live = e > 0
            base[live] = self._mul(base[live], base[live])
        return out

    def matmul(self, a, b) -> np.ndarray:
        """Matrix product over the field; a is (..., r, m), b is (..., m, c).

        Leading batch axes broadcast as in numpy's matmul, so T products
        of a stack of T generations take one call.
        """
        a, b = self._elements(a), self._elements(b)
        if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
            raise ValueError(f"cannot multiply shapes {a.shape} and {b.shape}")
        return self._matmul(a, b)

    def _matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """matmul on operands already in this field's array form.

        Accumulates over the inner axis one index at a time, so no
        (..., r, m, c) temporary is built; each partial product is reduced
        before it is added, so int64 cannot overflow.  Above w = 8 both
        operands' logs are gathered once per call, so an inner index costs
        one add, one exp gather and one in-place XOR.
        """
        if self.dtype == object:
            return (a @ b) % self.q  # exact Python ints
        m = a.shape[-1]
        if m == 0:
            shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
            return np.zeros(shape + (a.shape[-2], b.shape[-1]), dtype=self.dtype)
        if self._mul_table is None and self.kind == "binary-extension":
            la, lb = self._log.take(a), self._log.take(b)
            out = self._exp.take(la[..., :, :1] + lb[..., :1, :])
            for j in range(1, m):
                out ^= self._exp.take(la[..., :, j : j + 1] + lb[..., j : j + 1, :])
            return out
        out = self._mul(a[..., :, :1], b[..., :1, :])
        for j in range(1, m):
            out = self._add(out, self._mul(a[..., :, j : j + 1], b[..., j : j + 1, :]))
        return out

    def random_elements(self, rng: np.random.Generator, size) -> np.ndarray:
        return self._arr(_randbelow(rng, self.q, size))

    # -- identity -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldSpec)
            and self.kind == other.kind
            and self.q == other.q
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.q))

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


# Typed caches: 8.0 must not find the entry for 8, nor 7.0 that for 7.
@functools.lru_cache(maxsize=None, typed=True)
def binary_field(w: int) -> FieldSpec:
    """GF(2^w) with the module's fixed irreducible polynomial."""
    return FieldSpec("binary-extension", 1 << _as_int(w, "extension degree"))


# Every signature run draws a fresh group order, so prime fields, which
# carry no tables, are kept only for the most recently used orders.
@functools.lru_cache(maxsize=256, typed=True)
def prime_field(q: int) -> FieldSpec:
    return FieldSpec("prime", q)


def GF(q: int) -> FieldSpec:
    """Field of order q: a power of two gives GF(2^w), a prime gives GF(q)."""
    q = _as_int(q, "field order")
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


def check_group_bits(bits_p: int, bits_q: int) -> tuple[int, int]:
    """bits_p and bits_q as ints; ValueError unless make_group accepts them."""
    bits_p, bits_q = _as_int(bits_p, "bits_p"), _as_int(bits_q, "bits_q")
    if bits_p < 8:
        raise ValueError("bits_p must be >= 8")
    if bits_q <= bits_p:
        raise ValueError("bits_q must exceed bits_p")
    return bits_p, bits_q


# make_group draws its P candidates _P_BLOCK at a time, in one random_raw
# call, and sieves them before any Miller-Rabin test: an n >= _SIEVE_LIMIT
# that shares a factor with the product of the odd primes below it is
# composite, which one gcd shows.
_P_BLOCK = 64
_SIEVE_LIMIT = 1 << 9
_SIEVE_PRIMORIAL = math.prod(p for p in range(3, _SIEVE_LIMIT, 2) if is_prime(p))


def _sieved_out(n: int) -> bool:
    """True when n >= _SIEVE_LIMIT has an odd prime factor below it."""
    return n >= _SIEVE_LIMIT and math.gcd(n, _SIEVE_PRIMORIAL) != 1


def _draw_p(bitgen, bits_p: int, bits_q: int) -> tuple[int, int, int]:
    """The next prime P of the search, with k_lo and the number of even k.

    Each candidate is what _randbelow(rng, 2^(bits_p - 1)) gives, one try
    of ceil((bits_p - 1) / w) raw words of the bit generator's width w
    joined high-first, with the top and low bits set.  A block of
    candidates is drawn at once and sieved; when only k_lo fits,
    Q = k_lo * P + 1 is sieved and tested here too (Wiener, IACR ePrint
    2003/186), since the k search draws nothing for it.  Before
    returning, the bit generator is put back to its state before the
    block and advanced past the words up to P alone, so its draws are the
    ones the candidate-by-candidate search made.
    """
    top = 1 << (bits_p - 1)
    word_bytes = _word_bits(bitgen) // 8
    words = -(-(bits_p - 1) // (8 * word_bytes))
    while True:
        state = bitgen.state
        raw = bitgen.random_raw(_P_BLOCK * words)
        if words == 1:
            draws = raw.tolist()
        else:  # each candidate's words joined high word first
            buf = raw.astype(f">u{word_bytes}").tobytes()
            step = word_bytes * words
            draws = [
                int.from_bytes(buf[j : j + step], "big")
                for j in range(0, len(buf), step)
            ]
        for i, r in enumerate(draws):
            p = top | (r & (top - 1)) | 1
            if _sieved_out(p):
                continue
            k_lo = -(-(1 << (bits_q - 1)) // p)  # ceil
            k_lo += k_lo % 2  # Q odd needs k even
            evens = (((1 << bits_q) - 1) // p - k_lo) // 2 + 1
            if evens == 1:
                q = k_lo * p + 1
                if _sieved_out(q) or not is_prime(p) or not is_prime(q):
                    continue
            elif not is_prime(p):
                continue
            bitgen.state = state
            bitgen.random_raw((i + 1) * words)
            return p, k_lo, evens


def make_group(bits_p: int, bits_q: int, rng: np.random.Generator) -> GroupSpec:
    """Generate a GroupSpec with P of bits_p bits and Q of bits_q bits.

    Draws P prime, then searches Q = k*P + 1 prime over the even k that
    put Q in the requested size, then derives a generator of the order-P
    subgroup.  P candidates are drawn in blocks of raw words and sieved
    by small primes before Miller-Rabin; when k = k_lo is the only fit
    (every 32/33-bit group, where Q = 2P + 1 is a safe prime), k_lo*P + 1
    is sieved with them.  The generator is then rewound to just past the
    chosen P, so the draws, and the group, are those of drawing and
    testing one candidate at a time.  Every draw comes from rng, so equal
    generator states give equal groups.  Requests at cryptographic sizes
    (e.g. 160/1024 bits) are honored but slow; a warning marks that path.
    """
    bits_p, bits_q = check_group_bits(bits_p, bits_q)
    if not isinstance(rng, np.random.Generator):
        raise TypeError(f"rng must be a numpy Generator, got {type(rng).__name__}")
    if bits_q >= 512:
        warnings.warn(
            f"group generation at {bits_p}/{bits_q} bits is a slow path",
            stacklevel=2,
        )

    while True:
        p, k_lo, evens = _draw_p(rng.bit_generator, bits_p, bits_q)
        if evens == 1:
            k = k_lo  # _draw_p has found k_lo * p + 1 prime already
        else:
            # Narrow k ranges redraw the same candidate, so known
            # composites are not retested.
            composite = set()
            while len(composite) < evens:
                k = k_lo + 2 * _randbelow(rng, evens)
                if k in composite:
                    continue
                if is_prime(k * p + 1):
                    break
                composite.add(k)
            else:
                continue  # every even k is composite: draw the next P
        q = k * p + 1
        cofactor = (q - 1) // p
        while True:
            g = pow(2 + _randbelow(rng, q - 3), cofactor, q)
            if g != 1:
                return GroupSpec(modulus=q, order=p, generator=g)
