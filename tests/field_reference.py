"""Scalar field arithmetic and the row hash for the tests, independent of
FieldSpec's tables and of detect's hash.

GF(2^w) multiplies by carryless shift-and-xor with reduction by the
field's polynomial (bitpoly_mul); prime fields use Python's ``%``.  The
tests compare FieldSpec's array kernels against these, so a wrong table
or log/exp entry cannot also be the expected value.  row_hash and
hash_matches recompute the generation hash on this arithmetic, symbol by
symbol, as the oracle of detect.hash_consistent.
"""


def bitpoly_mul(a: int, b: int, poly: int, w: int) -> int:
    """Independent carryless multiply-and-reduce used as an oracle."""
    prod = 0
    shift = 0
    while b:
        if b & 1:
            prod ^= a << shift
        b >>= 1
        shift += 1
    deg = poly.bit_length() - 1
    while prod.bit_length() - 1 >= deg and prod:
        prod ^= poly << (prod.bit_length() - 1 - deg)
    return prod


class ScalarField:
    """add, sub, mul, pow and inv on Python ints in [0, q) of a FieldSpec's field."""

    def __init__(self, field):
        self.q, self.w, self.poly = field.q, field.w, field.poly

    def add(self, a: int, b: int) -> int:
        return a ^ b if self.w else (a + b) % self.q

    def sub(self, a: int, b: int) -> int:
        return a ^ b if self.w else (a - b) % self.q

    def mul(self, a: int, b: int) -> int:
        return bitpoly_mul(a, b, self.poly, self.w) if self.w else a * b % self.q

    def pow(self, a: int, e: int) -> int:
        """a**e by square and multiply, with 0**0 = 1."""
        out = 1
        while e:
            if e & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            e >>= 1
        return out

    def inv(self, a: int) -> int:
        """a**(q - 2), the inverse of a nonzero a; 0 is taken to 0."""
        return self.pow(a, self.q - 2) if a else 0


def row_hash(field, payload, k: int) -> list[int]:
    """The hash symbols of one payload row, symbol by symbol.

    Each block of k symbols x_1..x_k gives sum_i x_i^(i+1), each power
    by ScalarField.pow and the sum by ScalarField.add; a short last block
    just has fewer terms.
    """
    s = ScalarField(field)
    out = []
    for start in range(0, len(payload), k):
        acc = 0
        for e, x in enumerate(payload[start : start + k], start=2):
            acc = s.add(acc, s.pow(int(x), e))
        out.append(acc)
    return out


def hash_matches(field, rows, k: int) -> bool:
    """Whether every (payload | hash) row carries row_hash of its payload.

    A row of k_data payload symbols carries ceil(k_data / k) hash
    symbols, so its width fixes the split.  Stops at the first row that
    does not match.
    """
    width = len(rows[0])
    n_h = next(n for n in range(1, width) if -(-(width - n) // k) == n)
    return all(row_hash(field, row[: width - n_h], k) == [int(v) for v in row[width - n_h :]]
               for row in rows)
