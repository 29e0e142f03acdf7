"""Scalar field arithmetic for the tests, independent of FieldSpec's tables.

GF(2^w) multiplies by carryless shift-and-xor with reduction by the
field's polynomial (bitpoly_mul); prime fields use Python's ``%``.  The
tests compare FieldSpec's array kernels against these, so a wrong table
or log/exp entry cannot also be the expected value.
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
