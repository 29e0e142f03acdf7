"""Field and group arithmetic tests.

Field axioms are exercised on >= 10^4 random triples per configured
field, vectorized; scalar reference values were computed by hand or by
the brute-force helpers below.
"""

import random

import numpy as np
import pytest

from ncdetect import algebra
from ncdetect.algebra import (
    _INT64_SAFE_Q,
    GF,
    GroupSpec,
    IRREDUCIBLE_POLY,
    binary_field,
    is_prime,
    make_group,
    prime_field,
)

FIELDS = [
    binary_field(4),
    binary_field(7),
    binary_field(8),
    prime_field(127),
    prime_field(2**31 - 1),  # largest int64-safe Mersenne prime
]


def _prime_near(q: int, step: int) -> int:
    while not is_prime(q):
        q += step
    return q


# FIELDS plus every other binary field, and primes on both sides of the
# int64 limit (the object-dtype path lies above it).
AXIOM_FIELDS = (
    FIELDS
    + [binary_field(w) for w in range(2, 17) if w not in (4, 7, 8)]
    + [prime_field(q) for q in (2, 257, _prime_near(_INT64_SAFE_Q, -1),
                                _prime_near(_INT64_SAFE_Q + 1, 1))]
)


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


def test_char2_self_inverse_and_identity():
    f = binary_field(8)
    rng = np.random.default_rng(0)
    a = f.random_elements(rng, 1000)
    assert np.all(f.add_arr(a, a) == 0)
    assert np.all(f.add_arr(a, np.zeros(1000, dtype=np.int64)) == a)


def test_prime_add_example():
    f = prime_field(127)
    assert f.add(100, 50) == 23


def test_mul_identities():
    for f in FIELDS:
        rng = np.random.default_rng(1)
        a = f.random_elements(rng, 500)
        assert np.all(f.mul_arr(a, np.ones(500, dtype=np.int64)) == a)
        assert np.all(f.mul_arr(a, np.zeros(500, dtype=np.int64)) == 0)


def test_aes_field_inverse_pair():
    # 0xCA is the inverse of 0x53 under x^8+x^4+x^3+x+1; checked against
    # the independent bit-polynomial oracle.
    f = binary_field(8)
    assert f.poly == 0b100011011
    assert f.mul(0x53, 0xCA) == 1
    assert bitpoly_mul(0x53, 0xCA, f.poly, 8) == 1


def test_mul_matches_bitpoly_oracle():
    f = binary_field(8)
    rng = np.random.default_rng(2)
    for _ in range(500):
        a = int(rng.integers(0, 256))
        b = int(rng.integers(0, 256))
        assert f.mul(a, b) == bitpoly_mul(a, b, f.poly, 8)


def test_inverse_values():
    assert prime_field(127).inv(2) == 64
    for f in FIELDS:
        assert f.inv(1) == 1
        rng = np.random.default_rng(3)
        a = f.random_nonzero(rng, 200)
        assert np.all(f.mul_arr(a, f.inv_arr(a)) == 1)


def test_inv_zero_raises():
    for f in FIELDS:
        with pytest.raises(ZeroDivisionError):
            f.inv(0)
        with pytest.raises(ZeroDivisionError):
            f.inv_arr(np.array([1, 0, 2]))


def test_pow_conventions():
    for f in FIELDS:
        assert f.pow(0, 0) == 1  # total hash polynomials need 0^0 = 1
        assert f.pow(0, 5) == 0
        rng = np.random.default_rng(4)
        a = f.random_elements(rng, 100)
        assert np.all(f.pow_arr(a, 0) == 1)
        assert np.all(f.pow_arr(a, 1) == a)


def test_pow_group_order():
    f = binary_field(8)
    a = np.arange(1, 256)
    assert np.all(f.pow_arr(a, 255) == 1)


def test_pow_additive_in_exponent():
    for f in FIELDS:
        rng = np.random.default_rng(5)
        a = f.random_elements(rng, 200)
        i = rng.integers(0, 50, 200)
        j = rng.integers(0, 50, 200)
        left = f.pow_arr(a, i + j)
        right = f.mul_arr(f.pow_arr(a, i), f.pow_arr(a, j))
        # 0^0 = 1 makes a=0, i=j=0 consistent on both sides
        assert np.all(left == right)


@pytest.mark.parametrize("f", AXIOM_FIELDS, ids=repr)
def test_field_axioms_random_triples(f):
    rng = np.random.default_rng(6)
    count = 10_000
    a = f.random_elements(rng, count)
    b = f.random_elements(rng, count)
    c = f.random_elements(rng, count)
    assert np.all(f.add_arr(a, b) == f.add_arr(b, a))
    assert np.all(f.mul_arr(a, b) == f.mul_arr(b, a))
    assert np.all(
        f.add_arr(f.add_arr(a, b), c) == f.add_arr(a, f.add_arr(b, c))
    )
    assert np.all(
        f.mul_arr(f.mul_arr(a, b), c) == f.mul_arr(a, f.mul_arr(b, c))
    )
    assert np.all(
        f.mul_arr(a, f.add_arr(b, c))
        == f.add_arr(f.mul_arr(a, b), f.mul_arr(a, c))
    )
    assert np.all(f.add_arr(a, f.neg(0) * np.zeros_like(a)) == a)
    nz = f.random_nonzero(rng, count)
    assert np.all(f.mul_arr(nz, f.inv_arr(nz)) == 1)
    # subtraction really is the additive inverse
    assert np.all(f.add_arr(f.sub_arr(a, b), b) == a)


def test_object_dtype_prime_field_paths():
    # Order above the int64-safe threshold exercises the object-dtype path.
    q = 4294967311  # first prime above 2^32
    assert is_prime(q)
    f = prime_field(q)
    rng = np.random.default_rng(7)
    a = f.random_elements(rng, 300)
    b = f.random_elements(rng, 300)
    assert f.mul_arr(a, b).dtype == object
    assert np.all(f.mul_arr(a, b) == [(int(x) * int(y)) % q for x, y in zip(a, b)])
    nz = f.random_nonzero(rng, 50)
    assert np.all(f.mul_arr(nz, f.inv_arr(nz)) == 1)


def test_object_dtype_accepts_int64_input_exactly():
    # int64 arrays fed into a big-prime field must not wrap: elements are
    # rehomed as Python ints before multiplication.
    q = 4294967311
    f = prime_field(q)
    big = np.array([q - 1, q - 2, 3_000_000_000], dtype=np.int64)
    got = f.mul_arr(big, big)
    expect = [(int(v) * int(v)) % q for v in big]
    assert got.tolist() == expect
    mat = f.matmul(big[None, :], big[:, None])
    assert int(mat[0, 0]) == sum((int(v) * int(v)) for v in big) % q


def test_unsupported_fields_rejected():
    with pytest.raises(ValueError):
        prime_field(8)
    with pytest.raises(ValueError):
        algebra.FieldSpec("binary-extension", 3 * 64)
    with pytest.raises(ValueError):
        algebra.FieldSpec("weird", 7)
    with pytest.raises(ValueError):
        binary_field(17)


def test_irreducible_polynomials_pass_rabin():
    # Independent Rabin irreducibility test over GF(2).
    def pmod(a, f):
        deg = f.bit_length() - 1
        while a and a.bit_length() - 1 >= deg:
            a ^= f << (a.bit_length() - 1 - deg)
        return a

    def pmul(a, b, f):
        r = 0
        s = 0
        while b:
            if b & 1:
                r ^= a << s
            b >>= 1
            s += 1
        return pmod(r, f)

    def ppow(a, e, f):
        r = 1
        while e:
            if e & 1:
                r = pmul(r, a, f)
            a = pmul(a, a, f)
            e >>= 1
        return r

    def pgcd(a, b):
        while b:
            a, b = b, pmod(a, b)
        return a

    for w, poly in IRREDUCIBLE_POLY.items():
        assert poly.bit_length() - 1 == w
        assert ppow(0b10, 2**w, poly) == pmod(0b10, poly)
        primes = [p for p in range(2, w + 1)
                  if w % p == 0 and all(p % d for d in range(2, p))]
        for p in primes:
            assert pgcd(poly, ppow(0b10, 2 ** (w // p), poly) ^ 0b10) == 1


def test_gf_dispatch():
    assert GF(256) is binary_field(8)
    assert GF(128) is binary_field(7)
    assert GF(127) is prime_field(127)
    assert repr(GF(256)) == "GF(2^8)"


def test_make_group_small():
    g = make_group(8, 16, rng=99)
    assert is_prime(g.order) and is_prime(g.modulus)
    assert (g.modulus - 1) % g.order == 0
    assert pow(g.generator, g.order, g.modulus) == 1
    assert g.generator % g.modulus != 1
    assert g.modulus.bit_length() == 16 and g.order.bit_length() == 8


def test_make_group_deterministic():
    assert make_group(10, 20, rng=5) == make_group(10, 20, rng=5)


def test_safe_prime_shortcut_group():
    # Q = 2P + 1 with P = 11: 4 has order 11 mod 23, verified by
    # enumerating its powers.
    g = GroupSpec(modulus=23, order=11, generator=4)
    powers = {pow(4, e, 23) for e in range(1, 12)}
    assert len(powers) == 11 and pow(4, 11, 23) == 1
    assert g.element_bits == 5


def test_group_spec_validation():
    with pytest.raises(ValueError):
        GroupSpec(modulus=24, order=11, generator=4)  # modulus not prime
    with pytest.raises(ValueError):
        GroupSpec(modulus=23, order=7, generator=4)  # 7 does not divide 22
    with pytest.raises(ValueError):
        GroupSpec(modulus=23, order=11, generator=5)  # order of 5 is 22


def test_make_group_cryptographic_scale_flagged_slow():
    rng = random.Random(2024)
    with pytest.warns(UserWarning, match="slow path"):
        g = make_group(160, 1024, rng=rng)
    assert g.order.bit_length() == 160
    assert g.modulus.bit_length() == 1024
    assert (g.modulus - 1) % g.order == 0
    assert pow(g.generator, g.order, g.modulus) == 1


def test_make_group_argument_validation():
    with pytest.raises(ValueError):
        make_group(4, 16, rng=0)
    with pytest.raises(ValueError):
        make_group(16, 16, rng=0)
