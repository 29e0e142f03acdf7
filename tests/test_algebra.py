"""Field and group arithmetic tests.

Field axioms are exercised on >= 10^4 random triples per configured
field, vectorized; scalar reference values were computed by hand or by
the brute-force helpers below.
"""

import ast
import random
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncdetect import algebra
from ncdetect.algebra import (
    _INT64_SAFE_Q,
    GroupSpec,
    IRREDUCIBLE_POLY,
    binary_field,
    is_prime,
    make_group,
    prime_field,
)
from ncdetect.adversary import blind_forge_with_rng, corrupt_stream_with_rng, rewrite_rows
from ncdetect.detect import (
    HashParams,
    Verdict,
    gen_hash_append,
    gen_hash_verify,
    hash_consistent,
    oracle_verify,
    subspan_consistency,
    subspan_consistency_batch,
)
from ncdetect.rlnc import (
    NotDecodable,
    decode,
    decode_batch,
    make_generation,
    random_combinations,
    recover_subspan,
    reduced_row_echelon,
    solve_batch,
)
from field_reference import ScalarField, bitpoly_mul

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


# FIELDS plus every other binary field, primes either side of
# sqrt(2^63) ~ 3037000499 (int64 products of the larger overflow and are
# formed in uint64), and primes on both sides of the int64 limit (the
# object-dtype path lies above it).
AXIOM_FIELDS = (
    FIELDS
    + [binary_field(w) for w in range(2, 17) if w not in (4, 7, 8)]
    + [prime_field(q) for q in (2, 257, 3_037_000_493, 3_037_000_507,
                                _prime_near(_INT64_SAFE_Q, -1),
                                _prime_near(_INT64_SAFE_Q + 1, 1))]
)


def test_char2_self_inverse_and_identity():
    f = binary_field(8)
    rng = np.random.default_rng(0)
    a = f.random_elements(rng, 1000)
    assert np.all(f._add(a, a) == 0)
    assert np.all(f._add(a, np.zeros(1000, dtype=f.dtype)) == a)


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
    assert f.mul_arr(0x53, 0xCA) == 1
    assert bitpoly_mul(0x53, 0xCA, f.poly, 8) == 1


def test_mul_matches_bitpoly_oracle():
    f = binary_field(8)
    rng = np.random.default_rng(2)
    for _ in range(500):
        a = int(rng.integers(0, 256))
        b = int(rng.integers(0, 256))
        assert f.mul_arr(a, b) == bitpoly_mul(a, b, f.poly, 8)


def test_inverse_values():
    f = prime_field(127)
    assert f.inv(2) == 64
    assert f._add(f._arr(100), f._arr(50)) == 23  # 150 mod 127
    for f in FIELDS:
        assert f.inv(1) == 1
        rng = np.random.default_rng(3)
        a = f.random_elements(rng, 200)
        a = a[a != 0]
        assert np.all(f.mul_arr(a, f._inv(a)) == 1)


def test_inv_zero_raises():
    for f in FIELDS:
        with pytest.raises(ZeroDivisionError):
            f.inv(0)


def test_pow_conventions():
    for f in FIELDS:
        assert f.pow_arr(0, 0) == 1  # total hash polynomials need 0^0 = 1
        assert f.pow_arr(0, 5) == 0
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
    assert np.all(f._add(a, b) == f._add(b, a))
    assert np.all(f.mul_arr(a, b) == f.mul_arr(b, a))
    assert np.all(f._add(f._add(a, b), c) == f._add(a, f._add(b, c)))
    assert np.all(
        f.mul_arr(f.mul_arr(a, b), c) == f.mul_arr(a, f.mul_arr(b, c))
    )
    assert np.all(
        f.mul_arr(a, f._add(b, c)) == f._add(f.mul_arr(a, b), f.mul_arr(a, c))
    )
    assert np.all(f._add(a, np.zeros_like(a)) == a)
    nz = a[a != 0]
    assert np.all(f.mul_arr(nz, f._inv(nz)) == 1)
    # decode_batch makes a zero pivot's row updates no-ops through it.
    assert f._inv(f._arr([0])).tolist() == [0]
    # subtraction really is the additive inverse
    assert np.all(f._add(f._sub(a, b), b) == a)


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
    nz = a[a != 0]
    assert np.all(f.mul_arr(nz, f._inv(nz)) == 1)


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


def test_make_group_small():
    g = make_group(8, 16, rng=np.random.default_rng(99))
    assert is_prime(g.order) and is_prime(g.modulus)
    assert (g.modulus - 1) % g.order == 0
    assert pow(g.generator, g.order, g.modulus) == 1
    assert g.generator % g.modulus != 1
    assert g.modulus.bit_length() == 16 and g.order.bit_length() == 8


def test_make_group_deterministic():
    rng = np.random.default_rng(5)
    first = make_group(10, 20, rng)
    again = np.random.default_rng(5)
    assert make_group(10, 20, again) == first
    # Equal generator states after the call: the next group agrees too.
    assert make_group(10, 20, rng) == make_group(10, 20, again)


@pytest.mark.parametrize("bits_p, bits_q", [(8, 9), (16, 24), (20, 40), (64, 65)])
def test_make_group_exact_sizes(bits_p, bits_q):
    for seed in range(20):
        g = make_group(bits_p, bits_q, np.random.default_rng(seed))
        assert isinstance(g, GroupSpec)  # __post_init__ checked it
        assert g.order.bit_length() == bits_p
        assert g.modulus.bit_length() == bits_q
        if bits_q == bits_p + 1:
            # k = 2 is the only even k with Q in range: Q is a safe prime,
            # and every P whose 2P + 1 is composite was passed over.
            assert g.modulus == 2 * g.order + 1


def test_make_group_skips_a_prime_whose_only_k_is_composite():
    # At 8/9 bits k = 2 is the only even k, so its search draws nothing.
    # Seed 123096's first raw words give P = 137, whose 275 = 5^2 * 11 is
    # composite, then P = 131 with the prime 263, then h - 2 = 5: one word
    # each, read as _randbelow does (low 7 bits, then low 9 bits < 260).
    words = np.random.PCG64(123096).random_raw(3).tolist()
    assert [128 | w & 127 | 1 for w in words[:2]] == [137, 131]
    assert 2 * 137 + 1 == 5**2 * 11 and words[2] & 511 == 5
    rng = np.random.Generator(np.random.PCG64(123096))
    g = make_group(8, 9, rng)
    assert g == GroupSpec(modulus=263, order=131, generator=pow(7, 2, 263))
    # Those three words, and no more, were drawn.
    after = np.random.PCG64(123096)
    after.random_raw(3)
    assert rng.bit_generator.state == after.state


def _reference_make_group(bits_p, bits_q, rng):
    """make_group's earlier search: one candidate drawn and tested at a time."""
    _randbelow = algebra._randbelow
    while True:
        p = (1 << (bits_p - 1)) | _randbelow(rng, 1 << (bits_p - 1)) | 1
        if not is_prime(p):
            continue
        k_lo = -(-(1 << (bits_q - 1)) // p)  # ceil
        k_lo += k_lo % 2  # Q odd needs k even
        evens = (((1 << bits_q) - 1) // p - k_lo) // 2 + 1
        # Narrow k ranges redraw the same candidate (only k = 2 at 32/33
        # bits), so known composites are not retested.
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


# (bits_p, bits_q, seeds).  8/9 and 9/10 put P and Q below the sieve
# bound; 8/16, 16/24 and 20/40 draw k; 65/80 is the last size whose P
# candidates take one raw word, 70/80 takes two.  66/67 takes two with
# no k draw, whose rejected tries could hide one word too few or too many.
REFERENCE_SHAPES = [
    (8, 9, 100), (9, 10, 100), (8, 16, 100), (16, 24, 100), (20, 40, 100),
    (32, 33, 50), (64, 65, 10), (65, 80, 20), (66, 67, 5), (70, 80, 20),
]


# MT19937's raw words are 32 bits wide, so its candidates take twice as
# many words as the 64-bit generators' (two at 64/65, three at 66/67).
@pytest.mark.parametrize("bit_generator",
                         [np.random.PCG64, np.random.Philox, np.random.MT19937])
@pytest.mark.parametrize("bits_p, bits_q, seeds", REFERENCE_SHAPES)
def test_make_group_draws_as_the_one_at_a_time_search(bits_p, bits_q, seeds,
                                                      bit_generator):
    for seed in range(seeds):
        rng = np.random.Generator(bit_generator(seed))
        ref = np.random.Generator(bit_generator(seed))
        expected = _reference_make_group(bits_p, bits_q, ref)
        assert make_group(bits_p, bits_q, rng) == expected
        assert rng.bit_generator.random_raw() == ref.bit_generator.random_raw()


def test_sieve_keeps_every_prime():
    # Below the bound nothing is sieved, so a small prime P or Q still
    # reaches is_prime; above it, exactly the n with a small odd factor.
    bound = algebra._SIEVE_LIMIT
    small = [p for p in range(3, bound, 2) if is_prime(p)]
    for n in range(1, 8 * bound):
        sieved = algebra._sieved_out(n)
        assert sieved == (n >= bound and any(n % p == 0 for p in small)), n
        assert not (sieved and is_prime(n))


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.Philox,
                                           np.random.SFC64, np.random.MT19937])
def test_randbelow_reaches_the_top_bits_on_every_bit_generator(bit_generator):
    # Raw words joined at the wrong width would leave bits 32-39 of a
    # 40-bit draw at zero on MT19937's 32-bit words.
    rng = np.random.Generator(bit_generator(1))
    draws = [algebra._randbelow(rng, 2**40) for _ in range(2000)]
    assert all(0 <= d < 2**40 for d in draws)
    assert 900 < sum(d >> 39 for d in draws) < 1100
    assert all(900 < sum(d >> b & 1 for d in draws) < 1100 for b in range(32, 39))
    orders = [make_group(40, 41, np.random.Generator(bit_generator(seed))).order
              for seed in range(8)]
    assert all(p.bit_length() == 40 for p in orders)
    assert len({p >> 32 & 0x7F for p in orders}) > 1


def test_randbelow_is_uniform_below_any_bound():
    rng = np.random.default_rng(8)
    counts = np.bincount([algebra._randbelow(rng, 3) for _ in range(3000)])
    assert len(counts) == 3 and all(900 < c < 1100 for c in counts)
    assert algebra._randbelow(rng, 1) == 0


def test_random_elements_above_2_64():
    f = prime_field(2**89 - 1)  # a Mersenne prime, beyond numpy's integers
    x = f.random_elements(np.random.default_rng(0), (200, 3))
    assert x.shape == (200, 3) and x.dtype == object
    assert all(type(v) is int and 0 <= v < f.q for v in x.ravel())
    assert max(x.ravel()) >= 2**88  # the top bits are drawn
    assert f.random_elements(np.random.default_rng(0), 0).shape == (0,)


def test_no_library_module_imports_the_stdlib_random():
    # Every draw comes from the caller's numpy Generator; a second RNG
    # type must not come back unnoticed.
    modules = sorted(Path(algebra.__file__).parent.rglob("*.py"))
    assert len(modules) >= 9
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            assert not [n for n in names if n.split(".")[0] == "random"], path.name


def test_safe_prime_shortcut_group():
    # Q = 2P + 1 with P = 11: 4 has order 11 mod 23, verified by
    # enumerating its powers.
    GroupSpec(modulus=23, order=11, generator=4)
    powers = {pow(4, e, 23) for e in range(1, 12)}
    assert len(powers) == 11 and pow(4, 11, 23) == 1


def test_group_spec_validation():
    with pytest.raises(ValueError):
        GroupSpec(modulus=24, order=11, generator=4)  # modulus not prime
    with pytest.raises(ValueError):
        GroupSpec(modulus=23, order=7, generator=4)  # 7 does not divide 22
    with pytest.raises(ValueError):
        GroupSpec(modulus=23, order=11, generator=5)  # order of 5 is 22


def test_make_group_cryptographic_scale_flagged_slow():
    rng = np.random.default_rng(2024)
    with pytest.warns(UserWarning, match="slow path"):
        g = make_group(160, 1024, rng=rng)
    assert g.order.bit_length() == 160
    assert g.modulus.bit_length() == 1024
    assert (g.modulus - 1) % g.order == 0
    assert pow(g.generator, g.order, g.modulus) == 1


def test_make_group_argument_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        make_group(4, 16, rng=rng)
    with pytest.raises(ValueError):
        make_group(16, 16, rng=rng)
    with pytest.raises(TypeError, match="numpy Generator"):
        make_group(16, 20, rng=0)


def test_group_sizes_are_read_as_ints():
    first = make_group(np.int64(8), np.int64(9), np.random.default_rng(4))
    assert first == make_group(8, 9, np.random.default_rng(4))
    assert algebra.check_group_bits(np.int32(16), np.uint8(20)) == (16, 20)
    with pytest.raises(TypeError, match="bits_p must be an integer"):
        make_group(8.0, 9, np.random.default_rng(0))
    with pytest.raises(TypeError, match="bits_q must be an integer"):
        make_group(8, "9", np.random.default_rng(0))
    with pytest.raises(TypeError, match="bits_q must be an integer"):
        algebra.check_group_bits(8, 9.5)


def test_is_prime_takes_integers_only():
    assert is_prime(np.int64(7)) and not is_prime(np.uint32(9))
    for bad in (2.0, 7.5, "7"):
        with pytest.raises(TypeError, match="n must be an integer"):
            is_prime(bad)


# psi_j (OEIS A014233), the least odd composite that is a strong pseudoprime
# to each of the first j prime bases; the last two as their factors.
PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051,
    3825123056546413051, 3825123056546413051,
    399165290221 * 798330580441, 1287836182261 * 2575672364521,
)


def _is_prime_12_bases(n):
    """is_prime with the full 12-base witness set on every n."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for p in bases:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
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


def test_is_prime_rejects_every_psi():
    assert algebra._MILLER_RABIN_PSI == PSI
    for psi in PSI:
        assert not is_prime(psi)
    # psi_12 passes all of 2..37, so the 12-base test alone accepts it.
    assert _is_prime_12_bases(PSI[11])


def test_is_prime_ladder_equals_12_base_test():
    rng = random.Random(41)
    for _ in range(10**5):
        n = rng.getrandbits(rng.randint(8, 64))
        assert is_prime(n) == _is_prime_12_bases(n)


def test_prime_field_cache_stays_bounded():
    f16 = binary_field(16)
    primes = (q for q in range(10**9, 2 * 10**9) if is_prime(q))
    for _, q in zip(range(2000), primes):
        prime_field(q)
    info = prime_field.cache_info()
    assert info.currsize <= info.maxsize < 2000
    assert binary_field(16) is f16  # binary fields, with their tables, stay


@settings(max_examples=200, deadline=None)
@given(w=st.integers(2, 16), a=st.integers(0, 2**16 - 1),
       e=st.one_of(st.integers(0, 2**63 - 1), st.integers(0, 3 * 2**16),
                   st.integers(1, 2**47).map(lambda k: k * (2**16 - 1))))
def test_binary_pow_matches_square_and_multiply(w, a, e):
    # e up to 2^63 - 1: log(a) * e used to overflow int64 and come back wrong.
    f = binary_field(w)
    a %= f.q
    want = ScalarField(f).pow(a, e)
    assert int(f.pow_arr(a, e)) == want  # 0-d operands too
    got = f.pow_arr(np.array([a, 0, 1]), np.array([e, e, e]))
    assert got.tolist() == [want, 0 if e else 1, 1]


def test_binary_pow_large_exponent_regression():
    f = binary_field(16)
    e = 2**58 + 3
    assert f.pow_arr(3, e) == f.pow_arr(3, e % 65535) == 25767
    assert f.pow_arr(np.array([3]), e).tolist() == [25767]
    for w in (2, 8, 16):
        g = binary_field(w)
        k = (2**62 // (g.q - 1)) * (g.q - 1)  # a multiple of q - 1 near 2^62
        assert g.pow_arr(5 % g.q, k) == 1 and g.pow_arr(0, k) == 0
        assert g.pow_arr(np.arange(g.q), k).tolist() == [0] + [1] * (g.q - 1)


@pytest.mark.parametrize("cast", [np.int64, np.uint32, np.uint64, int])
def test_numpy_integer_field_orders(cast):
    q = 4294967291  # the largest prime below 2^32
    assert prime_field(cast(q)) == prime_field(q)
    assert type(prime_field(cast(q)).q) is int
    assert binary_field(cast(8)) == binary_field(8)
    assert type(binary_field(cast(8)).q) is int
    assert algebra.FieldSpec("prime", cast(257)) == prime_field(257)


@pytest.mark.parametrize("make, value", [
    (prime_field, 7.0), (prime_field, 7.5), (prime_field, "7"), (prime_field, None),
    (binary_field, 8.0), (lambda q: algebra.FieldSpec("prime", q), 7.0),
])
def test_non_integer_field_orders_raise(make, value):
    prime_field(7), binary_field(8)  # a cached 7 or 8 must not answer for 7.0 or 8.0
    with pytest.raises(TypeError, match="must be an integer"):
        make(value)


# One bad operand per public array op, the other operands in range.
RANGE_OPS = {
    "mul_arr": lambda f, x: f.mul_arr([1], x),
    "pow_arr": lambda f, x: f.pow_arr(x, 3),
    "matmul": lambda f, x: f.matmul([[1]], np.reshape(x, (1, -1))),
}


# Binary fields by w, prime fields by q: 2^32 - 5 is the largest int64
# prime and 2^32 + 15 the smallest object-dtype one.
RANGE_FIELDS = [binary_field(w) for w in range(2, 17)] + [
    prime_field(257), prime_field(4294967291), prime_field(4294967311)]


@pytest.mark.parametrize("op", sorted(RANGE_OPS))
@pytest.mark.parametrize("f", RANGE_FIELDS, ids=lambda f: str(f.w or f.q))
def test_binary_array_ops_reject_elements_outside_the_field(f, op):
    run = RANGE_OPS[op]
    wide = [np.array([f.q], dtype=np.uint64)]
    if f.q < 2**32:
        wide.append(np.array([f.q], dtype=np.uint32))
    for bad in [[f.q], [f.q + 1], [-1], np.array([2 * f.q]), *wide, [2**70], [1.0]]:
        with pytest.raises(ValueError, match=re.escape(f"{f!r} elements")):
            run(f, bad)
    if op != "matmul":
        with pytest.raises(ValueError, match=re.escape(repr(f))):
            run(f, f.q)  # a Python int
    # The largest element still works, from a list and in the field dtype.
    top = f.q - 1
    want = {"mul_arr": top, "pow_arr": ScalarField(f).pow(top, 3), "matmul": top}[op]
    assert int(np.ravel(run(f, [top]))[0]) == want
    assert int(np.ravel(run(f, np.array([top], dtype=f.dtype)))[0]) == want


# The one scalar op.
SCALAR_OPS = {"inv": lambda f, x: f.inv(x)}


@pytest.mark.parametrize("op", sorted(SCALAR_OPS))
@pytest.mark.parametrize("f", RANGE_FIELDS, ids=lambda f: str(f.w or f.q))
def test_scalar_ops_reject_elements_outside_the_field(f, op):
    run = SCALAR_OPS[op]
    message = re.escape(f"{f!r} elements must be integers in [0, {f.q})")
    for bad in (-1, f.q, f.q + 1, 2**70):
        with pytest.raises(ValueError, match=message):
            run(f, bad)
    # The largest element still works, as an int and as a numpy integer,
    # and agrees with the array kernel.
    top = f.q - 1
    want = f._inv(f._arr([top]))
    assert run(f, top) == run(f, np.int64(top)) == int(want[0])
    assert type(run(f, np.int64(top))) is int


# Each kernel against the independent scalar reference, on the field's
# edge elements and random ones; pow also on exponents past q and 2^62.
# GF(2) is the field where the inverse's 0 -> 0 needs its own case.
KERNELS = {
    "add": lambda f, a, b: f._add(f._arr(a), f._arr(b)),
    "sub": lambda f, a, b: f._sub(f._arr(a), f._arr(b)),
    "mul": lambda f, a, b: f.mul_arr(a, b),
    "pow": lambda f, a, e: f.pow_arr(a, e),
    "inv": lambda f, a, _: f._inv(f._arr(a)),
}


@pytest.mark.parametrize("op", sorted(KERNELS))
@pytest.mark.parametrize("f", [prime_field(2), *RANGE_FIELDS], ids=repr)
def test_kernels_match_the_scalar_reference(f, op):
    rng = np.random.default_rng(f.q)
    elems = sorted({0, 1, 2 % f.q, f.q - 2, f.q - 1,
                    *(int(v) for v in f.random_elements(rng, 12))})
    if op == "pow":
        seconds = [0, 1, 2, 3, f.q - 1, f.q, f.q + 1, 2**62 + 5]
    elif op == "inv":
        seconds = [0]
    else:
        seconds = elems
    a = [x for x in elems for _ in seconds]
    b = seconds * len(elems)
    want = [getattr(ScalarField(f), op)(*((x,) if op == "inv" else (x, y)))
            for x, y in zip(a, b)]
    assert [int(v) for v in KERNELS[op](f, a, b)] == want


# Row and hash entry points of the other modules, each given one (1, 3)
# matrix of symbols: a wire row with G = 1 or a (payload | hash) row.
ENTRY_POINTS = {
    "gen_hash_append": lambda f, x: gen_hash_append(x, HashParams(k=2, field=f)),
    "hash_consistent": lambda f, x: hash_consistent(x, HashParams(k=2, field=f)),
    "gen_hash_verify": lambda f, x: gen_hash_verify(x, HashParams(k=2, field=f)),
    "rewrite_rows": lambda f, x: rewrite_rows(f, x, 1, "random-symbol",
                                              np.random.default_rng(0)),
    "corrupt_stream_with_rng": lambda f, x: corrupt_stream_with_rng(
        x, f, 1, 0.5, np.random.default_rng(0)),
    "blind_forge_with_rng": lambda f, x: blind_forge_with_rng(
        x, f, 1, 1, np.random.default_rng(0)),
    "decode": lambda f, x: decode(f, x, 1),
    "decode_batch": lambda f, x: decode_batch(f, [x], 1),
    "reduced_row_echelon": lambda f, x: reduced_row_echelon(f, x),
    "solve_batch": lambda f, x: solve_batch(f, [x], 1),
    "random_combinations": lambda f, x: random_combinations(
        f, x, 2, np.random.default_rng(0)),
    "recover_subspan": lambda f, x: recover_subspan(f, x, 1),
    "subspan_consistency": lambda f, x: subspan_consistency(
        x, 1, HashParams(k=2, field=f)),
    "subspan_consistency_batch": lambda f, x: subspan_consistency_batch(
        [x], 1, HashParams(k=2, field=f)),
    "oracle_verify": lambda f, x: oracle_verify(x, make_generation([[[1, 1]]], f)),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("f", RANGE_FIELDS, ids=lambda f: str(f.w or f.q))
def test_entry_points_reject_elements_outside_the_field(f, entry):
    run = ENTRY_POINTS[entry]
    for bad in (-1, f.q, 2**70):
        with pytest.raises(ValueError, match=re.escape(f"{f!r} elements")):
            run(f, [[1, bad, 1]])
    with pytest.raises(ValueError, match=re.escape(f"{f!r} elements")):
        run(f, np.ones((1, 3)))
    run(f, [[1, f.q - 1, 1]])  # the largest element is accepted


def test_field_dtype_arrays_pass_unscanned_at_full_width():
    for w in (8, 16):
        f = binary_field(w)
        x = np.arange(0, f.q, 7, dtype=f.dtype)
        assert f._elements(x) is x
    f = binary_field(7)  # uint8 holds 128..255 too, so it is scanned
    with pytest.raises(ValueError):
        f._elements(np.array([128], dtype=np.uint8))
    assert binary_field(4).mul_arr([], []).shape == (0,)


# Each entry point of ENTRY_POINTS as (call with the caller's rng, the
# ranks of x it takes as (least, most or None for any), the shape of an
# empty stack of its own rank, and a check of what that stack gives).
STACKS = {
    "gen_hash_append": (
        lambda f, x, rng: gen_hash_append(x, HashParams(k=2, field=f)),
        (1, None), (0, 3), lambda out: out.shape == (0, 2)),
    "hash_consistent": (
        lambda f, x, rng: hash_consistent(x, HashParams(k=2, field=f)),
        (2, None), (0, 1, 3), lambda out: out.shape == (0,)),
    "gen_hash_verify": (
        lambda f, x, rng: gen_hash_verify(x, HashParams(k=2, field=f)),
        (2, 2), (0, 3), lambda out: out is Verdict.VALID),
    "rewrite_rows": (
        lambda f, x, rng: rewrite_rows(f, x, 1, "blind-s-packet", rng),
        (2, 2), (0, 3), lambda out: out.shape == (0, 3)),
    "corrupt_stream_with_rng": (
        lambda f, x, rng: corrupt_stream_with_rng(x, f, 1, 0.5, rng),
        (2, 2), (0, 3),
        lambda out: out[0].shape == (0, 3) and out[1].shape == (0,)),
    "blind_forge_with_rng": (
        lambda f, x, rng: blind_forge_with_rng(x, f, 1, 1, rng),
        (2, None), (0, 1, 3),
        lambda out: out[0].shape == (0, 1, 3) and out[1].shape == (0, 1)),
    "decode": (
        lambda f, x, rng: decode(f, x, 1),
        (2, 2), (0, 3), None),  # no rows decode nothing: NotDecodable
    "decode_batch": (
        lambda f, x, rng: decode_batch(f, x, 1),
        (3, 3), (0, 1, 3),
        lambda out: out[0].shape == (0,) and out[1].shape == (0, 1, 2)),
    "reduced_row_echelon": (
        lambda f, x, rng: reduced_row_echelon(f, x),
        (2, 2), (0, 3), lambda out: out[0].shape == (0, 3) and out[1] == []),
    "solve_batch": (
        lambda f, x, rng: solve_batch(f, x, 1),
        (3, 3), (0, 1, 3),
        lambda out: out[0].shape == (0, 1) and out[1].shape == (0, 1, 2)),
    "random_combinations": (
        lambda f, x, rng: random_combinations(f, x, 2, rng),
        (2, None), (0, 1, 3),
        lambda out: out[0].shape == (0, 2, 1) and out[1].shape == (0, 2, 3)),
    "recover_subspan": (
        lambda f, x, rng: recover_subspan(f, x, 1),
        (2, 2), (0, 3), lambda out: out[0] == "solved" and out[2].shape == (0, 2)),
    "subspan_consistency": (
        lambda f, x, rng: subspan_consistency(x, 1, HashParams(k=2, field=f)),
        (2, 2), (0, 3), lambda out: out[0] is Verdict.VALID),
    "subspan_consistency_batch": (
        lambda f, x, rng: subspan_consistency_batch(x, 1, HashParams(k=2, field=f)),
        (3, 3), (0, 1, 3),
        lambda out: out[0].shape == (0,) and out[2].shape == (0, 1, 2)),
    "oracle_verify": (  # against a stack of one generation
        lambda f, x, rng: oracle_verify(x, make_generation([[[1, 1]]], f)),
        (1, None), (0, 1, 3), lambda out: out.shape == (0, 1)),
}


@pytest.mark.parametrize("entry", sorted(STACKS))
@pytest.mark.parametrize("f", RANGE_FIELDS, ids=lambda f: str(f.w or f.q))
def test_entry_points_take_empty_stacks_and_name_the_field_on_wrong_ranks(f, entry):
    assert set(STACKS) == set(ENTRY_POINTS)
    run, (least, most), empty, check = STACKS[entry]
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    if check is None:
        with pytest.raises(NotDecodable):
            run(f, np.ones(empty, dtype=int), rng)
    else:
        assert check(run(f, np.ones(empty, dtype=int), rng))
    assert rng.bit_generator.state == state  # an empty stack draws nothing
    for rank in range(5):
        x = np.ones((1,) * (rank - 1) + (3,) if rank else (), dtype=int)
        if least <= rank <= (most or rank):
            run(f, x, rng)
        else:
            with pytest.raises(ValueError, match=re.escape(repr(f))):
                run(f, x, rng)
