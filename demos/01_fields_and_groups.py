"""
================================================================================
DEMO 1: THE ALGEBRA UNDERNEATH -- FINITE FIELDS AND A SIGNATURE GROUP
================================================================================

Everything in this package runs on two algebraic structures:

1. A coding field: packet symbols live in GF(2^w) (or a prime field) and
   all mixing/decoding is linear algebra over it.

2. A prime-order group: the subspace signature publishes h_i = g^(u_i)
   mod Q and verification multiplies modular exponentials.

This script tours both, with every value reproducible.
================================================================================
"""

import numpy as np

from ncdetect import GF, make_group
from ncdetect.algebra import binary_field, prime_field

print("=" * 70)
print("STEP 1: GF(2^8) with the fixed modulus x^8 + x^4 + x^3 + x + 1")
print("=" * 70)

f = binary_field(8)
print(f"addition is XOR:        0x53 + 0x53 = {f.add(0x53, 0x53)}")
print(f"multiplicative inverse: 0x53 * 0xCA = {f.mul(0x53, 0xCA)}")
print(f"inv(0x53)             = {hex(f.inv(0x53))}")
print(f"a^255 = 1 for any a != 0: 0x53^255 = {f.pow(0x53, 255)}")
print(f"convention for hashes:  0^0 = {f.pow(0, 0)}")

print()
print("=" * 70)
print("STEP 2: the same API over a prime field")
print("=" * 70)

p = prime_field(127)
print(f"100 + 50 mod 127 = {p.add(100, 50)}")
print(f"inv(2) mod 127   = {p.inv(2)}  (2 * 64 = 128 = 1 mod 127)")
print(f"GF() dispatches on the order: GF(256) -> {GF(256)}, GF(127) -> {GF(127)}")

print()
print("=" * 70)
print("STEP 3: vectorized arithmetic is what the coding paths use")
print("=" * 70)

rng = np.random.default_rng(1)
xs = f.random_elements(rng, 6)
ys = f.random_elements(rng, 6)
print("xs      =", xs)
print("ys      =", ys)
print("xs * ys =", f.mul_arr(xs, ys))
print("xs^5    =", f.pow_arr(xs, 5))
print("and the field axioms hold on every random draw (see tests/)")

print()
print("=" * 70)
print("STEP 4: a prime-order subgroup of Z_Q^* for signatures")
print("=" * 70)

group = make_group(bits_p=16, bits_q=24, rng=np.random.default_rng(42))
print(f"P = {group.order} (prime), Q = {group.modulus} (prime), "
      f"P | Q-1: {(group.modulus - 1) % group.order == 0}")
print(f"generator g = {group.generator}")
print(f"g^P mod Q = {pow(group.generator, group.order, group.modulus)} "
      "(the subgroup closes)")
print(f"g^1 mod Q = {group.generator} != 1")
print()
print("Cryptographic sizes (160/1024 bits) work too, keys and signature")
print("checks included; the package warns when group generation is on")
print("that slow path.")
