"""
================================================================================
DEMO 2: RANDOM BLOCK LINEAR NETWORK CODING
================================================================================

A source groups packets into generations of G packets and the network
mixes only within a generation.  Every packet carries its encoding
vector, so any receiver that collects G linearly independent
combinations can decode by Gaussian elimination -- no state, no
feedback, and recoding at intermediate nodes is free.

This script walks one generation from source to sink.
================================================================================
"""

import numpy as np

from ncdetect import NotDecodable, decode, make_generation
from ncdetect.algebra import binary_field
from ncdetect.rlnc import random_combinations

field = binary_field(8)
rng = np.random.default_rng(7)
G, K_DATA = 4, 6


def show(rows):
    """One line per wire row: its G coefficients, then its payload."""
    for row in rows:
        print(f"  coeffs {row[:G].tolist()}  payload {row[G:].tolist()}")


print("=" * 70)
print(f"STEP 1: a generation of G={G} source packets, {K_DATA} symbols each")
print("=" * 70)

print(f"wire size: ({G} coefficients + {K_DATA} payload) * {field.w} bits "
      f"= {(G + K_DATA) * field.w} bits per packet")

gen = make_generation(field.random_elements(rng, (G, K_DATA)), field)
sources = gen.source_wire_rows()  # packet i is (e_i | payload_i)
show(sources)

print()
print("=" * 70)
print("STEP 2: the network recodes -- combinations of combinations")
print("=" * 70)

_, hop1 = random_combinations(field, sources, G, rng)
_, hop2 = random_combinations(field, hop1, G, rng)  # recoding needs no decoding
show(hop2)

print()
print("=" * 70)
print("STEP 3: the sink decodes from any full-rank set")
print("=" * 70)

decoded = decode(field, hop2, G)
print("decoded payloads equal the source:",
      np.array_equal(decoded, gen.source_payloads))

print()
print("=" * 70)
print("STEP 4: too few packets is an erasure, not an error")
print("=" * 70)

try:
    decode(field, hop2[: G - 1], G)
except NotDecodable as exc:
    print(f"decode({G - 1} packets) -> NotDecodable: {exc}")
print("The decoder distinguishes 'need more packets' (erasure correction")
print("territory) from corruption, which the detection schemes handle.")

print()
print("=" * 70)
print("STEP 5: singular random draws surface the same way")
print("=" * 70)

singular = 0
for trial in range(2000):
    _, rx = random_combinations(field, sources, G, rng)
    try:
        decode(field, rx, G)
    except NotDecodable:
        singular += 1
print(f"{singular} singular draws in 2000 mixes "
      f"(a random GxG matrix over GF(256) is rarely singular)")
