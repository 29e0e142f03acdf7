"""
================================================================================
DEMO 3: CATCHING POLLUTION -- GENERATION HASH AND SUBSPACE SIGNATURE
================================================================================

One corrupted packet, once mixed, can poison everything a receiver
decodes from a generation.  Two defenses:

1. Generation hash: each packet carries hash symbols (one per k payload
   symbols, h = sum_i x_i^(i+1) per block) that ride along under the
   same linear combinations.  After decoding, every recovered source row
   must be hash-consistent.  A forger who never saw the honest
   combinations slips through with probability at most ((k+1)/q)^s.

2. Subspace signature: a public key h_i = g^(u_i) with u secretly
   orthogonal to the source rows.  Any packet in the span verifies;
   anything else hits a 1/P lottery.  Checked per packet, no decoding.

Plus the simulator's ground truth: exact membership in the source span.
================================================================================
"""

import numpy as np

from ncdetect import (
    HashParams,
    blind_forge_with_rng,
    decode,
    gen_hash_verify,
    make_generation,
    make_group,
    oracle_verify,
    sig_keygen,
    sig_verify,
)
from ncdetect.detect import subspan_consistency
from ncdetect.algebra import binary_field, prime_field
from ncdetect.rlnc import random_combinations
from ncdetect.sim import estimate_hash_miss_rate

rng = np.random.default_rng(3)

print("=" * 70)
print("STEP 1: hash symbols travel with the data")
print("=" * 70)

field = binary_field(7)
G, K_DATA, K = 8, 14, 14
hp = HashParams(k=K, field=field)
gen = make_generation(field.random_elements(rng, (G, K_DATA)), field, hp)
src = gen.source_wire_rows()  # one wire row (coeffs | payload | hash) per packet
print(f"each packet: {G} coefficients, {K_DATA} payload, "
      f"{gen.source_hashes.shape[1]} hash symbol ({100 / (K + 1):.1f}% of the data)")

_, received = random_combinations(field, src, G, rng)
print("honest generation decodes and verifies:",
      gen_hash_verify(decode(field, received, G), hp))

print()
print("=" * 70)
print("STEP 2: a blind forger loses to mixing it never saw")
print("=" * 70)

junk, _ = blind_forge_with_rng(received[:, G:], field, K_DATA, 2,
                               np.random.default_rng(9))
forged = np.hstack([received[:, :G], junk])
print("2 of the 8 packets hijacked in flight (claims kept, data junked)")
print("verdict after decode:", gen_hash_verify(decode(field, forged, G), hp))

report = estimate_hash_miss_rate(binary_field(7), G=8, k_data=50, hash_k=50,
                                 s=5, trials=1500, seed=5)
print(f"at k=50, log q=7, s=5: {report.misses} misses in {report.trials} "
      f"polluted generations; bound ((k+1)/q)^s = {report.bound:.4f}")

print()
print("=" * 70)
print("STEP 3: intermediate nodes check sub-generations")
print("=" * 70)

# A node holds the wire rows it received.
_, half = random_combinations(field, src[:4], 4, rng)
print("a node holding combinations of half the generation:",
      subspan_consistency(half, G, hp)[0])
polluted = half.copy()
polluted[0, G] ^= 1  # adding 1 in GF(2^w) flips the low bit
print("same node, one symbol polluted:",
      subspan_consistency(polluted, G, hp)[0])
_, one = random_combinations(field, src, 1, rng)
print("a single dense combination is undecidable:",
      subspan_consistency(one, G, hp)[0])

print()
print("=" * 70)
print("STEP 4: the per-packet signature")
print("=" * 70)

group = make_group(bits_p=32, bits_q=33, rng=np.random.default_rng(11))
pf = prime_field(group.order)
sgen = make_generation(pf.random_elements(rng, (4, 4)), pf)
key = sig_keygen(sgen, group, rng)
print(f"group order P ~ 2^{group.order.bit_length()}, "
      f"public key {key.key_size_bits} bits for (G + k_data) = 8 elements")

_, mixes = random_combinations(pf, sgen.source_wire_rows(), 5, rng)
print("random combinations all verify:", all(sig_verify(w, key) for w in mixes))

evil = mixes[0].copy()
evil[4] = (evil[4] + 1) % pf.q  # the first payload symbol
print("a one-symbol corruption verifies:", sig_verify(evil, key),
      f"(false-accept odds are 1/P ~ 2^-{group.order.bit_length()})")

print()
print("=" * 70)
print("STEP 5: ground truth for scoring simulations")
print("=" * 70)

print("oracle says the corrupted packet is inside the span:",
      oracle_verify(evil, sgen))
print("and every honest mix is inside:", oracle_verify(mixes, sgen).all())
print()
print("The oracle checks d == c S for a packet (c | d) against the source")
print("rows S; detectors never see it, the simulator uses it to score what")
print("the schemes caught and missed.")
