"""Random linear network coding under Byzantine pollution.

Library layout:

* algebra   -- finite fields GF(2^w)/GF(q) and prime-order group arithmetic
* rlnc      -- generations, random recoding, decoding, sub-span solving
* detect    -- generation hash, subspace signature, exact span oracle
* adversary -- in-flight corruption and blind forgery models
* analytic  -- closed-form overhead ratios for the three countermeasures
* sim       -- Monte Carlo validation and the six-node relay scenario
* acceptance-- quantitative end-to-end checks at pinned tolerances
* cli       -- experiment runner (also installed as the ncdetect command)
"""

from .algebra import (
    FieldSpec,
    GroupSpec,
    GF,
    binary_field,
    make_group,
    prime_field,
)
from .analytic import (
    OverheadPoint,
    SchemeParams,
    SCHEMES,
    crossover_ec_vs_packet,
    drop_probability,
    generation_limit,
    goodput_fraction_generation,
    goodput_fraction_packet,
    overhead_error_correction,
    overhead_generation,
    overhead_packet,
    peak_attack_probability,
)
from .adversary import (
    AttackModel,
    blind_forge_with_rng,
    corrupt_stream_with_rng,
    rewrite_rows,
)
from .detect import (
    HashParams,
    SignatureKey,
    Verdict,
    gen_hash_append,
    gen_hash_verify,
    hash_consistent,
    oracle_verify,
    sig_keygen,
    sig_verify,
    sig_verify_batch,
)
from .rlnc import (
    Generation,
    NotDecodable,
    Packet,
    decode,
    decode_batch,
    make_generation,
    random_combinations,
)
from .sim import (
    EmpiricalReport,
    TrialConfig,
    compare_grid,
    estimate_hash_miss_rate,
    signature_error_counts,
    simulate_node,
    simulate_relay,
)

__version__ = "0.1.0"
