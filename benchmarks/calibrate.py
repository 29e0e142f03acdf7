"""Reference kernels that measure the host's speed while the benchmark runs.

On a shared virtual machine the same code runs up to about 1.7x slower
while neighbouring tenants are busy, and that state changes over seconds
to minutes.  The benchmark therefore times a fixed reference task right
before every sample and reports the sample rescaled to the task's
reference time:

    normalised = measured * REFERENCE_S[task] / task_time

where a round's task time is the median over the rounds around it.

Before each round of calls the task is an in-process kernel; before each
set-up probe it is the spawn of an interpreter that imports numpy
(REFERENCE_SPAWN), since set-up is mostly process start and imports.

The kernels are frozen copies of the operations that dominate each
workload (GF(2^w) log/exp multiply and Gauss-Jordan elimination at the
workload's shapes, per-packet object churn, modular exponentiation),
written here so that no change to ``src/`` can move them.  Raw timings are
printed beside the normalised ones.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np


def _gf_tables(w: int, poly: int):
    q = 1 << w
    exp = np.zeros(2 * q, dtype=np.int64)
    log = np.zeros(q, dtype=np.int64)
    x = 1
    for i in range(q - 1):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x & q:
            x ^= poly
    exp[q - 1:2 * q - 2] = exp[:q - 1]
    return exp, log


class _GF:
    """GF(2^w) with a primitive polynomial, multiply by log/exp tables."""

    def __init__(self, w: int, poly: int):
        self.q = 1 << w
        self.exp, self.log = _gf_tables(w, poly)

    def mul(self, a, b):
        a, b = np.broadcast_arrays(a, b)
        out = self.exp[self.log[a] + self.log[b]]
        out[(a == 0) | (b == 0)] = 0
        return out

    def matmul(self, a, b):
        return np.bitwise_xor.reduce(self.mul(a[:, :, None], b[None, :, :]), axis=1)

    def inv(self, a: int) -> int:
        return int(self.exp[self.q - 1 - self.log[a]])

    def rref(self, m, pivot_width: int):
        m = m.copy()
        r = 0
        for col in range(pivot_width):
            nz = np.nonzero(m[r:, col])[0]
            if len(nz) == 0:
                continue
            pr = r + int(nz[0])
            if pr != r:
                m[[r, pr]] = m[[pr, r]]
            m[r] = self.mul(self.inv(int(m[r, col])), m[r])
            others = np.nonzero(m[:, col])[0]
            others = others[others != r]
            if len(others):
                m[others] ^= self.mul(m[others, col][:, None], m[r][None, :])
            r += 1
        return m


@dataclass(frozen=True)
class _Packet:
    coeffs: np.ndarray
    payload: np.ndarray
    tag: str


class _Small:
    """Recode and decode an 8-packet GF(2^8) generation of width 109, with
    the per-packet object churn of the simulator around it."""

    def __init__(self):
        self.gf = _GF(8, 0x11D)

    def __call__(self) -> None:
        rng = np.random.default_rng(7)
        for _ in range(4):
            coeffs = rng.integers(0, 256, size=(8, 8))
            rows = rng.integers(0, 256, size=(8, 109))
            mixed = np.hstack([coeffs, self.gf.matmul(coeffs, rows)])
            self.gf.rref(mixed, 8)
        base = rng.integers(0, 256, size=(8, 25))
        for _ in range(40):
            packets = [_Packet(base[i, :8], base[i, 8:], "valid") for i in range(8)]
            wires = np.vstack([np.concatenate([p.coeffs, p.payload]) for p in packets])
            {j: p for j, p in enumerate(packets) if p.tag == "valid"}
            sum(int(x) for x in wires[0])


class _Wide:
    """One 32-packet GF(2^16) recoding of width 1033."""

    def __init__(self):
        self.gf = _GF(16, 0x1100B)

    def __call__(self) -> None:
        rng = np.random.default_rng(7)
        coeffs = rng.integers(0, 1 << 16, size=(8, 32))
        rows = rng.integers(0, 1 << 16, size=(32, 1033))
        self.gf.matmul(coeffs, rows)


class _ModPow:
    """Products of 33-bit modular powers, as in signature verification."""

    MODULUS = 8589934583  # 33 bits, like the signature group's modulus

    def __call__(self) -> None:
        q = self.MODULUS
        acc = 1
        for i in range(1, 341):
            acc = acc * pow(3 + i, 2_000_000_011 * i % q, q) % q


KERNELS = {"small": _Small, "wide": _Wide, "modpow": _ModPow}

# Run as `python3 -c ...`; prints "ready" once numpy is imported.
REFERENCE_SPAWN = ("-c", "import numpy; print('ready', flush=True)")

# Reference task times on the quiet state of a 2-vCPU Intel Xeon VM: the
# unit in which normalised timings are expressed.
REFERENCE_S = {"small": 0.0035, "wide": 0.0045, "modpow": 0.0015,
               "spawn": 0.13}


class Speedometer:
    """Times one reference kernel and rescales round walls by it."""

    # Rounds whose kernel times are pooled (by median) to rescale one
    # round, so a single disturbed kernel run does not skew its round.
    WINDOW = 5

    def __init__(self, kernel: str):
        self.reference_s = REFERENCE_S[kernel]
        self._run = KERNELS[kernel]()
        self._run()  # first call pays lazy set-up

    def time(self) -> float:
        start = time.perf_counter()
        self._run()
        return time.perf_counter() - start

    def normalise(self, walls: list, kernel_times: list) -> list:
        """Each wall at reference speed, by the kernel times around it."""
        half = self.WINDOW // 2
        out = []
        for i, wall in enumerate(walls):
            pooled = statistics.median(kernel_times[max(0, i - half):i + half + 1])
            out.append(wall * self.reference_s / pooled)
        return out
