"""Outside-in tracing of ncdetect's layers for the benchmark's traced run.

The tracer wraps the public functions of each layer from outside the
library.  Targets are matched by identity: every attribute of every loaded
``ncdetect.*`` module whose value *is* a target function is rebound to the
wrapper, so ``from .rlnc import decode`` bindings inside other modules are
caught too.  ``FieldSpec`` methods are wrapped on the class.

Each wrapped call records a span (id, name, start, end, parent span, call
id) in memory.  Self time is a span's duration minus its child spans.
Counts are taken at the same boundaries: elements through ``mul_arr``,
multiply-accumulates of ``matmul``, decode outcomes, detector verdicts and
packets rewritten by the adversary.
"""

from __future__ import annotations

import gzip
import itertools
import sys
import time
from pathlib import Path

# (metric prefix, module, attribute); "FieldSpec.x" names a class method.
TARGETS = (
    ("algebra.matmul", "algebra", "FieldSpec.matmul"),
    ("algebra.mul_arr", "algebra", "FieldSpec.mul_arr"),
    ("algebra.pow_arr", "algebra", "FieldSpec.pow_arr"),
    ("algebra.random_elements", "algebra", "FieldSpec.random_elements"),
    ("algebra.inv", "algebra", "FieldSpec.inv"),
    ("algebra.binary_field", "algebra", "binary_field"),
    ("algebra.make_group", "algebra", "make_group"),
    ("rlnc.make_generation", "rlnc", "make_generation"),
    ("rlnc.random_combinations", "rlnc", "random_combinations"),
    ("rlnc.decode", "rlnc", "decode"),
    ("rlnc.reduced_row_echelon", "rlnc", "reduced_row_echelon"),
    ("rlnc.recover_subspan", "rlnc", "recover_subspan"),
    ("detect.gen_hash_append", "detect", "gen_hash_append"),
    ("detect.gen_hash_verify", "detect", "gen_hash_verify"),
    ("detect.subspan_consistency", "detect", "subspan_consistency"),
    ("detect.oracle_verify", "detect", "oracle_verify"),
    ("detect.sig_keygen", "detect", "sig_keygen"),
    ("detect.sig_verify", "detect", "sig_verify"),
    ("adversary.corrupt_stream_with_rng", "adversary", "corrupt_stream_with_rng"),
    ("adversary.blind_forge_with_rng", "adversary", "blind_forge_with_rng"),
    ("sim.estimate_hash_miss_rate", "sim", "estimate_hash_miss_rate"),
    ("sim.simulate_relay", "sim", "simulate_relay"),
    ("sim.signature_error_counts", "sim", "signature_error_counts"),
)

# Counts recorded at the span boundaries, with their units.
COUNTS = (
    ("algebra.mul_arr.elements", "count"),
    ("algebra.matmul.mac", "count"),
    ("algebra.matmul.bytes_computed", "bytes"),
    ("rlnc.decode.not_decodable", "count"),
    ("detect.verdict.valid", "count"),
    ("detect.verdict.corrupted", "count"),
    ("detect.verdict.inconclusive", "count"),
    ("adversary.packets_in", "count"),
    ("adversary.packets_rewritten", "count"),
)

# int64 operands and result; computed from shapes, not measured.
_MATMUL_ITEM_BYTES = 8


class Tracer:
    """Identity-matched wrappers with in-memory spans.

    Use ``install()`` / ``uninstall()`` around the traced calls and set
    ``call_id`` before each entry-point call.
    """

    def __init__(self):
        import numpy as np

        from ncdetect.rlnc import NotDecodable

        self._np = np
        self._not_decodable = NotDecodable
        self.names = [prefix for prefix, _, _ in TARGETS]
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.counts = {name: 0 for name, _ in COUNTS}
        self.decode_ok = 0
        self.spans: list[tuple] = []
        self.call_id = -1
        self._stack: list[list] = []
        self._ids = itertools.count()
        self._patched: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "ncdetect" or name.startswith("ncdetect."))
        ]
        for idx, (prefix, mod_name, attr) in enumerate(TARGETS):
            mod = sys.modules[f"ncdetect.{mod_name}"]
            if attr.startswith("FieldSpec."):
                cls = mod.FieldSpec
                meth = attr.split(".", 1)[1]
                target = cls.__dict__[meth]
                self._rebind(cls, meth, target, self._wrap(idx, target))
                continue
            target = getattr(mod, attr)
            wrapper = self._wrap(idx, target)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is target:
                        self._rebind(m, key, target, wrapper)

    def _rebind(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patched.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, idx: int, fn):
        hook = self._hooks().get(self.names[idx])
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        calls, self_s, ids = self.calls, self.self_s, self._ids

        def wrapper(*args, **kwargs):
            frame = [next(ids), 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                if hook is not None:
                    hook(args, result, exc)
                end = clock()
                stack.pop()
                dur = end - start
                calls[idx] += 1
                self_s[idx] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                spans.append((frame[0], idx, start, end, parent, self.call_id))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    # Hooks run inside the span, so their small cost is charged to the
    # function they count.

    def _hooks(self) -> dict:
        return {
            "algebra.mul_arr": self._count_mul_arr,
            "algebra.matmul": self._count_matmul,
            "rlnc.decode": self._count_decode,
            "detect.gen_hash_verify": self._count_verdict,
            "detect.subspan_consistency": self._count_verdict,
            "adversary.corrupt_stream_with_rng": self._count_adversary,
            "adversary.blind_forge_with_rng": self._count_adversary,
        }

    def _count_mul_arr(self, args, result, exc):
        if exc is None:
            self.counts["algebra.mul_arr.elements"] += result.size

    def _count_matmul(self, args, result, exc):
        if exc is None:
            r, c = result.shape
            m = self._np.shape(args[1])[1]
            self.counts["algebra.matmul.mac"] += r * m * c
            self.counts["algebra.matmul.bytes_computed"] += (
                _MATMUL_ITEM_BYTES * (r * m + m * c + r * c)
            )

    def _count_decode(self, args, result, exc):
        if exc is None:
            self.decode_ok += 1
        elif isinstance(exc, self._not_decodable):
            self.counts["rlnc.decode.not_decodable"] += 1

    def _count_verdict(self, args, result, exc):
        # gen_hash_verify returns a Verdict, subspan_consistency a tuple
        # that starts with one.
        if exc is None:
            verdict = result[0] if isinstance(result, tuple) else result
            self.counts[f"detect.verdict.{verdict.value}"] += 1

    def _count_adversary(self, args, result, exc):
        packets = args[0]
        self.counts["adversary.packets_in"] += len(packets)
        if exc is None:
            self.counts["adversary.packets_rewritten"] += sum(
                a is not b for a, b in zip(packets, result)
            )

    # -- results -----------------------------------------------------------

    def metrics(self, traced_wall: float) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        out = {}
        for idx, name in enumerate(self.names):
            out[f"{name}.calls"] = (self.calls[idx], "count")
            out[f"{name}.self_s"] = (self.self_s[idx], "s")
            out[f"{name}.share"] = (self.self_s[idx] / traced_wall, "frac")
        for name, unit in COUNTS:
            out[name] = (self.counts[name], unit)
        attempts = self.calls[self.names.index("rlnc.decode")]
        out["rlnc.decode.ok_ratio"] = (
            self.decode_ok / attempts if attempts else 0.0, "frac"
        )
        out["trace.coverage"] = (self.coverage(traced_wall), "frac")
        return out

    def coverage(self, traced_wall: float) -> float:
        """Share of the traced wall that lies inside some named span."""
        return sum(self.self_s) / traced_wall

    def write(self, path: Path) -> None:
        """Write the spans as gzip'd tab-separated lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\tcall\n")
            for sid, idx, start, end, parent, call in self.spans:
                fh.write(f"{sid}\t{self.names[idx]}\t{start:.9f}\t{end:.9f}"
                         f"\t{parent}\t{call}\n")
