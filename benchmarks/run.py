#!/usr/bin/env python3
"""Benchmark of ncdetect's Monte Carlo entry points.

Run from the repository root:

    python3 benchmarks/run.py --workload hashbound --seed 1 --seconds 20 --trace 0

Workloads are listed in ``workloads.py`` and ``BENCHMARK.json``.  One
caller in one process drives the workload closed loop: each call is a
batch of trials seeded from (seed, call index), and the next call starts
when the previous one returns.

With ``--trace 0`` the run times calls until ``--seconds`` have passed
and reports the end-to-end metrics, with timings rescaled to a reference
host speed by the reference tasks of ``calibrate.py``.  With ``--trace 1`` it replays a
fixed number of calls (set by ``--seconds``) once untraced and once
traced, and reports per-layer metrics from the spans of ``spans.py``.
Either way every outcome is checked against the workload's criterion;
the last line of standard output is one JSON object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and the exit code is 0 only if every check passed.  The program is
imported from ``src/`` next to this directory; without it the run fails
with exit code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPAN_DIR = HERE / "out"

SETUP_PROBES = 7
# The outcome digest covers the first DIGEST_CALLS calls, which every run
# makes, so it repeats exactly for a given seed whatever the speed.
DIGEST_CALLS = 8
TAIL_PERCENTILE = 90
TAIL_MIN_BEYOND = 10
COVERAGE_FLOOR = 0.95


def import_ncdetect() -> float:
    """Import ncdetect from this checkout's src/; returns the import time."""
    if not (SRC / "ncdetect" / "__init__.py").is_file():
        raise ImportError(f"no ncdetect package under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import ncdetect
    elapsed = time.perf_counter() - start
    where = Path(ncdetect.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"ncdetect was imported from {where}, not {SRC}")
    return elapsed


# -- driving calls -------------------------------------------------------------


@dataclass
class Run:
    round_walls: list = field(default_factory=list)
    # Round walls at reference host speed (calibrate.Speedometer).
    norm_walls: list = field(default_factory=list)
    calls: int = 0
    trials: int = 0
    failed: int = 0
    errors: int = 0
    totals: Counter = field(default_factory=Counter)
    digest: Counter = field(default_factory=Counter)

    @property
    def wall(self) -> float:
        return sum(self.round_walls)


def drive(wl, seed: int, speed, *, seconds: float | None = None,
          calls: int | None = None, tracer=None) -> Run:
    """Call the workload round by round until the deadline or call count."""
    from workloads import Outcome, call_seed

    run = Run()
    kernel_times = []
    clock = time.perf_counter
    deadline = None if seconds is None else clock() + seconds
    while True:
        if calls is not None and run.calls >= calls:
            break
        if (deadline is not None and run.calls >= DIGEST_CALLS
                and clock() >= deadline):
            break
        kernel_times.append(speed.time())
        start = clock()
        for _ in range(wl.calls_per_round):
            index = run.calls
            if tracer is not None:
                tracer.call_id = index
            try:
                out = wl.call(index, call_seed(seed, index))
            except Exception:
                traceback.print_exc()
                run.errors += 1
                out = Outcome(trials=wl.trials_per_call,
                              wrong=wl.trials_per_call)
            run.calls += 1
            run.trials += out.trials
            run.failed += out.wrong
            run.totals.update(out.counts)
            if index < DIGEST_CALLS:
                run.digest.update(out.counts)
        run.round_walls.append(clock() - start)
    run.norm_walls = speed.normalise(run.round_walls, kernel_times)
    return run


def check(wl, run: Run) -> list[str]:
    failures = wl.gate(run.totals)
    if run.errors:
        failures.append(f"{run.errors} calls raised")
    return failures


# -- set-up time -----------------------------------------------------------------


def setup_probe(name: str) -> None:
    """Child side of the set-up measurement: get ready, say so, exit."""
    from workloads import WORKLOADS

    wl = WORKLOADS[name]()
    wl.prepare()
    wl.warm_up()
    print("ready", flush=True)


def _time_until_ready(argv: list) -> float:
    """Seconds from spawning argv until it prints its "ready" line."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"{argv[1:]} failed (exit {proc.returncode})")
    return elapsed


def measure_setup(name: str, probes: int) -> tuple[list, list]:
    """Set-up probes, each right after a reference spawn.

    Returns the probe times (fresh interpreter until ready to call) and
    the reference times (fresh interpreter until numpy is imported).
    """
    from calibrate import REFERENCE_SPAWN

    probe = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name]
    times, refs = [], []
    for _ in range(probes):
        refs.append(_time_until_ready([sys.executable, *REFERENCE_SPAWN]))
        times.append(_time_until_ready(probe))
    return times, refs


# -- provenance -------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git(*args: str) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", *args], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def provenance(name: str, seed: int) -> dict:
    import ncdetect
    import numpy as np

    sha = _git("rev-parse", "HEAD")
    dirty = None
    if sha is not None:
        status = _git("status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    return {
        "workload": name, "seed": seed,
        "python": platform.python_version(), "numpy": np.__version__,
        "ncdetect": ncdetect.__version__,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(), "git_sha": sha, "git_dirty": dirty,
    }


# -- the two kinds of run -----------------------------------------------------------


def _tail(samples: list) -> tuple[float, str]:
    tail = statistics.quantiles(samples, n=100)[TAIL_PERCENTILE - 1]
    beyond = sum(x > tail for x in samples)
    note = f"p{TAIL_PERCENTILE} of {len(samples)} samples, {beyond} beyond"
    if beyond < TAIL_MIN_BEYOND:
        note += f" (fewer than {TAIL_MIN_BEYOND}: lengthen --seconds)"
    return tail, note


def end_to_end(wl, run: Run, setup_times: list, setup_refs: list) -> dict:
    """Timings at the reference host speed; raw values in the notes."""
    from calibrate import REFERENCE_S

    cpr = wl.calls_per_round
    per_call_ms = [w / cpr * 1e3 for w in run.norm_walls]
    raw_ms = [w / cpr * 1e3 for w in run.round_walls]
    tail, note = _tail(per_call_ms)
    setup = [t * REFERENCE_S["spawn"] / r for t, r in zip(setup_times, setup_refs)]
    return {
        "trials_per_s": (
            run.trials / sum(run.norm_walls), "1/s",
            f"{run.trials} trials; raw {run.trials / run.wall:.2f}"),
        "call_ms_p50": (
            statistics.median(per_call_ms), "ms",
            f"{len(per_call_ms)} samples; raw {statistics.median(raw_ms):.3f}"),
        "call_ms_tail": (tail, "ms", f"{note}; raw {_tail(raw_ms)[0]:.3f}"),
        "setup_s": (
            statistics.median(setup), "s",
            f"median of {len(setup)} fresh processes; "
            f"raw {statistics.median(setup_times):.4f}"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
            "high-water RSS of this process"),
    }


def traced_calls(wl, seconds: float) -> int:
    """Calls replayed by a traced run: fixed by --seconds, never by speed."""
    rounds = round(seconds * wl.nominal_calls_per_s / 2 / wl.calls_per_round)
    return max(DIGEST_CALLS, rounds * wl.calls_per_round)


def execute(wl, seed: int, seconds: float, trace: bool,
            setup: dict, probes: int = SETUP_PROBES) -> dict:
    """Run one workload; print the report lines and return the result."""
    from calibrate import Speedometer

    print(f"# workload {wl.name}: {wl.trials_per_call} trials per call, "
          f"{wl.calls_per_round} calls per round")
    speed = Speedometer(wl.kernel)
    if not trace:
        setup_times, setup_refs = measure_setup(wl.name, probes)
        run = drive(wl, seed, speed, seconds=seconds)
        failures = check(wl, run)
        metrics = end_to_end(wl, run, setup_times, setup_refs)
        print(f"# failed_frac = {run.failed / run.trials!r} "
              f"({run.failed} of {run.trials} trials)")
    else:
        from spans import Tracer

        calls = traced_calls(wl, seconds)
        ref = drive(wl, seed, speed, calls=calls)
        tracer = Tracer()
        tracer.install()
        try:
            run = drive(wl, seed, speed, calls=calls, tracer=tracer)
        finally:
            tracer.uninstall()
        failures = check(wl, run)
        if ref.digest != run.digest:
            failures.append("tracing changed the outcomes")
        metrics = {
            name: (value, unit, "")
            for name, (value, unit) in tracer.metrics(run.wall).items()
        }
        coverage = tracer.coverage(run.wall)
        if coverage < COVERAGE_FLOOR:
            failures.append(f"named spans cover {coverage:.3f} of traced wall")
        metrics["trace.overhead_frac"] = (
            sum(run.norm_walls) / sum(ref.norm_walls) - 1.0, "frac",
            f"{calls} calls at reference speed; raw: traced {run.wall:.3f} s, "
            f"untraced {ref.wall:.3f} s")
        for phase, seconds_taken in setup.items():
            metrics[f"setup.{phase}_s"] = (seconds_taken, "s", "this process")
        path = SPAN_DIR / f"spans-{wl.name}-seed{seed}.tsv.gz"
        tracer.write(path)
        print(f"# {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    for name, (value, unit, note) in metrics.items():
        print(f"{name} = {value!r} {unit}" + (f"  [{note}]" if note else ""))
    digest = dict(sorted(run.digest.items()))
    print("# outcome digest (first %d calls): %s"
          % (min(DIGEST_CALLS, run.calls), json.dumps(digest, sort_keys=True)))
    for failure in failures:
        print(f"# CHECK FAILED: {failure}")
    return {
        "correct": not failures,
        "attempted": run.trials,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        import_s = import_ncdetect()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.workload)
        return 0

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]()
    start = time.perf_counter()
    wl.prepare()
    build_s = time.perf_counter() - start
    start = time.perf_counter()
    wl.warm_up()
    warmup_s = time.perf_counter() - start

    print("# provenance " + json.dumps(provenance(wl.name, args.seed)))
    result = execute(wl, args.seed, args.seconds, bool(args.trace),
                     {"import": import_s, "build": build_s, "warmup": warmup_s})
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
