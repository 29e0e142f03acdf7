"""Seeded mutation checks for the kernels that carry the contract.

Each entry of MUTANTS names a file of src/ncdetect, an exact text in it,
the text that replaces it, and the tests that must fail once it does.
The script copies src/, tests/ and pyproject.toml to a temporary
directory, checks that every listed test passes there unmutated, then
applies each mutant on its own and runs its tests.  It reports every
mutant that survives, and exits non-zero if an old text is missing or a
listed test passes under its mutant.

    python tests/mutants.py

It needs only the standard library, pytest and Hypothesis, and is not
part of the test suite.  A change to a listed kernel updates its entries
in the same change.  The listed tests are tables, oracles and goldens, so
a run takes under a minute.  The one Hypothesis property among them,
test_rewrite_rows_modes, runs over GF(2) and GF(2^2) too: there a junk
payload of a few symbols equals the honest one with probability 1/2^k_data
or 1/4^k_data per row, so its 15 examples per field meet one.  It runs
with Hypothesis's pytest plugin at --hypothesis-seed=0, so its kill
replays exactly.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

EDGE_CASES = "tests/test_batch.py::test_decode_batch_edge_cases_match_decode"
MISS_RATE_PIN = "tests/test_batch.py::test_miss_rate_run_is_pinned"
MISS_RATE_VERDICTS = "tests/test_sim.py::test_miss_rate_verdicts_match_packet_reference"
HASH_CONSISTENT = "tests/test_batch.py::test_hash_consistent_sees_every_symbol"
RELAY_GOLDEN = "tests/test_sim.py::test_relay_golden"
RELAY_ORACLE = "tests/test_sim.py::test_relay_matches_the_trial_by_trial_oracle"
STACK_AXES = "tests/test_rlnc.py::test_generation_stack_keeps_its_leading_axes"
ORACLE_FLIP = "tests/test_detect.py::test_oracle_rejects_any_flip"
ORACLE_STACK = "tests/test_detect.py::test_oracle_stack_axes_must_broadcast"
HASH_BRUTE = "tests/test_detect.py::test_hash_matches_brute_force"
REWRITE_MODES = "tests/test_adversary.py::test_rewrite_rows_modes"
SIG_BATCH = "tests/test_detect.py::test_sig_batch_equals_scalar"
SIG_COUNTS = "tests/test_sim.py::test_signature_error_counts_small"

# (name, file in src/ncdetect, old text, new text, tests that must fail)
MUTANTS = [
    ("the tail search skips tail rows above row c", "rlnc.py",
     "nz[:, :c] &= ~pivoted[:, :c]", "nz[:, :c] = False",
     [EDGE_CASES, RELAY_GOLDEN, RELAY_ORACLE]),
    ("the tail search takes pivot rows above row c", "rlnc.py",
     "nz[:, :c] &= ~pivoted[:, :c]", "pass",
     [EDGE_CASES, RELAY_GOLDEN, RELAY_ORACLE]),
    ("a column without a pivot is not marked", "rlnc.py",
     "            pivoted[:, c] = pivot != 0\n", "",
     [EDGE_CASES, MISS_RATE_PIN, MISS_RATE_VERDICTS, RELAY_GOLDEN, RELAY_ORACLE]),
    ("the final scaling also scales tail rows", "rlnc.py",
     "np.where(pivoted, field._inv(m[:, diag, diag]), 1)",
     "field._inv(m[:, diag, diag])",
     [EDGE_CASES, RELAY_GOLDEN, RELAY_ORACLE]),
    ("_recover_batch treats tail slots below G as pivot rows",
     "rlnc.py", "np.pad(~pivoted,", "np.pad(pivoted & False,",
     [EDGE_CASES, RELAY_GOLDEN, RELAY_ORACLE]),
    ("source_wire_rows builds the identity without its leading axes", "rlnc.py",
     "(*lead, g, g)", "(g, g)",
     [STACK_AXES, ORACLE_STACK, RELAY_GOLDEN, RELAY_ORACLE]),
    ("source_wire_rows builds the identity with its leading axes reversed",
     "rlnc.py", "(*lead, g, g)", "(*lead[::-1], g, g)",
     [STACK_AXES]),
    ("oracle_verify compares only the first data column", "detect.py",
     "f._matmul(m[..., :g], s) == m[..., g:]",
     "f._matmul(m[..., :g], s[..., :1]) == m[..., g : g + 1]",
     [ORACLE_FLIP, RELAY_GOLDEN]),
    ("gen_hash_append raises each symbol to one power too few", "detect.py",
     "% params.k) + 2)", "% params.k) + 1)",
     [HASH_BRUTE, MISS_RATE_PIN, MISS_RATE_VERDICTS]),
    ("hash_consistent compares only the first hash symbol", "detect.py",
     "np.all(recomputed == d[..., k_data:], axis=(-2, -1))",
     "np.all(recomputed[..., :1] == d[..., k_data : k_data + 1], axis=(-2, -1))",
     [HASH_CONSISTENT]),
    ("the miss-rate decode's error term is the junk, not junk - honest", "sim.py",
     "field._sub(junk.reshape(honest.shape)[full_rank], honest[full_rank])",
     "junk.reshape(honest.shape)[full_rank]",
     [MISS_RATE_VERDICTS, MISS_RATE_PIN]),
    ("the miss-rate decode's unit columns sit at the wrong victims", "sim.py",
     "units[lead, victims, np.arange(s)] = 1",
     "units[lead, (victims + 1) % G, np.arange(s)] = 1",
     [MISS_RATE_VERDICTS, MISS_RATE_PIN]),
    ("rewrite_rows keeps a blind junk payload equal to the honest one",
     "adversary.py",
     "    for i in np.flatnonzero(np.all(out[:, :k_data] == rows[:, :k_data], axis=1)):\n"
     "        _change_one_symbol(field, out[i : i + 1], k_data, rng)\n", "",
     [REWRITE_MODES]),
    ("sig_verify_batch offsets each table by 255 entries, not 256", "detect.py",
     "(np.arange(n * windows) * 256)", "(np.arange(n * windows) * 255)",
     [SIG_BATCH, SIG_COUNTS]),
]


def _failed(root: Path, tests: list[str]) -> dict[str, bool]:
    """Run tests under root; map each to whether any test it selects failed.

    Raises RuntimeError if pytest stops short of running them all, as on
    a mutant that no longer imports.
    """
    report = root / "report.xml"
    # The listed tests need no plugin but Hypothesis's, which pins its
    # seed, and the report needs no traceback: loading every installed
    # plugin costs over a second per run, and formatting a mutant's
    # hundreds of failures up to ten.
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--tb=no", "-p", "no:cacheprovider",
         "-p", "_hypothesis_pytestplugin", "--hypothesis-seed=0",
         f"--junitxml={report}", *tests],
        cwd=root, capture_output=True, text=True,
        env={**os.environ, "PYTEST_DISABLE_PLUGIN_AUTOLOAD": "1"})
    if done.returncode not in (0, 1):
        raise RuntimeError(f"pytest exited with {done.returncode}:\n{done.stdout[-2000:]}")
    ran, failed = set(), set()
    for case in ET.parse(report).iter("testcase"):
        module, name = case.get("classname"), case.get("name").split("[")[0]
        test = f"{module.replace('.', '/')}.py::{name}"
        ran.add(test)
        if case.find("failure") is not None or case.find("error") is not None:
            failed.add(test)
    missing = set(tests) - ran
    if missing:
        raise RuntimeError(f"no test ran for {sorted(missing)}")
    return {test: test in failed for test in tests}


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, root / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", root)
        listed = sorted({test for *_, tests in MUTANTS for test in tests})
        broken = [test for test, failed in _failed(root, listed).items() if failed]
        if broken:
            print(f"unmutated code fails {broken}")
            return 1
        bad = 0
        for name, file, old, new, tests in MUTANTS:
            path = root / "src" / "ncdetect" / file
            text = path.read_text()
            if text.count(old) != 1:
                print(f"MISSING   {name}: {file} holds the old text "
                      f"{text.count(old)} times, not once")
                bad += 1
                continue
            path.write_text(text.replace(old, new))
            try:
                survived = [t for t, failed in _failed(root, tests).items() if not failed]
            finally:
                path.write_text(text)
            print(f"{'SURVIVED' if survived else 'killed  '}  {name}"
                  + "".join(f"\n    passes {t}" for t in survived))
            bad += bool(survived)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed by every listed test")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
