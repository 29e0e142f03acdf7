"""Seeded mutation checks for the kernels that carry the contract.

Each entry of MUTANTS names a file of src/ncdetect, an exact text in it,
the text that replaces it, and the tests that must fail once it does.
The script copies src/, tests/ and pyproject.toml to a temporary
directory, checks that every listed test passes there unmutated, then
applies each mutant on its own and runs its tests.  It reports every
mutant that survives, and exits non-zero if an old text is missing or a
listed test passes under its mutant.

    python tests/mutants.py

It needs only the standard library and pytest, and is not part of the
test suite.  A change to a listed kernel updates its entries in the same
change.  The listed tests are deterministic tables and goldens, not
Hypothesis properties, so a run takes under a minute.
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
RELAY_GOLDEN = "tests/test_sim.py::test_relay_golden"
RELAY_ORACLE = "tests/test_sim.py::test_relay_matches_the_trial_by_trial_oracle"
STACK_AXES = "tests/test_rlnc.py::test_generation_stack_keeps_its_leading_axes"
ORACLE_FLIP = "tests/test_detect.py::test_oracle_rejects_any_flip"
ORACLE_STACK = "tests/test_detect.py::test_oracle_stack_axes_must_broadcast"

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
     [EDGE_CASES, MISS_RATE_PIN, RELAY_GOLDEN, RELAY_ORACLE]),
    ("the final scaling also scales tail rows", "rlnc.py",
     "np.where(pivoted, field._inv(m[:, diag, diag]), 1)",
     "field._inv(m[:, diag, diag])",
     [EDGE_CASES, RELAY_GOLDEN, RELAY_ORACLE]),
    ("subspan_consistency_batch treats tail slots below G as pivot rows",
     "detect.py", "np.pad(~pivoted,", "np.pad(pivoted & False,",
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
]


def _failed(root: Path, tests: list[str]) -> dict[str, bool]:
    """Run tests under root; map each to whether any test it selects failed.

    Raises RuntimeError if pytest stops short of running them all, as on
    a mutant that no longer imports.
    """
    report = root / "report.xml"
    # The listed tests need no plugin, and the report needs no traceback:
    # loading the installed plugins costs over a second per run, and
    # formatting a mutant's hundreds of failures up to ten.
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--tb=no", "-p", "no:cacheprovider",
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
