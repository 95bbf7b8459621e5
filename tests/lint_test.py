#!/usr/bin/env python3
"""Fixture suite for the custom repo lints (ctest label: lint).

Two properties are proven, per tools/lint_fixtures/README.md:

  1. Clean tree passes: both lints exit 0 on the real repository root.
  2. Every rule still fires: for each seeded-violation fixture, the owning
     lint exits nonzero, reports the expected rule id, and reports NO other
     rule — a fixture that trips two rules is itself a failure, because it
     would no longer pin down which rule regressed if the lint broke.

Also fails if a known rule id has no fixture at all, so a new lint rule
cannot land unproven.

Usage: python3 tests/lint_test.py [--root REPO]
"""

import argparse
import pathlib
import re
import subprocess
import sys

# fixture directory -> (lint script, expected rule id)
EXPECTATIONS = {
    "knobs_raw_getenv": ("tools/lint_knobs.py", "knobs-raw-getenv"),
    "knobs_undocumented": ("tools/lint_knobs.py", "knobs-undocumented"),
    "knobs_stale_doc": ("tools/lint_knobs.py", "knobs-stale-doc"),
    "metrics_unrecorded": ("tools/lint_knobs.py", "metrics-unrecorded"),
    "kernels_stray_intrinsic": ("tools/lint_kernels.py", "kernels-stray-intrinsic"),
    "kernels_stray_flag": ("tools/lint_kernels.py", "kernels-stray-simd-flag"),
    "kernels_missing_fpcontract": ("tools/lint_kernels.py", "kernels-fp-contract"),
    "kernels_raw_mutex": ("tools/lint_kernels.py", "kernels-raw-mutex"),
    "kernels_pool_fanout": ("tools/lint_kernels.py", "kernels-pool-fanout"),
}

ALL_RULES = {
    "tools/lint_knobs.py": {"knobs-raw-getenv", "knobs-undocumented", "knobs-stale-doc",
                            "metrics-unrecorded"},
    "tools/lint_kernels.py": {"kernels-stray-intrinsic", "kernels-stray-simd-flag",
                              "kernels-fp-contract", "kernels-raw-mutex",
                              "kernels-pool-fanout"},
}

RULE_LINE_RE = re.compile(r"^([a-z-]+):", re.MULTILINE)


def run_lint(root: pathlib.Path, lint: str, target: pathlib.Path):
    proc = subprocess.run(
        [sys.executable, str(root / lint), "--root", str(target)],
        capture_output=True, text=True, check=False)
    fired = set(RULE_LINE_RE.findall(proc.stdout))
    return proc, fired


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", default=pathlib.Path(__file__).resolve().parent.parent,
                    type=pathlib.Path, help="repository root")
    args = ap.parse_args()
    root = args.root.resolve()
    fixtures = root / "tools" / "lint_fixtures"
    failures = []

    # 1. Clean tree passes.
    for lint in sorted(ALL_RULES):
        proc, fired = run_lint(root, lint, root)
        if proc.returncode != 0:
            failures.append(f"{lint} fails on the clean tree:\n{proc.stdout}{proc.stderr}")
        else:
            print(f"PASS  {lint} clean on real tree")

    # 2. Every rule fires on its fixture, and only that rule.
    for name, (lint, expected_rule) in sorted(EXPECTATIONS.items()):
        fixture = fixtures / name
        if not fixture.is_dir():
            failures.append(f"fixture missing: {fixture}")
            continue
        proc, fired = run_lint(root, lint, fixture)
        if proc.returncode == 0:
            failures.append(f"{lint} PASSED on seeded fixture {name} (expected {expected_rule})")
            continue
        if expected_rule not in fired:
            failures.append(
                f"fixture {name}: expected {expected_rule}, lint reported {sorted(fired)}:\n"
                f"{proc.stdout}")
            continue
        extra = fired - {expected_rule}
        if extra:
            failures.append(
                f"fixture {name}: extra rules fired {sorted(extra)} — fixture no longer "
                f"isolates {expected_rule}:\n{proc.stdout}")
            continue
        print(f"PASS  {name}: {expected_rule} fires")

    # 3. No unproven rules.
    covered = {rule for _, rule in EXPECTATIONS.values()}
    for lint, rules in sorted(ALL_RULES.items()):
        for rule in sorted(rules - covered):
            failures.append(f"{lint} rule {rule} has no fixture proving it fires")

    if failures:
        for f in failures:
            print(f"FAIL  {f}", file=sys.stderr)
        print(f"lint_test: {len(failures)} failure(s)", file=sys.stderr)
        return 1
    print(f"lint_test: OK ({len(EXPECTATIONS)} fixtures, 2 lints clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
