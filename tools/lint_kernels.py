#!/usr/bin/env python3
"""Repo lint: SIMD kernel confinement and synchronization-primitive confinement.

Rules (each violation prints one `rule: file:line: message` line; exit 1):

  kernels-stray-intrinsic   x86 SIMD intrinsics (<immintrin.h>, _mm*/_mm256_*
                            calls, __m128/__m256/__m512 types) may appear only
                            in the designated per-TU-flagged backends,
                            src/nn/simd/kernels_avx2*.cpp. Everything else
                            must stay portable: an intrinsic leaking into a
                            generic TU compiles only by accident of the host
                            compiler flags and breaks the scalar-oracle CI
                            matrix.

  kernels-stray-simd-flag   -mavx2 / -mfma may be applied only via
                            set_source_files_properties(...) blocks whose
                            files are all src/nn/simd/kernels_avx2*.cpp.
                            A global add_compile_options(-mavx2) would let
                            the compiler emit AVX2 anywhere and crash
                            pre-AVX2 hosts despite the CPUID dispatch.

  kernels-fp-contract       Every vector TU (src/nn/simd/kernels_*.cpp except
                            the scalar oracle) must be compiled with
                            -ffp-contract=off so mul+add stays bitwise equal
                            to the oracle. No exceptions.

  kernels-raw-mutex         std::mutex / std::condition_variable /
                            std::lock_guard / std::unique_lock /
                            std::scoped_lock / std::shared_mutex may appear
                            only under src/util/ (the annotated util::Mutex
                            wrappers). Everywhere else must use the wrappers
                            so the clang -Wthread-safety lane sees every
                            lock.

  kernels-pool-fanout       No file under src/nn/ may include
                            util/thread_pool.hpp or call parallel_for* /
                            run_chunks. Kernels run on the thread that calls
                            them: a forward's kernels see one level (tens of
                            rows) at a time, where a pool split costs more in
                            worker wake-ups than it saves. Parallelism lives
                            in the callers (serve lanes, gnn::execute, the
                            trainer, the simulator).

The CMake rules are textual (conditional branches are scanned as if taken):
a flag inside an `if()` is still confined to its designated TU, which is the
invariant being enforced.

Run from anywhere: `python3 tools/lint_kernels.py [--root REPO]`. Used by
ctest (`ctest -L lint`), the CI fast lane, and the static-analysis lane;
tests/lint_test.py proves each rule fires on its seeded fixture under
tools/lint_fixtures/.
"""

import argparse
import pathlib
import re
import sys

CPP_GLOBS = ("*.cpp", "*.hpp", "*.cc", "*.h")
INTRINSIC_SCOPE = ("src", "bench", "tests", "examples")

INTRINSIC_RE = re.compile(r"immintrin\.h|\b_mm\d*_\w+|\b__m(?:128|256|512)[di]?\b")
ALLOWED_INTRINSIC_RE = re.compile(r"^src/nn/simd/kernels_avx2[\w]*\.(?:cpp|cc)$")

SIMD_FLAG_RE = re.compile(r"-m(?:avx2|fma)\b")
FP_CONTRACT_OFF = "-ffp-contract=off"
SSFP_RE = re.compile(r"set_source_files_properties\s*\(([^)]*)\)", re.IGNORECASE | re.DOTALL)
VECTOR_TU_DIR = "src/nn/simd"
VECTOR_TU_RE = re.compile(r"^kernels_\w+\.cpp$")
SCALAR_ORACLE = "kernels_scalar.cpp"

MUTEX_RE = re.compile(
    r"\bstd::(?:mutex|timed_mutex|recursive_mutex|shared_mutex|condition_variable(?:_any)?"
    r"|lock_guard|unique_lock|scoped_lock|shared_lock)\b")
MUTEX_ALLOWED_PREFIX = "src/util/"

POOL_FANOUT_RE = re.compile(
    r"#\s*include\s*[<\"]util/thread_pool\.hpp[>\"]|\b(?:parallel_for\w*|run_chunks)\s*\(")
POOL_FANOUT_SCOPE = "src/nn/"


def rel_posix(path: pathlib.Path, root: pathlib.Path) -> str:
    return path.relative_to(root).as_posix()


def lint_sources(root: pathlib.Path, violations: list) -> None:
    for d in INTRINSIC_SCOPE:
        base = root / d
        if not base.is_dir():
            continue
        for pattern in CPP_GLOBS:
            for path in sorted(base.rglob(pattern)):
                rel = rel_posix(path, root)
                text = path.read_text(errors="replace")
                intrinsics_ok = bool(ALLOWED_INTRINSIC_RE.match(rel))
                mutex_ok = rel.startswith(MUTEX_ALLOWED_PREFIX) or not rel.startswith("src/")
                pool_ok = not rel.startswith(POOL_FANOUT_SCOPE)
                for lineno, line in enumerate(text.splitlines(), start=1):
                    if not intrinsics_ok:
                        m = INTRINSIC_RE.search(line)
                        if m:
                            violations.append(
                                f"kernels-stray-intrinsic: {rel}:{lineno}: '{m.group(0)}' outside "
                                "src/nn/simd/kernels_avx2*.cpp — intrinsics live only in the "
                                "per-TU-flagged backends")
                    if not mutex_ok:
                        m = MUTEX_RE.search(line)
                        if m:
                            violations.append(
                                f"kernels-raw-mutex: {rel}:{lineno}: '{m.group(0)}' outside "
                                "src/util/ — use util::Mutex/MutexLock/CondVar "
                                "(src/util/mutex.hpp) so -Wthread-safety sees the lock")
                    if not pool_ok:
                        m = POOL_FANOUT_RE.search(line)
                        if m:
                            violations.append(
                                f"kernels-pool-fanout: {rel}:{lineno}: '{m.group(0)}' under "
                                "src/nn/ — kernels run on the thread that calls them; "
                                "parallelize in the caller instead")


def lint_cmake(root: pathlib.Path, violations: list) -> None:
    cmake_files = sorted(root.rglob("CMakeLists.txt")) + sorted(root.rglob("*.cmake"))
    # Vector TUs actually present in the tree decide what fp-contract coverage
    # is required, so the rule adapts as backends are added.
    simd_dir = root / VECTOR_TU_DIR
    vector_tus = []
    if simd_dir.is_dir():
        vector_tus = [p.name for p in sorted(simd_dir.glob("kernels_*.cpp"))
                      if VECTOR_TU_RE.match(p.name) and p.name != SCALAR_ORACLE]

    fp_contract_tus = set()   # TUs with a -ffp-contract=off property block
    for path in cmake_files:
        rel = rel_posix(path, root)
        if rel.startswith("build") or "/build/" in rel or "lint_fixtures" in rel:
            continue
        text = path.read_text(errors="replace")

        # Collect the sanctioned per-TU property blocks, then flag any
        # -mavx2/-mfma outside them.
        sanctioned_spans = []
        for m in SSFP_RE.finditer(text):
            body = m.group(1)
            files = [tok for tok in re.split(r"[\s;\"]+", body)
                     if tok.endswith((".cpp", ".cc"))]
            all_avx2 = bool(files) and all(
                ALLOWED_INTRINSIC_RE.match(f.lstrip("${}CMAKE_CURRENT_SOURCE_DIR}/")
                                           if f.startswith("$") else f)
                for f in files)
            if all_avx2 and SIMD_FLAG_RE.search(body):
                sanctioned_spans.append((m.start(), m.end()))
            if FP_CONTRACT_OFF in body:
                for f in files:
                    fp_contract_tus.add(pathlib.PurePosixPath(f).name)

        def in_sanctioned(pos):
            return any(lo <= pos < hi for lo, hi in sanctioned_spans)

        offset = 0
        for lineno, line in enumerate(text.splitlines(keepends=True), start=1):
            # Prose in CMake comments may legitimately mention the flags.
            code = line.split("#", 1)[0]
            for m in SIMD_FLAG_RE.finditer(code):
                if not in_sanctioned(offset + m.start()):
                    violations.append(
                        f"kernels-stray-simd-flag: {rel}:{lineno}: '{m.group(0)}' outside a "
                        "set_source_files_properties block for src/nn/simd/kernels_avx2*.cpp — "
                        "SIMD codegen flags are per-TU only (CPUID dispatch guards entry, "
                        "not codegen)")
            offset += len(line)

    for tu in vector_tus:
        if tu not in fp_contract_tus:
            violations.append(
                f"kernels-fp-contract: {VECTOR_TU_DIR}/{tu}: no set_source_files_properties "
                f"block applies {FP_CONTRACT_OFF} — without it the compiler may contract "
                "mul+add into FMA and break bitwise equality with the scalar oracle")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", default=pathlib.Path(__file__).resolve().parent.parent,
                    type=pathlib.Path, help="repository root to lint")
    args = ap.parse_args()
    root = args.root.resolve()

    violations = []
    lint_sources(root, violations)
    lint_cmake(root, violations)

    for v in violations:
        print(v)
    if violations:
        print(f"lint_kernels: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print("lint_kernels: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
