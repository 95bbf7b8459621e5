#!/usr/bin/env python3
"""Repo lint: DEEPGATE_* environment knobs and well-known metric names.

Rules (each violation prints one `rule: file:line: message` line; exit 1):

  knobs-raw-getenv     Every DEEPGATE_* env read in src/, bench/, tests/ and
                       examples/ must go through the strict util::env_int /
                       env_str parsers. Raw std::getenv of a
                       DEEPGATE_* name is allowed only in src/util/env.cpp,
                       where those parsers live.

  knobs-undocumented   Every DEEPGATE_* knob read in src/ or bench/ must be
                       documented in README.md. (Knobs read only by tests —
                       e.g. the parser self-tests' DEEPGATE_TEST_INT — are
                       exempt: they are not user surface.)

  knobs-stale-doc      Every DEEPGATE_* token in README.md must exist: as a
                       knob read somewhere in code, or as a CMake option in
                       CMakeLists.txt. Docs for deleted knobs rot silently
                       otherwise.

  metrics-unrecorded   Every metric name that obs's ensure_well_known_metrics()
                       pre-registers must also appear as a string literal
                       (comments do not count) in some other file under src/,
                       where the metric is recorded. A deleted feature must not
                       leave its keys reporting zeros in every snapshot.

Knob names are collected ONLY from string literals passed to the env readers
(never from comments or prose), so a wildcard like "DEEPGATE_SERVE_*" in a
code comment cannot fabricate a knob.

Run from anywhere: `python3 tools/lint_knobs.py [--root REPO]`. Used by
ctest (`ctest -L lint`), the CI fast lane, and the static-analysis lane;
tests/lint_test.py proves each rule fires on its seeded fixture under
tools/lint_fixtures/.
"""

import argparse
import pathlib
import re
import sys

CPP_GLOBS = ("*.cpp", "*.hpp", "*.cc", "*.h")
CPP_DIRS = ("src", "bench", "tests", "examples")
DOCUMENTED_SCOPE = ("src", "bench")  # dirs whose knob reads must be in README

# A knob read: a DEEPGATE_* string literal handed to a strict parser (or to
# getenv inside the one sanctioned file).
READ_RE = re.compile(r'\benv_(?:int|str|epochs|seed)\s*\(\s*"(DEEPGATE_[A-Z0-9_]+)"')
GETENV_RE = re.compile(r'\bgetenv\s*\(\s*"(DEEPGATE_[A-Z0-9_]+)"')
# README tokens: any DEEPGATE_* identifier appearing in the docs.
DOC_TOKEN_RE = re.compile(r"\b(DEEPGATE_[A-Z0-9]+(?:_[A-Z0-9]+)*)\b")
# CMake cache variables also spell DEEPGATE_*; they are build options, not
# env knobs, but README legitimately documents them.
CMAKE_VAR_RE = re.compile(r"\b(?:option|set)\s*\(\s*(DEEPGATE_[A-Z0-9_]+)", re.IGNORECASE)

RAW_GETENV_ALLOWED = {pathlib.PurePosixPath("src/util/env.cpp")}

WELL_KNOWN_FN_RE = re.compile(r"\bvoid\s+ensure_well_known_metrics\s*\(\s*\)\s*\{")
REGISTER_RE = re.compile(r'\b(?:counter|gauge|histogram)\s*\(\s*"([^"]+)"')
# C++ string literals, with comments and char literals matched only to be skipped.
CPP_TOKEN_RE = re.compile(r'"((?:\\.|[^"\\\n])*)"|//[^\n]*|/\*.*?\*/|\'(?:\\.|[^\'\\\n])\'',
                          re.DOTALL)


def string_literals(text: str):
    """The contents of every string literal in C++ `text`, outside comments."""
    return {m.group(1) for m in CPP_TOKEN_RE.finditer(text) if m.group(1) is not None}


def well_known_metrics(text: str):
    """(name, line) for each name registered inside ensure_well_known_metrics()."""
    m = WELL_KNOWN_FN_RE.search(text)
    if m is None:
        return []
    depth, end = 1, m.end()
    while depth > 0 and end < len(text):
        depth += {"{": 1, "}": -1}.get(text[end], 0)
        end += 1
    return [(r.group(1), text.count("\n", 0, r.start()) + 1)
            for r in REGISTER_RE.finditer(text, m.end(), end)]


def iter_cpp_files(root: pathlib.Path):
    for d in CPP_DIRS:
        base = root / d
        if not base.is_dir():
            continue
        for pattern in CPP_GLOBS:
            yield from sorted(base.rglob(pattern))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", default=pathlib.Path(__file__).resolve().parent.parent,
                    type=pathlib.Path, help="repository root to lint")
    args = ap.parse_args()
    root = args.root.resolve()

    violations = []
    reads = {}      # knob -> first "file:line" seen, any scanned dir
    doc_scope_reads = set()  # knobs read under src/ or bench/
    registered = []  # (metric name, "file:line") from ensure_well_known_metrics
    src_literals = {}  # src/ file -> its string literals

    for path in iter_cpp_files(root):
        rel = path.relative_to(root)
        rel_posix = pathlib.PurePosixPath(rel.as_posix())
        try:
            text = path.read_text(errors="replace")
        except OSError as e:
            violations.append(f"knobs-io: {rel}: unreadable ({e})")
            continue
        if rel_posix.parts[0] == "src":
            src_literals[rel] = string_literals(text)
            registered += [(name, rel, line) for name, line in well_known_metrics(text)]
        for lineno, line in enumerate(text.splitlines(), start=1):
            for m in READ_RE.finditer(line):
                reads.setdefault(m.group(1), f"{rel}:{lineno}")
                if rel_posix.parts[0] in DOCUMENTED_SCOPE:
                    doc_scope_reads.add(m.group(1))
            for m in GETENV_RE.finditer(line):
                reads.setdefault(m.group(1), f"{rel}:{lineno}")
                if rel_posix.parts[0] in DOCUMENTED_SCOPE:
                    doc_scope_reads.add(m.group(1))
                if rel_posix not in RAW_GETENV_ALLOWED:
                    violations.append(
                        f"knobs-raw-getenv: {rel}:{lineno}: raw std::getenv(\"{m.group(1)}\") — "
                        "use util::env_int/env_str (strict parsing, one audit point)")

    readme = root / "README.md"
    doc_tokens = {}
    if readme.is_file():
        for lineno, line in enumerate(readme.read_text(errors="replace").splitlines(), start=1):
            for m in DOC_TOKEN_RE.finditer(line):
                doc_tokens.setdefault(m.group(1), lineno)

    cmake_vars = set()
    cmakelists = root / "CMakeLists.txt"
    if cmakelists.is_file():
        cmake_vars = set(CMAKE_VAR_RE.findall(cmakelists.read_text(errors="replace")))

    for knob in sorted(doc_scope_reads):
        if knob not in doc_tokens:
            violations.append(
                f"knobs-undocumented: {reads[knob]}: knob {knob} is read here but never "
                "mentioned in README.md — document it (or gate it behind tests/)")

    for token, lineno in sorted(doc_tokens.items()):
        if token not in reads and token not in cmake_vars:
            violations.append(
                f"knobs-stale-doc: README.md:{lineno}: {token} is documented but neither read "
                "in code (env_*/getenv string literal) nor a CMake option — stale doc?")

    for name, rel, lineno in registered:
        if not any(name in lits for f, lits in src_literals.items() if f != rel):
            violations.append(
                f"metrics-unrecorded: {rel}:{lineno}: {name} is pre-registered but no other "
                "file under src/ records it — a deleted feature's key?")

    for v in violations:
        print(v)
    if violations:
        print(f"lint_knobs: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print(f"lint_knobs: OK ({len(reads)} knobs read, {len(doc_tokens)} documented tokens)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
