#!/usr/bin/env python3
"""Repo-specific C++ lint rules (no toolchain needed — pure Python).

Rules, each suppressible on the offending (or preceding) line with
``// SEL_LINT_ALLOW(<rule>): reason``:

  naked-new        `new`/`delete` outside a smart-pointer constructor.
                   `std::unique_ptr<T>(new T...)` on the same or the two
                   preceding lines is allowed (needed for private ctors
                   where make_unique cannot reach).
  std-rand         std::rand/std::srand/rand() — all randomness must flow
                   through common/rng.hpp so runs stay seeded and
                   reproducible.
  const-cast       any const_cast without an explicit SEL_LINT_ALLOW —
                   the event-queue const_cast-move bug class.
  bare-assert      assert()/ <cassert> — use SEL_ASSERT / SEL_EXPECTS /
                   SEL_ENSURES (common/assert.hpp), which stay on in
                   release builds and print a source location.
  test-only-header a header under src/ that only its own .cpp and files
                   under tests/ include. src/ holds what a production path
                   runs; includes from src/, bench/, examples/ and
                   perfbench/ count as production. Not suppressible: move
                   the header's code into the test that uses it.

Exit status: 0 clean, 1 violations found.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

ALLOW_RE = re.compile(r"SEL_LINT_ALLOW\(([a-z-]+)\)")
SMART_PTR_RE = re.compile(r"(?:std::)?(?:unique_ptr|shared_ptr)\s*<")

RULES = {
    "naked-new": re.compile(r"(?:^|[^_\w.])new\s+[A-Za-z_:][\w:<>]*\s*[({[]"),
    "naked-delete": re.compile(r"(?:^|[^_\w.])delete(?:\[\])?\s+[A-Za-z_]"),
    "std-rand": re.compile(r"(?:std::s?rand\b|[^_\w.]s?rand\s*\(\s*\))"),
    "const-cast": re.compile(r"\bconst_cast\s*<"),
    "bare-assert": re.compile(r"(?:^|[^_\w.])assert\s*\(|#include\s*<cassert>"),
}

# Rules whose only legitimate uses are explicitly annotated.
SUPPRESS_ONLY = {"const-cast"}

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)
SOURCE_EXTS = (".hpp", ".cpp", ".h", ".cc")
# Top-level directories whose includes count as production use.
PRODUCTION_DIRS = ("src", "bench", "examples", "perfbench")


def strip_comments_and_strings(line: str) -> str:
    """Best-effort removal of // comments and string/char literals."""
    out = []
    i = 0
    n = len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c in "\"'":
            quote = c
            out.append(" ")
            i += 1
            while i < n:
                if line[i] == "\\":
                    i += 2
                    continue
                if line[i] == quote:
                    i += 1
                    break
                i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out)


def lint_file(path: str) -> list[tuple[str, int, str, str]]:
    with open(path, encoding="utf-8", errors="replace") as fh:
        raw_lines = fh.read().splitlines()
    violations = []
    rel = os.path.relpath(path, REPO_ROOT)
    for idx, raw in enumerate(raw_lines):
        code = strip_comments_and_strings(raw)
        # Suppressions may sit on the line itself or the one above.
        allows = set(ALLOW_RE.findall(raw))
        if idx > 0:
            allows |= set(ALLOW_RE.findall(raw_lines[idx - 1]))
        for rule, pattern in RULES.items():
            if not pattern.search(code):
                continue
            base_rule = "naked-new" if rule == "naked-delete" else rule
            if base_rule in allows or rule in allows:
                continue
            if rule == "naked-new":
                # Smart-pointer adoption on this or the two preceding lines
                # (the expression often wraps).
                window = " ".join(raw_lines[max(0, idx - 2) : idx + 1])
                if SMART_PTR_RE.search(window):
                    continue
            if rule == "bare-assert" and "static_assert" in code:
                continue
            violations.append((rel, idx + 1, rule, raw.strip()))
    return violations


@functools.lru_cache(maxsize=None)
def includers_by_target(root: str) -> dict[str, list[str]]:
    """Maps each quoted include target to the files under `root` that
    include it, as paths relative to `root`."""
    found: dict[str, list[str]] = {}
    for top in PRODUCTION_DIRS + ("tests",):
        for dirpath, _dirs, names in os.walk(os.path.join(root, top)):
            for name in sorted(names):
                if not name.endswith(SOURCE_EXTS):
                    continue
                full = os.path.join(dirpath, name)
                with open(full, encoding="utf-8", errors="replace") as fh:
                    targets = set(INCLUDE_RE.findall(fh.read()))
                for target in targets:
                    found.setdefault(target, []).append(
                        os.path.relpath(full, root))
    return found


def lint_test_only_header(path: str) -> list[tuple[str, int, str, str]]:
    """test-only-header: `path` is a header under a `src` directory whose
    only includers are its own .cpp and files under tests/."""
    parts = os.path.abspath(path).split(os.sep)
    if not path.endswith((".hpp", ".h")) or "src" not in parts:
        return []
    at = len(parts) - 1 - parts[::-1].index("src")
    root = os.sep.join(parts[:at]) or os.sep
    key = "/".join(parts[at + 1 :])
    own_cpp = os.path.join("src", *parts[at + 1 :])
    own_cpp = os.path.splitext(own_cpp)[0] + ".cpp"
    includers = includers_by_target(root).get(key, [])
    production = [
        f for f in includers
        if f != own_cpp and f.split(os.sep)[0] in PRODUCTION_DIRS
    ]
    if production:
        return []
    users = [f for f in includers if f != own_cpp] or ["nothing"]
    rel = os.path.relpath(path, REPO_ROOT)
    return [(rel, 1, "test-only-header",
             f"included only by {', '.join(sorted(users))}")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    args = ap.parse_args()

    files = []
    for p in args.paths:
        full = p if os.path.isabs(p) else os.path.join(REPO_ROOT, p)
        if os.path.isdir(full):
            for root, _dirs, names in os.walk(full):
                for name in sorted(names):
                    if name.endswith(SOURCE_EXTS):
                        files.append(os.path.join(root, name))
        elif full.endswith(SOURCE_EXTS):
            files.append(full)

    all_violations = []
    for f in sorted(files):
        all_violations.extend(lint_file(f))
        all_violations.extend(lint_test_only_header(f))

    if all_violations:
        print(f"select_lint: {len(all_violations)} violation(s):")
        for rel, line, rule, text in all_violations:
            print(f"  {rel}:{line}: [{rule}] {text}")
        print(
            "suppress a legitimate use with "
            "`// SEL_LINT_ALLOW(<rule>): reason` on or above the line"
        )
        return 1
    print(f"select_lint: OK ({len(files)} files clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
