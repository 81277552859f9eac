#!/usr/bin/env python3
"""Self-test for select_lint.py, the repo-specific C++ lint (stdlib only).

Writes fixture files with one synthetic violation per rule plus
clean/suppressed twins, then asserts detection, the smart-pointer adoption
escape for naked-new, static_assert not tripping bare-assert, comment and
string-literal stripping, SEL_LINT_ALLOW on the line and the line above,
test-only-header over a small src/ + bench/ + tests/ tree, and the exit
codes (0 clean / 1 violations).

Run directly (CI and ctest do): python3 scripts/test_select_lint.py
"""

import os
import subprocess
import sys
import tempfile

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "select_lint.py")

BAD = """\
#include <cassert>
namespace sel {
void violations(int* p, const int* cp) {
  int* raw = new int(7);
  delete raw;
  int r = rand();
  int* mut = const_cast<int*>(cp);
  assert(p != nullptr);
  (void)r; (void)mut;
}
}  // namespace sel
"""

CLEAN = """\
#include <memory>
namespace sel {
void fine(const int* cp) {
  auto owned = std::unique_ptr<int>(new int(7));  // smart-ptr adoption
  static_assert(sizeof(int) >= 4, "not bare-assert");
  // new Widget(...) in a comment is not a violation
  const char* s = "delete everything, call rand(), assert(true)";
  (void)s; (void)cp;
}
void suppressed(const int* cp) {
  // SEL_LINT_ALLOW(const-cast): fixture exercising line-above suppression
  int* mut = const_cast<int*>(cp);
  int r = rand();  // SEL_LINT_ALLOW(std-rand): same-line suppression
  (void)mut; (void)r;
}
}  // namespace sel
"""


# test-only-header fixture tree: relative path -> contents.
TREE = {
    "src/mod/oracle.hpp": "#pragma once\nint oracle();\n",
    "src/mod/oracle.cpp": '#include "mod/oracle.hpp"\nint oracle() { return 1; }\n',
    "src/mod/used.hpp": "#pragma once\nint used();\n",
    "src/mod/inner.hpp": "#pragma once\nint inner();\n",
    "src/mod/other.cpp": '#include "mod/inner.hpp"\n',
    "bench/bench_x.cpp": '#include "mod/used.hpp"\n',
    "tests/mod_test.cpp": ('#include "mod/oracle.hpp"\n'
                           '#include "mod/used.hpp"\n'
                           '#include "mod/inner.hpp"\n'),
}


def run(paths):
    proc = subprocess.run([sys.executable, SCRIPT, *paths],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


failures = []


def check(name, cond, detail=""):
    if cond:
        print(f"ok: {name}")
    else:
        failures.append(f"{name}: {detail}")
        print(f"FAIL: {name}: {detail}")


def main():
    with tempfile.TemporaryDirectory() as tmp:
        bad = os.path.join(tmp, "bad.cpp")
        clean = os.path.join(tmp, "clean.cpp")
        with open(bad, "w", encoding="utf-8") as fh:
            fh.write(BAD)
        with open(clean, "w", encoding="utf-8") as fh:
            fh.write(CLEAN)

        rc, out = run([bad])
        check("exit 1 on violations", rc == 1, f"rc={rc}\n{out}")
        check("bare-assert include", "bad.cpp:1: [bare-assert]" in out, out)
        check("naked-new", "bad.cpp:4: [naked-new]" in out, out)
        check("naked-delete", "bad.cpp:5: [naked-delete]" in out, out)
        check("std-rand", "bad.cpp:6: [std-rand]" in out, out)
        check("const-cast", "bad.cpp:7: [const-cast]" in out, out)
        check("bare-assert call", "bad.cpp:8: [bare-assert]" in out, out)

        rc, out = run([clean])
        check("clean file exits 0", rc == 0, f"rc={rc}\n{out}")
        check("smart-ptr adoption allowed", "naked-new" not in out, out)
        check("static_assert allowed", "bare-assert" not in out, out)
        check("comments/strings stripped",
              "naked-delete" not in out and "std-rand" not in out, out)
        check("suppressions honored",
              "const-cast" not in out and "[std-rand]" not in out, out)

        rc, out = run([tmp])
        check("directory walk finds violations", rc == 1, f"rc={rc}\n{out}")

    with tempfile.TemporaryDirectory() as tmp:
        for rel, text in TREE.items():
            full = os.path.join(tmp, rel)
            os.makedirs(os.path.dirname(full), exist_ok=True)
            with open(full, "w", encoding="utf-8") as fh:
                fh.write(text)
        rc, out = run([os.path.join(tmp, "src")])
        check("test-only header exits 1", rc == 1, f"rc={rc}\n{out}")
        check("test-only header flagged",
              "oracle.hpp:1: [test-only-header] included only by "
              "tests/mod_test.cpp" in out, out)
        check("bench include counts as production", "used.hpp" not in out, out)
        check("src include counts as production", "inner.hpp" not in out, out)
        rc, out = run([os.path.join(tmp, "tests")])
        check("rule reads only headers under src/", rc == 0,
              f"rc={rc}\n{out}")

    # The real tree must stay clean — this is the same gate CI runs.
    rc, out = run(["src"])
    check("src/ is lint-clean", rc == 0, f"rc={rc}\n{out}")

    if failures:
        print(f"\n{len(failures)} failure(s)")
        return 1
    print("\nall select_lint self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
