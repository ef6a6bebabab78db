#!/usr/bin/env python3
"""Shared plumbing for the repo's lint family (parser_lint, lock_lint,
secret_flow_lint).

Each lint keeps its own rules; what lives here is the machinery they were
duplicating:

  * Finding            — the uniform `file:line: RULE: message` record;
  * strip_strings_and_comments — blanks string/char literals and trailing
                         // comments so pattern rules do not fire in them;
  * iter_sources / module_of — tree walking over src/ *.h / *.cpp;
  * function_bodies / declaration_after — brace-matched C++ extraction
                         helpers for body-level rules;
  * SelfTestTree       — scratch-tree scaffolding for the seeded
                         violation self-tests, plus check_self_test()
                         which enforces "every rule fires on the bad
                         file(s), the good file stays clean".

Run `scripts/lintlib.py --self-test` to exercise the helpers themselves.
"""

from __future__ import annotations

import re
import sys
import tempfile
from pathlib import Path

SOURCE_GLOBS = ("*.h", "*.cpp")


class Finding:
    """One lint hit, printed in the uniform `file:line: RULE: message`
    format every lint in scripts/ emits (and CI greps for)."""

    def __init__(self, path: Path, lineno: int, rule: str, message: str):
        self.path = path
        self.lineno = lineno
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.lineno}: {self.rule}: {self.message}"


def strip_strings_and_comments(line: str) -> str:
    """Blanks out string/char literals and trailing // comments so the
    pattern rules do not fire inside them."""
    out = []
    i, n = 0, len(line)
    in_str = None
    while i < n:
        c = line[i]
        if in_str:
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            out.append(" ")
            if c == in_str:
                in_str = None
            i += 1
            continue
        if c in ('"', "'"):
            in_str = c
            out.append(" ")
            i += 1
            continue
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        out.append(c)
        i += 1
    return "".join(out)


def module_of(path: Path, src_root: Path) -> str:
    """src/ec/scalar.h -> "ec"; files directly under src/ map to ""."""
    rel = path.relative_to(src_root)
    return rel.parts[0] if len(rel.parts) > 1 else ""


def iter_sources(src_root: Path, globs: tuple[str, ...] = SOURCE_GLOBS):
    """All source files under src_root, sorted for stable output."""
    for glob in globs:
        yield from sorted(src_root.rglob(glob))


def declaration_after(lines: list[str], start: int) -> tuple[str, int]:
    """Joins lines from `start` (0-based) until the statement ends at a
    `;` or an opening `{` — enough of the declaration to see the return
    type, attributes, and the function name."""
    joined: list[str] = []
    for offset in range(6):
        if start + offset >= len(lines):
            break
        code = strip_strings_and_comments(lines[start + offset])
        joined.append(code)
        if ";" in code or "{" in code:
            break
    return " ".join(joined), start + 1


def function_bodies(text: str, name: str) -> list[tuple[int, str]]:
    """Finds definitions of `name` in `text` and returns (lineno, body)
    pairs, matching braces from the parameter list's `{`. Good enough for
    the repo's clang-format-shaped sources; not a C++ parser."""
    bodies: list[tuple[int, str]] = []
    for m in re.finditer(rf"\b{re.escape(name)}\s*\(", text):
        # Match the parameter list.
        depth = 0
        i = m.end() - 1
        while i < len(text):
            if text[i] == "(":
                depth += 1
            elif text[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        else:
            continue
        # Skip qualifiers between the parameter list and the body.
        j = i + 1
        while j < len(text) and (text[j].isspace() or
                                 text[j:j + 8].startswith(("const", "noexcept",
                                                           "override", "final"))):
            if text[j].isspace():
                j += 1
            else:
                j = re.match(r"\w+", text[j:]).end() + j
        if j >= len(text) or text[j] != "{":
            continue  # a declaration or a call, not a definition
        depth = 0
        k = j
        while k < len(text):
            if text[k] == "{":
                depth += 1
            elif text[k] == "}":
                depth -= 1
                if depth == 0:
                    break
            k += 1
        lineno = text[: m.start()].count("\n") + 1
        bodies.append((lineno, text[j:k + 1]))
    return bodies


class SelfTestTree:
    """Scratch repo tree for seeded-violation self-tests:

        with SelfTestTree("my_lint") as tree:
            tree.write("src/demo/bad.h", BAD)
            tree.write("src/demo/good.h", GOOD)
            findings, _ = run(tree.root)
            return check_self_test("my_lint", findings,
                                   expected_rules={"X1", "X2"},
                                   bad_names={"bad.h"},
                                   clean_names={"good.h"})
    """

    def __init__(self, name: str):
        self._tmp = tempfile.TemporaryDirectory(prefix=f"{name}_selftest_")
        self.root = Path(self._tmp.name)

    def write(self, rel: str, content: str) -> Path:
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content)
        return path

    def __enter__(self) -> "SelfTestTree":
        return self

    def __exit__(self, *exc) -> None:
        self._tmp.cleanup()


def check_self_test(name: str, findings: list[Finding],
                    expected_rules: set[str], bad_names: set[str],
                    clean_names: set[str]) -> int:
    """Uniform self-test verdict: every expected rule must fire on a bad
    file, and no finding may land on a clean file. Returns an exit code
    (0 pass / 1 fail) and prints the verdict."""
    by_rule: dict[str, list[Finding]] = {}
    for f in findings:
        by_rule.setdefault(f.rule, []).append(f)
    failures = []
    for rule in sorted(expected_rules):
        hits = [f for f in by_rule.get(rule, []) if f.path.name in bad_names]
        if not hits:
            failures.append(f"seeded {rule} violation not flagged")
    dirty = [f for f in findings if f.path.name in clean_names]
    if dirty:
        failures.append(
            "clean file flagged: " + "; ".join(str(f) for f in dirty))
    if failures:
        for f in findings:
            print(f"  (self-test) {f}")
        for msg in failures:
            print(f"{name} self-test: {msg}")
        print(f"{name} self-test: FAIL")
        return 1
    print(f"{name} self-test: OK — every rule fired on the seeded "
          f"file(s), clean file(s) pass ({len(findings)} seeded "
          f"finding(s))")
    return 0


def _self_test() -> int:
    """Checks the helpers themselves."""
    failures = []
    s = strip_strings_and_comments('x = "a // b"; // memcmp(')
    if "memcmp" in s or "a // b" in s:
        failures.append(f"strip_strings_and_comments leaked: {s!r}")
    f = Finding(Path("src/ec/scalar.h"), 12, "R9", "demo")
    if str(f) != "src/ec/scalar.h:12: R9: demo":
        failures.append(f"Finding format drifted: {f}")
    bodies = function_bodies(
        "int f(int a) const noexcept {\n  return g(a);\n}\nvoid f();\n", "f")
    if len(bodies) != 1 or "g(a)" not in bodies[0][1]:
        failures.append(f"function_bodies missed the definition: {bodies}")
    decl, _ = declaration_after(["int long_decl(", "    int a);"], 0)
    if "int a);" not in decl:
        failures.append(f"declaration_after truncated: {decl!r}")
    with SelfTestTree("lintlib") as tree:
        tree.write("src/m/a.h", "int x;\n")
        files = list(iter_sources(tree.root / "src"))
        if len(files) != 1 or module_of(files[0], tree.root / "src") != "m":
            failures.append("iter_sources/module_of mismatch")
    if failures:
        for msg in failures:
            print(f"lintlib self-test: {msg}")
        print("lintlib self-test: FAIL")
        return 1
    print("lintlib self-test: OK")
    return 0


if __name__ == "__main__":
    sys.exit(_self_test() if "--self-test" in sys.argv[1:] else 0)
