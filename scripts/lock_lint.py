#!/usr/bin/env python3
"""Locking discipline lint for the cbl tree.

The static sibling of the clang `-Wthread-safety` CI stage: the compiler
proves that annotated code is used correctly, this lint proves that the
code is annotated at all (clang happily analyses a class whose members
carry no annotations — by checking nothing). Annotation grammar:

  // lock: <what>             on a cbl::Mutex / cbl::SharedMutex member:
                              one line naming the state the lock covers.
  CBL_GUARDED_BY(mu)          on every mutable member that shares a class
  CBL_PT_GUARDED_BY(mu)       with a mutex member.
  // lock:unguarded(<reason>) on a mutable member that is deliberately
                              outside any lock (atomics, ctor-only init,
                              externally synchronized) — the reason is
                              mandatory and shows up in review.

Rules enforced:

  L1  every cbl::Mutex / cbl::SharedMutex member carries a same-line
      `// lock:` comment naming what it protects.
  L2  in a class holding a mutex member, every other mutable data member
      is CBL_GUARDED_BY / CBL_PT_GUARDED_BY-annotated, const, itself a
      synchronization primitive (mutex / condition_variable), or carries
      an explicit `// lock:unguarded(<reason>)`.
  L3  CBL_NO_THREAD_SAFETY_ANALYSIS carries an adjacent justification
      comment — an unexplained analysis escape is a finding.
  L4  every nested lock acquisition (a second guard constructed while one
      is held, in one function body) appears, in that order, in the
      DESIGN.md lock-ordering table between the
      `<!-- lock-order-table:begin -->` / `end` markers; the reverse
      order of a documented pair is an inversion finding.
  L5  no raw std::mutex / std::shared_mutex (or timed/recursive
      variants) outside src/common/thread_safety.h — concurrent state
      goes through cbl::Mutex so the capability analysis can see it.

Usage:  scripts/lock_lint.py [--root DIR] [--self-test]
Exit code 0 when clean, 1 when findings, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import re
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from lintlib import (Finding, SOURCE_GLOBS, check_self_test,
                     strip_strings_and_comments)

THREAD_SAFETY_HEADER = Path("common") / "thread_safety.h"

MUTEX_MEMBER = re.compile(
    r"\b(?:mutable\s+)?cbl::(?:Mutex|SharedMutex)\s+([A-Za-z_]\w*)\s*;"
)
LOCK_COMMENT = re.compile(r"//\s*lock:\s*\S")
# A reason is required; comment blocks are joined before matching so the
# reason may wrap across lines.
UNGUARDED = re.compile(r"\block:unguarded\(\s*\S")
GUARDED_MACRO = re.compile(r"\bCBL_(?:PT_)?GUARDED_BY\s*\(")
NO_ANALYSIS = re.compile(r"\bCBL_NO_THREAD_SAFETY_ANALYSIS\b")
RAW_MUTEX = re.compile(
    r"\bstd::(?:mutex|shared_mutex|timed_mutex|recursive_mutex|"
    r"shared_timed_mutex|recursive_timed_mutex)\b"
)
SYNC_TYPE = re.compile(
    r"\b(?:cbl::)?(?:Mutex|SharedMutex)\b|\bcondition_variable\b"
)
CLASS_DECL = re.compile(r"\b(class|struct)\s+([A-Za-z_]\w*)[^;]*$")
# A guard being constructed over a mutex expression; group(2) is the
# guard variable, group(3) the mutex argument.
GUARD_CTOR = re.compile(
    r"\b(?:cbl::)?(MutexLock|WriterMutexLock|ReaderMutexLock)\s+"
    r"([A-Za-z_]\w*)\s*[({]\s*([A-Za-z_][\w.>*-]*)"
)
MARKER_BEGIN = "<!-- lock-order-table:begin -->"
MARKER_END = "<!-- lock-order-table:end -->"
# Skip-list for statement classification inside class bodies.
NON_MEMBER = re.compile(
    r"^\s*(?:public|private|protected)\s*:|"
    r"^\s*(?:using|typedef|friend|static_assert|template|enum|namespace)\b|"
    r"^\s*#"
)


def is_comment_line(raw: str) -> bool:
    return bool(re.match(r"^\s*(//|\*|/\*)", raw))


def has_adjacent_justification(lines: list[str], lineno: int) -> bool:
    """A trailing comment on the line itself, or a comment block directly
    above, counts as justification."""
    raw = lines[lineno - 1]
    if "//" in raw and LOCK_COMMENT.search(raw):
        return True
    if re.search(r"//\s*\S", raw.split("CBL_NO_THREAD_SAFETY_ANALYSIS")[-1]):
        return True
    i = lineno - 2
    while i >= 0 and is_comment_line(lines[i]):
        if re.search(r"\S\s+\S", lines[i]):  # more than a bare marker
            return True
        i -= 1
    return False


def preceding_unguarded_reason(lines: list[str], lineno: int) -> bool:
    """lock:unguarded(<reason>) in the comment block immediately above
    the member; the block is joined first so the reason may wrap."""
    block: list[str] = []
    i = lineno - 2
    while i >= 0 and is_comment_line(lines[i]):
        block.append(lines[i].strip().lstrip("/").lstrip("*").strip())
        i -= 1
    block.reverse()
    return bool(UNGUARDED.search(" ".join(block))) if block else False


class ClassScope:
    def __init__(self, name: str, body_depth: int):
        self.name = name
        self.body_depth = body_depth
        self.mutexes: list[tuple[str, int]] = []  # (member name, lineno)
        self.members: list[tuple[int, str, str]] = []  # (lineno, stmt, raw)


def scan_file(path: Path, rel: Path, findings: list[Finding],
              nested_pairs: list[tuple[str, str, Path, int]]) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    depth = 0
    class_stack: list[ClassScope] = []
    pending_class: str | None = None
    stmt_buf: list[tuple[int, str, str]] = []  # (lineno, code, raw)
    # Held-guard stack for L4: (mutex expr, guard var, depth at acquire).
    guards: list[tuple[str, str, int]] = []

    is_ts_header = rel == THREAD_SAFETY_HEADER

    for lineno, raw in enumerate(lines, start=1):
        code = strip_strings_and_comments(raw)

        # ---- L3: unexplained analysis escapes (skip the macro's own
        # definition site).
        if (not is_ts_header and NO_ANALYSIS.search(code)
                and not has_adjacent_justification(lines, lineno)):
            findings.append(Finding(
                path, lineno, "L3",
                "CBL_NO_THREAD_SAFETY_ANALYSIS without a justification "
                "comment — say why the analysis cannot see this one"))

        # ---- L5: raw standard mutexes outside the wrapper header.
        if not is_ts_header and RAW_MUTEX.search(code):
            findings.append(Finding(
                path, lineno, "L5",
                "raw std mutex — use cbl::Mutex / cbl::SharedMutex so the "
                "capability analysis and this lint can track it"))

        # ---- L4: nested guard constructions within one function body.
        for m in GUARD_CTOR.finditer(code):
            mutex_expr = m.group(3).split(".")[-1].split("->")[-1]
            if guards:
                held = guards[-1][0]
                if held != mutex_expr:
                    nested_pairs.append((held, mutex_expr, path, lineno))
            guards.append((mutex_expr, m.group(2), depth))
        for m in re.finditer(r"\b([A-Za-z_]\w*)\.unlock\s*\(", code):
            guards = [g for g in guards if g[1] != m.group(1)]
        # (guard.lock() re-acquisition keeps its original stack slot:
        # the pair was already recorded at construction.)

        # ---- Class tracking and member statement collection.
        if pending_class is None:
            cm = CLASS_DECL.search(code.split("{")[0])
            if cm and not code.lstrip().startswith("enum"):
                pending_class = cm.group(2)

        for ch in code:
            if ch == "{":
                depth += 1
                if pending_class is not None:
                    class_stack.append(ClassScope(pending_class, depth))
                    pending_class = None
                    stmt_buf = []
            elif ch == "}":
                depth -= 1
                guards = [g for g in guards if g[2] <= depth]
                if class_stack and depth < class_stack[-1].body_depth:
                    finish_class(path, lines, class_stack.pop(), findings)
                    stmt_buf = []
        if pending_class is not None and ";" in code:
            pending_class = None  # forward declaration

        if not class_stack:
            continue
        scope = class_stack[-1]
        if depth != scope.body_depth:
            stmt_buf = []  # inside a nested function/body: not a member
            continue
        if NON_MEMBER.search(code) or not code.strip():
            stmt_buf = []
            continue
        stmt_buf.append((lineno, code, raw))
        if ";" in code:
            first_line = stmt_buf[0][0]
            stmt = " ".join(c for _, c, _ in stmt_buf)
            raw_joined = "\n".join(r for _, _, r in stmt_buf)
            scope.members.append((first_line, stmt, raw_joined))
            stmt_buf = []


def finish_class(path: Path, lines: list[str], scope: ClassScope,
                 findings: list[Finding]) -> None:
    # First pass over collected statements: find the mutex members.
    mutexes = []
    for lineno, stmt, raw in scope.members:
        m = MUTEX_MEMBER.search(stmt)
        if m:
            mutexes.append((m.group(1), lineno, raw))
    for name, lineno, raw in mutexes:
        if not LOCK_COMMENT.search(raw):
            findings.append(Finding(
                path, lineno, "L1",
                f"mutex member {name} has no `// lock:` comment — name the "
                "state it protects"))
    if not mutexes:
        return

    # L2: every sibling mutable member is guarded or excused.
    for lineno, stmt, raw in scope.members:
        if MUTEX_MEMBER.search(stmt) or SYNC_TYPE.search(stmt):
            continue
        if GUARDED_MACRO.search(stmt):
            continue
        member = classify_member(stmt)
        if member is None:
            continue  # function / using / nested-type line
        if re.search(r"\b(?:const|constexpr|static)\b", stmt):
            continue
        if UNGUARDED.search(raw) or preceding_unguarded_reason(lines, lineno):
            continue
        findings.append(Finding(
            path, lineno, "L2",
            f"member {member} shares {scope.name} with mutex "
            f"{mutexes[0][0]} but is neither CBL_GUARDED_BY-annotated, "
            "const, nor excused with // lock:unguarded(<reason>)"))


def classify_member(stmt: str) -> str | None:
    """The declared name when `stmt` is a data-member declaration, else
    None. Heuristic: strip annotation macros and initializers; what is
    left must end `Type name;` with no parameter list."""
    s = re.sub(r"\bCBL_[A-Z_]+\s*\([^()]*\)", " ", stmt)
    s = re.sub(r"\{[^{}]*\}", " ", s)  # brace initializer
    s = s.split("=")[0].rstrip("; \t")
    if "(" in s or ")" in s:
        return None  # method declaration (or paren-init member: rare)
    m = re.search(r"([A-Za-z_]\w*)\s*(?:\[[^\]]*\])?\s*$", s)
    if m is None or m.group(1) in ("struct", "class", "enum"):
        return None
    # Need at least a type token before the name.
    head = s[: m.start(1)].strip()
    return m.group(1) if head else None


def load_lock_order(design_md: Path,
                    findings: list[Finding]) -> set[tuple[str, str]]:
    if not design_md.is_file():
        findings.append(Finding(design_md, 1, "L4",
                                "DESIGN.md missing — no lock-ordering table"))
        return set()
    text = design_md.read_text(encoding="utf-8")
    if MARKER_BEGIN not in text or MARKER_END not in text:
        findings.append(Finding(
            design_md, 1, "L4",
            f"no `{MARKER_BEGIN}` .. `{MARKER_END}` table in DESIGN.md"))
        return set()
    table = text.split(MARKER_BEGIN, 1)[1].split(MARKER_END, 1)[0]
    pairs: set[tuple[str, str]] = set()
    for row in table.splitlines():
        cells = [c.strip().strip("`") for c in row.strip().strip("|").split("|")]
        if len(cells) >= 3 and re.match(r"^[A-Za-z_]\w*$", cells[1] or "") \
                and re.match(r"^[A-Za-z_]\w*$", cells[2] or ""):
            pairs.add((cells[1], cells[2]))
    return pairs


def check_lock_order(pairs: list[tuple[str, str, Path, int]],
                     documented: set[tuple[str, str]],
                     findings: list[Finding]) -> None:
    for first, second, path, lineno in pairs:
        if (first, second) in documented:
            continue
        if (second, first) in documented:
            findings.append(Finding(
                path, lineno, "L4",
                f"lock order inversion: {first} -> {second} nests against "
                f"the documented order {second} -> {first}"))
        else:
            findings.append(Finding(
                path, lineno, "L4",
                f"undocumented nested acquisition {first} -> {second} — add "
                "the pair to DESIGN.md's lock-ordering table"))


def run(root: Path) -> tuple[list[Finding], int]:
    src_root = root / "src"
    if not src_root.is_dir():
        print(f"lock_lint: no src/ under {root}", file=sys.stderr)
        raise SystemExit(2)
    findings: list[Finding] = []
    nested: list[tuple[str, str, Path, int]] = []
    total = 0
    for glob in SOURCE_GLOBS:
        for path in sorted(src_root.rglob(glob)):
            total += 1
            scan_file(path, path.relative_to(src_root), findings, nested)
    documented = load_lock_order(root / "DESIGN.md", findings)
    check_lock_order(nested, documented, findings)
    return findings, total


# ---------------------------------------------------------------------------
# Self-test: seed one violation per rule plus a clean file into a temp
# tree and require exactly the expected findings.
# ---------------------------------------------------------------------------

SELFTEST_BAD = """\
#include "common/thread_safety.h"
namespace cbl::demo {
class Bad {
 public:
  void touch();
 private:
  cbl::Mutex mu_;
  int counter_ = 0;
  void helper() CBL_NO_THREAD_SAFETY_ANALYSIS;
  std::mutex raw_;
};
inline void nest(cbl::Mutex& a, cbl::Mutex& b) {
  MutexLock la(a_mu);
  if (ready) {
  }
  MutexLock lb(b_mu);
}
}  // namespace cbl::demo
"""

SELFTEST_GOOD = """\
#include "common/thread_safety.h"
namespace cbl::demo {
class Good {
 public:
  void touch() CBL_EXCLUDES(mu_);
 private:
  cbl::Mutex mu_;  // lock: the counter below
  int counter_ CBL_GUARDED_BY(mu_) = 0;
  const int limit_ = 8;
  // Reads are monotonic hints only; the flag is an atomic.
  // lock:unguarded(set once at startup, then read-only)
  bool hint_ = false;
  /// The analysis cannot see through the test double's virtual
  /// dispatch here; callers hold mu_ by contract.
  void helper() CBL_NO_THREAD_SAFETY_ANALYSIS;
};
inline void ordered(cbl::Mutex& outer_mu, cbl::Mutex& inner_mu) {
  MutexLock lo(outer_mu);
  MutexLock li(inner_mu);
}
inline void sequential(cbl::Mutex& first_mu, cbl::Mutex& second_mu) {
  MutexLock lf(first_mu);
  lf.unlock();
  MutexLock ls(second_mu);
}
inline void scoped(cbl::Mutex& first_mu, cbl::Mutex& second_mu) {
  {
    MutexLock lf(first_mu);
  }
  MutexLock ls(second_mu);
}
}  // namespace cbl::demo
"""

SELFTEST_DESIGN = f"""\
# Design

{MARKER_BEGIN}
| Where | First | Then | Why |
|---|---|---|---|
| demo::ordered | `outer_mu` | `inner_mu` | self-test pair |
{MARKER_END}
"""


def self_test() -> int:
    with tempfile.TemporaryDirectory(prefix="lock_lint_selftest_") as td:
        root = Path(td)
        (root / "src" / "demo").mkdir(parents=True)
        (root / "src" / "demo" / "bad.h").write_text(SELFTEST_BAD)
        (root / "src" / "demo" / "good.h").write_text(SELFTEST_GOOD)
        (root / "DESIGN.md").write_text(SELFTEST_DESIGN)
        findings, _ = run(root)
        return check_self_test("lock_lint", findings,
                               expected_rules={"L1", "L2", "L3", "L4", "L5"},
                               bad_names={"bad.h", "DESIGN.md"},
                               clean_names={"good.h"})


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", default=None,
                    help="repository root (default: the script's parent)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the built-in seeded-violation self-test")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    root = Path(args.root) if args.root \
        else Path(__file__).resolve().parent.parent
    findings, total = run(root)
    for f in findings:
        print(f)
    status = "FAIL" if findings else "OK"
    print(f"lock_lint: {status} — {len(findings)} finding(s) over "
          f"{total} files")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
