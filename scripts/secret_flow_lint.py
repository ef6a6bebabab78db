#!/usr/bin/env python3
"""Secret-hygiene lint: the analysis half of the Secret<T> taint layer
(src/common/secret.h), and the static leg of the constant-time policy
(the dynamic leg is the ctcheck harness in src/ct).

The type system already stops a `Secret<T>` converting back to T without
an explicit `expose_secret()` (taint-preserving borrow) or
`reveal_for("reason")` (audited declassification). What the compiler
cannot see is a secret flowing onward — through an assignment, a call, a
return value — into code that is variable-time or externally visible.
This lint closes that gap.

Taint sources
  * a `Secret<...>` declaration (member, local, or function returning
    one) taints that name across its module directory (src/ec,
    src/oprf, ...);
  * a `Secret<...>` function parameter taints that name inside the
    function's own body only.
Taint propagates through assignments and (one level of call-graph)
name-matched function parameters. It does NOT cross the DL boundary:
a group element computed from a secret scalar (RistrettoPoint,
Commitment, encodings of either) is treated as public — recovering the
scalar from g^x is the discrete-log problem, and the constant-time
story of the ladder itself is audited dynamically by the ctcheck
harness. `expose_secret()` preserves taint; `reveal_for(...)` clears it.

Rules
  S1  a tainted value reaches a CBL_VARTIME callee (vartime is only
      legal on public inputs — the gate the Straus/Pippenger
      verification path must pass through);
  S2  a tainted value reaches a sink — WireWriter methods, obs metric /
      trace label strings, printf/format/log calls — without an
      adjacent `ct:declassify(reason)` annotation;
  S3  a `.reveal_for(...)` or `ct::declassify(...)` without a reason (a
      non-empty string literal argument, or for the raw ct:: form an
      adjacent `// ct:declassify(reason)` comment);
  S4  a CBL_VARTIME function without a `// vartime: public-inputs-only`
      justification comment;
  S5  declassification reasons and the DESIGN.md registry drifting: a
      reason used in code but missing from the table between the
      `<!-- declassify-registry:begin/end -->` markers, or a table row
      no code site uses;
  R1  memcmp / std::memcmp anywhere in a crypto module — byte compares
      there must go through ct_equal;
  R3  a tainted value in an if/while/for/switch condition, before a
      ternary `?`, on either side of `==`/`!=`, or next to `/`/`%` —
      secret-dependent control flow or variable-latency arithmetic;
  R4  a tainted value inside an index expression `[...]` —
      secret-dependent memory addressing.
R3/R4 skip the bodies of CBL_VARTIME functions: S1 already proves their
inputs are public.

Suppression: `// sf:ok(reason)` on the flagged line.

Exit 0 clean / 1 findings / 2 usage error.

Usage:
  scripts/secret_flow_lint.py [--root DIR] [--self-test]
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from lintlib import (Finding, SelfTestTree, check_self_test, iter_sources,
                     module_of, strip_strings_and_comments)

SUPPRESS = re.compile(r"//\s*sf:ok\b")

CRYPTO_MODULES = {"ec", "oprf", "hash", "commit", "vrf", "nizk", "common"}

# `Secret<T> name`, `const Secret<T>& name`, CTAD `Secret name = ...`,
# optionally followed by attribute macros (`CBL_GUARDED_BY(mu)`). The
# terminator tells a parameter (`,` / `)`) from a declaration.
SECRET_DECL = re.compile(
    r"\bSecret\s*(?:<[^;=({]*?>\s*&?\s*|\s+(?=\w+\s*=))"
    r"([A-Za-z_][A-Za-z0-9_]*)\s*"
    r"(?:[A-Z][A-Z0-9_]*\s*\([^)]*\)\s*)*([;={(,)])")
VARTIME_DEF = re.compile(r"\bCBL_VARTIME\b")
VARTIME_JUSTIFY = re.compile(r"//\s*vartime:\s*public-inputs-only\b")
FUNC_NAME_AFTER_VARTIME = re.compile(
    r"\bCBL_VARTIME\b[^;{(]*?([A-Za-z_][A-Za-z0-9_]*)\s*\(")

REVEAL_CALL = re.compile(r"\.\s*reveal_for\s*\(\s*([^)]*)\)")
DECLASSIFY_CALL = re.compile(r"\bct::declassify\s*\(")
DECLASSIFY_ANNOT = re.compile(r"//\s*ct:declassify\(([^)]+)\)")
STRING_REASON = re.compile(r'^\s*"([^"]+)"')

# Types on the public side of the DL boundary: assignments into these
# never propagate taint (the scalar is computationally unrecoverable).
PUBLIC_TYPES = re.compile(
    r"\b(?:RistrettoPoint|Commitment|Encoding|Proof|DleqProof|"
    r"SchnorrProof|bool|void)\b")
ASSIGN = re.compile(
    r"(?:^|[;{(]\s*)(?:const\s+)?(?:[\w:<>,&*\s]+?\s)?"
    r"([A-Za-z_][A-Za-z0-9_]*)\s*=\s*([^;]+);")
ENCODE_BOUNDARY = re.compile(r"\.encode\s*\(|\bhash_to_group\b|"
                             r"\bbase\s*\(\)|\breveal_for\s*\(")

# Sinks (S2): wire serialization, observability label/values, logging.
WIREWRITER_DECL = re.compile(r"\bWireWriter\s*&?\s+([A-Za-z_][A-Za-z0-9_]*)")
SINK_CALLS = (
    re.compile(r"\b(?:std::)?(?:printf|fprintf|snprintf|format)\s*\("),
    re.compile(r"\.(?:counter|gauge|histogram)\s*\("),
    re.compile(r"\btrace_to_json\s*\("),
    re.compile(r"\blog(?:_line)?\s*\("),
)

# Constant-time rules (R1/R3/R4).
MEMCMP = re.compile(r"\b(?:std::)?memcmp\s*\(")
BRANCH = re.compile(r"\b(?:if|while|for|switch)\s*\(")
COMPARE = re.compile(r"[=!]=")
DIVIDE = re.compile(r"[%/](?!=)")
INDEX = re.compile(r"\[([^\]]*)\]")

# Function bodies and the one-level call graph.
FUNC_HEAD = re.compile(r"\s*(?:(?:const|noexcept|override|final)\b\s*)*\{")
CALL = re.compile(r"\b([A-Za-z_][A-Za-z0-9_]*)\s*\(([^;{]*)\)")
CALL_SKIP = {"Secret", "if", "while", "for", "switch", "return", "sizeof",
             "expose_secret", "reveal_for", "wipe", "declassify"}
PARAM_NAME = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*(?:=[^,]*)?$")

REGISTRY_BEGIN = "<!-- declassify-registry:begin -->"
REGISTRY_END = "<!-- declassify-registry:end -->"


# --------------------------------------------------------------------------
# Tree-wide collection

def load_registry(design_md: Path) -> set[str] | None:
    """Reasons listed in DESIGN.md's declassification registry table.
    Returns None when the file or markers are absent — the self-test
    trees don't carry a DESIGN.md."""
    if not design_md.is_file():
        return None
    text = design_md.read_text(encoding="utf-8")
    begin = text.find(REGISTRY_BEGIN)
    end = text.find(REGISTRY_END)
    if begin < 0 or end < 0:
        return None
    reasons: set[str] = set()
    for line in text[begin:end].splitlines():
        m = re.match(r"\s*\|\s*`([^`]+)`", line)
        if m:
            reasons.add(m.group(1))
    return reasons


def collect_vartime(files: list[Path], findings: list[Finding]
                    ) -> set[str]:
    """All CBL_VARTIME function names; flags S4 when the annotation has
    no `// vartime: public-inputs-only` justification within the three
    preceding lines (or on the line itself)."""
    names: set[str] = set()
    for path in files:
        lines = path.read_text(encoding="utf-8").splitlines()
        for i, raw in enumerate(lines):
            if raw.lstrip().startswith("#"):
                continue  # the macro's own #define line
            if not VARTIME_DEF.search(strip_strings_and_comments(raw)):
                continue
            decl = " ".join(lines[i:i + 3])
            m = FUNC_NAME_AFTER_VARTIME.search(decl)
            if m:
                names.add(m.group(1))
            window = lines[max(0, i - 3):i + 1]
            if not any(VARTIME_JUSTIFY.search(w) for w in window):
                if SUPPRESS.search(raw):
                    continue
                findings.append(Finding(
                    path, i + 1, "S4",
                    "CBL_VARTIME function lacks a '// vartime: "
                    "public-inputs-only' justification comment"))
    return names


def check_declassify_sites(files: list[Path], registry: set[str] | None,
                           findings: list[Finding]) -> set[str]:
    """S3 (missing reasons) and the code half of S5. Returns the set of
    reasons used in code."""
    used: set[str] = set()
    for path in files:
        lines = path.read_text(encoding="utf-8").splitlines()
        for i, raw in enumerate(lines):
            code = strip_strings_and_comments(raw)
            for m in REVEAL_CALL.finditer(raw):
                arg = m.group(1).strip()
                sm = STRING_REASON.match(arg)
                if not sm:
                    if SUPPRESS.search(raw):
                        continue
                    findings.append(Finding(
                        path, i + 1, "S3",
                        "reveal_for(...) without a non-empty string-"
                        "literal reason"))
                    continue
                reason = sm.group(1)
                used.add(reason)
                if registry is not None and reason not in registry:
                    findings.append(Finding(
                        path, i + 1, "S5",
                        f"declassification reason '{reason}' is not in "
                        f"the DESIGN.md declassify-registry table"))
            if DECLASSIFY_CALL.search(code):
                window = lines[max(0, i - 2):i + 1]
                annots = [a for w in window
                          for a in DECLASSIFY_ANNOT.findall(w)]
                if not annots:
                    if any(SUPPRESS.search(w) for w in window):
                        continue
                    findings.append(Finding(
                        path, i + 1, "S3",
                        "ct::declassify(...) without an adjacent "
                        "'// ct:declassify(reason)' annotation"))
                    continue
                for reason in annots:
                    reason = reason.strip()
                    used.add(reason)
                    if registry is not None and reason not in registry:
                        findings.append(Finding(
                            path, i + 1, "S5",
                            f"declassification reason '{reason}' is not "
                            f"in the DESIGN.md declassify-registry table"))
    return used


def check_registry_drift(design_md: Path, registry: set[str] | None,
                         used: set[str], findings: list[Finding]) -> None:
    if registry is None:
        return
    for stale in sorted(registry - used):
        findings.append(Finding(
            design_md, 1, "S5",
            f"registry row '{stale}' has no matching ct:declassify / "
            f"reveal_for site in the tree"))


def collect_declared_types(files: list[Path]) -> dict[str, str]:
    """Tree-wide `identifier -> declared type` map ('public' for
    DL-boundary types, 'scalarish' for taint-capable ones). Conflicting
    redeclarations collapse to 'mixed', which the propagation treats as
    not taintable (conservative toward zero false positives)."""
    kinds: dict[str, str] = {}

    def note(name: str, kind: str) -> None:
        if kinds.get(name, kind) != kind:
            kinds[name] = "mixed"
        else:
            kinds[name] = kind

    decl = re.compile(r"\b([\w:]+(?:\s*<[^;={]*>)?)\s+(?:const\s+)?&?\s*"
                      r"([A-Za-z_][A-Za-z0-9_]*)\s*(?:\[[^\]]*\])?\s*[;={]")
    for path in files:
        for raw in path.read_text(encoding="utf-8").splitlines():
            code = strip_strings_and_comments(raw)
            for m in decl.finditer(code):
                type_str, name = m.group(1), m.group(2)
                if type_str in ("return", "delete", "new", "case"):
                    continue
                if PUBLIC_TYPES.search(type_str):
                    note(name, "public")
                elif re.search(r"\bScalar\b|\bSecret\b|\bBytes\b|uint8_t",
                               type_str):
                    note(name, "scalarish")
    return kinds


def stripped_lines(path: Path) -> list[str]:
    return [strip_strings_and_comments(raw)
            for raw in path.read_text(encoding="utf-8").splitlines()]


def skip_parens(text: str, k: int, depth: int = 0) -> int:
    """Index just past the `)` that brings `depth` back to 0, scanning
    from text[k] (the end of the text when it never closes)."""
    while k < len(text):
        depth += {"(": 1, ")": -1}.get(text[k], 0)
        k += 1
        if depth == 0:
            break
    return k


def body_span(text: str, k: int) -> tuple[int, int] | None:
    """0-based [first, last] line range of the function body after a
    parameter list that closes just before text[k]; None for a
    declaration or a call."""
    m = FUNC_HEAD.match(text, k)
    if not m:
        return None
    depth = 0
    for end in range(m.end() - 1, len(text)):
        depth += {"{": 1, "}": -1}.get(text[end], 0)
        if depth == 0:
            break
    return text.count("\n", 0, m.end()), text.count("\n", 0, end)


def scopes(text: str, called: dict[str, set[int]]
           ) -> dict[tuple[int, int], set[str]]:
    """Names tainted only inside one function body (keyed by its line
    span): its Secret<...> parameters, and the parameters some call site
    in the tree passes a tainted value (the one-level call graph).
    Declarations without a body taint nothing."""
    out: dict[tuple[int, int], set[str]] = {}

    def add(k: int, name: str) -> None:
        span = body_span(text, k)
        if span:
            out.setdefault(span, set()).add(name)

    for m in SECRET_DECL.finditer(text):
        if m.group(2) in ",)":
            add(skip_parens(text, m.start(2), 1), m.group(1))
    for fname, indices in called.items():
        for m in re.finditer(rf"\b{re.escape(fname)}\s*\(", text):
            k = skip_parens(text, m.end() - 1)
            params = text[m.end():k - 1].split(",")
            for idx in indices & set(range(len(params))):
                nm = PARAM_NAME.search(params[idx].strip())
                if nm:
                    add(k, nm.group(1))
    return out


def collect_taint_seeds(code: dict[Path, list[str]], src_root: Path
                        ) -> dict[str, set[str]]:
    """Per-module tainted identifiers: Secret<...> declarations that are
    not function parameters (those are scoped by scopes())."""
    seeds: dict[str, set[str]] = {}
    for path, code_lines in code.items():
        names = seeds.setdefault(module_of(path, src_root), set())
        for m in SECRET_DECL.finditer("\n".join(code_lines)):
            if m.group(2) not in ",)":
                names.add(m.group(1))
    return seeds


def vartime_lines(text: str, vartime: set[str]) -> set[int]:
    """0-based lines inside the bodies of CBL_VARTIME functions."""
    lines: set[int] = set()
    for name in vartime:
        for m in re.finditer(rf"\b{re.escape(name)}\s*\(", text):
            span = body_span(text, skip_parens(text, m.end() - 1))
            if span:
                lines.update(range(span[0], span[1] + 1))
    return lines


# --------------------------------------------------------------------------
# Per-file taint and rules

def propagate_file_taint(lines: list[str], tainted: set[str],
                         types: dict[str, str]) -> set[str]:
    """Fixpoint over assignments in (stripped) lines: `x = <expr
    mentioning a tainted name>` taints x unless the expression crosses
    the DL boundary (.encode()/hash_to_group/base()/reveal_for) or x has
    a public declared type."""
    local = set(tainted)
    for _ in range(4):
        grew = False
        for code in lines:
            for m in ASSIGN.finditer(code):
                lhs, rhs = m.group(1), m.group(2)
                if lhs in local:
                    continue
                if types.get(lhs) in ("public", "mixed"):
                    continue
                if ENCODE_BOUNDARY.search(rhs):
                    continue
                if any(re.search(rf"\b{re.escape(t)}\b", rhs)
                       for t in local):
                    local.add(lhs)
                    grew = True
        if not grew:
            break
    return local


def line_taint(code_lines: list[str], seeds: set[str],
               types: dict[str, str],
               scoped_names: dict[tuple[int, int], set[str]]
               ) -> list[set[str]]:
    """The tainted names visible on each line: module seeds propagated
    through the file, plus scoped names (parameters) and what they
    propagate into inside their own function body."""
    base = propagate_file_taint(code_lines, seeds, types)
    per_line = [base] * len(code_lines)
    for (lo, hi), names in scoped_names.items():
        scoped = propagate_file_taint(code_lines[lo:hi + 1], base | names,
                                      types)
        for i in range(lo, hi + 1):
            per_line[i] = per_line[i] | scoped
    return per_line


def tainted_calls(text: str, taint: list[set[str]], vartime: set[str],
                  tainted_params: dict[str, set[int]]) -> None:
    """Records which parameters of which named functions receive a
    tainted argument somewhere in `text`."""
    for m in CALL.finditer(text):
        fname, args = m.group(1), m.group(2)
        if fname in CALL_SKIP or fname in vartime:
            continue
        local = taint[text.count("\n", 0, m.start())]
        for idx, arg in enumerate(args.split(",")):
            if taint_hits(arg, local):
                tainted_params.setdefault(fname, set()).add(idx)


def taint_hits(args: str, tainted: set[str]) -> list[str]:
    cleared = re.sub(r"\.\s*reveal_for\s*\([^)]*\)", "", args)
    return [t for t in sorted(tainted)
            if re.search(rf"\b{re.escape(t)}\b", cleared)]


def operands(code: str, start: int, end: int) -> str:
    """Both operands of the binary operator at code[start:end]: out to
    the enclosing unmatched parenthesis or a top-level `,` on the left,
    and to an unmatched `)` or a top-level `,;&|` on the right."""
    depth, i = 0, start
    while i > 0 and not (depth == 0 and code[i - 1] in "(,"):
        depth += {")": 1, "(": -1}.get(code[i - 1], 0)
        i -= 1
    depth, j = 0, end
    while j < len(code) and not (depth == 0 and code[j] in "),;&|"):
        depth += {"(": 1, ")": -1}.get(code[j], 0)
        j += 1
    return code[i:start] + " " + code[end:j]


def ct_findings(code: str, tainted: set[str]) -> list[tuple[str, str]]:
    """R3/R4 on one stripped line: (rule, message) pairs."""
    out = []
    for m in BRANCH.finditer(code):
        if taint_hits(code[m.end():skip_parens(code, m.end() - 1)],
                      tainted):
            out.append(("R3", "secret-dependent branch — use ct_select/"
                              "ct_swap or masked arithmetic"))
            break
    if "?" in code and taint_hits(code.split("?", 1)[0], tainted):
        out.append(("R3", "ternary on a secret value — use ct_select"))
    for m in COMPARE.finditer(code):
        if taint_hits(operands(code, m.start(), m.end()), tainted):
            out.append(("R3", "==/!= on a secret value — use cbl::ct_equal"))
            break
    for m in DIVIDE.finditer(code):
        if taint_hits(code[max(0, m.start() - 40):m.start() + 40], tainted):
            out.append(("R3", "division/modulo on a secret value — "
                              "variable-latency on many cores"))
            break
    for m in INDEX.finditer(code):
        if taint_hits(m.group(1), tainted):
            out.append(("R4", "secret value used as/inside an array index "
                              "— secret-dependent addressing"))
            break
    return out


def scan_file(path: Path, module: str, code_lines: list[str],
              taint: list[set[str]], vartime: set[str],
              findings: list[Finding]) -> None:
    raw_lines = path.read_text(encoding="utf-8").splitlines()
    in_vartime = vartime_lines("\n".join(code_lines), vartime)
    writers: set[str] = set()
    vt_pat = (re.compile(
        r"\b(" + "|".join(re.escape(v) for v in sorted(vartime)) +
        r")\s*\(([^;]*)\)") if vartime else None)
    for i, (raw, code) in enumerate(zip(raw_lines, code_lines)):
        if SUPPRESS.search(raw):
            continue
        local = taint[i]
        if module in CRYPTO_MODULES and MEMCMP.search(code):
            findings.append(Finding(
                path, i + 1, "R1",
                "memcmp in a crypto module — use cbl::ct_equal"))
        if i not in in_vartime:
            for rule, msg in ct_findings(code, local):
                findings.append(Finding(path, i + 1, rule, msg))
        for m in WIREWRITER_DECL.finditer(code):
            writers.add(m.group(1))
        # S1: tainted argument to a vartime callee.
        if vt_pat and not VARTIME_DEF.search(code):
            for m in vt_pat.finditer(code):
                hits = taint_hits(m.group(2), local)
                if hits:
                    findings.append(Finding(
                        path, i + 1, "S1",
                        f"tainted value(s) {', '.join(hits)} passed to "
                        f"variable-time function '{m.group(1)}'"))
        # S2: tainted argument reaching a sink without declassification.
        sink_here = any(p.search(code) for p in SINK_CALLS)
        if not sink_here and writers:
            sink_here = any(re.search(rf"\b{re.escape(w)}\s*\.", code)
                            for w in writers)
        if sink_here:
            window = raw_lines[max(0, i - 2):i + 1]
            if any(DECLASSIFY_ANNOT.search(w) for w in window):
                continue
            hits = taint_hits(code, local)
            if hits:
                findings.append(Finding(
                    path, i + 1, "S2",
                    f"tainted value(s) {', '.join(hits)} reach a sink "
                    f"without a ct:declassify(reason) annotation"))


def run(root: Path) -> tuple[list[Finding], int]:
    src_root = root / "src"
    files = list(iter_sources(src_root))
    findings: list[Finding] = []
    registry = load_registry(root / "DESIGN.md")
    vartime = collect_vartime(files, findings)
    used = check_declassify_sites(files, registry, findings)
    check_registry_drift(root / "DESIGN.md", registry, used, findings)
    types = collect_declared_types(files)
    code = {path: stripped_lines(path) for path in files}
    seeds = collect_taint_seeds(code, src_root)

    def taint_of(path: Path, called: dict[str, set[int]]
                 ) -> list[set[str]]:
        return line_taint(code[path], seeds[module_of(path, src_root)],
                          types, scopes("\n".join(code[path]), called))

    # Two passes: find the calls that hand a tainted value to a named
    # function, then scan every file with those parameters tainted too.
    called: dict[str, set[int]] = {}
    for path in files:
        tainted_calls("\n".join(code[path]), taint_of(path, {}), vartime,
                      called)
    for path in files:
        scan_file(path, module_of(path, src_root), code[path],
                  taint_of(path, called), vartime, findings)
    findings.sort(key=lambda f: (str(f.path), f.lineno, f.rule))
    return findings, len(files)


# --------------------------------------------------------------------------

# A crypto-module path: R1 is scoped to crypto modules. Every
# `// want: RULE` line must be flagged with that rule.
SELFTEST_BAD = """\
#pragma once
#include <cstring>
#include "common/secret.h"
// vartime: public-inputs-only — verification combines wire data.
CBL_VARTIME int vartime_combine(int s);

class Server {
  Secret<ec::Scalar> half_mask_ CBL_GUARDED_BY(data_mutex_);

  bool probe(const std::uint8_t* t, std::size_t i) const {
    if (std::memcmp(t, t + 32, 32) == 0) return true;  // want: R1
    if (half_mask_.expose_secret() == t[i]) return true;  // want: R3
    const auto k = half_mask_.expose_secret().bytes()[0];
    while (k) {}  // want: R3
    const bool same = k != t[0];  // want: R3
    const int pick = k ? 1 : 2;  // want: R3
    const int q = 1000 / half_mask_.expose_secret().bytes()[1];  // want: R3
    return t[half_mask_.expose_secret().bytes()[0]];  // want: R4
  }
};

CBL_VARTIME int vartime_unjustified(int s);  // want: S4

inline int lookup(const int* table, const Secret<ec::Scalar>& s) {
  return table[s.expose_secret().bytes()[0]];  // want: R4
}

inline void forward(int x) { vartime_combine(x); }  // want: S1

inline void leak(const Secret<ec::Scalar>& sk, WireWriter& w) {
  ec::Scalar copy = sk.expose_secret();
  vartime_combine(copy);  // want: S1
  forward(copy);
  w.scalar(sk.expose_secret());  // want: S2
  const auto nr = sk.reveal_for("");  // want: S3
  ct::declassify(&copy, sizeof copy);  // want: S3
  const auto ok = sk.reveal_for("unregistered-reason");  // want: S5
}
"""

SELFTEST_GOOD = """\
#pragma once
#include "common/secret.h"
// vartime: public-inputs-only — combines public verification data.
CBL_VARTIME int combine(const std::uint8_t* wire, int n);

class CleanServer {
  Secret<ec::Scalar> half_mask_ CBL_GUARDED_BY(data_mutex_);

  bool probe(const std::uint8_t* t, std::size_t n) const {
    const bool eq = ct_equal(half_mask_.expose_secret().to_bytes(), t);
    const auto p = ct_select(eq, t[0], t[1]);
    for (std::size_t i = 0; i < n; ++i) use(m * half_mask_);
    if (n == 0) return false;
    return p != 0 && t[n / 2] == 0;
  }
};

inline void publish(const Secret<ec::Scalar>& s, WireWriter& w, int n) {
  combine(nullptr, n);
  const auto r = s.reveal_for("registered-reason");
  // ct:declassify(registered-reason) — epoch export is public by design.
  ct::declassify(&r, sizeof r);
  w.scalar(r);
}

inline int parse(std::optional<ec::Scalar> s) {
  if (!s) return 0;
  return s->to_bytes()[0] == 0 ? 1 : 2;
}

inline void refresh(CleanServer& srv) {
  auto bytes = srv.half_mask_.expose_secret().to_bytes();
  secure_wipe(bytes.data(), bytes.size());
}

// `bytes` is tainted file-wide by refresh(); the body of a CBL_VARTIME
// function is not checked (S1 proves its inputs public).
int combine(const std::uint8_t* wire, int n) {
  std::array<std::uint8_t, 32> bytes{};
  return bytes[n] != wire[0] ? n / 2 : 0;
}
"""

WANT = re.compile(r"//\s*want:\s*([RS]\d)")

SELFTEST_DESIGN = f"""\
# Design

{REGISTRY_BEGIN}
| Reason | Why it is sound |
|---|---|
| `registered-reason` | demo row |
| `stale-reason` | no code site uses this |
{REGISTRY_END}
"""


def self_test() -> int:
    with SelfTestTree("secret_flow_lint") as tree:
        tree.write("src/ec/bad.h", SELFTEST_BAD)
        tree.write("src/ec/good.h", SELFTEST_GOOD)
        tree.write("DESIGN.md", SELFTEST_DESIGN)
        findings, _ = run(tree.root)
    flagged = {(f.lineno, f.rule) for f in findings if f.path.name == "bad.h"}
    missed = [f"bad.h:{lineno} not flagged {rule}: {line.strip()}"
              for lineno, line in enumerate(SELFTEST_BAD.splitlines(), 1)
              for rule in WANT.findall(line) if (lineno, rule) not in flagged]
    for msg in missed + ["FAIL"] * bool(missed):
        print(f"secret_flow_lint self-test: {msg}")
    return 1 if missed else check_self_test(
        "secret_flow_lint", findings,
        expected_rules={"S1", "S2", "S3", "S4", "S5", "R1", "R3", "R4"},
        bad_names={"bad.h", "DESIGN.md"}, clean_names={"good.h"})


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", default=None,
                    help="repository root (default: the script's parent)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the seeded-violation self-test")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    root = Path(args.root) if args.root \
        else Path(__file__).resolve().parent.parent
    if not (root / "src").is_dir():
        print(f"secret_flow_lint: no src/ under {root}", file=sys.stderr)
        return 2

    findings, scanned = run(root)
    for f in findings:
        print(f)
    status = "FAIL" if findings else "OK"
    print(f"secret_flow_lint: {status} — {len(findings)} finding(s) over "
          f"{scanned} file(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
