#!/usr/bin/env python3
"""Project-specific contract lint for the diffreg tree.

Three rules, each encoding a cross-file invariant the compiler cannot see
(docs/ANALYSIS.md has the full rationale):

  zero-alloc        A function annotated with a `// diffreg:zero-alloc`
                    comment must not allocate on the heap: no new/malloc
                    family, no growing-container calls (push_back, resize,
                    reserve, ...), no std::string/std::vector construction.
                    These are the warm-path kernels the paper's flop/byte
                    model budgets; an accidental allocation is a silent
                    performance regression no test asserts on.
  mpisim-throw      Every `throw` under src/mpisim must throw a type that
                    derives from CommError (errors.hpp), so run_spmd
                    callers can classify any comm failure from one root
                    and the chaos CI job can grep what() class names.
  timekind-unused   Every TimeKind enum value must be referenced as
                    `TimeKind::kX` somewhere outside its declaration —
                    a category nothing accounts to is dead weight in every
                    report table.

Backends: the token scanner below is self-contained (no third-party
imports) and is what runs everywhere, including the no-network build
container. When python3-clang (libclang) is importable, the zero-alloc
rule is ADDITIONALLY checked on the AST (operator-new expressions and
calls to allocating members), parsing each marked file with the flags
recorded in compile_commands.json when one is given. Findings from both
backends are merged; libclang being absent only narrows detection to the
token level, it never changes a clean tree into a dirty one.

Exit status: 0 clean, 1 findings reported, 2 usage/internal error.
`--selftest` runs all rules against tools/lint/selftest/, a miniature
tree seeding exactly one violation per rule, and verifies each is caught.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import sys
import tempfile
from dataclasses import dataclass

RULE_IDS = ("zero-alloc", "mpisim-throw", "timekind-unused")

MARKER = "diffreg:zero-alloc"

# Token-level allocation signatures. Matched against comment- and
# string-stripped function bodies, so doc text never trips them.
ALLOC_TOKENS = [
    (re.compile(r"\bnew\b"), "operator new"),
    (re.compile(r"\b(?:malloc|calloc|realloc|strdup|aligned_alloc)\s*\("),
     "C allocation call"),
    (re.compile(r"\.\s*(?:push_back|emplace_back|resize|reserve|insert|"
                r"assign|append)\s*\("), "growing-container call"),
    (re.compile(r"\bmake_(?:unique|shared)\b"), "smart-pointer factory"),
    (re.compile(r"\bstd::(?:vector|string|map|set|unordered_map|"
                r"unordered_set|deque|list)\s*<[^;{]*>\s+\w+\s*[({;]"),
     "owning-container construction"),
    (re.compile(r"\bstd::string\s+\w+"), "std::string construction"),
    (re.compile(r"\bto_string\s*\("), "std::to_string"),
]

# Allocating callees the AST backend resolves CALL_EXPRs to.
CLANG_ALLOC_METHODS = {
    "push_back", "emplace_back", "resize", "reserve", "insert", "assign",
    "append", "operator new", "operator new[]", "malloc", "calloc",
    "realloc", "strdup", "aligned_alloc", "make_unique", "make_shared",
    "to_string",
}


@dataclass
class Finding:
    path: str
    line: int  # 1-based
    rule: str
    message: str

    def render(self, root: str) -> str:
        rel = os.path.relpath(self.path, root)
        return f"{rel}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text: str) -> str:
    """Replaces comment/string-literal bytes with spaces, preserving
    newlines so line numbers survive."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | dq | sq
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "dq"
                out.append('"')
                i += 1
                continue
            if c == "'":
                state = "sq"
                out.append("'")
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in ("dq", "sq"):
            quote = '"' if state == "dq" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(quote)
            elif c == "\n":  # unterminated; bail to code
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        i += 1
    return "".join(out)


def source_files(root: str, subdir: str = "src") -> list[str]:
    base = os.path.join(root, subdir)
    found = []
    for dirpath, _dirnames, filenames in os.walk(base):
        for name in sorted(filenames):
            if name.endswith((".hpp", ".cpp", ".h", ".cc")):
                found.append(os.path.join(dirpath, name))
    return found


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def function_body_after(stripped: str, marker_end: int) -> tuple[int, int] | None:
    """Returns (open_brace_offset, close_brace_offset) of the function body
    following a marker, or None. Skips over the signature (which may span
    lines and contain default-argument parens) to the first top-level '{'.
    A ';' before any '{' means the marker sits on a declaration."""
    depth = 0
    i = marker_end
    n = len(stripped)
    while i < n:
        c = stripped[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif c == ";" and depth == 0:
            return None
        elif c == "{" and depth == 0:
            break
        i += 1
    if i >= n:
        return None
    open_brace = i
    brace = 0
    while i < n:
        c = stripped[i]
        if c == "{":
            brace += 1
        elif c == "}":
            brace -= 1
            if brace == 0:
                return (open_brace, i)
        i += 1
    return None


def extract_braced(stripped: str, start: int) -> str | None:
    """Body text from the first '{' at/after `start` to its matching '}'."""
    i = stripped.find("{", start)
    if i < 0:
        return None
    depth = 0
    for j in range(i, len(stripped)):
        if stripped[j] == "{":
            depth += 1
        elif stripped[j] == "}":
            depth -= 1
            if depth == 0:
                return stripped[i:j + 1]
    return None


# --- Rule: zero-alloc (token backend) --------------------------------------

def check_zero_alloc_text(path: str, raw: str, stripped: str) -> list[Finding]:
    findings = []
    for m in re.finditer(re.escape(MARKER), raw):
        # Marker offsets are identical in raw and stripped (stripping is
        # length-preserving), but the marker itself is blanked in
        # `stripped` — locate it in raw, scan the body in stripped.
        marker_line_end = raw.find("\n", m.end())
        if marker_line_end < 0:
            marker_line_end = len(raw)
        span = function_body_after(stripped, marker_line_end)
        if span is None:
            findings.append(Finding(
                path, line_of(raw, m.start()), "zero-alloc",
                "marker is not followed by a function definition"))
            continue
        body = stripped[span[0]:span[1] + 1]
        for pattern, what in ALLOC_TOKENS:
            hit = pattern.search(body)
            if hit:
                findings.append(Finding(
                    path, line_of(stripped, span[0] + hit.start()),
                    "zero-alloc",
                    f"{what} inside a diffreg:zero-alloc function"))
    return findings


# --- Rule: zero-alloc (libclang backend) ------------------------------------

def load_compile_flags(compile_commands: str | None) -> dict[str, list[str]]:
    if not compile_commands or not os.path.exists(compile_commands):
        return {}
    flags: dict[str, list[str]] = {}
    with open(compile_commands, encoding="utf-8") as f:
        for entry in json.load(f):
            args = entry.get("arguments")
            if args is None:
                args = entry.get("command", "").split()
            # Drop the compiler, -c/-o pairs and the source file itself.
            keep, skip = [], False
            for a in args[1:]:
                if skip:
                    skip = False
                    continue
                if a in ("-c", "-o"):
                    skip = True
                    continue
                if a == entry["file"] or a.endswith((".cpp", ".cc")):
                    continue
                keep.append(a)
            flags[os.path.abspath(entry["file"])] = keep
    return flags


def check_zero_alloc_clang(paths: list[str], root: str,
                           compile_commands: str | None) -> list[Finding]:
    try:
        from clang import cindex  # type: ignore
    except ImportError:
        return []
    try:
        index = cindex.Index.create()
    except Exception:
        return []  # libclang shared object missing; token backend covers us
    flag_map = load_compile_flags(compile_commands)
    default_flags = ["-std=c++20", "-x", "c++", "-I", os.path.join(root, "src")]
    findings = []
    for path in paths:
        raw = open(path, encoding="utf-8").read()
        if MARKER not in raw:
            continue
        marker_lines = {i + 1 for i, ln in enumerate(raw.splitlines())
                        if MARKER in ln}
        args = flag_map.get(os.path.abspath(path), default_flags)
        try:
            tu = index.parse(path, args=args)
        except cindex.TranslationUnitLoadError:
            continue
        from clang.cindex import CursorKind
        fn_kinds = (CursorKind.FUNCTION_DECL, CursorKind.CXX_METHOD,
                    CursorKind.FUNCTION_TEMPLATE, CursorKind.CONSTRUCTOR)

        def walk_alloc(node, fn_path):
            if node.kind == CursorKind.CXX_NEW_EXPR:
                findings.append(Finding(
                    fn_path, node.location.line, "zero-alloc",
                    "operator new inside a diffreg:zero-alloc function (AST)"))
            if node.kind == CursorKind.CALL_EXPR and \
                    node.spelling in CLANG_ALLOC_METHODS:
                findings.append(Finding(
                    fn_path, node.location.line, "zero-alloc",
                    f"call to allocating '{node.spelling}' inside a "
                    "diffreg:zero-alloc function (AST)"))
            for child in node.get_children():
                walk_alloc(child, fn_path)

        def walk(node):
            if node.kind in fn_kinds and node.is_definition() and \
                    node.location.file and \
                    os.path.samefile(node.location.file.name, path):
                start = node.extent.start.line
                # Marked iff a marker comment sits within the 3 lines
                # above the definition (doc comments may intervene).
                if any(l in marker_lines for l in range(start - 3, start)):
                    walk_alloc(node, path)
            for child in node.get_children():
                walk(child)

        walk(tu.cursor)
    return findings


# --- Rule: mpisim-throw ------------------------------------------------------

def comm_error_types(root: str) -> tuple[set[str], list[Finding]]:
    path = os.path.join(root, "src", "mpisim", "errors.hpp")
    if not os.path.exists(path):
        return set(), [Finding(path, 1, "mpisim-throw",
                               "src/mpisim/errors.hpp not found")]
    stripped = strip_comments_and_strings(open(path, encoding="utf-8").read())
    derives: dict[str, str] = {}
    for m in re.finditer(r"\bclass\s+(\w+)\s*:\s*public\s+([\w:]+)", stripped):
        derives[m.group(1)] = m.group(2).split("::")[-1]
    allowed = {"CommError"}
    changed = True
    while changed:
        changed = False
        for cls, base in derives.items():
            if base in allowed and cls not in allowed:
                allowed.add(cls)
                changed = True
    return allowed, []


def check_mpisim_throws(root: str) -> list[Finding]:
    allowed, findings = comm_error_types(root)
    if findings:
        return findings
    for path in source_files(root, os.path.join("src", "mpisim")):
        stripped = strip_comments_and_strings(
            open(path, encoding="utf-8").read())
        for m in re.finditer(r"\bthrow\b\s*([A-Za-z_][\w:<>]*)?", stripped):
            spelled = m.group(1)
            if not spelled:  # bare `throw;` rethrow
                continue
            base_name = re.sub(r"<.*", "", spelled).split("::")[-1]
            if base_name not in allowed:
                findings.append(Finding(
                    path, line_of(stripped, m.start()), "mpisim-throw",
                    f"throw of '{spelled}' under src/mpisim does not derive "
                    "from CommError"))
    return findings


# --- Rule: timekind-unused ---------------------------------------------------

def check_timekind(root: str) -> list[Finding]:
    path = os.path.join(root, "src", "common", "timer.hpp")
    if not os.path.exists(path):
        return [Finding(path, 1, "timekind-unused",
                        "src/common/timer.hpp not found")]
    raw = open(path, encoding="utf-8").read()
    stripped = strip_comments_and_strings(raw)
    enum_m = re.search(r"\benum\s+class\s+TimeKind\b[^{]*", stripped)
    if not enum_m:
        return [Finding(path, 1, "timekind-unused", "enum TimeKind not found")]
    enum_body = extract_braced(stripped, enum_m.end())
    if enum_body is None:
        return [Finding(path, 1, "timekind-unused",
                        "could not parse enum TimeKind body")]
    body_start = stripped.find("{", enum_m.end())
    # Enumerator name -> its own declaration line, so every unreferenced
    # value is a finding of its own (run_all dedupes on the line).
    values = {m.group(1): line_of(stripped, body_start + m.start(1))
              for m in re.finditer(r"[{,]\s*(k\w+)", enum_body)}

    referenced: set[str] = set()
    for src in source_files(root, "src") + source_files(root, "tools"):
        text = strip_comments_and_strings(open(src, encoding="utf-8").read())
        if src.endswith(os.path.join("common", "timer.hpp")):
            text = text.replace(enum_body, "")  # declaration doesn't count
        for m in re.finditer(r"\bTimeKind::(k\w+)", text):
            referenced.add(m.group(1))

    return [Finding(path, line, "timekind-unused",
                    f"TimeKind::{v} is never referenced outside its "
                    "declaration")
            for v, line in values.items() if v not in referenced]


# --- Driver ------------------------------------------------------------------

def run_all(root: str, compile_commands: str | None) -> list[Finding]:
    findings: list[Finding] = []
    paths = source_files(root, "src")
    for path in paths:
        raw = open(path, encoding="utf-8").read()
        if MARKER in raw:
            stripped = strip_comments_and_strings(raw)
            findings += check_zero_alloc_text(path, raw, stripped)
    findings += check_zero_alloc_clang(paths, root, compile_commands)
    findings += check_mpisim_throws(root)
    findings += check_timekind(root)
    # The AST backend may re-report a token-level hit; dedupe on
    # (path, rule, line) so the count stays stable across backends.
    seen = set()
    unique = []
    for f in findings:
        key = (f.path, f.rule, f.line)
        if key not in seen:
            seen.add(key)
            unique.append(f)
    return unique


def selftest_two_unused_timekinds(root: str) -> bool:
    """Two unreferenced TimeKind values must stay two findings: runs the
    linter on a copy of the fixture whose only kCount reference is gone."""
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(os.path.join(root, "src"), os.path.join(tmp, "src"))
        timer = os.path.join(tmp, "src", "common", "timer.hpp")
        text = open(timer, encoding="utf-8").read()
        cut = text.replace("static_cast<int>(TimeKind::kCount)", "2")
        if cut == text:
            print("selftest: FAIL fixture has no kCount reference to remove",
                  file=sys.stderr)
            return False
        with open(timer, "w", encoding="utf-8") as f:
            f.write(cut)
        got = [f for f in run_all(tmp, None) if f.rule == "timekind-unused"]
    if len(got) == 2:
        print("selftest: [timekind-unused] reports kGhost and kCount "
              "separately: lines " + ", ".join(str(f.line) for f in got))
        return True
    print(f"selftest: FAIL [timekind-unused] expected 2 findings with kCount "
          f"also unreferenced, got {len(got)}", file=sys.stderr)
    return False


def run_selftest(lint_dir: str) -> int:
    root = os.path.join(lint_dir, "selftest")
    findings = run_all(root, None)
    by_rule: dict[str, list[Finding]] = {r: [] for r in RULE_IDS}
    for f in findings:
        by_rule.setdefault(f.rule, []).append(f)
    ok = True
    for rule in RULE_IDS:
        got = by_rule.get(rule, [])
        if len(got) == 1:
            print(f"selftest: [{rule}] caught the seeded violation: "
                  f"{got[0].render(root)}")
        else:
            ok = False
            print(f"selftest: FAIL [{rule}] expected exactly 1 finding, "
                  f"got {len(got)}:", file=sys.stderr)
            for f in got:
                print("  " + f.render(root), file=sys.stderr)
    extra = [f for f in findings if f.rule not in RULE_IDS]
    if extra:
        ok = False
        for f in extra:
            print(f"selftest: FAIL unexpected rule id: {f.render(root)}",
                  file=sys.stderr)
    ok = selftest_two_unused_timekinds(root) and ok
    print("selftest: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repo root (default: two levels up from here)")
    parser.add_argument("--compile-commands", default=None,
                        help="compile_commands.json for the libclang backend")
    parser.add_argument("--selftest", action="store_true",
                        help="run against the seeded selftest tree")
    args = parser.parse_args()

    lint_dir = os.path.dirname(os.path.abspath(__file__))
    if args.selftest:
        return run_selftest(lint_dir)

    root = args.root or os.path.dirname(os.path.dirname(lint_dir))
    compile_commands = args.compile_commands
    if compile_commands is None:
        candidate = os.path.join(root, "build", "compile_commands.json")
        if os.path.exists(candidate):
            compile_commands = candidate

    findings = run_all(root, compile_commands)
    for f in findings:
        print(f.render(root))
    if findings:
        print(f"contract_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("contract_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
