"""C6: race-annotation coverage (DESIGN.md §8).

The SP-bags determinacy-race detector (src/analysis) only sees memory the
code declares via RLA_RACE_READ / RLA_RACE_WRITE (and their _STRIDED
variants).  A hot loop that stores through a raw ``double*`` without an
annotation is invisible to the detector, so races through it certify
cleanly -- the worst failure mode a race certifier can have.

This checker walks the compute layers (src/core, src/layout) and flags
any function that

  * declares or receives a raw ``double*`` (or ``const double*``),
  * stores through it with an indexed or dereferencing assignment inside
    a ``for``/``while`` loop, and
  * contains no RLA_RACE_* annotation.

Functions whose accesses are deliberately covered by an annotation in
their caller (leaf helpers invoked under a wrapper that declares the
whole tile) opt out with a marker comment anywhere in the function:

    // rla-lint: covered-by-caller

The heuristic is intentionally syntactic: it never misses a textual
store, and the escape hatch is a grep-able audit trail of every loop the
detector does not watch directly.
"""

from __future__ import annotations

import re
from typing import List

from rla_lint.model import Finding, Project, blank_comments_and_strings

# Sweep scope: the compute layers.
SCOPE_PREFIXES = ("src/core/", "src/layout/")

MARKER = "rla-lint: covered-by-caller"
ANNOTATION_RE = re.compile(r"\bRLA_RACE_(?:READ|WRITE)(?:_STRIDED)?\s*\(")
# `double* p`, `const double *p`, `double* const p` -- declaration or parameter.
DOUBLE_PTR_DECL_RE = re.compile(
    r"(?:\bconst\s+)?\bdouble\s*\*\s*(?:const\s+)?(?:__restrict(?:__)?\s+)?(\w+)"
)
LOOP_RE = re.compile(r"\b(?:for|while)\s*\(")
# name[idx] = / += / -= ... (reject == and <=/>= comparisons).
INDEXED_STORE_RE = re.compile(r"\b(\w+)\s*\[[^\]]*\]\s*(?:[+\-*/%&|^]|<<|>>)?=(?!=)")
# *name = / *name += ... as a statement; the leading anchor rejects pointer
# declarations (`double* p = ...`), where `*` follows a type name.
DEREF_STORE_RE = re.compile(
    r"(?:^|[;{}(])\s*\*\s*(\w+)\s*(?:[+\-*/%&|^]|<<|>>)?=(?!=)"
)
CONTROL_KEYWORDS = {"if", "for", "while", "switch", "catch", "return", "else", "do"}
TYPE_OPENERS = {"namespace", "struct", "class", "enum", "union", "extern"}


class Function:
    def __init__(self, signature: str, start_line: int):
        self.signature = signature
        self.start_line = start_line
        self.end_line = start_line
        self.body: list[tuple[int, str]] = []  # (line number, stripped text)


def split_functions(stripped: str):
    """Yield Function objects for every brace block that looks like a function.

    A block is a function when its introducing statement contains a
    parenthesised parameter list and is not a control construct or a type
    definition.  Nested blocks (lambdas, loops) stay part of the enclosing
    function; methods inside class bodies are picked up as their own
    functions.
    """
    lines = stripped.split("\n")
    functions: list[Function] = []
    stack: list[tuple[bool, Function | None]] = []  # (is_function, fn)
    statement = ""  # text since the last ; { or } -- the block introducer
    statement_line = 1

    for lineno, line in enumerate(lines, start=1):
        for fn in [f for is_fn, f in stack if is_fn and f is not None]:
            fn.body.append((lineno, line))
            break  # only the outermost function needs the line once
        for ch in line:
            if ch == "{":
                intro = statement.strip()
                first_word = re.match(r"[A-Za-z_]\w*", intro)
                word = first_word.group(0) if first_word else ""
                is_fn = (
                    "(" in intro
                    and ")" in intro
                    and word not in CONTROL_KEYWORDS
                    and word not in TYPE_OPENERS
                    and not intro.startswith("=")
                    and not any(f for f, _ in stack if f)  # not nested in a fn
                )
                fn = Function(intro, statement_line) if is_fn else None
                if fn is not None:
                    functions.append(fn)
                stack.append((is_fn, fn))
                statement = ""
                statement_line = lineno
            elif ch == "}":
                if stack:
                    is_fn, fn = stack.pop()
                    if is_fn and fn is not None:
                        fn.end_line = lineno
                statement = ""
                statement_line = lineno
            elif ch == ";":
                statement = ""
                statement_line = lineno
            else:
                if not statement:
                    statement_line = lineno
                statement += ch
        statement += " "
    return functions


def lint_text(text: str, path: str):
    """Return a list of (path, line, message) violations for one file."""
    marker_lines = {
        i for i, raw in enumerate(text.split("\n"), start=1) if MARKER in raw
    }
    stripped = blank_comments_and_strings(text)
    violations = []
    for fn in split_functions(stripped):
        body_text = "\n".join(line for _, line in fn.body)
        scope_text = fn.signature + "\n" + body_text
        if ANNOTATION_RE.search(scope_text):
            continue
        if any(fn.start_line <= m <= fn.end_line for m in marker_lines):
            continue
        ptr_names = set(DOUBLE_PTR_DECL_RE.findall(scope_text))
        if not ptr_names or not LOOP_RE.search(body_text):
            continue
        for lineno, line in fn.body:
            for regex in (INDEXED_STORE_RE, DEREF_STORE_RE):
                for m in regex.finditer(line):
                    if m.group(1) in ptr_names:
                        violations.append(
                            (
                                path,
                                lineno,
                                f"store through raw double* '{m.group(1)}' in a loop "
                                f"without RLA_RACE_WRITE/READ coverage "
                                f"(function at line {fn.start_line}; if the caller "
                                f"annotates this memory, add '// {MARKER}')",
                            )
                        )
                        break
                else:
                    continue
                break
    return violations


# --- self test ---------------------------------------------------------------

SEEDED_BAD = """
#include "analysis/annotations.hpp"
namespace rla {
void scale_rows(double* c, std::size_t ldc, double s, int m, int n) {
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < m; ++i) c[j * ldc + i] *= s;  // unannotated store
  }
}
}  // namespace rla
"""

SEEDED_GOOD = """
#include "analysis/annotations.hpp"
namespace rla {
void scale_rows(double* c, std::size_t ldc, double s, int m, int n) {
  RLA_RACE_WRITE_STRIDED(c, m * sizeof(double), ldc * sizeof(double), n);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < m; ++i) c[j * ldc + i] *= s;
  }
}
// rla-lint: covered-by-caller -- the wrapper above declared the block.
void scale_leaf(double* c, int m) {
  for (int i = 0; i < m; ++i) c[i] *= 2.0;
}
void reads_only(const double* a, int m, double* out_sum) {
  double s = 0.0;
  for (int i = 0; i < m; ++i) s += a[i];
  *out_sum = s;  // single store outside any loop-carried pointer walk is
}                // still flagged only when a loop exists -- it does here.
}  // namespace rla
"""


class RaceAnnotationChecker:
    name = "race-annotations"
    code = "C6"
    description = (
        "shared-state functions in src/core and src/layout carry race "
        "annotations (RLA_RACE_READ/WRITE or a covered-by-caller marker)"
    )

    def run(self, project: Project) -> List[Finding]:
        findings: List[Finding] = []
        for sf in project.cpp_files():
            if not sf.path.startswith(SCOPE_PREFIXES):
                continue
            if not project.in_targets(sf.path):
                continue
            for path, line, msg in lint_text(sf.text, sf.path):
                findings.append(Finding(self.name, self.code, path, line, msg))
        return findings

    def self_test(self) -> List[str]:
        bad = lint_text(SEEDED_BAD, "<seeded-bad>")
        if len(bad) != 1 or "'c'" not in bad[0][2]:
            return [f"seeded violation not found (got {bad})"]
        good = lint_text(SEEDED_GOOD, "<seeded-good>")
        # `reads_only` stores *out_sum inside a function that has a loop: that
        # is a true positive of the conservative heuristic and must be
        # reported; the annotated and marker-escaped functions must not be.
        if {v[1] for v in good} & set(range(3, 10)):
            return [f"annotated function was flagged ({good})"]
        if any("scale_leaf" in v[2] for v in good):
            return [f"marker-escaped function was flagged ({good})"]
        return []
