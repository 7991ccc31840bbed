"""Shared source model for rla_lint checkers.

The model is deliberately lexical: comments and strings are tracked exactly
(the same stripper the standalone lock/annotation lints use), functions are
recovered by brace matching, and calls by identifier-before-paren scanning.
That is enough for whole-project invariants — the checkers reason about
*names* (metric literals, fault-site specs, env vars, callee identifiers),
not types.  When the libclang bindings are available, clang_frontend.py
replaces the call-graph edges with AST-resolved ones; everything else is
unchanged.
"""

from __future__ import annotations

import dataclasses
import os
import re
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


@dataclasses.dataclass
class Finding:
    """A single diagnostic. `checker` is the short name, `code` the C-id."""

    checker: str
    code: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.code}: {self.message}"


# ---------------------------------------------------------------------------
# Lexical stripping


def strip_comments_and_strings(text: str, keep_strings: bool = False) -> str:
    """Blank out comments (and, unless keep_strings, string/char literals).

    Replaced characters become spaces so line/column numbers survive.  With
    keep_strings=True only comments are blanked — used by checkers that need
    to see string literals (metric names, fault-site specs) but must not
    match names inside comments.
    """
    out = []
    i, n = 0, len(text)
    state = "code"  # code, line_comment, block_comment, string, char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
            elif c == '"':
                state = "string"
                out.append('"' if keep_strings else " ")
                i += 1
            elif c == "'":
                state = "char"
                out.append("'" if keep_strings else " ")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        elif state == "string":
            if c == "\\" and nxt:
                out.append(c + nxt if keep_strings else "  ")
                i += 2
            elif c == '"':
                state = "code"
                out.append('"' if keep_strings else " ")
                i += 1
            else:
                out.append(c if (keep_strings or c == "\n") else " ")
                i += 1
        elif state == "char":
            if c == "\\" and nxt:
                out.append(c + nxt if keep_strings else "  ")
                i += 2
            elif c == "'":
                state = "code"
                out.append("'" if keep_strings else " ")
                i += 1
            else:
                out.append(c if (keep_strings or c == "\n") else " ")
                i += 1
    return "".join(out)


def blank_comments_and_strings(text: str) -> str:
    """Blank out comments and the contents of string and char literals
    (the quotes stay), preserving line structure.  The C5 and C6 rules
    were calibrated against exactly this blanking."""
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif ch == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            seg = text[i : j + 2]
            out.append("".join(c if c == "\n" else " " for c in seg))
            i = j + 2
        elif ch in "\"'":
            quote = ch
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            out.append(quote + " " * (j - i - 1) + quote)
            i = j + 1
        else:
            out.append(ch)
            i += 1
    return "".join(out)


# ---------------------------------------------------------------------------
# Function extraction

_TYPE_OPENERS = re.compile(
    r"\b(?:struct|class|enum|union|namespace)\b|^\s*(?:do|try|else)\b"
)
_CONTROL_KEYWORDS = frozenset(
    {
        "if",
        "for",
        "while",
        "switch",
        "catch",
        "return",
        "sizeof",
        "alignof",
        "decltype",
        "noexcept",
        "assert",
        "defined",
        "static_assert",
        "alignas",
        "co_return",
        "co_await",
        "throw",
        "new",
        "delete",
        "requires",
        "operator",
    }
)

# Identifier (possibly qualified) immediately followed by '('.
_CALL_RE = re.compile(r"(?:\b(?:\w+::)+)?([A-Za-z_]\w*)\s*\(")

_NAME_BEFORE_PAREN_RE = re.compile(r"([\w:~]+)\s*\($")


@dataclasses.dataclass
class Function:
    """A brace-matched function definition."""

    name: str  # last identifier of the declarator ("build")
    qualname: str  # as written ("ZeroTree::build")
    path: str
    start_line: int  # 1-based line of the opening '{'
    end_line: int
    intro: str  # declarator text preceding the '{'
    body_lines: List[Tuple[int, str]]  # (lineno, stripped text incl. braces)

    def key(self) -> str:
        return f"{self.path}:{self.start_line}:{self.qualname}"


def _intro_is_function(intro: str) -> bool:
    intro = intro.strip()
    if not intro or "(" not in intro or ")" not in intro:
        return False
    if intro.endswith(("=", ",", "return")):
        return False
    # Reject type/namespace blocks unless the opener is buried in a template
    # parameter or similar — good enough lexically.
    if _TYPE_OPENERS.search(intro):
        return False
    # Initializer lists: `Foo x{1}` / `int y[] = {` won't have a trailing ')'
    # or end after ')' optionally followed by specifiers.
    tail = re.sub(
        r"(?:\bconst\b|\bnoexcept\b(?:\s*\([^)]*\))?|\boverride\b|\bfinal\b|"
        r"->\s*[\w:<>,&*\s]+|\s)+$",
        "",
        intro,
    )
    if not tail.endswith(")"):
        return False
    return True


def _declarator_name(intro: str) -> Tuple[str, str]:
    """Return (name, qualname) of the declarator in a function intro."""
    # Find the '(' that opens the parameter list: the first '(' whose
    # preceding token is an identifier (skipping over template args).
    depth = 0
    for m in re.finditer(r"[()]", intro):
        if m.group() == "(":
            if depth == 0:
                head = intro[: m.start()].rstrip()
                nm = re.search(r"([\w:~]+)$", head)
                if nm:
                    qual = nm.group(1)
                    return qual.split("::")[-1], qual
                return "", ""
            depth += 1
        else:
            depth = max(0, depth - 1)
    return "", ""


def split_functions(stripped: str, path: str) -> List[Function]:
    """Recover top-level function definitions by brace matching.

    Blocks nested inside a recognised function (lambdas, local scopes) stay
    part of the enclosing function's body.  Type/namespace bodies recurse so
    member functions defined inline inside classes are still found.
    """
    lines = stripped.split("\n")
    funcs: List[Function] = []

    # Walk characters, tracking brace depth and the statement text since the
    # last ';', '}' or '{' — that's the candidate intro when a '{' opens.
    fn_stack: List[Tuple[Function, int]] = []  # (function, depth of its '{')
    depth = 0
    lineno = 1
    cur = ""
    in_pp = False  # inside a preprocessor directive (incl. continuations)

    for idx, raw in enumerate(lines):
        lineno = idx + 1
        line = raw
        s = line.lstrip()
        if in_pp or s.startswith("#"):
            in_pp = line.rstrip().endswith("\\")
            if fn_stack:
                fn_stack[0][0].body_lines.append((lineno, line))
            continue
        seg_start = 0
        for col, ch in enumerate(line):
            if ch == "{":
                cur += line[seg_start:col]
                seg_start = col + 1
                intro = cur.strip()
                cur = ""
                if not fn_stack and _intro_is_function(intro):
                    name, qual = _declarator_name(intro)
                    if name and name not in _CONTROL_KEYWORDS:
                        fn = Function(
                            name=name,
                            qualname=qual,
                            path=path,
                            start_line=lineno,
                            end_line=lineno,
                            intro=intro,
                            body_lines=[],
                        )
                        fn_stack.append((fn, depth))
                depth += 1
            elif ch == "}":
                cur += line[seg_start:col]
                seg_start = col + 1
                depth = max(0, depth - 1)
                cur = ""
                if fn_stack and depth == fn_stack[-1][1]:
                    fn, _ = fn_stack.pop()
                    fn.end_line = lineno
                    funcs.append(fn)
            elif ch == ";":
                cur += line[seg_start:col]
                seg_start = col + 1
                cur = ""
        cur += line[seg_start:]
        cur += " "
        if len(cur) > 4000:  # defensive: runaway intro on odd input
            cur = cur[-2000:]
        if fn_stack:
            fn_stack[0][0].body_lines.append((lineno, line))

    return funcs


def extract_calls(body_line: str) -> List[str]:
    """Identifier-before-'(' names on a stripped line, minus keywords/macros."""
    out = []
    for m in _CALL_RE.finditer(body_line):
        name = m.group(1)
        if name in _CONTROL_KEYWORDS:
            continue
        if name.isupper() or (name.startswith("RLA_") and name.isupper()):
            continue  # macro invocation — expanded code is checked at its def
        # Skip declarations like `int foo(` is indistinguishable lexically;
        # harmless: a same-named project function simply joins the closure.
        out.append(name)
    return out


# ---------------------------------------------------------------------------
# Files and project

_CPP_EXT = (".cpp", ".cc", ".cxx", ".hpp", ".hh", ".h", ".inl")
_PY_EXT = (".py",)


@dataclasses.dataclass
class SourceFile:
    path: str  # repo-relative, posix separators
    text: str
    lines: List[str]  # raw lines (comments intact — directives live here)
    stripped: str  # comments AND strings blanked
    code: str  # comments blanked, strings kept

    @property
    def is_python(self) -> bool:
        return self.path.endswith(_PY_EXT)

    @property
    def stripped_lines(self) -> List[str]:
        return self.stripped.split("\n")

    @property
    def code_lines(self) -> List[str]:
        return self.code.split("\n")


DEFAULT_SWEEP_ROOTS = ("src", "tools", "bench", "tests", "examples")

# Never part of a default sweep: deliberately-broken sources.
SKIP_DIR_PARTS = ("tests/compile_fail", "tests/lint_fixtures", "build")


class Project:
    """Everything the checkers need: files, functions, call graph, targets.

    `files` maps repo-relative path -> SourceFile for the whole tree (always
    loaded, so explicit-file runs still see full context: the schema header,
    the fault table, the call graph).  `targets` is the subset findings may
    be reported for — explicit CLI paths, or the default sweep.
    `explicit` is True when the user named files; checkers then skip their
    *global* coverage rules (dead schema entries, undocumented-var table
    sync) which are only meaningful for a whole-tree sweep.
    """

    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        self.files: Dict[str, SourceFile] = {}
        self.targets: List[str] = []
        self.explicit = False
        self.backend = "text"
        self._functions: Optional[List[Function]] = None
        self._fn_by_name: Optional[Dict[str, List[Function]]] = None

    # -- loading ----------------------------------------------------------

    def _want(self, rel: str) -> bool:
        if not rel.endswith(_CPP_EXT + _PY_EXT):
            return False
        norm = rel.replace(os.sep, "/")
        return not any(
            norm == part or norm.startswith(part + "/") or ("/" + part + "/") in norm
            for part in SKIP_DIR_PARTS
        )

    def load_file(self, rel: str) -> Optional[SourceFile]:
        norm = rel.replace(os.sep, "/")
        if norm in self.files:
            return self.files[norm]
        full = os.path.join(self.root, rel)
        try:
            with open(full, "r", encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError:
            return None
        if norm.endswith(_PY_EXT):
            sf = SourceFile(norm, text, text.split("\n"), text, text)
        else:
            sf = SourceFile(
                norm,
                text,
                text.split("\n"),
                strip_comments_and_strings(text),
                strip_comments_and_strings(text, keep_strings=True),
            )
        self.files[norm] = sf
        return sf

    def load_tree(self, roots: Sequence[str] = DEFAULT_SWEEP_ROOTS) -> None:
        for top in roots:
            base = os.path.join(self.root, top)
            if not os.path.isdir(base):
                continue
            for dirpath, dirnames, filenames in os.walk(base):
                dirnames[:] = [d for d in sorted(dirnames) if d != "__pycache__"]
                for fn in sorted(filenames):
                    rel = os.path.relpath(os.path.join(dirpath, fn), self.root)
                    if self._want(rel):
                        self.load_file(rel)
        # README participates in the env-contract checker.
        for extra in ("README.md",):
            full = os.path.join(self.root, extra)
            if os.path.isfile(full):
                with open(full, "r", encoding="utf-8", errors="replace") as f:
                    text = f.read()
                self.files[extra] = SourceFile(
                    extra, text, text.split("\n"), text, text
                )

    def add_virtual_file(self, rel: str, text: str) -> SourceFile:
        """Register in-memory content (self-tests use this; no disk I/O)."""
        norm = rel.replace(os.sep, "/")
        if norm.endswith(_PY_EXT) or norm.endswith(".md"):
            sf = SourceFile(norm, text, text.split("\n"), text, text)
        else:
            sf = SourceFile(
                norm,
                text,
                text.split("\n"),
                strip_comments_and_strings(text),
                strip_comments_and_strings(text, keep_strings=True),
            )
        self.files[norm] = sf
        self._functions = None
        self._fn_by_name = None
        return sf

    # -- queries ----------------------------------------------------------

    def cpp_files(self) -> List[SourceFile]:
        return [f for f in self.files.values() if f.path.endswith(_CPP_EXT)]

    def python_files(self) -> List[SourceFile]:
        return [f for f in self.files.values() if f.path.endswith(_PY_EXT)]

    def target_set(self) -> frozenset:
        return frozenset(self.targets)

    def in_targets(self, path: str) -> bool:
        return not self.targets or path in self.target_set()

    def functions(self) -> List[Function]:
        if self._functions is None:
            fns: List[Function] = []
            for sf in self.cpp_files():
                fns.extend(split_functions(sf.stripped, sf.path))
            self._functions = fns
        return self._functions

    def functions_by_name(self) -> Dict[str, List[Function]]:
        if self._fn_by_name is None:
            table: Dict[str, List[Function]] = {}
            for fn in self.functions():
                table.setdefault(fn.name, []).append(fn)
            self._fn_by_name = table
        return self._fn_by_name


# ---------------------------------------------------------------------------
# compile_commands.json ingestion


def load_compile_commands(path: str, root: str) -> Tuple[List[str], List[str]]:
    """Return (repo-relative TU files, include dirs) from a compilation DB."""
    import json

    with open(path, "r", encoding="utf-8") as f:
        entries = json.load(f)
    root = os.path.abspath(root)
    files: List[str] = []
    includes: List[str] = []
    seen_inc = set()
    for e in entries:
        src = e.get("file", "")
        directory = e.get("directory", root)
        if not os.path.isabs(src):
            src = os.path.join(directory, src)
        src = os.path.normpath(src)
        if src.startswith(root + os.sep):
            files.append(os.path.relpath(src, root).replace(os.sep, "/"))
        args = e.get("arguments")
        if args is None:
            args = (e.get("command") or "").split()
        for i, a in enumerate(args):
            inc = None
            if a.startswith("-I") and len(a) > 2:
                inc = a[2:]
            elif a == "-I" and i + 1 < len(args):
                inc = args[i + 1]
            elif a.startswith("-isystem") and len(a) > 8:
                inc = a[8:]
            if inc:
                if not os.path.isabs(inc):
                    inc = os.path.join(directory, inc)
                inc = os.path.normpath(inc)
                if inc not in seen_inc:
                    seen_inc.add(inc)
                    includes.append(inc)
    return sorted(set(files)), includes
