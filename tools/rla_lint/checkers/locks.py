"""C5: lock discipline (DESIGN.md §13).

Clang's Thread Safety Analysis proves that guarded state is only touched
with the right capability held, but several repo rules live outside its
vocabulary.  This checker enforces those, on top of the compiler:

  R1  No raw ``std::mutex`` / ``std::condition_variable`` (or their lock
      helpers, or the <mutex>/<condition_variable> includes) outside
      ``src/support/sync.hpp`` -- everything goes through rla::Mutex /
      rla::CondVar so the annotations cover it.
  R2  Every ``Mutex`` member/variable declaration under ``src/`` carries a
      trailing ``// lock-level: <level>`` comment naming its rank in the
      acquisition hierarchy (lifecycle -> service -> pool -> arena ->
      registry).  The same mutex name may not claim two different levels
      anywhere in the tree (rename one -- that is why the service and the
      arena call theirs service_mutex_ / arena_mutex_).
  R3  Nested ``MutexLock`` acquisitions within one function must descend
      the hierarchy strictly: a thread holding a lock may only acquire a
      *lower*-ranked one, never a higher or equal rank.  (Syntactic and
      per-function: cross-function nesting is left to the compiler and
      to code review.)
  R4  A ``CondVar::wait_for`` call without a predicate (exactly three
      arguments: mutex, lock, duration) is a timed poll and must justify
      itself with a ``// timed-wait:`` comment on or within four lines
      above the call.  ``wait()`` has predicate overloads only, so this is
      the one remaining lost-wakeup-shaped hole.
  R5  Every ``notify_one``/``notify_all`` on a CondVar documents the
      guarded state it publishes: ``// publishes: <state>`` on the same
      line or the line above.  This keeps the notify <-> predicate pairing
      reviewable (a lost wakeup in the service was exactly a mispaired
      notify).
  R6  Every use of ``RLA_NO_THREAD_SAFETY_ANALYSIS`` carries an adjacent
      ``// justification:`` comment (two lines above through four below).
  R7  CondVar variables have "cv" in their name.  R4/R5 match call sites
      by receiver name, so this is what makes them sound: an rla::CondVar
      can not hide from the lint behind a name like ``signal_``, while
      ``std::future::wait_for`` callers do not trip R4.

``src/support/sync.hpp`` itself is exempt from R1/R4/R5 (it is the one
place allowed to touch the std primitives, and its bodies forward to
them); it still answers to R6.

Files are scanned under src/, tests/ and bench/.  The default sweep skips
tests/compile_fail/ and tests/lint_fixtures/ (those files violate the rules
on purpose); naming one explicitly lints it.
"""

from __future__ import annotations

import re
from typing import List

from rla_lint.model import Finding, Project, blank_comments_and_strings

# Sweep scope.
SCOPE_PREFIXES = ("src/", "tests/", "bench/")

HIERARCHY = ["lifecycle", "service", "pool", "arena", "registry"]
RANK = {name: i for i, name in enumerate(HIERARCHY)}

RAW_PRIMITIVE_RE = re.compile(
    r"std::(?:mutex\b|recursive_mutex\b|timed_mutex\b|shared_mutex\b"
    r"|condition_variable(?:_any)?\b|lock_guard\b|unique_lock\b"
    r"|scoped_lock\b|shared_lock\b)"
)
RAW_INCLUDE_RE = re.compile(r"#\s*include\s*<(?:mutex|condition_variable|shared_mutex)>")
MUTEX_DECL_RE = re.compile(r"\bMutex\s+(\w+)\s*(?:;|\{)")
LOCK_LEVEL_RE = re.compile(r"//.*?lock-level:\s*([A-Za-z_]\w*)")
MUTEXLOCK_RE = re.compile(r"\bMutexLock\s+(\w+)\s*\(\s*((?:\w+(?:\.|->))*\w+)\s*\)")
CONDVAR_DECL_RE = re.compile(r"\bCondVar\s+(\w+)\s*[;{]")
CV_CALL_RE = re.compile(r"\b((?:\w+(?:\.|->))*\w*cv\w*)\s*\.\s*(wait_for|notify_one|notify_all)\s*\(", re.IGNORECASE)
NTSA_RE = re.compile(r"\bRLA_NO_THREAD_SAFETY_ANALYSIS\b")


def last_component(name: str) -> str:
    """`p->trail_mutex` / `cache.mutex` -> `trail_mutex` / `mutex`."""
    return re.split(r"\.|->", name)[-1]


def call_args(stripped: str, open_paren: int):
    """Top-level argument count and end offset of a call's balanced parens."""
    depth = 0
    commas = 0
    saw_token = False
    i = open_paren
    while i < len(stripped):
        ch = stripped[i]
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
            if depth == 0:
                return (commas + 1 if saw_token else 0), i
        elif ch == "," and depth == 1:
            commas += 1
        elif depth == 1 and not ch.isspace():
            saw_token = True
        i += 1
    return None, i  # unbalanced (macro soup); caller skips


def nearby(raw_lines, lineno, before, after, needle):
    lo = max(0, lineno - 1 - before)
    hi = min(len(raw_lines), lineno + after)
    return any(needle in raw_lines[k] for k in range(lo, hi))


def collect_levels(files):
    """name -> (level, path, line) for every declared Mutex; plus conflicts."""
    levels = {}
    violations = []
    for path, text, stripped in files:
        raw_lines = text.split("\n")
        for lineno, line in enumerate(stripped.split("\n"), start=1):
            m = MUTEX_DECL_RE.search(line)
            if not m:
                continue
            name = m.group(1)
            lvl = LOCK_LEVEL_RE.search(raw_lines[lineno - 1])
            if lvl is None:
                if path.startswith("src/"):
                    violations.append(
                        (path, lineno,
                         f"R2: Mutex '{name}' declared without a "
                         f"'// lock-level: <{('|'.join(HIERARCHY))}>' comment")
                    )
                continue
            level = lvl.group(1)
            if level not in RANK:
                violations.append(
                    (path, lineno,
                     f"R2: Mutex '{name}' has unknown lock-level '{level}' "
                     f"(expected one of {', '.join(HIERARCHY)})")
                )
                continue
            prior = levels.get(name)
            if prior is not None and prior[0] != level:
                violations.append(
                    (path, lineno,
                     f"R2: Mutex name '{name}' claims level '{level}' but is "
                     f"'{prior[0]}' at {prior[1]}:{prior[2]} -- rename one "
                     f"(shared names must agree on a rank)")
                )
                continue
            levels[name] = (level, path, lineno)
    return levels, violations


def lint_hierarchy(path, stripped, levels):
    """R3: MutexLock nesting must strictly descend the hierarchy."""
    violations = []
    held = []  # (brace_depth, var, mutex_name, level)
    var_level = {}  # lock var -> (mutex_name, level), for unlock()/lock()
    depth = 0
    for lineno, line in enumerate(stripped.split("\n"), start=1):
        for m in MUTEXLOCK_RE.finditer(line):
            var, target = m.group(1), last_component(m.group(2))
            entry = levels.get(target)
            level = entry[0] if entry else None
            if level is not None and held:
                _, _, held_name, held_level = held[-1]
                if held_level is not None and RANK[level] <= RANK[held_level]:
                    violations.append(
                        (path, lineno,
                         f"R3: acquiring '{target}' (level {level}) while "
                         f"holding '{held_name}' (level {held_level}) inverts "
                         f"the hierarchy {' -> '.join(HIERARCHY)}")
                    )
            held.append((depth, var, target, level))
            var_level[var] = (target, level)
        for um in re.finditer(r"\b(\w+)\.unlock\s*\(\s*\)", line):
            var = um.group(1)
            for k in range(len(held) - 1, -1, -1):
                if held[k][1] == var:
                    del held[k]
                    break
        for lm in re.finditer(r"\b(\w+)\.lock\s*\(\s*\)", line):
            var = lm.group(1)
            if var in var_level and all(h[1] != var for h in held):
                held.append((depth, var, *var_level[var]))
        for ch in line:
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                while held and held[-1][0] >= depth:
                    held.pop()
                if depth <= 0:
                    depth = 0
                    held.clear()
                    var_level.clear()
    return violations


def lint_file(path, text, stripped, levels):
    violations = []
    raw_lines = text.split("\n")
    stripped_lines = stripped.split("\n")
    exempt_sync = path.endswith("support/sync.hpp")

    # R1: raw primitives.
    if not exempt_sync:
        for lineno, line in enumerate(stripped_lines, start=1):
            if RAW_PRIMITIVE_RE.search(line) or RAW_INCLUDE_RE.search(line):
                violations.append(
                    (path, lineno,
                     "R1: raw std synchronization primitive outside "
                     "src/support/sync.hpp -- use rla::Mutex / rla::MutexLock "
                     "/ rla::CondVar")
                )

    # R7: CondVar names must contain "cv" (R4/R5 match receivers by name).
    for lineno, line in enumerate(stripped_lines, start=1):
        for m in CONDVAR_DECL_RE.finditer(line):
            if "cv" not in m.group(1).lower():
                violations.append(
                    (path, lineno,
                     f"R7: CondVar '{m.group(1)}' must have 'cv' in its name "
                     f"so the wait/notify lint can see its call sites")
                )

    # R4/R5: CondVar call sites.
    if not exempt_sync:
        for m in CV_CALL_RE.finditer(stripped):
            lineno = stripped.count("\n", 0, m.start()) + 1
            method = m.group(2)
            if method == "wait_for":
                nargs, _ = call_args(stripped, m.end() - 1)
                if nargs == 3 and not nearby(raw_lines, lineno, 4, 1, "timed-wait:"):
                    violations.append(
                        (path, lineno,
                         "R4: predicate-less CondVar::wait_for (timed poll) "
                         "needs a '// timed-wait: <why no guarded predicate "
                         "exists>' comment within 4 lines above")
                    )
            else:
                if not nearby(raw_lines, lineno, 1, 1, "publishes:"):
                    violations.append(
                        (path, lineno,
                         f"R5: {method} without a '// publishes: <guarded "
                         f"state>' comment on this or the previous line")
                    )

    # R6: NO_THREAD_SAFETY_ANALYSIS escapes need justification.
    for lineno, line in enumerate(stripped_lines, start=1):
        if NTSA_RE.search(line) and not raw_lines[lineno - 1].lstrip().startswith("#"):
            if not nearby(raw_lines, lineno, 2, 4, "justification:"):
                violations.append(
                    (path, lineno,
                     "R6: RLA_NO_THREAD_SAFETY_ANALYSIS without an adjacent "
                     "'// justification:' comment")
                )

    # R3: acquisition order.
    violations.extend(lint_hierarchy(path, stripped, levels))
    return violations


def lint_files(files):
    levels, violations = collect_levels(files)
    for path, text, stripped in files:
        violations.extend(lint_file(path, text, stripped, levels))
    return sorted(violations)


# --- self test ---------------------------------------------------------------

SEEDED_BAD = """\
#include <mutex>
namespace rla {
struct Engine {
  Mutex state_mutex_;
  Mutex queue_mutex_;  // lock-level: service
  Mutex cache_mutex_;  // lock-level: registry
  CondVar signal_;
  CondVar work_cv_;
  std::mutex raw_;

  void tick() {
    MutexLock lock(cache_mutex_);
    MutexLock inner(queue_mutex_);
    work_cv_.notify_one();
  }
  void nap(MutexLock& lock) RLA_NO_THREAD_SAFETY_ANALYSIS {
    work_cv_.wait_for(queue_mutex_, lock, kNap);
  }
};
}  // namespace rla
"""

SEEDED_GOOD = """\
namespace rla {
struct Engine {
  Mutex queue_mutex_;  // lock-level: service
  Mutex stats_mutex_;  // lock-level: registry
  CondVar work_cv_;
  bool ready_ = false;

  void tick() {
    MutexLock lock(queue_mutex_);
    {
      MutexLock inner(stats_mutex_);
    }
    ready_ = true;
    lock.unlock();
    work_cv_.notify_one();  // publishes: ready_
  }
  void nap() {
    MutexLock lock(queue_mutex_);
    // timed-wait: wake condition lives outside the mutex; callers re-check.
    work_cv_.wait_for(queue_mutex_, lock, kNap);
    work_cv_.wait(queue_mutex_, lock, [this] { return ready_; });
  }
  void escape() RLA_NO_THREAD_SAFETY_ANALYSIS {
    // justification: self-test fixture for the adjacency rule.
  }
};
}  // namespace rla
"""


class LockChecker:
    name = "locks"
    code = "C5"
    description = (
        "lock discipline: no raw sync primitives outside src/support/sync.hpp, "
        "acquisition follows the declared hierarchy (rules R1-R7)"
    )

    def run(self, project: Project) -> List[Finding]:
        # Lock-level declarations are collected across the whole file set
        # (the hierarchy is cross-file), so lint_files sees one batch.
        batch = [
            (sf.path, sf.text, blank_comments_and_strings(sf.text))
            for sf in project.cpp_files()
            if sf.path.startswith(SCOPE_PREFIXES)
        ]
        return [
            Finding(self.name, self.code, path, line, msg)
            for path, line, msg in lint_files(batch)
            if project.in_targets(path)
        ]

    def self_test(self) -> List[str]:
        errors = []
        bad = lint_files([("src/seeded_bad.hpp", SEEDED_BAD,
                           blank_comments_and_strings(SEEDED_BAD))])
        want = {
            "R1": 2,  # the include and the std::mutex member
            "R2": 1,  # state_mutex_ without a lock-level comment
            "R3": 1,  # queue (service) acquired while holding cache (registry)
            "R4": 1,  # predicate-less wait_for without timed-wait comment
            "R5": 1,  # notify_one without publishes comment
            "R6": 1,  # NO_THREAD_SAFETY_ANALYSIS without justification
            "R7": 1,  # CondVar signal_ hides from the cv-name matcher
        }
        got = {}
        for _, _, msg in bad:
            got[msg[:2]] = got.get(msg[:2], 0) + 1
        if got != want:
            errors.append(f"seeded-bad expected {want}, got {got}")
        good = lint_files([("src/seeded_good.hpp", SEEDED_GOOD,
                            blank_comments_and_strings(SEEDED_GOOD))])
        if good:
            errors.append(f"seeded-good flagged: {good}")
        return errors
