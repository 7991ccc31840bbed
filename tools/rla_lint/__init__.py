"""rla_lint: whole-project invariant analysis for the rla tree.

A shared driver (compile-commands ingestion, per-checker fixtures,
--self-test, JSON/SARIF output) over a suite of project-invariant checkers:

  C1  hot-path purity        (checkers/hotpath.py)
  C2  fault-site registry    (checkers/fault_sites.py)
  C3  metric/span schema     (checkers/metrics_schema.py)
  C4  env-var contract       (checkers/env_contract.py)
  C5  lock discipline        (checkers/locks.py)
  C6  race annotations       (checkers/race_annotations.py)

Two frontends produce the source model the checkers consume: a pure-Python
lexical frontend (always available, deterministic) and a libclang
(clang.cindex) frontend that sharpens the C1 call graph with real AST
resolution when the bindings are installed.  `--backend auto` (the default)
uses libclang when importable and falls back to the lexical frontend
otherwise, so the lint runs identically on boxes without clang.

Run as `python3 tools/rla_lint [args]` (the package is directly runnable).
"""

__version__ = "1.0"
