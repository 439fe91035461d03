"""Repo-specific static analysis: the invariant linter behind
``ert-repro check``.

The paper's claims rest on deterministic, integer-exact accounting --
cycle counts, bytes per read, page-open breakdowns -- and PR 1 showed how
easily a latent defect (an ``id()``-keyed cache without a pinned
referent) slips past review.  This package encodes those repository
invariants as mechanical AST checks:

========  ==============================================================
ERT001    ``id()`` results must not key caches/sets without a pinning
          pragma (object ids are recycled after garbage collection).
ERT002    no unseeded ``random`` / ``np.random`` module-level calls
          inside ``repro`` (determinism).
ERT003    no raw ``time.time()`` / ``time.perf_counter()`` outside
          :mod:`repro.telemetry` (all timing goes through spans).
ERT004    no float literals or true division in the integer cycle/byte
          accounting modules (``repro.memsim``, ``repro.accel``,
          ``repro.core.layout``).
ERT005    import layering (e.g. ``repro.core`` never imports
          ``repro.accel`` or ``repro.telemetry.export``).
ERT006    no mutable default arguments, no bare ``except:``.
ERT007    functions marked ``# repro: hot`` must not call the telemetry
          recording API directly (batch into stats structs and flush).
ERT008    worker pools and shared memory are confined to
          ``repro.parallel`` (the one audited lifecycle module).
ERT009    no broad ``except`` swallowing pool submit/result failures
          inside ``repro.parallel`` (re-raise through the taxonomy).
ERT010    no ``print``/stdout/stderr writes from library code.
ERT011    no stdlib ``logging`` in ``repro`` (use ``repro.logging``).
ERT012    *project*: telemetry calls in *transitively* hot code --
          ``# repro: hot`` flows through the call graph to helpers.
ERT013    *project*: per-element Python loops over ndarrays anywhere in
          the hot closure (the vectorization gate).
ERT014    *project*: buffer allocation inside loops in hot code (reuse
          a workspace, cf. ``SwWorkspace``).
ERT015    *project*: shm creates must register in ``_LIVE_SEGMENTS``
          with a construction-failure unlink; attaches must close.
ERT016    *project*: callables crossing a pool boundary must be
          module-level (no lambdas, closures, or bound methods).
========  ==============================================================

Rules marked *project* run in a second, whole-program pass: pass 1
summarizes every file (symbols, call sites, facts -- see
:mod:`repro.checks.symbols`), pass 2 assembles a conservative call
graph (:mod:`repro.checks.callgraph`) and checks cross-file invariants
over it.

False positives are silenced in place with ``# repro: allow(ERT0NN)``
line pragmas (or ``# repro: allow-file(ERT0NN)`` for whole modules whose
domain legitimately breaks a rule); every pragma should carry a comment
justifying the exception.  See ``docs/static_analysis.md``.

This package is stdlib-only and imports nothing else from ``repro`` --
it must be runnable on a tree too broken to import.
"""

from __future__ import annotations

from repro.checks.engine import (
    CheckReport,
    FileScan,
    ProjectRule,
    Rule,
    SourceFile,
    all_rules,
    check_file,
    check_source,
    iter_python_files,
    register,
    run_checks,
    run_project_rules,
    scan_file,
    scan_source,
)
from repro.checks.pragmas import FilePragmas, parse_pragmas
from repro.checks.report import render_json, render_text, report_as_dict
from repro.checks.violations import Violation

# Importing the rule modules registers every built-in rule.
from repro.checks import rules as _rules  # noqa: F401  (registration side effect)
from repro.checks import project_rules as _project_rules  # noqa: F401

__all__ = [
    "CheckReport",
    "FilePragmas",
    "FileScan",
    "ProjectRule",
    "Rule",
    "SourceFile",
    "Violation",
    "all_rules",
    "check_file",
    "check_source",
    "iter_python_files",
    "parse_pragmas",
    "register",
    "render_json",
    "render_text",
    "report_as_dict",
    "run_checks",
    "run_project_rules",
    "scan_file",
    "scan_source",
]
