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
ERT015    ``repro.parallel``: a function that creates a shm segment
          registers it in ``_LIVE_SEGMENTS`` and unlinks it on
          construction failure; one that attaches closes on failure.
ERT016    callables crossing a pool boundary must be module-level (no
          lambdas, closures, or bound methods).
ERT017    no telemetry call inside a loop of ``repro.kernels``, the
          seeding driver, the walk, the engine or the extension
          pipeline (they flush once per batch).
========  ==============================================================

Every rule is a per-file AST check: one pass, no cross-file state.

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
    Rule,
    SourceFile,
    all_rules,
    check_file,
    check_source,
    iter_python_files,
    register,
    run_checks,
)
from repro.checks.pragmas import FilePragmas, parse_pragmas
from repro.checks.report import render_text
from repro.checks.violations import Violation

# Importing the rule modules registers every built-in rule.
from repro.checks import rules as _rules  # noqa: F401  (registration side effect)

__all__ = [
    "CheckReport",
    "FilePragmas",
    "Rule",
    "SourceFile",
    "Violation",
    "all_rules",
    "check_file",
    "check_source",
    "iter_python_files",
    "parse_pragmas",
    "register",
    "render_text",
    "run_checks",
]
