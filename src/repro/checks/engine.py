"""The rule engine: source-file context, rule registry, and the runner.

A :class:`SourceFile` bundles everything a rule needs -- the parsed AST
(with parent links), the logical module name (derived from the
``__init__.py`` chain on disk, overridable via ``# repro: module(...)``),
an import-alias table for resolving dotted names, and the pragma index.
Rules are small classes registered by id; :func:`run_checks` walks the
requested paths and aggregates a :class:`CheckReport`.

Every rule sees one file at a time: a file's violations depend on
nothing outside it, and its pragmas are the only thing that suppresses
them.
"""

from __future__ import annotations

import ast
import fnmatch
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Tuple

from repro.checks.pragmas import FilePragmas, parse_pragmas
from repro.checks.violations import Violation

#: Paths matching any of these (fnmatch, against ``/``-separated paths)
#: are skipped by default; the fixture corpus deliberately violates every
#: rule, so a tree-wide run must not trip over it.
DEFAULT_EXCLUDES: "tuple[str, ...]" = (
    "*/fixtures/*",
    "*/__pycache__/*",
    "*/.git/*",
)

#: Rule id used for files the parser rejects outright.
PARSE_RULE = "PARSE"


def module_name_for_path(path: str) -> "str | None":
    """Logical dotted module for ``path``, derived from the package
    (``__init__.py``) chain on disk.

    ``src/repro/core/layout.py`` -> ``repro.core.layout``;
    a stray script outside any package resolves to its bare stem.
    """
    abspath = os.path.abspath(path)
    directory, filename = os.path.split(abspath)
    stem = filename[:-3] if filename.endswith(".py") else filename
    parts: "list[str]" = [] if stem == "__init__" else [stem]
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        directory, pkg = os.path.split(directory)
        parts.insert(0, pkg)
    return ".".join(parts) if parts else None


class SourceFile:
    """One parsed source file plus the lookup structures rules share."""

    def __init__(self, path: str, source: str) -> None:
        self.path = path
        self.source = source
        self.pragmas: FilePragmas = parse_pragmas(source)
        self.module: "str | None" = (
            self.pragmas.module_override or module_name_for_path(path))
        self.tree: ast.AST = ast.parse(source, filename=path)
        self._parents: "dict[ast.AST, ast.AST]" = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent
        self.imports: "dict[str, str]" = self._build_import_table()

    # -- navigation ----------------------------------------------------

    def parent(self, node: ast.AST) -> "ast.AST | None":
        return self._parents.get(node)

    def walk(self) -> "Iterator[ast.AST]":
        return ast.walk(self.tree)

    # -- name resolution -----------------------------------------------

    def _build_import_table(self) -> "dict[str, str]":
        """Map local names to the fully qualified names they import.

        ``import numpy as np`` -> ``np: numpy``;
        ``from time import perf_counter as pc`` -> ``pc: time.perf_counter``;
        ``from repro import telemetry`` -> ``telemetry: repro.telemetry``.
        Function-level imports are included -- rules care about what a
        name *can* mean in the file, not about shadowing subtleties.
        """
        table: "dict[str, str]" = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".", 1)[0]
                    table[local] = alias.name if alias.asname else local
            elif isinstance(node, ast.ImportFrom):
                base = self.resolve_import_module(node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    table[alias.asname or alias.name] = f"{base}.{alias.name}"
        return table

    def resolve_import_module(self, node: ast.ImportFrom) -> "str | None":
        """Absolute module an ``ImportFrom`` pulls from (handles relative
        imports against this file's logical module)."""
        if node.level == 0:
            return node.module
        if self.module is None:
            return node.module
        parts = self.module.split(".")
        # level 1 = current package: drop only the module's own name.
        anchor = parts[:-node.level] if node.level <= len(parts) else []
        if node.module:
            anchor.append(node.module)
        return ".".join(anchor) if anchor else node.module

    def qualified_name(self, node: ast.AST) -> "str | None":
        """Fully qualified dotted name for a Name/Attribute chain, with
        the leading segment resolved through the import table.

        ``np.random.rand`` -> ``numpy.random.rand`` under
        ``import numpy as np``; unresolvable roots keep their local
        spelling so rules can still match on conventional names.
        """
        parts: "list[str]" = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.imports.get(node.id, node.id)
        parts.append(root)
        return ".".join(reversed(parts))

    def violation(self, rule: str, node: ast.AST, message: str) -> Violation:
        line = getattr(node, "lineno", 0)
        return Violation(path=self.path, line=line,
                         col=getattr(node, "col_offset", 0) + 1,
                         rule=rule, message=message,
                         end_line=getattr(node, "end_lineno", None) or line)


class Rule:
    """Base class for a registered check.

    Subclasses set ``id``/``title``/``rationale`` and implement
    :meth:`check`, yielding violations (suppression is applied by the
    engine, not the rule).  ``scope`` restricts a rule to logical module
    prefixes; ``exclude_scope`` carves exceptions back out.
    """

    id: str = ""
    title: str = ""
    rationale: str = ""
    scope: "tuple[str, ...] | None" = None
    exclude_scope: "tuple[str, ...]" = ()

    def applies_to(self, module: "str | None") -> bool:
        if self.scope is None:
            in_scope = True
        elif module is None:
            in_scope = False
        else:
            in_scope = _matches_any(module, self.scope)
        if in_scope and module is not None and self.exclude_scope:
            in_scope = not _matches_any(module, self.exclude_scope)
        return in_scope

    def check(self, src: SourceFile) -> "Iterable[Violation]":
        raise NotImplementedError


def _matches_any(module: str, prefixes: "tuple[str, ...]") -> bool:
    return any(module == p or module.startswith(p + ".") for p in prefixes)


_REGISTRY: "Dict[str, Rule]" = {}


def register(rule_cls: "type[Rule]") -> "type[Rule]":
    """Class decorator adding a rule (by ``id``) to the global registry."""
    rule = rule_cls()
    if not rule.id:
        raise ValueError(f"rule {rule_cls.__name__} has no id")
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id!r}")
    _REGISTRY[rule.id] = rule
    return rule_cls


def all_rules() -> "List[Rule]":
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


@dataclass
class CheckReport:
    """Aggregate result of one checker run."""

    violations: "List[Violation]" = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def counts_by_rule(self) -> "Dict[str, int]":
        counts: "Dict[str, int]" = {}
        for violation in self.violations:
            counts[violation.rule] = counts.get(violation.rule, 0) + 1
        return dict(sorted(counts.items()))


def check_source(path: str, source: str,
                 rules: "Iterable[Rule] | None" = None
                 ) -> "Tuple[List[Violation], int]":
    """Check one in-memory source; returns (violations, suppressed_count)."""
    try:
        src = SourceFile(path, source)
    except SyntaxError as exc:
        return [Violation(path=path, line=exc.lineno or 0,
                          col=(exc.offset or 0) or 1, rule=PARSE_RULE,
                          message=f"syntax error: {exc.msg}")], 0
    violations: "List[Violation]" = []
    suppressed = 0
    for rule in (all_rules() if rules is None else rules):
        if not rule.applies_to(src.module):
            continue
        for violation in rule.check(src):
            if src.pragmas.allows(violation.rule, violation.line,
                                  violation.end_line or violation.line):
                suppressed += 1
            else:
                violations.append(violation)
    violations.sort()
    return violations, suppressed


def check_file(path: str, rules: "Iterable[Rule] | None" = None
               ) -> "Tuple[List[Violation], int]":
    """Check one file on disk; returns (violations, suppressed_count)."""
    with open(path, encoding="utf-8", errors="replace") as handle:
        source = handle.read()
    return check_source(path, source, rules)


def iter_python_files(paths: "Iterable[str]",
                      excludes: "tuple[str, ...]" = DEFAULT_EXCLUDES
                      ) -> "Iterator[str]":
    """Yield every ``.py`` file under ``paths`` (files or directories),
    sorted, minus the exclude patterns.  Explicitly named files are
    always yielded -- excludes only prune the directory walks, so
    ``ert-repro check tests/fixtures/checks/ert001_fail.py`` works even
    though a tree-wide run skips the fixture corpus."""
    seen: "set[str]" = set()
    for top in paths:
        if os.path.isfile(top):
            if top not in seen:
                seen.add(top)
                yield top
            continue
        candidates = []
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            dirnames[:] = [d for d in dirnames if d != "__pycache__"]
            candidates.extend(os.path.join(dirpath, name)
                              for name in sorted(filenames)
                              if name.endswith(".py"))
        for candidate in candidates:
            normalized = candidate.replace(os.sep, "/")
            if any(fnmatch.fnmatch(normalized, pattern)
                   or fnmatch.fnmatch("/" + normalized, pattern)
                   for pattern in excludes):
                continue
            if candidate not in seen:
                seen.add(candidate)
                yield candidate


def run_checks(paths: "Iterable[str]",
               rules: "Iterable[Rule] | None" = None,
               excludes: "tuple[str, ...]" = DEFAULT_EXCLUDES
               ) -> CheckReport:
    """Check every Python file under ``paths``."""
    rule_list = all_rules() if rules is None else list(rules)
    report = CheckReport()
    for path in iter_python_files(paths, excludes):
        violations, suppressed = check_file(path, rule_list)
        report.files_checked += 1
        report.violations.extend(violations)
        report.suppressed += suppressed
    report.violations.sort()
    return report
