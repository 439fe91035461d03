"""The built-in rule set: the invariants this repository actually has.

Each rule documents its rationale inline; ``docs/static_analysis.md``
carries the prose version with paper references.  Scopes are logical
module prefixes (see :meth:`repro.checks.engine.Rule.applies_to`).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.checks.engine import Rule, SourceFile, register
from repro.checks.violations import Violation

# ----------------------------------------------------------------------
# ERT001 -- id() as a cache key
# ----------------------------------------------------------------------

#: Container-method names whose argument acts as a key/member.
_KEY_METHODS = frozenset({
    "add", "discard", "remove", "get", "setdefault", "pop", "count",
    "index", "__contains__", "__getitem__", "__setitem__",
})


def _is_id_call(node: ast.AST, src: SourceFile) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "id"
            and src.imports.get("id", "id") == "id")


@register
class IdAsKeyRule(Rule):
    """ERT001: ``id()`` must not key a dict/set without a pinning pragma.

    CPython recycles object ids after garbage collection; a cache keyed
    by ``id(read)`` without a strong reference to ``read`` can silently
    serve another object's entry (the exact PR-1 bug in
    ``ErtSeedingEngine``).  Either pin the referent for the cache's
    lifetime (as ``core/engine.py`` does) or document the lifetime
    guarantee with ``# repro: allow(ERT001)``.
    """

    id = "ERT001"
    title = "id() used as a cache key or set member"
    rationale = ("object ids are recycled once the referent is garbage "
                 "collected; a bare id() key can alias another object")

    def check(self, src: SourceFile) -> "Iterator[Violation]":
        for node in src.walk():
            if not _is_id_call(node, src):
                continue
            context = self._key_context(node, src)
            if context is not None:
                yield src.violation(
                    self.id, node,
                    f"id() result used as {context} -- pin the referent "
                    f"for the container's lifetime or annotate the "
                    f"guarantee with `# repro: allow(ERT001)`")

    @staticmethod
    def _key_context(call: ast.Call, src: SourceFile) -> "str | None":
        node: ast.AST = call
        parent = src.parent(node)
        # Climb through tuple displays: (id(a), start) is still a key.
        while isinstance(parent, ast.Tuple):
            node = parent
            parent = src.parent(node)
        if parent is None:
            return None
        if isinstance(parent, ast.Subscript) and parent.slice is node:
            return "a subscript key"
        if isinstance(parent, ast.Compare):
            in_ops = any(isinstance(op, (ast.In, ast.NotIn))
                         for op in parent.ops)
            if in_ops and parent.left is node:
                return "a membership probe"
        if (isinstance(parent, ast.Call) and node in parent.args
                and isinstance(parent.func, ast.Attribute)
                and parent.func.attr in _KEY_METHODS):
            return f"an argument to .{parent.func.attr}()"
        if isinstance(parent, ast.Assign) and parent.value is node:
            return "a stored key variable"
        if isinstance(parent, ast.AnnAssign) and parent.value is node:
            return "a stored key variable"
        if isinstance(parent, ast.SetComp) and parent.elt is node:
            return "a set-comprehension member"
        if isinstance(parent, ast.DictComp) and parent.key is node:
            return "a dict-comprehension key"
        return None


# ----------------------------------------------------------------------
# ERT002 -- unseeded randomness
# ----------------------------------------------------------------------

#: Constructors that take an explicit seed and return an isolated
#: generator -- the sanctioned way to be random in this repository.
_SEEDED_FACTORIES = frozenset({
    "Random", "SystemRandom", "default_rng", "RandomState", "Generator",
    "SeedSequence", "PCG64", "Philox", "MT19937", "SFC64",
})


@register
class UnseededRandomRule(Rule):
    """ERT002: no module-level ``random`` / ``np.random`` calls in repro.

    ``tests/test_determinism.py`` asserts byte-identical pipelines; any
    call against the global generators (``random.random()``,
    ``np.random.rand()``, even ``np.random.seed()``) threads hidden
    process-global state through the run.  Construct a seeded generator
    (``np.random.default_rng(seed)``, ``random.Random(seed)``) instead.
    """

    id = "ERT002"
    title = "module-level random call (hidden global RNG state)"
    rationale = ("determinism: results must be a pure function of inputs "
                 "and explicit seeds")
    scope = ("repro",)

    def check(self, src: SourceFile) -> "Iterator[Violation]":
        for node in src.walk():
            if not isinstance(node, ast.Call):
                continue
            qual = src.qualified_name(node.func)
            if qual is None:
                continue
            for prefix in ("random.", "numpy.random.", "np.random."):
                if qual.startswith(prefix):
                    tail = qual[len(prefix):].split(".", 1)[0]
                    if tail not in _SEEDED_FACTORIES:
                        yield src.violation(
                            self.id, node,
                            f"call to {qual}() uses the process-global "
                            f"RNG; construct a seeded generator "
                            f"(e.g. np.random.default_rng(seed)) instead")
                    break


# ----------------------------------------------------------------------
# ERT003 -- raw wall-clock reads
# ----------------------------------------------------------------------

_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.perf_counter",
    "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns", "time.clock_gettime",
    "time.thread_time", "time.thread_time_ns",
})


@register
class RawClockRule(Rule):
    """ERT003: all timing goes through :mod:`repro.telemetry` spans.

    Ad-hoc ``time.perf_counter()`` pairs fragment the timing story: they
    bypass the span tracer's nesting/exclusive-time accounting and the
    ``--profile`` report.  Use ``telemetry.span(...)`` (or a local
    :class:`repro.telemetry.spans.Tracer` when the numbers must be
    collected regardless of the global telemetry flag).
    """

    id = "ERT003"
    title = "raw clock call outside repro.telemetry"
    rationale = "all stage timing flows through the span tracer"
    scope = ("repro",)
    # repro.logging timestamps its records; like the telemetry package
    # it owns its clock.
    exclude_scope = ("repro.telemetry", "repro.logging")

    def check(self, src: SourceFile) -> "Iterator[Violation]":
        for node in src.walk():
            if not isinstance(node, ast.Call):
                continue
            qual = src.qualified_name(node.func)
            if qual in _CLOCK_CALLS:
                yield src.violation(
                    self.id, node,
                    f"raw {qual}() call; route timing through "
                    f"repro.telemetry spans")


# ----------------------------------------------------------------------
# ERT004 -- float arithmetic in integer accounting modules
# ----------------------------------------------------------------------


@register
class IntegerAccountingRule(Rule):
    """ERT004: cycle/byte accounting stays integer-exact.

    The paper's accelerator model (like EXMA's and FindeR's) budgets in
    whole cycles, bytes and page opens; a float sneaking into those sums
    makes results platform-dependent and breaks exact regression
    baselines.  Derived *reporting* quantities (hit rates, reads/s) are
    fine -- annotate them with ``# repro: allow(ERT004)`` (or
    ``allow-file`` for modules whose whole domain is physical, like the
    energy models).
    """

    id = "ERT004"
    title = "float literal / true division in integer accounting code"
    rationale = ("cycle, byte and page-open sums must stay integer-exact "
                 "for deterministic cross-platform baselines")
    scope = ("repro.memsim", "repro.accel", "repro.core.layout")

    def check(self, src: SourceFile) -> "Iterator[Violation]":
        for node in src.walk():
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                yield src.violation(
                    self.id, node,
                    f"float literal {node.value!r} in an integer "
                    f"accounting module; use integers (or annotate a "
                    f"derived reporting value with "
                    f"`# repro: allow(ERT004)`)")
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                yield src.violation(
                    self.id, node,
                    "true division in an integer accounting module; use "
                    "// (or annotate a derived reporting value with "
                    "`# repro: allow(ERT004)`)")
            elif (isinstance(node, ast.AugAssign)
                  and isinstance(node.op, ast.Div)):
                yield src.violation(
                    self.id, node,
                    "augmented true division (/=) in an integer "
                    "accounting module; use //=")


# ----------------------------------------------------------------------
# ERT005 -- import layering
# ----------------------------------------------------------------------

_PACKAGES = (
    "repro.sequence", "repro.telemetry", "repro.logging", "repro.memsim",
    "repro.seeding", "repro.core", "repro.fmindex", "repro.extend",
    "repro.kernels", "repro.parallel", "repro.accel", "repro.analysis",
    "repro.baselines", "repro.checks", "repro.ledger", "repro.cli",
)


def _everything_but(*allowed: str) -> "tuple[str, ...]":
    return tuple(pkg for pkg in _PACKAGES if pkg not in allowed)


#: Forbidden import prefixes per package (longest-prefix match on the
#: importing module).  The shape of the DAG: sequence and telemetry are
#: leaves; memsim sits above telemetry; seeding/core/fmindex/extend form
#: the algorithmic middle and may flush metrics (repro.telemetry) but
#: never touch the exporters; kernels (the batched vector paths) sits
#: just above that middle -- it reads seeding/core/extend internals but
#: nothing in the middle may import it back (the scalar oracle must not
#: depend on its vectorization; callers inject kernel functions
#: downward, see ReadAligner.tb_batch); parallel orchestrates the
#: middle layers and kernels (it is the sole owner of worker pools / shared
#: memory, rule ERT008); accel consumes traces from core/seeding;
#: analysis/baselines/ledger/cli sit on top (ledger reads telemetry
#: snapshots but nothing below it may import it); checks stands alone so
#: it can lint a tree too broken to import.
_LAYERING: "dict[str, tuple[str, ...]]" = {
    "repro.sequence": _everything_but("repro.sequence"),
    "repro.telemetry": _everything_but("repro.telemetry"),
    # The structured logger is a pure leaf: subsystems emit through it,
    # it depends on nothing (not even telemetry).
    "repro.logging": _everything_but("repro.logging"),
    "repro.memsim": _everything_but("repro.memsim", "repro.telemetry"),
    "repro.seeding": _everything_but(
        "repro.seeding", "repro.sequence", "repro.telemetry")
        + ("repro.telemetry.export",),
    "repro.core": ("repro.accel", "repro.analysis", "repro.baselines",
                   "repro.checks", "repro.cli", "repro.extend",
                   "repro.kernels", "repro.ledger", "repro.parallel",
                   "repro.telemetry.export"),
    "repro.fmindex": ("repro.accel", "repro.analysis", "repro.baselines",
                      "repro.checks", "repro.cli", "repro.core",
                      "repro.extend", "repro.kernels", "repro.ledger",
                      "repro.parallel", "repro.telemetry.export"),
    "repro.extend": ("repro.accel", "repro.analysis", "repro.baselines",
                     "repro.checks", "repro.cli", "repro.kernels",
                     "repro.ledger", "repro.parallel",
                     "repro.telemetry.export"),
    "repro.kernels": ("repro.accel", "repro.analysis", "repro.baselines",
                      "repro.checks", "repro.cli", "repro.fmindex",
                      "repro.ledger", "repro.memsim", "repro.parallel",
                      "repro.telemetry.export"),
    "repro.parallel": ("repro.accel", "repro.analysis", "repro.baselines",
                       "repro.checks", "repro.cli", "repro.ledger",
                       "repro.telemetry.export"),
    "repro.accel": ("repro.analysis", "repro.baselines", "repro.checks",
                    "repro.cli", "repro.extend", "repro.kernels",
                    "repro.ledger", "repro.parallel"),
    "repro.baselines": ("repro.accel", "repro.analysis", "repro.checks",
                        "repro.cli", "repro.kernels", "repro.ledger",
                        "repro.parallel"),
    "repro.analysis": ("repro.checks", "repro.cli", "repro.ledger"),
    "repro.checks": _everything_but("repro.checks"),
    "repro.ledger": _everything_but("repro.ledger", "repro.telemetry"),
}


@register
class ImportLayeringRule(Rule):
    """ERT005: the package DAG is law.

    Lower layers importing upper ones (core pulling in the accelerator
    simulator, seeding pulling in the JSON exporters) create cycles,
    drag heavyweight dependencies into hot paths, and break the
    "seeding is bit-identical with or without instrumentation"
    guarantee.
    """

    id = "ERT005"
    title = "import violates the package layering"
    rationale = "keeps the dependency DAG acyclic and hot paths lean"
    scope = ("repro",)

    def check(self, src: SourceFile) -> "Iterator[Violation]":
        module = src.module or ""
        layer, forbidden = None, ()
        for prefix, banned in _LAYERING.items():
            if ((module == prefix or module.startswith(prefix + "."))
                    and (layer is None or len(prefix) > len(layer))):
                layer, forbidden = prefix, banned
        if layer is None:
            return
        for node in src.walk():
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield from self._flag(src, node, layer, forbidden,
                                          alias.name)
            elif isinstance(node, ast.ImportFrom):
                base = src.resolve_import_module(node)
                if base is None:
                    continue
                hit = False
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    # `from repro import telemetry` imports the submodule
                    # repro.telemetry, so test module+name first.
                    for violation in self._flag(src, node, layer, forbidden,
                                                f"{base}.{alias.name}"):
                        yield violation
                        hit = True
                if not hit:
                    yield from self._flag(src, node, layer, forbidden, base)

    def _flag(self, src: SourceFile, node: ast.AST, layer: str,
              forbidden: "tuple[str, ...]",
              imported: str) -> "Iterator[Violation]":
        for banned in forbidden:
            if imported == banned or imported.startswith(banned + "."):
                yield src.violation(
                    self.id, node,
                    f"{layer} must not import {banned} "
                    f"(imported {imported}); see the layering table in "
                    f"docs/static_analysis.md")
                return


# ----------------------------------------------------------------------
# ERT006 -- mutable defaults and bare except
# ----------------------------------------------------------------------

_MUTABLE_CTORS = frozenset({
    "list", "dict", "set", "bytearray", "defaultdict", "OrderedDict",
    "Counter", "deque",
})


@register
class FootgunRule(Rule):
    """ERT006: no mutable default arguments, no bare ``except:``.

    A mutable default is shared across every call of the function --
    state leaks between reads/batches, which is exactly the kind of
    cross-read contamination the equivalence tests exist to catch.  A
    bare ``except:`` swallows ``KeyboardInterrupt``/``SystemExit`` and
    hides real defects behind fallback paths.
    """

    id = "ERT006"
    title = "mutable default argument or bare except"
    rationale = ("shared mutable defaults leak state across calls; bare "
                 "except hides defects and breaks Ctrl-C")

    def check(self, src: SourceFile) -> "Iterator[Violation]":
        for node in src.walk():
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                args = node.args
                defaults: "list[ast.expr]" = list(args.defaults)
                defaults.extend(d for d in args.kw_defaults if d is not None)
                for default in defaults:
                    if self._is_mutable(default):
                        name = getattr(node, "name", "<lambda>")
                        yield src.violation(
                            self.id, default,
                            f"mutable default argument in {name}(); "
                            f"default to None and create the object in "
                            f"the body")
            elif isinstance(node, ast.ExceptHandler) and node.type is None:
                yield src.violation(
                    self.id, node,
                    "bare `except:`; catch a concrete exception type "
                    "(bare except swallows KeyboardInterrupt/SystemExit)")

    @staticmethod
    def _is_mutable(node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                return func.id in _MUTABLE_CTORS
            if isinstance(func, ast.Attribute):
                return func.attr in _MUTABLE_CTORS
        return False


# ----------------------------------------------------------------------
# ERT007 -- telemetry calls inside hot loops
# ----------------------------------------------------------------------


def _telemetry_call_qual(src: SourceFile,
                         node: ast.Call) -> "str | None":
    """Resolved dotted name of ``node`` when it is a telemetry/metrics
    call (the matcher ERT007 and ERT017 share), else ``None``."""
    qual = src.qualified_name(node.func)
    if qual is None:
        return None
    root = qual.split(".", 1)[0]
    if qual.startswith("repro.telemetry.") or root in ("telemetry",
                                                       "metrics"):
        return qual
    return None


@register
class HotLoopTelemetryRule(Rule):
    """ERT007: hot functions batch counters; they never call telemetry.

    ``docs/observability.md`` is explicit: spans and direct
    ``telemetry.*`` calls belong at per-read granularity or coarser;
    anything per-bp or per-node counts into a stats struct that a driver
    flushes at a span boundary.  Functions annotated ``# repro: hot``
    (the tree walks, cache/DRAM accesses) are held to that mechanically.
    """

    id = "ERT007"
    title = "direct telemetry/metrics call inside a `# repro: hot` function"
    rationale = ("hot loops must batch into stats structs and flush "
                 "deltas at span boundaries (docs/observability.md)")

    def check(self, src: SourceFile) -> "Iterator[Violation]":
        for node in src.walk():
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not src.pragmas.is_hot(node.lineno):
                continue
            yield from self._scan_hot_body(src, node)

    def _scan_hot_body(self, src: SourceFile,
                       func: ast.AST) -> "Iterator[Violation]":
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            qual = _telemetry_call_qual(src, node)
            if qual is None:
                continue
            name = getattr(func, "name", "<function>")
            yield src.violation(
                self.id, node,
                f"{qual}() called inside hot function {name}(); "
                f"count into a stats struct and flush the delta at a "
                f"span boundary instead (docs/observability.md)")


# ----------------------------------------------------------------------
# ERT008 -- worker pools / shared memory outside repro.parallel
# ----------------------------------------------------------------------

#: Qualified names constructing a shared-memory segment.
_SHM_CTORS = frozenset({
    "multiprocessing.shared_memory.SharedMemory",
    "shared_memory.SharedMemory",
})

#: Qualified names constructing a worker pool.
_POOL_CTORS = frozenset({
    "concurrent.futures.ProcessPoolExecutor",
    "concurrent.futures.process.ProcessPoolExecutor",
    "multiprocessing.Pool",
    "multiprocessing.pool.Pool",
})

_POOL_CALLS = _POOL_CTORS | _SHM_CTORS | {
    "multiprocessing.Process",
    "multiprocessing.process.Process",
    "multiprocessing.context.Process",
}


@register
class WorkerLifecycleRule(Rule):
    """ERT008: worker lifecycle has exactly one implementation.

    :mod:`repro.parallel` owns process pools and shared-memory segments:
    it is the only place that knows the attach/close/unlink protocol
    (resource-tracker semantics differ by start method), preserves output
    ordering, and folds worker stats/telemetry back into the parent.  An
    ad-hoc ``ProcessPoolExecutor`` or ``SharedMemory`` elsewhere would
    silently skip all three.  Route the work through the
    :mod:`repro.parallel` scheduler instead.
    """

    id = "ERT008"
    title = "process pool / shared memory constructed outside repro.parallel"
    rationale = ("one entry point for worker lifecycle: ordering, "
                 "telemetry aggregation and segment cleanup live in "
                 "repro.parallel")
    scope = ("repro",)
    exclude_scope = ("repro.parallel",)

    def check(self, src: SourceFile) -> "Iterator[Violation]":
        for node in src.walk():
            if not isinstance(node, ast.Call):
                continue
            qual = src.qualified_name(node.func)
            if qual in _POOL_CALLS:
                yield src.violation(
                    self.id, node,
                    f"{qual}() constructed outside repro.parallel; route "
                    f"worker pools and shared-memory segments through "
                    f"the repro.parallel scheduler")


# ----------------------------------------------------------------------
# ERT009 -- swallowed pool failures
# ----------------------------------------------------------------------

#: Method names that submit work to or collect results from a pool.
_POOL_INTERACTIONS = frozenset({"submit", "result"})

#: Exception names considered "broad": a handler catching one of these
#: around pool interaction sees every possible failure kind.
_BROAD_EXCEPTIONS = frozenset({"Exception", "BaseException"})


@register
class SwallowedPoolFailureRule(Rule):
    """ERT009: pool failures route through the typed-error taxonomy.

    The fault-tolerance guarantees of :mod:`repro.parallel` (retry
    budget, in-order merge integrity, serial degradation) all assume
    failures surface as :class:`~repro.parallel.faults.
    ParallelExecutionError` subclasses.  A broad ``except`` around
    ``submit()`` / ``result()`` that swallows the exception instead of
    re-raising bypasses classification entirely: a dead worker looks
    like a missing batch, and the byte-identical merge silently loses
    output.  Broad handlers guarding pool interaction must contain a
    ``raise`` (re-raise, or raise a typed error built from the caught
    exception).
    """

    id = "ERT009"
    title = "broad except swallows a pool failure"
    rationale = ("worker failures must surface as typed "
                 "ParallelExecutionError subclasses; a swallowed pool "
                 "exception silently drops a batch from the merge")
    scope = ("repro.parallel",)

    def check(self, src: SourceFile) -> "Iterator[Violation]":
        for node in src.walk():
            if not isinstance(node, ast.Try):
                continue
            if not self._touches_pool(node.body):
                continue
            for handler in node.handlers:
                if not self._is_broad(handler):
                    continue
                if any(isinstance(sub, ast.Raise)
                       for sub in ast.walk(handler)):
                    continue
                yield src.violation(
                    self.id, handler,
                    "broad except around pool submit()/result() without a "
                    "raise; route the failure through the typed errors in "
                    "repro.parallel.faults (or re-raise)")

    @staticmethod
    def _touches_pool(body: "list[ast.stmt]") -> bool:
        for stmt in body:
            for node in ast.walk(stmt):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in _POOL_INTERACTIONS):
                    return True
        return False

    @staticmethod
    def _is_broad(handler: ast.ExceptHandler) -> bool:
        if handler.type is None:
            return True
        types = (handler.type.elts if isinstance(handler.type, ast.Tuple)
                 else [handler.type])
        return any(isinstance(t, ast.Name) and t.id in _BROAD_EXCEPTIONS
                   for t in types)


# ----------------------------------------------------------------------
# ERT010 -- ad-hoc console output in library code
# ----------------------------------------------------------------------

#: Qualified attribute calls that write straight to the process streams.
_STREAM_WRITES = frozenset({
    "sys.stdout.write", "sys.stderr.write",
})

#: Modules allowed to talk to the console: the CLI entry points (their
#: whole job is console I/O).
_CONSOLE_MODULES = (
    "repro.cli", "repro.checks.cli", "repro.ledger.cli",
)


@register
class DirectOutputRule(Rule):
    """ERT010: library code never prints.

    A ``print()`` or ``sys.stderr.write()`` buried in the seeding or
    scheduler stack corrupts machine-consumed stdout (the ``seed`` TSV
    stream), interleaves unreadably under the worker pool, and bypasses
    the telemetry event stream and :mod:`repro.logging` -- the
    sanctioned ways to surface run state.  Status belongs in telemetry
    events/metrics; user-facing text belongs in the CLI modules.
    """

    id = "ERT010"
    title = "direct console output outside the CLI"
    rationale = ("library prints corrupt machine-readable stdout and "
                 "bypass telemetry; console I/O lives in the CLI "
                 "modules only")
    scope = ("repro",)
    exclude_scope = _CONSOLE_MODULES

    def check(self, src: SourceFile) -> "Iterator[Violation]":
        for node in src.walk():
            if not isinstance(node, ast.Call):
                continue
            if (isinstance(node.func, ast.Name)
                    and node.func.id == "print"
                    and src.imports.get("print", "print") == "print"):
                yield src.violation(
                    self.id, node,
                    "print() in library code; emit telemetry events/"
                    "metrics, or surface status through the CLI "
                    "(docs/observability.md)")
                continue
            qual = src.qualified_name(node.func)
            if qual in _STREAM_WRITES:
                yield src.violation(
                    self.id, node,
                    f"{qual}() in library code; console streams belong "
                    f"to the CLI modules (docs/observability.md)")


# ----------------------------------------------------------------------
# ERT011 -- stdlib logging in library code
# ----------------------------------------------------------------------

#: Stdlib ``logging`` entry points that configure or write through the
#: process-global root-handler machinery.
_STDLIB_LOGGING_CALLS = frozenset({
    "logging.basicConfig", "logging.getLogger", "logging.Logger",
    "logging.debug", "logging.info", "logging.warning", "logging.warn",
    "logging.error", "logging.exception", "logging.critical",
    "logging.log", "logging.disable", "logging.captureWarnings",
    "logging.setLoggerClass", "logging.addLevelName",
    "logging.config.dictConfig", "logging.config.fileConfig",
    "logging.config.listen",
})


@register
class StdlibLoggingRule(Rule):
    """ERT011: operational events route through :mod:`repro.logging`.

    The stdlib ``logging`` module is one process-global tree of loggers
    and handlers, configured by whoever calls ``basicConfig`` first --
    import-order-sensitive global state of exactly the kind this
    repository bans (compare ERT002's global RNG).  It also writes to
    stderr by default, bypassing ERT010's console discipline, and its
    records are unstructured text.  Library code emits operational
    events through :mod:`repro.logging` (structured JSONL, off unless
    the CLI turns it on) instead.
    """

    id = "ERT011"
    title = "stdlib logging used in library code"
    rationale = ("the root-handler tree is import-order-sensitive global "
                 "state and writes unstructured text to stderr; "
                 "repro.logging is the structured path")
    scope = ("repro",)

    def check(self, src: SourceFile) -> "Iterator[Violation]":
        for node in src.walk():
            if not isinstance(node, ast.Call):
                continue
            qual = src.qualified_name(node.func)
            if qual is None:
                continue
            if (qual in _STDLIB_LOGGING_CALLS
                    or qual.startswith("logging.root.")):
                yield src.violation(
                    self.id, node,
                    f"{qual}() configures or writes through the stdlib "
                    f"logging root handlers; emit structured events "
                    f"through repro.logging instead "
                    f"(docs/observability.md)")


# ----------------------------------------------------------------------
# ERT015 / ERT016 -- shm lifecycle and pool-boundary callables
# ----------------------------------------------------------------------

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _outer_functions(
        src: SourceFile
) -> "Iterator[ast.FunctionDef | ast.AsyncFunctionDef]":
    """Module-level functions and the methods of module-level classes.
    ERT015/ERT016 judge each of these as one unit, nested ``def``s and
    lambdas included -- their code runs only if the enclosing function
    runs it."""
    for stmt in getattr(src.tree, "body", []):
        if isinstance(stmt, _FUNCTION_NODES):
            yield stmt
        elif isinstance(stmt, ast.ClassDef):
            for sub in stmt.body:
                if isinstance(sub, _FUNCTION_NODES):
                    yield sub


def _cleanup_calls(func: ast.AST) -> "set[str]":
    """Method names called from ``func``'s except handlers and finally
    blocks -- the paths that run when construction or use fails."""
    names: "set[str]" = set()
    for node in ast.walk(func):
        if isinstance(node, ast.ExceptHandler):
            body = node.body
        elif isinstance(node, ast.Try):
            body = node.finalbody
        else:
            continue
        for stmt in body:
            for sub in ast.walk(stmt):
                if (isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)):
                    names.add(sub.func.attr)
    return names


def _registers_segment(func: ast.AST) -> bool:
    """Does ``func`` store into ``_LIVE_SEGMENTS[...]``?"""
    return any(isinstance(target, ast.Subscript)
               and isinstance(target.value, ast.Name)
               and target.value.id == "_LIVE_SEGMENTS"
               for node in ast.walk(func) if isinstance(node, ast.Assign)
               for target in node.targets)


@register
class ShmLifecycleRule(Rule):
    """ERT015: a segment is registered and unlinked by the function that
    creates it; an attach closes on failure.

    The discipline is :class:`repro.parallel.shm.SharedIndexBuffer`'s:
    everything the rule asks for is in the function holding the
    ``SharedMemory(...)`` call, so one function's AST decides it.
    """

    id = "ERT015"
    title = "unpaired shared-memory lifecycle"
    rationale = (
        "A SharedMemory segment is a kernel object: created but not "
        "registered in _LIVE_SEGMENTS it escapes the atexit sweep, and "
        "without a construction-failure unlink handler an exception "
        "between create and register leaks /dev/shm until reboot.  "
        "Attach sides must close on failure or the fd leaks per batch.")
    scope = ("repro.parallel",)

    def check(self, src: SourceFile) -> "Iterator[Violation]":
        for func in _outer_functions(src):
            sites = [node for node in ast.walk(func)
                     if isinstance(node, ast.Call)
                     and src.qualified_name(node.func) in _SHM_CTORS]
            if not sites:
                continue
            cleanup = _cleanup_calls(func)
            missing: "list[str]" = []
            if not _registers_segment(func):
                missing.append("registration in _LIVE_SEGMENTS")
            if "unlink" not in cleanup:
                missing.append("a construction-failure unlink handler")
            for call in sites:
                creates = any(kw.arg == "create"
                              and isinstance(kw.value, ast.Constant)
                              and kw.value.value is True
                              for kw in call.keywords)
                if creates and missing:
                    yield src.violation(
                        self.id, call,
                        f"SharedMemory(create=True) in {func.name}() lacks "
                        f"{' and '.join(missing)} (cf. SharedIndexBuffer)")
                elif not creates and "close" not in cleanup:
                    yield src.violation(
                        self.id, call,
                        f"SharedMemory attach in {func.name}() has no "
                        f"close path on failure; wrap the use in "
                        f"try/except and close the segment "
                        f"(cf. attach_index)")


@register
class PoolCaptureSafetyRule(Rule):
    """ERT016: only module-level functions cross a pool boundary.

    Checked where the callable is handed over: the first argument of a
    ``.submit(...)`` call and the ``initializer=`` of a pool
    constructor.
    """

    id = "ERT016"
    title = "capture-unsafe callable crossing a pool boundary"
    rationale = (
        "submit() pickles its callable: a lambda fails outright under "
        "the spawn start method, a nested def drags the enclosing "
        "frame's captures along, and a bound method ships its whole "
        "receiver -- potentially an index-sized object -- to every "
        "worker.  Pool-crossing callables must be module-level "
        "functions taking explicit, picklable arguments.")
    scope = ("repro",)

    def check(self, src: SourceFile) -> "Iterator[Violation]":
        for func in _outer_functions(src):
            nested = {node.name for node in ast.walk(func)
                      if isinstance(node, _FUNCTION_NODES)
                      and node is not func}
            for call in ast.walk(func):
                if not isinstance(call, ast.Call):
                    continue
                handed: "list[ast.expr]" = []
                if (isinstance(call.func, ast.Attribute)
                        and call.func.attr == "submit" and call.args):
                    handed.append(call.args[0])
                if src.qualified_name(call.func) in _POOL_CTORS:
                    handed.extend(kw.value for kw in call.keywords
                                  if kw.arg == "initializer")
                for arg in handed:
                    message = self._unsafe(arg, nested)
                    if message is not None:
                        yield src.violation(self.id, call, message)

    @staticmethod
    def _unsafe(arg: ast.expr, nested: "set[str]") -> "str | None":
        if isinstance(arg, ast.Lambda):
            return ("lambda submitted to an executor; lambdas do not "
                    "pickle under spawn -- pass a module-level function "
                    "with explicit arguments")
        if isinstance(arg, ast.Name) and arg.id in nested:
            return (f"nested function '{arg.id}' submitted to an "
                    f"executor; it closes over the enclosing frame -- "
                    f"hoist it to module level and pass its inputs "
                    f"explicitly")
        if isinstance(arg, ast.Attribute):
            parts: "list[str]" = []
            node: ast.expr = arg
            while isinstance(node, ast.Attribute):
                parts.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id in ("self", "cls"):
                bound = ".".join([node.id] + parts[::-1])
                return (f"bound method {bound} submitted to an executor; "
                        f"pickling it ships the entire receiver to the "
                        f"worker -- pass a module-level function and the "
                        f"fields it needs")
        return None


# ----------------------------------------------------------------------
# ERT017 -- per-element telemetry in the vector kernels
# ----------------------------------------------------------------------

#: Lexical contexts that execute their body once per element.
_LOOP_NODES = (ast.For, ast.AsyncFor, ast.While, ast.ListComp,
               ast.SetComp, ast.DictComp, ast.GeneratorExp)


@register
class KernelLoopTelemetryRule(Rule):
    """ERT017: the vector kernels flush telemetry per batch, never per
    element.

    ERT007 polices functions annotated ``# repro: hot``; the batched
    kernels in :mod:`repro.kernels` are hot by construction -- every
    loop there runs per read, per node visit, per lane or per
    traceback row, so a telemetry call lexically inside *any* of their
    loops is a per-element call regardless of annotation.  The kernels
    count work into :class:`repro.kernels.stats.KernelBatchStats`
    (plain adds, unconditional) and flush the registry once per batch under
    the ``kernels.batch`` span; registry traffic at loop granularity
    would reintroduce exactly the overhead that batch-flush design
    exists to avoid -- and break the <5% vector-telemetry overhead
    budget ``benchmarks/bench_telemetry_overhead.py`` enforces.
    """

    id = "ERT017"
    title = "telemetry call inside a repro.kernels loop"
    rationale = ("kernel sweeps accumulate into KernelBatchStats and "
                 "flush once per batch (docs/observability.md); "
                 "per-element registry calls undo the batch-flush "
                 "design")
    scope = ("repro.kernels",)

    def check(self, src: SourceFile) -> "Iterator[Violation]":
        for node in src.walk():
            if not isinstance(node, ast.Call):
                continue
            qual = _telemetry_call_qual(src, node)
            if qual is None:
                continue
            if self._enclosing_loop(src, node) is None:
                continue
            yield src.violation(
                self.id, node,
                f"{qual}() called inside a kernel loop; accumulate "
                f"into KernelBatchStats and flush once per batch "
                f"instead (docs/observability.md)")

    @staticmethod
    def _enclosing_loop(src: SourceFile,
                        node: ast.AST) -> "ast.AST | None":
        cursor = src.parent(node)
        while cursor is not None:
            if isinstance(cursor, _LOOP_NODES):
                return cursor
            cursor = src.parent(cursor)
        return None


__all__ = [
    "DirectOutputRule",
    "FootgunRule",
    "HotLoopTelemetryRule",
    "IdAsKeyRule",
    "ImportLayeringRule",
    "IntegerAccountingRule",
    "KernelLoopTelemetryRule",
    "PoolCaptureSafetyRule",
    "RawClockRule",
    "ShmLifecycleRule",
    "StdlibLoggingRule",
    "SwallowedPoolFailureRule",
    "UnseededRandomRule",
    "WorkerLifecycleRule",
]
