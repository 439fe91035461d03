"""Tests for the repro.checks static-analysis subsystem.

The fixture corpus under ``tests/fixtures/checks`` carries one failing
and one passing snippet per rule; these tests run the checker on each,
then cover the pragma machinery, the reporters, the CLI exit codes, and
the one regression the rule set was built around: reintroducing the
PR-1 ``id(read)`` cache-key bug must trip ERT001.
"""

import ast
import os
import re
import subprocess
import sys

import pytest

from repro.checks import (
    all_rules,
    check_file,
    check_source,
    iter_python_files,
    parse_pragmas,
    render_text,
    run_checks,
)
from repro.checks.cli import main as checks_main
from repro.checks.engine import CheckReport, module_name_for_path

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "checks")
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RULE_IDS = ("ERT001", "ERT002", "ERT003", "ERT004", "ERT005", "ERT006",
            "ERT007", "ERT008", "ERT009", "ERT010", "ERT011", "ERT015",
            "ERT016", "ERT017")


def fixture(name):
    return os.path.join(FIXTURES, name)


# ----------------------------------------------------------------------
# Per-rule fixtures: the failing snippet trips exactly its rule, the
# passing snippet is completely clean.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_fail_fixture_trips_its_rule(rule_id):
    path = fixture(f"{rule_id.lower()}_fail.py")
    violations, _ = check_file(path)
    assert violations, f"{rule_id} fail fixture produced no violations"
    assert {v.rule for v in violations} == {rule_id}
    text = render_text(run_checks([path], excludes=()))
    assert text.endswith(f"[{rule_id} x{len(violations)}]")


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_pass_fixture_is_clean(rule_id):
    violations, _ = check_file(fixture(f"{rule_id.lower()}_pass.py"))
    assert violations == []


def test_violations_carry_position_and_message():
    violations, _ = check_file(fixture("ert006_fail.py"))
    first = violations[0]
    assert first.line > 0 and first.col > 0
    assert "mutable default" in first.message
    assert re.match(r".+ert006_fail\.py:\d+:\d+: ERT006 ", first.format())


# ----------------------------------------------------------------------
# Pragmas
# ----------------------------------------------------------------------


def test_line_pragma_suppresses_only_its_rule_and_line():
    source = (
        "placed = set()\n"
        "def f(a, b):\n"
        "    placed.add(id(a))  # repro: allow(ERT001)\n"
        "    placed.add(id(b))\n"
    )
    violations, suppressed = check_source("snippet.py", source)
    assert suppressed == 1
    assert [v.rule for v in violations] == ["ERT001"]
    assert violations[0].line == 4


def test_multiline_statement_suppressed_by_pragma_on_any_spanned_line():
    source = (
        "def f(a, keys):\n"
        "    return keys.get(\n"
        "        id(a))  # repro: allow(ERT001)\n"
    )
    violations, suppressed = check_source("snippet.py", source)
    assert violations == [] and suppressed == 1


def test_allow_file_pragma_covers_whole_file():
    source = (
        "# repro: module(repro.memsim.fake)\n"
        "# repro: allow-file(ERT004)\n"
        "A = 0.5\n"
        "B = 1.5\n"
    )
    violations, suppressed = check_source("snippet.py", source)
    assert violations == [] and suppressed == 2


def test_pragma_inside_string_literal_is_ignored():
    source = 'DOC = "# repro: allow-file(ERT006)"\ndef f(x=[]):\n    return x\n'
    violations, _ = check_source("snippet.py", source)
    assert [v.rule for v in violations] == ["ERT006"]


def test_allow_pragma_takes_multiple_rules():
    pragmas = parse_pragmas("x = 1  # repro: allow(ERT001, ERT004)\n")
    assert pragmas.allows("ERT001", 1)
    assert pragmas.allows("ERT004", 1)
    assert not pragmas.allows("ERT006", 1)


def test_hot_pragma_binds_to_def_on_same_or_next_line():
    pragmas = parse_pragmas("# repro: hot\ndef f():\n    pass\n")
    assert pragmas.is_hot(2)
    assert not pragmas.is_hot(3)


def test_module_override_enables_scoped_rules():
    timing = "import time\n\ndef f():\n    return time.perf_counter()\n"
    violations, _ = check_source("snippet.py", timing)
    assert violations == []  # bare stem: outside repro scope
    scoped = "# repro: module(repro.analysis.fake)\n" + timing
    violations, _ = check_source("snippet.py", scoped)
    assert [v.rule for v in violations] == ["ERT003"]


# ----------------------------------------------------------------------
# Engine behaviour
# ----------------------------------------------------------------------


def test_module_name_follows_init_chain():
    assert module_name_for_path(
        os.path.join(REPO, "src", "repro", "core", "layout.py")
    ) == "repro.core.layout"
    assert module_name_for_path(
        os.path.join(REPO, "src", "repro", "core", "__init__.py")
    ) == "repro.core"


def test_syntax_error_reported_as_parse_violation():
    violations, _ = check_source("broken.py", "def f(:\n")
    assert len(violations) == 1
    assert violations[0].rule == "PARSE"


def test_import_alias_resolution_catches_renamed_modules():
    source = (
        "# repro: module(repro.analysis.fake)\n"
        "import numpy.random as nr\n"
        "x = nr.rand(3)\n"
    )
    violations, _ = check_source("snippet.py", source)
    assert [v.rule for v in violations] == ["ERT002"]


def test_iter_python_files_skips_fixture_corpus():
    files = list(iter_python_files([os.path.join(REPO, "tests")]))
    assert files
    assert not any("fixtures" in path for path in files)


def test_rule_registry_is_complete():
    assert tuple(rule.id for rule in all_rules()) == RULE_IDS
    by_id = {rule.id: rule for rule in all_rules()}
    assert by_id["ERT016"].scope == ("repro",)
    assert by_id["ERT015"].scope == ("repro.parallel",)


# ----------------------------------------------------------------------
# The PR-1 regression: an id()-keyed cache without pinning must fail.
# ----------------------------------------------------------------------


def test_reintroducing_engine_id_key_bug_fails_ert001():
    path = os.path.join(REPO, "src", "repro", "core", "engine.py")
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    assert "# repro: allow(ERT001)" in source
    # As committed the pragma documents the pinning; the file is clean.
    clean, _ = check_source(path, source)
    assert not [v for v in clean if v.rule == "ERT001"]
    # Strip the pragma -- the state of the code before the PR-1 fix.
    regressed = source.replace("# repro: allow(ERT001)", "")
    violations, _ = check_source(path, regressed)
    assert any(v.rule == "ERT001" for v in violations)


# ----------------------------------------------------------------------
# Reporters
# ----------------------------------------------------------------------


def test_text_report_counts():
    report = run_checks([fixture("ert006_fail.py"),
                         fixture("ert006_pass.py")], excludes=())
    assert report.files_checked == 2
    assert len(report.violations) == 2
    assert report.counts_by_rule() == {"ERT006": 2}
    assert report.suppressed == 0
    lines = render_text(report).splitlines()
    assert all(" ERT006 " in line for line in lines[:2])
    assert lines[2] == "2 violation(s) in 2 file(s) [ERT006 x2]"
    source = "def f(x=[]):  # repro: allow(ERT006)\n    return x\n"
    report = CheckReport(files_checked=1)
    report.violations, report.suppressed = check_source("snippet.py", source)
    assert render_text(report) == ("ok: 1 file(s) clean "
                                   "(1 suppressed by pragma)")


def test_empty_report_is_ok():
    report = CheckReport()
    assert report.ok
    assert render_text(report) == "ok: 0 file(s) clean"


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def test_cli_exit_zero_on_clean_file(capsys):
    assert checks_main([fixture("ert006_pass.py")]) == 0
    assert "ok:" in capsys.readouterr().out


def test_cli_exit_one_on_violations(capsys):
    assert checks_main([fixture("ert006_fail.py")]) == 1
    out = capsys.readouterr().out
    assert "ERT006" in out and "violation(s)" in out


def test_cli_rule_selection(capsys):
    # Only ERT001 requested: the ERT006 fixture comes back clean.
    assert checks_main(["--rules", "ERT001",
                        fixture("ert006_fail.py")]) == 0
    capsys.readouterr()
    assert checks_main(["--rules", "ERT999",
                        fixture("ert006_fail.py")]) == 2
    capsys.readouterr()
    assert checks_main(["--rules", "ERT005, ERT006",
                        fixture("ert006_fail.py")]) == 1
    assert "[ERT006 x2]" in capsys.readouterr().out


def test_ert_repro_check_subcommand():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "check",
         fixture("ert006_fail.py")],
        capture_output=True, text=True, cwd=REPO,
        env={**os.environ,
             "PYTHONPATH": os.path.join(REPO, "src")},
    )
    assert proc.returncode == 1
    assert "ERT006" in proc.stdout


# ----------------------------------------------------------------------
# ERT007 over the hot functions of both walkers
# ----------------------------------------------------------------------

#: Every function the scalar walk, the arena walk, the scalar SW kernel
#: and the memsim models run per character / node / extension / request.
#: Each carries its own ``# repro: hot``: ERT007 looks at one function at
#: a time.
HOT_FUNCTIONS = (
    ("core/engine.py", "forward_search"),
    ("core/engine.py", "backward_search"),
    ("core/engine.py", "locate"),
    ("core/engine.py", "last_seed"),
    ("core/engine.py", "backward_sweep"),
    ("core/walk.py", "walk"),
    ("core/walk.py", "entry"),
    ("core/walk.py", "root"),
    ("core/walk.py", "land"),
    ("core/walk.py", "step"),
    ("core/walk.py", "ref"),
    ("core/walk.py", "gather"),
    ("core/walk.py", "_fetch"),
    ("extend/chaining.py", "chain_seeds"),
    ("extend/traceback.py", "banded_sw_traceback"),
    ("extend/smith_waterman.py", "__init__"),
    ("memsim/cache.py", "lookup"),
    ("memsim/cache.py", "_locate"),
    ("memsim/dram.py", "access"),
    ("memsim/dram.py", "_map"),
)


@pytest.mark.parametrize("relpath,name", HOT_FUNCTIONS)
def test_ert007_flags_telemetry_planted_in_hot_function(relpath, name):
    path = os.path.join(REPO, "src", "repro", relpath)
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    lines = source.splitlines(keepends=True)
    pragmas = parse_pragmas(source)
    hot = [node for node in ast.walk(ast.parse(source))
           if isinstance(node, ast.FunctionDef) and node.name == name
           and pragmas.is_hot(node.lineno)]
    assert len(hot) == 1, f"{relpath}: no single hot {name}()"
    first = hot[0].body[0]
    indent = " " * first.col_offset
    lines.insert(first.lineno - 1, f"{indent}telemetry.count('planted')\n")
    violations, _ = check_source(path, "".join(lines))
    ert007 = [v for v in violations if v.rule == "ERT007"]
    assert [v.line for v in ert007] == [first.lineno]
    assert f"{name}()" in ert007[0].message


# ----------------------------------------------------------------------
# ERT015 / ERT016: each looks at the one function holding the call
# ----------------------------------------------------------------------

SHM_HEADER = (
    "# repro: module(repro.parallel.fake)\n"
    "from multiprocessing import shared_memory\n"
    "_LIVE_SEGMENTS = {}\n"
)


def ert015_messages(body):
    violations, _ = check_source("snippet.py", SHM_HEADER + body)
    assert {v.rule for v in violations} <= {"ERT015"}
    return [v.message for v in violations]


def test_ert015_create_without_registration():
    (message,) = ert015_messages(
        "def publish(payload):\n"
        "    seg = shared_memory.SharedMemory(create=True, size=8)\n"
        "    try:\n"
        "        seg.buf[:8] = payload\n"
        "    except BaseException:\n"
        "        seg.unlink()\n"
        "        raise\n"
        "    return seg\n")
    assert "publish() lacks registration in _LIVE_SEGMENTS " in message


def test_ert015_create_without_cleanup_unlink():
    (message,) = ert015_messages(
        "def publish(payload):\n"
        "    seg = shared_memory.SharedMemory(create=True, size=8)\n"
        "    seg.buf[:8] = payload\n"
        "    _LIVE_SEGMENTS[seg.name] = seg\n"
        "    seg.unlink()\n")  # not on a failure path
    assert "lacks a construction-failure unlink handler " in message


def test_ert015_attach_without_close():
    (message,) = ert015_messages(
        "def attach(name):\n"
        "    seg = shared_memory.SharedMemory(name=name)\n"
        "    return bytes(seg.buf[:4])\n")
    assert "attach() has no close path on failure" in message
    assert ert015_messages(
        "def attach(name):\n"
        "    seg = shared_memory.SharedMemory(name=name)\n"
        "    try:\n"
        "        return bytes(seg.buf[:4])\n"
        "    finally:\n"
        "        seg.close()\n") == []


def test_ert015_is_scoped_to_repro_parallel():
    source = (SHM_HEADER.replace("repro.parallel.fake", "repro.core.fake")
              + "def attach(name):\n"
                "    return shared_memory.SharedMemory(name=name)\n")
    violations, _ = check_source("snippet.py", source)
    assert [v.rule for v in violations] == ["ERT008"]


def ert016_messages(body):
    violations, _ = check_source(
        "snippet.py", "# repro: module(repro.analysis.fake)\n" + body)
    assert {v.rule for v in violations} <= {"ERT016"}
    return [v.message for v in violations]


def test_ert016_lambda_nested_def_and_bound_method():
    assert "lambda submitted" in ert016_messages(
        "def go(pool, xs):\n"
        "    return pool.submit(lambda: sum(xs))\n")[0]
    assert "nested function 'run'" in ert016_messages(
        "def go(pool, xs):\n"
        "    def run():\n"
        "        return sum(xs)\n"
        "    return pool.submit(run)\n")[0]
    assert "bound method self.index.lookup " in ert016_messages(
        "class Dispatcher:\n"
        "    def go(self, pool, xs):\n"
        "        return pool.submit(self.index.lookup, xs)\n")[0]


def test_ert016_accepts_module_level_function():
    assert ert016_messages(
        "def run(xs):\n"
        "    return sum(xs)\n"
        "def go(pool, xs):\n"
        "    return pool.submit(run, xs)\n") == []


def test_ert016_covers_pool_initializer():
    source = (
        "# repro: module(repro.parallel.fake)\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "def _init(spec):\n"
        "    return spec\n"
        "class Manager:\n"
        "    def spawn(self, spec):\n"
        "        return ProcessPoolExecutor(\n"
        "            initializer={initializer}, initargs=(spec,))\n")
    bad, _ = check_source("snippet.py",
                          source.format(initializer="self._init"))
    assert [v.rule for v in bad] == ["ERT016"]
    assert "bound method self._init " in bad[0].message
    good, _ = check_source("snippet.py", source.format(initializer="_init"))
    assert good == []


# ----------------------------------------------------------------------
# docs/static_analysis.md documents exactly the registered rules
# ----------------------------------------------------------------------


def test_docs_have_one_section_per_registered_rule():
    with open(os.path.join(REPO, "docs", "static_analysis.md"),
              encoding="utf-8") as handle:
        headings = re.findall(r"^### (ERT\d{3})\b", handle.read(),
                              flags=re.MULTILINE)
    assert sorted(headings) == [rule.id for rule in all_rules()]


# ----------------------------------------------------------------------
# Dogfood: the repository itself stays clean.
# ----------------------------------------------------------------------


def test_repository_tree_is_clean():
    report = run_checks([os.path.join(REPO, "src"),
                         os.path.join(REPO, "tests"),
                         os.path.join(REPO, "benchmarks")])
    assert report.ok, "\n".join(v.format() for v in report.violations)


def test_ert017_covers_the_walk_and_the_engine():
    """The walk loop left ``repro.kernels`` for ``repro.core``; ERT017
    follows it there (and to the engine), and nowhere else in core."""
    path = fixture("ert017_fail_walk.py")
    violations, _ = check_file(path)
    assert violations and {v.rule for v in violations} == {"ERT017"}
    with open(path) as handle:
        source = handle.read()
    for module, rule_fires in (("repro.core.engine", True),
                               ("repro.core.builder", False)):
        moved = source.replace("module(repro.core.walk)",
                               f"module({module})")
        violations, _ = check_source("moved.py", moved)
        assert bool(violations) == rule_fires, module


def test_ert017_covers_the_seeding_driver():
    """``seed_batch`` and ``KernelBatchStats`` live in
    ``repro.seeding``; ERT017 covers both of their modules there, and
    nowhere else in seeding."""
    path = fixture("ert017_fail_seeding.py")
    violations, _ = check_file(path)
    assert violations and {v.rule for v in violations} == {"ERT017"}
    with open(path) as handle:
        source = handle.read()
    for module, rule_fires in (("repro.seeding.stats", True),
                               ("repro.seeding.verify", False)):
        moved = source.replace("module(repro.seeding.algorithm)",
                               f"module({module})")
        violations, _ = check_source("moved.py", moved)
        assert bool(violations) == rule_fires, module


def test_ert017_covers_the_extension_pipeline():
    """``ReadAligner`` and ``PairedAligner`` flush the ``align.*``
    families once per batch; ERT017 covers both of their modules, and
    nowhere else in extend."""
    with open(fixture("ert017_fail_seeding.py")) as handle:
        source = handle.read()
    for module, rule_fires in (("repro.extend.pipeline", True),
                               ("repro.extend.paired", True),
                               ("repro.extend.sam", False)):
        moved = source.replace("module(repro.seeding.algorithm)",
                               f"module({module})")
        violations, _ = check_source("moved.py", moved)
        assert bool(violations) == rule_fires, module


def test_ert017_repo_clean_without_pragmas():
    """ERT017 (per-element telemetry in kernel loops) holds across the
    seeding driver and the vector kernels with zero suppressions: every
    sweep counts into :class:`repro.seeding.stats.KernelBatchStats` and
    flushes once per batch, so neither a fresh in-loop telemetry call nor an
    ``allow(ERT017)`` pragma may land."""
    src = os.path.join(REPO, "src", "repro")
    report = run_checks([src])
    ert017 = [v for v in report.violations if v.rule == "ERT017"]
    assert not ert017, "\n".join(v.format() for v in ert017)
    for path in iter_python_files([src]):
        with open(path) as handle:
            pragmas = parse_pragmas(handle.read())
        allowed = set(pragmas.file_allows)
        for rules in pragmas.line_allows.values():
            allowed |= set(rules)
        assert "ERT017" not in allowed, \
            f"# repro: allow(ERT017) pragma reintroduced in {path}"
