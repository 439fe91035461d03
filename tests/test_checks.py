"""Tests for the repro.checks static-analysis subsystem.

The fixture corpus under ``tests/fixtures/checks`` carries one failing
and one passing snippet per rule; these tests run the checker on each,
then cover the pragma machinery, the reporters, the CLI exit codes, and
the one regression the rule set was built around: reintroducing the
PR-1 ``id(read)`` cache-key bug must trip ERT001.
"""

import ast
import json
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
    report_as_dict,
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
    violations, _ = check_file(fixture(f"{rule_id.lower()}_fail.py"))
    assert violations, f"{rule_id} fail fixture produced no violations"
    assert {v.rule for v in violations} == {rule_id}


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


def test_json_report_schema():
    report = run_checks([fixture("ert006_fail.py"),
                         fixture("ert006_pass.py")], excludes=())
    doc = report_as_dict(report)
    assert doc["version"] == 2
    assert doc["files_checked"] == 2
    assert doc["violation_count"] == len(doc["violations"]) == 2
    assert doc["counts"] == {"ERT006": 2}
    assert isinstance(doc["suppressed"], int)
    for violation in doc["violations"]:
        assert set(violation) == {"rule", "path", "line", "col", "message"}
        assert violation["rule"] == "ERT006"
    json.dumps(doc)  # must be serializable as-is


def test_empty_report_is_ok():
    report = CheckReport()
    assert report.ok
    assert report_as_dict(report)["violation_count"] == 0


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


def test_cli_json_format(capsys):
    assert checks_main(["--format", "json", fixture("ert006_fail.py")]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["violation_count"] == 2


def test_cli_rule_selection(capsys):
    # Only ERT001 requested: the ERT006 fixture comes back clean.
    assert checks_main(["--rules", "ERT001",
                        fixture("ert006_fail.py")]) == 0
    capsys.readouterr()
    assert checks_main(["--rules", "ERT999",
                        fixture("ert006_fail.py")]) == 2


def test_cli_list_rules(capsys):
    assert checks_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in RULE_IDS:
        assert rule_id in out


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

#: Every function the scalar walk, the arena walk, score-only SW and the
#: memsim models run per character / node / request.  Each carries its own
#: ``# repro: hot``: ERT007 looks at one function at a time.
HOT_FUNCTIONS = (
    ("core/engine.py", "_walk"),
    ("core/engine.py", "_kmer_entry"),
    ("core/walker.py", "__init__"),
    ("core/walker.py", "_enter_root"),
    ("core/walker.py", "_emit_node"),
    ("core/walker.py", "_emit_ref"),
    ("core/walker.py", "_settle"),
    ("core/walker.py", "advance"),
    ("core/walker.py", "restore"),
    ("kernels/walk.py", "walk"),
    ("extend/smith_waterman.py", "banded_smith_waterman"),
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
# CLI: --list-rules filtering/json
# ----------------------------------------------------------------------


def test_cli_list_rules_respects_rules_filter(capsys):
    assert checks_main(["--list-rules", "--rules", "ERT005,ERT016"]) == 0
    out = capsys.readouterr().out
    assert "ERT005" in out and "ERT016" in out
    assert "ERT001" not in out
    assert "# repro: allow(ERT005)" in out


def test_cli_list_rules_json(capsys):
    assert checks_main(["--list-rules", "--format", "json",
                        "--rules", "ERT015,ERT016"]) == 0
    catalogue = json.loads(capsys.readouterr().out)
    assert [entry["id"] for entry in catalogue] == ["ERT015", "ERT016"]
    by_id = {entry["id"]: entry for entry in catalogue}
    assert "kind" not in by_id["ERT016"]
    assert by_id["ERT016"]["scope"] == ["repro"]
    assert by_id["ERT015"]["scope"] == ["repro.parallel"]
    assert by_id["ERT016"]["pragma"] == "# repro: allow(ERT016)"
    assert by_id["ERT016"]["title"]


# ----------------------------------------------------------------------
# Dogfood: the repository itself stays clean.
# ----------------------------------------------------------------------


def test_repository_tree_is_clean():
    report = run_checks([os.path.join(REPO, "src"),
                         os.path.join(REPO, "tests"),
                         os.path.join(REPO, "benchmarks")])
    assert report.ok, "\n".join(v.format() for v in report.violations)


def test_ert017_repo_clean_without_pragmas():
    """ERT017 (per-element telemetry in kernel loops) holds across the
    vector kernels with zero suppressions: every sweep counts into
    :class:`repro.kernels.stats.KernelBatchStats` and flushes once per
    batch, so neither a fresh in-loop telemetry call nor an
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
