"""The public API surface: everything advertised must import and work."""

import importlib

import pytest


def test_top_level_reexports():
    import repro

    for name in repro.__all__:
        assert hasattr(repro, name), name
    assert repro.__version__


@pytest.mark.parametrize("module", [
    "repro.sequence", "repro.fmindex", "repro.seeding", "repro.core",
    "repro.memsim", "repro.accel", "repro.extend", "repro.analysis",
    "repro.baselines", "repro.cli",
])
def test_subpackage_all_is_importable(module):
    mod = importlib.import_module(module)
    for name in getattr(mod, "__all__", []):
        assert hasattr(mod, name), f"{module}.{name}"


#: The packages whose ``__init__`` re-exports lazily (PEP 562, through
#: ``repro._lazy.lazy_exports``): importing one loads no submodule.
LAZY_PACKAGES = [
    "repro", "repro.core", "repro.extend", "repro.sequence",
    "repro.seeding", "repro.parallel", "repro.memsim", "repro.fmindex",
    "repro.kernels",
]


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_facade_hands_out_the_defining_modules_objects(package):
    import pkgutil
    import types

    pkg = importlib.import_module(package)
    # Load every submodule first: the import system then binds each to
    # its package attribute, which must not shadow an exported name
    # (``repro.fmindex.suffix_array`` is a module *and* a function).
    for info in pkgutil.iter_modules(pkg.__path__, package + "."):
        importlib.import_module(info.name)
    assert set(pkg.__all__) <= set(dir(pkg))
    star: dict = {}
    exec(f"from {package} import *", star)
    assert set(pkg.__all__) <= set(star)
    for name in pkg.__all__:
        value = getattr(pkg, name)
        assert star[name] is value
        # ``repro.telemetry`` is the one submodule exported as itself.
        assert isinstance(value, types.ModuleType) == (
            (package, name) == ("repro", "telemetry")), name
        home = getattr(value, "__module__", None)
        if isinstance(home, str) and home.startswith("repro."):
            assert getattr(importlib.import_module(home), name) is value


@pytest.mark.parametrize("package", LAZY_PACKAGES + ["repro.telemetry"])
def test_lazy_facade_unknown_name_is_an_attribute_error(package):
    pkg = importlib.import_module(package)
    with pytest.raises(AttributeError, match=f"'{package}'.*'no_such_name'"):
        pkg.no_such_name
    with pytest.raises(ImportError):
        exec(f"from {package} import no_such_name")
    assert not hasattr(pkg, "__wrapped__")  # what inspect / doctest probe


def test_lazy_facade_resolves_names_in_a_fresh_interpreter():
    """In-process the submodules are long since loaded; here nothing is,
    so every name goes through ``__getattr__`` -- ``repro.telemetry``
    first, the one that recurses if ``repro`` looks it up on itself."""
    import subprocess
    import sys

    code = (
        "import importlib, sys\n"
        "import repro\n"
        "assert 'repro.telemetry' not in sys.modules\n"
        "assert repro.telemetry is sys.modules['repro.telemetry']\n"
        "assert 'repro.telemetry.export' not in sys.modules\n"
        "assert callable(repro.telemetry.render_profile)\n"
        "assert 'repro.telemetry.export' in sys.modules\n"
        "for package in sys.argv[1:]:\n"
        "    pkg = importlib.import_module(package)\n"
        "    for name in pkg.__all__:\n"
        "        assert getattr(pkg, name) is not None, (package, name)\n"
        "        assert name in vars(pkg), (package, name)\n")
    proc = subprocess.run([sys.executable, "-c", code] + LAZY_PACKAGES,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_read_pickles_through_its_old_home():
    """``Read`` moved to ``repro.sequence.io``; ``simulate`` re-exports
    it, so old import paths and pickles of either spelling keep
    working."""
    import pickle

    import numpy as np

    from repro.sequence import Read, io, simulate
    from repro.sequence.reference import Strand

    assert simulate.Read is io.Read is Read
    read = simulate.Read(name="r1", codes=np.array([0, 1, 2, 3], np.uint8),
                         quality="IIII", origin=7, strand=Strand.REVERSE)
    clone = pickle.loads(pickle.dumps(read))
    assert type(clone) is Read
    assert (clone.name, clone.quality, clone.origin, clone.strand) == (
        "r1", "IIII", 7, Strand.REVERSE)
    assert clone.codes.tolist() == [0, 1, 2, 3] and clone.sequence == "ACGT"
    # A pickle written before the move names the class by its old path
    # (protocol 0 spells module names out unframed, so they can be swapped).
    old = pickle.dumps(read, protocol=0).replace(
        b"repro.sequence.io", b"repro.sequence.simulate")
    assert b"repro.sequence.simulate" in old
    assert type(pickle.loads(old)) is Read


def test_minimal_workflow_through_top_level():
    """The README quickstart, via top-level imports only."""
    import repro

    reference = repro.GenomeSimulator(seed=7).generate(1500)
    engine = repro.ErtSeedingEngine(
        repro.build_ert(reference, repro.ErtConfig(k=5, max_seed_len=80)))
    read = repro.ReadSimulator(reference, read_length=50,
                               seed=8).simulate(1)[0]
    result = repro.seed_read(engine, read.codes,
                             repro.SeedingParams(min_seed_len=10))
    assert result.all_seeds


def test_examples_run(tmp_path):
    """The fast examples must execute cleanly end to end
    (``full_alignment.py`` is the one that drives ``ReadAligner.align``)."""
    import subprocess
    import sys
    from pathlib import Path

    examples = Path(__file__).parent.parent / "examples"
    for script in ("smem_walkthrough.py", "quickstart.py",
                   "full_alignment.py"):
        proc = subprocess.run([sys.executable, str(examples / script)],
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr[-2000:]


def test_frozen_replay_surface_exists():
    """``benchmarks/pipeline/layers.py`` replays the CLI through the
    library and is frozen with the benchmark: every ``repro`` name it
    imports must exist, and every call it makes to one -- directly, as
    the first argument of its ``_timed`` wrapper, or as a method of an
    imported class -- must bind the arguments it passes."""
    import ast
    import inspect
    from pathlib import Path

    path = (Path(__file__).parent.parent / "benchmarks" / "pipeline"
            / "layers.py")
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and \
                node.module.split(".")[0] == "repro":
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), \
                    f"{node.module}.{alias.name}"
                imported[alias.asname or alias.name] = getattr(
                    module, alias.name)
    methods: "dict[str, list]" = {}
    for value in imported.values():
        if inspect.isclass(value):
            for name, member in vars(value).items():
                if inspect.isfunction(member):
                    methods.setdefault(name, []).append(member)

    def binds(target, n_args, keywords, bound=False):
        try:
            inspect.signature(target).bind_partial(
                *[None] * (n_args + bound), **dict.fromkeys(keywords))
        except TypeError:
            return False
        return True

    checked = 0
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or any(
                isinstance(arg, ast.Starred) for arg in node.args) or any(
                kw.arg is None for kw in node.keywords):
            continue
        args, keywords = node.args, [kw.arg for kw in node.keywords]
        func = node.func
        if isinstance(func, ast.Name) and func.id == "_timed":
            func, args = args[0], args[1:]
        where = f"layers.py:{node.lineno}"
        if isinstance(func, ast.Name) and func.id in imported:
            assert binds(imported[func.id], len(args), keywords), where
            checked += 1
        elif isinstance(func, ast.Attribute) and func.attr in methods:
            assert any(binds(method, len(args), keywords, bound=True)
                       for method in methods[func.attr]), where
            checked += 1
    assert checked >= 20
