"""Failure injection: the verification harness must catch corruption.

The paper's bit-equivalence guarantee is only as good as the machinery
that checks it; these tests plant defects in an ERT and assert the
cross-engine comparison actually fires.  A defect planted in an index
*file* is caught earlier: the loader refuses a child encoding the walk
could not follow, and the CLI says so in one line.
"""

import numpy as np
import pytest

from repro.cli import main
from repro.core import ErtConfig, ErtSeedingEngine, build_ert, load_ert
from repro.core.arena import FANOUT, KIND_LEAF, KIND_UNIFORM
from repro.core.io import IndexFormatError
from repro.seeding import OracleEngine, SeedingParams, compare_engines
from repro.sequence import GenomeSimulator, ReadSimulator
from tests.frames import read_frame, rewrite


@pytest.fixture()
def setting():
    ref = GenomeSimulator(seed=151).generate(2500)
    reads = [r.codes for r in
             ReadSimulator(ref, read_length=60, seed=152).simulate(12)]
    params = SeedingParams(min_seed_len=10)
    oracle = OracleEngine(ref)
    return ref, reads, params, oracle


def _fresh_engine(ref):
    return ErtSeedingEngine(build_ert(ref, ErtConfig(k=5, max_seed_len=90)))


def test_clean_index_is_equivalent(setting):
    ref, reads, params, oracle = setting
    report = compare_engines(oracle, _fresh_engine(ref), reads, params)
    assert report.equivalent


def test_spurious_lep_bits_are_harmless(setting):
    """Setting *extra* LEP bits only adds backward searches whose MEMs
    the containment filter discards: output must stay identical.  (This
    is exactly why the LEP optimization is safe to precompute.)"""
    ref, reads, params, oracle = setting
    engine = _fresh_engine(ref)
    engine.index.lep_bits[:] = (1 << (engine.index.config.k - 1)) - 1
    report = compare_engines(oracle, engine, reads, params)
    assert report.equivalent


def test_corrupted_kmer_counts_detected(setting):
    """Wrong occurrence counts change LAST-round selectivity decisions
    and reported hit counts."""
    ref, reads, params, oracle = setting
    engine = _fresh_engine(ref)
    counts = engine.index.kmer_count
    counts[counts > 0] = 1
    report = compare_engines(oracle, engine, reads, params)
    assert not report.equivalent


def test_corrupted_prefix_len_detected(setting):
    """Truncated prefix lengths end forward searches too early."""
    ref, reads, params, oracle = setting
    engine = _fresh_engine(ref)
    engine.index.prefix_len[:] = np.minimum(engine.index.prefix_len, 2)
    report = compare_engines(oracle, engine, reads, params)
    assert not report.equivalent


def test_corrupted_leaf_position_detected(setting):
    """A leaf pointing at the wrong reference location yields wrong hits
    (and wrong ref-fetch comparisons)."""
    ref, reads, params, oracle = setting
    engine = _fresh_engine(ref)
    flat = engine.index.flat
    leaves = np.flatnonzero((flat.kind == KIND_LEAF)
                            & (flat.off > 100))[:200]
    assert leaves.size > 0
    for nid in leaves:
        flat.off[nid] -= 1
        off = flat.pos_off[nid]
        flat.pool[off:off + flat.count[nid]] -= 1
    report = compare_engines(oracle, engine, reads, params)
    assert not report.equivalent


def test_corrupted_uniform_chars_detected(setting):
    """Mutated UNIFORM strings change match lengths."""
    ref, reads, params, oracle = setting
    engine = _fresh_engine(ref)
    flat = engine.index.flat
    runs = np.flatnonzero((flat.kind == KIND_UNIFORM)
                          & (flat.chars_len >= 2))[:200]
    assert runs.size > 0
    for nid in runs:
        run = slice(flat.off[nid], flat.off[nid] + flat.chars_len[nid])
        flat.chars_pool[run] = (flat.chars_pool[run] + 1) % 4
    report = compare_engines(oracle, engine, reads, params)
    assert not report.equivalent


# ----------------------------------------------------------------------
# Hostile version-4 index files
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def index_file(tmp_path_factory):
    root = tmp_path_factory.mktemp("hostile")
    ref, reads, index = root / "ref.fa", root / "reads.fq", root / "index"
    assert main(["simulate-genome", "--length", "2500", "--seed", "151",
                 "--out", str(ref)]) == 0
    assert main(["simulate-reads", "--reference", str(ref), "--count", "8",
                 "--read-length", "60", "--seed", "152",
                 "--out", str(reads)]) == 0
    assert main(["build-index", "--reference", str(ref), "--k", "5",
                 "--max-seed-len", "90", "--out", str(index)]) == 0
    return reads, index


def _branching(members, fanout):
    """The first DIVERGE node with ``fanout`` children, and its kind."""
    kind = members["arena_kind"]
    nid = next(nid for nid, byte in enumerate(kind.tolist())
               if byte > KIND_LEAF and FANOUT[byte] == fanout)
    return nid, int(kind[nid])


def _members(change):
    """The damage that rewrites the members ``change(members)`` gives."""
    def damage(path):
        rewrite(path, **change(read_frame(path)[1]))
    return damage


def _set(name, value, fanout=2):
    """Member ``name`` of the first DIVERGE node with ``fanout`` children
    set to ``value(its kind byte, the members)``."""
    def change(members):
        nid, byte = _branching(members, fanout)
        column = members[name].copy()
        column[nid] = value(byte, members)
        return {name: column}
    return _members(change)


def _last_node_uniform(members):
    kind = members["arena_kind"].copy()
    kind[-1] = KIND_UNIFORM
    return {"arena_kind": kind}


#: name -> (damage done to a clean index file, what the error says)
HOSTILE = {
    "v3-header": (lambda path: rewrite(path, meta={"format_version": 3}),
                  "version 3.*rebuild the index with build-index"),
    "v3-magic": (lambda path: path.write_bytes(
        b"ERTBUF03" + path.read_bytes()[8:]),
        "ERTBUF03.*rebuild the index with build-index"),
    "kids-short": (_members(lambda m: {"arena_kids": m["arena_kids"][:-1]}),
                   "arena_kids.*corrupt"),
    "kids-long": (_members(lambda m: {"arena_kids": np.append(
        m["arena_kids"], np.int32(0))}), "arena_kids.*corrupt"),
    "kids-past-the-pool": (_set("arena_off", lambda byte, m:
                                m["arena_kids"].size - 1, fanout=3),
                           "arena_off.*corrupt"),
    "kids-before-the-pool": (_set("arena_off", lambda byte, m: -1),
                             "arena_off.*corrupt"),
    "kind-3": (_set("arena_kind", lambda byte, m: 3), "arena_kind.*corrupt"),
    "kind-empty-bitmap": (_set("arena_kind", lambda byte, m: 0),
                          "arena_kind.*corrupt"),
    "kind-high-bit": (_set("arena_kind", lambda byte, m: byte | 0x40),
                      "arena_kind.*corrupt"),
    "kind-uniform-bitmap": (_set("arena_kind",
                                 lambda byte, m: byte | KIND_UNIFORM),
                            "arena_kind.*corrupt"),
    "kind-last-uniform": (_members(_last_node_uniform),
                          "last arena node.*corrupt"),
}


def _damaged(index, name, path):
    path.write_bytes(index.read_bytes())
    HOSTILE[name][0](path)
    return path


@pytest.mark.parametrize("name", list(HOSTILE))
def test_hostile_index_files_are_refused_at_load(index_file, tmp_path,
                                                 name):
    """A version-3 frame, a kids pool of the wrong length, a DIVERGE
    node whose children run off the pool, and a kind byte outside the
    version-4 encoding each end in :class:`IndexFormatError` when the
    file is opened, not in a wrong or crashing walk."""
    _reads, index = index_file
    load_ert(index)  # the clean file opens
    with pytest.raises(IndexFormatError, match=HOSTILE[name][1]):
        load_ert(_damaged(index, name, tmp_path / "bad"))


@pytest.mark.parametrize("command", ["seed", "align", "align-pe"])
def test_hostile_index_files_are_one_line_and_exit_2(index_file, tmp_path,
                                                     capsys, command):
    reads, index = index_file
    out = tmp_path / "out"
    for name in HOSTILE:
        bad = _damaged(index, name, tmp_path / f"{name}.idx")
        assert main([command, "--index", str(bad), "--reads", str(reads),
                     "--out", str(out)]) == 2, name
        captured = capsys.readouterr()
        assert captured.out == "", name
        assert captured.err.count("\n") == 1, name
        assert captured.err.startswith(f"ert-repro {command}: {bad}: "), name
        assert "Traceback" not in captured.err, name
        assert not out.exists(), name
