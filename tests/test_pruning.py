"""Pruning is output-invariant in all three rounds, on every engine.

Round 1's §III-F rule, round 2's reseed-LEP filter and round 3's LAST
skips (``repro.seeding.algorithm``) run only under
``SeedingParams.use_pruning``; ``use_pruning=False`` is the unpruned
oracle.  The property below checks the full three-round output of the
brute-force, FMD, per-character oracle ERT (``tests/cursor.py``) and ERT
engines (with and without prefix merging), per read and per batch,
pruned and unpruned, on references built to break the proofs'
assumptions: homopolymer runs, tandem repeats of period 2..24 and exact
high-copy repeats.  The ERT engine also runs on the same index saved and
mapped back, so the stored columns face it too.
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ErtConfig,
    ErtSeedingEngine,
    build_ert,
    load_ert,
    save_ert,
)
from repro.core.arena import FANOUT, KIND_LEAF, KIND_UNIFORM, arena_cursor
from repro.fmindex import FmdIndex, FmdSeedingEngine
from repro.kernels import seed_batch
from repro.core.walk import walk
from repro.seeding import OracleEngine, SeedingParams, oracle_smems, seed_read
from repro.seeding.algorithm import generate_smems
from repro.sequence import GenomeSimulator, Reference
from repro.sequence.alphabet import revcomp_codes
from tests.cursor import CursorSeedingEngine

MAX_SEED_LEN = 64


def _random(rng, n):
    return rng.integers(0, 4, size=n).astype(np.uint8)


def _reference(kind, rng):
    """A 160-320 bp adversarial genome (codes)."""
    parts = []
    if kind == "homopolymer":
        for _ in range(int(rng.integers(3, 6))):
            parts.append(_random(rng, int(rng.integers(8, 40))))
            parts.append(np.full(int(rng.integers(10, 40)),
                                 int(rng.integers(0, 4)), np.uint8))
    elif kind == "tandem":
        period = int(rng.integers(2, 25))
        motif = _random(rng, period)
        parts.append(_random(rng, int(rng.integers(10, 40))))
        parts.append(np.tile(motif, 160 // period + 1)[:160])
        parts.append(_random(rng, int(rng.integers(10, 40))))
    elif kind == "high-copy":  # exact copies: mutation 0
        block = _random(rng, int(rng.integers(12, 30)))
        for _ in range(int(rng.integers(5, 9))):
            parts.append(block)
            parts.append(_random(rng, int(rng.integers(0, 12))))
    else:
        parts.append(_random(rng, int(rng.integers(160, 320))))
    return np.concatenate(parts)


def _reads(genome, rng, min_seed_len):
    """One read of each adversarial kind."""
    n = genome.size

    def window(length):
        start = int(rng.integers(0, n - length + 1))
        return genome[start:start + length].copy()

    length = int(rng.integers(min_seed_len, min(MAX_SEED_LEN, n) + 1))
    noisy = window(length)
    hit = rng.random(length) < 0.15
    noisy[hit] = (noisy[hit] + rng.integers(1, 4, int(hit.sum()))) % 4
    return [
        window(length),                  # perfect
        noisy,                           # substitution-heavy
        revcomp_codes(window(length)),   # reverse strand
        np.full(length, int(rng.integers(0, 4)), np.uint8),  # one base
        window(min_seed_len),            # exactly min_seed_len long
    ]


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["homopolymer", "tandem", "high-copy",
                             "random"]),
       k=st.integers(4, 6), extra=st.integers(0, 6),
       max_mem_intv=st.sampled_from([1, 2, 20]),
       seed=st.integers(0, 2 ** 31 - 1))
def test_pruning_is_output_invariant_on_every_engine(kind, k, extra,
                                                     max_mem_intv, seed):
    rng = np.random.default_rng(seed)
    genome = _reference(kind, rng)
    ref = Reference.from_string("".join("ACGT"[c] for c in genome))
    min_seed_len = k + extra  # extra == 0 is min_seed_len == k
    reads = _reads(genome, rng, min_seed_len)
    config = dict(k=k, max_seed_len=MAX_SEED_LEN, table_threshold=8,
                  table_x=2)
    plain = build_ert(ref, ErtConfig(**config))
    with tempfile.TemporaryDirectory() as scratch:
        save_ert(plain, os.path.join(scratch, "index"))
        loaded = load_ert(os.path.join(scratch, "index"))
    merged = build_ert(ref, ErtConfig(prefix_merging=True, **config))
    engines = {
        "oracle": OracleEngine(ref),
        "fmd": FmdSeedingEngine(FmdIndex(ref)),
        "cursor": CursorSeedingEngine(plain),
        "cursor-pm": CursorSeedingEngine(merged),
        "ert": ErtSeedingEngine(plain),
        "ert-pm": ErtSeedingEngine(merged),
        "ert-loaded": ErtSeedingEngine(loaded),
    }
    want = None
    for use_pruning in (False, True):
        params = SeedingParams(min_seed_len=min_seed_len,
                               max_mem_intv=max_mem_intv,
                               use_pruning=use_pruning)
        runs = {name: [seed_read(engine, read, params).key()
                       for read in reads]
                for name, engine in engines.items()}
        for name, index in (("batch", plain), ("batch-pm", merged),
                            ("batch-loaded", loaded)):
            runs[name] = [result.key() for result in seed_batch(
                ErtSeedingEngine(index), reads, params)]
        if want is None:
            want = runs["oracle"]
        for name, keys in runs.items():
            assert keys == want, (name, use_pruning)
    # LAST's E(x) comes from round 1's SMEM list: it must be the full
    # brute-force SMEM set, short SMEMs included, on every engine.
    for read in reads:
        smems = oracle_smems(ref, read)
        for engine in engines.values():
            assert generate_smems(engine, read, params) == smems


def _settled(cursor):
    """The node an oracle cursor's next character is decided at."""
    nid = cursor.pending if cursor.pending >= 0 else cursor.node
    arena = arena_cursor(cursor.index)
    if nid == cursor.node and arena.kind[nid] == KIND_UNIFORM \
            and cursor.within == arena.chars_len[nid]:
        nid += 1
    return nid


def test_walks_agree_at_one_and_four_way_branches(tmp_path):
    """Pinned: on the benchmark genome (10 kbp, k = 6) one DIVERGE node
    has a single child (and an ended hit) and 550 have all four.  From
    the root through each, every next character, the batched ``walk``
    and the oracle ``TreeCursor`` over the mapped index agree on where
    the match ends, the node and count it ends with and its LEPs."""
    reference = GenomeSimulator(seed=2021).generate(10_000)
    save_ert(build_ert(reference, ErtConfig(k=6)), tmp_path / "index")
    index = load_ert(tmp_path / "index")
    flat, text, k = index.flat, index.text, index.config.k
    fanout = np.asarray(FANOUT)[flat.kind]
    branching = (flat.kind > KIND_LEAF) & ((fanout == 1) | (fanout == 4))
    assert np.bincount(fanout[branching]).tolist() == [0, 1, 0, 0, 550]
    # Each node's depth below its k-mer (the walk to it is checked).
    depth = [0] * flat.kind.size
    for nid, byte in enumerate(flat.kind.tolist()):
        if byte == KIND_UNIFORM:  # its run, then its child
            depth[nid + 1] = depth[nid] + int(flat.chars_len[nid])
        elif byte > KIND_LEAF:
            first = int(flat.off[nid])
            for child in [nid + 1] + flat.kids[
                    first:first + FANOUT[byte] - 1].tolist():
                depth[child] = depth[nid] + 1
    scalar = CursorSeedingEngine(index)
    arena = arena_cursor(index)
    checked = 0
    for nid in np.flatnonzero(branching).tolist():
        start = int(flat.pool[flat.pos_off[nid]])
        path = text[start:start + k + depth[nid]]
        code = index.kmer_code(path[:k])
        assert walk(arena, path.tobytes(), [code], 0, path.size)[:2] \
            == (path.size, nid)
        for c in range(4):
            tail = text[start + k + depth[nid] + 1:][:8]
            read = np.concatenate((path, [c], tail)).astype(np.uint8)
            leps = []
            end, node, count, _steps = walk(
                arena, read.tobytes(), [code], 0, read.size, 1, leps)
            want_end, want_leps, cursor = scalar._walk(
                read, 0, 1, collect_leps=True, use_table=False)
            assert (end, leps) == (want_end, want_leps), (nid, c)
            assert (node, count) == (_settled(cursor), cursor.count)
            checked += 1
    assert checked == 4 * 551


def test_last_ends_the_round_only_at_the_read_end():
    """A failed launch whose match dies one base short of the read end
    does not end the round: ``A+W`` occurs twice, ``A+W+T`` never, and
    ``W+T`` once, so LAST from 0 fails and LAST from 1 emits."""
    rng = np.random.default_rng(3)

    def spacer():
        return "".join("ACGT"[c] for c in rng.integers(0, 4, 25))
    w = "CTGACCATGG"
    ref = Reference.from_string(spacer() + "A" + w + "C" + spacer() + "A"
                                + w + "G" + spacer() + "T" + w + "T"
                                + spacer())
    read = Reference.from_string("A" + w + "T").codes
    engines = [OracleEngine(ref), FmdSeedingEngine(FmdIndex(ref)),
               ErtSeedingEngine(build_ert(ref, ErtConfig(
                   k=4, max_seed_len=MAX_SEED_LEN)))]
    for engine in engines:
        for use_pruning in (False, True):
            result = seed_read(engine, read, SeedingParams(
                min_seed_len=10, max_mem_intv=2, reseed=False,
                use_pruning=use_pruning))
            assert [(s.read_start, s.read_end, s.hit_count)
                    for s in result.last_seeds] == [(1, 12, 1)]


@pytest.mark.parametrize("name", ["fmd", "ert", "ert_pm"])
def test_pruned_work_accounts_for_every_unpruned_search(
        request, monkeypatch, read_codes, name):
    """Exact accounting: the LAST launches pruning makes plus those it
    skips are the unpruned launches, position for position; the reseed
    backward searches it makes, breaks off (§III-F) and skips are the
    unpruned reseed searches."""
    engine = request.getfixturevalue(name)
    # The fixtures are session-scoped: patch the engine, don't mutate it.
    calls = []
    real_last_seed = engine.last_seed

    def last_seed(read, start, *args):
        calls.append(start)
        return real_last_seed(read, start, *args)
    monkeypatch.setattr(engine, "last_seed", last_seed)

    def run(params):
        """Engine stats and the (read, position) of every LAST launch."""
        engine.reset_stats()
        launches = set()
        for i, read in enumerate(read_codes):
            calls.clear()
            seed_read(engine, read, params)
            launches.update((i, x) for x in calls)
        return engine.stats.as_dict(), launches

    # A reseed LEP is searched, resolved from its merged pair (§III-B),
    # cut off by §III-F or skipped by the reseed filter.
    lep_fates = ("backward_searches", "merged_backward_searches",
                 "pruned_backward_searches", "pruned_reseed_searches")
    runs = {}
    for use_pruning in (False, True):
        round1, round1_launches = run(SeedingParams(
            min_seed_len=12, reseed=False, use_pruning=use_pruning))
        full, launches = run(SeedingParams(min_seed_len=12,
                                           use_pruning=use_pruning))
        assert launches == round1_launches  # reseeding never moves LAST
        reseed = {fate: full[fate] - round1[fate] for fate in lep_fates}
        runs[use_pruning] = full, launches, reseed
    stats, made, reseed = runs[True]
    unpruned, every, unpruned_reseed = runs[False]
    assert made <= every
    assert len(made) + stats["pruned_last_launches"] == len(every)
    assert stats["pruned_last_launches"] > 0
    assert stats["pruned_reseed_searches"] > 0
    assert unpruned["pruned_last_launches"] == 0
    assert unpruned["pruned_reseed_searches"] == 0
    assert unpruned_reseed["pruned_backward_searches"] == 0
    assert sum(reseed.values()) == sum(unpruned_reseed.values())
