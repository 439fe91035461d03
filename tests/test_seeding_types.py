"""Unit tests for seeding value types, and the contract every value
type a run builds keeps: the per-search and per-lane NamedTuples, and
the records, configurations and counters that are NamedTuples and
slotted classes so that no run generates a class."""

import copy
import importlib
import pickle
import pkgutil

import numpy as np
import pytest

import repro
from repro.core.arena import ARENA_COLUMNS, FlatTrees
from repro.core.config import ErtConfig, LayoutPolicy
from repro.extend.pipeline import (
    Alignment,
    AlignmentOutcome,
    ExtensionWorkload,
    Placement,
)
from repro.extend.sam import SamRecord
from repro.extend.smith_waterman import ScoringScheme
from repro.extend.traceback import LaneScore, TracedAlignment
from repro.memsim.trace import Access, Region
from repro.parallel.batch import ReadBatch, pack_batch
from repro.parallel.faults import RetryPolicy
from repro.parallel.scheduler import ParallelConfig
from repro.seeding import EngineStats, ForwardSearch, Mem, Seed, SeedingResult
from repro.seeding.algorithm import SeedingParams
from repro.sequence.io import Read
from repro.sequence.reference import ForwardHit, Strand


def test_mem_validation():
    with pytest.raises(ValueError):
        Mem(5, 5)
    with pytest.raises(ValueError):
        Mem(-1, 3)
    with pytest.raises(ValueError):
        Mem(7, 3)


def test_mem_length_and_containment():
    outer = Mem(2, 10)
    inner = Mem(3, 9)
    assert outer.length == 8
    assert outer.contains(inner)
    assert outer.contains(outer)
    assert not inner.contains(outer)
    assert not Mem(0, 5).contains(Mem(3, 7))


def test_mem_ordering():
    assert sorted([Mem(3, 5), Mem(1, 9), Mem(1, 4)]) == [
        Mem(1, 4), Mem(1, 9), Mem(3, 5)]


def test_seed_properties():
    seed = Seed(read_start=4, length=10, hits=(7, 20), hit_count=2)
    assert seed.read_end == 14
    assert seed.interval == Mem(4, 14)


def test_result_all_seeds_dedup_and_sort():
    a = Seed(0, 10, (1,), 1)
    dup = Seed(0, 10, (1,), 1)
    b = Seed(5, 12, (2,), 1)
    result = SeedingResult(smems=[b, a], reseed_seeds=[dup], last_seeds=[])
    seeds = result.all_seeds
    assert [(s.read_start, s.length) for s in seeds] == [(0, 10), (5, 12)]


def test_result_key_is_canonical():
    a = Seed(0, 10, (1, 5), 2)
    b = Seed(5, 12, (2,), 1)
    r1 = SeedingResult(smems=[a, b])
    r2 = SeedingResult(smems=[b], last_seeds=[a])
    assert r1.key() == r2.key()


# ----------------------------------------------------------------------
# The per-search and per-lane values, and a run's records and
# configurations, are NamedTuples: what callers rely on from them.
# ----------------------------------------------------------------------

_WORKLOAD = ExtensionWorkload(sw_extensions=1, sw_rows_total=101,
                              edit_checks=2, edit_rows_total=202)
VALUES = [
    Mem(start=2, end=9),
    Seed(read_start=4, length=10, hits=(7, 20), hit_count=2),
    ForwardSearch(start=3, end=11, leps=(5, 11)),
    LaneScore(score=12, query_end=30, target_end=41),
    TracedAlignment(score=12, query_start=4, query_end=30, target_start=15,
                    target_end=41, cigar=(("S", 4), ("M", 26))),
    Placement(score=12, strand=Strand.REVERSE, position=77,
              cigar="4S26M"),
    ErtConfig(k=5, max_seed_len=60, layout=LayoutPolicy.DFS),
    Region(name="trees", base=2048, size=512),
    Access(addr=2048, size=64, phase="tree_traversal", region="trees"),
    ForwardHit(strand=Strand.REVERSE, start=10, length=20),
    SeedingParams(min_seed_len=12, max_hits_per_seed=None),
    ParallelConfig(workers=2, batch_size=8, kernels="scalar"),
    RetryPolicy(retries=1, batch_timeout=2.5),
    SamRecord(qname="r1", flag=16, rname="chr", pos=5, mapq=60,
              cigar="4S26M", seq="ACGTACGTAC", qual="IIIIIIIIII",
              tags=("AS:i:26",)),
    ScoringScheme(match=2, mismatch=-3, gap_open=-5, gap_extend=-2),
    Alignment(read_name="r1", strand=Strand.FORWARD, position=4, score=30),
    _WORKLOAD,
    AlignmentOutcome(alignment=Alignment("r1", Strand.REVERSE, 4, 30),
                     n_seeds=3, n_chains=2, workload=_WORKLOAD),
]
IDS = [type(value).__name__ for value in VALUES]


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_value_survives_pickle_and_copy(value):
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                 copy.deepcopy(value)):
        assert twin == value and type(twin) is type(value)


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_value_fields_are_read_only(value):
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], 1)


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_value_hash_equality_and_order_are_the_field_tuple(value):
    fields = tuple(getattr(value, name) for name in value._fields)
    assert hash(value) == hash(fields)
    assert value == fields and tuple(value) == fields
    assert not value < fields and not value > fields


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_value_keyword_construction(value):
    kwargs = {name: getattr(value, name) for name in value._fields}
    assert type(value)(**kwargs) == value


@pytest.mark.parametrize("make", [
    lambda: Mem(4, 4),
    lambda: Mem._make((5, 2)),
    lambda: Mem(1, 3)._replace(start=-1),
    # Mem(1, 3)'s pickle with its end (a BININT1 opcode) set to 0.
    lambda: pickle.loads(_pickled_mem(1, 3).replace(b"K\x01K\x03",
                                                    b"K\x01K\x00")),
], ids=["new", "make", "replace", "unpickle"])
def test_every_way_to_build_a_mem_checks_the_interval(make):
    with pytest.raises(ValueError):
        make()


def _pickled_mem(start, end):
    data = pickle.dumps(Mem(start, end), protocol=4)
    assert bytes([ord("K"), start, ord("K"), end]) in data
    return data


#: One refusal per check a checked configuration makes: its type, valid
#: keyword arguments, a field and a value the check refuses, and the
#: start of the message.
REFUSALS = [
    (ErtConfig, {}, "k", 1, "k must be in 2..14"),
    (ErtConfig, {}, "max_seed_len", 8, "max_seed_len must exceed k"),
    (ErtConfig, {"k": 4}, "max_seed_len", 260, "max_seed_len - k must fit"),
    (ErtConfig, {}, "table_x", 0, "table_x must be at least 1"),
    (ErtConfig, {}, "table_threshold", 1,
     "table_threshold must be at least 2"),
    (ParallelConfig, {}, "kernels", "simd", "unknown kernels selection"),
    (ScoringScheme, {}, "match", 0, "match score must be positive"),
    (ScoringScheme, {}, "gap_open", 1, "penalties must be negative"),
]


@pytest.mark.parametrize("way", ["new", "make", "replace", "unpickle"])
@pytest.mark.parametrize(
    "cls, valid, field, bad, message", REFUSALS,
    ids=[f"{cls.__name__}-{field}" for cls, _, field, _, _ in REFUSALS])
def test_every_way_to_build_a_checked_config_checks_it(
        cls, valid, field, bad, message, way):
    good = cls(**valid)
    args = tuple(bad if name == field else value
                 for name, value in zip(cls._fields, good))
    make = {"new": lambda: cls(*args),
            "make": lambda: cls._make(args),
            "replace": lambda: good._replace(**{field: bad}),
            "unpickle": lambda: pickle.loads(_forged_pickle(cls, args))}
    with pytest.raises(ValueError, match=message):
        make[way]()


@pytest.mark.parametrize("cls", sorted({cls for cls, *_ in REFUSALS},
                                       key=lambda cls: cls.__name__))
def test_a_forged_pickle_is_what_pickle_writes(cls):
    value = cls()
    assert _forged_pickle(cls, tuple(value)) == pickle.dumps(value,
                                                             protocol=2)


def test_every_checked_value_type_has_its_refusals_tested():
    """The seeding driver and engine build value types with
    ``tuple.__new__`` where the line before has just established what
    the checks check; every other caller goes through the checking
    ``__new__``.  Every NamedTuple under ``repro`` with a ``__new__`` of
    its own is one of the types whose refusals are tested above -- or
    ``SeedingResult``, whose ``__new__`` only fills in empty rounds --
    so a new checked type comes with its refusals."""
    own_new = set()
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if (isinstance(obj, type) and obj.__module__ == info.name
                    and issubclass(obj, tuple) and "__new__" in vars(obj)
                    and vars(obj)["__new__"].__func__.__code__.co_filename
                    != "<string>"):  # a generated NamedTuple ``__new__``
                own_new.add(obj)
    refused = {Mem} | {cls for cls, *_ in REFUSALS}
    assert own_new == refused | {SeedingResult}


def _forged_pickle(cls, args):
    """The protocol-2 pickle of ``cls`` built from ``args``, valid or
    not: the pickle of its unchecked NamedTuple base built from them,
    with the class name swapped."""
    base = cls.__bases__[0]
    data = pickle.dumps(base._make(args), protocol=2)
    forged = data.replace(f"\n{base.__qualname__}\n".encode(),
                          f"\n{cls.__qualname__}\n".encode())
    assert forged != data
    return forged


# ----------------------------------------------------------------------
# Read-only records that hold arrays or lists: no hash, and equality is
# field by field.
# ----------------------------------------------------------------------

RECORDS = [
    Read(name="r1", codes=np.array([0, 1, 2, 3], dtype=np.uint8),
         quality="IIII", origin=7, strand=Strand.FORWARD),
    pack_batch([np.array([0, 1, 2], dtype=np.uint8),
                np.array([3, 3], dtype=np.uint8)]),
    SeedingResult(smems=[Seed(0, 10, (1,), 1)], reseed_seeds=[],
                  last_seeds=[Seed(5, 12, (2, 9), 2)]),
    FlatTrees(k=2, table_x=1, **{name: np.arange(3, dtype=np.int32)
                                 for name in ARENA_COLUMNS}),
]
RECORD_IDS = [type(record).__name__ for record in RECORDS]


def _assert_same_record(twin, record):
    assert type(twin) is type(record) and twin._fields == record._fields
    for mine, theirs in zip(twin, record):
        if isinstance(theirs, np.ndarray):
            assert np.array_equal(mine, theirs) and mine.dtype == theirs.dtype
        else:
            assert mine == theirs


@pytest.mark.parametrize("record", RECORDS, ids=RECORD_IDS)
def test_record_survives_pickle_and_copy(record):
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                 copy.deepcopy(record)):
        _assert_same_record(twin, record)


@pytest.mark.parametrize("record", RECORDS, ids=RECORD_IDS)
def test_record_fields_are_read_only(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], 1)


@pytest.mark.parametrize("record", RECORDS, ids=RECORD_IDS)
def test_record_keyword_construction_and_replace(record):
    kwargs = {name: getattr(record, name) for name in record._fields}
    _assert_same_record(type(record)(**kwargs), record)
    _assert_same_record(record._replace(), record)


def test_read_and_batch_lengths_count_bases_and_reads():
    read, batch = RECORDS[0], RECORDS[1]
    assert isinstance(batch, ReadBatch)
    assert len(read) == 4 and len(read._replace(name="r2")) == 4
    assert len(batch) == 2 and [r.tolist() for r in batch.reads()] == [
        [0, 1, 2], [3, 3]]


def test_seeding_result_rounds_default_to_new_lists():
    first, second = SeedingResult(), SeedingResult()
    assert first == ([], [], []) and first.smems is not second.smems


def test_engine_stats_survive_pickle():
    stats = EngineStats(3, nodes_visited=5, truncated_hit_lists=1)
    twin = pickle.loads(pickle.dumps(stats))
    assert type(twin) is EngineStats
    assert twin.as_dict() == stats.as_dict()
    assert twin.as_dict()["forward_searches"] == 3


def test_is_aligned_property_survives():
    assert LaneScore(1, 2, 3).is_aligned
    assert not TracedAlignment(0, 0, 0, 0, 0, (("S", 4),)).is_aligned
    assert ForwardSearch(3, 3, ()).is_empty
