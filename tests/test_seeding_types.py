"""Unit tests for seeding value types."""

import copy
import pickle

import pytest

from repro.extend.pipeline import Placement
from repro.extend.traceback import LaneScore, TracedAlignment
from repro.seeding import ForwardSearch, Mem, Seed, SeedingResult
from repro.sequence.reference import Strand


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
# The per-search and per-lane values are NamedTuples: what callers rely
# on from them.
# ----------------------------------------------------------------------

VALUES = [
    Mem(start=2, end=9),
    Seed(read_start=4, length=10, hits=(7, 20), hit_count=2),
    ForwardSearch(start=3, end=11, leps=(5, 11)),
    LaneScore(score=12, query_end=30, target_end=41),
    TracedAlignment(score=12, query_start=4, query_end=30, target_start=15,
                    target_end=41, cigar=(("S", 4), ("M", 26))),
    Placement(score=12, strand=Strand.REVERSE, position=77,
              cigar="4S26M"),
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


def test_is_aligned_property_survives():
    assert LaneScore(1, 2, 3).is_aligned
    assert not TracedAlignment(0, 0, 0, 0, 0, (("S", 4),)).is_aligned
    assert ForwardSearch(3, 3, ()).is_empty
