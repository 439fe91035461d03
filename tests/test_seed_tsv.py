"""The ``seed`` TSV, byte for byte against the per-seed oracle
(``tests/seed_tsv_oracle.py``): on generated seeding results, and on
what the batch runner writes for real reads."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import ErtSeedingEngine
from repro.parallel.batch import pack_batch
from repro.parallel.scheduler import _BatchRunner, _tsv_lines
from repro.seeding.algorithm import SeedingParams, seed_batch
from repro.seeding.types import Seed, SeedingResult
from tests import seed_tsv_oracle

#: A locate limit: a seed whose count is above it keeps no hit.
MAX_HITS = 5


@st.composite
def seeds(draw, keys):
    """A round's seeds over a few shared ``(start, length)`` keys, so
    rounds repeat each other's keys with other hits and counts: hit
    lists are sorted, and a count above :data:`MAX_HITS` has none."""
    out = []
    for start, length in draw(st.lists(st.sampled_from(keys), max_size=6)):
        count = draw(st.integers(1, MAX_HITS + 3))
        hits = () if count > MAX_HITS else tuple(sorted(draw(st.lists(
            st.integers(0, 20_000), min_size=count, max_size=count))))
        out.append(Seed(start, length, hits, count))
    return out


@st.composite
def results(draw):
    """One read's result: three rounds over a small key set whose
    starts and lengths order differently (an empty result when none is
    drawn, as for a read shorter than k)."""
    keys = draw(st.lists(st.tuples(st.integers(0, 12), st.integers(1, 12)),
                         min_size=1, max_size=5, unique=True))
    return SeedingResult(draw(seeds(keys)), draw(seeds(keys)),
                         draw(seeds(keys)))


@settings(max_examples=300, deadline=None)
@given(st.lists(results(), max_size=6))
@example([SeedingResult()])
@example([SeedingResult(smems=[Seed(3, 5, (), 9)],
                        last_seeds=[Seed(3, 5, (7,), 1)])])
@example([SeedingResult(smems=[Seed(0, 9, (1,), 1)],
                        last_seeds=[Seed(1, 2, (4,), 1)])])
def test_tsv_lines_equal_the_oracle(batch):
    names = [f"r{i}" for i in range(len(batch))]
    assert _tsv_lines(names, batch) == seed_tsv_oracle.tsv_lines(names,
                                                                 batch)
    for result in batch:
        assert result.all_seeds == seed_tsv_oracle.all_seeds(result)


def test_runner_writes_the_oracle_lines(ert_index, read_codes):
    """Real reads through the ``seed`` runner, a low ``max_hits`` so
    hit lists are truncated, and reads shorter than k among them."""
    k = ert_index.config.k
    reads = list(read_codes)
    reads[3] = reads[3][:k - 1]
    reads[17] = reads[17][:2]
    params = SeedingParams(min_seed_len=k + 2, max_hits_per_seed=2)
    runner = _BatchRunner(ErtSeedingEngine(ert_index), "seed",
                          {"params": params, "kernels": "vector"})
    batch = pack_batch(reads)._replace(
        names=tuple(f"read{i}" for i in range(len(reads))))
    lines = runner(batch)
    seeded = seed_batch(runner.engine, batch.reads(), params)
    assert lines == seed_tsv_oracle.tsv_lines(batch.names, seeded)
    assert any(line.endswith("\t\n") for line in lines)
    assert not seeded[3].all_seeds and not seeded[17].all_seeds
    # Rounds repeat each other's seeds, which the lines write once.
    assert sum(len(r.smems) + len(r.reseed_seeds) + len(r.last_seeds)
               for r in seeded) > len(lines)
