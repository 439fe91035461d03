"""The ``seed`` TSV one seed at a time: the test oracle.

These are :attr:`repro.seeding.types.SeedingResult.all_seeds` and the
scheduler's per-seed line formatter as they were written first: the
rounds' seeds visited in round order, the first seed of each
``(read_start, length)`` kept, the keys sorted, and one function call
per line.  The package's emission builds each read's seeds and lines
without a Python call per seed; it must write the same bytes
(``tests/test_seed_tsv.py``).
"""

from __future__ import annotations


def all_seeds(result):
    """All seeds of ``result``, deduplicated by (start, length) -- the
    earliest round's seed wins -- and sorted by that key."""
    seen = {}
    for seed in result.smems + result.reseed_seeds + result.last_seeds:
        seen.setdefault((seed.read_start, seed.length), seed)
    return [seen[key] for key in sorted(seen)]


def seed_line(name, seed):
    """One seed as the CLI's TSV line."""
    hits = ",".join(map(str, seed.hits))
    return (f"{name}\t{seed.read_start}\t{seed.length}"
            f"\t{seed.hit_count}\t{hits}\n")


def tsv_lines(names, results):
    """A batch's TSV lines: every read's seeds, in read order."""
    return [seed_line(name, seed)
            for name, result in zip(names, results)
            for seed in all_seeds(result)]
