"""§III-F and §III-B ablations: pruned backward searches and prefix
merging's traversal savings (the paper reports ~50 % fewer backward
searches from 1-character leaf prefixes), and the seeding work pruning
saves in each round: index lookups per read for round 1, reseeding and
LAST, with the reseed LEPs and LAST launches the extended rules skip."""

from repro.analysis import format_table
from repro.core import ErtSeedingEngine
from repro.seeding import SeedingParams, seed_read

from conftest import record_result


def _run(index, reads, min_seed_len, use_pruning, **rounds):
    engine = ErtSeedingEngine(index)
    params = SeedingParams(min_seed_len=min_seed_len,
                           use_pruning=use_pruning, **rounds)
    for read in reads:
        seed_read(engine, read, params)
    return engine.stats


def _by_round(index, reads, min_seed_len, use_pruning):
    """The full run's stats and its index lookups per read by round.
    Rounds 2 and 3 each depend only on round 1, so a round's lookups are
    what switching it on adds."""
    lookups = [_run(index, reads, min_seed_len, use_pruning, reseed=False,
                    use_last=False).index_lookups,
               _run(index, reads, min_seed_len, use_pruning,
                    use_last=False).index_lookups]
    full = _run(index, reads, min_seed_len, use_pruning)
    lookups.append(full.index_lookups)
    n = len(reads)
    return full, [lookups[0] / n, (lookups[1] - lookups[0]) / n,
                  (lookups[2] - lookups[1]) / n, lookups[2] / n]


def test_ablation_pruning_and_prefix_merging(benchmark, ert_index,
                                             ert_pm_index, reads, params):
    def run():
        return {
            "ERT, no pruning": _by_round(ert_index, reads,
                                         params.min_seed_len, False),
            "ERT, pruning": _by_round(ert_index, reads, params.min_seed_len,
                                      True),
            "ERT-PM, pruning": _by_round(ert_pm_index, reads,
                                         params.min_seed_len, True),
        }

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for name, (s, per_round) in stats.items():
        traversals = s.backward_searches - s.merged_backward_searches
        rows.append([name, s.forward_searches, s.backward_searches,
                     s.pruned_backward_searches,
                     s.merged_backward_searches, traversals,
                     s.pruned_reseed_searches, s.pruned_last_launches,
                     *per_round])
    table = format_table(
        ["config", "fwd searches", "bwd searches", "pruned", "merged",
         "bwd traversals", "pruned reseed LEPs", "pruned LAST launches",
         "lookups/read r1", "reseed", "LAST", "total"],
        rows,
        title="SIII-F / SIII-B ablation -- backward-search work and index "
              "lookups per read by round (paper: right-to-left pruning "
              "skips redundant searches; prefix merging halves backward "
              "traversals)")
    record_result("ablation_pruning_prefix_merging", table)

    no_prune, no_prune_lookups = stats["ERT, no pruning"]
    prune, prune_lookups = stats["ERT, pruning"]
    pm, _ = stats["ERT-PM, pruning"]
    assert prune.backward_searches < no_prune.backward_searches
    assert prune.pruned_backward_searches > 0
    assert pm.merged_backward_searches > 0
    # Merged pairs save full traversals.
    pm_traversals = pm.backward_searches - pm.merged_backward_searches
    assert pm_traversals < prune.backward_searches
    # Rounds 2 and 3 prune too, and only pruning does.
    assert prune.pruned_reseed_searches > 0
    assert prune.pruned_last_launches > 0
    assert no_prune.pruned_reseed_searches == 0
    assert no_prune.pruned_last_launches == 0
    for r in (1, 2):
        assert prune_lookups[r] < no_prune_lookups[r]
