"""ERT017 failing fixture under the seeding driver's scope: the read
loop of ``seed_batch`` in ``repro.seeding.algorithm`` is held to the
batch-flush rule like the kernels, with no ``# repro: hot``
annotation."""
# repro: module(repro.seeding.algorithm)

from repro import telemetry


def seed_batch(engine, reads, params):
    results = []
    for read in reads:
        telemetry.count("seeding.reads")
        results.append(read)
    return results
