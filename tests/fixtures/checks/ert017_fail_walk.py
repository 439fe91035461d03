"""ERT017 failing fixture under the walk's scope: the loop of
``repro.core.walk`` is held to the batch-flush rule like the kernels,
with no ``# repro: hot`` annotation."""
# repro: module(repro.core.walk)

from repro import telemetry


def walk(cursor, seq, start, stop):
    pos = start
    while pos < stop:
        telemetry.count("seeding.nodes_visited")
        pos += 1
    return pos
