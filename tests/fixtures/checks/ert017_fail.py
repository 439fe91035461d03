"""ERT017 failing fixture: per-element telemetry inside a kernel sweep
loop (no ``# repro: hot`` annotation needed -- the kernels module scope
alone puts every loop under the batch-flush rule)."""
# repro: module(repro.kernels.fake)

from repro import telemetry


def sweep(lanes, stats):
    while lanes.any():
        telemetry.count("kernels.walk_steps", int(lanes.sum()))
        lanes = lanes[lanes > 0] - 1
    for lane in lanes:
        telemetry.observe("kernels.wavefront_fill", float(lane))
