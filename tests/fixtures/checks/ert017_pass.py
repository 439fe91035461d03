"""ERT017 passing fixture: the sweep counts into plain accumulators and
the driver flushes the registry once per batch, outside every loop."""
# repro: module(repro.kernels.fake)

from repro import telemetry


def sweep(lanes, stats):
    while lanes.any():
        stats.walk_steps += int(lanes.sum())
        stats.batches += 1
        lanes = lanes[lanes > 0] - 1
    return stats


def flush(stats):
    telemetry.add_counters({"kernels.walk_steps": stats.walk_steps,
                            "kernels.batches": stats.batches})
    telemetry.observe("kernels.wavefront_fill",
                      stats.fill_live / stats.fill_slots)
