#include "vm/vm_stats.hh"

#include <mutex>

namespace stm
{

namespace
{

std::mutex &
vmStatsMutex()
{
    static std::mutex mu;
    return mu;
}

} // namespace

StatGroup &
vmStats()
{
    static StatGroup stats("vm");
    return stats;
}

void
resetVmStats()
{
    std::lock_guard<std::mutex> lock(vmStatsMutex());
    vmStats().reset();
}

void
recordVmRun(const VmRunSample &sample)
{
    std::lock_guard<std::mutex> lock(vmStatsMutex());
    StatGroup &stats = vmStats();
    ++stats.counter("runs");
    stats.counter("steps") += sample.steps;
    stats.counter("wall_micros") += sample.wallMicros;
    stats.counter("mem_accesses") += sample.memAccesses;
    stats.counter("cache_lookups") += sample.cacheLookups;
    stats.counter("fused_pairs") += sample.fusedPairs;
    stats.counter("irq_delivered") += sample.irqDelivered;
    stats.counter("irq_handler_steps") += sample.irqHandlerSteps;

    auto rate = [](std::uint64_t num, std::uint64_t den) {
        return den == 0 ? 0.0
                        : static_cast<double>(num) /
                              static_cast<double>(den);
    };
    std::uint64_t wall = stats.value("wall_micros");
    stats.gauge("steps_per_sec")
        .set(wall == 0 ? 0.0
                       : static_cast<double>(stats.value("steps")) *
                             1e6 / static_cast<double>(wall));
    stats.gauge("super_hit_rate")
        .set(rate(2 * stats.value("fused_pairs"),
                  stats.value("steps")));
}

} // namespace stm
