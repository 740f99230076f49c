/**
 * @file
 * Process-wide interpreter throughput statistics, in the same style as
 * exec/run_pool's execStats(): a global StatGroup that every Machine
 * run folds its hot-path counters into once, at the end of run().
 *
 * Counters (cumulative across runs):
 *  - runs, steps, wall_micros
 *  - mem_accesses (paged-image loads and stores)
 *  - cache_lookups (L1 tag lookups across every core)
 *  - fused_pairs (superinstructions retired; each covers two steps)
 *
 * Gauges (recomputed on every fold):
 *  - steps_per_sec: cumulative steps / cumulative wall time
 *  - super_hit_rate: 2 * fused_pairs / steps (share of retired
 *    instructions executed inside a superinstruction)
 */

#ifndef STM_VM_VM_STATS_HH
#define STM_VM_VM_STATS_HH

#include <cstdint>

#include "support/stats.hh"

namespace stm
{

/** The cumulative interpreter stat group ("vm"). */
StatGroup &vmStats();

/** Reset the cumulative interpreter statistics (bench sections). */
void resetVmStats();

/** One finished run's hot-path totals, folded into vmStats(). */
struct VmRunSample
{
    std::uint64_t steps = 0;
    std::uint64_t wallMicros = 0;
    std::uint64_t memAccesses = 0;
    std::uint64_t cacheLookups = 0;
    std::uint64_t fusedPairs = 0;
    /**
     * Interrupt machinery totals: delivered interrupts and handler
     * instructions retired in the side interpreter (which never count
     * toward `steps`; see Machine::serviceInterrupt).
     */
    std::uint64_t irqDelivered = 0;
    std::uint64_t irqHandlerSteps = 0;
};

/** Thread-safe: called by Machine::run() on pool workers. */
void recordVmRun(const VmRunSample &sample);

} // namespace stm

#endif // STM_VM_VM_STATS_HH
