/**
 * @file
 * Configuration of one simulated run: scheduler policy, hardware
 * geometry, step budget, and workload inputs.
 */

#ifndef STM_VM_OPTIONS_HH
#define STM_VM_OPTIONS_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cache/cache.hh"
#include "isa/types.hh"

namespace stm
{

/** Thread interleaving policy. */
struct SchedulerOptions
{
    /** Instructions a thread runs before a round-robin switch. */
    std::uint32_t quantum = 50;
    /**
     * Probability of preempting a thread right before it performs a
     * shared-memory access (globals/heap). This is how concurrency
     * bugs are made to manifest with controllable, seeded likelihood.
     */
    double preemptSharedProb = 0.0;
    /** PRNG seed; every run is deterministic given the seed. */
    std::uint64_t seed = 1;
};

/**
 * Asynchronous interrupt delivery. Delivery is seeded exactly like
 * preemption: when `prob > 0` and the program registers an interrupt
 * handler, the interpreter draws one extra Bernoulli sample from the
 * run's RNG stream before every user-mode (CPL3) instruction; on a hit
 * the handler runs to its `iret` in a side interpreter before the
 * interrupted instruction executes. With `prob == 0.0` (the default)
 * no draw is made, so runs are bit-identical to builds without the
 * interrupt machinery — this is the contract that keeps all existing
 * golden fingerprints pinned.
 */
struct InterruptOptions
{
    /** Per-user-instruction delivery probability (0 disables). */
    double prob = 0.0;
    /**
     * Step budget for a single handler activation; exceeding it ends
     * the run with Outcome::StepLimit (a deterministic "interrupt
     * storm / wedged handler" symptom).
     */
    std::uint32_t handlerStepBudget = 4096;
};

/** Full machine configuration for one run. */
struct MachineOptions
{
    SchedulerOptions sched;
    std::size_t lbrEntries = 16;
    std::size_t lcrEntries = 16;
    CacheGeometry cache;
    /** Hang detection budget (total retired instructions). */
    std::uint64_t maxSteps = 2000000;
    /** Arguments placed in r1..rN of main. */
    std::vector<Word> mainArgs;
    /** Per-run overrides of global initial values (workload input). */
    std::vector<std::pair<std::string, std::vector<Word>>>
        globalOverrides;

    /** Asynchronous interrupt delivery (off by default). */
    InterruptOptions irq;

    /**
     * Fuse profile-selected superinstructions at predecode time.
     * Result-invariant by construction (the fused handlers replay the
     * per-step protocol between their halves), so deliberately NOT
     * part of fingerprintMachineOptions(): a run cached with fusion
     * may be served to an unfused campaign and vice versa. The
     * unfused stream is the reference the fusion tests compare
     * against.
     */
    bool enableSuperinstructions = true;
};

} // namespace stm

#endif // STM_VM_OPTIONS_HH
