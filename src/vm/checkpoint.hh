/**
 * @file
 * MachineCheckpoint: the complete deterministic state of a Machine at
 * a step boundary, capturable in O(state touched) and resumable into
 * a fresh Machine with bit-identical continuation.
 *
 * The checkpoint carries everything the per-step protocol reads:
 *
 *  - every Thread (registers, pc, CPL, scheduler state, call stack,
 *    CBI/CCI countdowns) plus the scheduler's (current, quantumLeft)
 *    pair,
 *  - the scheduler/sampling RNG stream position (Pcg32 is two words),
 *  - the monitoring hardware: per-core LBR rings and performance
 *    counters (including the PEBS-style jitter state, so a resumed
 *    run samples the exact events the original would), the LCR
 *    domain, and the BTS,
 *  - the cache hierarchy: every L1 line's tag/MESI/LRU stamp, the
 *    LRU ticks, and the bus/cache event counters,
 *  - the memory image as a copy-on-write MemorySnapshot — fork cost
 *    is O(pages touched since the last fork), and untouched pages
 *    are shared, never copied (vm/memory_image.hh),
 *  - the mutex table, heap brk, stack span, and every running total
 *    folded into the RunResult at run end (steps, kernel steps,
 *    delivered IRQs, the partial RunResult itself).
 *
 * What it deliberately does NOT carry: the program, the options, the
 * instrumentation plan, and the predecoded stream. Those are the
 * run's *identity*, re-supplied at resume; a checkpoint is only valid
 * for the (program fingerprint, options fingerprint, seed) triple it
 * was captured under — the SnapshotStore (src/exec) keys on exactly
 * that. Resuming under a *different* instrumentation plan is sound
 * precisely when the plan swap does not change the trajectory prefix
 * (see DESIGN.md §16's instrumentation-invariance argument); the diag
 * layer only does this for plans whose hook firings on the prefix
 * are identical.
 *
 * Handler bindings (PerfCounter overflow handlers / PBI samplers
 * capture the owning Machine) are not state and never cross a
 * checkpoint: the resuming Machine rebinds its own.
 */

#ifndef STM_VM_CHECKPOINT_HH
#define STM_VM_CHECKPOINT_HH

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cache/bus.hh"
#include "hw/bts.hh"
#include "hw/lcr.hh"
#include "hw/pmu.hh"
#include "support/random.hh"
#include "vm/memory_image.hh"
#include "vm/run_result.hh"
#include "vm/thread.hh"

namespace stm
{

/** One simulated futex word's state (the Machine's mutex table). */
struct MachineMutex
{
    bool locked = false;
    ThreadId owner = 0;
};

/** One core's PMU state: the LBR ring plus the four counters. */
struct PmuSnapshot
{
    LastBranchRecord lbr{0};
    std::array<PerfCounterState, Pmu::kNumCounters> counters;
};

/** See the file comment. Produced by Machine::checkpoint(). */
struct MachineCheckpoint
{
    /** steps_ at capture (the resume point's position in the run). */
    std::uint64_t step = 0;

    // ---- scheduler ----
    ThreadId schedCurrent = 0;
    std::uint32_t schedQuantumLeft = 0;
    Pcg32 rng{0, 0};
    std::vector<Thread> threads;
    std::unordered_map<Addr, MachineMutex> mutexes;

    // ---- monitoring hardware ----
    std::vector<PmuSnapshot> pmus;
    LcrDomain lcr{0};
    BranchTraceStore bts;

    // ---- cache hierarchy ----
    Bus::Snapshot bus;

    // ---- memory ----
    MemorySnapshot memory;
    Addr heapBrk = 0;
    Addr stackSpan = 0;

    // ---- accounting folded at run end ----
    std::uint64_t kernelSteps = 0;
    std::uint64_t irqDelivered = 0;
    std::uint64_t irqHandlerSteps = 0;
    std::uint64_t fusedPairs = 0;

    /** The pre-fold partial result (profiles, outputs, stats so far). */
    RunResult result;

    /**
     * Approximate retained bytes of everything EXCEPT `result` (the
     * store layer prices the RunResult with its own estimator). The
     * memory term counts every referenced page as if exclusively
     * owned — a deliberate overestimate; CoW sharing between
     * neighboring checkpoints makes the true cost lower.
     */
    std::size_t approxStateBytes() const;
};

using MachineCheckpointPtr = std::shared_ptr<const MachineCheckpoint>;

} // namespace stm

#endif // STM_VM_CHECKPOINT_HH
