/**
 * @file
 * SnapshotStore: byte-budgeted checkpoint timelines for O(√T) seeks.
 *
 * A deterministic run of T steps can be re-entered at any step N by
 * re-executing from step 0 — an O(T) scratch replay. The store makes
 * that O(√T): a run records CoW machine checkpoints (vm/checkpoint.hh)
 * at √T-spaced quantum boundaries, and a later seek resumes from the
 * newest checkpoint at or before N and interprets only the remaining
 * interval. With K = √T checkpoints spaced T/K apart, both the
 * recording overhead per run and the worst-case seek interval are
 * O(√T) — the classic time-travel-debugging tradeoff, applied here to
 * the diagnosis campaign's replay phases (re-profiling a pinned
 * failing seed under a new instrumentation plan, run-cache verify
 * replays, and the future stm_debug seek primitive).
 *
 * Shape: one ShardedLru entry per run key (program fp, options fp,
 * seed) holding that run's whole *timeline* — the step-sorted vector
 * of checkpoints. Timelines are immutable snapshots swapped in whole
 * (insert-or-replace) so readers never see a half-built vector, and
 * eviction drops a whole timeline at once: a partial timeline's
 * missing middle would silently degrade seeks back toward O(T), so
 * the unit of residency is the unit of usefulness. The CoW page
 * sharing between adjacent checkpoints means a timeline's true
 * footprint is far below the sum of approxStateBytes() — the budget
 * prices the worst case (every page diverged), which only over-evicts.
 *
 * The store is a cache, not a ledger: losing a record() to a racing
 * replace or an eviction costs a longer re-execution, never
 * correctness. Seeks fall back to the next-older checkpoint or to a
 * scratch boot.
 *
 * Process-wide wiring mirrors the run cache: configureSnapshotStore()
 * installs or tears down the store, globalSnapshotStore() returns it,
 * and the store stays off by default — recording is opt-in so
 * un-instrumented runs pay nothing.
 */

#ifndef STM_EXEC_SNAPSHOT_STORE_HH
#define STM_EXEC_SNAPSHOT_STORE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "exec/run_cache.hh"
#include "support/sharded_lru.hh"
#include "support/stats.hh"
#include "vm/checkpoint.hh"
#include "vm/machine.hh"

namespace stm
{

/**
 * One run's recorded checkpoints, step-sorted, immutable once built.
 * Each entry carries its byte price (approxStateBytes + the RunResult
 * estimate), computed once at record time: repricing the whole
 * timeline on every insert would make recording O(K²) in the
 * checkpoint count.
 */
struct TimelineEntry
{
    MachineCheckpointPtr ckpt;
    std::size_t priceBytes = 0;
};

using SnapshotTimeline =
    std::shared_ptr<const std::vector<TimelineEntry>>;

/** A sharded, bounded, LRU-evicting map RunKey → checkpoint timeline. */
class SnapshotStore
{
  public:
    struct Options
    {
        /** Total byte budget across all shards. */
        std::size_t maxBytes = 256ull * 1024 * 1024;
        /** Shard count (clamped to >= 1). */
        unsigned shards = 8;
        /**
         * Checkpoint spacing in steps for armed runs; 0 means derive
         * √T from each run's step budget (defaultCheckpointInterval).
         */
        std::uint64_t everySteps = 0;
    };

    SnapshotStore();
    explicit SnapshotStore(Options opts);

    SnapshotStore(const SnapshotStore &) = delete;
    SnapshotStore &operator=(const SnapshotStore &) = delete;

    /**
     * Add @p ckpt to @p key's timeline (replacing any existing
     * checkpoint at the same step) and swap the extended timeline
     * into the store. Concurrent record()s for one key may drop one
     * another's checkpoint — benign, see the header comment.
     */
    void record(const RunKey &key, MachineCheckpointPtr ckpt);

    /**
     * The newest recorded checkpoint with step <= @p step, or null.
     * A hit refreshes the timeline's LRU position.
     */
    MachineCheckpointPtr latestAtOrBefore(const RunKey &key,
                                          std::uint64_t step) const;

    /**
     * The checkpoint spacing for a run capped at @p maxSteps: the
     * configured everySteps, or √maxSteps rounded to a multiple of
     * @p quantum (checkpoints are only captured at quantum
     * boundaries, so a finer spacing would record at uneven strides).
     */
    std::uint64_t intervalFor(std::uint64_t maxSteps,
                              std::uint32_t quantum) const;

    /**
     * Arm @p machine to record its checkpoints into this store under
     * @p key, spaced by intervalFor() on the machine's own options.
     * Call before the machine's first run()/runToStep().
     */
    void arm(Machine &machine, const RunKey &key);

    /**
     * Seek: the machine state at exactly @p step of the run @p key
     * names, resumed from the newest prior checkpoint (or booted from
     * scratch when none is resident) and interpreted the rest of the
     * way. The reached checkpoint is recorded back into the timeline
     * so a seek sequence densifies its own neighborhood. Returns null
     * when the run ends before @p step. @p prog / @p overlay / @p opts
     * must be the run @p key was computed from (exactly as for
     * memoizedRun()).
     */
    MachineCheckpointPtr
    replayToStep(const ProgramPtr &prog,
                 const std::shared_ptr<const Instrumentation> &overlay,
                 const RunKey &key, const MachineOptions &opts,
                 std::uint64_t step);

    /**
     * Account a resume that bypasses replayToStep() (the run-cache
     * verify replay, the diag re-profile): bumps the restores counter
     * and emits the ExecCkptRestore trace instant.
     */
    void noteRestore(const MachineCheckpointPtr &base);

    /** Timelines currently resident, summed over shards. */
    std::size_t size() const;
    /** Approximate bytes currently retained, summed over shards. */
    std::size_t bytes() const;
    /**
     * Checkpoints resident for @p key (0 when the timeline is absent
     * or evicted). A read-side peek: no LRU refresh, no counters.
     */
    std::size_t timelineLength(const RunKey &key) const;

    /** Drop every timeline (stats are kept). */
    void clear();

    const Options &options() const { return opts_; }

    /**
     * Snapshot of the cumulative statistics: counters hits, misses,
     * inserts, evictions, oversize, saves, restores; gauges entries,
     * bytes, checkpoint_bytes.
     */
    StatGroup statsSnapshot() const;

  private:
    Options opts_;
    mutable ShardedLru<RunKey, SnapshotTimeline, RunKeyHash> lru_;
};

/**
 * √T spacing: the interval minimizing (record cost + seek cost) for a
 * T-step run, rounded up to a multiple of @p quantum and clamped to
 * at least one quantum.
 */
std::uint64_t defaultCheckpointInterval(std::uint64_t maxSteps,
                                        std::uint32_t quantum);

/**
 * Install (or tear down, with @p enabled false) the process-wide
 * snapshot store. @p everySteps 0 keeps √T spacing; @p maxBytes 0
 * keeps the default budget. The previous store and its statistics
 * are discarded.
 */
void configureSnapshotStore(bool enabled, std::uint64_t everySteps = 0,
                            std::size_t maxBytes = 0);

/**
 * The store configureSnapshotStore() installed, or nullptr when
 * checkpointing is off (the default).
 */
SnapshotStore *globalSnapshotStore();

} // namespace stm

#endif // STM_EXEC_SNAPSHOT_STORE_HH
