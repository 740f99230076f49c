/**
 * @file
 * RunCache: a cross-phase memo table for deterministic VM runs.
 *
 * Every run in this reproduction is a pure function of (program
 * content, instrumentation plan, machine options, scheduler seed):
 * the interpreter draws all nondeterminism from the seeded PRNG.
 * Diagnosis campaigns exploit repetition everywhere — LBRA and LCRA
 * replay the same seeds across phases, the Table 4/6/7 benches replay
 * whole campaigns across configurations, FleetSim replays the
 * auto-diag workload across simulated machines — so identical keys
 * recur constantly. RunCache memoizes the full RunResult under a
 * content-addressed key (see program/fingerprint.hh):
 *
 *     (base-program fp ⊕ overlay fp, options digest, seed) → RunResult
 *
 * Properties:
 *  - **Sharded and concurrent.** The key hash routes to one of N
 *    shards, each with its own mutex, map, and LRU list, so RunPool
 *    workers hit the cache in parallel with minimal contention.
 *  - **Bounded.** A byte budget (split evenly across shards) caps
 *    retained RunResults; least-recently-used entries are evicted.
 *    Single results larger than a shard's whole budget are never
 *    inserted (counted as `oversize`).
 *  - **Verifiable.** In verify mode every hit is re-executed and the
 *    replay compared bit-for-bit against the cached RunResult
 *    (operator==); any mismatch is fatal. This turns the fingerprint
 *    collision argument into a checked invariant — and doubles as a
 *    whole-corpus determinism audit (see test_golden_determinism.cc).
 *    With a SnapshotStore holding checkpoints of the keyed run, the
 *    verify replay may resume from the latest checkpoint instead of
 *    step 0 (exec/snapshot_store.hh) — the suffix must still match
 *    the cached result bit-for-bit.
 *
 * The shard/LRU/eviction mechanics live in support/sharded_lru.hh
 * (shared with the decode cache and the SnapshotStore); this wrapper
 * owns key hashing, byte estimation, trace instants, and verify
 * policy.
 *
 * Process-wide wiring: callers go through memoizedRun(), which
 * consults the global cache installed by configureRunCache() and
 * transparently executes a Machine on miss or when caching is off.
 */

#ifndef STM_EXEC_RUN_CACHE_HH
#define STM_EXEC_RUN_CACHE_HH

#include <cstdint>
#include <memory>
#include <string>

#include "support/sharded_lru.hh"
#include "support/stats.hh"
#include "vm/machine.hh"
#include "vm/run_result.hh"

namespace stm
{

/** Cache key: full program fingerprint, options digest, seed. */
struct RunKey
{
    std::uint64_t programFp = 0; //!< base fp combined with overlay fp
    std::uint64_t optionsFp = 0; //!< MachineOptions digest sans seed
    std::uint64_t seed = 0;      //!< sched.seed of this run

    bool operator==(const RunKey &) const = default;
};

/** Content digest of a RunKey (the ShardedLru routing hash). */
struct RunKeyHash
{
    std::uint64_t operator()(const RunKey &key) const;
};

/** Approximate retained-heap size of one cached RunResult. */
std::size_t approxRunResultBytes(const RunResult &result);

/** A sharded, bounded, LRU-evicting map RunKey → RunResult. */
class RunCache
{
  public:
    struct Options
    {
        /** Total byte budget across all shards. */
        std::size_t maxBytes = 256ull * 1024 * 1024;
        /** Shard count (clamped to >= 1). */
        unsigned shards = 8;
        /** Re-execute every hit and assert bit-identity. */
        bool verify = false;
    };

    RunCache();
    explicit RunCache(Options opts);

    RunCache(const RunCache &) = delete;
    RunCache &operator=(const RunCache &) = delete;

    /**
     * Copy the cached result for @p key into @p out and return true;
     * false on miss. A hit refreshes the entry's LRU position.
     */
    bool lookup(const RunKey &key, RunResult &out);

    /**
     * Insert @p result under @p key (no-op if the key is already
     * present or the result alone exceeds the shard budget), evicting
     * least-recently-used entries as needed.
     */
    void insert(const RunKey &key, const RunResult &result);

    bool verifyMode() const { return opts_.verify; }

    /** Entries currently retained, summed over shards. */
    std::size_t size() const;
    /** Approximate bytes currently retained, summed over shards. */
    std::size_t bytes() const;

    /** Drop every entry (stats are kept). */
    void clear();

    /** Count one verify-mode replay comparison (memoizedRun). */
    void noteVerified();

    /**
     * Snapshot of the cumulative statistics: counters hits, misses,
     * inserts, evictions, verified, oversize; gauges entries, bytes.
     */
    StatGroup statsSnapshot() const;

    /** Hits / (hits + misses), 0 when nothing was looked up. */
    double hitRate() const;

  private:
    Options opts_;
    ShardedLru<RunKey, RunResult, RunKeyHash> lru_;
};

/** How memoizedRun treats the process-wide cache. */
enum class RunCacheMode : std::uint8_t {
    Off,    //!< always execute; no cache exists
    On,     //!< serve hits, insert misses
    Verify, //!< serve hits but re-execute and assert bit-identity
};

/**
 * Install (or tear down, for Off) the process-wide run cache. The
 * previous cache and its statistics are discarded. @p maxBytes 0
 * keeps the default budget.
 */
void configureRunCache(RunCacheMode mode, std::size_t maxBytes = 0);

/**
 * The cache configureRunCache() installed, or nullptr when caching
 * is off (the default).
 */
RunCache *globalRunCache();

/**
 * Execute — or recall — one run: the memoizing analogue of
 * `Machine(prog, opts, overlay).run()`. @p programFp must be the
 * full program fingerprint, fingerprintProgram(*prog, plan), where
 * plan is *@p overlay or the empty plan when it is null; @p optionsFp
 * the fingerprintMachineOptions(opts) digest. Campaigns compute both
 * once per phase and share them across every seed in the batch.
 *
 * When the global SnapshotStore holds checkpoints for the key,
 * verify-mode replays resume from the latest checkpoint instead of
 * step 0 (same plan, same seed — the suffix must still bit-match).
 */
RunResult memoizedRun(const ProgramPtr &prog,
                      const std::shared_ptr<const Instrumentation> &overlay,
                      std::uint64_t programFp, std::uint64_t optionsFp,
                      const MachineOptions &opts);

} // namespace stm

#endif // STM_EXEC_RUN_CACHE_HH
