/**
 * @file
 * DecodeCache: a sharded, bounded memo table for predecoded operand
 * streams (vm/decoded_program.hh).
 *
 * Predecoding is O(program) and its output depends on exactly two
 * things: the base program content and which pcs carry hooks. Both
 * are content-addressed (program/fingerprint.hh), so the cache key is
 *
 *     (base-program fp, hook-table fp, fusion flag) → DecodedProgram
 *
 * and the properties the run cache established carry over:
 *
 *  - **Shared across runs and threads.** Entries are
 *    shared_ptr<const DecodedProgram>; every concurrent Machine in a
 *    RunPool campaign holds the same immutable stream. A campaign of
 *    thousands of seeds predecodes its program exactly once.
 *  - **Overlay-publication friendly.** Reactive re-instrumentation
 *    publishes a new overlay per phase; the scalar knobs it flips
 *    (toggling, masks, sampling periods) do not enter the hook-table
 *    digest, so a re-predecode happens only when the hook side
 *    tables actually changed.
 *  - **Bounded.** A byte budget split across shards with LRU
 *    eviction; a stream bigger than a whole shard budget is returned
 *    uncached (counted `oversize`).
 *
 * The shard/LRU/eviction mechanics live in support/sharded_lru.hh
 * (shared with the run cache and the SnapshotStore); the build-on-miss
 * path uses its acquire() idiom, which holds the shard lock across
 * the predecode so concurrent campaigns build exactly once.
 *
 * Statistics are a StatGroup ("vm.decode_cache": hits, misses,
 * evictions, oversize; entries/bytes gauges) and the hit/miss/evict
 * seams emit trace instants (VmDecodeHit/Miss/Evict).
 */

#ifndef STM_VM_DECODE_CACHE_HH
#define STM_VM_DECODE_CACHE_HH

#include <cstdint>
#include <memory>

#include "program/program.hh"
#include "support/sharded_lru.hh"
#include "support/stats.hh"
#include "vm/decoded_program.hh"

namespace stm
{

/** Cache key: what predecode output depends on, nothing else. */
struct DecodeKey
{
    std::uint64_t baseFp = 0; //!< fingerprintProgramBase digest
    std::uint64_t hookFp = 0; //!< fingerprintHookTables digest
    bool fused = false;       //!< superinstruction fusion applied

    bool operator==(const DecodeKey &) const = default;
};

/** Content digest of a DecodeKey (the ShardedLru routing hash). */
struct DecodeKeyHash
{
    std::uint64_t operator()(const DecodeKey &key) const;
};

/** A sharded, bounded, LRU map DecodeKey → DecodedProgramPtr. */
class DecodeCache
{
  public:
    struct Options
    {
        /** Total byte budget across all shards. */
        std::size_t maxBytes = 64ull * 1024 * 1024;
        /** Shard count (clamped to >= 1). */
        unsigned shards = 8;
    };

    DecodeCache();
    explicit DecodeCache(Options opts);

    DecodeCache(const DecodeCache &) = delete;
    DecodeCache &operator=(const DecodeCache &) = delete;

    /**
     * The predecoded stream for (@p prog, @p instr, @p fuse): served
     * from cache on a key hit, else built under the shard lock (so
     * concurrent campaigns over one program build exactly once) and
     * inserted with LRU eviction.
     */
    DecodedProgramPtr acquire(const Program &prog,
                              const Instrumentation &instr, bool fuse);

    /** Entries currently retained, summed over shards. */
    std::size_t size() const;
    /** Approximate bytes currently retained, summed over shards. */
    std::size_t bytes() const;

    /** Drop every entry (stats are kept). */
    void clear();

    /**
     * Snapshot of the cumulative statistics: counters hits, misses,
     * evictions, oversize; gauges entries, bytes.
     */
    StatGroup statsSnapshot() const;

  private:
    ShardedLru<DecodeKey, DecodedProgramPtr, DecodeKeyHash> lru_;
};

/**
 * The process-wide decode cache. Always on (predecoding is required
 * to run at all; caching it is strictly a win); first use installs
 * one with the default DecodeCache::Options unless
 * configureDecodeCache() already did.
 */
DecodeCache &globalDecodeCache();

/**
 * Replace the process-wide cache (tests, benches). @p maxBytes 0
 * keeps the default budget; @p shards 0 keeps the default count.
 * Statistics start fresh.
 */
void configureDecodeCache(std::size_t maxBytes = 0, unsigned shards = 0);

} // namespace stm

#endif // STM_VM_DECODE_CACHE_HH
