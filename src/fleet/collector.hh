/**
 * @file
 * The fleet collection service: where every machine's wire-format
 * report lands.
 *
 * Transport is an NVMe-style submission/completion queue pair per
 * shard. A report's canonical fingerprint routes it to shard
 * `fingerprint % shards`, so duplicate suppression needs no
 * cross-shard coordination (retransmitted frames always hash to the
 * same shard); within the shard, dedup is a lock-free fingerprint set
 * and the queue is a fixed-slot MPSC ring of frame *descriptors* —
 * producers never take a mutex and never copy frame bytes to enqueue:
 *
 *   producer: encode frame into its own arena ──┐
 *             (or memcpy for the wire-bytes     │  (ptr, len)
 *              compatibility path)              ▼
 *        ┌────────────────────────────────────────────┐
 *   SQ   │ slot seq doorbells · tail CAS ticket claim │ per shard
 *        └────────────────────────────────────────────┘
 *             ▲ consumer drains in batches, decodes each frame
 *             │ *in place* (RunProfileView), then posts the
 *   CQ        └ completion: one release-store on the arena region
 *               counter, which is what lets the producer recycle
 *               those bytes (support/frame_arena.hh)
 *
 * When a shard ring is full the configured overflow policy applies —
 * Drop rejects at the full ring and counts it (load shedding, for an
 * internet-facing endpoint); Block parks the producer on a bounded
 * condvar fallback until the consumer drains (lossless, for trusted
 * in-house producers). Neither policy touches the fast path: the
 * condvar exists only behind a failed ring push.
 *
 * All accounting is relaxed atomic counters plus an atomic-max
 * high-water gauge; values are published into the StatGroups
 * (support/stats) only when stats()/shardStats() is read, so the hot
 * path never serializes on a stats mutex.
 *
 * The consumer side (`drainViews`, `drainInto`, `drain`) empties all
 * shards in shard order. Because the downstream Ranker is
 * order-independent (diag/scoring.hh), the interleaving of producers
 * and the shard count never change the final ranking — asserted for
 * the whole corpus in tests/test_fleet.cc.
 */

#ifndef STM_FLEET_COLLECTOR_HH
#define STM_FLEET_COLLECTOR_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "fleet/wire_format.hh"
#include "support/fingerprint_set.hh"
#include "support/frame_arena.hh"
#include "support/mpsc_ring.hh"
#include "support/stats.hh"

namespace stm::fleet
{

/** What to do with a report arriving at a full shard. */
enum class OverflowPolicy : std::uint8_t {
    Block, //!< producer waits for the consumer (lossless)
    Drop,  //!< report is discarded and counted (load shedding)
};

/** Collector configuration. */
struct CollectorOptions
{
    /** Ingest shards (rings + dedup sets). At least 1. */
    unsigned shards = 1;
    /**
     * Ring slots per shard before the overflow policy applies
     * (rounded up to a power of two by the ring).
     */
    std::size_t shardCapacity = 1024;
    OverflowPolicy overflow = OverflowPolicy::Block;
    /**
     * Per-producer frame arena size in bytes. A saturated arena never
     * stalls ingest — frames fall back to a heap allocation — so this
     * only sizes the zero-allocation window.
     */
    std::size_t arenaBytes = std::size_t{1} << 20;
};

/** Outcome of one ingest call. */
enum class IngestStatus : std::uint8_t {
    Accepted,    //!< decoded, novel, queued
    Duplicate,   //!< fingerprint already seen; suppressed
    Dropped,     //!< shard full under OverflowPolicy::Drop
    DecodeError, //!< frame failed wire validation
    Closed,      //!< collector already closed
};

/** Multi-producer sharded in-memory report store. */
class Collector
{
  public:
    explicit Collector(const CollectorOptions &opts = {});
    ~Collector();

    Collector(const Collector &) = delete;
    Collector &operator=(const Collector &) = delete;

    unsigned shards() const { return shardCount_; }

    /**
     * Validate one wire frame and route it to its shard. Thread-safe;
     * any number of producers may call concurrently. Blocks when the
     * shard ring is full under OverflowPolicy::Block (until a drain
     * or close()); never blocks under Drop. The frame bytes are
     * copied once into the producer's arena (the caller's buffer is
     * transient); submit() is the no-copy producer path.
     */
    IngestStatus ingest(const std::uint8_t *data, std::size_t size);

    IngestStatus
    ingest(const std::vector<std::uint8_t> &wire)
    {
        return ingest(wire.data(), wire.size());
    }

    /**
     * Zero-copy producer path: encode @p profile directly into the
     * calling thread's arena and publish an (offset, len) descriptor
     * to the shard ring. No mutex, no intermediate buffer, no frame
     * byte copy. Same payload cap, dedup, sharding, overflow, and
     * accounting as the wire path.
     */
    IngestStatus submit(const RunProfile &profile);

    /**
     * Ingest an already-decoded report (compatibility shim over
     * submit()).
     */
    IngestStatus
    ingestDecoded(RunProfile &&profile)
    {
        return submit(profile);
    }

    /**
     * Remove and return every queued report, shard 0 first. Reports
     * within a shard come out in arrival order. Wakes blocked
     * producers.
     */
    std::vector<RunProfile> drain();

    /**
     * Drain into a callback (saves the intermediate vector). Returns
     * the number of reports delivered.
     */
    std::size_t
    drainInto(const std::function<void(RunProfile &&)> &sink);

    /**
     * Zero-copy drain: decode each queued frame *in place* and hand
     * the caller a non-owning view plus the report's fingerprint
     * (fingerprintPayload() of the view's payload, computed once at
     * ingest for dedup and carried across the ring). The frame's
     * bytes are completed (returned to their arena) when the callback
     * returns, so the view must not escape it. One consumer at a time
     * (internally serialized per batch).
     */
    using ViewSink =
        std::function<void(const RunProfileView &, std::uint64_t print)>;
    std::size_t drainViews(const ViewSink &sink);

    /**
     * Close the intake: blocked producers wake and report Closed, and
     * subsequent ingests are refused. Queued reports remain drainable.
     */
    void close();

    /**
     * Total reports currently queued across all shards. Lock-free;
     * exact when producers are quiescent, a racy estimate otherwise.
     */
    std::size_t queued() const;

    /**
     * Aggregate ingest metrics: counters received, accepted,
     * duplicates, decode_errors, dropped, blocked, drained; gauge
     * queue_high_water (deepest any shard ring has been). Values are
     * published from the atomic counters at call time.
     */
    const StatGroup &stats() const;

    /**
     * Per-shard metrics: counters accepted, duplicates, dropped,
     * drained; gauge queue_high_water.
     */
    const StatGroup &shardStats(unsigned shard) const;

    /**
     * Publish the aggregate *and* every shard's metrics under one
     * hold of the stats lock. stats()/shardStats() each publish only
     * their own group, so a reader walking aggregate-then-shards can
     * observe totals from different instants (shard counters that sum
     * past the aggregate published a moment earlier). Epoch rolls use
     * this barrier so the gauges a snapshot is labelled with are one
     * point-in-time cut.
     */
    void publishAll() const;

    /**
     * Seed the dedup set with an already-known fingerprint, without
     * any ingest accounting. Recovery uses this so a frame the
     * pre-crash process accepted (now restored from snapshot or WAL)
     * is a Duplicate when its producer retransmits it. Returns false
     * if the fingerprint was already present.
     */
    bool preseed(std::uint64_t print);

  private:
    /**
     * What crosses a shard ring: one encoded frame by reference, with
     * the fingerprint ingest already computed so the consumer never
     * re-hashes the payload. The arena pointer routes the completion;
     * a null arena marks a heap-owned frame (arena saturated or frame
     * oversize) that the consumer deletes instead.
     */
    struct FrameDesc
    {
        const std::uint8_t *data = nullptr;
        FrameArena *arena = nullptr;
        std::uint64_t print = 0;
        std::uint32_t len = 0;
        std::uint32_t reserved = 0;
    };

    struct Shard
    {
        Shard(std::string name, std::size_t capacity)
            : ring(capacity), stats(std::move(name))
        {
        }

        MpscRing<FrameDesc> ring;
        FingerprintSet seen; //!< fingerprints, ever
        alignas(kCacheLineSize) std::atomic<std::uint64_t> accepted{0};
        std::atomic<std::uint64_t> duplicates{0};
        std::atomic<std::uint64_t> dropped{0};
        std::atomic<std::uint64_t> drained{0};
        std::atomic<std::uint64_t> highWater{0};
        /** Cold mirror of the atomics, filled on shardStats(). */
        mutable StatGroup stats;
    };

    /** One producer thread's frame arena (registered on first use). */
    struct ProducerState
    {
        ProducerState(std::size_t arena_bytes, std::thread::id id)
            : arena(arena_bytes), owner(id)
        {
        }

        FrameArena arena;
        std::thread::id owner;
    };

    ProducerState &localProducer();
    FrameDesc acquireFrame(ProducerState &prod, std::size_t size);
    static void releaseFrame(const FrameDesc &desc);
    IngestStatus commit(Shard &shard, unsigned shard_index,
                        const FrameDesc &desc);
    void countDuplicate(Shard &shard, std::uint64_t print);
    /** Count a frame refused with @p status; returns DecodeError. */
    IngestStatus refuse(FrameStatus status);
    /** Publish helpers; caller holds statsMu_. */
    void publishAggregateLocked() const;
    void publishShardLocked(const Shard &shard) const;

    unsigned shardCount_;
    OverflowPolicy overflow_;
    std::size_t arenaBytes_;
    std::atomic<bool> closed_{false};
    std::vector<std::unique_ptr<Shard>> shards_;

    /** Globally unique collector id (thread-local cache key). */
    std::uint64_t id_;
    std::mutex producersMu_;
    std::vector<std::unique_ptr<ProducerState>> producers_;

    /** Serializes whole drain batches (the ring is single-consumer). */
    std::mutex consumerMu_;

    /** Block-policy fallback: only ever touched behind a full ring. */
    std::mutex spaceMu_;
    std::condition_variable spaceCv_;
    std::atomic<std::uint32_t> waiters_{0};

    /** Hot-path accounting: relaxed atomics, published lazily. */
    alignas(kCacheLineSize) std::atomic<std::uint64_t> received_{0};
    std::atomic<std::uint64_t> accepted_{0};
    std::atomic<std::uint64_t> duplicates_{0};
    std::atomic<std::uint64_t> decodeErrors_{0};
    std::atomic<std::uint64_t> decodeErrorBy_[kFrameStatusCount]{};
    std::atomic<std::uint64_t> dropped_{0};
    std::atomic<std::uint64_t> blocked_{0};
    std::atomic<std::uint64_t> drained_{0};
    std::atomic<std::uint64_t> highWater_{0};

    /** Guards only the lazy publish into the StatGroups. */
    mutable std::mutex statsMu_;
    mutable StatGroup stats_;
};

} // namespace stm::fleet

#endif // STM_FLEET_COLLECTOR_HH
