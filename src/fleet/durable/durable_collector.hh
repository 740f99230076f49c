/**
 * @file
 * DurableCollector: the epoched, crash-recoverable shell around the
 * in-memory Collector + Ranker pair.
 *
 * Lifecycle of one accepted report:
 *
 *   ingest(frame) ── inner Collector validates, dedups, queues
 *        │                    (Accepted only ↓)
 *        └── WAL append: the raw frame, stamped with the current
 *            epoch, is appended to the segment-rotated log before
 *            the call returns. Appends are buffered; the buffer is
 *            flushed at every epoch roll, so a crash can lose only
 *            the tail of the *current* epoch — and the transport is
 *            at-least-once, so those frames are re-sent after
 *            restart (and only those: everything recovered is
 *            preseeded as a Duplicate).
 *
 *   pump() ── drain the inner collector's rings: each view folds
 *             into the deduplicated report store (fingerprint →
 *             ReportDigest) and the Ranker, keyed by the
 *             fingerprint ingest computed for dedup (the ring carries
 *             it, so the payload is hashed once per report).
 *
 *   rollEpoch() ── the epoch boundary, in order:
 *       1. pump()                (nothing accepted is left queued)
 *       2. Collector::publishAll() (one point-in-time stats cut)
 *       3. WAL flush
 *       4. stamp the live store (a RankerSnapshot) with this
 *          epoch and write it in place, without copying it
 *          (tmp + rename: readers never see a torn snapshot); the
 *          returned reference is the live store, valid until the
 *          next fold
 *       5. prune WAL segments fully covered by the snapshot (the
 *          writer remembers the last epoch of each segment it
 *          closed, so only a segment left by an earlier process is
 *          ever read, and only once)
 *       6. epoch += 1
 *
 * Recovery (constructor, when the durable directory has state):
 * load the newest decodable snapshot, import its report store and
 * sufficient statistics, then replay WAL records from epochs the
 * snapshot does not cover, in order, through the same digest fold.
 * Every recovered fingerprint is preseeded into the inner
 * collector's dedup sets, so an at-least-once transport that
 * retransmits old frames sees Duplicate — which is what makes the
 * post-recovery ranking *provably* identical to an uninterrupted
 * run's: the deduplicated report set is identical, and the ranking
 * is a pure function of that set (tests/test_fleet_durable.cc kills
 * a collector mid-epoch and asserts bit-identical rankings).
 *
 * Snapshots are whole-store (not deltas): snapshot at epoch E covers
 * *all* epochs <= E, so recovery needs exactly one snapshot plus the
 * WAL tail, and every older snapshot and segment is garbage the
 * moment a newer snapshot lands.
 */

#ifndef STM_FLEET_DURABLE_DURABLE_COLLECTOR_HH
#define STM_FLEET_DURABLE_DURABLE_COLLECTOR_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "diag/ranker.hh"
#include "fleet/collector.hh"
#include "fleet/durable/snapshot.hh"
#include "fleet/durable/wal.hh"
#include "support/stats.hh"

namespace stm::fleet
{

/** Durable collector configuration. */
struct DurableOptions
{
    /** Snapshot + WAL directory (created if absent). */
    std::string dir;
    /**
     * This collector's identity in snapshot/WAL file names and
     * merge metadata. Must be >= 1: id 0 is the merge identity
     * ("no collector"), reserved so a default-constructed snapshot
     * accumulator is a true identity element.
     */
    std::uint64_t collectorId = 1;
    /** WAL segment rotation threshold in bytes. */
    std::size_t walRotateBytes = std::size_t{4} << 20;
    /** Inner in-memory collector configuration. */
    CollectorOptions collector;
};

/** What recovery found, if anything. */
struct RecoveryReport
{
    bool recovered = false;       //!< any prior state was loaded
    bool snapshotLoaded = false;  //!< a decodable snapshot existed
    std::uint64_t snapshotEpoch = 0;
    std::uint64_t snapshotReports = 0;
    std::uint64_t walRecordsReplayed = 0; //!< records past the snapshot
    std::uint64_t walRecordsCovered = 0;  //!< records the snapshot covered
    std::uint64_t resumedEpoch = 0;
    FrameStatus walTail = FrameStatus::Ok; //!< why WAL replay stopped
};

/** Epoched, WAL-backed, snapshot-compacting collector. */
class DurableCollector
{
  public:
    /** Opens (and recovers) the durable directory. */
    explicit DurableCollector(const DurableOptions &opts);

    DurableCollector(const DurableCollector &) = delete;
    DurableCollector &operator=(const DurableCollector &) = delete;

    std::uint64_t collectorId() const { return collectorId_; }
    std::uint64_t epoch() const { return epoch_; }
    const RecoveryReport &recovery() const { return recovery_; }

    /**
     * Validate, dedup, queue, and — if accepted — spill the frame to
     * the WAL under the current epoch. Thread-safe (WAL appends are
     * serialized internally).
     */
    IngestStatus ingest(const std::uint8_t *data, std::size_t size);

    IngestStatus
    ingest(const std::vector<std::uint8_t> &wire)
    {
        return ingest(wire.data(), wire.size());
    }

    /** Encode + ingest (the profile-producer convenience path). */
    IngestStatus submit(const RunProfile &profile);

    /**
     * Drain everything queued in the inner collector into the report
     * store and ranker. Returns reports folded. Single consumer.
     */
    std::size_t pump();

    /**
     * Close the current epoch: pump, publish stats, flush + snapshot
     * + prune, advance the epoch counter. Returns the snapshot just
     * written (epoch = the epoch that closed): a reference to the
     * live store, stamped and encoded in place, whose contents hold
     * until the next fold (pump(), rollEpoch()). Copy it to keep it.
     */
    const RankerSnapshot &rollEpoch();

    /** Current ranking over everything pumped so far. */
    const std::vector<RankedEvent> &
    rank(bool include_absence = false) const
    {
        return ranker_.rank(include_absence);
    }

    std::size_t storedReports() const { return store_.reportCount(); }
    const RankerSnapshot::ReportMap &store() const { return store_.reports(); }
    const Ranker &ranker() const { return ranker_; }

    Collector &inner() { return collector_; }
    const Collector &inner() const { return collector_; }

    /** Close the inner collector's intake. */
    void close() { collector_.close(); }

    /**
     * Durable-layer metrics, published at call time: counters
     * epochs_rolled, snapshots_written, frames_spilled (the WAL
     * record count), wal_segments, segments_pruned, replayed_frames,
     * recoveries; gauges wal_bytes, snapshot_bytes, stored_reports,
     * epoch.
     */
    const StatGroup &stats() const;

    /** Snapshot file path for @p epoch under this collector's dir. */
    std::string snapshotPath(std::uint64_t epoch) const;

  private:
    void recover();
    /** Fold one report, keyed by its fingerprint @p print. */
    void foldView(const RunProfileView &view, std::uint64_t print);

    std::string dir_;
    std::uint64_t collectorId_;
    Collector collector_;
    Ranker ranker_;
    /**
     * The deduplicated report store. rollEpoch() stamps its id and
     * epoch; between rolls they still name the last snapshot.
     */
    RankerSnapshot store_;
    /** Created after recovery so replay never reads the new segment. */
    std::unique_ptr<WalWriter> wal_;
    std::uint64_t epoch_ = 0;
    RecoveryReport recovery_;

    /** Serializes WAL appends (producers may ingest concurrently). */
    std::mutex walMu_;

    std::uint64_t epochsRolled_ = 0;
    std::uint64_t snapshotsWritten_ = 0;
    std::uint64_t segmentsPruned_ = 0;
    std::uint64_t lastSnapshotBytes_ = 0;

    mutable StatGroup stats_;
};

/**
 * Snapshot path helpers shared with the merge coordinator:
 * `snap-<collectorId>-<epoch, 8 digits>.stms` in @p dir.
 */
std::string snapshotFileName(std::uint64_t collector_id,
                             std::uint64_t epoch);

/** All snapshot files in @p dir, sorted by name. */
std::vector<std::string> listSnapshotFiles(const std::string &dir);

/** Outcome of a directory merge. */
struct MergeResult
{
    RankerSnapshot merged;
    std::size_t filesMerged = 0;
    std::size_t filesSkipped = 0; //!< undecodable (counted, not fatal)
};

/**
 * The coordinator: merge every decodable snapshot in @p dir into one.
 * Because merge is associative, commutative, and idempotent, the
 * result is independent of directory enumeration order, and merging
 * overlapping snapshots (gossip) never double-counts.
 */
MergeResult mergeSnapshotDir(const std::string &dir);

} // namespace stm::fleet

#endif // STM_FLEET_DURABLE_DURABLE_COLLECTOR_HH
