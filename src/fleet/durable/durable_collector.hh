/**
 * @file
 * DurableCollector: the epoched, crash-recoverable collector. Its one
 * state is the deduplicated report store, a RankerSnapshot keyed by
 * fingerprint, which is also its dedup set and the source of its
 * ranking.
 *
 * Lifecycle of one report, all inside ingest(frame):
 *
 *   1. the inner Collector validates the frame untrusted and
 *      fingerprints the payload once;
 *   2. dedup on the store: a print already there is a Duplicate;
 *   3. WAL append: the raw frame, stamped with the current epoch, is
 *      appended to the segment-rotated log. Appends are buffered and
 *      flushed at every epoch roll, so a crash can lose only the
 *      tail of the *current* epoch; the transport is at-least-once,
 *      so those frames are re-sent after restart;
 *   4. fold: the report's digest (failure label and event set) joins
 *      the store.
 *
 *   rollEpoch() ── the epoch boundary, in order:
 *       1. WAL flush
 *       2. stamp the store with this epoch and write it in place,
 *          without copying it (tmp + rename: readers never see a
 *          torn snapshot); the returned reference is the live
 *          store, valid until the next fold
 *       3. prune WAL segments fully covered by the snapshot (the
 *          writer remembers the last epoch of each segment it
 *          closed, so only a segment left by an earlier process is
 *          ever read, and only once)
 *       4. epoch += 1
 *
 * Recovery (constructor, when the durable directory has state): load
 * the newest decodable snapshot as the store, then replay WAL records
 * from epochs the snapshot does not cover, in order, into it. The
 * recovered store is the dedup set, so a retransmitted recovered
 * frame is a Duplicate with nothing to preseed. That is what makes
 * the post-recovery ranking identical to an uninterrupted run's: the
 * deduplicated report set is identical, and the ranking is a pure
 * function of that set (tests/test_fleet_durable.cc kills a collector
 * mid-epoch and asserts bit-identical rankings).
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
#include <string>
#include <vector>

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
     * Validate, dedup on the store, append to the WAL under the
     * current epoch and fold, before returning.
     */
    IngestStatus
    ingest(const std::uint8_t *data, std::size_t size)
    {
        return collector_.ingest(data, size);
    }

    IngestStatus
    ingest(const std::vector<std::uint8_t> &wire)
    {
        return collector_.ingest(wire);
    }

    /** Encode + ingest (the profile-producer convenience path). */
    IngestStatus
    submit(const RunProfile &profile)
    {
        return collector_.submit(profile);
    }

    /**
     * Close the current epoch: flush + snapshot + prune, advance the
     * epoch counter. Returns the snapshot just written (epoch = the
     * epoch that closed): a reference to the live store, stamped and
     * encoded in place, whose contents hold until the next ingest.
     * Copy it to keep it.
     */
    const RankerSnapshot &rollEpoch();

    /** Current ranking over every stored report. */
    std::vector<RankedEvent>
    rank(bool include_absence = false) const
    {
        return store_.rank(include_absence);
    }

    std::size_t storedReports() const { return store_.reportCount(); }
    const RankerSnapshot::ReportMap &store() const { return store_.reports(); }

    /** The intake, for its "fleet.collector" metrics. */
    const Collector &inner() const { return collector_; }

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
    /** The intake's fold: dedup on the store, WAL append, digest. */
    bool fold(const RunProfileView &view, std::uint64_t print);

    std::string dir_;
    std::uint64_t collectorId_;
    /**
     * The deduplicated report store. rollEpoch() stamps its id and
     * epoch; between rolls they still name the last snapshot.
     */
    RankerSnapshot store_;
    Collector collector_;
    /** Created after recovery so replay never reads the new segment. */
    std::unique_ptr<WalWriter> wal_;
    std::uint64_t epoch_ = 0;
    RecoveryReport recovery_;

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
