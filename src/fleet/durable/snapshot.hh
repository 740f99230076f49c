/**
 * @file
 * RankerSnapshot: the immutable, mergeable compaction of a
 * collector's diagnosis state at an epoch boundary.
 *
 * The Ranker's sufficient statistics — per-event tallies
 * |F&e| / |S&e| plus the profile counts |F| / |S| — are *additive*
 * but not *mergeable*: two collectors that both saw the same report
 * (gossip, at-least-once cross-site delivery) would double-count it
 * under tally addition, and no amount of post-hoc arithmetic can
 * undo that, because the tallies have forgotten which reports they
 * came from. The mergeable sufficient statistic is one level lower:
 * the *deduplicated report set* itself, keyed by the canonical wire
 * fingerprint, each entry carrying the report's failure label and
 * its event set. Every tally is a projection of that set, so:
 *
 *   merge(A, B) = union-by-fingerprint(A, B)
 *
 * is associative, commutative, and idempotent by construction (set
 * union with min/max on the scalar metadata), and the ranking of a
 * merged snapshot equals the ranking a single collector would have
 * produced over the union of the underlying reports — the property
 * the multi-collector campaign and its coordinator depend on
 * (tests/test_fleet_durable.cc asserts it across shuffled partitions
 * for 1/2/4/8 collectors).
 *
 * On disk a snapshot is one support/frame_codec frame (magic
 * "STMS"), the same hostile-byte discipline as the wire and trace
 * formats. The payload:
 *
 *     collectorId u64      min over merged inputs
 *     epoch u64            max epoch compacted through, inclusive
 *     reportCount u64
 *     per report, ascending by fingerprint:
 *       fingerprint u64
 *       failure u8
 *       eventCount u32
 *       per event, ascending by EventKey:
 *         type u8, a u64, b u64
 *
 * Counts that overrun and unsorted or duplicate keys (which would
 * break the canonical-encoding guarantee) are Malformed. Because the
 * entry order is canonical, equal snapshots serialize to equal bytes:
 * a coordinator's merged file is bit-identical no matter the merge
 * order.
 */

#ifndef STM_FLEET_DURABLE_SNAPSHOT_HH
#define STM_FLEET_DURABLE_SNAPSHOT_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "diag/scoring.hh"
#include "fleet/wire_format.hh"

namespace stm::fleet
{

/** Magic "STMS" (STM Snapshot); bump the version on any layout change. */
constexpr FrameSpec kSnapFrame{0x534D5453u, 1};

/** One deduplicated report, reduced to what the ranker consumes. */
struct ReportDigest
{
    bool failure = true;
    /** Sorted, unique event keys (the report's event set). */
    std::vector<EventKey> events;

    bool operator==(const ReportDigest &) const = default;
};

/** Immutable mergeable compaction of a collector's report state. */
class RankerSnapshot
{
  public:
    using ReportMap = std::map<std::uint64_t, ReportDigest>;

    RankerSnapshot() = default;
    RankerSnapshot(std::uint64_t collector_id, std::uint64_t epoch,
                   ReportMap reports)
        : collectorId_(collector_id), epoch_(epoch),
          reports_(std::move(reports))
    {
    }

    std::uint64_t collectorId() const { return collectorId_; }
    std::uint64_t epoch() const { return epoch_; }
    const ReportMap &reports() const { return reports_; }
    std::size_t reportCount() const { return reports_.size(); }

    std::uint64_t
    failureReports() const
    {
        std::uint64_t n = 0;
        for (const auto &[fp, d] : reports_)
            n += d.failure ? 1 : 0;
        return n;
    }

    std::uint64_t
    successReports() const
    {
        return reports_.size() - failureReports();
    }

    /**
     * Union-by-fingerprint merge. Associative, commutative, and
     * idempotent: overlapping fingerprints keep the existing digest
     * (equal fingerprints imply equal payloads, hence equal digests,
     * up to hash collision), collectorId takes the min and epoch the
     * max so the scalar metadata is order-independent too. Taken
     * by value: pass an rvalue to splice its digests in without
     * copying them.
     */
    void merge(RankerSnapshot other);

    /**
     * The sufficient statistics the snapshot projects to, derived by
     * folding every digest: equal to Ranker::exportStats() of a
     * ranker fed the same reports. Two snapshots with equal report
     * maps yield equal statistics.
     */
    scoring::SufficientStats sufficientStats() const;

    /**
     * Rank the snapshot's reports (identical to a Ranker that
     * ingested each deduplicated report exactly once).
     */
    std::vector<RankedEvent> rank(bool include_absence = false) const;

    /** Canonical encoding (deterministic: equal maps, equal bytes). */
    std::vector<std::uint8_t> serialize() const;

    /**
     * Exact size of serialize()'s output: header + 24-byte prefix +
     * per report 13 + 17 bytes per event.
     */
    std::size_t encodedSize() const;

    /**
     * Decode one snapshot. On success fills @p out and returns Ok;
     * on any failure @p out is untouched and the status says why.
     * Never crashes or misreads on hostile bytes.
     */
    static FrameStatus deserialize(const std::uint8_t *data,
                                   std::size_t size,
                                   RankerSnapshot *out);

    static FrameStatus
    deserialize(const std::vector<std::uint8_t> &bytes,
                RankerSnapshot *out)
    {
        return deserialize(bytes.data(), bytes.size(), out);
    }

    /**
     * Write to @p path atomically (temp file + rename), so a reader
     * never observes a half-written snapshot. Returns false on I/O
     * failure. @p bytes_out, if given, receives the file size.
     */
    bool writeFile(const std::string &path,
                   std::size_t *bytes_out = nullptr) const;

    /** Read and decode @p path. An unreadable file is IoError. */
    static FrameStatus readFile(const std::string &path,
                                RankerSnapshot *out);

    bool operator==(const RankerSnapshot &) const = default;

  private:
    /**
     * The durable collector keeps its live report store as a
     * snapshot, folds reports into it and stamps id and epoch at
     * each roll, so the roll encodes the store without copying it.
     */
    friend class DurableCollector;

    /** Encode into @p out, which holds exactly encodedSize() bytes. */
    void encodeInto(std::uint8_t *out, std::size_t size) const;

    std::uint64_t collectorId_ = 0;
    std::uint64_t epoch_ = 0;
    ReportMap reports_;
};

/**
 * The digest of one decoded wire report: its event set (sorted,
 * unique) and failure label — the exact reduction both the
 * Ranker and the snapshot store apply, kept in one place so they
 * cannot drift.
 */
ReportDigest digestOfView(const RunProfileView &view);

} // namespace stm::fleet

#endif // STM_FLEET_DURABLE_SNAPSHOT_HH
