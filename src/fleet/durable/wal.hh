/**
 * @file
 * The collector's write-ahead log: every accepted wire frame is
 * appended, stamped with the collector epoch it arrived in, so a
 * restarted collector can replay the epochs no snapshot has
 * compacted yet and provably reconverge to the identical ranking.
 *
 * The log is segment-rotated: records append to the active segment
 * (`wal-<collectorId>-<seq>.stmw`) until it exceeds the rotation
 * threshold, then a new segment opens. A snapshot at epoch E makes
 * every *closed* segment whose last record has epoch <= E garbage;
 * prune() deletes them. A writer never appends to a pre-existing
 * file — recovery always opens a fresh segment — so a torn tail from
 * a crash is read exactly once and never extended.
 *
 * On-disk layout, little-endian throughout:
 *
 *   segment header (16 bytes):
 *     [magic "STMW" u32][version u16][flags u16][collectorId u64]
 *
 *   record (20-byte header + frame):
 *     [magic "WREC" u32][epoch u64][frameLen u32][crc32 u32]
 *     [frame: frameLen bytes of STMP wire frame]
 *
 * The record CRC covers epoch, frameLen, and the frame bytes. A
 * frameLen over one wire frame's largest size (kWireMaxPayload plus
 * its header) is Malformed. The reader reads through the
 * support/frame_codec cursor and mirrors the wire decoder's
 * hostile-byte discipline with one deliberate difference: a log that
 * stops mid-record is *expected* after a crash (the torn tail), so
 * replay yields every record up to the first invalid byte and then
 * reports *why* it stopped (a FrameStatus) instead of failing
 * wholesale. The hostile-byte suite in tests/test_frame_codec.cc
 * pins the exact prefix-replay property: corrupt byte in record i =>
 * records [0, i) replay, nothing after, never a crash, never a
 * misread frame.
 */

#ifndef STM_FLEET_DURABLE_WAL_HH
#define STM_FLEET_DURABLE_WAL_HH

#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "support/frame_codec.hh"

namespace stm::fleet
{

/** Segment file magic: "STMW" (STM Wal). */
constexpr std::uint32_t kWalMagic = 0x574D5453u;

/** Per-record magic: "WREC". */
constexpr std::uint32_t kWalRecordMagic = 0x43455257u;

/** Current WAL format version. */
constexpr std::uint16_t kWalVersion = 1;

/** Segment header / record header sizes in bytes. */
constexpr std::size_t kWalSegmentHeaderSize = 16;
constexpr std::size_t kWalRecordHeaderSize = 20;

/** One replayed record. */
struct WalRecord
{
    std::uint64_t epoch = 0;
    std::vector<std::uint8_t> frame;

    bool operator==(const WalRecord &) const = default;
};

/** Outcome of one segment replay. */
struct WalReplayResult
{
    FrameStatus status = FrameStatus::Ok; //!< why replay stopped
    std::uint64_t records = 0;  //!< records delivered
    std::uint64_t bytes = 0;    //!< record + frame bytes consumed
    std::uint64_t stopOffset = 0; //!< offset replay stopped at
};

/**
 * Appender for one collector's log. Not thread-safe: the durable
 * layer serializes appends behind its ingest accounting (one WAL per
 * collector process, written by the ingest side only).
 */
class WalWriter
{
  public:
    /**
     * Open a fresh segment in @p dir with sequence number one past
     * the highest existing segment for @p collector_id. Throws
     * FatalError if the directory is unusable.
     */
    WalWriter(std::string dir, std::uint64_t collector_id,
              std::size_t rotate_bytes = std::size_t{4} << 20);

    ~WalWriter();

    WalWriter(const WalWriter &) = delete;
    WalWriter &operator=(const WalWriter &) = delete;

    /**
     * Append one accepted wire frame under @p epoch. Epochs must be
     * non-decreasing. Returns the record's total on-disk size.
     */
    std::size_t append(std::uint64_t epoch, const std::uint8_t *frame,
                       std::size_t size);

    /** Flush buffered bytes to the OS (epoch-roll barrier). */
    void flush();

    /**
     * Delete every non-active segment whose *valid* records are all
     * from epochs <= @p epoch (they are fully covered by the
     * snapshot at @p epoch). This includes prior-generation segments
     * left by a crashed process: their torn tails were unreadable at
     * recovery and stay unreadable forever, so once the valid prefix
     * is covered the file is garbage. The active segment is never
     * pruned. Segments this writer closed are judged by the last
     * epoch it appended to them, with no file read; any other
     * segment is replayed to find its last valid epoch, and a
     * prior-generation segment's answer is cached, so it is read at
     * most once. Returns the number of files deleted.
     */
    std::size_t prune(std::uint64_t epoch);

    std::uint64_t segmentsOpened() const { return segmentsOpened_; }
    std::uint64_t bytesAppended() const { return bytesAppended_; }
    std::uint64_t recordsAppended() const { return recordsAppended_; }
    /** Segments prune() has had to replay (none of this writer's). */
    std::uint64_t segmentsScanned() const { return segmentsScanned_; }

  private:
    void openSegment();
    /** Last valid epoch of non-active segment @p seq (0 if empty). */
    std::uint64_t lastEpochOf(std::uint64_t seq);

    std::string dir_;
    std::uint64_t collectorId_;
    std::size_t rotateBytes_;
    std::ofstream out_;
    std::uint64_t activeSeq_ = 0;
    /** First segment this writer opened; lower ones predate it. */
    std::uint64_t firstSeq_ = 0;
    std::size_t activeBytes_ = 0;
    /** Epoch of the active segment's last record (0 while empty). */
    std::uint64_t activeLastEpoch_ = 0;
    /**
     * Last epoch of each closed segment still on disk: recorded at
     * rotation for this writer's segments, cached after one scan for
     * an earlier process's.
     */
    std::map<std::uint64_t, std::uint64_t> closedLastEpoch_;
    std::uint64_t segmentsScanned_ = 0;
    std::uint64_t segmentsOpened_ = 0;
    std::uint64_t bytesAppended_ = 0;
    std::uint64_t recordsAppended_ = 0;
};

/**
 * Replay one segment image: deliver each valid record in order, stop
 * at the first invalid byte and say why. Never throws on content.
 */
WalReplayResult
replayWalBytes(const std::uint8_t *data, std::size_t size,
               const std::function<void(const WalRecord &)> &sink);

/** Replay one segment file; an unreadable file is IoError. */
WalReplayResult
replayWalSegment(const std::string &path,
                 const std::function<void(const WalRecord &)> &sink);

/**
 * Replay a whole directory for one collector: segments in ascending
 * sequence order. Replay stops at the first segment that does not
 * end cleanly (a torn tail in an *earlier* segment means later
 * segments were written by a pre-crash process whose tail was lost —
 * the conservative reading is to stop, and the caller re-ingests
 * through dedup anyway). Returns the combined result with `status`
 * of the stopping segment.
 */
WalReplayResult
replayWalDir(const std::string &dir, std::uint64_t collector_id,
             const std::function<void(const WalRecord &)> &sink);

/** Sorted sequence numbers of @p collector_id's segments in @p dir. */
std::vector<std::uint64_t> walSegments(const std::string &dir,
                                       std::uint64_t collector_id);

/** Path of segment @p seq for @p collector_id in @p dir. */
std::string walSegmentPath(const std::string &dir,
                           std::uint64_t collector_id,
                           std::uint64_t seq);

} // namespace stm::fleet

#endif // STM_FLEET_DURABLE_WAL_HH
