#include "fleet/durable/wal.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "fleet/wire_format.hh"
#include "support/file_io.hh"
#include "support/logging.hh"

namespace stm::fleet
{

namespace
{

/** Record CRC domain: epoch + frameLen + frame bytes — everything
 * after the record magic except the CRC field itself. */
std::uint32_t
walRecordCrc(const std::uint8_t *header, const std::uint8_t *frame,
             std::size_t frame_len)
{
    std::uint32_t c = crc32Init();
    c = crc32Update(c, header + 4, 12); // epoch u64 + frameLen u32
    c = crc32Update(c, frame, frame_len);
    return crc32Final(c);
}

/** Longest frame a record may hold: the wire's largest. */
constexpr std::size_t kWalMaxFrameLen =
    kFrameHeaderSize + kWireMaxPayload;

} // namespace

std::string
walSegmentPath(const std::string &dir, std::uint64_t collector_id,
               std::uint64_t seq)
{
    char name[64];
    std::snprintf(name, sizeof name, "wal-%llu-%08llu.stmw",
                  static_cast<unsigned long long>(collector_id),
                  static_cast<unsigned long long>(seq));
    return dir + "/" + name;
}

std::vector<std::uint64_t>
walSegments(const std::string &dir, std::uint64_t collector_id)
{
    std::vector<std::uint64_t> seqs;
    std::error_code ec;
    char prefix[48];
    std::snprintf(prefix, sizeof prefix, "wal-%llu-",
                  static_cast<unsigned long long>(collector_id));
    for (const auto &entry :
         std::filesystem::directory_iterator(dir, ec)) {
        std::string name = entry.path().filename().string();
        if (name.rfind(prefix, 0) != 0 ||
            name.size() < std::strlen(prefix) + 6 ||
            name.substr(name.size() - 5) != ".stmw") {
            continue;
        }
        std::string digits = name.substr(
            std::strlen(prefix),
            name.size() - std::strlen(prefix) - 5);
        if (digits.empty() ||
            digits.find_first_not_of("0123456789") !=
                std::string::npos) {
            continue;
        }
        seqs.push_back(std::strtoull(digits.c_str(), nullptr, 10));
    }
    std::sort(seqs.begin(), seqs.end());
    return seqs;
}

WalWriter::WalWriter(std::string dir, std::uint64_t collector_id,
                     std::size_t rotate_bytes)
    : dir_(std::move(dir)), collectorId_(collector_id),
      rotateBytes_(rotate_bytes)
{
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    std::vector<std::uint64_t> existing =
        walSegments(dir_, collectorId_);
    activeSeq_ = existing.empty() ? 0 : existing.back() + 1;
    firstSeq_ = activeSeq_;
    openSegment();
}

WalWriter::~WalWriter()
{
    if (out_.is_open())
        out_.flush();
}

void
WalWriter::openSegment()
{
    if (out_.is_open()) {
        out_.flush();
        out_.close();
        closedLastEpoch_[activeSeq_] = activeLastEpoch_;
        ++activeSeq_;
        activeLastEpoch_ = 0;
    }
    std::string path =
        walSegmentPath(dir_, collectorId_, activeSeq_);
    out_.open(path, std::ios::binary | std::ios::trunc);
    if (!out_)
        fatal("cannot open WAL segment {}", path);
    std::uint8_t header[kWalSegmentHeaderSize];
    le::put(header, kWalMagic);
    le::put(header + 4, kWalVersion);
    le::put(header + 6, std::uint16_t{0}); // flags, reserved
    le::put(header + 8, collectorId_);
    out_.write(reinterpret_cast<const char *>(header),
               sizeof header);
    activeBytes_ = sizeof header;
    ++segmentsOpened_;
}

std::size_t
WalWriter::append(std::uint64_t epoch, const std::uint8_t *frame,
                  std::size_t size)
{
    if (activeBytes_ >= rotateBytes_)
        openSegment();
    std::uint8_t header[kWalRecordHeaderSize];
    le::put(header, kWalRecordMagic);
    le::put(header + 4, epoch);
    le::put(header + 12, static_cast<std::uint32_t>(size));
    le::put(header + 16, walRecordCrc(header, frame, size));
    out_.write(reinterpret_cast<const char *>(header),
               sizeof header);
    out_.write(reinterpret_cast<const char *>(frame),
               static_cast<std::streamsize>(size));
    std::size_t total = sizeof header + size;
    activeLastEpoch_ = epoch;
    activeBytes_ += total;
    bytesAppended_ += total;
    ++recordsAppended_;
    return total;
}

void
WalWriter::flush()
{
    out_.flush();
}

std::uint64_t
WalWriter::lastEpochOf(std::uint64_t seq)
{
    auto it = closedLastEpoch_.find(seq);
    if (it != closedLastEpoch_.end())
        return it->second;
    // Not a segment this writer closed: its valid prefix is exactly
    // what any recovery could ever read out of it, so the last epoch
    // of that prefix decides. Segments below firstSeq_ were left by
    // an earlier process, and no writer appends to an existing file,
    // so their answer is final and cached.
    std::uint64_t lastEpoch = 0;
    replayWalSegment(
        walSegmentPath(dir_, collectorId_, seq),
        [&](const WalRecord &rec) { lastEpoch = rec.epoch; });
    ++segmentsScanned_;
    if (seq < firstSeq_)
        closedLastEpoch_[seq] = lastEpoch;
    return lastEpoch;
}

std::size_t
WalWriter::prune(std::uint64_t epoch)
{
    // A segment whose last valid epoch is <= the snapshot epoch
    // carries no recoverable data the snapshot lacks. This writer's
    // own closed segments answer from the epoch it recorded when it
    // closed them (what a scan would find, since it wrote every
    // byte); earlier processes' segments are scanned once.
    std::size_t removed = 0;
    for (std::uint64_t seq : walSegments(dir_, collectorId_)) {
        if (seq == activeSeq_ || lastEpochOf(seq) > epoch)
            continue;
        std::string path = walSegmentPath(dir_, collectorId_, seq);
        if (std::remove(path.c_str()) == 0) {
            closedLastEpoch_.erase(seq);
            ++removed;
        }
    }
    return removed;
}

WalReplayResult
replayWalBytes(const std::uint8_t *data, std::size_t size,
               const std::function<void(const WalRecord &)> &sink)
{
    WalReplayResult result;
    FrameReader r(data, size);
    const std::uint8_t *seg = r.take(kWalSegmentHeaderSize);
    if (!seg)
        result.status = FrameStatus::Truncated;
    else if (le::get<std::uint32_t>(seg) != kWalMagic)
        result.status = FrameStatus::BadMagic;
    else if (le::get<std::uint16_t>(seg + 4) != kWalVersion)
        result.status = FrameStatus::BadVersion;
    if (result.status != FrameStatus::Ok)
        return result;

    WalRecord record;
    while (r.remaining() != 0) {
        const std::uint8_t *h = r.take(kWalRecordHeaderSize);
        if (!h) {
            result.status = FrameStatus::Truncated;
            break;
        }
        if (le::get<std::uint32_t>(h) != kWalRecordMagic) {
            result.status = FrameStatus::BadMagic;
            break;
        }
        auto frameLen = le::get<std::uint32_t>(h + 12);
        if (frameLen > kWalMaxFrameLen) {
            result.status = FrameStatus::Malformed;
            break;
        }
        const std::uint8_t *frame = r.take(frameLen);
        if (!frame) {
            result.status = FrameStatus::Truncated;
            break;
        }
        if (walRecordCrc(h, frame, frameLen) !=
            le::get<std::uint32_t>(h + 16)) {
            result.status = FrameStatus::BadCrc;
            break;
        }
        record.epoch = le::get<std::uint64_t>(h + 4);
        record.frame.assign(frame, frame + frameLen);
        sink(record);
        ++result.records;
        result.bytes += kWalRecordHeaderSize + frameLen;
    }
    result.stopOffset = kWalSegmentHeaderSize + result.bytes;
    return result;
}

WalReplayResult
replayWalSegment(const std::string &path,
                 const std::function<void(const WalRecord &)> &sink)
{
    PageBuffer bytes;
    if (!readWholeFile(path, &bytes)) {
        WalReplayResult result;
        result.status = FrameStatus::IoError;
        return result;
    }
    return replayWalBytes(bytes.data(), bytes.size(), sink);
}

WalReplayResult
replayWalDir(const std::string &dir, std::uint64_t collector_id,
             const std::function<void(const WalRecord &)> &sink)
{
    WalReplayResult total;
    for (std::uint64_t seq : walSegments(dir, collector_id)) {
        WalReplayResult one = replayWalSegment(
            walSegmentPath(dir, collector_id, seq), sink);
        total.records += one.records;
        total.bytes += one.bytes;
        total.status = one.status;
        total.stopOffset = one.stopOffset;
        if (one.status != FrameStatus::Ok)
            break;
    }
    return total;
}

} // namespace stm::fleet
