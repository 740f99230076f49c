#include "fleet/durable/wal.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "support/checksum.hh"
#include "support/file_io.hh"
#include "support/logging.hh"

namespace stm::fleet
{

namespace
{

void
putLe16(std::uint8_t *p, std::uint16_t v)
{
    p[0] = static_cast<std::uint8_t>(v);
    p[1] = static_cast<std::uint8_t>(v >> 8);
}

void
putLe32(std::uint8_t *p, std::uint32_t v)
{
    putLe16(p, static_cast<std::uint16_t>(v));
    putLe16(p + 2, static_cast<std::uint16_t>(v >> 16));
}

void
putLe64(std::uint8_t *p, std::uint64_t v)
{
    putLe32(p, static_cast<std::uint32_t>(v));
    putLe32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

std::uint16_t
getLe16(const std::uint8_t *p)
{
    return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t
getLe32(const std::uint8_t *p)
{
    return getLe16(p) |
           (static_cast<std::uint32_t>(getLe16(p + 2)) << 16);
}

std::uint64_t
getLe64(const std::uint8_t *p)
{
    return getLe32(p) |
           (static_cast<std::uint64_t>(getLe32(p + 4)) << 32);
}

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

/** A frame larger than this is a corrupt length field, not a real
 * frame: the wire caps payloads far below it. */
constexpr std::uint32_t kWalMaxFrameLen = 64u << 20;

} // namespace

std::string
walStatusName(WalStatus status)
{
    switch (status) {
      case WalStatus::Ok:
        return "ok";
      case WalStatus::Truncated:
        return "truncated";
      case WalStatus::BadMagic:
        return "bad-magic";
      case WalStatus::BadVersion:
        return "bad-version";
      case WalStatus::BadCrc:
        return "bad-crc";
      case WalStatus::Malformed:
        return "malformed";
    }
    return "unknown";
}

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
    putLe32(header, kWalMagic);
    putLe16(header + 4, kWalVersion);
    putLe16(header + 6, 0); // flags, reserved
    putLe64(header + 8, collectorId_);
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
    putLe32(header, kWalRecordMagic);
    putLe64(header + 4, epoch);
    putLe32(header + 12, static_cast<std::uint32_t>(size));
    putLe32(header + 16, walRecordCrc(header, frame, size));
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
replayWalSegment(const std::string &path,
                 const std::function<void(const WalRecord &)> &sink)
{
    WalReplayResult result;
    PageBuffer bytes;
    if (!readWholeFile(path, &bytes)) {
        result.status = WalStatus::Truncated;
        return result;
    }

    const std::uint8_t *data = bytes.data();
    std::size_t size = bytes.size();
    if (size < kWalSegmentHeaderSize) {
        result.status = WalStatus::Truncated;
        return result;
    }
    if (getLe32(data) != kWalMagic) {
        result.status = WalStatus::BadMagic;
        return result;
    }
    if (getLe16(data + 4) != kWalVersion) {
        result.status = WalStatus::BadVersion;
        return result;
    }

    std::size_t off = kWalSegmentHeaderSize;
    WalRecord record;
    while (off < size) {
        if (size - off < kWalRecordHeaderSize) {
            result.status = WalStatus::Truncated;
            break;
        }
        const std::uint8_t *h = data + off;
        if (getLe32(h) != kWalRecordMagic) {
            result.status = WalStatus::BadMagic;
            break;
        }
        std::uint64_t epoch = getLe64(h + 4);
        std::uint32_t frameLen = getLe32(h + 12);
        if (frameLen > kWalMaxFrameLen) {
            result.status = WalStatus::Malformed;
            break;
        }
        if (size - off - kWalRecordHeaderSize < frameLen) {
            result.status = WalStatus::Truncated;
            break;
        }
        const std::uint8_t *frame = h + kWalRecordHeaderSize;
        if (walRecordCrc(h, frame, frameLen) != getLe32(h + 16)) {
            result.status = WalStatus::BadCrc;
            break;
        }
        record.epoch = epoch;
        record.frame.assign(frame, frame + frameLen);
        sink(record);
        off += kWalRecordHeaderSize + frameLen;
        ++result.records;
        result.bytes += kWalRecordHeaderSize + frameLen;
    }
    result.stopOffset = off;
    return result;
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
        if (one.status != WalStatus::Ok)
            break;
    }
    return total;
}

} // namespace stm::fleet
