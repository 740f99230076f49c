#include "fleet/durable/snapshot.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "diag/event_key.hh"
#include "support/checksum.hh"
#include "support/file_io.hh"

namespace stm::fleet
{

namespace
{

/** Explicit little-endian helpers (the disk format is LE, like the
 * wire). Neither stores nor loads bound-check — callers own the
 * arithmetic. */
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

/** CRC domain: version + flags + payload (bytes [4,12) + payload),
 * the same partition as the wire frame's. */
std::uint32_t
snapCrc(const std::uint8_t *file, std::size_t payload_len)
{
    std::uint32_t c = crc32Init();
    c = crc32Update(c, file + 4, 8);
    c = crc32Update(c, file + kSnapHeaderSize, payload_len);
    return crc32Final(c);
}

/** Fixed payload prefix: collectorId u64 + epoch u64 + count u64. */
constexpr std::size_t kPrefixSize = 24;
/** Per-report header: fingerprint u64 + failure u8 + eventCount u32. */
constexpr std::size_t kReportHeaderSize = 13;
constexpr std::size_t kEventSize = 17; // type u8 + a u64 + b u64

} // namespace

std::string
snapStatusName(SnapStatus status)
{
    switch (status) {
      case SnapStatus::Ok:
        return "ok";
      case SnapStatus::Truncated:
        return "truncated";
      case SnapStatus::BadMagic:
        return "bad-magic";
      case SnapStatus::BadVersion:
        return "bad-version";
      case SnapStatus::BadCrc:
        return "bad-crc";
      case SnapStatus::Malformed:
        return "malformed";
    }
    return "unknown";
}

ReportDigest
digestOfView(const RunProfileView &view)
{
    ReportDigest d;
    d.failure = view.failure();
    if (view.kind() == ProfileKind::Lbr) {
        d.events.reserve(view.lbrSize());
        for (std::size_t i = 0; i < view.lbrSize(); ++i)
            d.events.push_back(eventOfBranchRecord(view.lbr(i)));
    } else {
        d.events.reserve(view.lcrSize());
        for (std::size_t i = 0; i < view.lcrSize(); ++i)
            d.events.push_back(eventOfLcrRecord(view.lcr(i)));
    }
    std::sort(d.events.begin(), d.events.end());
    d.events.erase(std::unique(d.events.begin(), d.events.end()),
                   d.events.end());
    return d;
}

void
RankerSnapshot::merge(RankerSnapshot other)
{
    // min/max metadata keeps the merged scalars order-independent.
    // Collector id 0 is "unset" (the identity element a
    // default-constructed accumulator starts as) and never wins the
    // min — real collectors use ids >= 1.
    if (collectorId_ == 0)
        collectorId_ = other.collectorId_;
    else if (other.collectorId_ != 0)
        collectorId_ = std::min(collectorId_, other.collectorId_);
    epoch_ = std::max(epoch_, other.epoch_);
    // map::merge moves nodes across and leaves a colliding key's
    // existing digest in place, which is exactly idempotence (equal
    // fingerprints carry equal digests).
    if (reports_.empty())
        reports_ = std::move(other.reports_);
    else
        reports_.merge(other.reports_);
}

scoring::SufficientStats
RankerSnapshot::sufficientStats() const
{
    scoring::SufficientStats stats;
    for (const auto &[fp, d] : reports_) {
        if (d.failure) {
            ++stats.failures;
            for (const EventKey &e : d.events)
                ++stats.tallies[e].inFailures;
        } else {
            ++stats.successes;
            for (const EventKey &e : d.events)
                ++stats.tallies[e].inSuccesses;
        }
    }
    return stats;
}

std::vector<RankedEvent>
RankerSnapshot::rank(bool include_absence) const
{
    scoring::SufficientStats s = sufficientStats();
    return scoring::rankTallies(s.tallies, s.failures, s.successes,
                                include_absence);
}

std::size_t
RankerSnapshot::encodedSize() const
{
    std::size_t size = kSnapHeaderSize + kPrefixSize;
    for (const auto &[fp, d] : reports_)
        size += kReportHeaderSize + kEventSize * d.events.size();
    return size;
}

std::vector<std::uint8_t>
RankerSnapshot::serialize() const
{
    std::vector<std::uint8_t> out(encodedSize());
    encodeInto(out.data(), out.size());
    return out;
}

void
RankerSnapshot::encodeInto(std::uint8_t *out, std::size_t size) const
{
    std::uint8_t *p = out;
    putLe32(p, kSnapMagic);
    putLe16(p + 4, kSnapVersion);
    putLe16(p + 6, 0); // flags, reserved
    p += kSnapHeaderSize; // payloadLen and crc are patched below

    putLe64(p, collectorId_);
    putLe64(p + 8, epoch_);
    putLe64(p + 16, reports_.size());
    p += kPrefixSize;
    for (const auto &[fp, d] : reports_) {
        putLe64(p, fp);
        p[8] = d.failure ? 1 : 0;
        putLe32(p + 9, static_cast<std::uint32_t>(d.events.size()));
        p += kReportHeaderSize;
        for (const EventKey &e : d.events) {
            p[0] = static_cast<std::uint8_t>(e.type);
            putLe64(p + 1, e.a);
            putLe64(p + 9, e.b);
            p += kEventSize;
        }
    }

    std::size_t payloadLen = size - kSnapHeaderSize;
    putLe32(out + 8, static_cast<std::uint32_t>(payloadLen));
    putLe32(out + 12, snapCrc(out, payloadLen));
}

SnapStatus
RankerSnapshot::deserialize(const std::uint8_t *data,
                            std::size_t size, RankerSnapshot *out)
{
    if (size < kSnapHeaderSize)
        return SnapStatus::Truncated;
    if (getLe32(data) != kSnapMagic)
        return SnapStatus::BadMagic;
    // Version before CRC: a future version may define a different
    // checksum domain.
    if (getLe16(data + 4) != kSnapVersion)
        return SnapStatus::BadVersion;
    std::uint32_t payloadLen = getLe32(data + 8);
    if (payloadLen > size - kSnapHeaderSize)
        return SnapStatus::Truncated;
    if (payloadLen < size - kSnapHeaderSize)
        return SnapStatus::Malformed; // trailing bytes
    if (snapCrc(data, payloadLen) != getLe32(data + 12))
        return SnapStatus::BadCrc;

    const std::uint8_t *p = data + kSnapHeaderSize;
    std::size_t rem = payloadLen;
    if (rem < kPrefixSize)
        return SnapStatus::Malformed;
    RankerSnapshot snap;
    snap.collectorId_ = getLe64(p);
    snap.epoch_ = getLe64(p + 8);
    std::uint64_t reportCount = getLe64(p + 16);
    p += kPrefixSize;
    rem -= kPrefixSize;

    // Every report costs at least its header; reject absurd counts
    // before looping so a hostile header cannot make us spin.
    if (reportCount > rem / kReportHeaderSize)
        return SnapStatus::Malformed;

    std::uint64_t lastFp = 0;
    for (std::uint64_t r = 0; r < reportCount; ++r) {
        if (rem < kReportHeaderSize)
            return SnapStatus::Malformed;
        std::uint64_t fp = getLe64(p);
        std::uint8_t failure = p[8];
        std::uint32_t eventCount = getLe32(p + 9);
        p += kReportHeaderSize;
        rem -= kReportHeaderSize;
        if (failure > 1)
            return SnapStatus::Malformed;
        // Canonical order is strictly ascending; ties would mean
        // duplicate keys, inversions a non-canonical encoder. Both
        // would break the equal-maps-equal-bytes guarantee.
        if (r != 0 && fp <= lastFp)
            return SnapStatus::Malformed;
        lastFp = fp;
        if (eventCount > rem / kEventSize)
            return SnapStatus::Malformed;
        ReportDigest d;
        d.failure = failure != 0;
        d.events.reserve(eventCount);
        for (std::uint32_t i = 0; i < eventCount; ++i) {
            std::uint8_t type = p[0];
            if (type > static_cast<std::uint8_t>(
                           EventKey::Type::Coherence)) {
                return SnapStatus::Malformed;
            }
            EventKey e;
            e.type = static_cast<EventKey::Type>(type);
            e.a = getLe64(p + 1);
            e.b = getLe64(p + 9);
            if (!d.events.empty() && !(d.events.back() < e))
                return SnapStatus::Malformed; // non-canonical
            d.events.push_back(e);
            p += kEventSize;
            rem -= kEventSize;
        }
        snap.reports_.emplace_hint(snap.reports_.end(), fp,
                                   std::move(d));
    }
    if (rem != 0)
        return SnapStatus::Malformed;
    *out = std::move(snap);
    return SnapStatus::Ok;
}

bool
RankerSnapshot::writeFile(const std::string &path,
                          std::size_t *bytes_out) const
{
    // The image goes through its own mapping, not the heap (see
    // PageBuffer): snapshots run to megabytes and live only here.
    PageBuffer bytes(encodedSize());
    encodeInto(bytes.data(), bytes.size());
    if (bytes_out)
        *bytes_out = bytes.size();
    std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os)
            return false;
        os.write(reinterpret_cast<const char *>(bytes.data()),
                 static_cast<std::streamsize>(bytes.size()));
        if (!os)
            return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

SnapStatus
RankerSnapshot::readFile(const std::string &path,
                         RankerSnapshot *out)
{
    PageBuffer bytes;
    if (!readWholeFile(path, &bytes))
        return SnapStatus::Truncated;
    return deserialize(bytes.data(), bytes.size(), out);
}

} // namespace stm::fleet
